"""Growing threshold schemes with the lexicographic product.

Substituting a good scheme into every vertex of another compounds their
thresholds: (n, k) pairs compose as n = n1*n2, k = n1*n2 - (n1-k1+1)(n2-k2+1) + 1.
Iterating the 5-cycle gives ((3,5)) -> ((17,25)) -> ((99,125)) -> ...

Run with argument "full" to recompute the 25-vertex threshold exactly: the
code distance proves every 17-set accessing (the canonical tally counts
about 1.1 million coalitions) and a lex scan finds the failing 16-set, in
about a second.
"""

import sys

from graphqss import (
    c5_power,
    family,
    lexicographic_product,
    product_threshold_bound,
    qstar_threshold,
)

n, k = 5, 3
print("iterated 5-cycle powers (composition arithmetic):")
for i in range(1, 7):
    print(f"  i={i}: (({k},{n}))")
    n, k = product_threshold_bound(5, 3, n, k)

print("\nsmall product, verified exhaustively:")
g = lexicographic_product(family("cycle", 5), family("path", 2))
_, bound = product_threshold_bound(5, 3, 2, 2)
rep = qstar_threshold(g)
print(f"  C5 * P2 on {g.n} vertices: bound k <= {bound}, exact k* = {rep.k_star}")

if "full" in sys.argv[1:]:
    g = c5_power(2)
    print(f"\nverifying C5*C5 on {g.n} vertices "
          f"(every 17-subset by the code distance, and a failing 16-set) ...")
    rep = qstar_threshold(g)
    print(f"  exact k* = {rep.k_star}; non-accessing 16-set certificate: "
          f"{list(rep.certificate_fail.members())}")
    print(f"  coalitions checked (canonical count): {rep.sets_checked:,}")
else:
    print("\n(pass 'full' to verify the ((17,25)) threshold exactly)")
