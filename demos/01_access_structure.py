"""Who can read a secret shared on the 5-cycle?

A classical bit hidden in a graph state is readable by a coalition B exactly
when B contains a set D whose odd neighborhood stays inside B and whose
overlap with the encoding set is odd; otherwise some C outside B makes B's
view independent of the bit.  This script classifies every coalition of the
5-cycle and shows the certifying sets.
"""

import itertools

from graphqss import (
    CVerdict,
    VertexSet,
    access_report,
    family,
    odd_neighborhood,
    qstar_threshold,
    reconstruction_witnesses,
)

c5 = family("cycle", 5)
everyone = VertexSet.full(5)

print("coalition  classical   quantum      certificate")
for size in range(6):
    for team in itertools.combinations(range(5), size):
        rep = access_report(c5, everyone, VertexSet.from_iterable(5, team))
        kind = "D" if rep.c_verdict is CVerdict.ACCESSING else "C"
        print(
            f"{str(team):10} {rep.c_verdict.value:11} {rep.q_verdict.value:12} "
            f"{kind}={list(rep.witness.members())}"
        )

print()
rep = qstar_threshold(c5)
print(f"threshold: every {rep.k_star}-coalition reconstructs; "
      f"{list(rep.certificate_fail.members())} (size {rep.k_star - 1}) cannot")

b = VertexSet.from_iterable(5, [0, 1, 2])
d, c = reconstruction_witnesses(c5, everyone, b)
print(f"\nreconstruction pair for {list(b.members())}: D={list(d.members())}, "
      f"C={list(c.members())}")
print(f"  Odd(D) = {list(odd_neighborhood(c5, d).members())} stays inside the coalition")
print(f"  Odd(C) covers the outside: {list(odd_neighborhood(c5, c).members())}")
