"""The density-matrix oracle behind the combinatorial verdicts.

A coalition distinguishes the two encoded basis states exactly when
tr(rho_0 rho_1) = 0, and sees identical states exactly when the trace
distance vanishes; one of the two always happens.  The complete graph shows
the quantum twist: a pair of players is blind to the basis encodings yet
perfectly separates the (1, +i) and (1, -i) superposition secrets.
"""

from graphqss import (
    VertexSet,
    access_report,
    distinguishability,
    embed_secret,
    family,
    graph_state,
)
from graphqss.quantum import stabilizer_for, apply_pauli, trace_norm

c5 = family("cycle", 5)
everyone = VertexSet.full(5)

print("5-cycle, coalitions by size (overlap ~ 0 means accessing):")
for team in [(0,), (0, 1), (0, 2), (0, 1, 2), (0, 2, 4), (0, 1, 2, 3)]:
    b = VertexSet.from_iterable(5, team)
    ov, dist = distinguishability(c5, everyone, b)
    verdict = access_report(c5, everyone, b).q_verdict.value
    print(f"  {str(team):14} overlap={ov:.3f} distance={dist:.3f}  {verdict}")

print("\nstabilizer fixpoints (state unchanged under every generator product):")
s = graph_state(c5)
for d in [(0,), (1, 3), (0, 1, 2)]:
    op = stabilizer_for(c5, VertexSet.from_iterable(5, d))
    drift = max(abs(apply_pauli(s, op).amplitudes - s.amplitudes))
    print(f"  D={str(d):10} phase={op.phase:+d}  max drift = {drift:.1e}")

print("\npartial information on the triangle:")
k3 = family("complete", 3)
a3 = VertexSet.full(3)
pair = VertexSet.from_iterable(3, [0, 1])
ov, dist = distinguishability(k3, a3, pair)
print(f"  basis encodings:   overlap={ov:.3f} distance={dist:.3f} "
      f"({access_report(k3, a3, pair).q_verdict.value})")
s2 = 2**-0.5
plus_i = embed_secret(k3, a3, s2, 1j * s2)
minus_i = embed_secret(k3, a3, s2, -1j * s2)
dist = trace_norm([(1, plus_i), (-1, minus_i)], pair)
print(f"  (1,+i) vs (1,-i):  distance={dist:.3f} "
      "(the pair does learn something)")
