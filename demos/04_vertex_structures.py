"""Finite vertex structures: construction, axiom checking, mutants.

The commutative construction Y(u,x)v = (e^(xD)u) . v turns a truncated
polynomial algebra with a genuine nilpotent derivation into a structure on
which all twelve axiom checkers pass exactly.  A derivation that fails the
Leibniz rule is refused, and curated single-entry table edits break named
axioms with concrete witnesses.  Run: python3 demos/04_vertex_structures.py
"""
from vertexcalc.corpus import (
    borcherds_structure,
    full_corpus,
    ideal_structure,
    mutants,
    truncated_polynomial_algebra,
)
from vertexcalc.errors import ConstructionError
from vertexcalc.structures import (
    AXIOMS,
    borcherds_construct,
    check_axiom,
    replay_corpus,
)

S = borcherds_structure(3)
print("Y(t,x) rows for Q[t]/(t^3) with D = t^2 d/dt:")
for (u, v), modes in sorted(S.ytable.items()):
    if u == "e1":
        print(f"  ({u})_n {v}: ", {n: vec for n, vec in modes.items()})

print("\nthe naive d/dt is not a derivation of the quotient:")
basis, mult, dmap = truncated_polynomial_algebra(3, derivation="d/dt")
try:
    borcherds_construct("bad", basis, mult, dmap, unit="e0")
except ConstructionError as err:
    print("  refused:", err)

print("\ntwelve axiom verdicts on borcherds-k4:")
S4 = borcherds_structure(4)
for axiom in AXIOMS:
    rep = check_axiom(S4, axiom)
    print(f"  {rep.verdict:<5} {axiom}")

ideal = ideal_structure(3)
print("\nvacuum-free ideal variant:", ideal.basis,
      "| jacobi:", check_axiom(ideal, "jacobi").verdict,
      "| vacuum axioms untested:",
      check_axiom(ideal, "vacuum_prop").verdict)

bad = mutants()[0]
rep = check_axiom(bad, "jacobi")
print(f"\n{bad.name}: jacobi {rep.verdict}, witness {rep.witnesses}")

rows = replay_corpus(full_corpus())
passed = sum(1 for r in rows if r["verdict"] == "PASS")
print(f"\nimplication matrix: {len(rows)} rows, {passed} tested-and-consistent, "
      "zero premises-pass/conclusion-fails events")
