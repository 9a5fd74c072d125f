"""Modules over vertex structures and the main replacement equivalence.

Regular, ideal and quotient modules over the truncated polynomial family
pass every module axiom; curated mutants break the module Jacobi identity
and, with the minor axioms intact, necessarily break both weak replacements
too.  The harness replays that equivalence on every member.
Run: python3 demos/05_modules.py
"""
from vertexcalc.corpus import full_module_corpus, make_module, module_mutants
from vertexcalc.structures import MODULE_AXIOMS, check_axiom, replay_corpus

M = make_module(3, "quotient")
print(f"{M.name} over {M.over.name}: wbasis = {M.wbasis}")
for axiom in MODULE_AXIOMS:
    print(f"  {check_axiom(M, axiom).verdict:<5} {axiom}")

bad = module_mutants()[0]
print(f"\n{bad.name}:")
for axiom in ("m_jacobi", "m_weak_assoc", "m_weak_skew_assoc", "m_vacuum_prop"):
    rep = check_axiom(bad, axiom)
    print(f"  {rep.verdict:<5} {axiom}")
print("  (the Jacobi identity and both weak replacements fail together,")
print("   exactly as the equivalence demands while the minors still hold)")

rows = replay_corpus(full_module_corpus())
eq = [r for r in rows if r["row"].startswith("m-main-equivalence")]
print(f"\nharness: {len(rows)} rows over {len(full_module_corpus())} members; "
      f"{len(eq)} equivalence rows, zero asymmetries")
wc = [r for r in rows if r["row"] == "m-wc+vfss-not-encoded"][0]
print("note:", wc["premises"]["reason"])
