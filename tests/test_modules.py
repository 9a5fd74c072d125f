import pytest

from vertexcalc.corpus import (
    borcherds_structure,
    full_module_corpus,
    make_module,
    module_family,
    module_mutant_expected_failures,
    module_mutants,
    mutants,
    truncated_polynomial_algebra,
    _module_data,
)
from vertexcalc.errors import ConstructionError
from vertexcalc.modules import (
    MODULE_AXIOMS,
    ModuleStructure,
    check_module_all,
    check_module_axiom,
    main_theorem_harness,
    module_construct,
)
from vertexcalc.scalars import Vec
from vertexcalc.structures import ActionTriple, check_axiom


def regular_by_tables(S):
    """W = V with Y_W literally the algebra tables."""
    return ModuleStructure(f"{S.name}-as-module", S, S.basis, dict(S.ytable))


def test_regular_module_equals_algebra_tables():
    S = borcherds_structure(3)
    M = make_module(3, "regular")
    assert M.ywtable == S.ytable


def test_module_construct_refuses_bad_action():
    S = borcherds_structure(3)
    basis, mult, dmap = truncated_polynomial_algebra(3)
    wbasis, action = _module_data(3, "regular")
    action = dict(action)
    action[("e1", "e1")] = Vec.unit("e1")  # t . t = t breaks associativity
    with pytest.raises(ConstructionError) as err:
        module_construct(S, mult, dmap, wbasis, action, "bad")
    assert "associative" in str(err.value)


def test_valid_module_corpus_passes_everything():
    for M in module_family():
        verdicts = check_module_all(M)
        assert all(r.verdict == "PASS" for r in verdicts.values()), M.name


def test_ideal_module_is_proper_submodule():
    M = make_module(4, "ideal")
    assert set(M.wbasis) == {"e1", "e2", "e3"}
    for modes in M.ywtable.values():
        for vec in modes.values():
            assert vec.support() <= set(M.wbasis)


def test_quotient_module_action_well_defined():
    M = make_module(4, "quotient")
    assert set(M.wbasis) == {"f0", "f1", "f2"}
    assert check_module_axiom(M, "m_jacobi").verdict == "PASS"


def test_module_checker_verdicts_match_algebra_on_regular_module():
    pairs = {
        "m_jacobi": "jacobi",
        "m_weak_comm": "weak_comm",
        "m_weak_assoc": "weak_assoc",
        "m_weak_skew_assoc": "weak_skew_assoc",
        "m_vf_skew_symmetry": "vf_skew_symmetry",
        "m_vacuum_prop": "vacuum_prop",
        "m_d_derivative": "d_derivative",
    }
    bases = [borcherds_structure(3)]
    bases += [m for m in mutants()
              if m.name in ("mutant-iterate-shift", "mutant-fat-vacuum")]
    for S in bases:
        M = regular_by_tables(S)
        for m_axiom, axiom in pairs.items():
            got = check_module_axiom(M, m_axiom).verdict
            want = check_axiom(S, axiom).verdict
            assert got == want, (S.name, m_axiom)


def test_module_mutants_fail_their_named_axioms():
    expected = module_mutant_expected_failures()
    for M in module_mutants():
        verdicts = check_module_all(M)
        failed = {a for a, r in verdicts.items() if r.verdict == "FAIL"}
        assert failed == set(expected[M.name]), (M.name, sorted(failed))


def test_jacobi_failing_module_mutants_fail_both_weak_replacements():
    expected = module_mutant_expected_failures()
    for name, broken in expected.items():
        if "m_jacobi" in broken:
            assert "m_weak_assoc" in broken and "m_weak_skew_assoc" in broken


def test_main_theorem_harness_consistent_and_informative():
    report = main_theorem_harness(full_module_corpus())
    verdicts = {r["verdict"] for r in report}
    assert verdicts <= {"PASS", "UNTESTED"}
    # the D-derivative-from-weak-associativity row is actually exercised
    dder_rows = [r for r in report if r["row"] == "m-dder-from-wa"]
    assert any(r["verdict"] == "PASS" for r in dder_rows)
    # weak commutativity is never encoded as a sufficient replacement
    wc_rows = [r for r in report if r["row"] == "m-wc+vfss-not-encoded"]
    assert wc_rows and all(r["verdict"] == "UNTESTED" for r in wc_rows)


def test_harness_equivalence_rows_per_member():
    report = main_theorem_harness(full_module_corpus())
    members = {r["member"] for r in report}
    for member in members:
        eq = [r for r in report
              if r["member"] == member and r["row"].startswith("m-main-equivalence")]
        assert len(eq) == 2


def test_vacuum_free_module_over_ideal_structure():
    # modules over a vacuum-free base: vacuum-dependent axioms are untested,
    # the vacuum-free replacements still hold
    from vertexcalc.corpus import ideal_structure
    S = ideal_structure(3)
    basis, mult, dmap = truncated_polynomial_algebra(3)
    action = {(u, w): mult[(u, w)] for u in S.basis for w in S.basis
              if mult.get((u, w))}
    M = module_construct(S, mult, dmap, S.basis, action, "vf-module-k3")
    assert check_module_axiom(M, "m_vacuum_prop").verdict == "UNTESTED"
    assert check_module_axiom(M, "m_d_derivative").verdict == "UNTESTED"
    for axiom in ("m_jacobi", "m_weak_comm", "m_weak_assoc",
                  "m_weak_skew_assoc", "m_vf_skew_symmetry"):
        assert check_module_axiom(M, axiom).verdict == "PASS"


SHARED_AXIOMS = ("jacobi", "weak_comm", "weak_assoc", "weak_skew_assoc",
                 "vf_skew_symmetry", "vacuum_prop", "d_derivative")


def _comparable(report):
    """Report JSON without the side-specific name, anchor and UNTESTED reason."""
    out = report.to_json()
    del out["axiom"], out["anchor"]
    if out["verdict"] == "UNTESTED":
        out["witness"] = {k: v for k, v in out["witness"].items()
                          if k != "reason"}
    return out


def test_shared_checkers_agree_on_regular_module_across_corpus():
    # an algebra is its own regular module: each shared axiom must give the
    # same verdict, witness and window on both sides, for every member
    from vertexcalc.corpus import full_corpus
    for S in full_corpus():
        M = ModuleStructure(S.name, S, S.basis, S.ytable)
        for axiom in SHARED_AXIOMS:
            want = _comparable(check_axiom(S, axiom))
            got = _comparable(check_module_axiom(M, f"m_{axiom}"))
            assert got == want, (S.name, axiom)


def test_module_anchors_need_only_the_structures_module():
    import os
    import subprocess
    import sys
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    code = ("from vertexcalc.structures import PropertyReport; "
            "print(PropertyReport('m_jacobi', 'PASS').anchor)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == (
        "x0^-1 d((x1-x2)/x0) Yw(u,x1)Yw(v,x2)w - x0^-1 d((-x2+x1)/x0) "
        "Yw(v,x2)Yw(u,x1)w = x1^-1 d((x2+x0)/x1) Yw(Y(u,x0)v,x2)w")


def test_check_module_all_shares_one_slot_triple_per_member(monkeypatch,
                                                            slot_product_calls):
    corpus = full_module_corpus()
    shared = [{a: r.to_json() for a, r in check_module_all(M).items()}
              for M in corpus]
    assert slot_product_calls and max(slot_product_calls.values()) == 1
    assert all(M._triples is None for M in corpus)
    monkeypatch.setattr(ModuleStructure, "triple",
                        lambda A, u, v, w: ActionTriple(A, u, v, w))
    fresh = [{a: r.to_json() for a, r in check_module_all(M).items()}
             for M in full_module_corpus()]
    assert shared == fresh
