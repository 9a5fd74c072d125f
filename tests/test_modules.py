import json

import pytest
from conftest import assert_one_build_per_member_and_kind

from vertexcalc import configio, modules, structures
from vertexcalc.corpus import (
    borcherds_structure,
    full_corpus,
    full_module_corpus,
    make_module,
    module_family,
    module_mutant_expected_failures,
    module_mutants,
    truncated_polynomial_algebra,
    _module_data,
)
from vertexcalc.errors import ConsistencyViolationError, ConstructionError
from vertexcalc.modules import MODULE_AXIOMS, ModuleStructure, module_construct
from vertexcalc.scalars import Vec
from vertexcalc.structures import (ANCHORS, REPLACEMENTS, VACUUM_AXIOMS,
                                   PropertyReport, check_all, check_axiom,
                                   replay_corpus, replay_rows)


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
        verdicts = check_all(M)
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
    assert check_axiom(M, "m_jacobi").verdict == "PASS"


def test_module_checker_verdicts_match_algebra_on_regular_module():
    # an algebra is its own regular module: on every member of the corpus
    # each shared axiom gives the same verdict, window and witness on both
    # sides; an UNTESTED reason names the structure on one side and the base
    # structure on the other
    untested = 0
    for S in full_corpus():
        M = regular_by_tables(S)
        for m_axiom in MODULE_AXIOMS:
            got = check_axiom(M, m_axiom).to_json()
            want = check_axiom(S, m_axiom.removeprefix("m_")).to_json()
            assert (got["verdict"], got["window"]) == (want["verdict"], want["window"]), \
                (S.name, m_axiom)
            if want["verdict"] == "UNTESTED":
                assert (got["witness"], want["witness"]) == (
                    {"reason": "base structure has no vacuum element"},
                    {"reason": "structure has no vacuum element"}), (S.name, m_axiom)
                untested += 1
            else:
                assert got["witness"] == want["witness"], (S.name, m_axiom)
    assert untested and len(full_corpus()) == 18


def test_module_mutants_fail_their_named_axioms():
    expected = module_mutant_expected_failures()
    for M in module_mutants():
        verdicts = check_all(M)
        failed = {a for a, r in verdicts.items() if r.verdict == "FAIL"}
        assert failed == set(expected[M.name]), (M.name, sorted(failed))


def test_jacobi_failing_module_mutants_fail_both_weak_replacements():
    expected = module_mutant_expected_failures()
    for name, broken in expected.items():
        if "m_jacobi" in broken:
            assert "m_weak_assoc" in broken and "m_weak_skew_assoc" in broken


def test_main_theorem_harness_consistent_and_informative():
    report = replay_corpus(full_module_corpus())
    verdicts = {r["verdict"] for r in report}
    assert verdicts <= {"PASS", "UNTESTED"}
    # the D-derivative-from-weak-associativity row is actually exercised
    dder_rows = [r for r in report if r["row"] == "m-dder-from-wa"]
    assert any(r["verdict"] == "PASS" for r in dder_rows)
    # weak commutativity is never encoded as a sufficient replacement
    wc_rows = [r for r in report if r["row"] == "m-wc+vfss-not-encoded"]
    assert wc_rows and all(r["verdict"] == "UNTESTED" for r in wc_rows)


def test_harness_equivalence_rows_per_member():
    report = replay_corpus(full_module_corpus())
    members = {r["member"] for r in report}
    for member in members:
        eq = [r for r in report
              if r["member"] == member and r["row"].startswith("m-main-equivalence")]
        assert len(eq) == 2


def test_action_rows_agree_on_a_structure_and_its_regular_module():
    # the action statements are written once: on a structure and on its
    # regular module they give the same verdicts from the same premises
    action = {row.id for row in REPLACEMENTS["action"]}
    for S in full_corpus():
        regular = ModuleStructure(S.name, S, S.basis, S.ytable)
        on_structure = {r["row"]: r for r in replay_corpus([S])
                        if r["row"] in action}
        on_module = {r["row"][2:]: r for r in replay_corpus([regular])
                     if r["row"][2:] in action}
        assert set(on_structure) == set(on_module) == action, S.name
        for row, rec in on_structure.items():
            mrec = on_module[row]
            assert mrec["verdict"] == rec["verdict"], (S.name, row)
            assert {k[2:]: v for k, v in mrec["premises"].items()} \
                == rec["premises"], (S.name, row)


def test_main_theorem_checks_no_base_structure_unless_a_row_fails(
        monkeypatch, ut2_dir):
    # a base premise is checked only for a row whose own premises pass and
    # whose conclusions fail: on the corpus no checker sees any M.over
    seen = []

    def spy(check):
        def wrapped(A, *args, **kwargs):
            seen.append(A)
            return check(A, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(structures, "check_axiom", spy(structures.check_axiom))
    for name, check in structures.CHECKERS.items():
        monkeypatch.setitem(structures.CHECKERS, name, spy(check))
    corpus = full_module_corpus()
    replay_corpus(corpus)
    # each module axiom is seen twice: dispatched by check_axiom, then checked
    assert len(seen) == 2 * len(corpus) * len(modules.MODULE_AXIOMS)
    assert not any(A is M.over for A in seen for M in corpus)
    # the spies do see a base structure once a row needs it
    ut2 = configio.load_module(str(ut2_dir / "ut2-regular.module.json"))
    replay_corpus([ut2])
    assert any(A is ut2.over for A in seen)


def test_module_row_violated_over_a_vertex_algebra_raises_with_base_verdicts():
    # over a base that passes every base premise, a module whose weak
    # associativity passes and whose Jacobi identity fails contradicts the
    # main theorem: the violation names the base verdicts it was checked on
    M = make_module(3, "regular")
    verdicts = check_all(M)
    for axiom in ("m_jacobi", "m_weak_comm", "m_weak_skew_assoc",
                  "m_vf_skew_symmetry"):
        verdicts[axiom] = PropertyReport(axiom, "FAIL")
    with pytest.raises(ConsistencyViolationError,
                       match=r"^row m-main/wa on regular-module-k3: premises pass "
                             r"\{'m_vacuum_prop': 'PASS', 'm_weak_assoc': 'PASS'\} "
                             r"but conclusions fail \{'m_jacobi': 'FAIL'\}; base "
                             r"passes \{'borcherds-k3/jacobi': 'PASS', "
                             r"'borcherds-k3/vacuum_prop': 'PASS', "
                             r"'borcherds-k3/creation_prop': 'PASS'\}$"):
        replay_rows(M, verdicts)


def test_vacuum_free_module_over_ideal_structure():
    # modules over a vacuum-free base: vacuum-dependent axioms are untested,
    # the vacuum-free replacements still hold
    from vertexcalc.corpus import ideal_structure
    S = ideal_structure(3)
    basis, mult, dmap = truncated_polynomial_algebra(3)
    action = {(u, w): mult[(u, w)] for u in S.basis for w in S.basis
              if mult.get((u, w))}
    M = module_construct(S, mult, dmap, S.basis, action, "vf-module-k3")
    assert check_axiom(M, "m_vacuum_prop").verdict == "UNTESTED"
    assert check_axiom(M, "m_d_derivative").verdict == "UNTESTED"
    for axiom in ("m_jacobi", "m_weak_comm", "m_weak_assoc",
                  "m_weak_skew_assoc", "m_vf_skew_symmetry"):
        assert check_axiom(M, axiom).verdict == "PASS"


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


def test_check_module_all_shares_one_slot_triple_per_member(slot_product_calls):
    corpus = full_module_corpus()
    members = corpus + [M.over for M in corpus]
    held = [dict(vars(A)) for A in members]
    shared = [{a: r.to_json() for a, r in check_all(M).items()}
              for M in corpus]
    # the products of slot f and of slot h are each run once per member, at
    # every triple in one pass, and one triple at a time only by FAIL guards
    assert_one_build_per_member_and_kind(slot_product_calls, corpus, shared)
    # the stacks are passed to the checks, not held: check_all and the
    # corpus replay leave every module and structure as they found it
    replay_corpus(corpus)
    for A, before in zip(members, held):
        assert vars(A).keys() == before.keys(), A.name
        assert all(vars(A)[k] is v for k, v in before.items()), A.name
    # fresh stacks for every checker give the same verdicts and witnesses
    fresh = [{a: check_axiom(M, a).to_json() for a in MODULE_AXIOMS}
             for M in full_module_corpus()]
    assert shared == fresh


def test_one_dispatcher_refuses_the_other_kinds_axioms():
    # check_axiom serves structures and modules: each refuses the other
    # kind's names, and a module has no structure-only axiom
    from vertexcalc.corpus import ideal_structure
    S = ideal_structure(3)
    M = ModuleStructure("vf-module-k3", S, S.basis, S.ytable)
    for member, axiom in ((S, "m_jacobi"), (M, "jacobi"), (M, "injectivity")):
        with pytest.raises(ValueError, match=f"^unknown (module )?axiom '{axiom}'$"):
            check_axiom(member, axiom)
    # over a base without a vacuum the UNTESTED records keep their bytes
    for member, axioms, reason in (
            (S, sorted(VACUUM_AXIOMS), "structure has no vacuum element"),
            (M, ["m_d_derivative", "m_vacuum_prop"],
             "base structure has no vacuum element")):
        for axiom in axioms:
            want = {"axiom": axiom, "anchor": ANCHORS[axiom], "verdict": "UNTESTED",
                    "witness": {"reason": reason}, "window": None}
            assert json.dumps(check_axiom(member, axiom).to_json()) == json.dumps(want)
