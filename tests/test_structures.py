import random
from collections import Counter
from fractions import Fraction

import pytest

from vertexcalc import configio, deltacalc, rationalforms, series, structures
from vertexcalc.corpus import (
    borcherds_structure,
    family,
    full_corpus,
    full_module_corpus,
    ideal_structure,
    ideal_variants,
    make_module,
    mutant_expected_failures,
    mutants,
    truncated_polynomial_algebra,
)
from vertexcalc.errors import ConsistencyViolationError, ConstructionError
from vertexcalc.modules import MODULE_CHECKERS, check_module_all, check_module_axiom
from vertexcalc.rationalforms import witness_is_valid
from vertexcalc.scalars import Vec
from vertexcalc.series import INF, taylor_substitute
from vertexcalc.structures import (
    ACTION_CHECKERS,
    AXIOMS,
    ActionTriple,
    ModuleStructure,
    VertexStructure,
    borcherds_construct,
    check_all,
    check_axiom,
    implication_matrix,
    minimal_pole_order,
    restrict,
    _weak_difference,
)


def test_construct_refuses_non_leibniz_derivation():
    # d/dt does not descend to Q[t]/(t^3): D(t * t^2) = 0 but 3t^2 != 0
    basis, mult, dmap = truncated_polynomial_algebra(3, derivation="d/dt")
    with pytest.raises(ConstructionError) as err:
        borcherds_construct("bad", basis, mult, dmap, unit="e0")
    assert "Leibniz" in str(err.value)
    assert "e1" in str(err.value) and "e2" in str(err.value)


def test_construct_refuses_non_commutative_product():
    basis = ("a", "b")
    mult = {("a", "a"): Vec(), ("a", "b"): Vec.unit("a"),
            ("b", "a"): Vec(), ("b", "b"): Vec()}
    with pytest.raises(ConstructionError) as err:
        borcherds_construct("bad", basis, mult, {}, unit=None)
    assert "commutative" in str(err.value)


def test_family_mode_values_by_hand():
    # k=3, D = t^2 d/dt: e^(xD) t = t + t^2 x, so Y(t,x)t = t^2 and
    # Y(t,x)1 = t + t^2 x
    S = borcherds_structure(3)
    assert S.ytable[("e1", "e1")] == {-1: Vec.unit("e2")}
    assert S.ytable[("e1", "e0")] == {-1: Vec.unit("e1"), -2: Vec.unit("e2")}


def test_vacuum_acts_as_identity():
    S = borcherds_structure(4)
    for v in S.basis:
        assert S.yw_modes("e0", v) == {0: Vec.unit(v)}


def test_compose_with_vacuum_drops_first_variable():
    S = borcherds_structure(3)
    got = S.compose_yw("e0", "x1", "e1", "x2", "e1")
    direct = S.yw_series("e1", "e1", "x2")
    assert (got - direct.align(("x1", "x2"))).is_zero()


def test_iterate_on_vacuum_is_taylor_shift():
    # Y(Y(u,x0)1, x2) w = Y(u, x2+x0) w
    S = borcherds_structure(4)
    for u in S.basis:
        for w in S.basis:
            left = S.iterate_yw(u, "x0", "e0", "x2", w)
            base = S.yw_series(u, w, "t")
            right = taylor_substitute(base, "t", (1, "x2"), (1, "x0"))
            assert (left - right.align(("x0", "x2"))).is_zero()


def test_derived_derivation_matches_construction():
    S = borcherds_structure(4)
    # D = t^2 d/dt: e1 -> e2, e2 -> 2 e3
    assert S.dop["e1"] == Vec.unit("e2")
    assert S.dop["e2"] == Vec({"e3": 2})
    assert "e0" not in S.dop


def test_ideal_restriction_closure_and_refusal():
    S = borcherds_structure(3)
    ideal = restrict(S, ("e1", "e2"), "ideal")
    assert ideal.vacuum is None
    assert set(ideal.basis) == {"e1", "e2"}
    with pytest.raises(ConstructionError):
        restrict(S, ("e0", "e1"), "not-closed")


def test_all_axioms_pass_on_family():
    for S in family():
        verdicts = check_all(S)
        assert all(r.verdict == "PASS" for r in verdicts.values()), S.name


def test_weak_comm_minimal_witness_zero_on_family():
    for S in family():
        r = check_axiom(S, "weak_comm")
        assert r.verdict == "PASS"
        assert all(m == 0 for m in r.witnesses["min_m"].values())


def test_ideal_variants_vacuum_axioms_untested():
    ideal = ideal_structure(3)
    for axiom in ("vacuum_prop", "creation_prop", "skew_symmetry",
                  "d_derivative", "d_bracket", "strong_creation"):
        assert check_axiom(ideal, axiom).verdict == "UNTESTED"
    for axiom in ("jacobi", "weak_comm", "weak_assoc", "weak_skew_assoc",
                  "vf_skew_symmetry"):
        assert check_axiom(ideal, axiom).verdict == "PASS"


def test_minimal_pole_order_formula():
    S = borcherds_structure(4)
    for u in S.basis:
        for v in S.basis:
            assert minimal_pole_order(S, u, v) == 0
    pole = [m for m in mutants() if m.name == "mutant-pole"][0]
    assert minimal_pole_order(pole, "e1", "e1") == 1


def test_formula_witness_valid_and_minimal_below_it():
    # the least-power value is a valid pole witness for all three weak
    # properties and the searched minimum never exceeds it
    for S in (borcherds_structure(3), borcherds_structure(4)):
        N = 8
        for u in S.basis:
            for v in S.basis:
                for w in S.basis:
                    table = {
                        "weak_comm": minimal_pole_order(S, u, v),
                        "weak_assoc": minimal_pole_order(S, u, w),
                        "weak_skew_assoc": minimal_pole_order(S, v, w),
                    }
                    for axiom, mf in table.items():
                        d, clearing, b = _weak_difference(S, axiom, u, v, w, N)
                        assert witness_is_valid(d, clearing, mf, b)


def test_each_mutant_fails_its_named_axioms():
    expected = mutant_expected_failures()
    for S in mutants():
        verdicts = check_all(S)
        failed = {a for a, r in verdicts.items() if r.verdict == "FAIL"}
        assert failed == set(expected[S.name]), (S.name, sorted(failed))
        for axiom in expected[S.name]:
            assert verdicts[axiom].witnesses, (S.name, axiom)


def test_mutant_failures_carry_concrete_witnesses():
    S = [m for m in mutants() if m.name == "mutant-iterate-shift"][0]
    r = check_axiom(S, "jacobi")
    assert r.verdict == "FAIL"
    assert "triple" in r.witnesses and "monomial" in r.witnesses


def test_implication_matrix_consistency_on_full_corpus():
    report = implication_matrix(full_corpus())
    verdicts = {r["verdict"] for r in report}
    assert verdicts <= {"PASS", "UNTESTED"}
    # vacuous rows are flagged UNTESTED, not passed
    untested = [r for r in report if r["verdict"] == "UNTESTED"]
    assert untested
    members = {r["member"] for r in report}
    assert len(members) == 18


def test_skew_symmetry_component_form():
    # u_n v = sum_j (-1)^(n+j+1) D^j (v_(n+j) u) / j!
    from math import factorial
    for S in (borcherds_structure(3), borcherds_structure(5)):
        for u in S.basis:
            for v in S.basis:
                modes_uv = S.ytable.get((u, v), {})
                modes_vu = S.ytable.get((v, u), {})
                all_n = set(modes_uv) | set(modes_vu)
                for n in sorted(all_n):
                    rhs = Vec()
                    for j in range(0, len(S.basis) + 1):
                        vec = modes_vu.get(n + j)
                        if not vec:
                            continue
                        img = vec
                        for _ in range(j):
                            img = S.d_apply(img)
                        sign = -1 if (n + j + 1) % 2 else 1
                        rhs = rhs + img.scale(Fraction(sign, factorial(j)))
                    assert modes_uv.get(n, Vec()) == rhs, (S.name, u, v, n)


def test_d_bracket_component_form():
    # D(u_n v) = (Du)_n v + u_n Dv on every table entry
    S = borcherds_structure(4)
    for u in S.basis:
        for v in S.basis:
            for n, vec in S.ytable.get((u, v), {}).items():
                lhs = S.d_apply(vec)
                du = S.dop.get(u, Vec())
                dv = S.dop.get(v, Vec())
                rhs = Vec()
                if du:
                    rhs = rhs + S.yw_modes(du, v).get(-n - 1, Vec())
                if dv:
                    rhs = rhs + S.yw_modes(u, dv).get(-n - 1, Vec())
                assert lhs == rhs, (u, v, n)


def test_exponentiated_conjugation_form():
    # e^(zD) Y(u,x) v = Y(u, x+z) e^(zD) v as polynomial identity
    from vertexcalc.series import WindowedSeries, exp_endo, multiply
    S = borcherds_structure(4)
    for u in S.basis:
        for v in S.basis:
            yuv = S.yw_series(u, v, "x")
            lhs_coeffs = {}
            for key, vec in yuv.coeffs.items():
                piece = exp_endo(S.dop, "z", vec)
                for zkey, zvec in piece.coeffs.items():
                    full = (key[0], zkey[0])
                    prev = lhs_coeffs.get(full)
                    lhs_coeffs[full] = zvec if prev is None else prev + zvec
            lhs = WindowedSeries.from_monomials(("x", "z"), lhs_coeffs)
            ezv = exp_endo(S.dop, "z", Vec.unit(v))
            rhs_coeffs = {}
            for zkey, zvec in ezv.coeffs.items():
                for e, vec in S.yw_modes(u, zvec).items():
                    full = (e, zkey[0])
                    prev = rhs_coeffs.get(full)
                    rhs_coeffs[full] = vec if prev is None else prev + vec
            rhs = WindowedSeries.from_monomials(("t", "z"), rhs_coeffs)
            rhs = taylor_substitute(rhs, "t", (1, "x"), (1, "z"))
            assert (lhs - rhs.align(("x", "z"))).is_zero(), (u, v)


def test_vfss_equivalent_to_ss_plus_dder_at_verdict_level():
    # on every vacuum member: vf_skew_symmetry passes iff skew_symmetry and
    # d_derivative both pass
    corpus = family() + mutants()
    for S in corpus:
        if S.vacuum is None:
            continue
        vf = check_axiom(S, "vf_skew_symmetry").verdict == "PASS"
        both = (check_axiom(S, "skew_symmetry").verdict == "PASS"
                and check_axiom(S, "d_derivative").verdict == "PASS")
        assert vf == both, S.name


def test_check_all_shares_one_slot_triple_per_member(monkeypatch,
                                                     slot_product_calls):
    corpus = full_corpus()
    shared = [{a: r.to_json() for a, r in check_all(S).items()} for S in corpus]
    # every slot series is built at most once per member, and the triples
    # are dropped when check_all returns
    assert slot_product_calls and max(slot_product_calls.values()) == 1
    assert all(S._triples is None for S in corpus)
    # a fresh triple for every read gives the same verdicts and witnesses
    monkeypatch.setattr(ModuleStructure, "triple",
                        lambda A, u, v, w: ActionTriple(A, u, v, w))
    fresh = [{a: r.to_json() for a, r in check_all(S).items()}
             for S in full_corpus()]
    assert shared == fresh


def test_structure_is_its_own_module():
    S = borcherds_structure(3)
    assert isinstance(S, ModuleStructure)
    assert S.over is S
    assert S.ywtable is S.ytable and S.wbasis == S.basis
    for name in ("y_modes", "y_series", "compose_y", "iterate_y"):
        assert not hasattr(VertexStructure, name)


def test_weak_skew_assoc_minimal_witness_can_exceed_zero():
    # a weak property holding for some m need not hold at m = 0: at
    # mutant-pole, Y(e1,x)e1 = x^-1 e0, so at (e0, e1, e1) both sides of weak
    # skew-associativity are the two expansions of (x1 - x0)^-1 e0
    S = [m for m in mutants() if m.name == "mutant-pole"][0]
    d, clearing, b = _weak_difference(S, "weak_skew_assoc", "e0", "e1", "e1", 5)
    assert not witness_is_valid(d, clearing, 0, b)
    assert witness_is_valid(d, clearing, 1, b)
    assert minimal_pole_order(S, "e1", "e1") == 1
    # so the first failing triple is the later (e1, e0, e1), as pinned
    report = check_axiom(S, "weak_skew_assoc")
    assert report.verdict == "FAIL"
    assert report.witnesses == {"triple": ("e1", "e0", "e1"), "m_max": 3}


def test_jacobi_expands_each_factor_window_once_per_check(monkeypatch):
    # route 1 expands each (delta factor, needed window) once per check_jacobi
    # call, however many terms and triples share it
    checks = []
    expansions = Counter()

    def counted(factor, need, _original=deltacalc._expand_factor):
        expansions[(len(checks), factor, tuple(sorted(need.items())))] += 1
        return _original(factor, need)

    monkeypatch.setattr(deltacalc, "_expand_factor", counted)
    for table, axiom in ((ACTION_CHECKERS, "jacobi"),
                         (MODULE_CHECKERS, "m_jacobi")):
        def entered(A, *args, _check=table[axiom]):
            checks.append(A.name)
            return _check(A, *args)
        monkeypatch.setitem(table, axiom, entered)
    for S in full_corpus():
        check_all(S)
    for M in full_module_corpus():
        check_module_all(M)
    assert len(checks) == len(full_corpus()) + len(full_module_corpus())
    assert expansions and max(expansions.values()) == 1


def test_jacobi_expands_each_term_shape_once_per_check(monkeypatch):
    # route 1 expands each (monomial, delta, atoms, window) with coefficient
    # 1 once per check_jacobi call; every repeat of the shape only scales it
    checks = []
    units = Counter()
    terms = []

    def counted(t, window, _original=deltacalc._unit_window_coeffs):
        key = (len(checks), t.mono, t.delta, t.atoms, tuple(sorted(window.items())))
        units[key] += 1
        return _original(t, window)

    def seen(e, window, memo=None, _original=structures.window_coeffs):
        terms.append(len(e.terms))
        return _original(e, window, memo)

    monkeypatch.setattr(deltacalc, "_unit_window_coeffs", counted)
    monkeypatch.setattr(structures, "window_coeffs", seen)
    for table, axiom in ((ACTION_CHECKERS, "jacobi"),
                         (MODULE_CHECKERS, "m_jacobi")):
        def entered(A, *args, _check=table[axiom]):
            checks.append(A.name)
            return _check(A, *args)
        monkeypatch.setitem(table, axiom, entered)
    for S in full_corpus():
        check_all(S)
    for M in full_module_corpus():
        check_module_all(M)
    assert len(checks) == len(full_corpus()) + len(full_module_corpus())
    assert units and max(units.values()) == 1
    # the shapes repeat, so the memo saves expansions
    assert sum(units.values()) < sum(terms)


def test_route_one_checks_the_proved_three_term_identity(monkeypatch):
    # on every Jacobi triple of both corpora, route 1 multiplies f, g and h by
    # the three terms of identity_lhs("three-term"), in the anchor's order,
    # and by no other delta and no other sign
    lhs = deltacalc.identity_lhs("three-term").terms
    exprs = []
    monkeypatch.setattr(structures, "window_coeffs",
                        lambda e, window, memo=None: exprs.append(e) or {})
    triples = 0
    for A in full_corpus() + full_module_corpus():
        for u in A.over.basis:
            for v in A.over.basis:
                for w in A.wbasis:
                    inst = A.triple(u, v, w)
                    slots = (inst.f_at("x1", "x2"), inst.g_at("x2", "x1"),
                             inst.h_at("x2", "x0"))
                    structures._jacobi_symbolic_zero(*slots, 5)
                    e = exprs.pop()
                    assert {t.delta for t in e.terms} <= {t.delta for t in lhs}
                    for series_, proved in zip(slots, lhs):
                        got = {t.mono: t.coeff for t in e.terms
                               if t.delta == proved.delta}
                        assert all(not t.atoms for t in e.terms)
                        assert got == {
                            deltacalc.mono_of(dict(zip(series_.variables, k))):
                                c.scale(proved.coeff)
                            for k, c in series_.coeffs.items()}
                    triples += 1
    assert triples > 1000


def test_jacobi_memo_holds_only_unit_expansions(monkeypatch):
    # after check_jacobi returns, every key of the memo it handed to
    # window_coeffs is a term shape on the check window: (monomial, delta,
    # atoms, window), and no per-factor expansion is kept beside them
    memos = []

    def seen(e, window, memo=None, _original=structures.window_coeffs):
        if not any(m is memo for m in memos):
            memos.append(memo)
        return _original(e, window, memo)

    monkeypatch.setattr(structures, "window_coeffs", seen)
    for S in full_corpus():
        check_axiom(S, "jacobi")
    for M in full_module_corpus():
        check_module_axiom(M, "m_jacobi")
    assert len(memos) == len(full_corpus()) + len(full_module_corpus())
    deltas = {t.delta for t in deltacalc.identity_lhs("three-term").terms}
    assert sum(map(len, memos)) > 100
    for memo in memos:
        for key in memo:
            assert len(key) == 4, key
            mono, delta, atoms, window = key
            assert mono == deltacalc.mono_of(dict(mono))
            assert delta in deltas and atoms == ()
            assert [v for v, _ in window] == ["x0", "x1", "x2"]
            assert len({bounds for _, bounds in window}) == 1


def test_route_two_writes_only_inside_the_delta_window(monkeypatch):
    # series.apply_delta writes no coefficient outside out_window, on every
    # Jacobi triple of both corpora and on replay instances 0..7
    written = []
    outside = []

    def recorded(coeffs, *args, _original=series.add_power):
        mine = {}
        _original(mine, *args)
        written.extend(mine)
        _original(coeffs, *args)

    def checked(terms, out_window, _original=rationalforms.apply_delta):
        written.clear()
        out = _original(terms, out_window)
        bounds = [out_window.get(v, (0, 0)) for v in out.variables]
        outside.extend(
            key for key in written
            if any((lo is not None and e < lo) or (hi is not None and e > hi)
                   for (lo, hi), e in zip(bounds, key)))
        calls.append(len(written))
        return out

    calls = []
    monkeypatch.setattr(series, "add_power", recorded)
    monkeypatch.setattr(rationalforms, "apply_delta", checked)
    for S in full_corpus():
        check_axiom(S, "jacobi")
    for M in full_module_corpus():
        check_module_axiom(M, "m_jacobi")
    for seed in range(8):
        inst = rationalforms.generate_instance(seed, N=8)
        for which in rationalforms.IMPLICATIONS:
            rationalforms.replay_implication(which, inst, N=8, m_max=None)
    # route 2 runs at least once per Jacobi check and once per instance
    assert len(calls) >= len(full_corpus()) + len(full_module_corpus()) + 8
    assert sum(calls) > 1000
    assert outside == []


def test_route_two_calls_add_power_only_for_a_nonempty_tail_range(monkeypatch):
    # series.apply_delta skips a (coefficient, delta index) pair whose tail
    # range is empty: every add_power call it makes writes at least one key,
    # on every Jacobi triple of both corpora and on replay instances 0..7
    written = []
    inside = []
    calls = []

    def recorded(coeffs, *args, _original=series.add_power):
        if inside:
            mine = {}
            _original(mine, *args)
            written.append(len(mine))
        _original(coeffs, *args)

    def tracked(*args, _original=rationalforms.apply_delta):
        calls.append(args)
        inside.append(True)
        try:
            return _original(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(series, "add_power", recorded)
    monkeypatch.setattr(rationalforms, "apply_delta", tracked)
    for S in full_corpus():
        check_axiom(S, "jacobi")
    for M in full_module_corpus():
        check_module_axiom(M, "m_jacobi")
    for seed in range(8):
        inst = rationalforms.generate_instance(seed, N=8)
        for which in rationalforms.IMPLICATIONS:
            rationalforms.replay_implication(which, inst, N=8, m_max=None)
    assert len(calls) >= len(full_corpus()) + len(full_module_corpus()) + 8
    assert len(written) > 1000
    assert min(written) >= 1


# ---------------------------------------------------------------------------
# Jacobi once per member, on one stack of every (u, v, w)


def _per_triple_jacobi(A, axiom, N, memo):
    """The Jacobi check run triple by triple, as it was before stacking: both
    routes on each (u, v, w), the first failing triple reported.  Every
    triple's verdict is kept beside the report, so the reference continues
    past the first FAIL."""
    verdicts, report = {}, None
    for u in A.over.basis:
        for v in A.over.basis:
            for w in A.wbasis:
                inst = A.triple(u, v, w)
                out = structures._jacobi_symbolic_zero(
                    inst.f_at("x1", "x2"), inst.g_at("x2", "x1"),
                    inst.h_at("x2", "x0"), N, memo)
                ok_ser, _ = rationalforms.check_A(inst, N)
                assert (not out) == ok_ser, (A.name, u, v, w)
                verdicts[(u, v, w)] = not out
                if out and report is None:
                    report = structures.PropertyReport(
                        axiom, "FAIL",
                        {"triple": (u, v, w), "monomial": dict(sorted(out)[0])},
                        window=N)
    return report or structures.PropertyReport(axiom, "PASS", {}, window=N), verdicts


def _seeded_edits(count, seed):
    """``count`` members of both corpora, each with one seeded single-entry
    edit of its mode table (a new value, or a deleted mode)."""
    rng = random.Random(seed)
    actions = full_corpus() + full_module_corpus()
    out = []
    while len(out) < count:
        A = rng.choice(actions)
        key = (rng.choice(A.over.basis), rng.randint(-3, 1), rng.choice(A.wbasis))
        vec = None if rng.random() < 0.2 else Vec(
            {rng.choice(A.wbasis): rng.choice([-2, -1, 1, Fraction(1, 2)])})
        try:
            out.append(A.mutate(f"{A.name}-edit{len(out)}", {key: vec}))
        except ConstructionError:  # the edit made D non-nilpotent
            continue
    return out


def _jacobi_axiom(A):
    return "jacobi" if A.over is A else "m_jacobi"


def _member_stack_failing_pairs(A, N, memo):
    """Each route's failing pairs, read off the member stack of ``A``."""
    triples = {(u, v, w): A.triple(u, v, w)
               for u in A.over.basis for v in A.over.basis for w in A.wbasis}
    inst = structures._stacked_triple(triples)
    sym = structures._jacobi_symbolic_zero(*structures._slots(inst), N, memo)
    ser = rationalforms.three_term_series(inst, N).coeffs
    return structures._failing_pairs(sym), structures._failing_pairs(ser)


def test_stacked_jacobi_equals_the_per_triple_check(ut2_dir):
    members = (full_corpus() + full_module_corpus()
               + [configio.load_structure(str(ut2_dir / "ut2.json")),
                  configio.load_module(str(ut2_dir / "ut2-regular.module.json"))]
               + _seeded_edits(50, 12) + _seeded_edits(200, 13))
    pairs, failing_pairs, reports = 0, 0, Counter()
    for A in members:
        axiom, N, memo = _jacobi_axiom(A), structures.default_window(A), {}
        with A.shared_triples():
            want, per_triple = _per_triple_jacobi(A, axiom, N, memo)
            failing = {(u, v) for (u, v, _), ok in per_triple.items() if not ok}
            # each route's failing pairs, read from the one stack of the
            # member, are exactly the pairs with a failing triple
            assert _member_stack_failing_pairs(A, N, memo) == (failing, failing), \
                A.name
            pairs += len(A.over.basis) ** 2
            failing_pairs += len(failing)
            got = structures.check_jacobi(A, axiom)
        assert got.to_json() == want.to_json(), A.name
        reports[got.verdict] += 1
    assert pairs > 1000 and failing_pairs > 100
    assert reports["PASS"] > 20 and reports["FAIL"] > 20


def test_jacobi_runs_route_two_once_per_pass_member(monkeypatch):
    stacks, reruns = [], []

    def stacked(inst, N, _original=structures.three_term_series):
        stacks.append(inst)
        return _original(inst, N)

    def rerun(inst, N, _original=structures.check_A):
        reruns.append(inst)
        return _original(inst, N)

    monkeypatch.setattr(structures, "three_term_series", stacked)
    monkeypatch.setattr(structures, "check_A", rerun)
    for A, axiom in ((borcherds_structure(4), "jacobi"),
                     (make_module(4, "ideal"), "m_jacobi")):
        stacks.clear()
        assert structures.check_jacobi(A, axiom).verdict == "PASS"
        assert len(A.over.basis) > 1 and len(A.wbasis) > 1
        assert len(stacks) == 1 and reruns == []


def test_jacobi_routes_disagreeing_on_a_stacked_pair_raise(monkeypatch):
    # route 2's result on the member stack with one pair's labels flipped
    # from zero to nonzero: the pair is named, with each route's verdict
    S = borcherds_structure(3)
    u, v = S.basis[1], S.basis[2]

    def flipped(inst, N, _original=structures.three_term_series):
        out = _original(inst, N)
        assert not out.coeffs
        return out.copy_meta({(0, 0, 0): Vec({(u, v, S.basis[0], S.basis[0]): 1})})

    monkeypatch.setattr(structures, "three_term_series", flipped)
    with pytest.raises(ConsistencyViolationError,
                       match=rf"^jacobi routes disagree on \({u},{v}\): "
                             "symbolic=True series=False$"):
        check_axiom(S, "jacobi")


def test_jacobi_pair_failing_on_no_triple_raises(monkeypatch):
    # a stacked pair that both routes find nonzero while every triple of it
    # is zero cannot come from a correct stacking: it is reported, not
    # passed over
    def perturbed(triples, _original=structures._stacked_triple):
        inst = _original(triples)
        key, vec = next(iter(inst.f.coeffs.items()))
        return inst.perturb_f(key, vec)

    monkeypatch.setattr(structures, "_stacked_triple", perturbed)
    S = borcherds_structure(3)
    with pytest.raises(ConsistencyViolationError,
                       match=rf"fails on the stacked pair \({S.basis[0]},"
                             rf"{S.basis[0]}\) but on none of its triples"):
        check_axiom(S, "jacobi")
