import random
from collections import Counter
from fractions import Fraction

import pytest
from conftest import (_weak_difference, assert_one_build_per_member_and_kind, is_zero,
                      slot_triple, witness_is_valid)

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
    module_mutants,
    mutants,
    truncated_polynomial_algebra,
)
from vertexcalc.errors import (ConsistencyViolationError, ConstructionError,
                               VertexCalcError, WindowUnderflowError)
from vertexcalc.rationalforms import S1, S2
from vertexcalc.scalars import Vec
from vertexcalc.series import INF, WindowedSeries, taylor_substitute
from vertexcalc.structures import (
    ACTION_CHECKERS,
    AXIOMS,
    MemberStacks,
    ModuleStructure,
    VertexStructure,
    borcherds_construct,
    check_all,
    check_axiom,
    check_jacobi,
    minimal_pole_order,
    replay_corpus,
    restrict,
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
    got = slot_triple(S, "e0", "e1", "e1").f_at("x1", "x2")
    direct = S.yw_series("e1", "e1", "x2")
    assert is_zero(got - direct.align(("x1", "x2")))


def test_iterate_on_vacuum_is_taylor_shift():
    # Y(Y(u,x0)1, x2) w = Y(u, x2+x0) w
    S = borcherds_structure(4)
    stacks = MemberStacks(S)
    for u in S.basis:
        for w in S.basis:
            left = slot_triple(S, u, "e0", w, stacks).h_at("x2", "x0")
            base = S.yw_series(u, w, "t")
            right = taylor_substitute(base, "t", (1, "x2"), (1, "x0"))
            assert is_zero(left - right.align(("x0", "x2")))


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


def test_d_derivative_members_with_a_vacuum_are_pole_free():
    """A member whose base has a vacuum and that PASSes d_derivative (or
    m_d_derivative) acts without poles.  D is nilpotent, since
    ``VertexStructure._derive_dop`` refuses any other D, so D^k u = 0 for
    some k.  Iterating the D-derivative property, linear in u, gives
    (d/dx)^k Y(u,x) = Y(D^k u,x) = 0.  A Laurent polynomial whose k-th
    derivative vanishes has no negative power of x, since (d/dx)^k x^n is a
    nonzero multiple of x^(n-k) for n < 0.  So Y(u,x) is a polynomial in x:
    every mode u_n with n >= 0 vanishes, and the pole order is 0."""
    members = (full_corpus() + full_module_corpus()
               + _seeded_edits(200, 12) + _seeded_edits(200, 13))
    passing, with_poles = 0, 0
    for A in members:
        if A.over.vacuum is None:
            continue
        axiom = "d_derivative" if A.over is A else "m_d_derivative"
        poles = structures._pole_order(A.ywtable.values())
        if check_axiom(A, axiom).verdict == "PASS":
            assert poles == 0, A.name
            passing += 1
        with_poles += poles > 0
    assert passing >= 114 and with_poles > 0, (passing, with_poles)


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
        N, stacks = 8, MemberStacks(S)
        for u in S.basis:
            for v in S.basis:
                for w in S.basis:
                    table = {
                        "weak_comm": minimal_pole_order(S, u, v),
                        "weak_assoc": minimal_pole_order(S, u, w),
                        "weak_skew_assoc": minimal_pole_order(S, v, w),
                    }
                    for axiom, mf in table.items():
                        d, clearing, b = _weak_difference(S, axiom, u, v, w, N, stacks)
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
    report = replay_corpus(full_corpus())
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
            assert is_zero(lhs - rhs.align(("x", "z"))), (u, v)


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


def test_check_all_shares_one_slot_triple_per_member(slot_product_calls):
    corpus = full_corpus()
    held = [dict(vars(S)) for S in corpus]
    shared = [{a: r.to_json() for a, r in check_all(S).items()} for S in corpus]
    # slot f and slot h are each built once per member, at every triple in
    # one pass
    assert_one_build_per_member_and_kind(slot_product_calls, corpus)
    # the stacks are passed to the checks, not held: check_all and the
    # corpus replay leave every structure as they found it
    replay_corpus(corpus)
    for S, before in zip(corpus, held):
        assert vars(S).keys() == before.keys(), S.name
        assert all(vars(S)[k] is v for k, v in before.items()), S.name
    # fresh stacks for every checker give the same verdicts and witnesses
    fresh = [{a: check_axiom(S, a).to_json() for a in AXIOMS} for S in full_corpus()]
    assert shared == fresh


def _slot_reference(A, slot, u, v, w):
    """Slot ``slot`` of ``A`` at (u, v, w) summed term by term from the mode
    tables in Vec arithmetic: f = Y(u,s1)Y(v,s2)w has a term per mode of v on
    w, basis element b of its image and mode of u on b; h = Y(Y(u,s2)v,s1)w a
    term per mode of u on v, b of its image and mode of b on w.  g and hs
    are f and h at (v, u, w)."""
    if slot in ("g", "hs"):
        return _slot_reference(A, "f" if slot == "g" else "h", v, u, w)
    coeffs = {}
    inner, outer = ((A.ywtable.get((v, w), {}), lambda b: A.ywtable.get((u, b), {}))
                    if slot == "f" else
                    (A.over.ytable.get((u, v), {}), lambda b: A.ywtable.get((b, w), {})))
    for n_in, image in inner.items():
        for b, c in image.entries.items():
            for n_out, vec in outer(b).items():
                key = (-n_out - 1, -n_in - 1) if slot == "f" else (-n_in - 1, -n_out - 1)
                coeffs[key] = coeffs.get(key, Vec()) + vec.scale(c)
    return WindowedSeries.from_monomials(
        (S1, S2) if slot == "f" else (S2, S1), coeffs)


def _series_facts(s):
    """What a slot series is: variables, coefficients with each entry's type,
    windows and shapes."""
    return (s.variables,
            {k: (type(c), {b: (type(x), x) for b, x in c.entries.items()})
             for k, c in s.coeffs.items()},
            s.window, s.shape)


def test_slot_builder_equals_the_term_by_term_products(ut2_dir):
    # every slot series of every member, built in one pass over the mode
    # tables, equals the per-triple product summed term by term
    members = (full_corpus() + full_module_corpus()
               + [configio.load_structure(str(ut2_dir / "ut2.json")),
                  configio.load_module(str(ut2_dir / "ut2-regular.module.json"))]
               + _seeded_edits(60, 12) + _random_tables(60, 21))
    compared, monomials, rationals = 0, 0, 0
    for A in members:
        member = MemberStacks(A)
        for slot in ("f", "g", "h", "hs"):
            for (u, v, w), got in member.series(slot).items():
                want = _slot_reference(A, slot, u, v, w)
                assert _series_facts(got) == _series_facts(want), (A.name, slot, u, v, w)
                compared += 1
                monomials += len(got.coeffs)
                rationals += sum(type(x) is Fraction for c in got.coeffs.values()
                                 for x in c.entries.values())
    assert compared == 4 * sum(len(A.over.basis) ** 2 * len(A.wbasis) for A in members)
    assert monomials > 12000 and rationals > 2500, (monomials, rationals)


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

    def counted(factor, need, *mono, _original=deltacalc._expand_factor):
        expansions[(len(checks), factor, tuple(sorted(need.items())))] += 1
        return _original(factor, need, *mono)

    monkeypatch.setattr(deltacalc, "_expand_factor", counted)
    def entered(A, *args, _check=ACTION_CHECKERS["jacobi"]):
        checks.append(A.name)
        return _check(A, *args)
    monkeypatch.setitem(ACTION_CHECKERS, "jacobi", entered)
    for A in full_corpus() + full_module_corpus():
        check_all(A)
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
    def entered(A, *args, _check=ACTION_CHECKERS["jacobi"]):
        checks.append(A.name)
        return _check(A, *args)
    monkeypatch.setitem(ACTION_CHECKERS, "jacobi", entered)
    for A in full_corpus() + full_module_corpus():
        check_all(A)
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
        stacks = MemberStacks(A)
        for u in A.over.basis:
            for v in A.over.basis:
                for w in A.wbasis:
                    inst = slot_triple(A, u, v, w, stacks)
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
        check_axiom(M, "m_jacobi")
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


def test_jacobi_expands_each_term_shape_once_per_command(monkeypatch):
    # replay_corpus hands one route-1 memo to the Jacobi check of every
    # member: each (shape, window) is expanded once per call, on the
    # structure corpus and on the module corpus, and the next call expands
    # them all again, so no expansion outlives a command
    units = Counter()

    def counted(t, window, _original=deltacalc._unit_window_coeffs):
        units[t.mono, t.delta, t.atoms, tuple(sorted(window.items()))] += 1
        return _original(t, window)

    monkeypatch.setattr(deltacalc, "_unit_window_coeffs", counted)
    for corpus, shapes in ((full_corpus(), 59), (full_module_corpus(), 55)):
        calls = []
        for _ in range(2):
            units.clear()
            replay_corpus(corpus)
            calls.append(dict(units))
        assert len(calls[0]) == shapes and set(calls[0].values()) == {1}
        assert calls[1] == calls[0]


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
        check_axiom(M, "m_jacobi")
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
        check_axiom(M, "m_jacobi")
    for seed in range(8):
        inst = rationalforms.generate_instance(seed, N=8)
        for which in rationalforms.IMPLICATIONS:
            rationalforms.replay_implication(which, inst, N=8, m_max=None)
    assert len(calls) >= len(full_corpus()) + len(full_module_corpus()) + 8
    assert len(written) > 1000
    assert min(written) >= 1


# ---------------------------------------------------------------------------
# Jacobi once per member, on one stack of every (u, v, w)


def _per_triple_jacobi(A, axiom, N, memo, stacks):
    """The Jacobi check run triple by triple, as it was before stacking: both
    routes on each (u, v, w) (its slot series read from ``stacks``), the
    first failing triple reported.  Every triple's verdict is kept beside
    the report, so the reference continues past the first FAIL."""
    verdicts, report = {}, None
    for u in A.over.basis:
        for v in A.over.basis:
            for w in A.wbasis:
                inst = slot_triple(A, u, v, w, stacks)
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


def _member_stack_failing_triples(member, N, memo):
    """Each route's failing triples, read off the member stack of ``member``."""
    inst = member.instance()
    sym = structures._jacobi_symbolic_zero(*structures._slots(inst), N, memo)
    ser = rationalforms.three_term_series(inst, N).coeffs
    return (structures._failing_triples(member, sym),
            structures._failing_triples(member, ser))


def test_stacked_jacobi_equals_the_per_triple_check(ut2_dir):
    members = (full_corpus() + full_module_corpus()
               + [configio.load_structure(str(ut2_dir / "ut2.json")),
                  configio.load_module(str(ut2_dir / "ut2-regular.module.json"))]
               + _seeded_edits(50, 12) + _seeded_edits(200, 13))
    triples, failing_triples, failing_pairs, reports = 0, 0, 0, Counter()
    for A in members:
        axiom, N, memo = _jacobi_axiom(A), structures.default_window(A), {}
        stacks = MemberStacks(A)
        want, per_triple = _per_triple_jacobi(A, axiom, N, memo, stacks)
        failing = {t for t, ok in per_triple.items() if not ok}
        # each route's failing triples, read from the one stack of the
        # member, are exactly the triples that fail alone
        assert _member_stack_failing_triples(stacks, N, memo) == (failing, failing), \
            A.name
        triples += len(per_triple)
        failing_triples += len(failing)
        failing_pairs += len({t[:2] for t in failing})
        got = structures.check_jacobi(A, axiom, None, None, stacks)
        assert got.to_json() == want.to_json(), A.name
        reports[got.verdict] += 1
    assert triples > 10000 and failing_triples > 1000 and failing_pairs > 100
    assert reports["PASS"] > 20 and reports["FAIL"] > 20


def test_jacobi_runs_route_two_once_per_pass_member(monkeypatch):
    # and once per FAIL member too; route 1 runs once more on a FAIL member,
    # on its reported triple alone
    route1, route2 = [], []

    def symbolic(*args, _original=structures._jacobi_symbolic_zero):
        route1.append(args)
        return _original(*args)

    def stacked(inst, N, _original=structures.three_term_series):
        route2.append(inst)
        return _original(inst, N)

    monkeypatch.setattr(structures, "_jacobi_symbolic_zero", symbolic)
    monkeypatch.setattr(structures, "three_term_series", stacked)
    members = {"jacobi": (borcherds_structure(4), mutants()[0]),
               "m_jacobi": (make_module(4, "ideal"), module_mutants()[0])}
    for axiom, (passing, failing) in members.items():
        for A, verdict, route1_calls in ((passing, "PASS", 1), (failing, "FAIL", 2)):
            route1.clear()
            route2.clear()
            assert structures.check_jacobi(
                A, axiom, None, None, MemberStacks(A)).verdict == verdict, A.name
            assert len(A.over.basis) > 1 and len(A.wbasis) > 1
            assert len(route1) == route1_calls and len(route2) == 1, A.name


def test_jacobi_routes_disagreeing_on_a_stacked_pair_raise(monkeypatch):
    # route 2's result on the member stack with one triple's labels flipped
    # from zero to nonzero: the triple is named, with each route's verdict
    S = borcherds_structure(3)
    u, v, w = S.basis[1], S.basis[2], S.basis[0]
    label = structures.MemberStacks(S).label_ids()[u, v, w][w]

    def flipped(inst, N, _original=structures.three_term_series):
        out = _original(inst, N)
        assert not out.coeffs
        return out.copy_meta({(0, 0, 0): Vec({label: 1})})

    monkeypatch.setattr(structures, "three_term_series", flipped)
    with pytest.raises(ConsistencyViolationError,
                       match=rf"^jacobi routes disagree on \({u},{v},{w}\): "
                             "symbolic=True series=False$"):
        check_axiom(S, "jacobi")


def test_jacobi_stack_disagreeing_with_its_triple_raises(monkeypatch):
    # a stacked triple that both routes find nonzero while the triple alone
    # is zero cannot come from a correct stacking: route 1's rerun on the
    # reported triple catches it, and it is reported, not passed over
    def perturbed(member, slot, labels, _original=structures._stack):
        out = _original(member, slot, labels)
        if slot != "f":
            return out
        key, vec = next(iter(out.coeffs.items()))
        return out.copy_meta({**out.coeffs, key: vec + vec})

    monkeypatch.setattr(structures, "_stack", perturbed)
    S = borcherds_structure(3)
    e0 = S.basis[0]
    with pytest.raises(ConsistencyViolationError,
                       match=rf"^jacobi stacking is inconsistent at \({e0},{e0},{e0}\): "
                             r"first monomial \{.*\} on the member stack, "
                             "none on the triple alone$"):
        check_axiom(S, "jacobi")


@pytest.mark.parametrize("axiom, slot", [
    ("weak_comm", "f"), ("weak_assoc", "h"), ("weak_skew_assoc", "g"),
    ("vf_skew_symmetry", "h")])
def test_weak_and_vf_stacks_disagreeing_with_their_triple_raise(monkeypatch, axiom,
                                                                 slot):
    # a faulty stack writer makes the valid borcherds-k3 fail at (e0, e0, e0);
    # the guard reruns on that triple's own slot series, which ``_stack``
    # does not write, finds it holds, and reports the stacking
    def perturbed(member, slot_, labels, _original=structures._stack):
        out = _original(member, slot_, labels)
        if slot_ != slot:
            return out
        key, vec = next(iter(out.coeffs.items()))
        return out.copy_meta({**out.coeffs, key: vec + vec})

    monkeypatch.setattr(structures, "_stack", perturbed)
    S = borcherds_structure(3)
    e0 = S.basis[0]
    with pytest.raises(ConsistencyViolationError,
                       match=rf"^{axiom} stacking is inconsistent at "
                             rf"\({e0},{e0},{e0}\): .* on its class stack, "
                             ".* on the triple alone$"):
        check_axiom(S, axiom)


def test_jacobi_guard_compares_the_first_monomial(monkeypatch):
    # route 1's rerun on the reported triple must give the stack's first
    # monomial, not just a FAIL: a rerun whose least nonzero coefficient
    # moved is reported as a stacking violation
    calls = []

    def shifted(*args, _original=structures._jacobi_symbolic_zero):
        out = _original(*args)
        calls.append(out)
        if len(calls) == 2:
            out = dict(out)
            del out[min(out)]
        return out

    monkeypatch.setattr(structures, "_jacobi_symbolic_zero", shifted)
    S = mutants()[0]
    with pytest.raises(ConsistencyViolationError,
                       match=r"^jacobi stacking is inconsistent at \(.+\): "
                             r"first monomial \{.*\} on the member stack, "
                             r"\{.*\} on the triple alone$"):
        check_axiom(S, "jacobi")
    assert len(calls) == 2 and len(calls[1]) > 1


# ---------------------------------------------------------------------------
# the weak properties and vf skew symmetry once per member, on one stack per
# exactness class


def _least_clearing_power(diff, clear, b, m_max):
    """The witness search as it was before stacking, on one triple."""
    for m in range(m_max + 1):
        try:
            if witness_is_valid(diff, clear, m, b):
                return m
        except WindowUnderflowError:
            raise WindowUnderflowError(
                f"witness search at m={m} exceeded the known windows; "
                "regenerate the instance with larger windows") from None
    return None


def _per_w_check_weak(A, axiom, m_max, window, stacks):
    """check_weak as it was before stacking: the witness search on each
    (u, v, w) alone (its slot series read from ``stacks``), the first
    triple without a witness reported."""
    N = window or structures.default_window(A)
    if m_max is None:
        m_max = A.max_pole_order() + 2
    witnesses = {}
    for u in A.over.basis:
        for v in A.over.basis:
            worst = 0
            for w in A.wbasis:
                m = _least_clearing_power(
                    *_weak_difference(A, axiom, u, v, w, N, stacks), m_max)
                if m is None:
                    return structures.PropertyReport(
                        axiom, "FAIL", {"triple": (u, v, w), "m_max": m_max},
                        window=N)
                worst = max(worst, m)
            witnesses[f"{u},{v}"] = worst
    return structures.PropertyReport(axiom, "PASS", {"min_m": witnesses}, window=N)


def _per_w_check_vf(A, axiom, m_max, window, stacks):
    """check_vf_skew_symmetry as it was before stacking: each (u, v, w)
    alone (its slot series read from ``stacks``), the first failing triple
    reported with its least monomial."""
    N = window or structures.default_window(A)
    for u in A.over.basis:
        for v in A.over.basis:
            for w in A.wbasis:
                left = slot_triple(A, u, v, w, stacks).h_at("x2", "x0")
                right = slot_triple(A, v, u, w, stacks).h_at("t", "x0").flip_sign("x0")
                right = taylor_substitute(right, "t", (1, "x2"), (1, "x0"),
                                          {"x0": (INF, N)})
                ok, wit = series.zero_verdict(left - right,
                                              rationalforms.box(N, "x0", "x2"))
                if not ok:
                    return structures.PropertyReport(
                        axiom, "FAIL", {"triple": (u, v, w), "monomial": wit[0]},
                        window=N)
    return structures.PropertyReport(axiom, "PASS", {}, window=N)


def _outcome(check, *args):
    """The record of a check as JSON, or the type and text of what it raised."""
    try:
        return check(*args).to_json()
    except VertexCalcError as err:
        return type(err).__name__, str(err)


def _scanned_classes(A, kind):
    """{(u, v, w): exactness class} of ``A`` for a weak pair kind, or for vf
    skew symmetry (kind "vf"), by a scan of every key: which of the slot
    series that get s1 substituted have a negative power of s1."""
    stacks = MemberStacks(A)

    def substituted(u, v, w):
        if kind == "vf":
            return [slot_triple(A, v, u, w, stacks).h]
        pair = rationalforms.PAIRS[kind]
        return [getattr(slot_triple(A, u, v, w, stacks), slot)
                for slot, _, sub in (pair.left, pair.right) if sub]

    return {(u, v, w): tuple(any(k[s.idx(rationalforms.S1)] < 0 for k in s.coeffs)
                             for s in substituted(u, v, w))
            for u in A.over.basis for v in A.over.basis for w in A.wbasis}


def _class_count(A, kind):
    """How many exactness classes the triples of ``A`` fall into."""
    return len(set(_scanned_classes(A, kind).values()))


def test_stacked_weak_and_vf_checks_equal_the_per_w_checks(ut2_dir):
    members = (full_corpus() + full_module_corpus()
               + [configio.load_structure(str(ut2_dir / "ut2.json")),
                  configio.load_module(str(ut2_dir / "ut2-regular.module.json"))]
               + _seeded_edits(60, 12) + _random_tables(60, 21))
    checks = {"weak_comm": "m1", "weak_assoc": "m2", "weak_skew_assoc": "m3",
              "vf_skew_symmetry": "vf"}
    compared, outcomes, mixed = Counter(), Counter(), 0
    for A in members:
        stacks = MemberStacks(A)
        for name, kind in checks.items():
            axiom = name if A.over is A else "m_" + name
            stacked, per_w = ((structures.check_vf_skew_symmetry, _per_w_check_vf)
                              if kind == "vf" else
                              (structures.check_weak, _per_w_check_weak))
            mixed += _class_count(A, kind) > 1
            for window in (None, 1, 2, 3):
                for m_max in ((None,) if kind == "vf" else (None, 0, 1)):
                    want = _outcome(per_w, A, axiom, m_max, window, stacks)
                    assert _outcome(stacked, A, axiom, m_max, window, stacks) == want, \
                        (A.name, axiom, m_max, window)
                    compared[kind] += 1
                    outcomes[want["verdict"] if isinstance(want, dict)
                             else want[0]] += 1
    assert compared["vf"] == 4 * len(members) > 600
    assert sum(compared.values()) - compared["vf"] == 36 * len(members)
    assert mixed >= 100
    assert outcomes["PASS"] > 1000 and outcomes["FAIL"] > 1000


def _stack_alone(member, slot, labels):
    """Slot ``slot`` ("hs": slot h of (v, u, w)) of the triples at ``labels``
    of ``member`` (a ``MemberStacks``) stacked from their own series, as if
    no other triple existed."""
    variables, stacked, A = None, {}, member.A
    for u, v, w in labels:
        s = (slot_triple(A, v, u, w, member).h if slot == "hs"
             else getattr(slot_triple(A, u, v, w, member), slot))
        variables, ids = s.variables, member.label_ids()[u, v, w]
        for key, vec in s.coeffs.items():
            for b, c in vec.entries.items():
                stacked.setdefault(key, {})[ids[b]] = c
    return WindowedSeries.from_monomials(
        variables, {key: Vec(e) for key, e in stacked.items()})


def test_exactness_classes_read_off_the_window_equal_the_per_key_scan(
        monkeypatch, ut2_dir):
    # each weak and vf checker splits the triples by the s1 window of the
    # substituted slot series exactly as a scan of every key splits them;
    # on one MemberStacks the five stacked checkers build each member stack
    # (f, g, h, swapped h) at most once (the guards read a triple's own
    # series, no stack), and every stack equals the stack of its triples
    # alone
    splits, stacks, built = [], [], Counter()

    def spied(member, substituted, _original=structures.MemberStacks.classes):
        parts = _original(member, substituted)
        splits.append([list(part) for part in parts])
        return parts

    def read(member, slot, labels=None, _original=structures.MemberStacks.stack):
        out = _original(member, slot, labels)
        stacks.append((slot, list(member.triples if labels is None else labels), out))
        return out

    def counted(member, slot, labels, _original=structures._stack):
        if len(labels) > 1 or len(member.triples) == 1:
            built[slot, len(labels) == len(member.triples)] += 1
        return _original(member, slot, labels)

    monkeypatch.setattr(structures.MemberStacks, "classes", spied)
    monkeypatch.setattr(structures.MemberStacks, "stack", read)
    monkeypatch.setattr(structures, "_stack", counted)
    members = (full_corpus() + full_module_corpus()
               + [configio.load_structure(str(ut2_dir / "ut2.json")),
                  configio.load_module(str(ut2_dir / "ut2-regular.module.json"))]
               + _seeded_edits(60, 12) + _random_tables(60, 21))
    mixed, compared, partial, wholes = 0, 0, 0, Counter()
    for A in members:
        built.clear()
        stacks.clear()
        member = MemberStacks(A)
        # on the smallest box: the window does not change which stacks it reads
        _outcome(check_jacobi, A, _jacobi_axiom(A), None, 1, member)
        for name, kind in (("weak_comm", "m1"), ("weak_assoc", "m2"),
                           ("weak_skew_assoc", "m3"), ("vf_skew_symmetry", "vf")):
            splits.clear()
            _outcome(ACTION_CHECKERS[name], A, name if A.over is A else "m_" + name,
                     None, None, member)
            want = {}
            for label, cls in _scanned_classes(A, kind).items():
                want.setdefault(cls, []).append(label)
            assert splits[0] == list(want.values()), (A.name, name)
            mixed += len(want) > 1
        for slot, labels, out in stacks:
            alone = _stack_alone(member, slot, labels)
            assert (out.variables, out.coeffs, out.window, out.shape) == (
                alone.variables, alone.coeffs, alone.window, alone.shape), (A.name, slot)
            compared += 1
        assert max(n for (_, whole), n in built.items() if whole) == 1, A.name
        wholes.update(slot for slot, whole in built if whole)
        partial += sum(n for (_, whole), n in built.items() if not whole)
    assert [wholes[s] for s in "fgh"] == [len(members)] * 3 and wholes["hs"] > 100, wholes
    assert mixed >= 100 and partial >= 100 and compared > 10 * len(members)


def test_label_ids_decode_to_their_labels_alike_in_every_stack(ut2_dir):
    # every label (u, v, w, w') of a member has its own id, which decodes to
    # its triple (u, v, w), the one at its position in ``triples``; each
    # entry of the f, g, h and swapped-h member stacks is the coefficient of
    # the label of its id, and a class stack, a one-triple class stack and
    # the stacks of a fresh MemberStacks of the member key each label by the
    # same id
    members = (full_corpus() + full_module_corpus()
               + [configio.load_structure(str(ut2_dir / "ut2.json")),
                  configio.load_module(str(ut2_dir / "ut2-regular.module.json"))]
               + _seeded_edits(60, 12) + _random_tables(60, 21))
    entries, classes = 0, 0
    for A in members:
        member, fresh = structures.MemberStacks(A), structures.MemberStacks(A)
        assert fresh.label_ids() == member.label_ids(), A.name
        ids = set()
        for t, by_w in member.label_ids().items():
            assert list(by_w) == list(A.wbasis), (A.name, t)
            for b, i in by_w.items():
                assert member.triple_of(i) == member.triples[i // len(A.wbasis)] == t, \
                    (A.name, t, b)
                ids.add(i)
        assert len(ids) == len(member.triples) * len(A.wbasis), A.name
        label_of = {i: (t, b) for t, by_w in member.label_ids().items()
                    for b, i in by_w.items()}
        for slot in ("f", "g", "h", "hs"):
            series, whole = member.series(slot), member.stack(slot)
            for key, c in whole.coeffs.items():
                for i, x in c.entries.items():
                    t, b = label_of[i]
                    assert series[t].coeffs[key].entries[b] == x, (A.name, slot, t, b)
            count = sum(len(c.entries) for c in whole.coeffs.values())
            assert count == sum(len(c.entries) for s in series.values()
                                for c in s.coeffs.values()), (A.name, slot)
            entries += count
            assert fresh.stack(slot).coeffs == whole.coeffs, (A.name, slot)
            parts = member.classes([slot])
            classes += len(parts) > 1
            for part in parts + [[t] for t in member.triples[:5]]:
                for key, c in member.stack(slot, part).coeffs.items():
                    assert c.entries.items() <= whole.coeffs[key].entries.items(), \
                        (A.name, slot, part)
    assert entries > 10000 and classes >= 100


def test_weak_and_vf_search_once_per_class_stack(monkeypatch):
    # per member and kind, one pair_sides run (weak) or one vf difference per
    # exactness class, and one more on a FAIL: the guard's triple alone
    sides, vf = Counter(), []

    def counted(inst, kind, hi, _original=rationalforms.pair_sides):
        sides[kind] += 1
        return _original(inst, kind, hi)

    def counted_vf(*args, _original=structures._vf_difference):
        vf.append(args)
        return _original(*args)

    monkeypatch.setattr(rationalforms, "pair_sides", counted)
    monkeypatch.setattr(structures, "_vf_difference", counted_vf)
    mixed = 0
    for A in full_corpus() + full_module_corpus():
        sides.clear()
        vf.clear()
        verdicts = {a.removeprefix("m_"): r for a, r in check_all(A).items()}
        for name, kind in (("weak_comm", "m1"), ("weak_assoc", "m2"),
                           ("weak_skew_assoc", "m3"), ("vf_skew_symmetry", "vf")):
            classes = _class_count(A, kind)
            mixed += classes > 1
            runs = len(vf) if kind == "vf" else sides[kind]
            assert runs == classes + (verdicts[name].verdict == "FAIL"), (A.name, name)
    assert mixed >= 1


def test_weak_guard_compares_the_outcome(monkeypatch):
    # the guard's search on the reported triple alone must find no witness
    # either: a rerun that finds one is reported as a stacking violation
    calls = []

    def moved(*args, _original=structures.least_clearing_power):
        out = _original(*args)
        calls.append(out)
        return dict.fromkeys(out, 0) if len(calls) == 2 else out

    monkeypatch.setattr(structures, "least_clearing_power", moved)
    S = [m for m in mutants() if m.name == "mutant-fat-vacuum"][0]
    assert _class_count(S, "m1") == 1
    with pytest.raises(ConsistencyViolationError,
                       match=r"^weak_comm stacking is inconsistent at \(.+\): "
                             r"no witness m <= \d+ on its class stack, "
                             "m = 0 on the triple alone$"):
        check_axiom(S, "weak_comm")
    assert len(calls) == 2 and list(calls[1].values()) == [None]


def test_vf_guard_compares_the_first_monomial(monkeypatch):
    # the guard's difference of the reported triple alone must give the
    # stack's monomial: one whose least judged monomial moved raises
    calls = []

    def shifted(*args, _original=structures._vf_difference):
        out = _original(*args)
        calls.append(out)
        if len(calls) == 2:
            out = out.copy_meta({k: c for k, c in out.coeffs.items()
                                 if k != min(out.coeffs)})
        return out

    monkeypatch.setattr(structures, "_vf_difference", shifted)
    S = [m for m in mutants() if m.name == "mutant-drop-mode"][0]
    assert _class_count(S, "vf") == 1
    with pytest.raises(ConsistencyViolationError,
                       match=r"^vf_skew_symmetry stacking is inconsistent at "
                             r"\(.+\): first monomial \{.*\} on its class stack, "
                             r"\{.*\} on the triple alone$"):
        check_axiom(S, "vf_skew_symmetry")
    assert len(calls) == 2 and len(calls[1].coeffs) > 1


# ---------------------------------------------------------------------------
# injectivity by sparse elimination


def _sympy_rank(S):
    """Rank of the mode-table rows of ``S`` by sympy's dense Matrix.rank."""
    sympy = pytest.importorskip("sympy")
    rows = [{(w, n, b): Fraction(c) for w in S.basis
             for n, vec in S.ytable.get((v, w), {}).items()
             for b, c in vec.entries.items()} for v in S.basis]
    keys = sorted({key for row in rows for key in row}, key=repr)
    if not keys:
        return 0
    return sympy.Matrix([
        [sympy.Rational(row[key].numerator, row[key].denominator) if key in row else 0
         for key in keys] for row in rows]).rank()


def _random_tables(count, seed):
    """``count`` vacuum-free structures with seeded random mode tables; some
    elements act as a rational combination of earlier ones, so many tables
    are rank-deficient."""
    rng = random.Random(seed)
    values = [-2, -1, 1, 2, Fraction(1, 2), Fraction(-3, 4)]
    out = []
    for i in range(count):
        basis = tuple(f"b{j}" for j in range(rng.randint(1, 5)))
        table = {}
        for u in basis:
            earlier = basis[:basis.index(u)]
            if earlier and rng.random() < 0.4:
                mix = {a: rng.choice(values)
                       for a in rng.sample(earlier, rng.randint(1, len(earlier)))}
                for w in basis:
                    modes = {}
                    for a, c in mix.items():
                        for n, vec in table.get((a, w), {}).items():
                            modes[n] = modes.get(n, Vec()) + vec.scale(c)
                    table[(u, w)] = modes
                continue
            for w in basis:
                if rng.random() < 0.4:
                    table[(u, w)] = {
                        n: Vec({rng.choice(basis): rng.choice(values)})
                        for n in rng.sample(range(-3, 2), rng.randint(1, 2))}
        out.append(VertexStructure(f"random-{i}", basis, table))
    return out


def test_injectivity_rank_equals_sympy_rank(ut2_dir):
    members = (full_corpus() + [M.over for M in full_module_corpus()]
               + [configio.load_structure(str(ut2_dir / "ut2.json"))]
               + _random_tables(300, 21))
    deficient = 0
    for S in members:
        report = structures.check_injectivity(S)
        rank = _sympy_rank(S)
        assert report.witnesses["rank"] == rank, S.name
        assert (report.verdict == "PASS") == (rank == len(S.basis)), S.name
        deficient += report.verdict == "FAIL"
    assert len(members) > 300 and 50 < deficient < len(members) - 50
