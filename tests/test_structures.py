import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from conftest import (_weak_difference, assert_one_build_per_member_and_kind,
                      borcherds_route, chain, d_axiom_reference, double_first_coefficient,
                      is_zero, one_skew, route_one, skew_pole, slot_triple,
                      witness_is_valid)

from vertexcalc import cli, configio, deltacalc, rationalforms, series, structures
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
from vertexcalc.scalars import Vec, linear_map
from vertexcalc.series import INF, WindowedSeries, taylor_substitute
from vertexcalc.structures import (
    AXIOMS,
    CHECKERS,
    MemberStacks,
    ModuleStructure,
    VertexStructure,
    borcherds_construct,
    check_all,
    check_axiom,
    check_jacobi,
    divided_power_table,
    divided_powers,
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


def test_construct_refuses_non_associative_product():
    # a.a = b, b.b = a, a.b = 0 is commutative, but (a.a).b = a and a.(a.b) = 0
    basis = ("a", "b")
    mult = {("a", "a"): Vec.unit("b"), ("b", "b"): Vec.unit("a")}
    with pytest.raises(ConstructionError, match=r"^product not associative at \(a,a,b\)$"):
        borcherds_construct("bad", basis, mult, {}, unit=None)


def test_construct_refuses_a_unit_that_fails_the_unit_law():
    # Q[t]/(t^3) with unit t: t.1 = t, not 1
    basis, mult, dmap = truncated_polynomial_algebra(3)
    with pytest.raises(ConstructionError, match="^unit law fails at e0$"):
        borcherds_construct("bad", basis, mult, dmap, unit="e1")


def test_divided_power_table_refuses_a_derivation_that_is_not_nilpotent():
    # D a = a: the powers D^m a never vanish
    with pytest.raises(ConstructionError, match="^derivation is not nilpotent$"):
        divided_power_table(("a",), {"a": Vec.unit("a")}, {("a", "a"): Vec.unit("a")},
                            ("a",))


def test_divided_powers_of_the_zero_map():
    v = Vec({"e0": 2, "e1": -1})
    assert divided_powers({}, v, 0, "unused") == [v]


def test_divided_powers_of_a_truncated_polynomial_derivation():
    # D = d/dt on Q[t]/(t^3): e^(xD) t^2 = t^2 + 2 t x + x^2
    dop = {"e1": Vec({"e0": 1}), "e2": Vec({"e1": 2})}
    assert divided_powers(dop, Vec.unit("e2"), 3, "unused") == [
        Vec.unit("e2"), Vec({"e1": 2}), Vec({"e0": 1})]


def test_divided_powers_stop_at_the_nilpotency_index():
    # D e3 = e2, D e2 = e1, D e1 = e0: D^4 e3 = 0, and D^3 e3 / 3! = e0 / 6
    dop = {"e1": Vec({"e0": 1}), "e2": Vec({"e1": 1}), "e3": Vec({"e2": 1})}
    powers = divided_powers(dop, Vec.unit("e3"), 4, "unused")
    assert len(powers) == 4 and powers[3] == Vec({"e0": Fraction(1, 6)})


def test_divided_powers_refuse_past_their_bound():
    # D^(bound + 1) v must vanish: D a = a never does, and on chain-k's
    # basis, D^k e0 = 0 passes the bound k - 1 and fails the bound k - 2
    with pytest.raises(ConstructionError, match="^not nilpotent here$"):
        divided_powers({"a": Vec.unit("a")}, Vec.unit("a"), 5, "not nilpotent here")
    dop = {f"e{i}": Vec.unit(f"e{i + 1}") for i in range(4)}
    assert len(divided_powers(dop, Vec.unit("e0"), 4, "unused")) == 5
    with pytest.raises(ConstructionError, match="^refused$"):
        divided_powers(dop, Vec.unit("e0"), 3, "refused")


def test_d_axioms_equal_their_series_reference():
    # the mode forms that decide the four D axioms give the records of the
    # series identities that they are components of (``d_axiom_reference``)
    members = full_corpus() + full_module_corpus() + _seeded_edits(200, 17)
    compared, failed = 0, 0
    for A in members:
        if A.over.vacuum is None:
            continue
        for axiom in (("skew_symmetry", "d_derivative", "d_bracket", "strong_creation")
                      if A.over is A else ("m_d_derivative",)):
            got = check_axiom(A, axiom).to_json()
            assert got == d_axiom_reference(A, axiom).to_json(), (A.name, axiom)
            compared += 1
            failed += got["verdict"] == "FAIL"
    assert compared >= 484 and failed >= 327, (compared, failed)


def test_creation_prop_fails_on_negative_powers_acting_on_the_vacuum():
    # a mode e1_0 1 = e1 with n >= 0 puts x^-1 into Y(e1,x)1
    S = borcherds_structure(3).mutate("neg", {("e1", 0, "e0"): Vec.unit("e1")})
    report = check_axiom(S, "creation_prop")
    assert report.verdict == "FAIL"
    assert report.witnesses == {"element": "e1",
                                "reason": "negative powers acting on the vacuum"}


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


def _series_in(var, modes):
    """The Laurent polynomial in ``var`` of modes {exponent: Vec}."""
    return WindowedSeries((var,), {(e,): c for e, c in modes.items()})


def test_compose_with_vacuum_drops_first_variable():
    S = borcherds_structure(3)
    got = slot_triple(S, "e0", "e1", "e1").f
    direct = _series_in("x2", S.yw_modes("e1", "e1"))
    assert is_zero(got - direct.align(("x1", "x2")))


def test_iterate_on_vacuum_is_taylor_shift():
    # Y(Y(u,x0)1, x2) w = Y(u, x2+x0) w
    S = borcherds_structure(4)
    stacks = MemberStacks(S)
    for u in S.basis:
        for w in S.basis:
            left = slot_triple(S, u, "e0", w, stacks).h
            base = _series_in("t", S.yw_modes(u, w))
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
                            img = linear_map(S.dop, img)
                        sign = -1 if (n + j + 1) % 2 else 1
                        rhs = rhs + img.scale(Fraction(sign, factorial(j)))
                    assert modes_uv.get(n, Vec()) == rhs, (S.name, u, v, n)


def test_d_bracket_component_form():
    # D(u_n v) = (Du)_n v + u_n Dv on every table entry
    S = borcherds_structure(4)
    for u in S.basis:
        for v in S.basis:
            for n, vec in S.ytable.get((u, v), {}).items():
                lhs = linear_map(S.dop, vec)
                du = S.dop.get(u, Vec())
                dv = S.dop.get(v, Vec())
                rhs = Vec()
                if du:
                    rhs = rhs + S.yw_modes(du, v).get(-n - 1, Vec())
                if dv:
                    rhs = rhs + S.yw_modes(u, dv).get(-n - 1, Vec())
                assert lhs == rhs, (u, v, n)


def test_exponentiated_conjugation_form():
    # e^(zD) Y(u,x) v = Y(u, x+z) e^(zD) v as polynomial identity, each
    # e^(zD) from the divided powers [D^j / j!] (``VertexStructure.exp_d``)
    S = borcherds_structure(4)
    for u in S.basis:
        for v in S.basis:
            lhs = {(e, j): zvec for e, vec in S.yw_modes(u, v).items()
                   for j, zvec in enumerate(S.exp_d(vec))}
            rhs = {}
            for j, zvec in enumerate(S.exp_d(Vec.unit(v))):
                for e, vec in S.yw_modes(u, zvec).items():
                    rhs[e, j] = rhs.get((e, j), 0) + vec
            rhs = taylor_substitute(WindowedSeries(("t", "z"), rhs),
                                    "t", (1, "x"), (1, "z"))
            diff = WindowedSeries(("x", "z"), lhs) - rhs.align(("x", "z"))
            assert is_zero(diff), (u, v)


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
    # the products of slot f and of slot h are each run once per member, at
    # every triple in one pass, and one triple at a time only by FAIL guards
    assert_one_build_per_member_and_kind(slot_product_calls, corpus, shared)
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
    tables in Vec arithmetic: f = Y(u,x1)Y(v,x2)w has a term per mode of v on
    w, basis element b of its image and mode of u on b; h = Y(Y(u,x0)v,x2)w a
    term per mode of u on v, b of its image and mode of b on w, each keyed
    by its (outer, inner) exponents.  g and hs are f and h at (v, u, w)."""
    if slot in ("g", "hs"):
        return _slot_reference(A, "f" if slot == "g" else "h", v, u, w)
    coeffs = {}
    inner, outer = ((A.ywtable.get((v, w), {}), lambda b: A.ywtable.get((u, b), {}))
                    if slot == "f" else
                    (A.over.ytable.get((u, v), {}), lambda b: A.ywtable.get((b, w), {})))
    for n_in, image in inner.items():
        for b, c in image.entries.items():
            for n_out, vec in outer(b).items():
                key = (-n_out - 1, -n_in - 1)
                coeffs[key] = coeffs.get(key, Vec()) + vec.scale(c)
    return WindowedSeries(("x1", "x2") if slot == "f" else ("x2", "x0"), coeffs)


def _series_facts(s):
    """What a slot series is: variables, coefficients with each entry's type,
    and windows."""
    return (s.variables,
            {k: (type(c), {b: (type(x), x) for b, x in c.entries.items()})
             for k, c in s.coeffs.items()},
            s.window)


def test_slot_builder_equals_the_term_by_term_products(ut2_dir):
    # every slot series of every member equals the per-triple product summed
    # term by term: each triple's own series (``own``, the products of that
    # triple alone) and each triple's series decoded from the member stacks,
    # written in one pass over the mode tables
    members = (full_corpus() + full_module_corpus()
               + [configio.load_structure(str(ut2_dir / "ut2.json")),
                  configio.load_module(str(ut2_dir / "ut2-regular.module.json"))]
               + _seeded_edits(60, 12) + _random_tables(60, 21))
    compared, monomials, rationals = 0, 0, 0
    for A in members:
        member = MemberStacks(A)
        own = {t: member.own(t) for t in member.triples}
        for slot in ("f", "g", "h", "hs"):
            whole, decoded = member.stack(slot), {t: {} for t in member.triples}
            for key, c in whole.coeffs.items():
                for i, x in c.entries.items():
                    t = member.triple_of(i)
                    b = A.wbasis[i % len(A.wbasis)]
                    decoded[t].setdefault(key, {})[b] = x
            for t, coeffs in decoded.items():
                want = _slot_reference(A, slot, *t)
                want = want.rename(
                    dict(zip(want.variables, rationalforms.SLOT_VARIABLES[slot])))
                got = WindowedSeries(
                    whole.variables, {k: Vec(e) for k, e in coeffs.items()})
                assert _series_facts(got) == _series_facts(want), (A.name, slot, t)
                if slot != "hs":
                    assert _series_facts(getattr(own[t], slot)) == _series_facts(want), \
                        (A.name, slot, t)
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


def test_route_two_checks_the_proved_three_term_identity(monkeypatch):
    # on every Jacobi triple of both corpora, route 2 hands series.apply_delta
    # f, g and h with the deltas and signs of identity_lhs("three-term"), in
    # the anchor's order, and no other term
    lhs = [(t.coeff, *t.delta.num, t.delta.denom)
           for t in deltacalc.identity_lhs("three-term").terms]
    calls = []
    monkeypatch.setattr(rationalforms, "apply_delta",
                        lambda terms, out_window: calls.append(terms))
    triples = 0
    for A in full_corpus() + full_module_corpus():
        stacks = MemberStacks(A)
        for t in stacks.triples:
            inst = slot_triple(A, *t, stacks)
            slots = (inst.f, inst.g, inst.h)
            # the anchor's f(x1,x2), g(x2,x1) and h(x2,x0)
            assert [s.variables for s in slots] == [
                ("x1", "x2"), ("x2", "x1"), ("x2", "x0")]
            rationalforms.three_term_series(inst, 5)
            terms = calls.pop()
            assert [term[:-1] for term in terms] == lhs
            assert all(term[-1] is slot for term, slot in zip(terms, slots))
            triples += 1
    assert triples > 1000 and calls == []


def _route_two_on_every_member_stack():
    """Route 2 (``rationalforms.three_term_series``) on the member stack of
    every member of both corpora, at its default window."""
    for A in full_corpus() + full_module_corpus():
        rationalforms.three_term_series(MemberStacks(A).instance(),
                                        structures.default_window(A))


def test_route_two_writes_only_inside_the_delta_window(monkeypatch):
    # series.apply_delta writes no coefficient outside out_window, on the
    # member stack of every member of both corpora and on replay instances
    # 0..7
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
    _route_two_on_every_member_stack()
    for seed in range(8):
        inst = rationalforms.generate_instance(seed, N=8)
        for which in rationalforms.IMPLICATIONS:
            rationalforms.replay_implication(which, inst, N=8, m_max=None)
    # route 2 runs at least once per member stack and once per instance
    assert len(calls) >= len(full_corpus()) + len(full_module_corpus()) + 8
    assert sum(calls) > 1000
    assert outside == []


def test_route_two_calls_add_power_only_for_a_nonempty_tail_range(monkeypatch):
    # series.apply_delta skips a (coefficient, delta index) pair whose tail
    # range is empty: every add_power call it makes writes at least one key,
    # on the member stack of every member of both corpora and on replay
    # instances 0..7
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
    _route_two_on_every_member_stack()
    for seed in range(8):
        inst = rationalforms.generate_instance(seed, N=8)
        for which in rationalforms.IMPLICATIONS:
            rationalforms.replay_implication(which, inst, N=8, m_max=None)
    assert len(calls) >= len(full_corpus()) + len(full_module_corpus()) + 8
    assert len(written) > 1000
    assert min(written) >= 1


# ---------------------------------------------------------------------------
# Jacobi once per member, on one stack of every (u, v, w)


def _per_triple_jacobi(A, axiom, N, stacks):
    """The Jacobi check run triple by triple, as it was before stacking: route
    1 (conftest's ``route_one``) and route 2 (``rationalforms.check_A``) on
    each (u, v, w) (its slot series read from ``stacks``), the
    first failing triple reported.  Every triple's verdict is kept beside
    the report, so the reference continues past the first FAIL."""
    verdicts, report = {}, None
    for u in A.over.basis:
        for v in A.over.basis:
            for w in A.wbasis:
                inst = slot_triple(A, u, v, w, stacks)
                out = route_one(inst, N)
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


def _member_stack_failing_triples(member, N):
    """Route 1's and route 2's failing triples, read off the member stack of
    ``member``."""
    inst = member.instance()
    sym = route_one(inst, N)
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
        axiom, N = _jacobi_axiom(A), structures.default_window(A)
        stacks = MemberStacks(A)
        want, per_triple = _per_triple_jacobi(A, axiom, N, stacks)
        failing = {t for t, ok in per_triple.items() if not ok}
        # each route's failing triples, read from the one stack of the
        # member, are exactly the triples that fail alone
        assert _member_stack_failing_triples(stacks, N) == (failing, failing), A.name
        triples += len(per_triple)
        failing_triples += len(failing)
        failing_pairs += len({t[:2] for t in failing})
        got = structures.check_jacobi(A, axiom, stacks)
        assert got.to_json() == want.to_json(), A.name
        reports[got.verdict] += 1
    assert triples > 10000 and failing_triples > 1000 and failing_pairs > 100
    assert reports["PASS"] > 20 and reports["FAIL"] > 20


def test_jacobi_runs_the_exact_route_once_and_route_two_once_more_on_a_fail(monkeypatch):
    # the exact route decides once per check, on the member stack; route 2
    # runs once on a PASS member, and once more on a FAIL member, on its
    # reported triple alone; route 1 has left the checker
    route2, exact = [], []

    def stacked(inst, N, _original=structures._jacobi_series):
        route2.append(inst)
        return _original(inst, N)

    def decided(inst, _original=structures.exact_jacobi):
        exact.append(inst)
        return _original(inst)

    monkeypatch.setattr(structures, "_jacobi_series", stacked)
    monkeypatch.setattr(structures, "exact_jacobi", decided)
    assert not hasattr(structures, "window_coeffs")
    members = {"jacobi": (borcherds_structure(4), mutants()[0]),
               "m_jacobi": (make_module(4, "ideal"), module_mutants()[0])}
    for axiom, (passing, failing) in members.items():
        for A, verdict, route2_calls in ((passing, "PASS", 1), (failing, "FAIL", 2)):
            route2.clear()
            exact.clear()
            assert structures.check_jacobi(
                A, axiom, MemberStacks(A)).verdict == verdict, A.name
            assert len(A.over.basis) > 1 and len(A.wbasis) > 1
            assert len(route2) == route2_calls and len(exact) == 1, A.name


def test_jacobi_routes_disagreeing_on_a_stacked_pair_raise(monkeypatch):
    # the exact route's result on the member stack with one triple's labels
    # flipped from zero to nonzero: the triple is named, with each route's
    # verdict
    S = borcherds_structure(3)
    u, v, w = S.basis[1], S.basis[2], S.basis[0]
    label = structures.MemberStacks(S).label_ids()[u, v, w][w]
    M = mutants()[0]
    member = MemberStacks(M)
    first = check_jacobi(M, "jacobi", member).witnesses["triple"]
    ids = set(member.label_ids()[first].values())
    exact = structures.exact_jacobi

    def flipped(inst):
        assert not exact(inst)
        return {("E", 0, 0): Vec({label: 1})}

    monkeypatch.setattr(structures, "exact_jacobi", flipped)
    with pytest.raises(ConsistencyViolationError,
                       match=rf"^jacobi routes disagree on \({u},{v},{w}\): "
                             "windowed=True exact=False$"):
        check_axiom(S, "jacobi")
    # route 2 flagging a triple that the exact route holds raises: a box
    # coefficient is a true one
    def dropped(inst):
        out = {k: Vec({i: x for i, x in c.entries.items() if i not in ids})
               for k, c in exact(inst).items()}
        return {k: c for k, c in out.items() if c}

    monkeypatch.setattr(structures, "exact_jacobi", dropped)
    with pytest.raises(ConsistencyViolationError,
                       match=rf"^jacobi routes disagree on \({','.join(first)}\): "
                             "windowed=False exact=True$"):
        check_axiom(M, "jacobi")


def test_exact_route_equals_route_one_at_the_default_window():
    # the exact route (``rationalforms.exact_jacobi``) against route 1
    # (conftest's ``route_one``), member by member: at the default window their failing
    # triples are the same; below it route 1's are among the exact ones,
    # each box coefficient being a true one.  Many members have a pole in f
    # (p > 0 on the stack) beside a passing triple, so the common p decides
    # labels of several pole orders
    members = (full_corpus() + full_module_corpus() + _seeded_edits(60, 12)
               + _seeded_edits(200, 12) + _seeded_edits(200, 13)
               + _random_tables(60, 21))
    fails, poles, mixed = 0, 0, 0
    for A in members:
        member = MemberStacks(A)
        inst = member.instance()
        exact = structures._failing_triples(member, rationalforms.exact_jacobi(inst))
        for N in (1, 2, 3, structures.default_window(A)):
            windowed = structures._failing_triples(member, route_one(inst, N))
            assert windowed <= exact, (A.name, N)
        assert windowed == exact, A.name
        fails += bool(exact)
        if min((a for a, _ in inst.f.coeffs), default=0) < 0:
            poles += 1
            mixed += len(exact) < len(member.triples)
    assert len(members) == 555
    assert fails >= 450 and poles >= 180 and mixed >= 170, (fails, poles, mixed)


def test_the_borcherds_identity_on_the_mode_tables_equals_route_one():
    # the Borcherds identity, summed on the mode tables (conftest's
    # borcherds_route, which shares no code with the stack writer or with
    # deltacalc), equals route 1 (conftest's ``route_one``) key for key and
    # label for label on every
    # member stack of both corpora and of _seeded_edits(60, 12); at every
    # Jacobi FAIL record's monomial, its coefficient carries a label of the
    # record's triple
    compared, fails = 0, 0
    for A in full_corpus() + full_module_corpus() + _seeded_edits(60, 12):
        member, N = MemberStacks(A), structures.default_window(A)
        oracle = borcherds_route(member, N)
        assert oracle == route_one(member.instance(), N), A.name
        compared += sum(len(c.entries) for c in oracle.values())
        report = check_jacobi(A, _jacobi_axiom(A), member)
        if report.verdict == "FAIL":
            triple, monomial = report.witnesses["triple"], report.witnesses["monomial"]
            labels = member.label_ids()[triple].values()
            assert not oracle[deltacalc.mono_of(monomial)].entries.keys().isdisjoint(labels), \
                A.name
            fails += 1
    assert compared >= 20000 and fails >= 60, (compared, fails)


def test_route_two_equals_route_one_on_every_member_stack():
    # the checker's windowed route (``structures._jacobi_series``, route 2 on
    # the series layer) equals route 1 (conftest's ``route_one``, deltacalc's
    # window oracle) key for key and label for label on every member stack
    # of both corpora and of _seeded_edits(60, 12), at the default window
    compared = 0
    for A in full_corpus() + full_module_corpus() + _seeded_edits(60, 12):
        inst, N = MemberStacks(A).instance(), structures.default_window(A)
        want = route_one(inst, N)
        assert structures._jacobi_series(inst, N) == want, A.name
        compared += sum(len(c.entries) for c in want.values())
    assert compared >= 23000, compared


def test_checks_that_read_no_stack_never_list_the_triples():
    # chain70 has 357,911 triples; its vacuum, D and injectivity checks read
    # the mode tables alone, so a MemberStacks that they share never lists
    # them, while the first check that reads a stack does
    S = chain(70)
    stacks = MemberStacks(S)
    for axiom in ("vacuum_prop", "creation_prop", "strong_creation", "injectivity",
                  "d_derivative"):
        assert check_axiom(S, axiom, stacks).verdict == "PASS", axiom
    assert "triples" not in vars(stacks)
    A = borcherds_structure(3)
    stacks = MemberStacks(A)
    check_axiom(A, "jacobi", stacks)
    assert "triples" in vars(stacks)
    assert stacks.triples == [(u, v, w) for u in A.basis for v in A.basis for w in A.basis]


# the members of _seeded_edits(60, 12) that fail Jacobi exactly while both
# windowed routes see no coefficient of the box [-1, 1]^3
FALSE_PASSES_AT_WINDOW_ONE = (
    "borcherds-k3-ideal-edit7", "borcherds-k2-ideal-edit12", "ideal-module-k5-edit20",
    "regular-module-k2-edit33", "regular-module-k4-edit48", "quotient-module-k2-edit56",
    "regular-module-k4-edit58")


def test_jacobi_below_the_default_window_is_refused():
    # the box is the member's: a Jacobi check takes no window, and reads and
    # records the default one, also on the members whose box [-1, 1]^3
    # shows none of their exact FAIL, which FAIL there
    failed = []
    for A in _seeded_edits(60, 12):
        axiom, member = _jacobi_axiom(A), MemberStacks(A)
        with pytest.raises(TypeError):
            check_axiom(A, axiom, member, 1)
        report = check_jacobi(A, axiom, member)
        assert report.window == structures.default_window(A), A.name
        if report.verdict == "FAIL":
            failed.append(A.name)
    assert set(FALSE_PASSES_AT_WINDOW_ONE) <= set(failed), failed


def _cli_refusal(tmp_path, capsys, A, argv):
    """Write ``A`` (and a module's base) as a config under ``tmp_path`` and
    run ``argv`` on it with a window below its default: a usage error, exit
    3 with no report.  Returns the config path and its command."""
    if A.over is A:
        path, command = str(tmp_path / f"{A.name}.json"), "check"
        configio.dump_json(configio.member_to_config(A), path)
    else:
        path, command = str(tmp_path / f"{A.name}.module.json"), "check-module"
        configio.dump_json(configio.member_to_config(A), path)
        configio.dump_json(configio.member_to_config(A.over),
                           str(tmp_path / f"{A.over.name}.json"))
    assert structures.default_window(A) > 1
    with pytest.raises(SystemExit) as exc:
        cli.main([command, path, *argv, "--window", "1"])
    captured = capsys.readouterr()
    assert exc.value.code == 3 and captured.out == ""
    assert captured.err.endswith("error: unrecognized arguments: --window 1\n")
    return path, command


def test_check_below_the_default_window_exits_three_on_an_exact_fail(tmp_path, capsys):
    A = next(A for A in _seeded_edits(60, 12) if A.name == "borcherds-k2-ideal-edit12")
    path, command = _cli_refusal(tmp_path, capsys, A, ["--axiom", "jacobi"])
    rc = cli.main([command, path, "--axiom", "jacobi"])
    capsys.readouterr()
    assert rc == 1


def test_jacobi_stack_disagreeing_with_its_triple_raises(monkeypatch):
    # a stacked triple that both routes find nonzero while the triple alone
    # is zero cannot come from a correct stacking: route 2's rerun on the
    # reported triple catches it, and it is reported, not passed over
    double_first_coefficient(monkeypatch, "f")
    S = borcherds_structure(3)
    e0 = S.basis[0]
    with pytest.raises(ConsistencyViolationError,
                       match=rf"^jacobi stacking is inconsistent at \({e0},{e0},{e0}\): "
                             r"first monomial \{.*\} on the member stack, "
                             "none on the triple alone$"):
        check_axiom(S, "jacobi")


@pytest.mark.parametrize("axiom, slot", [
    ("weak_comm", "f"), ("weak_assoc", "h"), ("weak_skew_assoc", "g"),
    ("vf_skew_symmetry", "h"), ("vf_skew_symmetry", "hs")])
def test_weak_and_vf_stacks_disagreeing_with_their_triple_raise(monkeypatch, axiom,
                                                                 slot):
    # a faulty stack writer makes the valid borcherds-k3 fail at (e0, e0, e0);
    # the guard reruns on that triple's own slot series, which ``_stacks``
    # does not write, finds it holds, and reports the stacking.  g and hs are
    # written, not copied, from the products of f and h, so each is perturbed
    # on its own
    double_first_coefficient(monkeypatch, slot)
    S = borcherds_structure(3)
    e0 = S.basis[0]
    with pytest.raises(ConsistencyViolationError,
                       match=rf"^{axiom} stacking is inconsistent at "
                             rf"\({e0},{e0},{e0}\): .* on the member stack, "
                             ".* on the triple alone$"):
        check_axiom(S, axiom)


def test_jacobi_guard_compares_the_first_monomial(monkeypatch):
    # route 2's rerun on the reported triple must give the stack's first
    # monomial, not just a FAIL: a rerun whose least nonzero coefficient
    # moved is reported as a stacking violation
    calls = []

    def shifted(*args, _original=structures._jacobi_series):
        out = _original(*args)
        calls.append(out)
        if len(calls) == 2:
            out = dict(out)
            del out[min(out)]
        return out

    monkeypatch.setattr(structures, "_jacobi_series", shifted)
    S = mutants()[0]
    with pytest.raises(ConsistencyViolationError,
                       match=r"^jacobi stacking is inconsistent at \(.+\): "
                             r"first monomial \{.*\} on the member stack, "
                             r"\{.*\} on the triple alone$"):
        check_axiom(S, "jacobi")
    assert len(calls) == 2 and len(calls[1]) > 1


# ---------------------------------------------------------------------------
# the weak properties and vf skew symmetry once per member, decided exactly
# and cross-checked on the whole member stack


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


def _per_w_check_weak(A, axiom, stacks):
    """check_weak as it was before stacking: the witness search on each
    (u, v, w) alone (its slot series read from ``stacks``), up to the pole
    order + 2, the first triple without a witness reported."""
    N, m_max = structures.default_window(A), A.max_pole_order() + 2
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


def _per_w_check_vf(A, axiom, stacks):
    """check_vf_skew_symmetry as it was before stacking: each (u, v, w)
    alone (its slot series read from ``stacks``), the first failing triple
    reported with its least monomial."""
    N = structures.default_window(A)
    for u in A.over.basis:
        for v in A.over.basis:
            for w in A.wbasis:
                left = slot_triple(A, u, v, w, stacks).h
                right = slot_triple(A, v, u, w, stacks).h.rename(
                    {"x2": "t"}).flip_sign("x0")
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
    series that get a variable substituted have a negative power of it."""
    stacks = MemberStacks(A)

    def substituted(u, v, w):
        if kind == "vf":
            return [(slot_triple(A, v, u, w, stacks).h, "x2")]
        pair = rationalforms.PAIRS[kind]
        return [(getattr(slot_triple(A, u, v, w, stacks), slot), pair.eliminated)
                for slot, sub in (pair.left, pair.right) if sub]

    return {(u, v, w): tuple(any(k[s.idx(x)] < 0 for k in s.coeffs)
                             for s, x in substituted(u, v, w))
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
            want = _outcome(per_w, A, axiom, stacks)
            got = _outcome(stacked, A, axiom, stacks)
            compared[kind] += 1
            assert got == want, (A.name, axiom)
            outcomes[want["verdict"] if isinstance(want, dict) else want[0]] += 1
    assert compared["vf"] == len(members) > 150
    assert sum(compared.values()) - compared["vf"] == 3 * len(members)
    assert mixed >= 100
    assert outcomes["PASS"] >= 189 and outcomes["FAIL"] >= 431, outcomes


def test_label_ids_decode_to_their_labels_alike_in_every_stack(ut2_dir):
    # every label (u, v, w, w') of a member has its own id, which decodes to
    # its triple (u, v, w), the one at its position in ``triples``; each
    # entry of the f, g, h and swapped-h member stacks is the coefficient of
    # the label of its id in the triple's own series (``own``; hs is h at
    # (v, u, w)), and the stacks of a fresh MemberStacks of the member key
    # each label by the same id; a triple's own hs is the h of its swap
    members = (full_corpus() + full_module_corpus()
               + [configio.load_structure(str(ut2_dir / "ut2.json")),
                  configio.load_module(str(ut2_dir / "ut2-regular.module.json"))]
               + _seeded_edits(60, 12) + _random_tables(60, 21))
    entries = 0
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
        own = {t: member.own(t) for t in member.triples}
        for u, v, w in member.triples:
            assert own[u, v, w].hs.coeffs == own[v, u, w].h.coeffs, (A.name, u, v, w)
        for slot in ("f", "g", "h", "hs"):
            series = {t: getattr(own[t], slot) for t in member.triples}
            whole = member.stack(slot)
            for key, c in whole.coeffs.items():
                for i, x in c.entries.items():
                    t, b = label_of[i]
                    assert series[t].coeffs[key].entries[b] == x, (A.name, slot, t, b)
            count = sum(len(c.entries) for c in whole.coeffs.values())
            assert count == sum(len(c.entries) for s in series.values()
                                for c in s.coeffs.values()), (A.name, slot)
            entries += count
            assert fresh.stack(slot).coeffs == whole.coeffs, (A.name, slot)
    assert entries > 10000


def test_weak_and_vf_search_the_member_stack_once(monkeypatch):
    # the checks of one check_all share one MemberStacks, whose f and g
    # stacks are written in one pass, and h and swapped-h in another, each
    # once; per member and kind, one pair_sides run (weak) or one vf
    # difference on the whole member stack, and one more on a FAIL: the
    # rerun on the reported triple alone
    built, sides, vf = Counter(), Counter(), []

    def stacked(member, kind, _original=structures._stacks):
        built[member.A.name, kind] += 1
        return _original(member, kind)

    def counted(inst, kind, hi, _original=rationalforms.pair_sides):
        sides[kind] += 1
        return _original(inst, kind, hi)

    def counted_vf(*args, _original=structures._vf_difference):
        vf.append(args)
        return _original(*args)

    monkeypatch.setattr(structures, "_stacks", stacked)
    monkeypatch.setattr(rationalforms, "pair_sides", counted)
    monkeypatch.setattr(structures, "_vf_difference", counted_vf)
    members = full_corpus() + full_module_corpus() + [skew_pole(), one_skew()]
    fails = Counter()
    for A in members:
        sides.clear()
        vf.clear()
        verdicts = {a.removeprefix("m_"): r for a, r in check_all(A).items()}
        for name, kind in structures.WEAK_PAIRS.items() | {("vf_skew_symmetry", "vf")}:
            failed = verdicts[name].verdict == "FAIL"
            fails[failed] += 1
            runs = len(vf) if kind == "vf" else sides[kind]
            assert runs == 1 + failed, (A.name, name)
    assert set(built.values()) == {1}, built
    assert set(built) == {(A.name, kind) for A in members for kind in "fh"}
    assert fails[True] >= 50 and fails[False] >= 50, fails


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
                             r"no witness m <= \d+ on the member stack, "
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
                             r"\(.+\): first monomial \{.*\} on the member stack, "
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
        report = check_axiom(S, "injectivity")
        rank = _sympy_rank(S)
        assert report.witnesses["rank"] == rank, S.name
        assert (report.verdict == "PASS") == (rank == len(S.basis)), S.name
        deficient += report.verdict == "FAIL"
    assert len(members) > 300 and 50 < deficient < len(members) - 50


# ---------------------------------------------------------------------------
# the S3 symmetry: the three weak pairs are residues of the one Jacobi identity


def test_every_slot_lives_in_its_jacobi_terms_variables():
    # f(x1,x2), g(x2,x1) and h(x2,x0), the delta numerators (head, tail) of
    # the anchor's three terms: every slot series of a rational-form
    # instance, every triple's own series and every member stack is over
    # its term's variables, so no statement renames a slot.  An
    # expansion orders them as its pair does, g as (x1, x2).
    numerator = {slot: tuple(v for _, v in t.delta.num) for slot, t in rationalforms.JACOBI}
    assert numerator == {"f": ("x1", "x2"), "g": ("x2", "x1"), "h": ("x2", "x0")}
    for seed in range(8):
        inst = rationalforms.generate_instance(seed, N=4, max_deg=2, max_pole=2)
        for slot in "fgh":
            assert set(getattr(inst, slot).variables) == set(numerator[slot]), seed
    triples = 0
    for A in full_corpus() + full_module_corpus():
        stacks = MemberStacks(A)
        for t in stacks.triples:
            own = stacks.own(t)
            assert {s: getattr(own, s).variables for s in "fgh"} == numerator, A.name
            triples += 1
        for slot in ("f", "g", "h", "hs"):
            want = numerator[slot[0]]
            assert stacks.stack(slot).variables == want, (A.name, slot)
    assert triples > 1000


def test_report_anchors_show_the_three_jacobi_deltas_in_order():
    # the anchors are displayed bytes; each must show the deltas of the
    # proved recipe, rationalforms.JACOBI, in its order ("*" read as a space)
    deltas = [re.escape(repr(t.delta).replace("*", " ")) for _, t in rationalforms.JACOBI]
    for anchor in (structures.ANCHORS["jacobi"], structures.ANCHORS["m_jacobi"],
                   cli.DELTA_ANCHORS["three-term"]):
        assert re.search(".*".join(deltas), anchor), anchor


def test_weak_anchors_open_with_their_pairs_binomial():
    # each weak anchor (and its m_ twin) opens with the clearing binomial of
    # its pair recipe, rationalforms.PAIRS, read as signed variables
    for name, kind in structures.WEAK_PAIRS.items():
        for anchor in (structures.ANCHORS[name], structures.ANCHORS["m_" + name]):
            head = re.match(r"\(([^)]*)\)\^m ", anchor)
            assert head, anchor
            signed = {(-1 if sign == "-" else 1, var)
                      for sign, var in re.findall(r"([+-]?)(x\d)", head.group(1))}
            assert signed == set(rationalforms.PAIRS[kind].binomial), anchor


def _on_box(series, b):
    """{monomial as sorted (variable, exponent) pairs: coefficient} of every
    nonzero coefficient of ``series`` on the box ``b``."""
    return {tuple(sorted(series.monomial(k).items())): c
            for k, c in series.nonzero_on(b)}


def test_each_weak_pair_is_a_residue_of_route_one():
    # Res_e e^k of the Jacobi identity, for the variable e that a pair kind
    # eliminates, is binomial^k (left - right) of the pair once k reaches
    # the pole order p of the third slot in e.  So the x_e^(-1-k) slice of
    # route 1's coefficients on [-N, N]^3 equals the cleared pair difference
    # on the pair box, with sign +1 for all three kinds.  Below p the third
    # slot may add to the slice: k < p is not compared, but some slice must
    # differ there, or the bound p would go untested.
    X = ("x0", "x1", "x2")
    compared, below = Counter(), Counter()
    for A in full_corpus() + full_module_corpus() + _seeded_edits(60, 12):
        N, p, stacks = structures.default_window(A), A.max_pole_order(), MemberStacks(A)
        for t in stacks.triples:
            inst = stacks.own(t)
            route1 = {tuple(dict(mono).get(v, 0) for v in X): c
                      for mono, c in route_one(inst, N).items()}
            for kind, pair in rationalforms.PAIRS.items():
                left, right = rationalforms.pair_sides(inst, kind, N)
                diff, w = left - right, rationalforms.box(N, *pair.variables)
                if not route1 and not diff.coeffs:
                    continue
                i = X.index(pair.eliminated)
                for k in range(N):
                    # e^k times route 1, whose e^-1 slice is route 1's e^(-1-k) one
                    shifted = WindowedSeries(X, {
                        key[:i] + (key[i] + k,) + key[i + 1:]: c
                        for key, c in route1.items()})
                    got = _on_box(shifted.residue(pair.eliminated), w)
                    want = _on_box(series.multiply(diff, rationalforms.clearing(kind, k)), w)
                    if k >= p:
                        assert got == want, (A.name, t, kind, k)
                        compared[kind] += len(want)
                    else:
                        below[kind] += got != want
    assert compared["m1"] > 6000 and compared["m2"] > 7500 and compared["m3"] > 8000, compared
    assert min(below[kind] for kind in rationalforms.PAIRS) > 0, below


def test_weak_skew_assoc_at_uvw_is_weak_assoc_at_vuw_under_vf_skew_symmetry():
    # Put x0 -> -x0 and x2 -> x1 into weak_assoc at (v, u, w): its left side
    # becomes weak_skew_assoc's left side at (u, v, w), with the same
    # binomial (x1-x0)^m, and vf skew symmetry at x2 = x1 - x0 maps the two
    # right sides onto each other.  So on a member that PASSes
    # (m_)vf_skew_symmetry each m witnesses both statements or neither, and
    # the least witnesses agree, None included.  They are read per triple,
    # from its own slot series, not from the first-failing records.
    members = (full_corpus() + full_module_corpus() + _seeded_edits(60, 12)
               + _random_tables(60, 21))
    passing, triples, witnesses = 0, 0, Counter()
    for A in members:
        stacks = MemberStacks(A)
        vf = "vf_skew_symmetry" if A.over is A else "m_vf_skew_symmetry"
        if check_axiom(A, vf, stacks=stacks).verdict != "PASS":
            continue
        passing += 1
        N, m_max = structures.default_window(A), A.max_pole_order() + 2
        for u, v, w in stacks.triples:
            skew, assoc = (rationalforms.least_clearing_power(
                *rationalforms.pole_statement(stacks.own(t), kind, N, N), m_max)[None]
                for t, kind in (((u, v, w), "m3"), ((v, u, w), "m2")))
            assert skew == assoc, (A.name, (u, v, w), skew, assoc)
            witnesses[skew] += 1
            triples += 1
    assert passing >= 45 and triples >= 1376, (passing, triples)
    assert witnesses[0] and witnesses[None], witnesses


# ---------------------------------------------------------------------------
# the closed forms: exact weak and vf deciders (Claims B, C, D and V of
# rationalforms.exact_difference)

WEAK_AND_VF = ("weak_comm", "weak_assoc", "weak_skew_assoc", "vf_skew_symmetry")


def _axiom(A, name):
    return name if A.over is A else "m_" + name


def _claim_members():
    return (full_corpus() + full_module_corpus() + _seeded_edits(60, 12)
            + _seeded_edits(200, 13) + _random_tables(60, 21) + [skew_pole(), one_skew()])


def test_positive_witness_members_pass_weak_skew_assoc_at_their_pole_order():
    # skew-pole and its module twin one-skew: the pole of Y(v,x2) lands on k,
    # which every mode kills, so g has an x2-pole and no x1-pole and weak
    # skew-associativity passes with witness 1, the pole order, and only
    # there
    want = {
        "skew-pole": {"jacobi": "FAIL", "weak_comm": "FAIL", "weak_assoc": "FAIL",
                      "weak_skew_assoc": "PASS", "vf_skew_symmetry": "FAIL",
                      "injectivity": "FAIL", **dict.fromkeys(structures.VACUUM_AXIOMS,
                                                             "UNTESTED")},
        "one-skew": {"m_jacobi": "FAIL", "m_weak_comm": "FAIL", "m_weak_assoc": "FAIL",
                     "m_weak_skew_assoc": "PASS", "m_vf_skew_symmetry": "FAIL",
                     "m_vacuum_prop": "FAIL", "m_d_derivative": "FAIL"}}
    min_m = {"skew-pole": {"e,e": 1, "e,k": 0, "k,e": 0, "k,k": 0},
             "one-skew": {"1,1": 1}}
    first = {"skew-pole": ("e", "e", "e"), "one-skew": ("1", "1", "w")}
    for A in (skew_pole(), one_skew()):
        got = check_all(A)
        assert {a: r.verdict for a, r in got.items()} == want[A.name], A.name
        skew = _axiom(A, "weak_skew_assoc")
        assert got[skew].witnesses == {"min_m": min_m[A.name]}, A.name
        assert max(min_m[A.name].values()) == A.max_pole_order() == 1, A.name
        for name in WEAK_AND_VF[:2] + ("jacobi", "vf_skew_symmetry"):
            assert got[_axiom(A, name)].witnesses["triple"] == first[A.name]
        for name in WEAK_AND_VF[:2]:
            assert got[_axiom(A, name)].witnesses["m_max"] == A.max_pole_order() + 2
    assert check_axiom(skew_pole(), "injectivity").witnesses == {"rank": 1, "dim": 2}
    assert check_axiom(one_skew(), "m_vacuum_prop").witnesses == {"element": "w"}


def test_weak_comm_and_weak_assoc_pass_only_with_witness_zero():
    # Claims B and C: weak commutativity and weak associativity of a finite
    # action hold at m = 0 when they hold at all
    passes = Counter()
    for A in _claim_members():
        stacks = MemberStacks(A)
        for name in WEAK_AND_VF[:2]:
            report = check_axiom(A, _axiom(A, name), stacks=stacks)
            if report.verdict == "PASS":
                assert set(report.witnesses["min_m"].values()) <= {0}, (A.name, name)
                passes[name] += 1
    assert passes["weak_comm"] >= 120 and passes["weak_assoc"] >= 55, passes


def test_weak_skew_assoc_witness_is_the_x2_pole_order_of_g():
    # Claim D: a weak_skew_assoc PASS has, at each (u, v), the largest over
    # w of the x2-pole order of g = Y(v,x2)Y(u,x1)w, read off each triple's
    # own slot series by variable name
    passes, positive = 0, 0
    for A in _claim_members():
        stacks = MemberStacks(A)
        report = check_axiom(A, _axiom(A, "weak_skew_assoc"), stacks=stacks)
        if report.verdict != "PASS":
            continue
        want = {}
        for t in stacks.triples:
            g = stacks.own(t).g
            order = max([0] + [-k[g.idx("x2")] for k in g.coeffs])
            want[f"{t[0]},{t[1]}"] = max(want.get(f"{t[0]},{t[1]}", 0), order)
        assert report.witnesses["min_m"] == want, A.name
        passes += 1
        positive += sum(m > 0 for m in want.values())
    assert passes >= 55 and positive >= 2, (passes, positive)


# the (member, axiom) pairs of _seeded_edits(60, 12) that fail at the default
# window while the windowed route alone passes them on the box [-1, 1]^2
FALSE_WEAK_AND_VF_PASSES_AT_WINDOW_ONE = (
    ("wmutant-iterate-shift-edit0", "m_vf_skew_symmetry"),
    ("borcherds-k3-ideal-edit7", "weak_skew_assoc"),
    ("borcherds-k3-ideal-edit7", "vf_skew_symmetry"),
    ("ideal-module-k5-edit20", "m_weak_skew_assoc"),
    ("regular-module-k2-edit33", "m_weak_assoc"),
    ("regular-module-k2-edit33", "m_weak_skew_assoc"),
    ("regular-module-k2-edit33", "m_vf_skew_symmetry"),
    ("wmutant-iterate-shift-edit38", "m_vf_skew_symmetry"),
    ("quotient-module-k3-edit39", "m_vf_skew_symmetry"),
    ("quotient-module-k2-edit56", "m_weak_assoc"),
    ("quotient-module-k2-edit56", "m_weak_skew_assoc"),
    ("quotient-module-k2-edit56", "m_vf_skew_symmetry"),
    ("regular-module-k4-edit58", "m_weak_skew_assoc"))


def test_weak_and_vf_below_the_default_window_are_refused():
    # the box is the member's: a weak or vf check takes no window, and reads
    # and records the default one, also where the box [-1, 1]^2 shows none
    # of the exact FAIL, which FAILs there
    failed = set()
    for A in _seeded_edits(60, 12):
        stacks = MemberStacks(A)
        for name in WEAK_AND_VF:
            axiom = _axiom(A, name)
            with pytest.raises(TypeError):
                check_axiom(A, axiom, stacks, 1)
            report = check_axiom(A, axiom, stacks)
            assert report.window == structures.default_window(A), (A.name, axiom)
            if report.verdict == "FAIL":
                failed.add((A.name, axiom))
    assert set(FALSE_WEAK_AND_VF_PASSES_AT_WINDOW_ONE) <= failed


@pytest.mark.parametrize("name, axiom", [
    ("regular-module-k2-edit33", "m_weak_assoc"),
    ("quotient-module-k2-edit56", "m_vf_skew_symmetry"),
    ("borcherds-k3-ideal-edit7", "weak_skew_assoc"),
    ("ideal-module-k5-edit20", "m_weak_skew_assoc"),
    ("wmutant-iterate-shift-edit0", "m_vf_skew_symmetry")])
def test_check_below_the_default_window_exits_three_on_a_weak_or_vf_fail(
        tmp_path, capsys, name, axiom):
    A = next(A for A in _seeded_edits(60, 12) if A.name == name)
    path, command = _cli_refusal(tmp_path, capsys, A, ["--axiom", axiom])
    assert cli.main([command, path, "--axiom", axiom]) == 1
    capsys.readouterr()


def test_windowed_routes_below_the_default_window_are_bounded_by_the_exact_ones():
    # the any-window oracle, on the routes themselves, since no checker
    # reads a box but the default: a box coefficient is a true coefficient,
    # so at every window route 1's failing triples are among the exact
    # ones, the weak search's witnesses are at most the exact ones and the
    # judged vf difference fails only where the exact one does.  At the
    # default window and at default + 1 the routes equal the exact ones.  At
    # window 1 the pinned members are where the box shows none of a failure
    compared, shown, equal = Counter(), Counter(), Counter()
    for A in _seeded_edits(60, 12):
        member = MemberStacks(A)
        inst, h, hs = member.instance(), member.stack("h"), member.stack("hs")
        m_max = A.max_pole_order() + 2
        exact_jacobi = structures._failing_triples(member, rationalforms.exact_jacobi(inst))
        exact_vf = structures._failing_triples(member, rationalforms.exact_vf(h, hs))
        exact_weak = {}
        for name, kind in structures.WEAK_PAIRS.items():
            diff, poles = structures.EXACT_WEAK[kind](inst)
            exact = dict.fromkeys(member.triples, 0)
            for i, m in poles.items():
                exact[member.triple_of(i)] = max(exact[member.triple_of(i)], m)
            exact |= dict.fromkeys(structures._failing_triples(member, diff))
            exact_weak[name] = exact
        default = structures.default_window(A)
        for N in range(1, default + 2):
            route1 = structures._failing_triples(
                member, route_one(inst, N))
            assert route1 <= exact_jacobi, (A.name, N)
            if N >= default:
                assert route1 == exact_jacobi, (A.name, N)
                equal["jacobi"] += 1
            compared["jacobi"] += len(member.triples)
            if N == 1 and exact_jacobi and not route1:
                shown["jacobi", A.name] += 1
            for name, kind in structures.WEAK_PAIRS.items():
                found = rationalforms.least_clearing_power(
                    *rationalforms.pole_statement(inst, kind, N, N), m_max, member.triples,
                    lambda c: map(member.triple_of, c.entries))
                for t, m in exact_weak[name].items():
                    assert not isinstance(found[t], Exception), (A.name, name, N, t)
                    if m is not None:
                        assert found[t] is not None and found[t] <= m, (A.name, name, N, t)
                        compared["weak"] += 1
                if N >= default:
                    assert found == exact_weak[name], (A.name, name, N)
                    equal["weak"] += 1
                if (N == 1 and None in exact_weak[name].values()
                        and None not in found.values()):
                    shown[_axiom(A, name), A.name] += 1
            judged = dict(series.judged_coeffs(structures._vf_difference(h, hs, N),
                                        rationalforms.box(N, "x0", "x2")))
            vf = structures._failing_triples(member, judged)
            assert vf <= exact_vf, (A.name, N)
            compared["vf"] += len(member.triples)
            if N >= default:
                assert vf == exact_vf, (A.name, N)
                equal["vf"] += 1
            if N == 1 and exact_vf and not vf:
                shown[_axiom(A, "vf_skew_symmetry"), A.name] += 1
    assert compared["jacobi"] >= 11062 and compared["vf"] >= 11062, compared
    assert compared["weak"] >= 29016, compared
    assert equal == {"jacobi": 120, "weak": 360, "vf": 120}, equal
    assert [name for axiom, name in shown if axiom == "jacobi"] == list(
        FALSE_PASSES_AT_WINDOW_ONE)
    assert {(name, axiom) for axiom, name in shown} >= set(
        FALSE_WEAK_AND_VF_PASSES_AT_WINDOW_ONE)


def test_exact_weak_witnesses_are_at_most_the_pole_order(monkeypatch):
    # Claim D: x2 enters g = Y(v,x2)Y(u,x1)w only through the outer Y(v,x2),
    # so every exact weak witness is at most the pole order of the action's
    # tables, and the cross-check, which searches m up to the largest one,
    # never reaches 2N + 2, where a difference judged on the box clears
    # spuriously; no m_max caps a witness
    bounds = []

    def searched(diff, clear, box, m_max, *labels, _original=structures.least_clearing_power):
        bounds.append(m_max)
        return _original(diff, clear, box, m_max, *labels)

    monkeypatch.setattr(structures, "least_clearing_power", searched)
    positive = 0
    for A in _claim_members():
        member, p = MemberStacks(A), A.max_pole_order()
        for name, kind in structures.WEAK_PAIRS.items():
            _, poles = structures.EXACT_WEAK[kind](member.instance())
            assert all(m <= p for m in poles.values()), (A.name, name, poles, p)
            positive += any(poles.values())
            bounds.clear()
            check_axiom(A, _axiom(A, name), member)
            assert bounds and max(bounds) <= p < 2 * structures.default_window(A) + 2, \
                (A.name, name, bounds)
    assert positive >= 128, positive
    # mutant-pole's weak FAILs name (e1, e0, e1) with m_max the pole order + 2
    S = next(m for m in mutants() if m.name == "mutant-pole")
    for name in WEAK_AND_VF[1:3]:
        assert check_axiom(S, name).witnesses == {"triple": ("e1", "e0", "e1"), "m_max": 3}


def test_exact_deciders_equal_the_windowed_route_on_random_tables():
    # a property-based oracle: on small random vacuum-free tables the exact
    # deciders' failing triples and witnesses equal those of the windowed
    # route run on each triple alone at the default window (the per-w
    # checks), for the three weak properties and vf skew symmetry
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entry = st.tuples(st.integers(-3, 1), st.sampled_from((-2, -1, 1, 2)),
                      st.sampled_from("ab"))
    seen = Counter()

    @hypothesis.settings(max_examples=100, derandomize=True, deadline=None,
                         database=None)
    @hypothesis.given(st.lists(st.lists(entry, max_size=2), min_size=4, max_size=4),
                      st.booleans())
    def check(cells, kill_b):
        # with ``kill_b`` every mode kills b, so a pole landing on b can pass
        # weak skew-associativity with a positive witness, as in skew-pole
        table = {pair: {n: Vec.unit(b).scale(c) for n, c, b in cell}
                 for pair, cell in zip((("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")),
                                       cells) if not (kill_b and pair[1] == "b")}
        A = VertexStructure("random", ("a", "b"), table)
        stacks = MemberStacks(A)
        N, m_max = structures.default_window(A), A.max_pole_order() + 2
        for name, kind in structures.WEAK_PAIRS.items():
            diff, poles = structures.EXACT_WEAK[kind](stacks.instance())
            exact = dict.fromkeys(stacks.triples, 0)
            for i, m in poles.items():
                exact[stacks.triple_of(i)] = max(exact[stacks.triple_of(i)], m)
            exact |= dict.fromkeys(structures._failing_triples(stacks, diff))
            for u, v, w in stacks.triples:
                m = _least_clearing_power(
                    *_weak_difference(A, name, u, v, w, N, stacks), m_max)
                e = exact[u, v, w]
                assert m == (None if e is None or e > m_max else e), (name, (u, v, w))
                seen[name, "fail" if m is None else "pass" if m == 0 else "positive"] += 1
        failing = structures._failing_triples(stacks, rationalforms.exact_vf(
            stacks.stack("h"), stacks.stack("hs")))
        for u, v, w in stacks.triples:
            alone = structures._vf_difference(slot_triple(A, u, v, w, stacks).h,
                                              slot_triple(A, v, u, w, stacks).h, N)
            ok, _ = series.zero_verdict(alone, rationalforms.box(N, "x0", "x2"))
            assert ok == ((u, v, w) not in failing), ("vf", (u, v, w))
            seen["vf_skew_symmetry", "pass" if ok else "fail"] += 1

    check()
    assert min(seen[name, v] for name in WEAK_AND_VF for v in ("pass", "fail")) >= 20, seen
    assert seen["weak_skew_assoc", "positive"] >= 3, seen
