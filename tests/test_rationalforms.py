import random
import re

import pytest
from conftest import coeff_at, is_zero_on, least_power_reference

from vertexcalc import rationalforms
from vertexcalc.errors import ConsistencyViolationError, WindowUnderflowError
from vertexcalc.rationalforms import (
    IMPLICATIONS,
    RationalForm,
    TripleInstance,
    box,
    check_A,
    check_EFG,
    exact_jacobi,
    find_pole_witness,
    generate_instance,
    instance_from_form,
    least_clearing_power,
    multiply,
    pair_sides,
    pole_statement,
    random_form,
    reconstruct_form,
    replay_implication,
    statement_form,
)
from vertexcalc.scalars import Vec
from vertexcalc.series import WindowedSeries, binomial_power


def test_expand_no_poles_is_the_polynomial():
    form = RationalForm({(1, 2): 3, (0, 0): -1}, 0, 0, 0)
    s = form.expand("direct", -5, 5)
    assert s.is_exact()
    assert coeff_at(s, {"x1": 1, "x2": 2}) == 3
    assert coeff_at(s, {"x1": 0, "x2": 0}) == -1


def test_two_modes_differ_but_pole_clearing_agrees():
    form = RationalForm({(0, 0): 1}, 1, 0, 0)
    direct = form.expand("direct", -8, 8)
    reverse = form.expand("reversed", -8, 8)
    diff = direct - reverse
    assert not is_zero_on(diff, box(3, "x1", "x2"))
    cleared = multiply(diff, binomial_power(("x1", "x2"), (1, "x1"), (-1, "x2"), 1))
    assert is_zero_on(cleared, box(3, "x1", "x2"))


def test_expand_then_shift_equals_expand_of_shifted_form():
    # the associator hypothesis: f(x0+x2, x2) equals the expansion of the
    # composed numerator over the shifted pole pattern
    form = RationalForm({(2, 1): 1, (0, 0): 2}, 2, 1, 1)
    inst = instance_from_form(form, N=5)
    assert check_EFG(inst, "F", 5)


def test_zero_instance_satisfies_A():
    inst_zero = instance_from_form(RationalForm({(0, 0): 1}, 0, 0, 0), N=4)
    inst = type(inst_zero)(*(WindowedSeries(v, {}) for v in (
        ("x1", "x2"), ("x2", "x1"), ("x2", "x0"))), None, inst_zero.gen_hi)
    ok, witness = check_A(inst, 4)
    assert ok and witness is None


def test_generated_instance_satisfies_A():
    inst = instance_from_form(RationalForm({(1, 0): 1, (0, 2): -2}, 1, 1, 0), N=5)
    ok, witness = check_A(inst, 5)
    assert ok, witness


def test_perturbed_instance_fails_A_with_witness():
    inst = instance_from_form(RationalForm({(0, 0): 1}, 1, 0, 0), N=4)
    bad = inst.perturb_f((0, 0), 1)
    ok, witness = check_A(bad, 4)
    assert not ok
    assert witness is not None
    mono, value = witness
    assert value != 0


def test_pole_witness_zero_for_equal_pair():
    # a = 0: f and g are the same polynomial, so m = 0 works
    inst = instance_from_form(RationalForm({(1, 1): 4}, 0, 2, 1), N=4)
    assert find_pole_witness(inst, "m1", 3, 4) == 0


def test_pole_witness_bounded_by_pole_order():
    for a in (1, 2, 3):
        inst = instance_from_form(RationalForm({(0, 0): 1, (1, 0): 1}, a, 0, 1), N=5)
        m = find_pole_witness(inst, "m1", a + 2, 5)
        assert m is not None and m <= a


def test_unrelated_series_have_no_witness():
    rng = random.Random(2)
    inst = generate_instance(101, N=4, max_deg=2, max_pole=1)
    other = generate_instance(202, N=4, max_deg=2, max_pole=1)
    mixed = type(inst)(inst.f, other.g, inst.h, None, inst.gen_hi)
    assert find_pole_witness(mixed, "m1", 4, 4) is None


def test_reconstruction_round_trip_matches_originals():
    form = RationalForm({(0, 1): 2, (2, 0): -1}, 2, 1, 1)
    inst = instance_from_form(form, N=5)
    m = find_pole_witness(inst, "m1", form.a + 2, 5)
    rebuilt = reconstruct_form(inst, "m1", m, 5)  # raises on mismatch
    assert rebuilt.a == m


def test_reconstruction_all_kinds():
    form = RationalForm({(1, 1): 1, (0, 0): 3}, 1, 2, 1)
    inst = instance_from_form(form, N=5)
    for kind in ("m1", "m2", "m3"):
        m = find_pole_witness(inst, kind, max(form.a, form.b, form.c) + 2, 5)
        assert m is not None
        reconstruct_form(inst, kind, m, 5)


def test_replay_all_implications_on_seeded_instances():
    for seed in (11, 12, 13):
        inst = generate_instance(seed, N=5, max_deg=3, max_pole=2)
        for which in IMPLICATIONS:
            rec = replay_implication(which, inst, N=5)
            assert rec["verdict"] == "PASS", (seed, which, rec)


def test_replay_hypothesis_not_met_is_distinct():
    inst = instance_from_form(RationalForm({(0, 0): 1}, 1, 0, 0), N=4)
    bad = inst.perturb_f((0, 0), 5)
    rec = replay_implication("ia", bad, N=4)
    assert rec["verdict"] == "UNTESTED"
    assert rec["hypothesis"] == "not-met"


def test_statement_form_of_the_associator_puts_x1_as_x0_plus_x2():
    # p = x1 x2: p(x0+x2, x2) = (x0+x2)x2 = x0 x2 + x2^2, over (x0, x2); the
    # pole orders of x0, x1, x2 become those of x1 = x0 + x2, x0 and x2
    out = statement_form(RationalForm({(1, 1): 1}, 1, 2, 3), "m2")
    assert out.numerator == {(1, 1): 1, (0, 2): 1}
    assert (out.a, out.b, out.c, out.kind) == (2, 1, 3, "m2")


def test_statement_form_of_the_skew_pair_puts_x2_as_minus_x0_plus_x1():
    # p = x1: p(x1, -x0+x1) = x1, over (x0, x1); the pole orders of x0, x1,
    # x2 become those of x2 = -x0 + x1, x0 and x1
    out = statement_form(RationalForm({(1, 0): 1}, 1, 2, 3), "m3")
    assert out.numerator == {(0, 1): 1}
    assert (out.a, out.b, out.c, out.kind) == (3, 1, 2, "m3")
    # p = x2: p(x1, -x0+x1) = -x0 + x1
    out2 = statement_form(RationalForm({(0, 1): 1}, 0, 4, 5), "m3")
    assert out2.numerator == {(1, 0): -1, (0, 1): 1}
    assert (out2.a, out2.b, out2.c) == (5, 0, 4)


def test_EFG_checks_on_generated_instance():
    inst = generate_instance(77, N=4, max_deg=2, max_pole=2)
    for which in ("E", "F", "G"):
        assert check_EFG(inst, which, 4)


def test_full_chain_closes():
    for seed in (5, 6):
        inst = generate_instance(seed, N=5, max_deg=3, max_pole=2)
        okA, _ = check_A(inst, 5)
        assert okA
        for kind in ("m1", "m2", "m3"):
            m = find_pole_witness(
                inst, kind, max(inst.form.a, inst.form.b, inst.form.c) + 2, 5)
            assert m is not None
            reconstruct_form(inst, kind, m, 5)


def test_shared_instance_replays_match_fresh_instances():
    for seed in (11, 12):
        shared = generate_instance(seed, N=5, max_deg=3, max_pole=2)
        for which in IMPLICATIONS:
            fresh = generate_instance(seed, N=5, max_deg=3, max_pole=2)
            assert (replay_implication(which, shared, N=5)
                    == replay_implication(which, fresh, N=5)), (seed, which)


def test_replay_computes_each_statement_once_per_instance(monkeypatch):
    calls = []

    def counting(original):
        def wrapper(inst, *args):
            calls.append((original.__name__, args[0]))
            return original(inst, *args)
        return wrapper

    for name in ("check_A", "find_pole_witness", "check_EFG"):
        monkeypatch.setattr(rationalforms, name,
                            counting(getattr(rationalforms, name)))
    for seed in (21, 22):
        calls.clear()
        inst = generate_instance(seed, N=5, max_deg=3, max_pole=2)
        for which in IMPLICATIONS:
            assert replay_implication(which, inst, N=5)["verdict"] == "PASS"
        assert sorted(calls) == [
            ("check_A", 5),
            ("check_EFG", "E"), ("check_EFG", "F"), ("check_EFG", "G"),
            ("find_pole_witness", "m1"), ("find_pole_witness", "m2"),
            ("find_pole_witness", "m3"),
        ], seed


def test_perturbed_copy_does_not_inherit_replay_results():
    inst = instance_from_form(RationalForm({(0, 0): 1}, 1, 0, 0), N=4)
    assert replay_implication("ia", inst, N=4)["verdict"] == "PASS"
    bad = inst.perturb_f((0, 0), 5)
    assert replay_implication("ia", bad, N=4)["verdict"] == "UNTESTED"
    assert replay_implication("ia", inst, N=4)["verdict"] == "PASS"


def _with_slot_changed(inst, slot, value, key=(0, 0)):
    """A copy of ``inst``, same form and windows, with ``value`` added to the
    coefficient at ``key`` of one slot series (by default the constant term,
    inside every [-N, N]^2 box)."""
    series = getattr(inst, slot)
    coeffs = dict(series.coeffs)
    coeffs[key] = coeffs.get(key, 0) + value
    slots = {"f": inst.f, "g": inst.g, "h": inst.h}
    slots[slot] = WindowedSeries(series.variables, coeffs, series.window)
    return TripleInstance(slots["f"], slots["g"], slots["h"], inst.form,
                          inst.gen_hi)


def test_EFG_rejects_a_changed_side():
    inst = instance_from_form(RationalForm({(1, 1): 1, (0, 0): 3}, 1, 2, 1), N=5)
    assert all(check_EFG(inst, which, 5) for which in "EFG")
    bad_h = _with_slot_changed(inst, "h", 1)
    assert [check_EFG(bad_h, which, 5) for which in "EFG"] == [True, False, False]
    bad_g = _with_slot_changed(inst, "g", 1)
    assert not check_EFG(bad_g, "E", 5)


@pytest.mark.parametrize("kind, uncleared", [("m1", "g"), ("m2", "h"), ("m3", "h")])
def test_reconstruction_rejects_a_changed_uncleared_side(kind, uncleared):
    form = RationalForm({(1, 1): 1, (0, 0): 3}, 1, 2, 1)
    inst = instance_from_form(form, N=5)
    m = find_pole_witness(inst, kind, max(form.a, form.b, form.c) + 2, 5)
    reconstruct_form(inst, kind, m, 5)
    bad = _with_slot_changed(inst, uncleared, 1)
    with pytest.raises(ConsistencyViolationError, match="does not re-expand"):
        reconstruct_form(bad, kind, m, 5)


@pytest.mark.parametrize("slot", ["f", "g"])
def test_pair_match_reads_the_whole_box_and_nothing_beyond(slot):
    # (E) compares f(x1,x2) with the direct and g(x2,x1) with the reversed
    # expansion; slot key (-N, N) is head -N, tail N of its expansion, a box
    # corner, and (-N, N + 1) lies just outside the box
    N = 5
    form = RationalForm({(1, 1): 1, (0, 0): 3}, 1, 2, 1)
    inst = instance_from_form(form, N=N)
    m = find_pole_witness(inst, "m1", max(form.a, form.b, form.c) + 2, N)
    corner = _with_slot_changed(inst, slot, 1, (-N, N))
    assert not check_EFG(corner, "E", N)
    with pytest.raises(ConsistencyViolationError, match="does not re-expand"):
        reconstruct_form(corner, "m1", m, N)
    beyond = _with_slot_changed(inst, slot, 1, (-N, N + 1))
    assert check_EFG(beyond, "E", N)
    reconstruct_form(beyond, "m1", m, N)


def test_replay_substitutes_each_pair_side_once(monkeypatch):
    original = rationalforms.taylor_substitute
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(rationalforms, "taylor_substitute", counting)
    inst = generate_instance(21, N=5, max_deg=3, max_pole=2)
    for which in IMPLICATIONS:
        assert replay_implication(which, inst, N=5)["verdict"] == "PASS"
    # one substituted side for m2, two for m3, shared by every statement
    assert len(calls) == 3


def test_witness_bound_below_the_pole_order_is_untested():
    # (A) promises an m1 witness only up to the form's pole order a = 2
    inst = instance_from_form(RationalForm({(0, 0): 1}, 2, 0, 0), N=4)
    for m_max in (0, 1):
        rec = replay_implication("ia", inst, N=4, m_max=m_max)
        assert rec["hypothesis"] == "met"
        assert rec["verdict"] == "UNTESTED"
        assert "below the m1 pole order" in rec["reason"]
    assert replay_implication("ia", inst, N=4, m_max=2)["verdict"] == "PASS"


def test_no_witness_at_or_above_the_pole_order_still_raises(monkeypatch):
    monkeypatch.setattr(rationalforms, "find_pole_witness", lambda *args: None)
    inst = instance_from_form(RationalForm({(0, 0): 1}, 2, 0, 0), N=4)
    for m_max in (2, 3):
        with pytest.raises(ConsistencyViolationError, match="no witness m1"):
            replay_implication("ia", inst, N=4, m_max=m_max)


def test_witness_search_beyond_the_windows_names_m():
    inst = instance_from_form(RationalForm({(0, 0): 1}, 1, 0, 0), N=2)
    with pytest.raises(WindowUnderflowError,
                       match="witness search at m=0 exceeded the known windows; "
                             "regenerate the instance with larger windows"):
        find_pole_witness(inst, "m1", 2, 60)


def test_stacked_witness_search_decides_each_label_as_alone():
    # a stack known on x in [-5, 5], judged on [-3, 0] and cleared by
    # powers of x^-4: x^-4 times it knows [-9, 1], x^-8 times it only
    # [-13, -3], so the windows run out at m = 2: b is cleared at m = 0, a
    # at m = 1, and c, still open at m = 2 (2c at x^-4 and c at x^-2), makes
    # the search raise that m's underflow, as c alone does
    diff = WindowedSeries(("x",), {(0,): Vec({"a": 1, "c": 2}), (2,): Vec({"c": 1})},
                          {"x": (-5, 5)})
    factor = WindowedSeries(("x",), {(-4,): 1})

    def search(labels, d):
        return least_clearing_power(d, factor, {"x": (-3, 0)}, 3, labels,
                                    lambda c: c.entries)

    underflow = ("^witness search at m=2 exceeded the known windows; "
                 "regenerate the instance with larger windows$")
    with pytest.raises(WindowUnderflowError, match=underflow):
        search("abc", diff)
    got = search("ab", diff)
    assert got == {"a": 1, "b": 0}
    for label in "abc":
        alone = diff.copy_meta({
            k: Vec({n: x for n, x in c.entries.items() if n == label})
            for k, c in diff.coeffs.items()})
        if label in got:
            assert search(label, alone) == {label: got[label]}
        else:
            with pytest.raises(WindowUnderflowError, match=underflow):
                search(label, alone)


def test_inexact_stacked_witness_search_decides_each_label_as_alone():
    # a stack known on x in [-6, 6], judged on [-3, 3] and cleared by
    # (x - 1)^m, whose product knows [-6 + m, 6]: "out" lives only at x^-6
    # and x^6, off the box (cleared at m = 0), "ones" is a run of 1s that
    # x - 1 telescopes (m = 1), "ramp" a run of k that (x - 1)^2 telescopes
    # (m = 2), and "rand" stays open until the windows run out at m = 4,
    # where the search raises, as it does on "rand" alone
    rng = random.Random(17)
    scale = {n: rng.choice((1, -2, 3)) for n in ("ones", "ramp", "rand", "out")}
    diff = WindowedSeries(("x",), {(k,): Vec({
        "ones": scale["ones"] * (abs(k) < 5 or k == -5),
        "ramp": scale["ramp"] * k * (abs(k) < 6),
        "rand": scale["rand"] * rng.randint(-2, 2) * (abs(k) < 3),
        "out": scale["out"] * (abs(k) == 6)}) for k in range(-6, 7)},
        {"x": (-6, 6)})

    factor = WindowedSeries(("x",), {(1,): 1, (0,): -1})

    def search(labels, d):
        return least_clearing_power(d, factor, {"x": (-3, 3)}, 5, labels, lambda c: c.entries)

    underflow = ("^witness search at m=4 exceeded the known windows; "
                 "regenerate the instance with larger windows$")
    with pytest.raises(WindowUnderflowError, match=underflow):
        search(("ones", "ramp", "rand", "out"), diff)
    got = search(("ones", "ramp", "out"), diff)
    assert got == {"ones": 1, "ramp": 2, "out": 0}
    for label in ("ones", "ramp", "rand", "out"):
        alone = diff.copy_meta({k: Vec({label: c.entries.get(label, 0)}) for k, c in diff.coeffs.items()})
        if label in got:
            assert search((label,), alone) == {label: got[label]}
        else:
            with pytest.raises(WindowUnderflowError, match=underflow):
                search((label,), alone)


def test_exact_jacobi_agrees_with_check_A_on_pole_free_forms():
    # a form without poles gives a triple of polynomials: Claim A holds on
    # it, as (A) does on the box, and a perturbed f breaks both, with (E)
    # naming the perturbed monomial.  The exact route reads scalar
    # coefficients and label Vecs alike: each form runs as it is, and with
    # each scalar made the coefficient of one label
    def labelled(inst):
        return TripleInstance(*(s.copy_meta({k: Vec({"w": c}) for k, c in s.coeffs.items()})
                                for s in (inst.f, inst.g, inst.h)))

    for wrap, three in ((lambda inst: inst, 3), (labelled, Vec({"w": 3}))):
        for seed in range(30):
            form = random_form(random.Random(seed), max_pole=0)
            inst = instance_from_form(form, N=4)
            assert all(s.is_exact() for s in (inst.f, inst.g, inst.h))
            assert exact_jacobi(wrap(inst)) == {} and check_A(inst, 4)[0]
            bad = inst.perturb_f((1, -2), 3)
            got = exact_jacobi(wrap(bad))[("E", 1, -2)]
            assert got == three and type(got) is type(three)
            assert not check_A(bad, 4)[0]
    inst = instance_from_form(RationalForm({(1, 0): 1}, 0, 0, 0), 4)
    assert exact_jacobi(inst) == {}
    assert exact_jacobi(inst.perturb_f((1, -2), 3)) == {
        ("E", 1, -2): 3, ("F", -1, 0): -3, ("F", -2, 1): -3}


def test_claim_deciders_read_slots_by_name():
    # a replay instance stores g over (x1, x2) and h over (x0, x2), not in
    # SLOT_VARIABLES order; each claim decider names its slots, so it aligns
    # them and decides the exact instance as the Jacobi route does.  Read by
    # position, weak commutativity and weak associativity would fail here
    inst = instance_from_form(RationalForm({(1, 0): 1}, 0, 0, 0), 4)
    assert inst.g.variables != rationalforms.SLOT_VARIABLES["g"]
    assert inst.h.variables != rationalforms.SLOT_VARIABLES["h"]
    for decide in (rationalforms.exact_weak_comm, rationalforms.exact_weak_assoc,
                   rationalforms.exact_weak_skew_assoc):
        assert decide(inst) == ({}, {})
    # with c = 1 g has an x2-pole of order 1, read off a scalar coefficient
    # as the one label None
    inst = instance_from_form(RationalForm({(1, 0): 1}, 0, 0, 1), 4)
    assert rationalforms.exact_weak_comm(inst) == ({}, {})
    assert rationalforms.exact_weak_assoc(inst) == ({}, {})
    assert rationalforms.exact_weak_skew_assoc(inst) == ({}, {None: 1})
    assert exact_jacobi(inst) == {}


def searched_or_underflow(search, *args):
    """search(*args), or ("underflow", m) where it raises the witness
    search's underflow at m."""
    try:
        return search(*args)
    except WindowUnderflowError as err:
        return "underflow", int(re.match(r"witness search at m=(\d+) ", str(err))[1])


def test_stepped_cropped_search_equals_the_uncropped_definition_on_replays():
    # the search steps by one binomial on the difference cropped to the
    # box's reach; ``least_power_reference`` builds binomial^m and
    # multiplies the whole difference once.  They agree on every replay
    # instance of the benchmark pool at the CLI's N = 8 and on a few at
    # N = 12, and on each one perturbed at x1 x2^-2, searched up to m = 3N:
    # far enough that some windows run out, at m = 23 to 26
    outcomes = {"witness": 0, "none": 0, "underflow": 0}
    for N, seeds in ((8, range(128)), (12, range(8))):
        for seed in seeds:
            inst = generate_instance(seed, N=N)
            m_max = max(inst.form.a, inst.form.b, inst.form.c) + 2
            for case, bound in ((inst, m_max), (inst.perturb_f((1, -2), 3), 3 * N)):
                case.gen_hi = inst.gen_hi
                for kind in rationalforms.PAIRS:
                    statement = pole_statement(case, kind, case.gen_hi, N)
                    got = searched_or_underflow(
                        lambda *a: least_clearing_power(*a)[None], *statement, bound)
                    want = searched_or_underflow(least_power_reference, *statement, bound)
                    assert got == want, (N, seed, kind, got, want)
                    outcomes["underflow" if isinstance(got, tuple)
                             else "none" if got is None else "witness"] += 1
    assert outcomes["witness"] >= 700 and outcomes["none"] >= 50, outcomes
    assert outcomes["underflow"] >= 4, outcomes


def test_witness_search_underflow_is_raised_at_the_uncropped_m():
    # at m = 0 as in test_witness_search_beyond_the_windows_names_m, and
    # at m = 3 on the widest box that the difference knows, [-hi, hi]^2,
    # whose low x1 edge lies 2 above the difference's window: each step by
    # x1 - x2 raises that edge by one, and the m1 witness, the pole order
    # 5, is further off
    inst = instance_from_form(RationalForm({(0, 0): 1}, 1, 0, 0), N=2)
    statement = pole_statement(inst, "m1", inst.gen_hi, 60)
    for search in (lambda *a: least_clearing_power(*a)[None], least_power_reference):
        assert searched_or_underflow(search, *statement, 2) == ("underflow", 0)
    inst = instance_from_form(RationalForm({(0, 0): 1}, 5, 0, 0), N=2)
    diff, _, _ = pole_statement(inst, "m1", inst.gen_hi, 2)
    (lo, _), (_, hi) = diff.known("x1"), diff.known("x2")
    statement = pole_statement(inst, "m1", inst.gen_hi, hi)
    assert -hi - lo + 1 == 3
    for search in (lambda *a: least_clearing_power(*a)[None], least_power_reference):
        assert searched_or_underflow(search, *statement, 5) == ("underflow", 3)


def test_each_side_box_is_read_once_per_instance_and_kind(monkeypatch):
    # (E)/(F)/(G) and the reconstruction compare the two sides of a kind
    # with a form on the box; each side's box coefficients are read at most
    # once per instance, however many implications compare them
    reads = []

    def counted(series, w, _original=rationalforms._box_coeffs):
        reads.append(id(series))
        return _original(series, w)
    monkeypatch.setattr(rationalforms, "_box_coeffs", counted)
    read_sides = 0
    for seed in range(24):
        reads.clear()
        inst = generate_instance(seed)
        for which in IMPLICATIONS:
            replay_implication(which, inst)
        for kind in rationalforms.PAIRS:
            for side in inst.result(pair_sides, kind, inst.gen_hi):
                assert reads.count(id(side)) <= 1, (seed, kind)
                read_sides += reads.count(id(side))
    assert read_sides >= 24 * 6, read_sides
