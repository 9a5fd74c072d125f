import random
from fractions import Fraction

import pytest
from conftest import expand_signed_power_reference, extend_universe

from vertexcalc.deltacalc import (
    Atom,
    Delta,
    DeltaExpr,
    Term,
    _expand_factor,
    _expand_signed_power,
    delta_to_atoms,
    expand_deltas,
    identity_lhs,
    make_term,
    mono_mul,
    mono_of,
    normalize,
    prove_identity,
    taylor_shift,
    window_coeffs,
)
from vertexcalc.errors import (
    SummabilityError,
    UnsupportedRewriteError,
)
from vertexcalc.scalars import Vec

XYZ = ("x", "y", "z")


def expr(terms, variables=XYZ):
    return DeltaExpr(terms, variables)


def same_on_window(e1, e2, window):
    return window_coeffs(e1, window) == window_coeffs(e2, window)


# ---------------------------------------------------------------------------
# independent oracle: the expansion of (x-y)^-1 is pinned down by
# (x-y) * S = 1 with S supported on x^(-1-j) y^j, no binomials involved

def geometric_inverse(max_y):
    series = {(-1 - j, j): 1 for j in range(max_y + 1)}
    prod = {}
    for (a, b), c in series.items():
        prod[(a + 1, b)] = prod.get((a + 1, b), 0) + c
        prod[(a, b + 1)] = prod.get((a, b + 1), 0) - c
    for (a, b), c in prod.items():
        if b <= max_y:
            assert c == (1 if (a, b) == (0, 0) else 0)
    return series


def test_geometric_oracle_fixes_reciprocal_coefficients():
    oracle = geometric_inverse(4)
    e = expr([make_term(1, raw_atoms=[((1, "x"), ((-1, "y"),), -1)])])
    got = window_coeffs(e, {"x": (-5, 2), "y": (0, 4)})
    assert got == {mono_of({"x": a, "y": b}): c for (a, b), c in oracle.items()}
    assert got[(("x", -1),)] == oracle[(-1, 0)] == 1
    # frozen from the oracle (not 3): binom(-1,2) * (-1)^2 = 1
    assert got[(("x", -3), ("y", 2))] == oracle[(-3, 2)] == 1
    assert (("x", 2),) not in got


# ---------------------------------------------------------------------------
# delta_to_atoms

def test_delta_to_atoms_one_variable():
    d = Delta(((1, "x"),), "y")
    out = delta_to_atoms(d, XYZ)
    assert [t.atoms[0] for t in out.terms] == [
        Atom("x", ((-1, "y"),), -1),
        Atom("y", ((-1, "x"),), -1),
    ]


def test_delta_to_atoms_two_variable_numerator():
    d = Delta(((1, "x2"), (1, "x0")), "x1")
    out = delta_to_atoms(d, ("x0", "x1", "x2"))
    assert [t.atoms[0] for t in out.terms] == [
        Atom("x2", ((-1, "x1"), (1, "x0")), -1),
        Atom("x1", ((-1, "x0"), (-1, "x2")), -1),
    ]


def test_delta_to_atoms_preserves_window_semantics():
    d = Delta(((1, "x2"), (1, "x0")), "x1")
    before = DeltaExpr([Term(1, (), d, ())], ("x0", "x1", "x2"))
    after = delta_to_atoms(d, ("x0", "x1", "x2"))
    w = {"x0": (-3, 3), "x1": (-3, 3), "x2": (-3, 3)}
    assert same_on_window(before, after, w)


def test_delta_atom_has_all_coefficients_one():
    # d^-1 delta(x/d) has coefficient 1 exactly at x^n d^(-n-1)
    e = expr([Term(1, (), Delta(((1, "x"),), "y"), ())], ("x", "y"))
    got = window_coeffs(e, {"x": (-6, 6), "y": (-6, 6)})
    assert got == {mono_of({"x": n, "y": -n - 1}): 1 for n in range(-6, 6)}


def test_delta_rejects_denominator_in_numerator():
    with pytest.raises(ValueError):
        Delta(((1, "x"), (-1, "y")), "y")


# ---------------------------------------------------------------------------
# taylor_shift

def test_shift_plain_power_makes_atom():
    for n in (-3, -1, 2):
        e = expr([Term(1, (("x", n),))])
        out = taylor_shift(e, "x", (1, "y"))
        assert len(out.terms) == 1
        assert out.terms[0].atoms == (Atom("x", ((1, "y"),), n),)
        # window semantics against the direct binomial expansion
        w = {"x": (n - 4, n), "y": (0, 4)}
        got = window_coeffs(out, w)
        from vertexcalc.scalars import binom
        want = {}
        for k in range(0, 5):
            m = []
            if n - k:
                m.append(("x", n - k))
            if k:
                m.append(("y", k))
            if binom(n, k):
                want[tuple(sorted(m))] = binom(n, k)
        assert got == want


def test_shift_extends_atom_tail():
    e = expr([make_term(1, raw_atoms=[((1, "x"), ((-1, "y"),), -1)])])
    out = taylor_shift(e, "x", (1, "z"))
    assert out.terms[0].atoms == (Atom("x", ((-1, "y"), (1, "z")), -1),)


def test_shift_then_unshift_cancels_tail():
    e = expr([make_term(1, raw_atoms=[((1, "x"), ((1, "y"),), 3)])])
    out = taylor_shift(e, "x", (-1, "y"))
    assert normalize(out).terms[0].mono == (("x", 3),)
    assert not normalize(out).terms[0].atoms


def test_shift_negative_head_atom():
    # (-x + y)^n shifted x -> x + z must become (-(x+z) + y)^n
    e = expr([make_term(1, raw_atoms=[((-1, "x"), ((1, "y"),), -2)])])
    out = taylor_shift(e, "x", (1, "z"))
    w = {"x": (-6, 0), "y": (0, 3), "z": (0, 3)}
    # against shifting the canonical flipped form by hand: window equality with
    # the unshifted expression composed with the shift is checked via z=0 slice
    got = window_coeffs(out, {"x": (-6, 0), "y": (0, 3), "z": (0, 0)})
    want = window_coeffs(e, {"x": (-6, 0), "y": (0, 3)})
    assert got == want


def test_shift_delta_numerator_appends():
    e = expr([Term(1, (), Delta(((1, "x"),), "y"), ())], ("x", "y", "z"))
    out = taylor_shift(e, "x", (1, "z"))
    assert out.terms[0].delta.num == ((1, "x"), (1, "z"))


def test_shift_delta_denominator_refused():
    e = expr([Term(1, (), Delta(((1, "x"),), "y"), ())], ("x", "y", "z"))
    with pytest.raises(UnsupportedRewriteError):
        taylor_shift(e, "y", (1, "z"))


def test_shift_requires_universe_membership():
    e = expr([Term(1, (("x", 1),))], ("x", "y"))
    with pytest.raises(UnsupportedRewriteError):
        taylor_shift(e, "x", (1, "w"))
    out = taylor_shift(extend_universe(e, ["w"]), "x", (1, "w"))
    assert out.terms[0].atoms[0].tail == ((1, "w"),)


# ---------------------------------------------------------------------------
# normalize

def test_normalize_proof_pair_cancels():
    # ((x2+x0)-x1)^-1 - (x2-(x1-x0))^-1 = 0
    t1 = make_term(1, raw_atoms=[((1, "x2"), ((1, "x0"), (-1, "x1")), -1)])
    t2 = make_term(-1, raw_atoms=[((1, "x2"), ((-1, "x1"), (1, "x0")), -1)])
    assert normalize(DeltaExpr([t1, t2], ("x0", "x1", "x2"))).terms == ()


def test_normalize_forced_tail_cancellation():
    t = make_term(1, raw_atoms=[((1, "x"), ((1, "y"), (-1, "y")), 3)])
    assert t.mono == (("x", 3),)
    assert not t.atoms


def test_normalize_coefficient_cancellation():
    e = expr([Term(2, ()), Term(-2, ())])
    assert normalize(e).terms == ()


def test_normalize_idempotent_on_random_expressions():
    rng = random.Random(7)
    pool_atoms = [
        ((1, "x"), ((-1, "y"),), -1),
        ((1, "y"), ((-1, "z"),), 2),
        ((-1, "z"), ((1, "x"),), -2),
        ((1, "x"), ((1, "y"), (1, "z")), -3),
    ]
    for _ in range(25):
        terms = []
        for _ in range(rng.randint(1, 6)):
            mono = tuple(sorted((v, rng.randint(-2, 2)) for v in rng.sample(XYZ, rng.randint(0, 2))))
            mono = tuple((v, e) for v, e in mono if e)
            raw = [pool_atoms[rng.randrange(len(pool_atoms))]] if rng.random() < 0.7 else []
            terms.append(make_term(rng.randint(-3, 3), mono, None, raw))
        e = expr(terms)
        n1 = normalize(e)
        n2 = normalize(n1)
        assert n1.terms == n2.terms


def test_normalize_head_sign_flip():
    # (-x + y)^n = (-1)^n (x - y)^n
    t = make_term(1, raw_atoms=[((-1, "x"), ((1, "y"),), -1)])
    assert t.coeff == -1
    assert t.atoms == (Atom("x", ((-1, "y"),), -1),)
    t2 = make_term(1, raw_atoms=[((-1, "x"), ((1, "y"),), 2)])
    assert t2.coeff == 1


# ---------------------------------------------------------------------------
# the window oracle

def test_coeff_homomorphism_under_addition():
    rng = random.Random(11)
    a = expr([make_term(1, raw_atoms=[((1, "x"), ((-1, "y"),), -1)])])
    b = expr([make_term(2, (("x", -1),), None, [((1, "y"), ((-1, "z"),), -2)])])
    for _ in range(20):
        w = {v: tuple(sorted((rng.randint(-3, 3), rng.randint(-3, 3)))) for v in XYZ}
        got, ga, gb = (window_coeffs(e, w) for e in (a + b, a, b))
        assert got == {k: c for k in ga.keys() | gb.keys() if (c := ga.get(k, 0) + gb.get(k, 0))}


def test_window_oracle_refuses_divergent_term():
    t = make_term(1, raw_atoms=[
        ((1, "x"), ((-1, "y"),), -1),
        ((1, "y"), ((-1, "x"),), -1),
    ])
    with pytest.raises(SummabilityError):
        window_coeffs(DeltaExpr([t], ("x", "y")), {"x": (-1, -1), "y": (-1, -1)})


def test_window_oracle_refuses_head_variable_in_its_own_tail():
    # (y + x)^-1 shifted x -> x + y is (y + x + y)^-1: every power of the
    # tail y lands on the same monomials as the head y, so its coefficient at
    # x y^-2 would read -1, -2, -4 on the windows [-2,2]^2, [-4,4]^2, [-8,8]^2
    e = expr([make_term(1, raw_atoms=[((1, "y"), ((1, "x"),), -1)])], ("x", "y"))
    out = taylor_shift(e, "x", (1, "y"))
    assert out.terms[0].atoms == (Atom("y", ((1, "x"), (1, "y")), -1),)
    for n in (2, 4, 8):
        with pytest.raises(SummabilityError, match="'y' is also in its tail"):
            window_coeffs(out, {"x": (-n, n), "y": (-n, n)})
    # a nonnegative power is refused too: (y + y)^1 read 2y on [-3,3] but y
    # on [1,1], where the head's window cut the tail's power short
    twice = expr([make_term(1, raw_atoms=[((1, "y"), ((1, "y"),), 1)])], ("x", "y"))
    with pytest.raises(SummabilityError):
        window_coeffs(twice, {"y": (1, 1)})


def _product_table():
    """(the term a product of two factors merges into, the window oracle's
    refusal or None), one case per refusal rule of the oracle: a product is
    summable exactly when the oracle expands its merged term."""
    xyzw = ("x", "y", "z", "w")

    def one(*term):
        return DeltaExpr([make_term(*term)], xyzw)

    return {
        "atom tail with no upper bound": (
            one(1, (), None, [((1, "x"), ((-1, "y"),), -1),
                              ((1, "y"), ((-1, "x"),), -1)]),
            "tail variable 'y' has no upper exponent bound"),
        "delta denominator with no finite window": (
            one(1, (), Delta(((1, "y"),), "x"), [((1, "x"), ((1, "z"),), -1)]),
            "delta denominator 'x' has no finite window"),
        "delta tail with no upper bound": (
            one(1, (), Delta(((1, "y"), (1, "z")), "x"),
                [((1, "z"), ((1, "w"),), -1)]),
            "tail variable 'z' has no upper exponent bound"),
        "term with no factors": (one(6, (("x", 1), ("y", 3))), None),
        "monomial times an atom": (
            one(3, (("x", 2),), None, [((1, "x"), ((-1, "y"),), -1)]), None),
        "delta times a power in its own direction": (
            one(1, (), Delta(((1, "y"), (-1, "z")), "x"),
                [((1, "y"), ((-1, "z"),), -2)]), None),
        "two atoms sharing no variable": (
            one(1, (), None, [((1, "x"), ((-1, "y"),), -1),
                              ((1, "z"), ((1, "w"),), -2)]), None),
    }


@pytest.mark.parametrize("case", sorted(_product_table()))
def test_multiply_refuses_by_each_summability_rule(case):
    merged, refusal = _product_table()[case]
    if refusal is None:
        window_coeffs(merged, {})
        # a certified term has finite coefficients on any window
        window_coeffs(merged, {v: (-2, 2) for v in ("x", "y", "z", "w")})
        return
    with pytest.raises(SummabilityError) as err:
        window_coeffs(merged, {})
    assert str(err.value).startswith(refusal)


def test_delta_times_same_direction_power_is_summable():
    t = make_term(1, (), Delta(((1, "x1"), (-1, "x2")), "x0"),
                  [((1, "x1"), ((-1, "x2"),), -2)])
    e = DeltaExpr([t], ("x0", "x1", "x2"))
    got = window_coeffs(e, {v: (-3, 3) for v in ("x0", "x1", "x2")})
    # the delta turns (x1-x2)^-2 into x0^-2: at x0^-1 the factor is
    # (x1-x2)^-2, whose x1^-3 x2 coefficient is C(-2,1)(-1) = 2
    assert got[(("x0", -1), ("x1", -3), ("x2", 1))] == 2
    assert all(isinstance(c, int) for c in got.values())


def _bound(rng, open_share=0.25):
    return None if rng.random() < open_share else rng.randint(-12, 12)


def test_expansion_recurrence_equals_the_enumeration():
    """The windowed recurrence against the enumeration of every tail
    allocation (conftest), on seeded powers: exponents -9..9, head and tail
    signs +-1, 0, 1 and 2 tails (a repeated tail variable among them), open
    window ends and empty k ranges."""
    rng = random.Random(20261018)
    tails_pool = [(), ((1, "y"),), ((-1, "y"),), ((1, "y"), (-1, "z")),
                  ((-1, "y"), (-1, "z")), ((1, "y"), (1, "y")), ((1, "y"), (-1, "y"))]
    seen = {"empty": 0, "nonempty": 0, "open": 0, "refused": 0}
    for _ in range(3000):
        head = (rng.choice((1, -1)), "x")
        tails = rng.choice(tails_pool)
        exp = rng.randint(-9, 9)
        hl, hh = _bound(rng), _bound(rng)
        need = {"x": (hl, hh)}
        for _, v in tails:
            need[v] = (_bound(rng, 0), _bound(rng, 0.05) if v == "z" else rng.randint(-2, 6))
        try:
            want = expand_signed_power_reference(head, tails, exp, need)
        except SummabilityError as err:
            with pytest.raises(SummabilityError, match=str(err)):
                _expand_signed_power(head, tails, exp, need)
            seen["refused"] += 1
            continue
        got = _expand_signed_power(head, tails, exp, need)
        assert all(type(c) is int for c in got.values())
        # a repeated variable may leave a zero, which the oracle drops later
        assert {k: c for k, c in got.items() if c} == want, (head, tails, exp, need)
        seen["nonempty" if got else "empty"] += 1
        seen["open"] += None in (hl, hh)
    assert min(seen.values()) >= 20, seen
    assert seen["nonempty"] >= 1000, seen


def _delta_reference(num, denom, need):
    """The window-relevant coefficients of denom^-1 delta(num/denom), the
    enumeration of conftest summed over the denominator's needed window."""
    out = {}
    lo, hi = need[denom]
    for ed in range(lo, hi + 1):
        part = expand_signed_power_reference(num[0], num[1:], -ed - 1, need)
        for key, c in part.items():
            key = mono_mul(key, ((denom, ed),))
            out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c}


def test_delta_factor_expansion_equals_the_enumeration():
    """A delta factor, its signed tails prepared once for all its indices
    and its last tail written in one loop, against the enumeration at each
    index: numerators with head sign -1 and +1 (so both parities of the
    index meet the sign (-1)^n), one and two tails, needed windows whose
    tail lows lie above 0, open head ends; then ``window_coeffs`` of a
    delta term against the enumeration cut to its window, which cuts tails
    from below."""
    rng = random.Random(20261019)
    nums = [((-1, "x"), (1, "y")), ((-1, "x"), (-1, "y")), ((1, "x"), (-1, "y")),
            ((-1, "x"), (1, "y"), (-1, "z")), ((-1, "x"), (-1, "y"), (1, "z")),
            ((1, "x"), (1, "y"), (1, "z")), ((-1, "x"), (1, "y"), (1, "y"))]
    seen, compared = {"odd": 0, "even": 0, "one": 0, "two": 0, "cut": 0}, 0
    for _ in range(400):
        num = rng.choice(nums)
        lo = rng.randint(-6, 3)
        need = {"d": (lo, lo + rng.randint(0, 6)), "x": (_bound(rng), _bound(rng))}
        for _, v in num[1:]:
            need[v] = (rng.randint(-2, 3), rng.randint(-1, 6))
        got = _expand_factor(("delta", Delta(num, "d")), need)
        want = _delta_reference(num, "d", need)
        assert {k: c for k, c in got.items() if c} == want, (num, need)
        compared += len(want)
        if num[0][0] < 0 and want:
            # the index n = -d-1 of x_d^d is odd where d is even
            seen["odd"] += any(dict(k).get("d", 0) % 2 == 0 for k in want)
            seen["even"] += any(dict(k).get("d", 0) % 2 for k in want)
        seen["one" if len(num) == 2 else "two"] += bool(want)
    for _ in range(200):
        num = rng.choice(nums)
        mono = mono_of({"x": rng.randint(-2, 2), "y": rng.randint(-1, 1)})
        window = {"d": (rng.randint(-5, 0), rng.randint(0, 4)),
                  "x": (rng.randint(-6, 0), rng.randint(0, 6))}
        for _, v in num[1:]:
            window[v] = (rng.randint(-1, 3), rng.randint(3, 6))
        coeff = Fraction(rng.randint(-3, 3) or 1, rng.choice((1, 2)))
        got = window_coeffs(DeltaExpr([Term(coeff, mono, Delta(num, "d"))],
                                      ("d", "x", "y", "z")), window)
        m = dict(mono)
        need = {v: (lo - m.get(v, 0), hi - m.get(v, 0)) for v, (lo, hi) in window.items()}
        want = {}
        for key, c in _delta_reference(num, "d", need).items():
            key = mono_mul(key, mono)
            exps = dict(key)
            if exps.keys() <= window.keys() and all(
                    lo <= exps.get(v, 0) <= hi for v, (lo, hi) in window.items()):
                want[key] = coeff * c
        assert got == want, (num, mono, window)
        compared += len(want)
        seen["cut"] += len(want) < len(_delta_reference(num, "d", need))
    assert min(seen.values()) >= 50 and compared >= 4000, (seen, compared)


def test_window_coeffs_refuses_a_scalar_and_a_stacked_coefficient_at_one_monomial():
    # a stacked coefficient that cancelled to zero makes no Vec, but a
    # scalar at its monomial is still refused; a scalar that cancelled is not
    delta = Delta(((1, "x1"), (-1, "x2")), "x0")
    window = {v: (-1, 1) for v in ("x0", "x1", "x2")}

    def coeffs(*cs):
        return window_coeffs(DeltaExpr([Term(c, (), delta) for c in cs]), window)

    a = Vec({"a": 1})
    for cs in ((1, a), (a, 2), (1, a, -a), (a, -a, Fraction(1, 2))):
        with pytest.raises(TypeError, match="^cannot add scalar and vector coefficients$"):
            coeffs(*cs)
    assert coeffs(1, -1, a) == {k: a for k in coeffs(1)}
    assert coeffs(1, -1, a, -a) == {} and coeffs(a, -a) == {}


def test_window_coeffs_sums_each_label_as_alone():
    """A stacked expression (Vec coefficients over labels a, b, c) has, at
    every monomial, the Vec of each label's own scalar run; labels never
    mix, integral entries are ints, and zero entries are dropped."""
    rng = random.Random(1017)
    shapes = [((), Delta(((1, "x1"), (-1, "x2")), "x0"), ()),
              ((("x1", -1),), Delta(((-1, "x2"), (1, "x1")), "x0"), ()),
              ((("x0", 2),), Delta(((1, "x2"), (1, "x0")), "x1"), ()),
              ((("x2", -2),), None, (((1, "x1"), ((-1, "x0"),), -2),)),
              ((("x0", 1), ("x1", 1)), None, ())]
    labels = ("a", "b", "c")
    window = {v: (-3, 3) for v in ("x0", "x1", "x2")}
    halves = cancelled = 0
    for _ in range(40):
        terms = []
        for _ in range(rng.randint(2, 8)):
            mono, delta, atoms = rng.choice(shapes)
            entries = {lab: Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                       for lab in rng.sample(labels, rng.randint(1, 3))}
            terms.append(make_term(Vec(entries), mono, delta, atoms))
            if rng.random() < 0.3:  # the same shape again, cancelling a label
                terms.append(make_term(Vec(entries).scale(-1), mono, delta, atoms))
        e = DeltaExpr(terms, ("x0", "x1", "x2"))
        want = {}
        for lab in labels:
            alone = DeltaExpr([make_term(t.coeff.entries.get(lab, 0), t.mono, t.delta,
                                         t.raw_atoms()) for t in terms], ("x0", "x1", "x2"))
            for mono, c in window_coeffs(alone, window).items():
                want.setdefault(mono, {})[lab] = c
        got = window_coeffs(e, window)
        assert got == {mono: Vec(v) for mono, v in want.items()}
        for vec in got.values():
            assert vec.entries and all(vec.entries.values())
            for c in vec.entries.values():
                assert (type(c) is int) == (Fraction(c).denominator == 1)
                halves += type(c) is Fraction
        cancelled += any(t.coeff == -u.coeff for t in terms for u in terms)
    assert halves and cancelled


# ---------------------------------------------------------------------------
# the identity prover

def test_two_term_identity_pairs():
    trace = prove_identity("two-term")
    assert trace.pairs == [(1, 4), (2, 3)]
    assert trace.residual is None
    assert len(trace.steps) == 2


def test_three_term_identity_pairs():
    trace = prove_identity("three-term")
    assert trace.pairs == [(1, 6), (2, 4), (3, 5)]
    assert trace.residual is None


def test_identity_window_cross_check_small():
    for which in ("two-term", "three-term"):
        lhs = identity_lhs(which)
        w = {v: (-3, 3) for v in ("x0", "x1", "x2")}
        assert window_coeffs(lhs, w) == {}


def test_expand_deltas_window_preservation():
    lhs = identity_lhs("three-term")
    w = {v: (-3, 3) for v in ("x0", "x1", "x2")}
    assert same_on_window(lhs, expand_deltas(lhs), w)


def test_trace_serialization_and_hashes():
    trace = prove_identity("two-term")
    assert trace.which == "two-term"
    assert trace.residual is None
    assert all(set(s) == {"rule", "before-hash", "after-hash"} for s in trace.steps)


# ---------------------------------------------------------------------------
# reassociation laws as executable tests

def test_reassociation_multiset_equality():
    for n in range(-4, 5):
        if n == 0:
            continue
        e = expr([Term(1, (("x", n),))])
        ab_c = taylor_shift(taylor_shift(e, "x", (1, "y")), "x", (1, "z"))
        a_bc = taylor_shift(taylor_shift(e, "x", (1, "z")), "x", (1, "y"))
        assert normalize(ab_c).terms == normalize(a_bc).terms


def test_reassociation_window_equality():
    for n in (-4, -1, 3):
        e = expr([Term(1, (("x", n),))])
        ab_c = taylor_shift(taylor_shift(e, "x", (1, "y")), "x", (1, "z"))
        a_bc = taylor_shift(taylor_shift(e, "x", (1, "z")), "x", (1, "y"))
        w = {"x": (-6, 6), "y": (0, 4), "z": (0, 4)}
        assert same_on_window(ab_c, a_bc, w)


def test_rewrites_preserve_window_semantics_randomized():
    rng = random.Random(99)
    for _ in range(10):
        n = rng.choice([-3, -2, -1, 1, 2])
        c = rng.randint(-3, 3) or 1
        t = make_term(c, (("z", rng.randint(-2, 2)),), None,
                      [((1, "x"), ((-1, "y"),), n)])
        e = DeltaExpr([t], XYZ)
        w = {"x": (-5, 5), "y": (0, 4), "z": (-3, 3)}
        assert same_on_window(e, normalize(e), w)
        shifted = taylor_shift(e, "y", (1, "z"))
        # shifting y inside a tail only reindexes z; check the z=const slices sum
        assert same_on_window(shifted, normalize(shifted), w)
