import random
from fractions import Fraction

import pytest
from conftest import expand_signed_power_reference

from vertexcalc import structures
from vertexcalc.corpus import full_corpus, full_module_corpus
from vertexcalc.deltacalc import (
    Atom,
    Delta,
    DeltaExpr,
    Term,
    _expand_signed_power,
    coeff_of,
    delta_substitute,
    delta_to_atoms,
    expand_deltas,
    identity_lhs,
    make_term,
    multiply,
    normalize,
    prove_identity,
    taylor_shift,
    window_coeffs,
)
from vertexcalc.errors import (
    SubstitutionRefusedError,
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
    assert coeff_of(e, {"x": -1, "y": 0}) == oracle[(-1, 0)] == 1
    # frozen from the oracle (not 3): binom(-1,2) * (-1)^2 = 1
    assert coeff_of(e, {"x": -3, "y": 2}) == oracle[(-3, 2)] == 1
    assert coeff_of(e, {"x": 2, "y": 0}) == 0


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
    for n in (-2, 0, 5):
        assert coeff_of(e, {"x": n, "y": -n - 1}) == 1
        assert coeff_of(e, {"x": n, "y": 0}) == 0 if n != -1 else True


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
        assert same_on_window(out, e if False else out, {})  # smoke
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
    out = taylor_shift(e.extend_universe(["w"]), "x", (1, "w"))
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
        m = {"x": rng.randint(-3, 3), "y": rng.randint(-3, 3), "z": rng.randint(-3, 3)}
        assert coeff_of(a + b, m) == coeff_of(a, m) + coeff_of(b, m)


def test_window_oracle_refuses_divergent_term():
    t = make_term(1, raw_atoms=[
        ((1, "x"), ((-1, "y"),), -1),
        ((1, "y"), ((-1, "x"),), -1),
    ])
    with pytest.raises(SummabilityError):
        coeff_of(DeltaExpr([t], ("x", "y")), {"x": -1, "y": -1})


def test_multiply_certifies_and_refuses():
    xy = expr([make_term(1, raw_atoms=[((1, "x"), ((-1, "y"),), -1)])], ("x", "y"))
    yx = expr([make_term(1, raw_atoms=[((1, "y"), ((-1, "x"),), -1)])], ("x", "y"))
    with pytest.raises(SummabilityError):
        multiply(xy, yx)
    d = expr([Term(1, (), Delta(((1, "x"),), "y"), ())], ("x", "y"))
    with pytest.raises(SummabilityError):
        multiply(d, d)
    # monomial times reciprocal is fine and window-consistent
    m = expr([Term(3, (("x", 2),))], ("x", "y"))
    prod = multiply(m, xy)
    w = {"x": (-2, 3), "y": (0, 3)}
    got = window_coeffs(prod, w)
    direct = {mono: 3 * c for mono, c in window_coeffs(xy, {"x": (-4, 1), "y": (0, 3)}).items()}
    shifted = {}
    for mono, c in direct.items():
        d2 = dict(mono)
        d2["x"] = d2.get("x", 0) + 2
        key = tuple(sorted((v, e) for v, e in d2.items() if e))
        shifted[key] = c
    assert got == {k: v for k, v in shifted.items() if all(
        w[v][0] <= dict(k).get(v, 0) <= w[v][1] for v in w)}


def _product_table():
    """(first factor, second factor, the refusal's message or None), one
    case per refusal rule of the window oracle and of ``multiply``."""
    xyzw = ("x", "y", "z", "w")

    def one(*term):
        return DeltaExpr([make_term(*term)], xyzw)

    return {
        "atom tail with no upper bound": (
            one(1, (), None, [((1, "x"), ((-1, "y"),), -1)]),
            one(1, (), None, [((1, "y"), ((-1, "x"),), -1)]),
            "tail variable 'y' has no upper exponent bound"),
        "delta denominator with no finite window": (
            one(1, (), Delta(((1, "y"),), "x"), ()),
            one(1, (), None, [((1, "x"), ((1, "z"),), -1)]),
            "delta denominator 'x' has no finite window"),
        "delta tail with no upper bound": (
            one(1, (), Delta(((1, "y"), (1, "z")), "x"), ()),
            one(1, (), None, [((1, "z"), ((1, "w"),), -1)]),
            "tail variable 'z' has no upper exponent bound"),
        "two deltas": (
            one(1, (), Delta(((1, "y"),), "x"), ()),
            one(1, (), Delta(((1, "z"),), "w"), ()),
            "product of two delta factors is never summable"),
        "term with no factors": (
            one(2, (("x", -1), ("y", 3))), one(3, (("x", 2),)), None),
        "monomial times an atom": (
            one(3, (("x", 2),)), one(1, (), None, [((1, "x"), ((-1, "y"),), -1)]),
            None),
        "delta times a power in its own direction": (
            one(1, (), Delta(((1, "y"), (-1, "z")), "x"), ()),
            one(1, (), None, [((1, "y"), ((-1, "z"),), -2)]), None),
        "two atoms sharing no variable": (
            one(1, (), None, [((1, "x"), ((-1, "y"),), -1)]),
            one(1, (), None, [((1, "z"), ((1, "w"),), -2)]), None),
    }


@pytest.mark.parametrize("case", sorted(_product_table()))
def test_multiply_refuses_by_each_summability_rule(case):
    e1, e2, refusal = _product_table()[case]
    if refusal is None:
        prod = multiply(e1, e2)
        assert len(prod.terms) == 1
        # the certified product has finite coefficients on any window
        window_coeffs(prod, {v: (-2, 2) for v in ("x", "y", "z", "w")})
        return
    with pytest.raises(SummabilityError) as err:
        multiply(e1, e2)
    if case == "two deltas":
        assert str(err.value) == refusal
    else:
        assert str(err.value).startswith("cannot certify the product term")
        # the oracle's own refusal names the rule that refused the term
        assert refusal in str(err.value.__cause__)


def test_delta_times_same_direction_power_is_summable():
    t = make_term(1, (), Delta(((1, "x1"), (-1, "x2")), "x0"),
                  [((1, "x1"), ((-1, "x2"),), -2)])
    e = DeltaExpr([t], ("x0", "x1", "x2"))
    val = coeff_of(e, {"x0": 1, "x1": -3, "x2": 1})
    assert isinstance(val, int)


# ---------------------------------------------------------------------------
# delta substitution

def test_delta_substitute_replaces_matching_atoms():
    d = Delta(((1, "x1"), (-1, "x2")), "x0")
    for n in (-2, -1, 1, 3):
        t = make_term(1, (), d, [((1, "x1"), ((-1, "x2"),), n)])
        out = delta_substitute(DeltaExpr([t], ("x0", "x1", "x2")))
        assert len(out.terms) == 1
        got = out.terms[0]
        assert got.mono == (("x0", n),)
        assert not got.atoms
        assert got.delta == d


def test_delta_substitute_constant_factor_fixed_point():
    d = Delta(((1, "y"), (1, "z")), "x")
    e = DeltaExpr([Term(1, (), d, ())], ("x", "y", "z"))
    out = delta_substitute(e)
    assert out.terms[0].shape_key() == e.terms[0].shape_key()


def test_delta_substitute_window_invariance_randomized():
    rng = random.Random(20240817)
    d = Delta(((1, "x1"), (-1, "x2")), "x0")
    for _ in range(10):
        terms = []
        for _ in range(rng.randint(1, 3)):
            n = rng.choice([-2, -1, 1, 2])
            b = rng.randint(-1, 1)
            c = rng.randint(-2, 3)
            terms.append(make_term(
                c, ((("x1", b),) if b else ()), d,
                [((1, "x1"), ((-1, "x2"),), n)]))
        e = DeltaExpr(terms, ("x0", "x1", "x2"))
        out = delta_substitute(e)
        w = {v: (-4, 4) for v in ("x0", "x1", "x2")}
        assert same_on_window(e, out, w)


def test_delta_substitute_negative_head_numerator_sign():
    d = Delta(((-1, "x2"), (1, "x1")), "x0")
    # the canonical atom for (-x2+x1)^n carries (-1)^n; substitution restores it
    t = make_term(1, (), d, [((-1, "x2"), ((1, "x1"),), -1)])
    e = DeltaExpr([t], ("x0", "x1", "x2"))
    out = delta_substitute(e)
    w = {v: (-4, 4) for v in ("x0", "x1", "x2")}
    assert same_on_window(e, out, w)


def test_delta_substitute_refuses_non_matching_shared_atom():
    d = Delta(((1, "x1"), (-1, "x2")), "x0")
    t = make_term(1, (), d, [((1, "x2"), ((-1, "x1"),), -1)])
    with pytest.raises(SubstitutionRefusedError):
        delta_substitute(DeltaExpr([t], ("x0", "x1", "x2")))


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
            alone = DeltaExpr([make_term(t.coeff.get(lab), t.mono, t.delta, t.raw_atoms())
                               for t in terms], ("x0", "x1", "x2"))
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
    data = trace.to_json()
    assert data["identity"] == "two-term"
    assert data["residual-terms"] == 0
    assert all(set(s) == {"rule", "before-hash", "after-hash"} for s in data["steps"])


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


def _jacobi_route_one_calls(monkeypatch):
    """(expression, window) of route 1 of the Jacobi check on every triple of
    the structure and module corpora, recorded instead of evaluated."""
    calls = []
    with monkeypatch.context() as mp:
        mp.setattr(structures, "window_coeffs",
                   lambda e, window, memo=None: calls.append((e, window)) or {})
        for A in full_corpus() + full_module_corpus():
            N = structures.default_window(A)
            for u in A.over.basis:
                for v in A.over.basis:
                    for w in A.wbasis:
                        inst = A.triple(u, v, w)
                        structures._jacobi_symbolic_zero(
                            inst.f_at("x1", "x2"), inst.g_at("x2", "x1"),
                            inst.h_at("x2", "x0"), N)
    return calls


def test_shared_memo_gives_the_fresh_coefficients(monkeypatch):
    calls = _jacobi_route_one_calls(monkeypatch)
    assert len(calls) > 1000
    memo = {}
    # the smaller window first, so that a memo keyed without the needed
    # window would hand the larger window a truncated expansion
    for shrink in (1, 0):
        for e, window in calls:
            w = {v: (lo + shrink, hi - shrink) for v, (lo, hi) in window.items()}
            assert window_coeffs(e, w, memo) == window_coeffs(e, w)
    assert memo
