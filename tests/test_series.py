import random
from fractions import Fraction

import pytest
from conftest import is_zero, is_zero_on

from vertexcalc.deltacalc import Delta, DeltaExpr, Term, make_term, window_coeffs
from vertexcalc.errors import SummabilityError, WindowUnderflowError
from vertexcalc.scalars import Vec, binom
from vertexcalc.series import (
    INF,
    WindowedSeries,
    _known_contains,
    _made,
    add_power,
    apply_delta,
    binomial_power,
    multiply,
    taylor_substitute,
)


def poly(variables, entries):
    return WindowedSeries(variables, entries)


def rand_poly(rng, variables, max_deg=3, terms=4):
    entries = {}
    for _ in range(terms):
        key = tuple(rng.randint(0, max_deg) for _ in variables)
        entries[key] = entries.get(key, 0) + rng.randint(-4, 4)
    return poly(variables, entries)


# ---------------------------------------------------------------------------
# multiply

def _delta(lo, hi):
    """The formal delta(x) = sum_n x^n, known on [lo, hi] and unbounded in
    both directions."""
    return WindowedSeries(("x",), {(n,): 1 for n in range(lo, hi + 1)},
                          window={"x": (lo, hi)})


def test_delta_times_one_minus_x_telescopes():
    d = _delta(-7, 7)
    p = poly(("x",), {(0,): 1, (1,): -1})
    prod = multiply(d, p)
    assert is_zero_on(prod, {"x": (-5, 5)})


def test_geometric_series_times_one_minus_x():
    geo = WindowedSeries(
        ("x",), {(n,): 1 for n in range(0, 8)},
        window={"x": (None, 7)})
    p = poly(("x",), {(0,): 1, (1,): -1})
    prod = multiply(geo, p)
    one = poly(("x",), {(0,): 1})
    assert is_zero_on(prod - one, {"x": (-5, 5)})


def test_delta_times_delta_refused():
    d = _delta(-5, 5)
    with pytest.raises(WindowUnderflowError):
        multiply(d, d)


def test_multiply_associative_when_certified():
    rng = random.Random(3)
    for _ in range(10):
        a = rand_poly(rng, ("x", "y"))
        b = rand_poly(rng, ("x", "y"))
        c = rand_poly(rng, ("x", "y"))
        left = multiply(multiply(a, b), c)
        right = multiply(a, multiply(b, c))
        assert is_zero(left - right)


def test_multiply_associative_with_truncated_factor():
    geo = WindowedSeries(
        ("x",), {(n,): 1 for n in range(0, 9)},
        window={"x": (None, 8)})
    p = poly(("x",), {(0,): 1, (1,): -1})
    q = poly(("x",), {(0,): 2, (2,): 3})
    left = multiply(multiply(geo, p), q)
    right = multiply(geo, multiply(p, q))
    assert is_zero_on(left - right, {"x": (-4, 4)})


def test_multiply_window_clipping_is_safe():
    # inexact * exact: the product window shrinks by the polynomial's spread
    geo = WindowedSeries(
        ("x",), {(n,): 1 for n in range(0, 6)},
        window={"x": (None, 5)})
    p = poly(("x",), {(0,): 1, (2,): 5})
    prod = multiply(geo, p)
    assert prod.known("x") == (None, 5)
    assert prod.coeff({"x": 5}) == 6
    with pytest.raises(WindowUnderflowError):
        prod.coeff({"x": 6})


# ---------------------------------------------------------------------------
# taylor substitution

def test_substitute_square_is_finite_binomial():
    s = poly(("x",), {(2,): 1})
    out = taylor_substitute(s, "x", (1, "x"), (1, "y"))
    assert out.coeff({"x": 2}) == 1
    assert out.coeff({"x": 1, "y": 1}) == 2
    assert out.coeff({"y": 2}) == 1
    assert out.is_exact()


def test_substitute_reciprocal_truncates_on_window():
    s = poly(("x",), {(-1,): 1})
    out = taylor_substitute(s, "x", (1, "x"), (1, "y"), {"y": (0, 2)})
    assert out.coeff({"x": -1}) == 1
    assert out.coeff({"x": -2, "y": 1}) == -1
    assert out.coeff({"x": -3, "y": 2}) == 1
    with pytest.raises(WindowUnderflowError):
        out.coeff({"x": -4, "y": 3})


def test_substitute_reciprocal_matches_binom_row():
    s = poly(("x",), {(-2,): 1})
    out = taylor_substitute(s, "x", (1, "x"), (1, "y"), {"y": (0, 5)})
    for k in range(6):
        assert out.coeff({"x": -2 - k, "y": k}) == binom(-2, k)


def test_double_shift_equals_single_on_shared_window():
    s = poly(("x",), {(-1,): 1, (2,): 3})
    one = taylor_substitute(s, "x", (1, "x"), (1, "y"), {"y": (0, 3)})
    two = taylor_substitute(one, "x", (1, "x"), (1, "z"), {"z": (0, 3)})
    swapped = taylor_substitute(s, "x", (1, "x"), (1, "z"), {"z": (0, 3)})
    swapped = taylor_substitute(swapped, "x", (1, "x"), (1, "y"), {"y": (0, 3)})
    w = {"x": (-4, 2), "y": (0, 3), "z": (0, 3)}
    assert is_zero_on(two - swapped, w)


def test_substitute_into_fresh_head_variable():
    # f(x) -> f(z + y): head z fresh, expansion in y
    s = poly(("x",), {(-1,): 1})
    out = taylor_substitute(s, "x", (1, "z"), (1, "y"), {"y": (0, 3)})
    assert "x" not in out.variables
    assert out.coeff({"z": -1}) == 1
    assert out.coeff({"z": -2, "y": 1}) == -1


def test_automorphism_property_on_polynomials():
    rng = random.Random(14)
    for _ in range(8):
        p = rand_poly(rng, ("x",), max_deg=3)
        q = rand_poly(rng, ("x",), max_deg=3)
        lhs = taylor_substitute(multiply(p, q), "x", (1, "x"), (1, "y"))
        rhs = multiply(
            taylor_substitute(p, "x", (1, "x"), (1, "y")),
            taylor_substitute(q, "x", (1, "x"), (1, "y")))
        assert is_zero(lhs - rhs)


# ---------------------------------------------------------------------------
# residue / coeff

def test_residue_reads_minus_one_slice():
    s = poly(("x",), {(-1,): 3, (2,): 1})
    r = s.residue("x")
    assert r.coeffs == {(): 3}


def test_residue_of_derivative_vanishes():
    # d/dx sum_e c_e x^e = sum_e e c_e x^(e-1) has x^-1 coefficient 0 c_0
    rng = random.Random(5)
    for _ in range(10):
        entries = {(rng.randint(-4, 4),): rng.randint(-5, 5) for _ in range(5)}
        s = poly(("x",), {(e - 1,): e * c for (e,), c in entries.items()})
        assert s.residue("x").coeffs == {}


def test_coeff_outside_window_refused():
    geo = WindowedSeries(
        ("x",), {(n,): 1 for n in range(0, 4)},
        window={"x": (None, 3)})
    assert geo.coeff({"x": -2}) == 0
    with pytest.raises(WindowUnderflowError):
        geo.coeff({"x": 4})


# ---------------------------------------------------------------------------
# delta layer

def test_apply_delta_matches_symbolic_layer():
    f = poly(("x1", "x2"), {(0, 0): 1, (1, 2): -3})
    w = {"x0": (-3, 3), "x1": (-6, 6), "x2": (-3, 6)}
    got = apply_delta([(1, (1, "x1"), (-1, "x2"), "x0", f)], w)
    sym_terms = [
        Term(c, tuple(
            (v, e) for v, e in zip(("x1", "x2"), key) if e),
            Delta(((1, "x1"), (-1, "x2")), "x0"), ())
        for key, c in f.coeffs.items()
    ]
    sym = DeltaExpr(sym_terms, ("x0", "x1", "x2"))
    want = window_coeffs(sym, w)
    got_dict = {}
    for key, c in got.coeffs.items():
        mono = tuple(sorted((v, e) for v, e in zip(got.variables, key) if e))
        got_dict[mono] = c
    assert got_dict == want


def test_apply_delta_underflow_reports_needed_region():
    # a series only known above -1 in x1 cannot fill a window needing -6
    f = WindowedSeries(
        ("x1", "x2"), {(0, 0): 1},
        window={"x1": (-1, None), "x2": (None, 3)})
    with pytest.raises(WindowUnderflowError):
        apply_delta([(1, (1, "x1"), (-1, "x2"), "x0", f)],
                    {"x0": (-3, 3), "x1": (-6, 6), "x2": (-3, 6)})


def _series(variables, coeffs, **window):
    """A series known on the given window in each variable named in
    ``window``; every other variable is exact."""
    return WindowedSeries(variables, coeffs, window)


APPLY_WINDOW = {"x0": (-3, 3), "x1": (-3, 3), "x2": (-3, 3)}
EXACT_X1X2 = poly(("x1", "x2"), {(0, 0): 1})
GEO_X = _series(("x",), {(n,): 1 for n in range(8)}, x=(None, 7))


def _apply(s, **window):
    return lambda: apply_delta([(1, (1, "x1"), (-1, "x2"), "x0", s)],
                               {**APPLY_WINDOW, **window})


SERIES_REFUSALS = {
    "apply_delta: series involves the denominator": (
        _apply(poly(("x0", "x1", "x2"), {(1, 0, 0): 1})), SummabilityError,
        "series involves the delta denominator 'x0'"),
    "apply_delta: denominator window open": (
        _apply(EXACT_X1X2, x0=(None, 3)), SummabilityError,
        "delta index needs a finite window for 'x0'"),
    "apply_delta: head not complete above": (
        _apply(_series(("x1", "x2"), {(0, 0): 1}, x1=(-3, 5))),
        WindowUnderflowError, "series must be known-complete above in 'x1'"),
    "apply_delta: head known too high": (
        _apply(_series(("x1", "x2"), {(0, 0): 1}, x1=(-1, None)),
               x1=(-6, 6)),
        WindowUnderflowError, "series known above -1 in 'x1', but the delta window needs -8"),
    "apply_delta: tail window open above": (
        _apply(EXACT_X1X2, x2=(-3, None)), SummabilityError,
        "numerator tail 'x2' needs a bounded window"),
    "apply_delta: tail known too low": (
        _apply(_series(("x1", "x2"), {(0, 0): 1}, x2=(None, 3)),
               x2=(-3, 6)),
        WindowUnderflowError, "series known below 3 in 'x2', but the window needs 6"),
    "apply_delta: bystander not covered": (
        _apply(_series(("x1", "x2", "y"), {(0, 0, 0): 1}, y=(0, 2)),
               y=(-1, 1)),
        WindowUnderflowError, "series knowledge in 'y' does not cover the requested window"),
    "taylor_substitute: tail is the target": (
        lambda: taylor_substitute(poly(("x",), {(1,): 1}), "x", (1, "x"), (1, "x")),
        ValueError, "tail variable must differ from the head and the target"),
    "taylor_substitute: target not complete above": (
        lambda: taylor_substitute(
            _series(("x",), {(0,): 1}, x=(-2, 4)),
            "x", (1, "x"), (1, "y")),
        WindowUnderflowError, "substitution target 'x' must be known-complete above"),
    "taylor_substitute: negative powers, open tail window": (
        lambda: taylor_substitute(poly(("x",), {(-1,): 1}), "x", (1, "x"), (1, "y")),
        WindowUnderflowError, "negative powers of 'x': need a finite upper window for 'y'"),
    "taylor_substitute: live inexact head": (
        lambda: taylor_substitute(
            _series(("x", "z"), {(1, 1): 1}, z=(0, None)),
            "x", (1, "z"), (1, "y")),
        WindowUnderflowError, "substitution head 'z' already live and inexact"),
    "multiply: factors truncated on opposite sides": (
        lambda: multiply(GEO_X, GEO_X.flip_sign("x")), WindowUnderflowError,
        "product knows no complete window in 'x': both factors inexact"),
    "multiply: both factors inexact": (
        lambda: multiply(GEO_X, GEO_X), WindowUnderflowError,
        "product knows no complete window in 'x': both factors inexact"),
}


@pytest.mark.parametrize("case", sorted(SERIES_REFUSALS))
def test_series_layer_refusals(case):
    # one case per refusal of apply_delta, taylor_substitute and multiply:
    # the series side's twin of the window oracle's summability table
    call, error, message = SERIES_REFUSALS[case]
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value).startswith(message)


def test_series_layer_agrees_with_atom_expansion():
    # (x - y)^-1 built by substitution matches the symbolic atom on a window
    s = poly(("x",), {(-1,): 1})
    series_side = taylor_substitute(s, "x", (1, "x"), (-1, "y"), {"y": (0, 4)})
    from vertexcalc.deltacalc import make_term
    atom_side = DeltaExpr(
        [make_term(1, raw_atoms=[((1, "x"), ((-1, "y"),), -1)])], ("x", "y"))
    w = {"x": (-5, -1), "y": (0, 4)}
    want = window_coeffs(atom_side, w)
    got = {}
    for key, c in series_side.coeffs.items():
        mono = tuple(sorted(
            (v, e) for v, e in zip(series_side.variables, key) if e))
        if all(w[v][0] <= dict(mono).get(v, 0) <= w[v][1] for v in w):
            got[mono] = c
    assert got == want


def test_binomial_power_polynomial():
    p = binomial_power(("x", "y"), (1, "x"), (-1, "y"), 2)
    assert p.coeff({"x": 2}) == 1
    assert p.coeff({"x": 1, "y": 1}) == -2
    assert p.coeff({"y": 2}) == 1


@pytest.mark.parametrize("hs, ts", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_add_power_matches_the_atom_oracle(hs, ts):
    # (hs h + ts t)^n expanded by the kernel against the symbolic layer's own
    # expansion of the same atom, for every n in [-6, 6], tail powers kmin..8;
    # every call reads one row memo
    rows = {}
    for kmin in (0, 3):
        w = {"h": (-16, 8), "t": (kmin, 8)}
        for n in range(-6, 7):
            got = {}
            add_power(got, rows, (0, 0), 1, n, (hs, 0), (ts, 1), 8, kmin)
            got = {tuple((v, e) for v, e in zip(("h", "t"), key) if e): c
                   for key, c in got.items() if c}
            atom = DeltaExpr(
                [make_term(1, raw_atoms=[((hs, "h"), ((ts, "t"),), n)])], ("h", "t"))
            assert got == window_coeffs(atom, w), (kmin, n)


def _add_power_reference(coeffs, base, c, n, head, tail, kmax, kmin=0):
    """The kernel written term by term: one binom per tail power and a fresh
    copy of ``base`` per key."""
    hs, ih = head
    ts, it = tail
    if n >= 0:
        kmax = min(kmax, n)
    for k in range(kmin, kmax + 1):
        bc = binom(n, k)
        if (n - k) % 2 and hs < 0:
            bc = -bc
        if k % 2 and ts < 0:
            bc = -bc
        key = list(base)
        key[ih] += n - k
        key[it] += k
        key = tuple(key)
        val = c * bc
        prev = coeffs.get(key)
        coeffs[key] = val if prev is None else prev + val


KERNEL_COEFFS = (1, -3, Fraction(-2, 7), Vec({"e0": 2, "e1": Fraction(1, 3)}))


def _kernel_pair(prefill, rows, *args):
    """(add_power's dict, the reference's dict), both started from prefill,
    add_power reading the row memo ``rows``.  add_power sums a Vec
    coefficient label by label, so its dict starts from the label dicts of
    prefill and its Vecs are made after it returns."""
    vec = isinstance(args[1], Vec)
    got = {k: dict(c.entries) for k, c in prefill.items()} if vec else dict(prefill)
    want = dict(prefill)
    add_power(got, rows, *args)
    _add_power_reference(want, *args)
    return list((_made(got) if vec else got).items()), list(want.items())


@pytest.mark.parametrize("hs, ts", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_add_power_equals_the_term_by_term_reference(hs, ts):
    # same keys, values and insertion order, for fresh and filled dicts and
    # for fresh and shared row memos: one memo serves every call below, its
    # rows read short and then longer, and longer and then short
    shared = {}
    for c in KERNEL_COEFFS:
        zero = Vec() if isinstance(c, Vec) else 0
        for n in range(-12, 13):
            for base in ((0, 0, 0), (2, -3, 5)):
                for kmin in (0, 3):
                    for kmax in (2, 10, -1, 0, 6, 1, 9, 3, 4, 8, 5, 7):
                        args = (base, c, n, (hs, 0), (ts, 2), kmax, kmin)
                        got, want = _kernel_pair({}, {}, *args)
                        assert got == want, (c, n, base, kmin, kmax)
                        got, want = _kernel_pair({}, shared, *args)
                        assert got == want, (c, n, base, kmin, kmax)
                        # accumulate: every other key cancels to 0 exactly,
                        # one key is not touched, one is already 0
                        full = {}
                        _add_power_reference(full, *args)
                        cancelled = list(full)[::2]
                        prefill = {(9, 9, 9): c, (8, 8, 8): zero}
                        prefill.update((key, -full[key]) for key in cancelled)
                        got, want = _kernel_pair(prefill, shared, *args)
                        assert got == want, (c, n, base, kmin, kmax)
                        assert not any(dict(got)[key] for key in cancelled)
                # head and tail at one position: only the head term
                got, want = _kernel_pair({}, shared, base, c, n, (hs, 1), (ts, 1), 0)
                assert got == want and len(got) == 1
    # the memo holds the signed rows hs^(n-k) ts^k binom(n, k), nothing else
    assert set(shared) == {(n, hs, ts) for n in range(-12, 13)}
    for (n, _, _), row in shared.items():
        assert row == [hs ** ((n - k) % 2) * ts ** (k % 2) * binom(n, k)
                       for k in range(len(row))], n


def test_add_power_with_an_empty_tail_range_leaves_the_dict_untouched():
    prefill = {(1, 0): 5, (0, 1): Fraction(1, 2)}
    for n, kmin, kmax in ((-3, 3, 2), (4, 0, -1), (2, 3, 10), (0, 1, 1)):
        coeffs, rows = dict(prefill), {}
        add_power(coeffs, rows, (0, 0), 7, n, (1, 0), (-1, 1), kmax, kmin)
        assert list(coeffs.items()) == list(prefill.items()) and rows == {}


def _product_reference(a, b):
    """The product's coefficients by a plain double loop."""
    out = {}
    for k1, c1 in a.coeffs.items():
        for k2, c2 in b.coeffs.items():
            key = tuple(x + y for x, y in zip(k1, k2))
            c = c1 * c2
            out[key] = out[key] + c if key in out else c
    return [(k, c) for k, c in out.items() if c]


def test_multiply_equals_a_double_loop_on_random_sparse_series():
    rng = random.Random(1307)
    names = ("e0", "e1", "e2")

    def coefficient(vector):
        if vector:
            return Vec({e: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                        for e in rng.sample(names, rng.randint(1, 2))})
        return rng.choice((rng.randint(-4, 4), Fraction(rng.randint(-4, 4), 3)))

    def sparse(variables, vector):
        return poly(variables, {
            tuple(rng.randint(-3, 3) for _ in variables): coefficient(vector)
            for _ in range(rng.randint(1, 9))})

    for trial in range(60):
        variables = ("x", "y", "z")[:rng.randint(1, 3)]
        vector = trial % 3  # 0: both scalar, 1: left Vec, 2: right Vec
        a = sparse(variables, vector == 1)
        b = sparse(variables, vector == 2)
        got = multiply(a, b)
        assert list(got.coeffs.items()) == _product_reference(a, b), trial


def test_multiply_scalar_path_equals_the_double_loop_with_the_same_types():
    # scalar factors are summed as plain numbers: keys, values, insertion
    # order and each value's type (an integral Fraction stays a Fraction)
    rng = random.Random(2103)
    kinds = {"int": lambda: rng.randint(-4, 4),
             "Fraction": lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3))}
    kinds["mixed"] = lambda: rng.choice((kinds["int"](), kinds["Fraction"]()))
    pairs = [(k, k) for k in kinds] + [("int", "Fraction"), ("Fraction", "int")]
    for left, right in pairs:
        for trial in range(20):
            variables = ("x", "y", "z")[:rng.randint(1, 3)]
            a, b = (poly(variables, {
                tuple(rng.randint(-3, 3) for _ in variables): kinds[kind]()
                for _ in range(rng.randint(1, 9))}) for kind in (left, right))
            got = list(multiply(a, b).coeffs.items())
            want = _product_reference(a, b)
            assert got == want, (left, right, trial)
            assert [type(c) for _, c in got] == [type(c) for _, c in want]


# check_A's three deltas: (numerator head, numerator tail, denominator)
CHECK_A_DELTAS = [((1, "x1"), (-1, "x2"), "x0"),
                  ((-1, "x2"), (1, "x1"), "x0"),
                  ((1, "x2"), (1, "x0"), "x1")]


def _oracle_of_apply_delta(num_head, num_tail, denom, s, w):
    """window_coeffs of denom^-1 delta(num/denom) * s, term by term."""
    delta = Delta((num_head, num_tail), denom)
    terms = [Term(c, tuple((v, e) for v, e in zip(s.variables, key) if e), delta, ())
             for key, c in s.coeffs.items()]
    return window_coeffs(DeltaExpr(terms, ("x0", "x1", "x2", "y")), w)


def _as_monomials(series):
    return {tuple(sorted((v, e) for v, e in zip(series.variables, key) if e)): c
            for key, c in series.coeffs.items()}


def _inside(series, window):
    return all((lo is None or lo <= e) and (hi is None or e <= hi)
               for key in series.coeffs
               for e, (lo, hi) in zip(key, (window.get(v, (0, 0))
                                            for v in series.variables)))


@pytest.mark.parametrize("num_head, num_tail, denom", CHECK_A_DELTAS)
def test_clipped_delta_convolution_matches_the_oracle(num_head, num_tail, denom):
    # exact series whose monomials reach beyond every window edge, tail
    # exponents below the tail's lower bound and exponents of a bystander
    # variable y outside its window included, on closed and on half-open
    # windows (y absent is pinned to 0); apply_delta writes only inside
    rng = random.Random(10)
    hv, tv = num_head[1], num_tail[1]
    windows = [{"x0": (-3, 3), "x1": (-3, 3), "x2": (-3, 3), "y": (-1, 1)},
               {"x0": (-2, 4), "x1": (-4, 2), "x2": (-1, 5), "y": (0, 2)},
               {denom: (-2, 3), hv: (None, None), tv: (None, 4)}]
    for trial in range(6):
        entries = {}
        for _ in range(12):
            key = (0, rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-2, 2))
            entries[key] = rng.choice([1, -2, 3, Fraction(1, 2), Fraction(-5, 3)])
        s = poly(("x0", "x1", "x2", "y"), entries).rename(
            {"x0": denom, "x1": hv, "x2": tv}).align(("x0", "x1", "x2", "y"))
        for w in windows:
            got = apply_delta([(1, num_head, num_tail, denom, s)], w)
            assert _inside(got, w), (trial, w)
            assert _as_monomials(got) == _oracle_of_apply_delta(
                num_head, num_tail, denom, s, w), (trial, w)


@pytest.mark.parametrize("num_head, num_tail, denom", CHECK_A_DELTAS)
def test_clipped_delta_convolution_of_a_truncated_series(num_head, num_tail, denom):
    # a truncated series: complete above -12 in the head and below 9 in the
    # tail, with Vec coefficients, stored terms reaching past the window
    hv, tv = num_head[1], num_tail[1]
    entries = {(0, h, t): Vec({"a": h - t, "b": Fraction(t, 3)})
               for h in range(-12, 10, 3) for t in range(-6, 9, 2)}
    s = WindowedSeries(
        ("x0", "x1", "x2"), entries,
        window={"x1": (-12, None), "x2": (None, 8)},
    ).rename({"x0": denom, "x1": hv, "x2": tv}).align(("x0", "x1", "x2"))
    assert not s.is_exact()
    w = {"x0": (-3, 3), "x1": (-3, 3), "x2": (-3, 3)}
    got = apply_delta([(1, num_head, num_tail, denom, s)], w)
    assert got.coeffs and _inside(got, w)
    assert _as_monomials(got) == _oracle_of_apply_delta(
        num_head, num_tail, denom, s, w)


def _check_a_series(s, num_head, num_tail, denom):
    """``s`` with its x0, x1, x2 renamed to the delta's denominator, head and
    tail, over (x0, x1, x2, ...) again."""
    return s.rename({"x0": denom, "x1": num_head[1], "x2": num_tail[1]}).align(
        s.variables)


@pytest.mark.parametrize("signs", [(1, -1, -1), (-1, 1, 1), (1, 1, -1)])
def test_multi_term_apply_delta_is_the_sum_of_its_terms(signs):
    # the random scalar series and the truncated Vec series of the two tests
    # above, one per check_A delta: one multi-term call writes what the
    # single-term calls sum to, and a sign -1 negates a term
    rng = random.Random(10)
    truncated = WindowedSeries(
        ("x0", "x1", "x2"),
        {(0, h, t): Vec({"a": h - t, "b": Fraction(t, 3)})
         for h in range(-12, 10, 3) for t in range(-6, 9, 2)},
        window={"x1": (-12, None), "x2": (None, 8)})
    cases = [([truncated] * 3, {"x0": (-3, 3), "x1": (-3, 3), "x2": (-3, 3)})]
    for trial in range(4):
        series_ = []
        for _ in CHECK_A_DELTAS:
            entries = {}
            for _ in range(12):
                key = (0, rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-2, 2))
                entries[key] = rng.choice([1, -2, 3, Fraction(1, 2), Fraction(-5, 3)])
            series_.append(poly(("x0", "x1", "x2", "y"), entries))
        cases += [(series_, {"x0": (-3, 3), "x1": (-3, 3), "x2": (-3, 3), "y": (-1, 1)}),
                  (series_, {"x0": (-2, 4), "x1": (-4, 2), "x2": (-1, 5), "y": (0, 2)})]
    for series_, w in cases:
        terms = [(sign, *delta, _check_a_series(s, *delta))
                 for sign, delta, s in zip(signs, CHECK_A_DELTAS, series_)]
        got = apply_delta(terms, w)
        singles = [apply_delta([term], w) for term in terms]
        for single, (sign, *rest) in zip(singles, terms):
            unsigned = apply_delta([(1, *rest)], w)
            assert single.coeffs == (unsigned if sign > 0 else -unsigned).coeffs
        want = {}
        for single in singles:
            assert (single.variables, single.window) == (got.variables, got.window)
            for key, c in single.coeffs.items():
                want[key] = want.get(key, 0) + c
        assert got.coeffs
        assert got.coeffs == {k: c for k, c in want.items() if c}


STACK_VALUES = (-2, -1, 1, 2, Fraction(1, 2), Fraction(-3, 2))


def _labelled(rng, variables, labels, exps):
    """{label: random scalar series on ``variables``, exponents from ``exps``}."""
    out = {}
    for lab in labels:
        entries = {}
        for _ in range(rng.randint(1, 6)):
            key = tuple(rng.choice(exps) for _ in variables)
            entries[key] = entries.get(key, 0) + rng.choice(STACK_VALUES)
        out[lab] = poly(variables, entries)
    return out


def _stacked(labelled):
    """The stack of {label: series}: at each key, the Vec over labels."""
    stacked = {}
    for lab, series_ in labelled.items():
        for key, c in series_.coeffs.items():
            stacked.setdefault(key, {})[lab] = c
    variables = next(iter(labelled.values())).variables
    return poly(variables, {key: Vec(e) for key, e in stacked.items()})


def _alone(labelled, lab):
    """Label ``lab``'s series of {label: series}, zero where it has none."""
    return labelled.get(lab) or poly(next(iter(labelled.values())).variables, {})


def _labelwise(got, runs):
    """Assert that the stacked result ``got`` has, at every key, the Vec of
    each label's own scalar run in ``runs``, with no zero entry and each
    integral entry an int; the number of non-integral entries."""
    want = {}
    for lab, run in runs.items():
        for key, c in run.coeffs.items():
            want.setdefault(key, {})[lab] = c
    assert got.coeffs == {key: Vec(e) for key, e in want.items()}
    entries = [c for vec in got.coeffs.values() for c in vec.entries.values()]
    assert all(entries)
    assert all((type(c) is int) == (Fraction(c).denominator == 1) for c in entries)
    return sum(type(c) is Fraction for c in entries)


def test_stacked_delta_and_substitution_sum_each_label_as_alone():
    """apply_delta and taylor_substitute on a stack over labels a, b, c give,
    at every key, the Vec of each label's own scalar run: labels never mix,
    integral entries are ints, and zero entries are dropped.  Label a has
    one series in two delta terms of opposite sign, so it cancels."""
    rng = random.Random(1019)
    labels = ("a", "b", "c")
    window = {v: (-3, 3) for v in ("x0", "x1", "x2")}

    def deltas(f, g, h):
        return [(1, (1, "x1"), (-1, "x2"), "x0", f),
                (-1, (1, "x1"), (-1, "x2"), "x0", g),
                (-1, (1, "x2"), (1, "x0"), "x1", h)]

    def substituted(s, hi):
        return taylor_substitute(s, "s1", (1, "x0"), (1, "s2"),
                                 None if hi is None else {"s2": (INF, hi)})

    fractions = kept = 0
    for _ in range(30):
        f = _labelled(rng, ("x1", "x2"), labels, range(-2, 3))
        g = dict(_labelled(rng, ("x1", "x2"), ("b", "c"), range(-2, 3)), a=f["a"])
        h = _labelled(rng, ("x2", "x0"), ("b", "c"), range(-2, 3))
        got = apply_delta(deltas(*map(_stacked, (f, g, h))), window)
        fractions += _labelwise(got, {lab: apply_delta(deltas(
            *(_alone(x, lab) for x in (f, g, h))), window) for lab in labels})
        assert not any("a" in c.entries for c in got.coeffs.values())
        kept += len(got.coeffs)
        # every label with negative powers of s1 (a truncated expansion), or
        # none with any (exact), as within one exactness class of a checker
        for exps, hi in ((range(-3, 0), 3), (range(0, 4), None)):
            s = _labelled(rng, ("s1", "s2"), labels, exps)
            fractions += _labelwise(substituted(_stacked(s), hi),
                                    {lab: substituted(s[lab], hi) for lab in labels})
    assert fractions and kept > 100


def test_truncated_shape_is_inexact_and_known_on_its_window():
    geo = WindowedSeries(
        ("x",), {(n,): 1 for n in range(0, 4)},
        window={"x": (None, 3)})
    assert not geo.exact("x") and not geo.is_exact()
    assert geo.known("x") == (None, 3)


def test_monomial_series_is_exact_on_its_support():
    p = poly(("x", "y"), {(-2, 1): 3, (4, 0): -1})
    assert p.exact("x") and p.exact("y") and p.is_exact()
    assert p.window == {}
    assert p.known("x") == p.known("y") == (None, None)


def test_each_operation_keeps_the_exactness_rule():
    # seeded operands over (x, y), each inexact in a random set of variables:
    # a sum, a difference or a product is exact in v exactly when both
    # operands are (a product with neither exact in v is refused), flip_sign,
    # align and residue keep each variable's exactness, and a series holds a
    # window for its inexact variables alone, so an exact one holds none
    rng = random.Random(4019)
    variables = ("x", "y")
    windows = ((-3, None), (None, 4), (-2, 5))
    products = refused = 0

    def series(inexact):
        window = {v: rng.choice(windows) for v in inexact}
        entries = {}
        for _ in range(rng.randint(0, 6)):
            key = (rng.randint(-3, 4), rng.randint(-3, 4))
            if all(_known_contains(window.get(v, (INF, INF)), e, e)
                   for v, e in zip(variables, key)):
                entries[key] = rng.choice((1, -2, Fraction(1, 3)))
        return WindowedSeries(variables, entries, window)

    def assert_inexact_in(s, inexact):
        assert set(s.window) == set(inexact)
        assert all(s.exact(v) == (v not in inexact) for v in s.variables)
        assert s.is_exact() == (not inexact) == (s.window == {})
        assert all(s.known(v) == (INF, INF) for v in s.variables if v not in inexact)

    subsets = [(), ("x",), ("y",), ("x", "y")]
    for trial in range(200):
        ia, ib = rng.choice(subsets), rng.choice(subsets)
        a, b = series(ia), series(ib)
        union = set(ia) | set(ib)
        assert_inexact_in(a + b, union)
        assert_inexact_in(a - b, union)
        if set(ia) & set(ib):
            with pytest.raises(WindowUnderflowError, match="both factors inexact"):
                multiply(a, b)
            refused += 1
        else:
            assert_inexact_in(multiply(a, b), union)
            products += 1
        for v in variables:
            assert_inexact_in(a.flip_sign(v), ia)
        assert_inexact_in(a.align(("y", "x")), ia)
        assert_inexact_in(a.align(("x", "y", "z")), ia)
        assert_inexact_in(a.residue("x"), set(ia) - {"x"})
    assert products > 50 and refused > 20


def test_rename_keeps_exactness_and_knowledge():
    geo = WindowedSeries(
        ("x", "y"), {(n, 1): 1 for n in range(0, 4)},
        window={"x": (None, 3)})
    out = geo.rename({"x": "z"})
    assert out.variables == ("z", "y")
    assert not out.is_exact() and out.exact("y")
    assert out.known("z") == (None, 3) and out.known("y") == (None, None)
    assert out.coeff({"z": 2, "y": 1}) == 1
    p = poly(("x", "y"), {(-2, 1): 3})
    assert p.rename({"x": "y", "y": "x"}).is_exact()


def test_align_to_own_variables_is_the_series_itself():
    s = poly(("x", "y"), {(1, -2): 3, (0, 1): -1})
    assert s.align(s.variables) is s
    assert s.align(("y", "x")) is not s


def _random_coeff(rng, vectors):
    if vectors:
        return Vec({"a": rng.randint(-2, 2), "b": Fraction(rng.randint(-3, 3), 2)})
    return rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-5, 5), 3)])


def _assert_same_series(x, y):
    assert x.variables == y.variables
    assert x.window == y.window
    assert x.coeffs == y.coeffs and list(x.coeffs) == list(y.coeffs)
    for k, c in x.coeffs.items():
        assert type(c) is type(y.coeffs[k])
        if type(c) is Vec:
            assert all(type(e) is type(y.coeffs[k].entries[n])
                       for n, e in c.entries.items())


@pytest.mark.parametrize("vectors", [False, True])
def test_one_pass_series_subtraction_equals_adding_the_negation(vectors):
    # exact and truncated operands, shared and differing variable orders,
    # overlapping and disjoint keys
    rng = random.Random(1011)
    for trial in range(60):
        def series(variables):
            entries = {tuple(rng.randint(-2, 3) for _ in variables):
                       _random_coeff(rng, vectors) for _ in range(6)}
            if rng.random() < 0.5:
                return poly(variables, entries)
            return WindowedSeries(
                variables, entries,
                window={variables[0]: (-2, None), variables[1]: (None, 3)})
        a = series(("x", "y"))
        b = series(rng.choice([("x", "y"), ("y", "x"), ("x", "z")]))
        _assert_same_series(a - b, a + (-b))
        _assert_same_series(b - a, b + (-a))
        assert not (a - a).coeffs


def test_series_subtraction_refuses_mixed_vector_arithmetic():
    a = poly(("x",), {(0,): 2})
    b = poly(("x",), {(0,): Vec({"a": 1})})
    for x, y in ((a, b), (b, a)):
        with pytest.raises(TypeError):
            x - y


def _merge_reference(a, b, subtract):
    """``WindowedSeries._merge`` as it was before it dropped zeros only where
    it combines and skipped the knowledge pass: a full zero filter in the
    constructor, then every coefficient outside the known region dropped."""
    if a.variables != b.variables:
        allv = tuple(sorted(set(a.variables) | set(b.variables)))
        return _merge_reference(a.align(allv), b.align(allv), subtract)
    coeffs = dict(a.coeffs)
    for k, c in b.coeffs.items():
        prev = coeffs.get(k)
        if prev is not None:
            coeffs[k] = prev - c if subtract else prev + c
        else:
            coeffs[k] = -c if subtract else c
    window = {}
    for v in a.variables:
        if a.exact(v) and b.exact(v):
            continue
        ka, kb = a.known(v), b.known(v)
        lo = None if ka[0] is None and kb[0] is None else max(
            x for x in (ka[0], kb[0]) if x is not None)
        hi = None if ka[1] is None and kb[1] is None else min(
            x for x in (ka[1], kb[1]) if x is not None)
        window[v] = (lo, hi)
    out = WindowedSeries(a.variables, coeffs, window)
    known = [out.known(v) for v in out.variables]
    out.coeffs = {
        key: c for key, c in out.coeffs.items()
        if all((lo is None or lo <= e) and (hi is None or e <= hi)
               for (lo, hi), e in zip(known, key))}
    return out


@pytest.mark.parametrize("vectors", [False, True])
def test_merge_equals_the_full_pass_merge(vectors):
    # seeded exact and windowed operands over shared and differing variable
    # orders, with equal and with differing known regions, keys stored only
    # inside the known region (as every series the package builds), and
    # coefficients that cancel: coefficients, key order and windows all
    # equal those of the merge that filters and drops in full passes
    rng = random.Random(1407)
    windows = [((-2, None), (None, 3)), ((-1, None), (None, 2)), ((-3, None), (None, 3))]
    cancelled = unknown = same = 0
    for trial in range(200):
        def series(variables, like=None):
            (xlo, _), (_, yhi) = rng.choice(windows)
            entries = {(rng.randint(xlo, 3), rng.randint(-3, yhi)):
                       _random_coeff(rng, vectors) for _ in range(rng.randint(0, 8))}
            if like is not None and variables == like.variables:
                # shared keys with equal or opposite coefficients cancel
                for key, c in list(like.coeffs.items())[:rng.randint(0, 3)]:
                    if key[0] >= xlo and key[1] <= yhi:
                        entries[key] = c if rng.random() < 0.5 else -c
            if rng.random() < 0.4:
                return poly(variables, entries)
            return WindowedSeries(
                variables, entries,
                window={variables[0]: (xlo, None), variables[1]: (None, yhi)})
        a = series(("x", "y"))
        b = series(rng.choice([("x", "y"), ("x", "y"), ("y", "x"), ("x", "z")]), a)
        for x, y in ((a, b), (b, a), (a, a)):
            for subtract in (False, True):
                want = _merge_reference(x, y, subtract)
                _assert_same_series(x - y if subtract else x + y, want)
                if x.variables == y.variables:
                    keys = set(x.coeffs) | set(y.coeffs)
                    known = [want.known(v) for v in want.variables]
                    outside = {k for k in keys if not all(
                        (lo is None or lo <= e) and (hi is None or e <= hi)
                        for (lo, hi), e in zip(known, k))}
                    unknown += len(outside)
                    cancelled += len(keys - outside - set(want.coeffs))
                    same += all(x.known(v) == y.known(v) for v in x.variables)
    assert cancelled > 50 and unknown > 50 and same > 300
