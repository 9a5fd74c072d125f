import itertools
from collections import defaultdict
from fractions import Fraction
from math import factorial

import pytest

from vertexcalc import configio, structures
from vertexcalc.deltacalc import DeltaExpr, Term, mono_of, sv_neg, window_coeffs
from vertexcalc.errors import SummabilityError, WindowUnderflowError
from vertexcalc.rationalforms import JACOBI, box, pole_statement
from vertexcalc.scalars import Vec, binom, linear_map
from vertexcalc.series import WindowedSeries, multiply, zero_verdict
from vertexcalc.structures import WEAK_PAIRS, ModuleStructure, PropertyReport, VertexStructure


@pytest.fixture
def slot_product_calls(monkeypatch):
    """{(action, slot kind): [number of triples of each run]}, one entry per
    call of the slot-product loop ``structures._products``."""
    calls = defaultdict(list)

    def counted(A, kind, triples, _original=structures._products):
        calls[(A, kind)].append(len(triples))
        return _original(A, kind, triples)
    monkeypatch.setattr(structures, "_products", counted)
    return calls


# how many triples the FAIL guard of each stacked axiom reruns alone: the
# first failing one; each rerun (``MemberStacks.own``) runs the products of
# f twice, at the triple and at its swap for g, and those of h twice, at the
# triple and at its swap for hs
GUARD_RERUNS = {"jacobi": 1, "vf_skew_symmetry": 1} | dict.fromkeys(WEAK_PAIRS, 1)


def assert_one_build_per_member_and_kind(calls, members, reports):
    """Each member with triples ran the products of slot f and of slot h
    once at every one of its triples, and one triple at a time only for the
    FAIL guards of its ``reports`` ({axiom: report JSON}, one per member):
    a member that passes every stacked axiom builds no series of a triple."""
    for A, report in zip(members, reports):
        triples = len(A.over.basis) ** 2 * len(A.wbasis)
        reruns = sum(GUARD_RERUNS.get(axiom.removeprefix("m_"), 0)
                     for axiom, rec in report.items() if rec["verdict"] == "FAIL")
        alone = {"f": [1] * 2 * reruns, "h": [1] * 2 * reruns}
        for kind in "fh" if triples else "":
            assert sorted(calls[(A, kind)]) == sorted([triples] + alone[kind]), (A.name, kind)
    assert set(calls) == {(A, kind) for A in members for kind in "fh"
                          if len(A.over.basis) ** 2 * len(A.wbasis)}


def double_first_coefficient(monkeypatch, slot):
    """Make the stack writer ``structures._stacks`` double the first
    coefficient of the member stack of ``slot``, and write the others as
    they are: a faulty stacking that a triple's own series (``own``) does
    not share."""
    def perturbed(member, kind, _original=structures._stacks):
        out = _original(member, kind)
        if slot in out:
            key, vec = next(iter(out[slot].coeffs.items()))
            out[slot] = out[slot].copy_meta({**out[slot].coeffs, key: vec + vec})
        return out
    monkeypatch.setattr(structures, "_stacks", perturbed)


def _ut2_records(target):
    """Mode records of ut2, the upper-triangular 2x2 matrices with basis
    (one, p = E11, n = E12) and Y(u,x)v = (e^(xD)u).v for D = ad(n), so that
    D p = -n; ``target`` names the acted-on element's key."""
    one = [("one", -1, b, b, "1") for b in ("one", "p", "n")]
    return [{"u": u, "n": n, target: v, "coeff": {img: c}}
            for u, n, v, img, c in one + [
                ("p", -1, "one", "p", "1"), ("n", -1, "one", "n", "1"),
                ("p", -1, "p", "p", "1"), ("p", -1, "n", "n", "1"),
                ("p", -2, "one", "n", "-1")]]


@pytest.fixture
def ut2_dir(tmp_path):
    """A directory holding ut2 and its regular module (same records as
    ``wmodes``); kept out of the emitted corpus."""
    basis = ["one", "p", "n"]
    configio.dump_json({"name": "ut2", "basis": basis, "vacuum": "one",
                        "modes": _ut2_records("v"), "tags": []},
                       tmp_path / "ut2.json")
    configio.dump_json({"name": "ut2-regular", "over": "ut2", "wbasis": basis,
                        "wmodes": _ut2_records("w"), "tags": []},
                       tmp_path / "ut2-regular.module.json")
    return tmp_path


def skew_pole():
    """The vacuum-free structure on (e, k) with Y(e,x)e = e + x^-1 k, that is
    e_(-1)e = e and e_0 e = k, and every other mode 0: g = Y(e,x2)Y(e,x1)e
    has an x2-pole and no x1-pole, as every mode kills k, so it passes
    weak skew-associativity with a positive witness (Claim D)."""
    return VertexStructure("skew-pole", ("e", "k"),
                           {("e", "e"): {-1: Vec.unit("e"), 0: Vec.unit("k")}})


def one_skew():
    """The module on (w, k) over ``one`` = Q 1, 1 its vacuum and Y(1,x)1 = 1,
    with Y_W(1,x)w = w + x^-1 k and Y_W(1,x)k = 0: the module twin of
    ``skew_pole``."""
    one = VertexStructure("one", ("1",), {("1", "1"): {-1: Vec.unit("1")}}, vacuum="1")
    return ModuleStructure("one-skew", one, ("w", "k"),
                           {("1", "w"): {-1: Vec.unit("w"), 0: Vec.unit("k")}})


def chain(k):
    """chain-k: basis (1, e0, ..., e_(k-1)), vacuum 1, with 1_(-1) b = b and
    e_i _(-j-1) 1 = e_(i+j) / j! for i + j < k, every other mode 0.  So
    Y(e_i,x)1 = e^(xD) e_i for D e_i = e_(i+1), whose nilpotency index is k."""
    basis = ("1",) + tuple(f"e{i}" for i in range(k))
    table = {("1", b): {-1: Vec.unit(b)} for b in basis}
    for i in range(k):
        table[f"e{i}", "1"] = {-j - 1: Vec({f"e{i + j}": Fraction(1, factorial(j))})
                               for j in range(k - i)}
    return VertexStructure(f"chain{k}", basis, table, vacuum="1")


def _in_x(coeffs):
    """The exact series in x of {exponent: coefficient}."""
    return WindowedSeries(("x",), {(e,): c for e, c in coeffs.items()})


def _derivative(series):
    """d/dx of an exact series in x."""
    return _in_x({e - 1: c * e for (e,), c in series.coeffs.items() if e})


def _exp_xd(S, vec):
    """e^(xD) vec = sum_k x^k D^k vec / k! as an exact series in x, D
    applied until it vanishes (S's D is nilpotent within its dimension)."""
    coeffs = {}
    while vec:
        assert len(coeffs) <= len(S.basis), S.name
        coeffs[len(coeffs)] = vec * Fraction(1, factorial(len(coeffs)))
        vec = linear_map(S.dop, vec)
    return _in_x(coeffs)


def _exp_xd_series(S, series):
    """e^(xD) applied to every coefficient of an exact series in x."""
    out = _in_x({})
    for (e,), vec in series.coeffs.items():
        out = out + multiply(_in_x({e: 1}), _exp_xd(S, vec))
    return out


def d_axiom_reference(A, axiom):
    """The record of one of the four D axioms of ``A`` (``m_d_derivative`` on
    a module), computed as a series identity in x, independently of the mode
    forms that ``structures`` decides: Y(u,x)w as a series, flipped in sign,
    multiplied, differentiated and exponentiated, then judged by
    ``zero_verdict``.  The first failing pair or element, in the checkers'
    order, with its least monomial."""
    S = A.over

    def y(u, w):
        return _in_x(A.yw_modes(u, w))
    pairs = list(itertools.product(S.basis, A.wbasis))
    key, items, difference = {
        "d_derivative": ("pair", pairs, lambda uw: (
            y(S.dop.get(uw[0], Vec()), uw[1]) - _derivative(y(*uw)))),
        "d_bracket": ("pair", pairs, lambda uv: (
            _in_x({e: linear_map(S.dop, c) for (e,), c in y(*uv).coeffs.items()})
            - y(uv[0], S.dop.get(uv[1], Vec())) - _derivative(y(*uv)))),
        "skew_symmetry": ("pair", pairs, lambda uv: (
            y(*uv) - _exp_xd_series(S, y(*uv[::-1]).flip_sign("x")))),
        "strong_creation": ("element", S.basis, lambda u: (
            y(u, S.one) - _exp_xd(S, Vec.unit(u)))),
    }[axiom.removeprefix("m_")]
    for item in items:
        ok, wit = zero_verdict(difference(item))
        if not ok:
            return PropertyReport(axiom, "FAIL", {key: item, "monomial": wit[0]})
    return PropertyReport(axiom, "PASS", {})


def witness_is_valid(diff, clear, m, box):
    """Whether clear(m) * diff vanishes: on its whole support when the
    product is exact, on ``box`` when it is not."""
    prod = multiply(diff, clear(m)) if m else diff
    return zero_verdict(prod, box)[0]


def slot_triple(A, u, v, w, stacks=None):
    """The slot triple of ``A`` at (u, v, w): f = Y(u,x1)Y(v,x2)w,
    g = Y(v,x2)Y(u,x1)w and h = Y(Y(u,x0)v,x2)w: the triple's own series
    (``MemberStacks.own``), read from ``stacks`` (a ``MemberStacks`` of ``A``
    shared by the caller's checks) or from fresh stacks of ``A``."""
    return (stacks or structures.MemberStacks(A)).own((u, v, w))


def _weak_difference(A, axiom, u, v, w, N, stacks=None):
    """(difference series, clearing factor m -> series, window box) of a weak
    property on one triple; ``axiom`` is weak_comm / weak_assoc /
    weak_skew_assoc, with or without the m_ prefix.  The recipe is the
    property's pair in ``rationalforms.PAIRS``, on the action's slot triple
    (read from ``stacks``, as ``slot_triple``), with tails cut at N."""
    kind = WEAK_PAIRS[axiom.removeprefix("m_")]
    return pole_statement(slot_triple(A, u, v, w, stacks), kind, N, N)


def is_zero(series):
    """Exact zero test of a series that is exact in every variable."""
    if not series.is_exact():
        raise WindowUnderflowError("zero test on an inexact series; use is_zero_on")
    return not series.coeffs


def is_zero_on(series, window):
    """Whether every coefficient of ``series`` inside ``window`` vanishes;
    raises unless the series knows the whole window."""
    return next(series.nonzero_on(window), None) is None


def multinomial(parts):
    """(sum parts)! / prod(part!) for nonnegative integer parts."""
    out = factorial(sum(parts))
    for p in parts:
        out //= factorial(p)
    return out


def expand_signed_power_reference(head_sv, tail_svs, exp, need):
    """Window-relevant coefficients of (head + tail)^exp by enumerating every
    allocation of tail powers, each power a in [0, max(0, hi)] of its
    variable, with coefficient binom(exp, k) * multinomial(allocation) and
    k the allocation's sum, kept when the head exponent exp - k lies in the
    head's needed window.  The oracle's expansion before it stepped its
    binomials by recurrence; kept as the reference it must equal."""
    hsign, hvar = head_sv
    sign_fix = 1
    if hsign < 0:
        sign_fix = -1 if exp % 2 else 1
        tail_svs = sv_neg(tail_svs)
    caps = []
    for s, v in tail_svs:
        lo, hi = need.get(v, (None, None))
        if hi is None:
            raise SummabilityError(
                f"tail variable {v!r} has no upper exponent bound; expansion is infinite")
        caps.append(max(0, hi))
    out = {}
    hl, hh = need.get(hvar, (None, None))

    def emit(allocs):
        k = sum(allocs)
        head_e = exp - k
        if hl is not None and head_e < hl:
            return
        if hh is not None and head_e > hh:
            return
        coeff = binom(exp, k) * multinomial(allocs) * sign_fix
        if coeff == 0:
            return
        mono = {hvar: head_e} if head_e else {}
        for (s, v), a in zip(tail_svs, allocs):
            if a % 2 and s < 0:
                coeff = -coeff
            if a:
                mono[v] = mono.get(v, 0) + a
        key = mono_of(mono)
        out[key] = out.get(key, 0) + coeff

    def rec(i, allocs):
        if i == len(tail_svs):
            emit(allocs)
            return
        for a in range(0, caps[i] + 1):
            rec(i + 1, allocs + [a])

    rec(0, [])
    return {k: v for k, v in out.items() if v}


def route_one(inst, N):
    """Route 1, the reference of both Jacobi routes of the checker: the
    window coefficients (``deltacalc.window_coeffs``) of the slots of
    ``inst`` times the three terms of ``rationalforms.JACOBI``, summed, each
    slot coefficient rebuilt as a ``Term``: every nonzero one on the box
    [-N, N]^3, keyed by its monomial."""
    terms = []
    for slot, t in JACOBI:
        series = getattr(inst, slot)
        for key, c in series.coeffs.items():
            mono = mono_of(dict(zip(series.variables, key)))
            terms.append(Term(c * t.coeff, mono, t.delta, ()))
    return window_coeffs(DeltaExpr(terms), box(N, "x0", "x1", "x2"))


def borcherds_route(member, N):
    """Route 1's coefficients of the Jacobi identity of ``member`` (a
    ``MemberStacks``) on the box [-N, N]^3, from the Borcherds identity on
    the mode tables: the coefficient of x0^(-l-1) x1^(-m-1) x2^(-n-1) at
    (u, v, w) is

        sum_i (-1)^i C(l,i) [u_(m+l-i) v_(n+i) w - (-1)^l v_(n+l-i) u_(m+i) w]
        - sum_i C(m,i) (u_(l+i) v)_(m+n-i) w

    over i >= 0, for l, m and n in [-N-1, N-1].  Each sum is keyed as route 1
    keys it, ``mono_of`` of (-l-1, -m-1, -n-1), and its coefficient is a Vec
    over the label ids of ``member.label_ids()``; only the nonzero ones are
    kept.  The products are read straight from the mode tables ``ywtable``
    and ``over.ywtable``, so that the route shares no code with the stack
    writer.  A sign (-1)^l is taken from the parity of l: ``(-1) ** l`` is a
    float for l < 0."""
    A, ids, lo, hi = member.A, member.label_ids(), -N - 1, N - 1
    out = defaultdict(lambda: defaultdict(int))

    def add(l, m, n, labels, c, vec):
        row = out[mono_of({"x0": -l - 1, "x1": -m - 1, "x2": -n - 1})]
        for b, x in vec.entries.items():
            row[labels[b]] += c * x

    def sign(k):
        return -1 if k % 2 else 1

    for u, v, w in member.triples:
        # u_a v_b w: (-1)^i C(l,i) at (l, a-l+i, b-i) to the labels of
        # (u, v, w), and -(-1)^l (-1)^i C(l,i) at (l, b-i, a-l+i) to those of
        # (v, u, w); both keep m and n in range for the same i
        for b, vb in A.ywtable.get((v, w), {}).items():
            for x, cx in vb.entries.items():
                for a, va in A.ywtable.get((u, x), {}).items():
                    for l in range(lo, hi + 1):
                        top = min(b - lo, hi - a + l, l if l >= 0 else b - lo)
                        for i in range(max(0, lo - a + l, b - hi), top + 1):
                            c = sign(i) * binom(l, i) * cx
                            add(l, a - l + i, b - i, ids[u, v, w], c, va)
                            add(l, b - i, a - l + i, ids[v, u, w], -sign(l) * c, va)
        # (u_p v)_q w: -C(m,i) at (p-i, m, q+i-m) to the labels of (u, v, w)
        for p, uv in A.over.ywtable.get((u, v), {}).items():
            for x, cx in uv.entries.items():
                for q, xw in A.ywtable.get((x, w), {}).items():
                    for m in range(lo, hi + 1):
                        top = min(p - lo, hi - q + m, m if m >= 0 else p - lo)
                        for i in range(max(0, p - hi, lo - q + m), top + 1):
                            add(p - i, m, q + i - m, ids[u, v, w], -binom(m, i) * cx, xw)
    return {key: vec for key, row in out.items() if (vec := Vec(row))}
