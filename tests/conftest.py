from collections import defaultdict
from math import factorial

import pytest

from vertexcalc import configio, structures
from vertexcalc.deltacalc import mono_of, sv_neg
from vertexcalc.errors import SummabilityError, WindowUnderflowError
from vertexcalc.rationalforms import pole_statement
from vertexcalc.scalars import binom
from vertexcalc.series import multiply, zero_verdict
from vertexcalc.structures import WEAK_PAIRS


@pytest.fixture
def slot_product_calls(monkeypatch):
    """{(action, slot kind): [number of triples of each build]}, one entry per
    call of the slot-product builder ``structures._slot_products``."""
    calls = defaultdict(list)

    def counted(A, kind, labels, _original=structures._slot_products):
        calls[(A, kind)].append(len(labels))
        return _original(A, kind, labels)
    monkeypatch.setattr(structures, "_slot_products", counted)
    return calls


def assert_one_build_per_member_and_kind(calls, members):
    """Each member with triples built slot f and slot h exactly once, each
    time at every one of its triples, and never one triple at a time."""
    for A in members:
        triples = len(A.over.basis) ** 2 * len(A.wbasis)
        if triples:
            assert [calls[(A, kind)] for kind in "fh"] == [[triples]] * 2, A.name
    assert set(calls) == {(A, kind) for A in members for kind in "fh"
                          if len(A.over.basis) ** 2 * len(A.wbasis)}


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


def witness_is_valid(diff, clear, m, box):
    """Whether clear(m) * diff vanishes: on its whole support when the
    product is exact, on ``box`` when it is not."""
    prod = multiply(diff, clear(m)) if m else diff
    return zero_verdict(prod, box)[0]


def slot_triple(A, u, v, w, stacks=None):
    """The slot triple of ``A`` at (u, v, w): f = Y(u,s1)Y(v,s2)w,
    g = Y(v,s1)Y(u,s2)w and h = Y(Y(u,s2)v,s1)w: the triple's own series
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
