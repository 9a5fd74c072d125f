"""Symbolic calculus of expanded powers and formal delta factors.

The central object is a finite sum of terms

    coeff * monomial * [delta factor] * [expanded-power atoms]

where an atom ``(head + t1 + ... + tk)^n`` denotes the expansion of an integer
power in nonnegative powers of the tail sum (all negative exponents fall on the
head variable), and a delta factor ``d^-1 delta(num/d)`` denotes
``sum_n num^n d^(-n-1)`` with the numerator expanded the same way.

Canonical form rules:

* a tail never contains a +v/-v pair (such pairs cancel at construction);
* a head with sign -1 is flipped, multiplying the coefficient by (-1)^exp;
* an atom with empty tail or zero exponent folds into the plain monomial;
* like terms (same monomial, delta, atom multiset) are collected.

Cancellation across the head is never performed: (x + y - x)^n stays inert,
because only the tail sits in nonnegative powers.

Every rewrite here preserves the coefficient of every monomial; the window
oracle (`window_coeffs`) recomputes coefficients from scratch by its own
binomial expansion and is the independent check on the symbolic layer.  It
shares no arithmetic with `series`.  It expands a power by peeling its tails
off one at a time, each by a binomial recurrence that runs only over the tail
powers whose head exponent can land in the window the factor needs, so it
writes only coefficients it keeps, the last tail's in one loop; a delta's
signed tails are prepared once for all its indices, and a term of one factor is
expanded with its monomial applied, so each coefficient is shifted and tested
against the window once.  Each term is expanded with coefficient 1, and the
expansion scaled by its coefficient, a scalar or a stacked ``Vec``, and summed
by the coefficient operators, which refuse a scalar and a ``Vec`` at one
monomial.  The Jacobi checker cross-checks on the series layer (route 2,
``rationalforms.three_term_series``).  This oracle, route 1, evaluates the
terms of ``identity_lhs("three-term")``, the expression ``prove_identity``
reduces to zero, and the tests keep it as the reference of route 2 and of the
exact route.
"""
from __future__ import annotations

import hashlib
import json
from collections import Counter

from .errors import (
    ProverFailureError,
    SummabilityError,
    UnsupportedRewriteError,
)
from .scalars import Vec, binom, format_scalar

DEFAULT_VARS = ("x0", "x1", "x2")


# ---------------------------------------------------------------------------
# signed variables and monomials

def sv_format(s):
    sign, var = s
    return ("+" if sign > 0 else "-") + var


def sv_neg(svs):
    return tuple((-s, v) for s, v in svs)


def mono_mul(a, b):
    out = dict(a)
    for var, e in b:
        new = out.get(var, 0) + e
        if new:
            out[var] = new
        else:
            out.pop(var, None)
    return tuple(sorted(out.items()))


def mono_of(mapping):
    return tuple(sorted((v, e) for v, e in mapping.items() if e))


# ---------------------------------------------------------------------------
# structural pieces

class Atom:
    """(head + tail_1 + ... + tail_k)^exp, head sign +1 after canonicalization."""

    __slots__ = ("head", "tail", "exp")

    def __init__(self, head, tail, exp):
        self.head = head
        self.tail = tail
        self.exp = exp

    def key(self):
        return (self.head, self.tail, self.exp)

    def __eq__(self, other):
        return isinstance(other, Atom) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def variables(self):
        return {self.head} | {v for _, v in self.tail}

    def __repr__(self):
        inner = "+" + self.head + "".join(sv_format(t) for t in self.tail)
        return f"({inner})^{self.exp}"

    def to_json(self):
        return {
            "head": "+" + self.head,
            "tail": [sv_format(t) for t in self.tail],
            "exp": self.exp,
        }


class Delta:
    """denom^-1 * delta(num/denom); num is an ordered signed sum, first = head."""

    __slots__ = ("num", "denom")

    def __init__(self, num, denom):
        num = tuple(num)
        if not num:
            raise ValueError("delta numerator must be nonempty")
        if any(v == denom for _, v in num):
            raise ValueError("delta denominator may not occur in the numerator")
        self.num = num
        self.denom = denom

    def __eq__(self, other):
        return (isinstance(other, Delta)
                and (self.num, self.denom) == (other.num, other.denom))

    def __hash__(self):
        return hash((self.num, self.denom))

    def variables(self):
        return {v for _, v in self.num} | {self.denom}

    def __repr__(self):
        num = "".join(sv_format(t) for t in self.num).lstrip("+")
        return f"{self.denom}^-1*d(({num})/{self.denom})"

    def to_json(self):
        return {"num": [sv_format(t) for t in self.num], "denom": self.denom}


class Term:
    __slots__ = ("coeff", "mono", "delta", "atoms")

    def __init__(self, coeff, mono=(), delta=None, atoms=()):
        self.coeff = coeff
        self.mono = tuple(mono)
        self.delta = delta
        self.atoms = tuple(atoms)

    def shape_key(self):
        dkey = (self.delta.num, self.delta.denom) if self.delta else None
        return (self.mono, dkey, tuple(sorted(a.key() for a in self.atoms)))

    def variables(self):
        out = {v for v, _ in self.mono}
        if self.delta:
            out |= self.delta.variables()
        for a in self.atoms:
            out |= a.variables()
        return out

    def raw_atoms(self):
        return [((1, a.head), a.tail, a.exp) for a in self.atoms]

    def __eq__(self, other):
        return (isinstance(other, Term)
                and self.coeff == other.coeff
                and self.shape_key() == other.shape_key())

    def __hash__(self):
        return hash(self.shape_key())

    def __repr__(self):
        bits = [repr(self.coeff)]
        bits += [f"{v}^{e}" for v, e in self.mono]
        if self.delta:
            bits.append(repr(self.delta))
        bits += [repr(a) for a in self.atoms]
        return " * ".join(bits)


def _canonical_atom(head_sv, tail_svs, exp):
    """Canonicalize one expanded power; returns (sign_factor, mono, atom_or_None)."""
    hsign, hvar = head_sv
    # cancel the +v, -v pairs of the tail as a multiset
    counts = Counter(tail_svs)
    for s, v in list(counts):
        k = min(counts[s, v], counts[-s, v])
        counts[s, v] -= k
        counts[-s, v] -= k
    tail = list(counts.elements())
    factor = 1
    if hsign < 0:
        factor = -1 if exp % 2 else 1
        tail = [(-s, v) for s, v in tail]
    if exp == 0:
        return 1, (), None
    if not tail:
        return factor, ((hvar, exp),), None
    return factor, (), Atom(hvar, tuple(sorted(tail)), exp)


def make_term(coeff, mono=(), delta=None, raw_atoms=()):
    """Build a canonical term from raw (head_sv, tail_svs, exp) atom triples."""
    mono = tuple(mono)
    atoms = []
    for head_sv, tail_svs, exp in raw_atoms:
        factor, extra_mono, atom = _canonical_atom(head_sv, tail_svs, exp)
        if factor != 1:
            coeff = coeff * factor
        if extra_mono:
            mono = mono_mul(mono, extra_mono)
        if atom is not None:
            atoms.append(atom)
    atoms.sort(key=lambda a: a.key())
    return Term(coeff, mono, delta, tuple(atoms))


class DeltaExpr:
    """A finite sum of delta-calculus terms over a fixed variable universe."""

    __slots__ = ("terms", "variables")

    def __init__(self, terms=(), variables=DEFAULT_VARS):
        self.terms = tuple(terms)
        self.variables = frozenset(variables)
        for t in self.terms:
            extra = t.variables() - self.variables
            if extra:
                raise ValueError(f"variables {sorted(extra)} outside the declared universe")

    def __add__(self, other):
        return DeltaExpr(self.terms + other.terms, self.variables | other.variables)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return DeltaExpr(
            tuple(Term(t.coeff * c, t.mono, t.delta, t.atoms) for t in self.terms),
            self.variables,
        )

    def __repr__(self):
        if not self.terms:
            return "DeltaExpr(0)"
        return "DeltaExpr[" + " + ".join(repr(t) for t in self.terms) + "]"

    def to_records(self):
        out = []
        for t in self.terms:
            c = t.coeff
            rec = {"coeff": c.to_json() if type(c) is Vec else format_scalar(c),
                   "monomial": dict(t.mono)}
            if t.delta:
                rec["delta"] = t.delta.to_json()
            rec["atoms"] = [a.to_json() for a in t.atoms]
            out.append(rec)
        return out


def expr_hash(e):
    """Short content hash of the serialized expression, term order included."""
    data = json.dumps(e.to_records(), sort_keys=True)
    return hashlib.sha256(data.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# normalization

def normalize(e: DeltaExpr) -> DeltaExpr:
    """Collect like terms, drop zeros, and re-canonicalize atoms; idempotent."""
    buckets = {}
    for t in e.terms:
        t2 = make_term(t.coeff, t.mono, t.delta, t.raw_atoms())
        key = t2.shape_key()
        if key in buckets:
            buckets[key] = Term(buckets[key].coeff + t2.coeff,
                                t2.mono, t2.delta, t2.atoms)
        else:
            buckets[key] = t2
    kept = [buckets[k] for k in sorted(buckets) if buckets[k].coeff]
    return DeltaExpr(kept, e.variables)


# ---------------------------------------------------------------------------
# rewrites

def delta_to_atoms(d: Delta, variables=DEFAULT_VARS) -> DeltaExpr:
    """Rewrite denom^-1 delta(num/denom) as (num - denom)^-1 + (denom - num)^-1."""
    head, rest = d.num[0], d.num[1:]
    first = (head, rest + ((-1, d.denom),), -1)
    second = ((1, d.denom), sv_neg(d.num), -1)
    return DeltaExpr(
        [make_term(1, raw_atoms=[first]), make_term(1, raw_atoms=[second])],
        set(variables) | d.variables(),
    )


def expand_deltas(e: DeltaExpr) -> DeltaExpr:
    """Apply delta_to_atoms to every delta-carrying term; order preserved."""
    out = []
    for t in e.terms:
        if t.delta is None:
            out.append(t)
            continue
        for piece in delta_to_atoms(t.delta, e.variables).terms:
            out.append(make_term(
                t.coeff * piece.coeff,
                mono_mul(t.mono, piece.mono),
                None,
                t.raw_atoms() + piece.raw_atoms(),
            ))
    return DeltaExpr(out, e.variables)


def taylor_shift(e: DeltaExpr, var, shift) -> DeltaExpr:
    """Substitute var -> var + shift everywhere, expanding by the convention.

    ``shift`` is a signed variable distinct from ``var``.  Plain powers var^n
    become atoms (var + shift)^n; atoms and delta numerators extend their
    tails.  A delta whose denominator is ``var`` cannot be shifted directly.
    """
    ssign, svar = shift
    if svar == var:
        raise UnsupportedRewriteError("shift variable must differ from the shifted variable")
    if svar not in e.variables:
        raise UnsupportedRewriteError(
            f"shift variable {svar!r} not in the universe; declare it first")
    out = []
    for t in e.terms:
        mono = dict(t.mono)
        raw_atoms = t.raw_atoms()
        n = mono.pop(var, 0)
        if n:
            raw_atoms.append(((1, var), (), n))  # the loop below adds the shift
        shifted_atoms = []
        for head_sv, tail, exp in raw_atoms:
            new_tail = list(tail)
            if head_sv[1] == var:
                new_tail.append((head_sv[0] * ssign, svar))
            for s, v in tail:
                if v == var:
                    new_tail.append((s * ssign, svar))
            shifted_atoms.append((head_sv, tuple(new_tail), exp))
        delta = t.delta
        if delta is not None:
            if delta.denom == var:
                raise UnsupportedRewriteError(
                    "cannot shift a delta denominator; rewrite via delta_to_atoms first")
            if any(v == var for _, v in delta.num):
                num = list(delta.num)
                for s, v in delta.num:
                    if v == var:
                        num.append((s * ssign, svar))
                delta = Delta(tuple(num), delta.denom)
        out.append(make_term(t.coeff, mono_of(mono), delta, shifted_atoms))
    return DeltaExpr(out, e.variables)


# ---------------------------------------------------------------------------
# the coefficient-window oracle

def _iv_add(a, b):
    lo = None if a[0] is None or b[0] is None else a[0] + b[0]
    hi = None if a[1] is None or b[1] is None else a[1] + b[1]
    return (lo, hi)


def _factor_bounds(factor):
    """Structural per-variable exponent bounds (lo, hi) of one factor."""
    kind, payload = factor
    bounds = {}
    if kind == "atom":
        a = payload
        bounds[a.head] = (a.exp, a.exp) if not a.tail else (None, a.exp)
        for _, v in a.tail:
            bounds[v] = _iv_add(bounds.get(v, (0, 0)), (0, None))
    else:  # delta
        d = payload
        bounds[d.denom] = (None, None)
        bounds[d.num[0][1]] = (None, None)
        for _, v in d.num[1:]:
            bounds[v] = _iv_add(bounds.get(v, (0, 0)), (0, None))
    return bounds


def _needed_windows(factors, window):
    """For each factor, the window its own coefficients must cover."""
    all_bounds = [_factor_bounds(f) for f in factors]
    needs = []
    for i in range(len(factors)):
        need = {}
        for v, (wlo, whi) in window.items():
            other = (0, 0)
            for j, b in enumerate(all_bounds):
                if j != i:
                    other = _iv_add(other, b.get(v, (0, 0)))
            lo_other, hi_other = other
            lo = None if wlo is None or hi_other is None else wlo - hi_other
            hi = None if whi is None or lo_other is None else whi - lo_other
            need[v] = (lo, hi)
        needs.append(need)
    return needs


def _signed_tails(head_sv, tail_svs, need):
    """(head sign, head variable, [(sign, var, cap)]) of (head + tail)^n:
    tail signs flipped under a head of sign -1 (which leaves the factor
    (-1)^n), and each cap max(0, hi) of the tail's needed window.  A tail in
    the head variable, or without an upper bound, is refused."""
    hsign, hvar = head_sv
    if hsign < 0:
        tail_svs = sv_neg(tail_svs)
    tails = []
    for s, v in tail_svs:
        if v == hvar:
            raise SummabilityError(
                f"head variable {v!r} is also in its tail; the expansion is not summable")
        hi = need.get(v, (None, None))[1]
        if hi is None:
            raise SummabilityError(
                f"tail variable {v!r} has no upper exponent bound; expansion is infinite")
        tails.append((s, v, max(0, hi)))
    return hsign, hvar, tails


def _expand_signed_power(head_sv, tail_svs, exp, need, mono=None):
    """The window-relevant coefficients of (head + tail)^exp, each times the
    monomial ``mono`` ({var: exp}), as a dict {monomial: int}.

    Relevant means: the head exponent lies in the head's needed window, and
    each tail power lies in [0, max(0, hi)] of its variable.  The tails are
    peeled off one at a time, (h + t + rest)^n = sum_k binom(n, k) t^k
    (h + rest)^(n-k), which gives the multinomial expansion in nonnegative
    powers of the tail sum; see ``_peel`` for the recurrence.
    """
    hsign, hvar, tails = _signed_tails(head_sv, tail_svs, need)
    out = {}
    hl, hh = need.get(hvar, (None, None))
    _peel(out, dict(mono) if mono else {}, hvar, hl, hh, tails, exp,
          -1 if hsign < 0 and exp % 2 else 1)
    return out


def _peel(out, mono, hvar, hl, hh, tails, n, c):
    """Add c * (head + tails)^n times ``mono`` to ``out``, for the tail
    powers whose head exponent can land in [hl, hh]; ``mono`` is restored.

    The first tail's power k runs only over [n - hh - r, n - hl] cut to
    [0, cap] (and k <= n when n >= 0, where binom(n, k) vanishes beyond),
    with r the largest power the remaining tails can take.  Only
    binom(n, kmin) is looked up; each later binomial steps by
    binom(n, k+1) = binom(n, k) * (n-k) // (k+1), exact for every integer n,
    and the sign s^k by the factor s.  The last tail's range puts every head
    exponent n - k in [hl, hh], so its coefficients are written in one loop.
    """
    if not tails:  # the bare head
        if (hl is None or hl <= n) and (hh is None or n <= hh):
            mono[hvar] = mono.get(hvar, 0) + n
            key = mono_of(mono)
            mono[hvar] -= n
            out[key] = out.get(key, 0) + c
        return
    (s, v, cap), rest = tails[0], tails[1:]
    kmin = 0 if hh is None else max(0, n - hh - sum(t[2] for t in rest))
    kmax = cap if hl is None else min(cap, n - hl)
    if n >= 0 and kmax > n:
        kmax = n
    if kmin > kmax:
        return
    bc = c * binom(n, kmin) * (s if kmin % 2 else 1)
    e0 = mono.get(v, 0)
    if rest:
        for k in range(kmin, kmax + 1):
            mono[v] = e0 + k
            _peel(out, mono, hvar, hl, hh, rest, n - k, bc)
            bc = s * bc * (n - k) // (k + 1)
    else:
        h0 = mono.get(hvar, 0)
        for k in range(kmin, kmax + 1):
            mono[v], mono[hvar] = e0 + k, h0 + n - k
            key = mono_of(mono)
            out[key] = out.get(key, 0) + bc
            bc = s * bc * (n - k) // (k + 1)
        mono[hvar] = h0
    mono[v] = e0


def _expand_factor(factor, need, mono=None):
    """Window-relevant coefficients of one factor, each times ``mono``.  A
    delta's signed tails are prepared once, for all its indices."""
    kind, payload = factor
    if kind == "atom":
        a = payload
        return _expand_signed_power((1, a.head), a.tail, a.exp, need, mono)
    d = payload
    dlo, dhi = need.get(d.denom, (None, None))
    if dlo is None or dhi is None:
        raise SummabilityError(
            f"delta denominator {d.denom!r} has no finite window; the sum over its index diverges")
    out = {}
    if dlo > dhi:
        return out
    hsign, hvar, tails = _signed_tails(d.num[0], d.num[1:], need)
    hl, hh = need.get(hvar, (None, None))
    mono = dict(mono) if mono else {}
    e0 = mono.get(d.denom, 0)
    for ed in range(dlo, dhi + 1):
        n = -ed - 1
        mono[d.denom] = e0 + ed
        _peel(out, mono, hvar, hl, hh, tails, n, -1 if hsign < 0 and n % 2 else 1)
    return out


def _window_part(coeffs, window):
    """The nonzero entries of {monomial: c} inside the window, where a
    variable that the window does not name is pinned to exponent 0."""
    off_zero = {v for v, (lo, hi) in window.items()
                if (lo is not None and lo > 0) or (hi is not None and hi < 0)}
    out = {}
    for mono, c in coeffs.items():
        if not c:
            continue
        for v, e in mono:
            lo, hi = window.get(v, (0, 0))
            if (lo is not None and e < lo) or (hi is not None and e > hi):
                break
        else:
            if not off_zero or off_zero <= {v for v, _ in mono}:
                out[mono] = c
    return out


def _unit_window_coeffs(t: Term, window):
    """Exact coefficients on the window of the term with its coefficient set
    to 1 (complete there); they are integers.  The term's monomial is
    applied while its first factor is expanded, so each entry is shifted
    once and tested against the window once."""
    tm = dict(t.mono)
    shifted = {}
    for v in set(window) | t.variables():
        lo, hi = window.get(v, (0, 0))
        e = tm.get(v, 0)
        shifted[v] = (None if lo is None else lo - e,
                      None if hi is None else hi - e)
    factors = [("atom", a) for a in t.atoms]
    if t.delta is not None:
        factors = [("delta", t.delta)] + factors
    if not factors:
        return _window_part({t.mono: 1}, window)
    needs = _needed_windows(factors, shifted)
    acc = _expand_factor(factors[0], needs[0], tm)
    for f, need in zip(factors[1:], needs[1:]):
        piece = _expand_factor(f, need)
        new = {}
        for m1, c1 in acc.items():
            for m2, c2 in piece.items():
                key = mono_mul(m1, m2)
                new[key] = new.get(key, 0) + c1 * c2
        acc = new
    return _window_part(acc, window)


def window_coeffs(e: DeltaExpr, window):
    """Exact coefficients of every monomial inside the window.

    ``window`` maps variables to (lo, hi); variables absent from it are pinned
    to exponent 0.  Raises SummabilityError if some term's coefficients are not
    certifiably finite sums.  Each term is expanded once with coefficient 1
    and scaled by its coefficient, a scalar or a stacked ``Vec``; the
    coefficient operators refuse a scalar and a ``Vec`` at one monomial.
    """
    window = dict(window)
    out = {}
    for t in e.terms:
        c = t.coeff
        for mono, u in _unit_window_coeffs(t, window).items():
            out[mono] = out.get(mono, 0) + c * u
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# the identity prover

TWO_TERM = "two-term"
THREE_TERM = "three-term"


def identity_lhs(which) -> DeltaExpr:
    """The left-hand side of the named delta identity, terms in display order."""
    x0, x1, x2 = DEFAULT_VARS
    if which == TWO_TERM:
        terms = [
            Term(1, (), Delta(((1, x2), (1, x0)), x1), ()),
            Term(-1, (), Delta(((1, x1), (-1, x0)), x2), ()),
        ]
    elif which == THREE_TERM:
        terms = [
            Term(1, (), Delta(((1, x1), (-1, x2)), x0), ()),
            Term(-1, (), Delta(((-1, x2), (1, x1)), x0), ()),
            Term(-1, (), Delta(((1, x2), (1, x0)), x1), ()),
        ]
    else:
        raise ValueError(f"unknown identity {which!r}")
    return DeltaExpr(terms, DEFAULT_VARS)


class ProofTrace:
    """Ordered rewrite trace ending (on success) in the empty expression."""

    def __init__(self, which):
        self.which = which
        self.steps = []
        self.pairs = []
        self.residual = None

    def record(self, rule, before, after):
        self.steps.append({
            "rule": rule,
            "before-hash": expr_hash(before),
            "after-hash": expr_hash(after),
        })


def prove_identity(which) -> ProofTrace:
    """Reduce the named identity's LHS to zero; the trace records the pairing.

    Cancellation pairs are reported by 1-based position of the expanded atoms
    in display order.
    """
    trace = ProofTrace(which)
    lhs = identity_lhs(which)
    expanded = expand_deltas(lhs)
    trace.record("delta-to-atoms", lhs, expanded)

    groups = {}
    for pos, t in enumerate(expanded.terms, start=1):
        groups.setdefault(t.shape_key(), []).append((pos, t))
    pairs = []
    for members in groups.values():
        if sum(t.coeff for _, t in members) or len(members) != 2:
            residual = normalize(expanded)
            trace.residual = residual
            raise ProverFailureError(
                f"{which} identity left a nonzero residual", residual=residual)
        pairs.append(tuple(sorted(p for p, _ in members)))
    trace.pairs = sorted(pairs)
    final = normalize(expanded)
    trace.record("cancel-pairs", expanded, final)
    if final.terms:
        trace.residual = final
        raise ProverFailureError(f"{which} identity left a nonzero residual", residual=final)
    return trace
