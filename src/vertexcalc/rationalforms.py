"""Executable statement family for pairs/triples of two-variable Laurent series.

The statements checked here, on a coefficient window:

  (A) the three-term delta combination of (f, g, h) vanishes;
  (B)/(C)/(D) a power of (x1-x2) / (x0+x2) / (x1-x0) kills the difference of
      the matching pair (pole witnesses);
  (E)/(F)/(G) the pair is the two-directional expansion of a single rational
      form p / (binomial^a * v1^b * v2^c).

Implications (A)=>(B,C,D), (B,C,D)=>(E,F,G) and (E,F,G pairs)=>(A) are
replayed on concrete instances: hypothesis first, then the conclusion; a
conclusion failure under a verified hypothesis is an implementation bug and
raises ConsistencyViolationError.

Each slot series lives in the variables of the ``JACOBI`` term that it
multiplies, that term's delta numerator (head, tail): for a vertex structure
acting on w, f = Y(u,x1)Y(v,x2)w, g = Y(v,x2)Y(u,x1)w and h = Y(Y(u,x0)v,x2)w,
so no statement renames a slot.

The pairs of (B)-(G) are the three weak properties, the residues of the one
S3-symmetric Jacobi identity in x0, x1 and x2.  (A) is its three terms,
``JACOBI``, which ``deltacalc.prove_identity`` proves; ``PAIRS`` is read off
the same terms: the pair variables, the clearing binomial and the two sides,
each a slot series, possibly with the eliminated variable substituted:

  m1  weak commutativity       f(x1,x2)      g(x2,x1)       (x1-x2)^m   (B), (E)
  m2  weak associativity       f(x0+x2,x2)   h(x2,x0)       (x0+x2)^m   (C), (F)
  m3  weak skew-associativity  g(-x0+x1,x1)  h(x1-x0,x0)    (-x0+x1)^m  (D), (G)

A pair statement reads one rational form over the binomial: the left side
is its "direct" expansion, the right side its "reversed" one.  The pole
witnesses, the reconstruction, (E)/(F)/(G), ``instance_from_form`` and the
weak-property checkers of ``structures`` all read the table.

On Laurent polynomials, such as the slots of a finite vertex structure,
each pair statement, and (A), is decided without a window by the closed
forms of ``exact_difference``.
"""
from __future__ import annotations

import random
from functools import partial
from math import comb
from typing import NamedTuple

from .deltacalc import DEFAULT_VARS, THREE_TERM, identity_lhs
from .errors import ConsistencyViolationError, WindowUnderflowError
from .scalars import Vec
from .series import (
    INF,
    WindowedSeries,
    add_power,
    apply_delta,
    binomial_power,
    judged_coeffs,
    multiply,
    taylor_substitute,
    zero_verdict,
)

# the Jacobi identity's three terms, each with the slot it multiplies, whose
# series is over the term's delta numerator variables
JACOBI = tuple(zip("fgh", identity_lhs(THREE_TERM).terms))

# the variables of each slot's stacks and own series, in key order: its
# ``JACOBI`` term's delta numerator (head, tail), f(x1,x2), g(x2,x1) and
# h(x2,x0); the swapped h, slot h at (v, u, w), is stored as h
SLOT_VARIABLES = {slot: tuple(v for _, v in t.delta.num) for slot, t in JACOBI}
SLOT_VARIABLES["hs"] = SLOT_VARIABLES["h"]


class PoleWitness(NamedTuple):
    """A nonnegative pole-clearing exponent for one of the pair statements."""
    m: int
    kind: str  # "m1" (commutator), "m2" (associator), "m3" (skew)


class RationalForm:
    """p(v1,v2) / (binomial^a * v1^b * v2^c) with a two-way pole expansion.

    ``numerator`` maps (i, j) exponent pairs to coefficients; a, b, c are the
    nonnegative pole orders.  (v1, v2) and the binomial are the variables and
    the binomial of pair ``kind`` in ``PAIRS`` (default m1: x1 - x2); mode
    "direct" expands with its head dominant, mode "reversed" with its tail
    dominant, over (v1, v2).
    """

    def __init__(self, numerator, a, b, c, kind="m1"):
        if min(a, b, c) < 0:
            raise ValueError("pole orders must be nonnegative")
        if any(i < 0 or j < 0 for i, j in numerator):
            raise ValueError("numerator must be a polynomial")
        self.numerator = {k: v for k, v in numerator.items() if v}
        self.a, self.b, self.c = a, b, c
        self.kind = kind

    def degree(self):
        if not self.numerator:
            return 0
        return max(max(i, j) for i, j in self.numerator)

    def expand(self, mode, window_lo, window_hi):
        """Windowed expansion; head exponents kept down to window_lo, tail up
        to window_hi.  Exact when a == 0."""
        if mode not in ("direct", "reversed"):
            raise ValueError(f"unknown expansion mode {mode!r}")
        pair = PAIRS[self.kind]
        (hs, hvar), (ts, tvar) = (pair.binomial if mode == "direct"
                                  else pair.binomial[::-1])
        ih, it = pair.variables.index(hvar), pair.variables.index(tvar)
        coeffs, rows = {}, {}
        for (i, j), cnum in self.numerator.items():
            base = (i - self.b, j - self.c)
            # with poles the tail exponent rises and the head exponent
            # base[ih] - a - k falls by one per tail power k
            kmax = (min(window_hi - base[it], base[ih] - self.a - window_lo)
                    if self.a else 0)
            add_power(coeffs, rows, base, cnum, -self.a, (hs, ih), (ts, it), kmax)
        window = {hvar: (window_lo, INF), tvar: (INF, window_hi)} if self.a else None
        return WindowedSeries(pair.variables, coeffs, window)


# ---------------------------------------------------------------------------
# the pair recipes

class Pair(NamedTuple):
    """The recipe of one pair statement; see the module docstring.

    A side is (slot, sub): the slot series, and if ``sub`` is a (head, tail)
    pair of signed variables, with ``eliminated`` replaced by head + tail,
    expanded in nonnegative powers of the tail.
    """
    name: str          # the pair's name in consistency-violation messages
    variables: tuple   # the pair variables (v1, v2)
    binomial: tuple    # (head, tail) signed pair variables of head + tail
    left: tuple        # the side that is the "direct" expansion
    right: tuple       # the side that is the "reversed" expansion
    eliminated: str    # the Jacobi variable e whose residue is the pair,
                       # which the binomial stands for in the pair variables


# A pair is the two terms of ``JACOBI`` whose delta has e as its denominator,
# e^-1 delta((sh h + st t)/e), read at (h, t), or as its numerator head,
# d^-1 delta((sh e + st t)/d), read at e = sh d - sh st t with e substituted.
# The binomial is the left side's numerator once e is its denominator.
PAIRS = {}
for kind, name, e in (("m1", "commutator", "x0"), ("m2", "associator", "x1"),
                      ("m3", "skew", "x2")):
    sides = []
    for slot, t in JACOBI:
        (sh, h), (st, tail) = t.delta.num
        if t.delta.denom == e:
            sides.append((t.delta.num, (slot, None)))
        elif h == e:
            sub = ((sh, t.delta.denom), (-sh * st, tail))
            sides.append((sub, (slot, sub)))
    (binomial, left), (_, right) = sides
    PAIRS[kind] = Pair(name, tuple(v for v in DEFAULT_VARS if v != e), binomial,
                       left, right, e)


def statement_form(form: RationalForm, kind):
    """The (E), (F) or (G) form of kind m1, m2 or m3: ``form``, read as
    p(x1,x2) / (x0^a x1^b x2^c) with x0 = x1 - x2, rewritten in the pair
    variables by putting the binomial for the eliminated variable."""
    pair = PAIRS[kind]
    e, (v1, v2) = pair.eliminated, pair.variables
    head, tail = ((s, pair.variables.index(v)) for s, v in pair.binomial)
    numerator, rows = {}, {}
    for (i, j), c in form.numerator.items():
        exps = {"x1": i, "x2": j}
        n = exps.get(e, 0)
        add_power(numerator, rows, (exps.get(v1, 0), exps.get(v2, 0)), c, n,
                  head, tail, n)
    powers = dict(zip(DEFAULT_VARS, (form.a, form.b, form.c)))
    return RationalForm(numerator, powers[e], powers[v1], powers[v2], kind)


def clearing(kind, m):
    """The kind's binomial to the power m, in its pair variables."""
    pair = PAIRS[kind]
    return binomial_power(pair.variables, *pair.binomial, m)


def pair_sides(inst, kind, hi):
    """The kind's (left, right) series in its pair variables; a substituted
    side is expanded up to exponent ``hi`` of its tail variable."""
    pair, sides = PAIRS[kind], []
    for slot, sub in (pair.left, pair.right):
        series = getattr(inst, slot)
        if sub is not None:
            head, tail = sub
            series = taylor_substitute(series, pair.eliminated, head, tail,
                                       {tail[1]: (INF, hi)})
        sides.append(series)
    return tuple(sides)


class TripleInstance:
    """Concrete, immutable (f, g, h), each over its ``JACOBI`` term's
    variables, with optional form, the high end ``gen_hi`` of the generation
    window, which the pair statements expand at, and hs, h at (v, u, w)."""

    def __init__(self, f, g, h, form=None, gen_hi=None, hs=None):
        self.f, self.g, self.h, self.hs = f, g, h, hs
        self.form = form
        self.gen_hi = gen_hi
        self._results = {}

    def result(self, fn, *args):
        """fn(self, *args), computed at most once per instance."""
        key = (fn, args)
        if key not in self._results:
            self._results[key] = fn(self, *args)
        return self._results[key]

    def perturb_f(self, mono, value):
        """Add value * x1^i x2^j to f; the instance stops satisfying (A)."""
        coeffs = dict(self.f.coeffs)
        key = (mono[0], mono[1])
        coeffs[key] = coeffs.get(key, 0) + value
        f2 = WindowedSeries(self.f.variables, coeffs, self.f.window)
        return TripleInstance(f2, self.g, self.h, None, self.gen_hi)


def windows_for(N, m_max, degree):
    """Generation windows guaranteeing every statement check at window N."""
    lo = -(2 * N + m_max + degree + 6)
    hi = N + m_max + degree + 6
    return lo, hi


def instance_from_form(form: RationalForm, N):
    """Build the (E)/(F)/(G)-matched triple generated by a rational form."""
    lo, hi = windows_for(N, max(form.a, form.b, form.c) + 2, form.degree())
    # f(x1,x2) and g(x2,x1) are the two expansions of the (E) form and
    # h(x2,x0) the reversed one of the (F) form, in their pair variables
    E, F = statement_form(form, "m1"), statement_form(form, "m2")
    f, g = E.expand("direct", lo, hi), E.expand("reversed", lo, hi)
    h = F.expand("reversed", lo, hi)
    return TripleInstance(f, g, h, form, hi)


def random_form(rng: random.Random, max_deg=4, max_pole=3):
    terms = rng.randint(1, 6)
    numerator = {}
    for _ in range(terms):
        key = (rng.randint(0, max_deg), rng.randint(0, max_deg))
        numerator[key] = numerator.get(key, 0) + rng.choice(
            [-3, -2, -1, 1, 2, 3])
    numerator = {k: v for k, v in numerator.items() if v}
    if not numerator:
        numerator = {(0, 0): 1}
    return RationalForm(numerator,
                        rng.randint(0, max_pole),
                        rng.randint(0, max_pole),
                        rng.randint(0, max_pole))


def generate_instance(seed, N=8, max_deg=4, max_pole=3):
    rng = random.Random(seed)
    form = random_form(rng, max_deg, max_pole)
    return instance_from_form(form, N)


# ---------------------------------------------------------------------------
# statement checkers

def box(N, *variables):
    return {v: (-N, N) for v in variables}


def three_term_series(inst: TripleInstance, N):
    """The terms of ``JACOBI`` on the slots of ``inst``, summed on [-N, N]^3."""
    return apply_delta([(t.coeff, *t.delta.num, t.delta.denom, getattr(inst, slot))
                        for slot, t in JACOBI], box(N, "x0", "x1", "x2"))


def check_A(inst: TripleInstance, N):
    """Verdict of the three-term delta combination on the window [-N, N]^3."""
    return zero_verdict(three_term_series(inst, N), box(N, "x0", "x1", "x2"))


def _laurent(**slots):
    """``slots`` {slot: series}, in order, aligned to ``SLOT_VARIABLES``;
    refused unless each is a Laurent polynomial, exact in every variable."""
    if not all(s.is_exact() for s in slots.values()):
        raise WindowUnderflowError(
            "the exact route needs Laurent polynomials, exact in every variable")
    return [s.align(SLOT_VARIABLES[slot]) for slot, s in slots.items()]


def exact_difference(left, right, head=None, tail=(1, 0)):
    """{key of ``left``: nonzero coefficient} of left - right', exactly, for
    two slots or slot stacks read by position in ``SLOT_VARIABLES`` order,
    with ``math.comb`` and coefficient arithmetic only.  With ``head`` None,
    right' is ``right`` with its key reversed (g against f).  Otherwise
    ``left`` is over (x2, x0), the variable of ``right`` at position ``head``
    becomes x2 + x0, expanded binomially, and its other one sign times the
    variable at position ``at`` of left, ``tail`` = (sign, at); a negative
    power of the head puts its coefficient at a key ("pole", ...), so it
    fails.  Coefficients are scalars or label ``Vec``s; labels are added and
    scaled, never mixed, so each is decided as if it were alone.  The claim
    deciders below name their slots to ``_laurent``, which aligns each to
    ``SLOT_VARIABLES`` first.

    The claims, per label of a finite action, whose slots f(x1,x2),
    g(x2,x1), h(x2,x0) and hs (h at (v, u, w)) are Laurent polynomials, for
    the statements of ``PAIRS``.  Multiplying by a nonzero polynomial is
    injective; a function with a pole on x0+x2 = 0, x1 = x0 or x2+x0 = 0
    expands without end, so it is no Laurent polynomial; and in the UFD
    Q[x1, x2, 1/x2] the primes x1 and x1-x2 differ.
      B  weak_comm holds iff f = g, and then at m = 0.
      C  weak_assoc holds iff f has no negative power of x1 and
         f(x0+x2,x2) = h(x2,x0), and then at m = 0.  With p f's x1-pole
         order and F = x1^p f, at m >= p it says F(x0+x2,x2) =
         (x0+x2)^p h(x2,x0); put x0 = x1-x2: x1^p divides (x1-x2)^k F for
         some k, hence F, so p = 0.  At m < p its left side has a pole.
      D  weak_skew_assoc holds iff g has no negative power of x1 and
         g(x2,x0+x2) = h(x2,x0), and then its least m is g's x2-pole order
         q.  Under x2 = x1-x0 its sides expand (x1-x0)^m g(x1-x0,x1) in
         nonnegative powers of x1 and (x1-x0)^m h(x1-x0,x0) in those of x0;
         equal expansions are of one function (clear by a power of x1-x0),
         which is the identity, and then g has no x1-pole, as in C.  Given
         it, h has x2-pole order q (set x2 = 0 in x2^q g): at m >= q both
         sides are one Laurent polynomial, and at m < q they are the two
         expansions of a function with a pole on x1 = x0, which differ.
         x2 enters g = Y(v,x2)Y(u,x1)w only through the outer Y(v,x2), so
         q is at most the pole order of the action's tables.
      V  vf_skew_symmetry, h(x2,x0) = hs(x2+x0,-x0), holds iff hs has no
         negative power of x2 and the identity holds as polynomials: with
         one, the right side has a pole on x2+x0 = 0.
      Corollary  Jacobi, x0^-1 d((x1-x2)/x0) f - x0^-1 d((x2-x1)/(-x0)) g
         = x1^-1 d((x2+x0)/x1) h for the delta function d, holds iff the
         identities of B and C do.  Given f = g, the left side is f times
         x1^-1 d((x2+x0)/x1) (the three-term delta identity), a delta that
         puts x2 + x0 for x1, expanded in nonnegative powers of x0: so C's
         identity gives Jacobi.  Conversely, with x0^k h polynomial in x0,
         the residue in x0 of x0^k times Jacobi is (x1-x2)^k (f - g) = 0,
         so f = g; then the residue in x1 of Jacobi says that f(x2+x0,x2),
         so expanded, is the Laurent polynomial h, so f has no x1-pole."""
    out = dict(left.coeffs)
    sign, at = tail
    for key, c in right.coeffs.items():
        if head is None:
            terms = ((key[::-1], 1),)
        elif key[head] < 0:
            out[("pole", *key)] = c
            continue
        else:
            e, o = key[head], key[1 - head]
            sgn = -1 if sign < 0 and o % 2 else 1
            terms = [((e - i + o, i) if at == 0 else (e - i, i + o), sgn * comb(e, i))
                     for i in range(e + 1)]
        for k, scale in terms:
            out[k] = out.get(k, 0) - scale * c
    return {key: c for key, c in out.items() if c}


def exact_weak_comm(inst: TripleInstance):
    """Claim B: (f(x1,x2) - g(x2,x1), {}), with no positive witness."""
    return exact_difference(*_laurent(f=inst.f, g=inst.g)), {}


def exact_weak_assoc(inst: TripleInstance):
    """Claim C: (h(x2,x0) - f(x0+x2,x2), {}); f's x1-poles fail."""
    return exact_difference(*_laurent(h=inst.h, f=inst.f), 0), {}


def exact_weak_skew_assoc(inst: TripleInstance):
    """Claim D: (h(x2,x0) - g(x2,x0+x2), {label: g's x2-pole order}), a
    scalar coefficient being the one label None; g's x1-poles fail."""
    h, g = _laurent(h=inst.h, g=inst.g)
    diff, poles = exact_difference(h, g, 1), {}
    for (a, _), c in g.coeffs.items():
        for label in (c.entries if type(c) is Vec else (None,)) if a < 0 else ():
            poles[label] = max(poles.get(label, 0), -a)
    return diff, poles


def exact_vf(h, hs):
    """Claim V: h(x2,x0) - hs(x2+x0,-x0); hs's x2-poles fail."""
    return exact_difference(*_laurent(h=h, hs=hs), 0, (-1, 1))


def exact_jacobi(inst: TripleInstance):
    """The Jacobi identity at the slots of ``inst``, decided exactly as the
    identities of Claims B and C, as the Corollary of ``exact_difference``
    allows (FHL 1993, §3; Lepowsky-Li 2004, ch. 3): {key: nonzero
    coefficient}, empty where it holds; ("E", i, j) is f - g at x1^i x2^j,
    ("F", ...) Claim C's difference.  A slot that is not a Laurent
    polynomial, exact in every variable, raises WindowUnderflowError,
    undecided; slots are read in ``SLOT_VARIABLES``, whatever their order."""
    return ({("E", *key): c for key, c in exact_weak_comm(inst)[0].items()}
            | {("F", *key): c for key, c in exact_weak_assoc(inst)[0].items()})


def pole_statement(inst, kind, hi, N):
    """The (B)/(C)/(D) statement of the kind, some power of its binomial kills
    the pair difference on [-N, N]^2, as (left - right, m -> binomial^m, box)."""
    left, right = inst.result(pair_sides, kind, hi)
    return left - right, partial(clearing, kind), box(N, *PAIRS[kind].variables)


def least_clearing_power(diff, clear, box, m_max, labels=(None,),
                         labels_of=lambda c: (None,)):
    """{label: smallest valid witness m <= m_max} of a (B)/(C)/(D) statement
    (diff, m -> binomial^m, box) stacked over ``labels``; m is valid when
    ``labels_of`` reads the label off no coefficient of clear(m) * diff that
    ``zero_verdict`` judges, and is None if none is.  Labels never mix, but
    an exact label on an inexact stack is judged on the box only.  A replay
    instance is the unlabelled case: one label None on every coefficient.
    Raises WindowUnderflowError at the m at which the windows run out."""
    least, open_ = {}, set(labels)
    for m in range(m_max + 1):
        failing = set()
        try:
            for _, c in judged_coeffs(multiply(diff, clear(m)) if m else diff, box):
                failing.update(labels_of(c))
                if open_ <= failing:
                    break
        except WindowUnderflowError:
            raise WindowUnderflowError(
                f"witness search at m={m} exceeded the known windows; "
                "regenerate the instance with larger windows") from None
        least |= dict.fromkeys(open_ - failing, m)
        open_ &= failing
        if not open_:
            break
    return least | dict.fromkeys(open_)


def find_pole_witness(inst: TripleInstance, kind, m_max, N):
    """Smallest m <= m_max clearing the pole of the kind's pair difference."""
    return least_clearing_power(*pole_statement(inst, kind, inst.gen_hi, N), m_max)[None]


# ---------------------------------------------------------------------------
# reconstruction: (B)/(C)/(D) => (E)/(F)/(G)

def _collect_polynomial(P: WindowedSeries, vars2):
    """Read off a finite polynomial from a cleared product; derive pole orders."""
    v1, v2 = vars2
    b = max(0, -min((k[P.idx(v1)] for k in P.coeffs), default=0))
    c = max(0, -min((k[P.idx(v2)] for k in P.coeffs), default=0))
    numerator = {}
    for key, coeff in P.coeffs.items():
        i = key[P.idx(v1)] + b
        j = key[P.idx(v2)] + c
        if i < 0 or j < 0:
            raise ConsistencyViolationError(
                "cleared product still carries negative exponents")
        numerator[(i, j)] = coeff
    return numerator, b, c


def _pair_matches(inst: TripleInstance, kind, form: RationalForm, N):
    """Whether the kind's pair is the direct and the reversed expansion of
    ``form`` on [-N, N]^2.

    Each expansion is made on that box alone, ``expand(mode, -N, N)``: it
    writes every tail power k whose head exponent is >= -N and whose tail
    exponent is <= N, so every coefficient with head >= -N and tail <= N is
    complete.  Wider expansion windows would add only coefficients that the
    comparison never reads.  The sides hold the whole generation window, so
    only their coefficients on the box are compared, none copied."""
    w = box(N, *PAIRS[kind].variables)
    return all(_box_coeffs(form.expand(mode, -N, N), w) == _box_coeffs(side, w)
               for mode, side in zip(("direct", "reversed"),
                                     inst.result(pair_sides, kind, inst.gen_hi)))


def _box_coeffs(series, w):
    """{exponents in the order of the square box ``w``'s two variables:
    coefficient} of ``series`` on ``w``, which it must know."""
    i, j = map(series.idx, w)
    return {(k[i], k[j]): c for k, c in series.nonzero_on(w)}


def reconstruct_form(inst: TripleInstance, kind, m, N):
    """From a pole witness, rebuild (p, a, b, c) and verify by re-expansion.

    Returns the reconstructed RationalForm in the statement's variable roles;
    raises ConsistencyViolationError if the re-expansions disagree with the
    instance (that would falsify the implication).
    """
    pair = PAIRS[kind]
    left, _ = inst.result(pair_sides, kind, inst.gen_hi)
    cleared = multiply(left, clearing(kind, m)) if m else left
    numerator, b, c = _collect_polynomial(cleared, pair.variables)
    form = RationalForm(numerator, m, b, c, kind)
    if not _pair_matches(inst, kind, form, N):
        raise ConsistencyViolationError(
            f"reconstructed {pair.name} form does not re-expand to the pair")
    return form


# ---------------------------------------------------------------------------
# hypothesis checks for (E)/(F)/(G) on generated instances

def check_EFG(inst: TripleInstance, which, N):
    """Verify the stored pair matches its form's two expansions on the window."""
    if inst.form is None:
        return False
    kind = {"E": "m1", "F": "m2", "G": "m3"}[which]
    return _pair_matches(inst, kind, statement_form(inst.form, kind), N)


# ---------------------------------------------------------------------------
# implication replays

IMPLICATIONS = ("ia", "ib", "ic", "iia", "iib", "iic", "iiia", "iiib", "iiic")


def replay_implication(which, inst: TripleInstance, N=8, m_max=None):
    """Replay one implication on an instance.

    Returns a record dict {hypothesis, verdict, and a reason or witness}.  A
    verified hypothesis with a failing conclusion raises
    ConsistencyViolationError: it would falsify the encoded theorem.  Each
    statement ((A), a pole witness, (E)/(F)/(G)) is computed once per instance
    and shared by every implication replayed on it; instances are immutable
    (``perturb_f`` returns a new one).
    """
    if m_max is None:
        m_max = (max(inst.form.a, inst.form.b, inst.form.c) + 2
                 if inst.form else N)
    rec = {}

    def need(hyp_ok, reason):
        if not hyp_ok:
            rec["hypothesis"] = "not-met"
            rec["verdict"] = "UNTESTED"
            rec["reason"] = reason
            return False
        rec["hypothesis"] = "met"
        return True

    if which in ("ia", "ib", "ic"):
        ok_A, witness = inst.result(check_A, N)
        if not need(ok_A, f"(A) fails at {witness}"):
            return rec
        kind = {"ia": "m1", "ib": "m2", "ic": "m3"}[which]
        m = inst.result(find_pole_witness, kind, m_max, N)
        if m is None:
            # (A) promises a witness only up to the pole order of the form
            if inst.form and m_max < statement_form(inst.form, kind).a:
                rec["verdict"] = "UNTESTED"
                rec["reason"] = f"m_max {m_max} is below the {kind} pole order"
                return rec
            raise ConsistencyViolationError(
                f"({which}) conclusion failed: no witness {kind} <= {m_max}")
        rec["verdict"] = "PASS"
        rec["witness"] = PoleWitness(m, kind)._asdict()
        return rec

    if which in ("iia", "iib", "iic"):
        kind = {"iia": "m1", "iib": "m2", "iic": "m3"}[which]
        m = inst.result(find_pole_witness, kind, m_max, N)
        if not need(m is not None, f"no pole witness {kind} <= {m_max}"):
            return rec
        reconstruct_form(inst, kind, m, N)  # raises on mismatch
        rec["verdict"] = "PASS"
        rec["witness"] = PoleWitness(m, kind)._asdict()
        return rec

    if which in ("iiia", "iiib", "iiic"):
        pair = {"iiia": ("E", "F"), "iiib": ("E", "G"), "iiic": ("F", "G")}[which]
        ok = all(inst.result(check_EFG, s, N) for s in pair)
        if not need(ok, f"instance does not satisfy ({pair[0]}) and ({pair[1]})"):
            return rec
        ok_A, witness = inst.result(check_A, N)
        if not ok_A:
            raise ConsistencyViolationError(
                f"({which}) conclusion failed: (A) breaks at {witness}")
        rec["verdict"] = "PASS"
        return rec

    raise ValueError(f"unknown implication {which!r}")
