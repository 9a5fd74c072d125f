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

Instances are stored in slot variables ("s1", "s2"); a statement plugs the
slots with its own variables by renaming.  For a vertex structure acting on
w the slots hold f = Y(u,s1)Y(v,s2)w, g = Y(v,s1)Y(u,s2)w and
h = Y(Y(u,s2)v,s1)w.

The pairs of (B)-(G) are the three weak properties, the three pairwise views
of the one S3-symmetric Jacobi identity.  ``PAIRS`` writes each recipe once:
the pair variables, the clearing binomial and the two sides, each a slot
series in the pair variables, possibly with s1 substituted:

  m1  weak commutativity       f(x1,x2)      g(x2,x1)       (x1-x2)^m   (B), (E)
  m2  weak associativity       f(x0+x2,x2)   h(x2,x0)       (x0+x2)^m   (C), (F)
  m3  weak skew-associativity  g(-x0+x1,x1)  h(x1-x0,x0)    (-x0+x1)^m  (D), (G)

A pair statement reads one rational form over the binomial: the left side
is its "direct" expansion, the right side its "reversed" one.  The pole
witnesses, the reconstruction, (E)/(F)/(G), ``instance_from_form`` and the
weak-property checkers of ``structures`` all read the table.
"""
from __future__ import annotations

import random
from functools import partial
from typing import Callable, NamedTuple

from .errors import ConsistencyViolationError, WindowUnderflowError
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

S1, S2 = "s1", "s2"


class PoleWitness(NamedTuple):
    """A nonnegative pole-clearing exponent for one of the pair statements."""
    m: int
    kind: str  # "m1" (commutator), "m2" (associator), "m3" (skew)


class RationalForm:
    """p(v1,v2) / (binomial^a * v1^b * v2^c) with a two-way pole expansion.

    ``numerator`` maps (i, j) exponent pairs to coefficients; a, b, c are the
    nonnegative pole orders.  The binomial is that of pair ``kind`` in
    ``PAIRS`` (default m1: v1 - v2); mode "direct" expands with its head
    dominant, mode "reversed" with its tail dominant.
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

    def expand(self, mode, window_lo, window_hi, variables=(S1, S2)):
        """Windowed expansion; head exponents kept down to window_lo, tail up
        to window_hi.  Exact when a == 0."""
        v1, v2 = variables
        if mode not in ("direct", "reversed"):
            raise ValueError(f"unknown expansion mode {mode!r}")
        binomial = PAIRS[self.kind].binomial
        (hs, hvar), (ts, tvar) = binomial if mode == "direct" else binomial[::-1]
        names = {S1: v1, S2: v2}
        hvar, tvar = names[hvar], names[tvar]
        ih, it = variables.index(hvar), variables.index(tvar)
        coeffs, rows = {}, {}
        for (i, j), cnum in self.numerator.items():
            base = (i - self.b, j - self.c)
            # with poles the tail exponent rises and the head exponent
            # base[ih] - a - k falls by one per tail power k
            kmax = (min(window_hi - base[it], base[ih] - self.a - window_lo)
                    if self.a else 0)
            add_power(coeffs, rows, base, cnum, -self.a, (hs, ih), (ts, it), kmax)
        if self.a == 0:
            return WindowedSeries.from_monomials(variables, coeffs)
        window = {hvar: (window_lo, INF), tvar: (INF, window_hi)}
        shape = {hvar: (False, True), tvar: (True, False)}
        return WindowedSeries(variables, coeffs, window, shape)

    def to_json(self):
        return {
            "numerator": {f"{i},{j}": v for (i, j), v in sorted(self.numerator.items())},
            "a": self.a, "b": self.b, "c": self.c,
        }


def poly_compose_sum(numerator, which_arg):
    """Substitute one argument of a polynomial by a sum of the two variables.

    which_arg="first+second": p(u,w) -> p(u+w, w) over new vars (u, w);
    which_arg="second-minus": p(u,w) -> p(w, -u+w) over (u, w).
    """
    out, rows = {}, {}
    for (i, j), c in numerator.items():
        if which_arg == "first+second":
            # (u+w)^i w^j
            add_power(out, rows, (0, j), c, i, (1, 0), (1, 1), i)
        elif which_arg == "second-minus":
            # p(w, -u+w) = w^i (-u+w)^j
            add_power(out, rows, (0, i), c, j, (-1, 0), (1, 1), j)
        else:
            raise ValueError(which_arg)
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# the pair recipes

class Pair(NamedTuple):
    """The recipe of one pair statement; see the module docstring.

    A side is (slot, {slot: pair variable}, sub): the slot series renamed,
    and if ``sub`` is a (head, tail) pair of signed variables, with s1
    replaced by head + tail, expanded in nonnegative powers of the tail.
    """
    name: str          # the pair's name in consistency-violation messages
    variables: tuple   # the pair variables (v1, v2)
    binomial: tuple    # (head, tail) signed slots of head + tail (s1 is v1)
    left: tuple        # the side that is the "direct" expansion
    right: tuple       # the side that is the "reversed" expansion
    recast: Callable   # (p, a, b, c) of the (E) form -> those of this pair's


PAIRS = {
    "m1": Pair("commutator", ("x1", "x2"), ((1, S1), (-1, S2)),
               ("f", {S1: "x1", S2: "x2"}, None),
               ("g", {S1: "x2", S2: "x1"}, None),
               lambda p, a, b, c: (p, a, b, c)),
    "m2": Pair("associator", ("x0", "x2"), ((1, S1), (1, S2)),
               ("f", {S2: "x2"}, ((1, "x0"), (1, "x2"))),
               ("h", {S1: "x2", S2: "x0"}, None),
               lambda p, a, b, c: (poly_compose_sum(p, "first+second"), b, a, c)),
    "m3": Pair("skew", ("x0", "x1"), ((-1, S1), (1, S2)),
               ("g", {S2: "x1"}, ((-1, "x0"), (1, "x1"))),
               ("h", {S2: "x0"}, ((1, "x1"), (-1, "x0"))),
               lambda p, a, b, c: (poly_compose_sum(p, "second-minus"), c, a, b)),
}


def statement_form(form: RationalForm, kind):
    """The (E), (F) or (G) form of kind m1, m2 or m3: ``form``, taken as
    p / ((x1-x2)^a x1^b x2^c), rewritten in the pair variables."""
    return RationalForm(*PAIRS[kind].recast(form.numerator, form.a, form.b, form.c), kind)


def clearing(kind, m):
    """The kind's binomial to the power m, in its pair variables."""
    pair = PAIRS[kind]
    names = dict(zip((S1, S2), pair.variables))
    (hs, hslot), (ts, tslot) = pair.binomial
    return binomial_power(pair.variables, (hs, names[hslot]), (ts, names[tslot]), m)


def pair_sides(inst, kind, hi):
    """The kind's (left, right) series in its pair variables; a substituted
    side is expanded up to exponent ``hi`` of its tail variable."""
    sides = []
    for slot, rename, sub in (PAIRS[kind].left, PAIRS[kind].right):
        series = getattr(inst, slot).rename(rename)
        if sub is not None:
            head, tail = sub
            series = taylor_substitute(series, S1, head, tail, {tail[1]: (INF, hi)})
        sides.append(series)
    return tuple(sides)


class TripleInstance:
    """Concrete, immutable (f, g, h) in slot variables, with optional form and
    the generation windows gen_lo/gen_hi that the pair statements expand at."""

    def __init__(self, f, g, h, form=None, seed=None, gen_lo=None, gen_hi=None):
        self.f, self.g, self.h = f, g, h
        self.form = form
        self.seed = seed
        self.gen_lo = gen_lo
        self.gen_hi = gen_hi
        self._results = {}

    def result(self, fn, *args):
        """fn(self, *args), computed at most once per instance."""
        key = (fn, args)
        if key not in self._results:
            self._results[key] = fn(self, *args)
        return self._results[key]

    def f_at(self, v1, v2):
        return self.f.rename({S1: v1, S2: v2})

    def g_at(self, v1, v2):
        return self.g.rename({S1: v1, S2: v2})

    def h_at(self, v1, v2):
        return self.h.rename({S1: v1, S2: v2})

    def perturb_f(self, mono, value):
        """Add value * s1^i s2^j to f; the instance stops satisfying (A)."""
        coeffs = dict(self.f.coeffs)
        key = (mono[0], mono[1])
        coeffs[key] = coeffs.get(key, 0) + value
        f2 = WindowedSeries(self.f.variables, coeffs, self.f.window, self.f.shape)
        return TripleInstance(f2, self.g, self.h, None, self.seed,
                              self.gen_lo, self.gen_hi)


def windows_for(N, m_max, degree):
    """Generation windows guaranteeing every statement check at window N."""
    lo = -(2 * N + m_max + degree + 6)
    hi = N + m_max + degree + 6
    return lo, hi


def instance_from_form(form: RationalForm, N, m_max=None, seed=None):
    """Build the (E)/(F)/(G)-matched triple generated by a rational form."""
    if m_max is None:
        m_max = max(form.a, form.b, form.c) + 2
    lo, hi = windows_for(N, m_max, form.degree())
    # f(x1,x2) and g(x2,x1) are the two expansions of the (E) form and
    # h(x2,x0) the reversed one of the (F) form; g and h read their pair
    # variables with the slots swapped
    E, F = statement_form(form, "m1"), statement_form(form, "m2")
    f = E.expand("direct", lo, hi)
    g = E.expand("reversed", lo, hi, variables=(S2, S1))
    h = F.expand("reversed", lo, hi, variables=(S2, S1))
    return TripleInstance(f, g, h, form=form, seed=seed, gen_lo=lo, gen_hi=hi)


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
    return instance_from_form(form, N, seed=seed)


# ---------------------------------------------------------------------------
# statement checkers

def box(N, *variables):
    return {v: (-N, N) for v in variables}


def three_term_series(inst: TripleInstance, N):
    """The three-term delta combination of (f, g, h), written on [-N, N]^3."""
    return apply_delta(
        [(1, (1, "x1"), (-1, "x2"), "x0", inst.f_at("x1", "x2")),
         (-1, (-1, "x2"), (1, "x1"), "x0", inst.g_at("x2", "x1")),
         (-1, (1, "x2"), (1, "x0"), "x1", inst.h_at("x2", "x0"))],
        box(N, "x0", "x1", "x2"))


def check_A(inst: TripleInstance, N):
    """Verdict of the three-term delta combination on the window [-N, N]^3."""
    return zero_verdict(three_term_series(inst, N), box(N, "x0", "x1", "x2"))


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
    ``zero_verdict`` judges, and is None if none is, or the WindowUnderflowError
    of the m at which the windows ran out on the label.  Labels never mix, so
    each is decided as alone when all share the stack's exactness and windows,
    as one exactness class of the weak checkers does.  A replay instance is
    the unlabelled case: one label None on every coefficient."""
    least, open_ = {}, set(labels)
    for m in range(m_max + 1):
        failing = set()
        try:
            for _, c in judged_coeffs(multiply(diff, clear(m)) if m else diff, box):
                failing.update(labels_of(c))
                if open_ <= failing:
                    break
        except WindowUnderflowError:
            err = WindowUnderflowError(
                f"witness search at m={m} exceeded the known windows; "
                "regenerate the instance with larger windows")
            return least | dict.fromkeys(open_, err)
        least |= dict.fromkeys(open_ - failing, m)
        open_ &= failing
        if not open_:
            break
    return least | dict.fromkeys(open_)


def find_pole_witness(inst: TripleInstance, kind, m_max, N):
    """Smallest m <= m_max clearing the pole of the kind's pair difference."""
    m = least_clearing_power(*pole_statement(inst, kind, inst.gen_hi, N), m_max)[None]
    if isinstance(m, WindowUnderflowError):
        raise m
    return m


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
    variables = PAIRS[kind].variables
    w = box(N, *variables)
    return all(_box_coeffs(form.expand(mode, -N, N, variables), w) == _box_coeffs(side, w)
               for mode, side in zip(("direct", "reversed"),
                                     inst.result(pair_sides, kind, inst.gen_hi)))


def _box_coeffs(series, w):
    """{exponents in the order of the square box ``w``'s two variables:
    coefficient} of ``series`` on ``w``, which it must know."""
    series.require_known(w)
    (x, (lo, hi)), (y, _) = w.items()
    i, j = series.idx(x), series.idx(y)
    return {(k[i], k[j]): c for k, c in series.coeffs.items()
            if lo <= k[i] <= hi and lo <= k[j] <= hi}


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

    Returns a record dict {implication, hypothesis, verdict, artifacts}.  A
    verified hypothesis with a failing conclusion raises
    ConsistencyViolationError: it would falsify the encoded theorem.  Each
    statement ((A), a pole witness, (E)/(F)/(G)) is computed once per instance
    and shared by every implication replayed on it; instances are immutable
    (``perturb_f`` returns a new one).
    """
    if m_max is None:
        m_max = (max(inst.form.a, inst.form.b, inst.form.c) + 2
                 if inst.form else N)
    rec = {"implication": which, "window": N, "m_max": m_max}

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
        form = reconstruct_form(inst, kind, m, N)  # raises on mismatch
        rec["verdict"] = "PASS"
        rec["witness"] = PoleWitness(m, kind)._asdict()
        rec["form"] = form.to_json() if all(
            isinstance(v, int) for v in form.numerator.values()) else "vector"
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
