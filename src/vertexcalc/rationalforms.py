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
slots with its own variables by renaming.
"""
from __future__ import annotations

import random
from typing import NamedTuple

from .errors import ConsistencyViolationError, WindowUnderflowError
from .scalars import binom, coeff_add, coeff_mul
from .series import (
    INF,
    WindowedSeries,
    apply_delta,
    binomial_power,
    multiply,
    taylor_substitute,
)

S1, S2 = "s1", "s2"


class PoleWitness(NamedTuple):
    """A nonnegative pole-clearing exponent for one of the pair statements."""
    m: int
    kind: str  # "m1" (commutator), "m2" (associator), "m3" (skew)


class RationalForm:
    """p(v1,v2) / (binomial^a * v1^b * v2^c) with a two-way pole expansion.

    ``numerator`` maps (i, j) exponent pairs to coefficients; a, b, c are the
    nonnegative pole orders.  ``binom_head``/``binom_tail`` fix the binomial
    (default v1 - v2); mode "direct" expands with that head, mode "reversed"
    expands the opposite ordering of the same binomial.
    """

    def __init__(self, numerator, a, b, c, binom_head=(1, S1), binom_tail=(-1, S2)):
        if min(a, b, c) < 0:
            raise ValueError("pole orders must be nonnegative")
        if any(i < 0 or j < 0 for i, j in numerator):
            raise ValueError("numerator must be a polynomial")
        self.numerator = {k: v for k, v in numerator.items() if v}
        self.a, self.b, self.c = a, b, c
        self.binom_head = binom_head
        self.binom_tail = binom_tail

    def degree(self):
        if not self.numerator:
            return 0
        return max(max(i, j) for i, j in self.numerator)

    def expand(self, mode, window_lo, window_hi, variables=(S1, S2)):
        """Windowed expansion; head exponents kept down to window_lo, tail up
        to window_hi.  Exact when a == 0."""
        v1, v2 = variables
        if mode == "direct":
            (hs, hvar), (ts, tvar) = self.binom_head, self.binom_tail
        elif mode == "reversed":
            (hs, hvar), (ts, tvar) = (
                (self.binom_tail[0], self.binom_tail[1]),
                (self.binom_head[0], self.binom_head[1]))
        else:
            raise ValueError(f"unknown expansion mode {mode!r}")
        names = {S1: v1, S2: v2}
        hvar, tvar = names[hvar], names[tvar]
        ih = (variables.index(hvar), variables.index(tvar))
        coeffs = {}
        for (i, j), cnum in self.numerator.items():
            base = [i - self.b, j - self.c]
            if self.a == 0:
                key = tuple(base)
                coeffs[key] = coeffs.get(key, 0) + cnum
                continue
            kmax = window_hi - base[ih[1]]
            for k in range(0, kmax + 1):
                bc = binom(-self.a, k)
                if (-self.a - k) % 2 and hs < 0:
                    bc = -bc
                if k % 2 and ts < 0:
                    bc = -bc
                new = list(base)
                new[ih[0]] += -self.a - k
                new[ih[1]] += k
                if new[ih[0]] < window_lo:
                    continue
                key = tuple(new)
                val = coeff_mul(cnum, bc)
                prev = coeffs.get(key)
                coeffs[key] = val if prev is None else coeff_add(prev, val)
        if self.a == 0:
            return WindowedSeries.from_monomials(variables, coeffs)
        window = {hvar: (window_lo, INF), tvar: (INF, window_hi)}
        exact = {hvar: False, tvar: False}
        shape = {hvar: (False, True), tvar: (True, False)}
        return WindowedSeries(variables, coeffs, window, exact, shape)

    def to_json(self):
        return {
            "numerator": {f"{i},{j}": v for (i, j), v in sorted(self.numerator.items())},
            "a": self.a, "b": self.b, "c": self.c,
        }


def expand_rational_form(form: RationalForm, mode, window_lo, window_hi,
                         variables=(S1, S2)):
    return form.expand(mode, window_lo, window_hi, variables)


def poly_compose_sum(numerator, which_arg):
    """Substitute one argument of a polynomial by a sum of the two variables.

    which_arg="first+second": p(u,w) -> p(u+w, w) over new vars (u, w);
    which_arg="second-minus": p(u,w) -> p(w, -u+w) over (u, w).
    """
    out = {}
    for (i, j), c in numerator.items():
        if which_arg == "first+second":
            # (u+w)^i w^j
            for k in range(i + 1):
                key = (i - k, j + k)
                out[key] = out.get(key, 0) + c * binom(i, k)
        elif which_arg == "second-minus":
            # p(w, -u+w): w^i (-u+w)^j -> sum_k C(j,k) (-u)^(j-k) w^(i+k)
            for k in range(j + 1):
                sign = -1 if (j - k) % 2 else 1
                key = (j - k, i + k)
                out[key] = out.get(key, 0) + c * binom(j, k) * sign
        else:
            raise ValueError(which_arg)
    return {k: v for k, v in out.items() if v}


class TripleInstance:
    """Concrete, immutable (f, g, h) in slot variables, with optional form."""

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
        f2 = WindowedSeries(self.f.variables, coeffs, self.f.window,
                            self.f.exact, self.f.shape)
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
    p = form.numerator
    a, b, c = form.a, form.b, form.c
    f = RationalForm(p, a, b, c).expand("direct", lo, hi)
    # g(x2,x1) = p(x1,x2) / ((-x2+x1)^a x1^b x2^c): as a slot series,
    # g = p(s2,s1) * (-s1+s2)^-a * s2^-b * s1^-c
    p_t = {(j, i): v for (i, j), v in p.items()}
    g = RationalForm(p_t, a, c, b, binom_head=(-1, S1),
                     binom_tail=(1, S2)).expand("direct", lo, hi)
    # h(x2,x0) = p2(x0,x2) / (x0^a (x2+x0)^b x2^c), p2(x0,x2) = p(x0+x2,x2):
    # as a slot series, h = p2(s2,s1) * (s1+s2)^-b * s1^-c * s2^-a
    p2 = poly_compose_sum(p, "first+second")
    p2_t = {(j, i): v for (i, j), v in p2.items()}
    h = RationalForm(p2_t, b, c, a, binom_head=(1, S1),
                     binom_tail=(1, S2)).expand("direct", lo, hi)
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


def check_A(inst: TripleInstance, N):
    """Verdict of the three-term delta combination on the window [-N, N]^3."""
    w3 = box(N, "x0", "x1", "x2")
    t1 = apply_delta((1, "x1"), (-1, "x2"), "x0", inst.f_at("x1", "x2"), w3)
    t2 = apply_delta((-1, "x2"), (1, "x1"), "x0", inst.g_at("x2", "x1"), w3)
    t3 = apply_delta((1, "x2"), (1, "x0"), "x1", inst.h_at("x2", "x0"), w3)
    total = t1 - t2 - t3
    if total.is_zero_on(w3):
        return True, None
    return False, total.first_nonzero(w3)


def _pair_difference(inst: TripleInstance, kind, N, extra):
    """The series difference whose pole the witness must clear."""
    if kind == "m1":
        d = inst.f_at("x1", "x2") - inst.g_at("x2", "x1")
        clearing = lambda m: binomial_power(("x1", "x2"), (1, "x1"), (-1, "x2"), m)
        vars2 = ("x1", "x2")
    elif kind == "m2":
        fr = inst.f.rename({S2: "x2"})
        fsub = taylor_substitute(fr, S1, (1, "x0"), (1, "x2"),
                                 {"x2": (INF, N + extra)})
        d = fsub - inst.h_at("x2", "x0")
        clearing = lambda m: binomial_power(("x0", "x2"), (1, "x0"), (1, "x2"), m)
        vars2 = ("x0", "x2")
    elif kind == "m3":
        gr = inst.g.rename({S2: "x1"})
        gsub = taylor_substitute(gr, S1, (-1, "x0"), (1, "x1"),
                                 {"x1": (INF, N + extra)})
        hr = inst.h.rename({S2: "x0"})
        hsub = taylor_substitute(hr, S1, (1, "x1"), (-1, "x0"),
                                 {"x0": (INF, N + extra)})
        d = gsub - hsub
        clearing = lambda m: binomial_power(("x0", "x1"), (1, "x1"), (-1, "x0"), m)
        vars2 = ("x0", "x1")
    else:
        raise ValueError(f"unknown witness kind {kind!r}")
    return d, clearing, vars2


def find_pole_witness(inst: TripleInstance, kind, m_max, N):
    """Smallest m <= m_max clearing the pole of the kind's pair difference."""
    d, clearing, vars2 = _pair_difference(inst, kind, N, extra=m_max + 1)
    w2 = box(N, *vars2)
    for m in range(0, m_max + 1):
        prod = multiply(d, clearing(m)) if m else d
        try:
            if prod.is_zero_on(w2):
                return m
        except WindowUnderflowError:
            raise WindowUnderflowError(
                f"witness search at m={m} exceeded the known windows; "
                "regenerate the instance with larger windows")
    return None


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


def reconstruct_form(inst: TripleInstance, kind, m, N):
    """From a pole witness, rebuild (p, a, b, c) and verify by re-expansion.

    Returns the reconstructed RationalForm in the statement's variable roles;
    raises ConsistencyViolationError if the re-expansions disagree with the
    instance (that would falsify the implication).
    """
    if kind == "m1":
        F = inst.f_at("x1", "x2")
        P = multiply(F, binomial_power(("x1", "x2"), (1, "x1"), (-1, "x2"), m)) if m else F
        numerator, b, c = _collect_polynomial(P, ("x1", "x2"))
        form = RationalForm(numerator, m, b, c)
        lo, hi = inst.gen_lo, inst.gen_hi
        f_re = form.expand("direct", lo, hi)
        g_re = RationalForm({(j, i): v for (i, j), v in numerator.items()},
                            m, c, b, binom_head=(-1, S1), binom_tail=(1, S2)
                            ).expand("direct", lo, hi)
        ok_f = (f_re - inst.f).is_zero_on(box(N, S1, S2))
        ok_g = (g_re - inst.g).is_zero_on(box(N, S1, S2))
        if not (ok_f and ok_g):
            raise ConsistencyViolationError(
                "reconstructed commutator form does not re-expand to the pair")
        return form
    if kind == "m2":
        fr = inst.f.rename({S2: "x2"})
        fsub = taylor_substitute(fr, S1, (1, "x0"), (1, "x2"),
                                 {"x2": (INF, inst.gen_hi)})
        P = multiply(fsub, binomial_power(("x0", "x2"), (1, "x0"), (1, "x2"), m)) if m else fsub
        numerator, a, c = _collect_polynomial(P, ("x0", "x2"))
        # f(x0+x2, x2) = p2 / (x0^a (x0+x2)^m x2^c); h(x2,x0) uses (x2+x0)^m
        form = RationalForm(numerator, m, a, c)
        lo, hi = inst.gen_lo, inst.gen_hi
        f_re = RationalForm(numerator, m, a, c, binom_head=(1, S1),
                            binom_tail=(1, S2)).expand("direct", lo, hi)
        f_re = f_re.rename({S1: "x0", S2: "x2"})
        ok_f = (f_re - fsub).is_zero_on(box(N, "x0", "x2"))
        p_t = {(j, i): v for (i, j), v in numerator.items()}
        h_re = RationalForm(p_t, m, c, a, binom_head=(1, S1),
                            binom_tail=(1, S2)).expand("direct", lo, hi)
        ok_h = (h_re - inst.h).is_zero_on(box(N, S1, S2))
        if not (ok_f and ok_h):
            raise ConsistencyViolationError(
                "reconstructed associator form does not re-expand to the pair")
        return form
    if kind == "m3":
        gr = inst.g.rename({S2: "x1"})
        gsub = taylor_substitute(gr, S1, (-1, "x0"), (1, "x1"),
                                 {"x1": (INF, inst.gen_hi)})
        P = multiply(gsub, binomial_power(("x0", "x1"), (1, "x1"), (-1, "x0"), m)) if m else gsub
        numerator, a, b = _collect_polynomial(P, ("x0", "x1"))
        form = RationalForm(numerator, m, a, b)
        lo, hi = inst.gen_lo, inst.gen_hi
        g_re = RationalForm(numerator, m, a, b, binom_head=(-1, S1),
                            binom_tail=(1, S2)).expand("direct", lo, hi)
        g_re = g_re.rename({S1: "x0", S2: "x1"})
        ok_g = (g_re - gsub).is_zero_on(box(N, "x0", "x1"))
        hr = inst.h.rename({S2: "x0"})
        hsub = taylor_substitute(hr, S1, (1, "x1"), (-1, "x0"),
                                 {"x0": (INF, inst.gen_hi)})
        h_re = RationalForm(numerator, m, a, b, binom_head=(-1, S1),
                            binom_tail=(1, S2)).expand("reversed", lo, hi)
        h_re = h_re.rename({S1: "x0", S2: "x1"})
        ok_h = (h_re - hsub).is_zero_on(box(N, "x0", "x1"))
        if not (ok_g and ok_h):
            raise ConsistencyViolationError(
                "reconstructed skew form does not re-expand to the pair")
        return form
    raise ValueError(f"unknown witness kind {kind!r}")


# ---------------------------------------------------------------------------
# hypothesis checks for (E)/(F)/(G) on generated instances

def check_EFG(inst: TripleInstance, which, N):
    """Verify the stored pair matches its form's two expansions on the window."""
    if inst.form is None:
        return False
    p = inst.form.numerator
    a, b, c = inst.form.a, inst.form.b, inst.form.c
    lo, hi = inst.gen_lo, inst.gen_hi
    w = box(N, S1, S2)
    if which == "E":
        f_re = RationalForm(p, a, b, c).expand("direct", lo, hi)
        p_t = {(j, i): v for (i, j), v in p.items()}
        g_re = RationalForm(p_t, a, c, b, binom_head=(-1, S1),
                            binom_tail=(1, S2)).expand("direct", lo, hi)
        return (f_re - inst.f).is_zero_on(w) and (g_re - inst.g).is_zero_on(w)
    if which == "F":
        p2 = poly_compose_sum(p, "first+second")
        fr = inst.f.rename({S2: "x2"})
        fsub = taylor_substitute(fr, S1, (1, "x0"), (1, "x2"),
                                 {"x2": (INF, hi)})
        f_re = RationalForm(p2, b, a, c, binom_head=(1, S1),
                            binom_tail=(1, S2)).expand("direct", lo, hi)
        f_re = f_re.rename({S1: "x0", S2: "x2"})
        p2_t = {(j, i): v for (i, j), v in p2.items()}
        h_re = RationalForm(p2_t, b, c, a, binom_head=(1, S1),
                            binom_tail=(1, S2)).expand("direct", lo, hi)
        return ((f_re - fsub).is_zero_on(box(N, "x0", "x2"))
                and (h_re - inst.h).is_zero_on(w))
    if which == "G":
        p3 = poly_compose_sum(p, "second-minus")
        gr = inst.g.rename({S2: "x1"})
        gsub = taylor_substitute(gr, S1, (-1, "x0"), (1, "x1"),
                                 {"x1": (INF, hi)})
        g_re = RationalForm(p3, c, a, b, binom_head=(-1, S1),
                            binom_tail=(1, S2)).expand("direct", lo, hi)
        g_re = g_re.rename({S1: "x0", S2: "x1"})
        hr = inst.h.rename({S2: "x0"})
        hsub = taylor_substitute(hr, S1, (1, "x1"), (-1, "x0"),
                                 {"x0": (INF, hi)})
        h_re = RationalForm(p3, c, a, b, binom_head=(-1, S1),
                            binom_tail=(1, S2)).expand("reversed", lo, hi)
        h_re = h_re.rename({S1: "x0", S2: "x1"})
        return ((g_re - gsub).is_zero_on(box(N, "x0", "x1"))
                and (h_re - hsub).is_zero_on(box(N, "x0", "x1")))
    raise ValueError(f"unknown statement {which!r}")


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
