"""Finite vertex structures, their actions, and exact axiom checkers.

A VertexStructure is a finite basis plus mode tables u_n v (finitely many
nonzero modes per pair, so every Y(u,x)v is a Laurent polynomial) and optional
vacuum data.  The derivation operator is always derived from the table
(D v = v_(-2) 1), never user-supplied.

A ModuleStructure is an action Y_W(u,x)w of a structure on a finite module
basis.  A structure *is* its own (regular) module: VertexStructure is the
ModuleStructure whose ``over`` is itself and whose module table is its own
table.  So the seven axioms stated for every module (Jacobi, the three weak
properties, vacuum-free skew symmetry, the vacuum property and the
D-derivative property) each have one checker, which runs on the structure or
the module itself.  The weak checkers read the same pair recipes
(``rationalforms.PAIRS``) as the (B)-(G) statements, on the slot triple of
the action at (u, v, w), and search their witnesses with the replays' own
``rationalforms.least_clearing_power``.  Within a ``shared_triples`` block (one
``check_all``, ``check_module_all`` or ``check`` command) the checkers share
one slot triple per (u, v, w), so each product is built once per member; the
triples are dropped when the block ends.

Jacobi is an identity of operators, linear in u, v and w, so it is checked
once per member, on the slots of every (u, v, w) stacked into Vec
coefficients over (u, v, w, w').  The weak checkers and vf_skew_symmetry stay
per w: ``zero_verdict`` decides an exact series on its whole support and any
other on the box, and whether a slot difference is exact depends on w, so a
stacked verdict could judge an exact component on the box only.

Checkers return PropertyReport records.  Identities between exact Laurent
polynomials are decided exactly; identities involving delta factors or
infinite expansions are decided coefficient-wise on a recorded window that
contains the full support of every term plus a completeness margin.
"""
from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from functools import cached_property
from math import factorial

from .deltacalc import (THREE_TERM, DeltaExpr, Term, identity_lhs, mono_of,
                        window_coeffs)
from .errors import ConsistencyViolationError, ConstructionError
from .rationalforms import (S1, S2, TripleInstance, box, check_A,
                            least_clearing_power, pole_statement,
                            three_term_series)
from .scalars import Vec, coeff_mul, linear_map
from .series import (INF, WindowedSeries, exp_endo, multiply,
                     taylor_substitute, zero_verdict)

AXIOMS = (
    "jacobi", "weak_comm", "weak_assoc", "weak_skew_assoc",
    "vf_skew_symmetry", "skew_symmetry", "d_derivative", "d_bracket",
    "vacuum_prop", "creation_prop", "strong_creation", "injectivity",
)

VACUUM_AXIOMS = {
    "skew_symmetry", "d_derivative", "d_bracket",
    "vacuum_prop", "creation_prop", "strong_creation",
}

ANCHORS = {
    "jacobi": "x0^-1 d((x1-x2)/x0) Y(u,x1)Y(v,x2) - x0^-1 d((-x2+x1)/x0) Y(v,x2)Y(u,x1) "
              "= x1^-1 d((x2+x0)/x1) Y(Y(u,x0)v,x2)",
    "weak_comm": "(x1-x2)^m [Y(u,x1), Y(v,x2)] = 0",
    "weak_assoc": "(x0+x2)^m (Y(u,x0+x2)Y(v,x2)w - Y(Y(u,x0)v,x2)w) = 0",
    "weak_skew_assoc": "(x1-x0)^m (Y(v,-x0+x1)Y(u,x1)w - Y(Y(u,x0)v,x1-x0)w) = 0",
    "vf_skew_symmetry": "Y(Y(u,x0)v,x2) = Y(Y(v,-x0)u,x2+x0)",
    "skew_symmetry": "Y(u,x)v = e^(xD) Y(v,-x)u",
    "d_derivative": "Y(Du,x) = d/dx Y(u,x)",
    "d_bracket": "[D, Y(u,x)] = d/dx Y(u,x)",
    "vacuum_prop": "Y(1,x) = id",
    "creation_prop": "Y(u,x)1 in V[[x]] and Y(u,0)1 = u",
    "strong_creation": "Y(u,x)1 = e^(xD) u",
    "injectivity": "u -> Y(u,x) is injective",
    "m_jacobi": "x0^-1 d((x1-x2)/x0) Yw(u,x1)Yw(v,x2)w - x0^-1 d((-x2+x1)/x0) "
                "Yw(v,x2)Yw(u,x1)w = x1^-1 d((x2+x0)/x1) Yw(Y(u,x0)v,x2)w",
    "m_weak_comm": "(x1-x2)^m [Yw(u,x1), Yw(v,x2)] = 0",
    "m_weak_assoc": "(x0+x2)^m (Yw(u,x0+x2)Yw(v,x2)w - Yw(Y(u,x0)v,x2)w) = 0",
    "m_weak_skew_assoc": "(x1-x0)^m (Yw(v,-x0+x1)Yw(u,x1)w - Yw(Y(u,x0)v,x1-x0)w) = 0",
    "m_vf_skew_symmetry": "Yw(Y(u,x0)v,x2) = Yw(Y(v,-x0)u,x2+x0)",
    "m_vacuum_prop": "Yw(1,x) = id",
    "m_d_derivative": "Yw(Dv,x) = d/dx Yw(v,x)",
}


class PropertyReport:
    __slots__ = ("axiom", "verdict", "witnesses", "window", "anchor")

    def __init__(self, axiom, verdict, witnesses=None, window=None):
        self.axiom = axiom
        self.verdict = verdict  # "PASS" | "FAIL" | "UNTESTED"
        self.witnesses = witnesses or {}
        self.window = window
        self.anchor = ANCHORS.get(axiom, axiom)

    def to_json(self):
        return {"axiom": self.axiom, "anchor": self.anchor,
                "verdict": self.verdict, "witness": self.witnesses,
                "window": self.window}

    def __repr__(self):
        return f"PropertyReport({self.axiom}: {self.verdict})"


# ---------------------------------------------------------------------------
# mode tables {(u, v): {n: Vec}}

def _clean_table(table):
    """Copy of a mode table without zero modes or empty pairs."""
    out = {}
    for pair, modes in table.items():
        clean = {n: vec for n, vec in modes.items() if vec}
        if clean:
            out[pair] = clean
    return out


def _pole_order(mode_dicts):
    """Largest n + 1 over the modes n >= 0 in ``mode_dicts``; 0 without any."""
    return max([0] + [max(modes, default=-1) + 1 for modes in mode_dicts])


def _support_extent(mode_dicts):
    """Largest |exponent| = |n + 1| over the modes in ``mode_dicts``, at least 1."""
    return max([1] + [abs(n + 1) for modes in mode_dicts for n in modes])


def _edited_table(table, edits):
    """Copy of a mode table with single-entry edits {(u, n, v): Vec-or-None}."""
    out = {pair: dict(modes) for pair, modes in table.items()}
    for (u, n, v), vec in edits.items():
        modes = out.setdefault((u, v), {})
        if vec:
            modes[n] = vec
        else:
            modes.pop(n, None)
    return out


class ModuleStructure:
    """An action Y_W(u,x)w of a VertexStructure on a finite module basis.

    u ranges over ``over.basis`` and w over ``wbasis``; ``ywtable`` holds the
    modes u_n w.  Iterates Y_W(Y(u,x0)v, x2)w take the inner Y from ``over``.
    """

    def __init__(self, name, over: VertexStructure, wbasis, ywtable, tags=()):
        self.name = name
        self.over = over
        self.wbasis = tuple(wbasis)
        self.ywtable = _clean_table(ywtable)
        self.tags = tuple(tags)
        self._triples = None

    def triple(self, u, v, w):
        """The slot triple at (u, v, w).  Inside ``shared_triples`` every
        checker reads one shared triple per (u, v, w); outside it each call
        builds a fresh one, so no products outlive the checks that read them."""
        if self._triples is None:
            return ActionTriple(self, u, v, w)
        key = (u, v, w)
        t = self._triples.get(key)
        if t is None:
            t = self._triples[key] = ActionTriple(self, u, v, w)
        return t

    @contextmanager
    def shared_triples(self):
        """Share slot triples between the checkers run inside this block,
        and drop them all when it ends."""
        self._triples = {}
        try:
            yield
        finally:
            self._triples = None

    def yw_modes(self, u, w):
        """Y_W(u,x)w as a dict exponent -> module Vec (exponent is -n-1)."""
        uvec = u if isinstance(u, Vec) else Vec.unit(u)
        wvec = w if isinstance(w, Vec) else Vec.unit(w)
        out = {}
        for a, ca in uvec.entries.items():
            for b, cb in wvec.entries.items():
                modes = self.ywtable.get((a, b))
                if not modes:
                    continue
                c = ca * cb
                for n, vec in modes.items():
                    e = -n - 1
                    prev = out.get(e)
                    add = vec.scale(c)
                    out[e] = add if prev is None else prev + add
        return {e: v for e, v in out.items() if v}

    def yw_series(self, u, w, xvar="x"):
        return WindowedSeries.from_monomials(
            (xvar,), {(e,): vec for e, vec in self.yw_modes(u, w).items()})

    def compose_yw(self, a, xa, b, xb, w):
        """Y_W(a,xa) Y_W(b,xb) w as an exact two-variable series."""
        inner = self.yw_modes(b, w)
        out = {}
        for eb, vec in inner.items():
            for ea, vec2 in self.yw_modes(a, vec).items():
                key = (ea, eb)
                prev = out.get(key)
                out[key] = vec2 if prev is None else prev + vec2
        return WindowedSeries.from_monomials((xa, xb), out)

    def iterate_yw(self, u, x0, v, x2, w):
        """Y_W(Y(u,x0)v, x2)w; the inner Y comes from the base structure."""
        inner = self.over.yw_modes(u, v)
        out = {}
        for e0, vec in inner.items():
            for e2, vec2 in self.yw_modes(vec, w).items():
                key = (e0, e2)
                prev = out.get(key)
                out[key] = vec2 if prev is None else prev + vec2
        return WindowedSeries.from_monomials((x0, x2), out)

    def max_pole_order(self):
        return _pole_order([*self.over.ywtable.values(), *self.ywtable.values()])

    def support_extent(self):
        return _support_extent([*self.over.ywtable.values(), *self.ywtable.values()])

    def mutate(self, name, edits, tags=()):
        """Copy with single-entry edits {(u, n, w): new Vec-or-None}."""
        return ModuleStructure(name, self.over, self.wbasis,
                               _edited_table(self.ywtable, edits), tags)


class VertexStructure(ModuleStructure):
    """Finite basis, finite mode tables, optional vacuum element.

    A structure is its own (regular) module: ``over`` is the structure
    itself, ``basis`` is ``wbasis`` and ``ytable`` is ``ywtable``, one
    cleaned table.  Y(u,x)v is Y_W(u,x)v, so every mode product and every
    shared checker is the module one.
    """

    def __init__(self, name, basis, ytable, vacuum=None, tags=()):
        super().__init__(name, self, basis, ytable, tags)
        self.basis = self.wbasis
        self.ytable = self.ywtable
        self.vacuum = vacuum
        self.one = Vec.unit(vacuum) if vacuum else None
        self.dop = self._derive_dop() if vacuum else None

    def _derive_dop(self):
        dop = {}
        for v in self.basis:
            img = self.ytable.get((v, self.vacuum), {}).get(-2)  # D v = v_(-2) 1
            if img:
                dop[v] = img
        # nilpotency and D(1) = 0 are derivable facts; assert them
        for v in self.basis:
            cur = Vec.unit(v)
            for _ in range(len(self.basis) + 1):
                cur = linear_map(dop, cur)
                if not cur:
                    break
            if cur:
                raise ConstructionError("derived derivation operator is not nilpotent")
        if linear_map(dop, self.one):
            raise ConstructionError("derived derivation does not annihilate the vacuum")
        return dop

    def d_apply(self, vec: Vec) -> Vec:
        return linear_map(self.dop, vec)

    def mutate(self, name, edits, tags=()):
        """Copy with single-entry edits {(u, n, v): new Vec-or-None}."""
        return VertexStructure(name, self.basis,
                               _edited_table(self.ytable, edits),
                               self.vacuum, tags)


# ---------------------------------------------------------------------------
# construction from commutative differential algebras and their actions

def _alg_mul(mult, x: Vec, y: Vec) -> Vec:
    """The bilinear map with basis products ``mult`` applied to (x, y)."""
    out = Vec()
    for a, ca in x.entries.items():
        for b, cb in y.entries.items():
            prod = mult.get((a, b))
            if prod:
                out = out + prod.scale(ca * cb)
    return out


def divided_power_table(basis, derivation, product, targets):
    """Mode table of Y(u,x)w = (e^(xD)u) . w, that is u_(-m-1) w = (D^m u/m!) . w.

    ``product`` maps (basis, target) pairs to Vecs.  A derivation that is not
    nilpotent within len(basis) steps is refused.
    """
    table = {}
    for u in basis:
        powers = []
        cur = Vec.unit(u)
        while cur:
            m = len(powers)
            if m > len(basis):
                raise ConstructionError("derivation is not nilpotent")
            powers.append(cur.scale(Fraction(1, factorial(m))) if m > 1 else cur)
            cur = linear_map(derivation, cur)
        for w in targets:
            modes = {}
            for m, dmu in enumerate(powers):
                img = _alg_mul(product, dmu, Vec.unit(w))
                if img:
                    modes[-m - 1] = img
            if modes:
                table[(u, w)] = modes
    return table


def borcherds_construct(name, basis, mult, derivation, unit=None, tags=()):
    """Vertex structure Y(u,x)v = (e^(xD) u) v from a commutative algebra.

    ``mult`` maps basis pairs to Vec products, ``derivation`` maps basis names
    to Vec images.  Commutativity, associativity, the Leibniz rule and
    nilpotency are verified on the basis; the unit (if given) becomes the
    vacuum element.  Without a unit the result is vacuum-free.
    """
    basis = tuple(basis)
    for a in basis:
        for b in basis:
            ab = mult.get((a, b), Vec())
            ba = mult.get((b, a), Vec())
            if ab != ba:
                raise ConstructionError(f"product not commutative at ({a},{b})")
    for a in basis:
        for b in basis:
            for c in basis:
                left = _alg_mul(mult, mult.get((a, b), Vec()), Vec.unit(c))
                right = _alg_mul(mult, Vec.unit(a), mult.get((b, c), Vec()))
                if left != right:
                    raise ConstructionError(f"product not associative at ({a},{b},{c})")
    for a in basis:
        for b in basis:
            lhs = linear_map(derivation, mult.get((a, b), Vec()))
            rhs = (_alg_mul(mult, derivation.get(a, Vec()), Vec.unit(b))
                   + _alg_mul(mult, Vec.unit(a), derivation.get(b, Vec())))
            if lhs != rhs:
                raise ConstructionError(f"derivation fails the Leibniz rule at ({a},{b})")
    if unit is not None:
        for b in basis:
            if mult.get((unit, b), Vec()) != Vec.unit(b):
                raise ConstructionError(f"unit law fails at {b}")
    ytable = divided_power_table(basis, derivation, mult, basis)
    return VertexStructure(name, basis, ytable, vacuum=unit, tags=tags)


def restrict(S: VertexStructure, sub_basis, name, tags=()):
    """Substructure on a basis subset; refused unless closed under all modes."""
    sub = set(sub_basis)
    table = {}
    for (u, v), modes in S.ytable.items():
        if u in sub and v in sub:
            for n, vec in modes.items():
                if not vec.support() <= sub:
                    raise ConstructionError(
                        f"not closed: ({u})_{n}({v}) leaves the span of {sorted(sub)}")
            table[(u, v)] = dict(modes)
    vac = S.vacuum if S.vacuum in sub else None
    return VertexStructure(name, tuple(sub_basis), table, vacuum=vac, tags=tags)


# ---------------------------------------------------------------------------
# verdict helpers

def default_window(A: ModuleStructure):
    return A.support_extent() + 2 * A.max_pole_order() + 2


def minimal_pole_order(S: VertexStructure, u, v):
    """Negative of the least power of x in Y(u,x)v when negative, else 0."""
    return _pole_order([S.ytable.get((u, v), {})])


# ---------------------------------------------------------------------------
# the seven checkers shared by structures and modules, each run on an action
# A and reporting under the name ``axiom`` it was asked for (jacobi for a
# structure, m_jacobi for a module, and so on)

# the Jacobi identity's three signed delta terms: exactly the expression
# that ``prove_identity("three-term")`` reduces to zero
JACOBI_DELTAS = identity_lhs(THREE_TERM)


def _jacobi_symbolic_zero(f12, g21, h20, N, memo=None):
    """Route 1's window coefficients (``deltacalc.window_coeffs``, given
    ``memo``) of f12, g21 and h20 times the three terms of
    ``JACOBI_DELTAS``, summed: every nonzero one on the box [-N, N]^3."""
    terms = []
    for series, t in zip((f12, g21, h20), JACOBI_DELTAS.terms):
        for key, c in series.coeffs.items():
            mono = mono_of(dict(zip(series.variables, key)))
            terms.append(Term(coeff_mul(c, t.coeff), mono, t.delta, ()))
    expr = DeltaExpr(terms, JACOBI_DELTAS.variables)
    return window_coeffs(expr, {v: (-N, N) for v in ("x0", "x1", "x2")}, memo)


class ActionTriple(TripleInstance):
    """The slot triple of action A at (u, v, w): f = Y(u,s1)Y(v,s2)w,
    g = Y(v,s1)Y(u,s2)w and h = Y(Y(u,s2)v,s1)w, each built on first use, so
    a weak checker builds only the two series its pair reads.  g is the f of
    the triple at (v, u, w), read through ``A.triple`` so that a shared triple
    builds each product once."""

    def __init__(self, A: ModuleStructure, u, v, w):
        self._results = {}
        self.A, self.u, self.v, self.w = A, u, v, w

    f = cached_property(lambda t: t.A.compose_yw(t.u, S1, t.v, S2, t.w))
    g = cached_property(lambda t: t.A.triple(t.v, t.u, t.w).f)
    h = cached_property(lambda t: t.A.iterate_yw(t.u, S2, t.v, S1, t.w))


def _stacked_triple(triples):
    """One TripleInstance whose f, g and h stack the slots of ``triples``
    {(u, v, w): triple}: the coefficient at each monomial is the Vec over
    labels (u, v, w, w') of every triple's coefficient there.  Each slot
    keeps its own variable order (h is stored over (s2, s1))."""
    slots = []
    for slot in ("f", "g", "h"):
        variables, stacked = None, {}
        for label, t in triples.items():
            series = getattr(t, slot)
            variables = series.variables
            for key, vec in series.coeffs.items():
                entries = stacked.setdefault(key, {})
                for b, c in vec.entries.items():
                    entries[(*label, b)] = c
        slots.append(WindowedSeries.from_monomials(
            variables, {key: Vec(e) for key, e in stacked.items()}))
    return TripleInstance(*slots)


def _slots(inst):
    """The Jacobi identity's three slot series of ``inst``, in its variables."""
    return inst.f_at("x1", "x2"), inst.g_at("x2", "x1"), inst.h_at("x2", "x0")


def _failing_pairs(coeffs):
    """The pairs (u, v) in the labels (u, v, w, w') of stacked coefficients."""
    return {label[:2] for c in coeffs.values() for label in c.entries}


def _jacobi_routes(inst, N, memo, axiom, where):
    """Route 1's verdict and first monomial on the triple ``inst``, after
    route 2 agreed with its verdict; a disagreement names ``where``."""
    # route 1: symbolic delta expansion with the window oracle
    out = _jacobi_symbolic_zero(*_slots(inst), N, memo)
    # route 2: concrete delta convolution via the (A)-checker
    ok_ser, _ = check_A(inst, N)
    if (not out) != ok_ser:
        raise ConsistencyViolationError(
            f"{axiom} routes disagree on ({','.join(map(str, where))}): "
            f"symbolic={not out} series={ok_ser}")
    return not out, out and dict(min(out))


def check_jacobi(A: ModuleStructure, axiom, m_max=None, window=None):
    """Jacobi checked once per member, on one stack of every (u, v, w).

    The identity is one of operators, linear in u, v and w.  Both routes
    decide coefficient by coefficient on the fixed box [-N, N]^3; stacked,
    each coefficient is the Vec over (u, v, w, w') of the triples' ones, and
    the routes only add and scale such Vecs, so label components never mix.
    So each route's failing pairs, read off its nonzero coefficients, are
    the pairs with a failing triple, and the two sets must be equal.  The
    first failing pair is rerun per w in ``wbasis`` order for the triple and
    route 1's monomial; a pair failing on no triple is a violation.
    """
    N = window or default_window(A)
    # Route 1 expands each term shape once per window, for this call only:
    # every coefficient is still recomputed by the oracle, independently of
    # ``series``, and no expansion outlives the check.
    memo = {}
    pairs = [(u, v) for u in A.over.basis for v in A.over.basis]
    triples = {(u, v, w): A.triple(u, v, w) for u, v in pairs for w in A.wbasis}
    if not triples:
        return PropertyReport(axiom, "PASS", {}, window=N)
    inst = _stacked_triple(triples)
    sym = _failing_pairs(_jacobi_symbolic_zero(*_slots(inst), N, memo))
    ser = _failing_pairs(three_term_series(inst, N).coeffs)
    if sym != ser:
        raise ConsistencyViolationError(f"{axiom} routes disagree on " + ", ".join(
            f"({u},{v}): symbolic={(u, v) not in sym} series={(u, v) not in ser}"
            for u, v in pairs if ((u, v) in sym) != ((u, v) in ser)))
    for u, v in (pair for pair in pairs if pair in sym):
        for w in A.wbasis:
            ok, mono = _jacobi_routes(triples[u, v, w], N, memo, axiom, (u, v, w))
            if not ok:
                return PropertyReport(
                    axiom, "FAIL", {"triple": (u, v, w), "monomial": mono}, window=N)
        raise ConsistencyViolationError(
            f"{axiom} fails on the stacked pair ({u},{v}) "
            "but on none of its triples")
    return PropertyReport(axiom, "PASS", {}, window=N)


WEAK_PAIRS = {"weak_comm": "m1", "weak_assoc": "m2", "weak_skew_assoc": "m3"}


def _weak_difference(A: ModuleStructure, axiom, u, v, w, N):
    """(difference series, clearing factor m -> series, window box) of a weak
    property; ``axiom`` is weak_comm / weak_assoc / weak_skew_assoc, with or
    without the m_ prefix.  The recipe is the property's pair in
    ``rationalforms.PAIRS``, on the action's slot triple, with tails cut at N."""
    kind = WEAK_PAIRS[axiom.removeprefix("m_")]
    return pole_statement(A.triple(u, v, w), kind, N, N)


def check_weak(A: ModuleStructure, axiom, m_max=None, window=None):
    """The three weak properties with minimal witnesses."""
    N = window or default_window(A)
    if m_max is None:
        m_max = A.max_pole_order() + 2
    witnesses = {}
    # per w, not stacked as in check_jacobi: whether zero_verdict judges a
    # difference on its whole support or on the box depends on w
    for u in A.over.basis:
        for v in A.over.basis:
            worst = 0
            for w in A.wbasis:
                m = least_clearing_power(
                    *_weak_difference(A, axiom, u, v, w, N), m_max)
                if m is None:
                    return PropertyReport(
                        axiom, "FAIL",
                        {"triple": (u, v, w), "m_max": m_max}, window=N)
                worst = max(worst, m)
            witnesses[f"{u},{v}"] = worst
    return PropertyReport(axiom, "PASS", {"min_m": witnesses}, window=N)


def check_vf_skew_symmetry(A: ModuleStructure, axiom, m_max=None, window=None):
    N = window or default_window(A)
    # per w for the reason check_weak gives
    for u in A.over.basis:
        for v in A.over.basis:
            for w in A.wbasis:
                # Y(Y(u,x0)v,x2)w and Y(Y(v,x0)u,t)w are slot h of two triples
                left = A.triple(u, v, w).h_at("x2", "x0")
                right = A.triple(v, u, w).h_at("t", "x0").flip_sign("x0")
                right = taylor_substitute(right, "t", (1, "x2"), (1, "x0"),
                                          {"x0": (INF, N)})
                ok, wit = zero_verdict(left - right, box(N, "x0", "x2"))
                if not ok:
                    return PropertyReport(
                        axiom, "FAIL",
                        {"triple": (u, v, w), "monomial": wit[0]}, window=N)
    return PropertyReport(axiom, "PASS", {}, window=N)


def check_vacuum_prop(A: ModuleStructure, axiom, m_max=None, window=None):
    for w in A.wbasis:
        if A.yw_modes(A.over.one, w) != {0: Vec.unit(w)}:
            return PropertyReport(axiom, "FAIL", {"element": w})
    return PropertyReport(axiom, "PASS", {})


def check_d_derivative(A: ModuleStructure, axiom, m_max=None, window=None):
    S = A.over
    for u in S.basis:
        du = S.dop.get(u, Vec())
        for w in A.wbasis:
            lhs = A.yw_series(du, w, "x") if du else WindowedSeries.zero(("x",))
            rhs = A.yw_series(u, w, "x").derivative("x")
            ok, wit = zero_verdict(lhs - rhs)
            if not ok:
                return PropertyReport(
                    axiom, "FAIL",
                    {"pair": (u, w), "monomial": wit[0]})
    return PropertyReport(axiom, "PASS", {})


ACTION_CHECKERS = {
    "jacobi": check_jacobi,
    "weak_comm": check_weak,
    "weak_assoc": check_weak,
    "weak_skew_assoc": check_weak,
    "vf_skew_symmetry": check_vf_skew_symmetry,
    "vacuum_prop": check_vacuum_prop,
    "d_derivative": check_d_derivative,
}


# ---------------------------------------------------------------------------
# the five checkers that only a structure has

def _exp_d_apply(S: VertexStructure, series: WindowedSeries, xvar):
    """e^(x D) applied to every coefficient of a one-variable series."""
    out = None
    for key, vec in series.coeffs.items():
        expd = exp_endo(S.dop, xvar, vec)
        shift = WindowedSeries.from_monomials((xvar,), {key: 1})
        piece = multiply(expd, shift)
        out = piece if out is None else out + piece
    return out if out is not None else WindowedSeries.zero((xvar,))


def check_skew_symmetry(S: VertexStructure, window=None):
    for u in S.basis:
        for v in S.basis:
            left = S.yw_series(u, v, "x")
            right = _exp_d_apply(S, S.yw_series(v, u, "x").flip_sign("x"), "x")
            ok, wit = zero_verdict(left - right)
            if not ok:
                return PropertyReport(
                    "skew_symmetry", "FAIL",
                    {"pair": (u, v), "monomial": wit[0]})
    return PropertyReport("skew_symmetry", "PASS", {})


def check_d_bracket(S: VertexStructure, window=None):
    for u in S.basis:
        for v in S.basis:
            yuv = S.yw_series(u, v, "x")
            d_of = WindowedSeries.from_monomials(
                ("x",), {k: S.d_apply(c) for k, c in yuv.coeffs.items()})
            y_dv = S.yw_series(u, S.dop.get(v, Vec()), "x") \
                if S.dop.get(v) else WindowedSeries.zero(("x",))
            lhs = d_of - y_dv
            rhs = yuv.derivative("x")
            ok, wit = zero_verdict(lhs - rhs)
            if not ok:
                return PropertyReport(
                    "d_bracket", "FAIL",
                    {"pair": (u, v), "monomial": wit[0]})
    return PropertyReport("d_bracket", "PASS", {})


def check_creation_prop(S: VertexStructure, window=None):
    for u in S.basis:
        modes = S.yw_modes(u, S.one)
        if any(e < 0 for e in modes):
            return PropertyReport(
                "creation_prop", "FAIL",
                {"element": u, "reason": "negative powers acting on the vacuum"})
        if modes.get(0, Vec()) != Vec.unit(u):
            return PropertyReport(
                "creation_prop", "FAIL",
                {"element": u, "reason": "constant term differs from u"})
    return PropertyReport("creation_prop", "PASS", {})


def check_strong_creation(S: VertexStructure, window=None):
    for u in S.basis:
        lhs = S.yw_series(u, S.one, "x")
        rhs = exp_endo(S.dop, "x", Vec.unit(u))
        ok, wit = zero_verdict(lhs - rhs)
        if not ok:
            return PropertyReport(
                "strong_creation", "FAIL",
                {"element": u, "monomial": wit[0]})
    return PropertyReport("strong_creation", "PASS", {})


def check_injectivity(S: VertexStructure, window=None):
    """Exact rank of v -> (mode table row of v) over the rationals."""
    columns = []
    row_index = {}
    for v in S.basis:
        col = {}
        for w in S.basis:
            for n, vec in S.ytable.get((v, w), {}).items():
                for b, c in vec.entries.items():
                    key = (w, n, b)
                    row_index.setdefault(key, len(row_index))
                    col[key] = c
        columns.append(col)
    rows = len(row_index)
    matrix = [[Fraction(0)] * len(S.basis) for _ in range(rows)]
    for j, col in enumerate(columns):
        for key, c in col.items():
            matrix[row_index[key]][j] = Fraction(c)
    rank = 0
    col = 0
    nrows = len(matrix)
    for col in range(len(S.basis)):
        pivot = None
        for r in range(rank, nrows):
            if matrix[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        pv = matrix[rank][col]
        for r in range(nrows):
            if r != rank and matrix[r][col]:
                factor = matrix[r][col] / pv
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[rank])]
        rank += 1
    if rank < len(S.basis):
        return PropertyReport("injectivity", "FAIL",
                              {"rank": rank, "dim": len(S.basis)})
    return PropertyReport("injectivity", "PASS", {"rank": rank})


STRUCTURE_CHECKERS = {
    "skew_symmetry": check_skew_symmetry,
    "d_bracket": check_d_bracket,
    "creation_prop": check_creation_prop,
    "strong_creation": check_strong_creation,
    "injectivity": check_injectivity,
}


def check_axiom(S: VertexStructure, axiom, m_max=None, window=None) -> PropertyReport:
    if axiom in VACUUM_AXIOMS and S.vacuum is None:
        return PropertyReport(axiom, "UNTESTED",
                              {"reason": "structure has no vacuum element"})
    if axiom in ACTION_CHECKERS:
        return ACTION_CHECKERS[axiom](S, axiom, m_max, window)
    if axiom in STRUCTURE_CHECKERS:
        return STRUCTURE_CHECKERS[axiom](S, window)
    raise ValueError(f"unknown axiom {axiom!r}")


def check_all(S: VertexStructure, m_max=None, window=None):
    with S.shared_triples():
        return {axiom: check_axiom(S, axiom, m_max, window) for axiom in AXIOMS}


# ---------------------------------------------------------------------------
# replacement rows

MINORS = ("vacuum_prop", "creation_prop", "injectivity")

ALGEBRA_ROWS = [
    ("two-of-three/ca", ("weak_comm", "weak_assoc"), ("jacobi",)),
    ("two-of-three/cs", ("weak_comm", "weak_skew_assoc"), ("jacobi",)),
    ("two-of-three/as", ("weak_assoc", "weak_skew_assoc"), ("jacobi",)),
    ("main-axiom-gives-weak", ("jacobi",),
     ("weak_comm", "weak_assoc", "weak_skew_assoc")),
    ("main-axiom-gives-vfss", ("jacobi",), ("vf_skew_symmetry",)),
    ("wa+vfss", ("weak_assoc", "vf_skew_symmetry"), ("jacobi",)),
    ("wsa+vfss", ("weak_skew_assoc", "vf_skew_symmetry"), ("jacobi",)),
    ("wc+vfss+inj", ("injectivity", "weak_comm", "vf_skew_symmetry"), ("jacobi",)),
    ("vacuum-from-creation", ("injectivity", "vf_skew_symmetry", "creation_prop"),
     ("vacuum_prop",)),
    ("creation-from-vacuum", ("injectivity", "vf_skew_symmetry", "vacuum_prop"),
     ("creation_prop",)),
    ("vfss-gives-minor-props", ("vacuum_prop", "injectivity", "vf_skew_symmetry"),
     ("strong_creation", "skew_symmetry", "d_derivative", "d_bracket")),
    ("ss+dder-gives-vfss", MINORS + ("skew_symmetry", "d_derivative"),
     ("vf_skew_symmetry",)),
    ("ss+dbracket-gives-vfss", MINORS + ("skew_symmetry", "d_bracket"),
     ("vf_skew_symmetry",)),
    ("sc-from-ss", MINORS + ("skew_symmetry",), ("strong_creation",)),
    ("sc-from-dbracket", MINORS + ("d_bracket",), ("strong_creation",)),
    ("sc-from-dder", MINORS + ("d_derivative",), ("strong_creation",)),
    ("ss-from-wc+dbracket", MINORS + ("weak_comm", "d_bracket"),
     ("skew_symmetry",)),
    ("wc+dbracket-gives-jacobi", MINORS + ("weak_comm", "d_bracket"), ("jacobi",)),
    ("jacobi-gives-wc+dbracket", MINORS + ("jacobi",),
     ("weak_comm", "d_bracket")),
    ("wa-gives-dder", MINORS + ("weak_assoc",), ("d_derivative",)),
    ("wa+sc-gives-dbracket", MINORS + ("weak_assoc", "strong_creation"),
     ("d_bracket",)),
    ("wa+ss-gives-jacobi", MINORS + ("weak_assoc", "skew_symmetry"), ("jacobi",)),
    ("jacobi-gives-wa+ss", MINORS + ("jacobi",), ("weak_assoc", "skew_symmetry")),
    ("wsa-gives-dder", MINORS + ("weak_skew_assoc",), ("d_derivative",)),
    ("wsa+ss-gives-dbracket", MINORS + ("weak_skew_assoc", "skew_symmetry"),
     ("d_bracket",)),
    ("wsa+dbracket-gives-ss", MINORS + ("weak_skew_assoc", "d_bracket"),
     ("skew_symmetry",)),
    ("wsa+ss-gives-jacobi", MINORS + ("weak_skew_assoc", "skew_symmetry"),
     ("jacobi",)),
    ("wsa+dbracket-gives-jacobi", MINORS + ("weak_skew_assoc", "d_bracket"),
     ("jacobi",)),
    ("jacobi-gives-wsa+ss+dbracket", MINORS + ("jacobi",),
     ("weak_skew_assoc", "skew_symmetry", "d_bracket")),
]


def replay_rows(member, rows, verdicts):
    """Replay replacement rows (id, premises, conclusions) on one member.

    If every premise checker passes, the conclusion checkers must pass; a
    premises-pass/conclusion-fails event raises ConsistencyViolationError
    with full diagnostics.  Rows whose premises are not all satisfied are
    reported UNTESTED for that member.
    """
    report = []
    for row_id, premises, conclusions in rows:
        prem = {p: verdicts[p].verdict for p in premises}
        if any(v != "PASS" for v in prem.values()):
            report.append({"member": member, "row": row_id,
                           "verdict": "UNTESTED", "premises": prem})
            continue
        concl = {c: verdicts[c].verdict for c in conclusions}
        if not all(v == "PASS" for v in concl.values()):
            raise ConsistencyViolationError(
                f"row {row_id} on {member}: premises pass {prem} "
                f"but conclusions fail {concl}")
        report.append({"member": member, "row": row_id,
                       "verdict": "PASS", "premises": prem})
    return report


def implication_matrix(corpus, m_max=None, window=None):
    """Replay every encoded replacement row on every corpus member."""
    report = []
    for S in corpus:
        report += replay_rows(S.name, ALGEBRA_ROWS, check_all(S, m_max, window))
    return report
