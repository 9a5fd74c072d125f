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
triples are dropped when the block ends.  ``implication_matrix`` and
``main_theorem_harness`` hand every member's block one route-1 memo, so the
Jacobi checks of one command expand each term shape once.

Jacobi, the weak properties and vf_skew_symmetry are identities of
operators, linear in u, v and w, so each is checked once per member, on slot
triples stacked into Vec coefficients over (u, v, w, w').  ``zero_verdict``
decides an exact series on its whole support and any other on the box.  A
weak or vf difference is exact unless a side that substitutes s1 has a
negative power of s1, so those checkers stack each exactness class apart
(which substituted sides have one): within a class every stack has the same
exactness, windows and shapes, and each triple is decided as it is alone.

Checkers return PropertyReport records.  Identities between exact Laurent
polynomials are decided exactly; identities involving delta factors or
infinite expansions are decided coefficient-wise on a recorded window, by
default ``default_window``: support_extent + 2 * max_pole_order + 2 of the
action's tables.  That this window suffices is not yet proved.
"""
from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from functools import cached_property
from math import factorial
from typing import NamedTuple

from .deltacalc import (THREE_TERM, DeltaExpr, Term, identity_lhs, mono_of,
                        window_coeffs)
from .errors import (ConsistencyViolationError, ConstructionError,
                     WindowUnderflowError)
from .rationalforms import (PAIRS, S1, S2, TripleInstance, box,
                            least_clearing_power, pole_statement,
                            three_term_series)
from .scalars import Vec, coeff_mul, linear_map
from .series import (INF, WindowedSeries, exp_endo, judged_coeffs, multiply,
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
        self._triples = self._memo = None

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
    def shared_triples(self, memo=None):
        """Share slot triples between the checkers run inside this block,
        and drop them all when it ends.  A Jacobi check inside the block
        hands route 1 ``memo`` (see ``check_jacobi``), or a fresh dict."""
        self._triples, self._memo = {}, memo
        try:
            yield
        finally:
            self._triples = self._memo = None

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


def _member_triples(A: ModuleStructure):
    """{(u, v, w): slot triple} of every (u, v, w), in ``over.basis`` x
    ``over.basis`` x ``wbasis`` order."""
    return {(u, v, w): A.triple(u, v, w)
            for u in A.over.basis for v in A.over.basis for w in A.wbasis}


def _stacked_triple(triples, slots="fgh"):
    """One TripleInstance whose ``slots`` stack those of ``triples``
    {(u, v, w): triple}: the coefficient at each monomial is the Vec over
    labels (u, v, w, w') of every triple's coefficient there.  Each slot
    keeps its own variable order (h is stored over (s2, s1)); a slot not
    named in ``slots`` is not read, and is None."""
    out = []
    for slot in "fgh":
        variables, stacked = None, {}
        for label, t in triples.items() if slot in slots else ():
            series = getattr(t, slot)
            variables = series.variables
            for key, vec in series.coeffs.items():
                entries = stacked.setdefault(key, {})
                for b, c in vec.entries.items():
                    entries[(*label, b)] = c
        out.append(WindowedSeries.from_monomials(
            variables, {key: Vec(e) for key, e in stacked.items()})
            if variables else None)
    return TripleInstance(*out)


def _classes(triples, substituted):
    """``triples`` {(u, v, w): triple} split, in order, by exactness class:
    which of the series ``substituted(label)``, whose s1 gets substituted,
    have a negative power of s1, so that they expand without end and their
    difference is judged on the box, not on its whole support.  The slot
    series are exact ``from_monomials`` products, whose s1 window is their
    support, so the window's low end tells."""
    parts = {}
    for label, t in triples.items():
        cls = tuple(s.window[S1][0] < 0 for s in substituted(label))
        parts.setdefault(cls, {})[label] = t
    return parts.values()


def _moved(axiom, triple, stacked, alone):
    """The violation of a guard rerun on ``triple`` alone that moved."""
    return ConsistencyViolationError(
        f"{axiom} stacking is inconsistent at ({','.join(map(str, triple))}): "
        f"{stacked}, {alone} on the triple alone")


def _slots(inst):
    """The Jacobi identity's three slot series of ``inst``, in its variables."""
    return inst.f_at("x1", "x2"), inst.g_at("x2", "x1"), inst.h_at("x2", "x0")


def _failing_triples(coeffs):
    """The triples (u, v, w) in the labels (u, v, w, w') of stacked coefficients."""
    return {label[:3] for c in coeffs.values() for label in c.entries}


def check_jacobi(A: ModuleStructure, axiom, m_max=None, window=None):
    """Jacobi checked once per member, on one stack of every (u, v, w).

    The identity is one of operators, linear in u, v and w.  Both routes
    decide coefficient by coefficient on the fixed box [-N, N]^3; stacked,
    each coefficient is the Vec over (u, v, w, w') of the triples' ones, and
    the routes only add and scale such Vecs, so label components never mix.
    So each route's failing triples, read off its nonzero coefficients, are
    the triples that fail alone, and the two sets must be equal.  The FAIL
    record is the first failing triple in ``over.basis`` x ``over.basis`` x
    ``wbasis`` order, with the least monomial of route 1's stack whose Vec
    has a label of that triple.  Route 1 reruns on that triple alone and
    must give the same monomial, or the stacking is a violation.
    """
    N = window or default_window(A)
    # Route 1 expands each term shape once per window and memo: one memo per
    # command (``implication_matrix``, ``main_theorem_harness``), else a fresh
    # one per check.  The oracle still recomputes every coefficient,
    # independently of ``series``, and no expansion outlives the command.
    memo = {} if A._memo is None else A._memo
    triples = _member_triples(A)
    if not triples:
        return PropertyReport(axiom, "PASS", {}, window=N)
    inst = _stacked_triple(triples)
    out = _jacobi_symbolic_zero(*_slots(inst), N, memo)
    sym = _failing_triples(out)
    ser = _failing_triples(three_term_series(inst, N).coeffs)
    if sym != ser:
        raise ConsistencyViolationError(f"{axiom} routes disagree on " + ", ".join(
            f"({','.join(map(str, t))}): symbolic={t not in sym} series={t not in ser}"
            for t in triples if (t in sym) != (t in ser)))
    first = next((t for t in triples if t in sym), None)
    if first is None:
        return PropertyReport(axiom, "PASS", {}, window=N)
    mono = min(key for key, c in out.items()
               if any(label[:3] == first for label in c.entries))
    alone = _jacobi_symbolic_zero(*_slots(triples[first]), N, memo)
    if min(alone, default=None) != mono:
        raise _moved(axiom, first, f"first monomial {dict(mono)} on the member stack",
                     dict(min(alone)) if alone else "none")
    return PropertyReport(
        axiom, "FAIL", {"triple": first, "monomial": dict(mono)}, window=N)


WEAK_PAIRS = {"weak_comm": "m1", "weak_assoc": "m2", "weak_skew_assoc": "m3"}


def _weak_witnesses(kind, triples, N, m_max):
    """{(u, v, w): least witness, None or WindowUnderflowError} of the weak
    property of pair ``kind`` in ``rationalforms.PAIRS``, searched on one
    stack of ``triples``, with tails cut at N."""
    pair = PAIRS[kind]
    inst = _stacked_triple(triples, (pair.left[0], pair.right[0]))
    return least_clearing_power(*pole_statement(inst, kind, N, N), m_max, triples,
                                lambda c: (label[:3] for label in c.entries))


def check_weak(A: ModuleStructure, axiom, m_max=None, window=None):
    """The three weak properties with minimal witnesses, searched once per
    member on one stack per exactness class (see the module docstring).
    The record is the first triple without a witness m <= m_max; rerun
    alone, it must still have none, or the stacking is a violation."""
    N = window or default_window(A)
    if m_max is None:
        m_max = A.max_pole_order() + 2
    kind = WEAK_PAIRS[axiom.removeprefix("m_")]
    subbed = [slot for slot, _, sub in (PAIRS[kind].left, PAIRS[kind].right) if sub]
    triples, least = _member_triples(A), {}
    for part in _classes(triples, lambda t: [getattr(triples[t], s) for s in subbed]):
        least |= _weak_witnesses(kind, part, N, m_max)
    witnesses = dict.fromkeys(
        (f"{u},{v}" for u in A.over.basis for v in A.over.basis), 0)
    for t in triples:
        if isinstance(m := least[t], WindowUnderflowError):
            raise m
        if m is None:
            alone = _weak_witnesses(kind, {t: triples[t]}, N, m_max)[t]
            if alone is not None:
                raise _moved(axiom, t, f"no witness m <= {m_max} on its class "
                             "stack", f"m = {alone}")
            return PropertyReport(
                axiom, "FAIL", {"triple": t, "m_max": m_max}, window=N)
        witnesses[f"{t[0]},{t[1]}"] = max(witnesses[f"{t[0]},{t[1]}"], m)
    return PropertyReport(axiom, "PASS", {"min_m": witnesses}, window=N)


def _vf_difference(triples, labels, N):
    """Y(Y(u,x0)v,x2)w - Y(Y(v,-x0)u,x2+x0)w stacked over ``labels``: slot h
    of each (u, v, w) and of (v, u, w), both labelled (u, v, w)."""
    left = _stacked_triple({t: triples[t] for t in labels}, "h").h_at("x2", "x0")
    right = _stacked_triple({(u, v, w): triples[v, u, w] for u, v, w in labels},
                            "h").h_at("t", "x0").flip_sign("x0")
    return left - taylor_substitute(right, "t", (1, "x2"), (1, "x0"),
                                    {"x0": (INF, N)})


def check_vf_skew_symmetry(A: ModuleStructure, axiom, m_max=None, window=None):
    """vf skew symmetry, checked once per member on one stack per exactness
    class (the right side substitutes s1 of slot h at (v, u, w)).  The
    record is the first failing triple and the least judged monomial of its
    class stack with a label of it; rerun alone, the triple must give the
    same monomial, or the stacking is a violation."""
    N = window or default_window(A)
    region, triples, failing = box(N, "x0", "x2"), _member_triples(A), {}
    for part in _classes(triples, lambda t: [triples[t[1], t[0], t[2]].h]):
        diff = _vf_difference(triples, part, N)
        failing |= dict.fromkeys(_failing_triples(dict(judged_coeffs(diff, region))), diff)
    first = next((t for t in triples if t in failing), None)
    if first is None:
        return PropertyReport(axiom, "PASS", {}, window=N)
    diff = failing[first]
    mono = diff.monomial(min(key for key, c in judged_coeffs(diff, region)
                             if any(label[:3] == first for label in c.entries)))
    _, alone = zero_verdict(_vf_difference(triples, [first], N), region)
    if alone is None or alone[0] != mono:
        raise _moved(axiom, first, f"first monomial {mono} on its class stack",
                     alone[0] if alone else "none")
    return PropertyReport(axiom, "FAIL", {"triple": first, "monomial": mono},
                          window=N)


def check_vacuum_prop(A: ModuleStructure, axiom, m_max=None, window=None):
    for w in A.wbasis:
        if A.yw_modes(A.over.one, w) != {0: Vec.unit(w)}:
            return PropertyReport(axiom, "FAIL", {"element": w})
    return PropertyReport(axiom, "PASS", {})


def _first_failing_pair(axiom, pairs, difference):
    """FAIL at the first pair whose ``difference`` series is nonzero, else PASS."""
    for pair in pairs:
        ok, wit = zero_verdict(difference(*pair))
        if not ok:
            return PropertyReport(axiom, "FAIL", {"pair": pair, "monomial": wit[0]})
    return PropertyReport(axiom, "PASS", {})


def check_d_derivative(A: ModuleStructure, axiom, m_max=None, window=None):
    S = A.over

    def difference(u, w):
        du = S.dop.get(u, Vec())
        lhs = A.yw_series(du, w, "x") if du else WindowedSeries.zero(("x",))
        return lhs - A.yw_series(u, w, "x").derivative("x")
    return _first_failing_pair(axiom, [(u, w) for u in S.basis for w in A.wbasis],
                               difference)


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
    return _first_failing_pair(
        "skew_symmetry", [(u, v) for u in S.basis for v in S.basis],
        lambda u, v: S.yw_series(u, v, "x")
        - _exp_d_apply(S, S.yw_series(v, u, "x").flip_sign("x"), "x"))


def check_d_bracket(S: VertexStructure, window=None):
    def difference(u, v):
        yuv = S.yw_series(u, v, "x")
        d_of = WindowedSeries.from_monomials(
            ("x",), {k: S.d_apply(c) for k, c in yuv.coeffs.items()})
        y_dv = S.yw_series(u, S.dop.get(v, Vec()), "x") \
            if S.dop.get(v) else WindowedSeries.zero(("x",))
        return d_of - y_dv - yuv.derivative("x")
    return _first_failing_pair("d_bracket", [(u, v) for u in S.basis for v in S.basis],
                               difference)


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
    """Exact rank of v -> (mode table row of v) over the rationals.  Each
    row, a Vec over (w, n, b), is reduced by the earlier pivots in order; a
    nonzero remainder becomes a pivot, scaled to 1 at its first key."""
    pivots = []
    for v in S.basis:
        row = Vec({(w, n, b): c for w in S.basis
                   for n, vec in S.ytable.get((v, w), {}).items()
                   for b, c in vec.entries.items()})
        for key, pivot in pivots:
            if key in row.entries:
                row = row - pivot.scale(row.entries[key])
        if row:
            key = next(iter(row.entries))
            pivots.append((key, row.scale(Fraction(1, row.entries[key]))))
    rank = len(pivots)
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


def check_all(S: VertexStructure, m_max=None, window=None, memo=None):
    """Every axiom of ``S``; its Jacobi check hands route 1 ``memo``, if given."""
    with S.shared_triples(memo):
        return {axiom: check_axiom(S, axiom, m_max, window) for axiom in AXIOMS}


# ---------------------------------------------------------------------------
# replacement statements

class Replacement(NamedTuple):
    """A row of REPLACEMENTS: where the premises pass, and the base structure
    ``over`` passes ``base``, the conclusions pass; an equivalence says
    instead that they all pass or all fail.  ``action`` rows hold for any
    action, a structure on itself or a module: they are the paper's
    vacuum-free replacements, the implications (A)-(G) of ``rationalforms``
    on the series f, g, h of one action, proved from those alone, so they
    need nothing of ``over``.  ``structure`` rows are the paper's
    replacements with a vacuum vector.  ``module`` rows are its final
    section, on a module W for a vertex algebra V (Jacobi identity, vacuum
    and creation properties; Lepowsky-Li 2004, ch. 3), so their base is
    ``VA``: given W's vacuum property, W's Jacobi identity, weak
    associativity and weak skew-associativity are equivalent (the main
    theorem), and each gives the D-derivative property."""
    id: str
    premises: tuple
    conclusions: tuple
    base: tuple = ()
    equivalence: bool = False


R = Replacement
MINORS = ("vacuum_prop", "creation_prop", "injectivity")
VA = ("jacobi", "vacuum_prop", "creation_prop")  # V is a vertex algebra

REPLACEMENTS = {
    "action": [
        R("two-of-three/ca", ("weak_comm", "weak_assoc"), ("jacobi",)),
        R("two-of-three/cs", ("weak_comm", "weak_skew_assoc"), ("jacobi",)),
        R("two-of-three/as", ("weak_assoc", "weak_skew_assoc"), ("jacobi",)),
        R("main-axiom-gives-weak", ("jacobi",), ("weak_comm", "weak_assoc", "weak_skew_assoc")),
        R("main-axiom-gives-vfss", ("jacobi",), ("vf_skew_symmetry",)),
        R("wa+vfss", ("weak_assoc", "vf_skew_symmetry"), ("jacobi",)),
        R("wsa+vfss", ("weak_skew_assoc", "vf_skew_symmetry"), ("jacobi",)),
    ],
    "structure": [
        R("wc+vfss+inj", ("injectivity", "weak_comm", "vf_skew_symmetry"), ("jacobi",)),
        R("vacuum-from-creation", ("injectivity", "vf_skew_symmetry", "creation_prop"),
          ("vacuum_prop",)),
        R("creation-from-vacuum", ("injectivity", "vf_skew_symmetry", "vacuum_prop"),
          ("creation_prop",)),
        R("vfss-gives-minor-props", ("vacuum_prop", "injectivity", "vf_skew_symmetry"),
          ("strong_creation", "skew_symmetry", "d_derivative", "d_bracket")),
        R("ss+dder-gives-vfss", MINORS + ("skew_symmetry", "d_derivative"),
          ("vf_skew_symmetry",)),
        R("ss+dbracket-gives-vfss", MINORS + ("skew_symmetry", "d_bracket"),
          ("vf_skew_symmetry",)),
        R("sc-from-ss", MINORS + ("skew_symmetry",), ("strong_creation",)),
        R("sc-from-dbracket", MINORS + ("d_bracket",), ("strong_creation",)),
        R("sc-from-dder", MINORS + ("d_derivative",), ("strong_creation",)),
        R("ss-from-wc+dbracket", MINORS + ("weak_comm", "d_bracket"), ("skew_symmetry",)),
        R("wc+dbracket-gives-jacobi", MINORS + ("weak_comm", "d_bracket"), ("jacobi",)),
        R("jacobi-gives-wc+dbracket", MINORS + ("jacobi",), ("weak_comm", "d_bracket")),
        R("wa-gives-dder", MINORS + ("weak_assoc",), ("d_derivative",)),
        R("wa+sc-gives-dbracket", MINORS + ("weak_assoc", "strong_creation"), ("d_bracket",)),
        R("wa+ss-gives-jacobi", MINORS + ("weak_assoc", "skew_symmetry"), ("jacobi",)),
        R("jacobi-gives-wa+ss", MINORS + ("jacobi",), ("weak_assoc", "skew_symmetry")),
        R("wsa-gives-dder", MINORS + ("weak_skew_assoc",), ("d_derivative",)),
        R("wsa+ss-gives-dbracket", MINORS + ("weak_skew_assoc", "skew_symmetry"),
          ("d_bracket",)),
        R("wsa+dbracket-gives-ss", MINORS + ("weak_skew_assoc", "d_bracket"),
          ("skew_symmetry",)),
        R("wsa+ss-gives-jacobi", MINORS + ("weak_skew_assoc", "skew_symmetry"), ("jacobi",)),
        R("wsa+dbracket-gives-jacobi", MINORS + ("weak_skew_assoc", "d_bracket"), ("jacobi",)),
        R("jacobi-gives-wsa+ss+dbracket", MINORS + ("jacobi",),
          ("weak_skew_assoc", "skew_symmetry", "d_bracket")),
    ],
    "module": [
        R("dder-from-wa", ("vacuum_prop", "weak_assoc"), ("d_derivative",), VA),
        R("dder-from-wsa", ("vacuum_prop", "weak_skew_assoc"), ("d_derivative",), VA),
        R("dder-from-main-axiom", ("vacuum_prop", "jacobi"), ("d_derivative",), VA),
        R("main/wa", ("vacuum_prop", "weak_assoc"), ("jacobi",), VA),
        R("main/wsa", ("vacuum_prop", "weak_skew_assoc"), ("jacobi",), VA),
        R("main/rev", ("vacuum_prop", "jacobi"), ("weak_assoc", "weak_skew_assoc"), VA),
        R("main-equivalence", ("vacuum_prop",),
          ("weak_assoc", "weak_skew_assoc", "jacobi"), VA, True),
    ],
}

# each report: the action rows, then its own; the module report has always
# opened with main-axiom-gives-weak
ROWS = {"structure": REPLACEMENTS["action"] + REPLACEMENTS["structure"],
        "module": sorted(REPLACEMENTS["action"],
                         key=lambda r: r.id != "main-axiom-gives-weak")
        + REPLACEMENTS["module"]}


def replay_rows(A: ModuleStructure, level, verdicts, m_max=None, window=None):
    """Replay the rows of ``level`` on the member ``A`` from its verdicts
    (named ``m_<axiom>`` on a module, whose row ids take ``m-``).  A row
    whose premises fail is UNTESTED.  Where they pass and its conclusions
    fail, and only there, ``A.over`` is checked on the row's base premises:
    one that does not pass makes the row UNTESTED, recorded as
    ``<over>/<axiom>``; if all pass, ConsistencyViolationError is raised.  An equivalence gives
    one record per conclusion, against the last."""
    ax, prefix = ("m_", "m-") if level == "module" else ("", "")
    report = []
    for row in ROWS[level]:
        prem = {ax + p: verdicts[ax + p].verdict for p in row.premises}
        concl = {ax + c: verdicts[ax + c].verdict for c in row.conclusions}
        tested = all(v == "PASS" for v in prem.values())
        held = {v == "PASS" for v in concl.values()}
        failing = {}
        if tested and (len(held) > 1 if row.equivalence else False in held):
            base = {f"{A.over.name}/{b}": check_axiom(A.over, b, m_max, window).verdict
                    for b in row.base}
            failing = {k: v for k, v in base.items() if v != "PASS"}
            if not failing:
                raise ConsistencyViolationError(
                    f"row {prefix}{row.id} on {A.name}: premises pass {prem} but "
                    f"conclusions fail {concl}" + (f"; base passes {base}" if base else ""))
        *sides, last = concl
        records = [(f"/{s}", {"minors": tested, s: concl[s], last: concl[last]})
                   for s in sides] if row.equivalence else [("", prem)]
        report += [{"member": A.name, "row": prefix + row.id + suffix,
                    "verdict": "PASS" if tested and not failing else "UNTESTED",
                    "premises": {**p, **failing}} for suffix, p in records]
    return report


def implication_matrix(corpus, m_max=None, window=None):
    """Replay the action and structure rows on every corpus member.  The
    members' Jacobi checks share one route-1 memo, which dies with the call."""
    memo = {}
    return [record for S in corpus for record in replay_rows(
        S, "structure", check_all(S, m_max, window, memo), m_max, window)]
