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
``rationalforms.least_clearing_power``.  Every slot series comes from one
builder, ``MemberStacks``, which makes slot f (and so g) of every triple in
one pass over the mode tables, and slot h (and so the swapped h) in another:
each inner product is a row of a mode table, and the outer table is applied
to its vectors as plain dicts.

``check_axiom`` is the one dispatcher, for either kind of member: AXIOMS on a
structure, MODULE_AXIOMS (``m_`` and an action checker's name) on a module.
The checks of one ``check_all`` or ``check`` command share one
``MemberStacks``, passed to each action checker: the member's slot series,
each built once, its f, g, h and swapped-h stacks, each slot's per-triple
flags of a negative s1 power, from which every exactness class is read, and
the route-1 memo of its Jacobi check.  Nothing is held on the member, so the
stacks die with the command.  ``replay_corpus`` hands every member's
``MemberStacks`` one route-1 memo, so the Jacobi checks of one command expand
each term shape once.

Jacobi, the weak properties and vf_skew_symmetry are identities of
operators, linear in u, v and w, so each is checked once per member, on slot
triples stacked into Vec coefficients keyed by the label ids of (u, v, w,
w') (``MemberStacks.label_ids``).  ``zero_verdict`` decides an exact series
on its whole support and any other on the box.  A weak or vf difference is
exact unless a side that substitutes s1 has a negative power of s1, so those
checkers stack each exactness class apart (which substituted sides have
one): within a class every stack has the same exactness, windows and shapes,
and each triple is decided as it is alone.  A class that covers the member
is decided on the member stack.  Each FAIL record must agree with a rerun
on its triple's own slot series, unstacked (``MemberStacks.own``).

Checkers return PropertyReport records.  Identities between exact Laurent
polynomials are decided exactly; identities involving delta factors or
infinite expansions are decided coefficient-wise on a recorded window, by
default ``default_window``: support_extent + 2 * max_pole_order + 2 of the
action's tables.  That this window suffices is not yet proved.
"""
from __future__ import annotations

from fractions import Fraction
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


def _modes(table, left, right):
    """Y(left,x)right as {exponent -n-1: {basis: coefficient}}: the mode
    table applied to plain dicts {basis: coefficient}.  The one raw kernel
    of ``yw_modes`` and the slot products; its sums may hold zeros and
    integral Fractions until a ``Vec`` is made of them."""
    out = {}
    for a, ca in left.items():
        for b, cb in right.items():
            modes = table.get((a, b))
            if not modes:
                continue
            c = ca * cb
            for n, vec in modes.items():
                acc = out.get(-n - 1)
                if acc is None:
                    acc = out[-n - 1] = {}
                for k, x in vec.entries.items():
                    acc[k] = acc.get(k, 0) + c * x
    return out


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

    def yw_modes(self, u, w):
        """Y_W(u,x)w as a dict exponent -> module Vec (exponent is -n-1)."""
        raw = _modes(self.ywtable, u.entries if type(u) is Vec else {u: 1},
                     w.entries if type(w) is Vec else {w: 1})
        return {e: vec for e, entries in raw.items() if (vec := Vec(entries))}

    def yw_series(self, u, w, xvar="x"):
        return WindowedSeries.from_monomials(
            (xvar,), {(e,): vec for e, vec in self.yw_modes(u, w).items()})

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
# A with its ``MemberStacks`` and reporting under the name ``axiom`` it was
# asked for (jacobi for a structure, m_jacobi for a module, and so on)

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


# the variables of each slot's series and stacks: h is stored over (s2, s1)
SLOT_VARIABLES = {"f": (S1, S2), "g": (S1, S2), "h": (S2, S1), "hs": (S2, S1)}


def _slot_products(A: ModuleStructure, kind, labels):
    """{(u, v, w): slot ``kind`` of ``A`` there} for each of ``labels``, as
    exact series: f = Y(u,s1)Y(v,s2)w over (s1, s2), or h = Y(Y(u,s2)v,s1)w
    over (s2, s1).  The inner product is a row of a mode table, Y(v,x)w of
    ``A`` for f and Y(u,x)v of ``A.over`` for h; the outer table is applied
    to each of its vectors as plain dicts (``_modes``), and each coefficient
    becomes a ``Vec`` once.  Triples without a term share one zero series."""
    variables = SLOT_VARIABLES[kind]
    table, out, zero = A.ywtable, {}, WindowedSeries.zero(variables)
    for u, v, w in labels:
        coeffs = {}
        if kind == "f":
            for n, vec in table.get((v, w), {}).items():
                for e, entries in _modes(table, {u: 1}, vec.entries).items():
                    coeffs[e, -n - 1] = Vec(entries)
        else:
            for n, vec in A.over.ywtable.get((u, v), {}).items():
                for e, entries in _modes(table, vec.entries, {w: 1}).items():
                    coeffs[-n - 1, e] = Vec(entries)
        out[u, v, w] = WindowedSeries.from_monomials(variables, coeffs) if coeffs else zero
    return out


class MemberStacks:
    """Every triple (u, v, w) of one member, in ``over.basis`` x ``over.basis``
    x ``wbasis`` order, with, per slot, its series by triple, its member stack
    and its exactness flags, each built on first use.  The slots are f, g, h
    and "hs", the swapped h: slot h of (v, u, w), labelled (u, v, w).  The
    first read of f or g builds slot f at every triple in one pass
    (``_slot_products``), the first read of h or hs slot h; g and hs are the
    f and h of the swapped triple, shared, not rebuilt.  A class stack is
    stacked afresh from the same series, keying each label by the same id
    (``label_ids``); the guards read a triple's own series (``own``).
    ``memo`` is the route-1 memo of the member's Jacobi check (see
    ``check_jacobi``): the one given, or a fresh dict."""

    def __init__(self, A: ModuleStructure, *, memo=None):
        self.A = A
        self.triples = [(u, v, w) for u in A.over.basis
                        for v in A.over.basis for w in A.wbasis]
        self.memo = {} if memo is None else memo
        self._series, self._stacks, self._flags, self._ids = {}, {}, {}, {}

    def label_ids(self):
        """{(u, v, w): {w': id of the label (u, v, w, w')}} of every triple,
        built on first use: the triple's index in ``triples`` times
        len(wbasis), plus the index of w' in ``wbasis``."""
        if not self._ids:
            nw = len(self.A.wbasis)
            self._ids = {t: dict(zip(self.A.wbasis, range(i * nw, i * nw + nw)))
                         for i, t in enumerate(self.triples)}
        return self._ids

    def triple_of(self, i):
        """The triple (u, v, w) of the label id ``i``."""
        return self.triples[i // len(self.A.wbasis)]

    def series(self, slot):
        """{(u, v, w): slot ``slot`` of the triple there}."""
        out = self._series.get(slot)
        if out is None:
            kind, swapped = ("f", "g") if slot in ("f", "g") else ("h", "hs")
            built = self._series[kind] = _slot_products(self.A, kind, self.triples)
            self._series[swapped] = {(u, v, w): built[v, u, w]
                                     for u, v, w in self.triples}
            out = self._series[slot]
        return out

    def stack(self, slot, labels=None):
        """Slot ``slot`` of the triples at ``labels`` stacked (``_stack``);
        labels that cover the member, or none, give the member stack."""
        if labels is not None and len(labels) < len(self.triples):
            return _stack(self, slot, labels)
        out = self._stacks.get(slot)
        if out is None:
            out = self._stacks[slot] = _stack(self, slot, self.triples)
        return out

    def instance(self, slots="fgh", labels=None):
        """A TripleInstance of the stacks of ``slots``; a slot not named is
        not read, and is None."""
        return TripleInstance(*(self.stack(s, labels) if s in slots else None
                                for s in "fgh"))

    def own(self, t, slots="fgh"):
        """A TripleInstance of the slot series of the triple ``t`` itself, not
        stacked: what every FAIL guard reruns on.  A slot not named is not
        read, and is None."""
        return TripleInstance(*(self.series(s)[t] if s in slots else None
                                for s in "fgh"))

    def flags(self, slot):
        """{(u, v, w): whether slot ``slot`` has a negative power of s1}.
        The slot series are exact ``from_monomials`` products, whose s1
        window is their support, so the window's low end tells."""
        out = self._flags.get(slot)
        if out is None:
            out = self._flags[slot] = {label: s.window[S1][0] < 0
                                       for label, s in self.series(slot).items()}
        return out

    def classes(self, substituted):
        """The labels split, in order, by exactness class: which of the slots
        ``substituted``, whose s1 gets substituted, have a negative power of
        s1, so that they expand without end and their difference is judged
        on the box, not on its whole support."""
        if not substituted:
            return [list(self.triples)]
        parts = {}  # every flag map is in the order of ``triples``
        for label, cls in zip(self.triples, zip(*(self.flags(s).values()
                                                   for s in substituted))):
            parts.setdefault(cls, []).append(label)
        return list(parts.values())


def _stack(member, slot, labels):
    """Slot ``slot`` of the triples at ``labels`` of ``member`` stacked, in
    the slot's variables, so no labels stack to zero: a member or class
    stack, whose coefficient at each monomial is the Vec over the label ids
    (``MemberStacks.label_ids``) of every triple's coefficient there."""
    series, label_ids, stacked = member.series(slot), member.label_ids(), {}
    for label in labels:
        ids = label_ids[label]
        for key, vec in series[label].coeffs.items():
            entries = stacked.setdefault(key, {})
            for b, c in vec.entries.items():
                entries[ids[b]] = c
    return WindowedSeries.from_monomials(
        SLOT_VARIABLES[slot], {key: Vec(e) for key, e in stacked.items()})


def _moved(axiom, triple, stacked, alone):
    """The violation of a guard rerun on ``triple`` alone that moved."""
    return ConsistencyViolationError(
        f"{axiom} stacking is inconsistent at ({','.join(map(str, triple))}): "
        f"{stacked}, {alone} on the triple alone")


def _slots(inst):
    """The Jacobi identity's three slot series of ``inst``, in its variables."""
    return inst.f_at("x1", "x2"), inst.g_at("x2", "x1"), inst.h_at("x2", "x0")


def _failing_triples(member, coeffs):
    """The triples (u, v, w) of the label ids in ``member``'s stacked coeffs."""
    return {member.triple_of(i)
            for i in set().union(*(c.entries for c in coeffs.values()))}


def check_jacobi(A: ModuleStructure, axiom, m_max, window, member):
    """Jacobi checked once per member, on one stack of every (u, v, w).

    The identity is one of operators, linear in u, v and w.  Both routes
    decide coefficient by coefficient on the fixed box [-N, N]^3; stacked,
    each coefficient is the Vec over the label ids of (u, v, w, w') of the
    triples' ones, and the routes only add and scale such Vecs, so labels
    never mix.  So each route's failing triples, read off its nonzero
    coefficients, are the triples that fail alone, and the two sets must be
    equal.  The FAIL record is the first failing triple in ``over.basis`` x
    ``over.basis`` x ``wbasis`` order, with the least monomial of route 1's
    stack whose Vec has a label of that triple.  Route 1 reruns on that
    triple's own slot series, not stacked, and must give the same monomial,
    or the stacking is a violation.
    """
    N = window or default_window(A)
    # Route 1 expands each term shape once per window and memo: the memo of
    # ``member``, one per command (``replay_corpus`` hands every member the
    # same).  The oracle still recomputes every coefficient, independently
    # of ``series``, and no expansion outlives the command.
    memo, triples = member.memo, member.triples
    inst = member.instance()
    out = _jacobi_symbolic_zero(*_slots(inst), N, memo)
    sym = _failing_triples(member, out)
    ser = _failing_triples(member, three_term_series(inst, N).coeffs)
    if sym != ser:
        raise ConsistencyViolationError(f"{axiom} routes disagree on " + ", ".join(
            f"({','.join(map(str, t))}): symbolic={t not in sym} series={t not in ser}"
            for t in triples if (t in sym) != (t in ser)))
    first = next((t for t in triples if t in sym), None)
    if first is None:
        return PropertyReport(axiom, "PASS", {}, window=N)
    ids = member.label_ids()[first].values()
    mono = min(key for key, c in out.items() if not c.entries.keys().isdisjoint(ids))
    alone = _jacobi_symbolic_zero(*_slots(member.own(first)), N, memo)
    if min(alone, default=None) != mono:
        raise _moved(axiom, first, f"first monomial {dict(mono)} on the member stack",
                     dict(min(alone)) if alone else "none")
    return PropertyReport(
        axiom, "FAIL", {"triple": first, "monomial": dict(mono)}, window=N)


WEAK_PAIRS = {"weak_comm": "m1", "weak_assoc": "m2", "weak_skew_assoc": "m3"}


def check_weak(A: ModuleStructure, axiom, m_max, window, member):
    """The three weak properties with minimal witnesses, searched once per
    member on one stack per exactness class (see the module docstring).
    The record is the first triple without a witness m <= m_max; rerun on
    its own series, it must still have none, or the stacking is a violation."""
    N = window or default_window(A)
    if m_max is None:
        m_max = A.max_pole_order() + 2
    kind = WEAK_PAIRS[axiom.removeprefix("m_")]
    pair = PAIRS[kind]
    slots = (pair.left[0], pair.right[0])
    subbed = [slot for slot, _, sub in (pair.left, pair.right) if sub]
    least = {}
    for part in member.classes(subbed):
        least |= least_clearing_power(
            *pole_statement(member.instance(slots, part), kind, N, N), m_max, part,
            lambda c: map(member.triple_of, c.entries))
    witnesses = dict.fromkeys(
        (f"{u},{v}" for u in A.over.basis for v in A.over.basis), 0)
    for t in member.triples:
        if isinstance(m := least[t], WindowUnderflowError):
            raise m
        if m is None:
            alone = least_clearing_power(
                *pole_statement(member.own(t, slots), kind, N, N), m_max)[None]
            if alone is not None:
                raise _moved(axiom, t, f"no witness m <= {m_max} on its class "
                             "stack", f"m = {alone}")
            return PropertyReport(
                axiom, "FAIL", {"triple": t, "m_max": m_max}, window=N)
        witnesses[f"{t[0]},{t[1]}"] = max(witnesses[f"{t[0]},{t[1]}"], m)
    return PropertyReport(axiom, "PASS", {"min_m": witnesses}, window=N)


def _vf_difference(h, hs, N):
    """Y(Y(u,x0)v,x2)w - Y(Y(v,-x0)u,x2+x0)w from slot h at (u, v, w) and
    ``hs``, slot h at (v, u, w): of one triple, or of a stack of them."""
    left = h.rename({S1: "x2", S2: "x0"})
    right = hs.rename({S1: "t", S2: "x0"}).flip_sign("x0")
    return left - taylor_substitute(right, "t", (1, "x2"), (1, "x0"),
                                    {"x0": (INF, N)})


def check_vf_skew_symmetry(A: ModuleStructure, axiom, m_max, window, member):
    """vf skew symmetry, checked once per member on one stack per exactness
    class (the right side substitutes s1 of slot h at (v, u, w)).  The
    record is the first failing triple and the least judged monomial of its
    class stack with a label of it; rerun alone, the triple must give the
    same monomial on its own series, or the stacking is a violation."""
    N = window or default_window(A)
    region, failing = box(N, "x0", "x2"), {}
    for part in member.classes(["hs"]):
        diff = _vf_difference(member.stack("h", part), member.stack("hs", part), N)
        failing |= dict.fromkeys(
            _failing_triples(member, dict(judged_coeffs(diff, region))), diff)
    first = next((t for t in member.triples if t in failing), None)
    if first is None:
        return PropertyReport(axiom, "PASS", {}, window=N)
    diff, ids = failing[first], member.label_ids()[first].values()
    mono = diff.monomial(min(key for key, c in judged_coeffs(diff, region)
                             if not c.entries.keys().isdisjoint(ids)))
    u, v, w = first
    _, alone = zero_verdict(_vf_difference(
        member.own(first, "h").h, member.own((v, u, w), "h").h, N), region)
    if alone is None or alone[0] != mono:
        raise _moved(axiom, first, f"first monomial {mono} on its class stack",
                     alone[0] if alone else "none")
    return PropertyReport(axiom, "FAIL", {"triple": first, "monomial": mono},
                          window=N)


def check_vacuum_prop(A: ModuleStructure, axiom, m_max, window, member):
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


def check_d_derivative(A: ModuleStructure, axiom, m_max, window, member):
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


MODULE_AXIOMS = tuple(f"m_{axiom}" for axiom in ACTION_CHECKERS)


def member_axioms(A: ModuleStructure):
    """The axioms of ``A``: AXIOMS on a structure, MODULE_AXIOMS on a module."""
    return AXIOMS if A.over is A else MODULE_AXIOMS


def check_axiom(A: ModuleStructure, axiom, m_max=None, window=None,
                stacks=None) -> PropertyReport:
    """``axiom`` of ``A``, one of ``member_axioms(A)``; an action checker
    reads ``stacks``, the ``MemberStacks`` of ``A``, or a fresh one.  An
    axiom that needs a vacuum is UNTESTED where ``A.over`` has none."""
    structure = A.over is A
    if axiom not in member_axioms(A):
        raise ValueError(f"unknown {'' if structure else 'module '}axiom {axiom!r}")
    name = axiom.removeprefix("m_")
    if name in VACUUM_AXIOMS and A.over.vacuum is None:
        return PropertyReport(axiom, "UNTESTED", {"reason": (
            "structure" if structure else "base structure") + " has no vacuum element"})
    if name in STRUCTURE_CHECKERS:
        return STRUCTURE_CHECKERS[name](A, window)
    return ACTION_CHECKERS[name](A, axiom, m_max, window, stacks or MemberStacks(A))


def check_all(A: ModuleStructure, m_max=None, window=None, memo=None):
    """Every axiom of ``A``, all reading one ``MemberStacks``; its Jacobi
    check hands route 1 ``memo``, if given."""
    stacks = MemberStacks(A, memo=memo)
    return {axiom: check_axiom(A, axiom, m_max, window, stacks)
            for axiom in member_axioms(A)}


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


def replay_rows(A: ModuleStructure, verdicts, m_max=None, window=None):
    """Replay the rows of the member ``A`` (``ROWS``: structure rows on a
    structure, module rows on a module) from its verdicts (named
    ``m_<axiom>`` on a module, whose row ids take ``m-``).  A row
    whose premises fail is UNTESTED.  Where they pass and its conclusions
    fail, and only there, ``A.over`` is checked on the row's base premises:
    one that does not pass makes the row UNTESTED, recorded as
    ``<over>/<axiom>``; if all pass, ConsistencyViolationError is raised.  An equivalence gives
    one record per conclusion, against the last."""
    level, ax, prefix = ("structure", "", "") if A.over is A else ("module", "m_", "m-")
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


def replay_corpus(corpus, m_max=None, window=None):
    """Replay every member's rows (``replay_rows``) on its ``check_all``
    verdicts.  The members' Jacobi checks share one route-1 memo, which dies
    with the call.  Module weak commutativity is never encoded as sufficient
    (with module skew-symmetry or otherwise): each module gets an UNTESTED
    record saying so, so that its absence is visible."""
    report, memo = [], {}
    for A in corpus:
        report += replay_rows(A, check_all(A, m_max, window, memo), m_max, window)
        if A.over is not A:
            report.append({"member": A.name, "row": "m-wc+vfss-not-encoded",
                           "verdict": "UNTESTED", "premises": {
                               "reason": "module weak commutativity is not a "
                                         "sufficient replacement; no such row exists"}})
    return report
