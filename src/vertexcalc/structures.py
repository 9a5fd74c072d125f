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
the module itself.  The Jacobi identity is written once, as
``rationalforms.JACOBI``, the three terms that ``deltacalc.prove_identity``
proves.  Every slot series lives in the variables of the term that it
multiplies (``SLOT_VARIABLES``), so route 2 of the Jacobi checker,
``rationalforms.three_term_series``, applies the terms to the slots as they
are.  The slots are Laurent polynomials, so Jacobi, the weak properties and
vf skew symmetry are decided exactly, by the closed forms of
``rationalforms.exact_difference``, and a windowed route on the series layer
cross-checks each: route 2 for Jacobi, the pair recipes
(``rationalforms.PAIRS``) for the weak properties and the difference of the
h stacks for vf skew symmetry, each searched with the replays'
``rationalforms.least_clearing_power``.  Every slot product
comes from one loop over the mode tables, ``_products``: each inner product
is a row of a mode table, and the outer table is applied to its vectors as
plain dicts.  ``MemberStacks`` writes the f and g stacks from one pass of it,
and the h and swapped-h stacks from another.

Every axiom has one checker in one table, ``CHECKERS``, in the order of
AXIOMS; each takes (A, axiom, member) and reports under ``axiom``.
``check_axiom`` is the one dispatcher, for either kind of member: AXIOMS
on a structure, MODULE_AXIOMS (``m_`` and the name of one of
the seven axioms of every action) on a module.  The checks of one
``check_all`` or ``check`` command share one ``MemberStacks``, passed to
each checker: its f, g, h and swapped-h stacks, each written once.  Nothing
is held on the member, so the stacks die with the command.

Jacobi, the weak properties and vf_skew_symmetry are identities of
operators, linear in u, v and w, so each is checked once per member, on slot
triples stacked into Vec coefficients keyed by the label ids of (u, v, w,
w') (``MemberStacks.label_ids``); labels never mix, so the exact route
decides each triple as it is alone.  All five share one checker,
``check_stacked``, which reads one row of the table ``STACKED`` per axiom:
the slots it stacks, its exact decider and its windowed statement.  One rule
ties the windowed route to the exact one, and one FAIL guard reruns one
triple, the first that fails, on its own slot series (``MemberStacks.own``),
which must agree with the stack.

The four D axioms (skew symmetry, the D-derivative and D-bracket properties,
strong creation) are decided on the mode tables by their component
identities: every sum in them is finite, as D is nilpotent (``divided_powers``).

Checkers return PropertyReport records, and every verdict is exact.  The
recorded window is the box that the windowed routes read, the member's
``default_window``, support_extent + 2 * max_pole_order + 2 of the action's
tables: no command sets it.  Each check tests that they see on it every
exact FAIL and witness, and a FAIL record's monomial is read on it.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import factorial
from typing import NamedTuple

from .deltacalc import mono_of
from .errors import ConsistencyViolationError, ConstructionError
from .rationalforms import (PAIRS, SLOT_VARIABLES, TripleInstance, box, exact_jacobi,
                            exact_vf, exact_weak_assoc, exact_weak_comm,
                            exact_weak_skew_assoc, least_clearing_power,
                            pole_statement, three_term_series)
from .scalars import Vec, linear_map
from .series import INF, WindowedSeries, judged_coeffs, taylor_substitute

NOT_NILPOTENT = "derived derivation operator is not nilpotent"

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
        """D v = v_(-2) 1, refused unless it is nilpotent and kills the vacuum.
        Refusing a D that is not nilpotent (basis (1, a), a_(-2) 1 = a) is a
        decision: such a member could be judged, as the vacuum-free axioms
        never read D and the D axioms stay finite mode identities."""
        dop = {v: img for v in self.basis
               if (img := self.ytable.get((v, self.vacuum), {}).get(-2))}  # D v = v_(-2) 1
        for v in self.basis:
            divided_powers(dop, Vec.unit(v), len(self.basis), NOT_NILPOTENT)
        if linear_map(dop, self.one):
            raise ConstructionError("derived derivation does not annihilate the vacuum")
        return dop

    def exp_d(self, vec: Vec):
        """[D^j vec / j!], the coefficients of e^(xD) vec: finitely many."""
        return divided_powers(self.dop, vec, len(self.basis), NOT_NILPOTENT)

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


def divided_powers(derivation, vec, bound, refusal):
    """[D^j vec / j!] for j = 0, 1, ... up to the last nonzero one, D the
    linear map with basis images ``derivation``.  D^(bound + 1) vec must
    vanish, else ConstructionError(refusal): a bound of at least the
    dimension accepts exactly the nilpotent D."""
    powers, cur = [], vec
    while cur:
        j = len(powers)
        if j > bound:
            raise ConstructionError(refusal)
        powers.append(cur.scale(Fraction(1, factorial(j))) if j > 1 else cur)
        cur = linear_map(derivation, cur)
    return powers


def divided_power_table(basis, derivation, product, targets):
    """Mode table of Y(u,x)w = (e^(xD)u) . w, that is u_(-m-1) w = (D^m u/m!) . w.

    ``product`` maps (basis, target) pairs to Vecs.  A derivation that is not
    nilpotent within len(basis) steps is refused.
    """
    table = {}
    for u in basis:
        powers = divided_powers(derivation, Vec.unit(u), len(basis),
                                "derivation is not nilpotent")
        for w in targets:
            modes = {-m - 1: img for m, dmu in enumerate(powers)
                     if (img := _alg_mul(product, dmu, Vec.unit(w)))}
            if modes:
                table[(u, w)] = modes
    return table


def _associative(basis, mult, action, targets, refusal):
    """Refuse (ConstructionError(refusal), at the first basis triple that
    fails) an ``action`` on ``targets`` that is not associative over the
    product ``mult`` of ``basis``: (ab).w = a.(b.w)."""
    for a, b, w in itertools.product(basis, basis, targets):
        if (_alg_mul(action, mult.get((a, b), Vec()), Vec.unit(w))
                != _alg_mul(action, Vec.unit(a), action.get((b, w), Vec()))):
            raise ConstructionError(f"{refusal} at ({a},{b},{w})")


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
    _associative(basis, mult, mult, basis, "product not associative")
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


def module_construct(S: VertexStructure, mult, derivation, wbasis, action,
                     name, tags=()):
    """Module Y_W(u,x)w = (e^(xD)u) . w from an algebra action: ``action``
    maps (algebra basis, module basis) to module Vecs, and must be associative
    over the product ``mult`` of the algebra (``_associative``), whose
    ``derivation`` acts on the algebra side only."""
    wbasis = tuple(wbasis)
    _associative(S.basis, mult, action, wbasis, "action not associative over the product")
    ywtable = divided_power_table(S.basis, derivation, action, wbasis)
    return ModuleStructure(name, S, wbasis, ywtable, tags=tags)


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


# ---------------------------------------------------------------------------
# the seven checkers shared by structures and modules, each run on an action
# A with its ``MemberStacks`` and reporting under the name ``axiom`` it was
# asked for (jacobi for a structure, m_jacobi for a module, and so on)

def _products(A: ModuleStructure, kind, triples):
    """Each product (triple, (outer, inner) exponent, {basis: coefficient}) of
    slot ``kind`` of ``A`` at each of ``triples``, f = Y(u,x1)Y(v,x2)w or h =
    Y(Y(u,x0)v,x2)w, whose exponents, its (head, tail), are distinct within a
    triple.  The inner product is a row of a mode table, Y(v,x)w of ``A`` for
    f and Y(u,x)v of ``A.over`` for h, and the outer table is applied to its
    vectors as plain dicts (``_modes``): a coefficient may hold zeros and
    integral Fractions until a ``Vec`` is made of it."""
    table = A.ywtable
    for t in triples:
        u, v, w = t
        inner = table.get((v, w), {}) if kind == "f" else A.over.ywtable.get((u, v), {})
        for n, vec in inner.items():
            outer = (_modes(table, {u: 1}, vec.entries) if kind == "f"
                     else _modes(table, vec.entries, {w: 1}))
            for e, entries in outer.items():
                yield t, (e, -n - 1), entries


class MemberStacks:
    """Every triple (u, v, w) of one member, in ``over.basis`` x ``over.basis``
    x ``wbasis`` order, listed on first read (so a check that reads no stack
    never lists them), and the member stack of each slot, f, g, h or "hs",
    the swapped h (slot h of (v, u, w), labelled (u, v, w)): the first read
    of f or g writes both, and of h or hs both of those (``_stacks``), each
    keying a label by its id (``label_ids``).  The guards read a triple's
    own series (``own``), and all read the member's ``window``."""

    def __init__(self, A: ModuleStructure):
        self.A = A
        self._stacks, self._ids = {}, {}

    @cached_property
    def window(self):
        """The member's ``default_window``, read off its tables once."""
        return default_window(self.A)

    @cached_property
    def triples(self):
        A = self.A
        return [(u, v, w) for u in A.over.basis for v in A.over.basis for w in A.wbasis]

    def label_ids(self):
        """{(u, v, w): {w': id of the label (u, v, w, w')}} of every triple,
        built on first use: the triple's index in ``triples`` times
        len(wbasis), plus the index of w' in ``wbasis``."""
        if not self._ids:
            nw = len(self.A.wbasis)
            self._ids = {t: dict(zip(self.A.wbasis, range(i * nw, i * nw + nw)))
                         for i, t in enumerate(self.triples)}
        return self._ids

    def stack(self, slot):
        """The member stack of slot ``slot``; the first read of a slot writes
        it with its swapped slot (``_stacks``)."""
        if slot not in self._stacks:
            self._stacks.update(_stacks(self, "f" if slot in ("f", "g") else "h"))
        return self._stacks[slot]

    def instance(self, slots=("f", "g", "h")):
        """A TripleInstance of the stacks of ``slots``, of f, g, h and hs; a
        slot not named is not read, and is None."""
        return TripleInstance(**{s: self.stack(s) if s in slots else None
                                 for s in SLOT_VARIABLES})

    def own(self, t):
        """A TripleInstance of the slot series of the triple ``t`` itself, not
        stacked: ``_products`` run on ``t`` alone, g and hs being f's and h's
        at (v, u, w) read by position.  What every FAIL guard reruns on, apart
        from the stack writer."""
        u, v, w = t
        return TripleInstance(**{slot: WindowedSeries(SLOT_VARIABLES[slot], {
            key: Vec(c) for _, key, c in _products(self.A, kind, [at])})
            for slot, kind, at in (("f", "f", t), ("g", "f", (v, u, w)),
                                   ("h", "h", t), ("hs", "h", (v, u, w)))})


def _stacks(member, kind):
    """{slot: member stack} of slot ``kind``, f or h, and of its swap, g or hs,
    from one pass of ``_products`` over ``member``: a product at (u, v, w) is
    the coefficient of the labels of (u, v, w) in one and of (v, u, w) in the
    other.  A stack is in its slot's variables, and its coefficient at each
    monomial is the Vec over label ids (``MemberStacks.label_ids``), so no
    labels stack to zero."""
    ids, stacked, swapped = member.label_ids(), {}, {}
    for (u, v, w), key, entries in _products(member.A, kind, member.triples):
        here, there = ids[u, v, w], ids[v, u, w]
        row, row_swapped = stacked.setdefault(key, {}), swapped.setdefault(key, {})
        for b, c in entries.items():
            row[here[b]] = row_swapped[there[b]] = c
    return {slot: WindowedSeries(
                SLOT_VARIABLES[slot], {key: Vec(e) for key, e in out.items()})
            for slot, out in ((kind, stacked), ({"f": "g", "h": "hs"}[kind], swapped))}


def _moved(axiom, triple, stacked, alone):
    """The violation of a guard rerun on ``triple`` alone that moved."""
    return ConsistencyViolationError(
        f"{axiom} stacking is inconsistent at ({','.join(map(str, triple))}): "
        f"{stacked}, {alone} on the triple alone")


def _vf_difference(h, hs, N):
    """Y(Y(u,x0)v,x2)w - Y(Y(v,-x0)u,x2+x0)w from slot h at (u, v, w) and
    ``hs``, slot h at (v, u, w): of one triple, or of a stack of them."""
    right = hs.rename({"x2": "t"}).flip_sign("x0")
    return h - taylor_substitute(right, "t", (1, "x2"), (1, "x0"), {"x0": (INF, N)})


class Stacked(NamedTuple):
    """A row of STACKED: an identity of operators, checked on the member
    stacks of ``slots``.  ``exact`` (of a TripleInstance) decides it: its
    exact difference, {key: nonzero coefficient}, and the least witness of
    each label id where one exceeds 0.  ``statement`` (of a TripleInstance
    and the window N) is its windowed route, (difference, clearing factor,
    box) for ``rationalforms.least_clearing_power``; an identity without a
    factor holds at m = 0 or not at all.  A judged key is ranked as its
    exponent tuple, or by ``rank`` of its monomial."""
    slots: tuple
    exact: object
    statement: object
    rank: object = None


# each weak property's pair in ``rationalforms.PAIRS``
WEAK_PAIRS = {"weak_comm": "m1", "weak_assoc": "m2", "weak_skew_assoc": "m3"}

# Jacobi, decided as the identities of Claims B and C, cross-checked by route
# 2 on the box [-N, N]^3; the weak properties by Claims B, C and D, each
# cross-checked by its pair; vf skew symmetry by Claim V, cross-checked by
# the difference of the h and swapped-h stacks, judged on [-N, N]^2
STACKED = {
    "jacobi": Stacked(
        ("f", "g", "h"), lambda inst: (exact_jacobi(inst), {}),
        lambda inst, N: (three_term_series(inst, N), None, box(N, "x0", "x1", "x2")),
        mono_of),
    **{name: Stacked((PAIRS[kind].left[0], PAIRS[kind].right[0]), exact,
                     lambda inst, N, kind=kind: pole_statement(inst, kind, N, N))
       for (name, kind), exact in zip(WEAK_PAIRS.items(), (
           exact_weak_comm, exact_weak_assoc, exact_weak_skew_assoc))},
    "vf_skew_symmetry": Stacked(
        ("h", "hs"), lambda inst: (exact_vf(inst.h, inst.hs), {}),
        lambda inst, N: (_vf_difference(inst.h, inst.hs, N), None, box(N, "x0", "x2"))),
}


def check_stacked(A: ModuleStructure, axiom, member):
    """The row of ``axiom`` in STACKED on the member stacks: the exact route
    decides each triple, and the windowed statement, searched up to the
    largest exact witness (never as far as 2N + 2, where a difference judged
    on the box clears spuriously), must give each the same witness, else
    ConsistencyViolationError.  A FAIL names the first failing triple t and
    records, for an identity, the least judged monomial of the stack with a
    label of t, and for a weak property m_max, the pole order + 2, which no
    witness reaches.  Its guard reruns the statement on t alone
    (``MemberStacks.own``), which must give the same least monomial and no
    witness.  A weak PASS records the least witness of each (u, v)."""
    row, N = STACKED[axiom.removeprefix("m_")], member.window
    triples, nw = member.triples, len(A.wbasis)
    diff, poles = row.exact(inst := member.instance(row.slots))
    exact = [0] * len(triples)  # by triple index, label id // nw
    for i, m in poles.items():
        exact[i // nw] = max(exact[i // nw], m)
    for i in {i for c in diff.values() for i in c.entries}:
        exact[i // nw] = None
    bound = max((m for m in exact if m is not None), default=0)
    stack, factor, region = row.statement(inst, N)
    windowed = least_clearing_power(stack, factor, region, bound, range(len(triples)),
                                    lambda c: {i // nw for i in c.entries})
    if where := [k for k, m in enumerate(exact) if windowed[k] != m]:
        said = {None: "False", 0: "True"}
        raise ConsistencyViolationError(f"{axiom} routes disagree on " + ", ".join(
            f"({','.join(map(str, triples[k]))}): windowed="
            f"{said.get(windowed[k], windowed[k])} exact={said.get(exact[k], exact[k])}"
            for k in where))
    k = next((k for k, m in enumerate(exact) if m is None), None)
    if k is None and factor is None:
        return PropertyReport(axiom, "PASS", {}, window=N)
    if k is None:
        min_m = dict.fromkeys((f"{u},{v}" for u in A.over.basis for v in A.over.basis), 0)
        for (u, v, _), m in zip(triples, exact):
            min_m[f"{u},{v}"] = max(min_m[f"{u},{v}"], m)
        return PropertyReport(axiom, "PASS", {"min_m": min_m}, window=N)

    def least(series, keys):
        return min(keys, default=None, key=row.rank and (
            lambda key: row.rank(series.monomial(key))))

    t, ids = triples[k], range(k * nw, k * nw + nw)
    monomial = stack.monomial(least(stack, (key for key, c in judged_coeffs(stack, region)
                                            if not c.entries.keys().isdisjoint(ids))))
    alone, _, _ = row.statement(member.own(t), N)
    seen = least(alone, (key for key, _ in judged_coeffs(alone, region)))
    if seen is None or alone.monomial(seen) != monomial:
        raise _moved(axiom, t, f"first monomial {monomial} on the member stack",
                     "none" if seen is None else alone.monomial(seen))
    if (m := least_clearing_power(alone, factor, region, bound)[None]) is not None:
        raise _moved(axiom, t, f"no witness m <= {bound} on the member stack", f"m = {m}")
    record = {"monomial": monomial} if factor is None else {"m_max": A.max_pole_order() + 2}
    return PropertyReport(axiom, "FAIL", {"triple": t, **record}, window=N)


def check_vacuum_prop(A: ModuleStructure, axiom, member):
    for w in A.wbasis:
        if A.yw_modes(A.over.one, w) != {0: Vec.unit(w)}:
            return PropertyReport(axiom, "FAIL", {"element": w})
    return PropertyReport(axiom, "PASS", {})


def _first_failing(axiom, key, items, terms):
    """FAIL at the first of ``items`` whose ``terms``, (exponent e, Vec) pairs
    in x, do not sum to 0, recorded under ``key`` with the least e of a
    nonzero sum as its monomial, {"x": e} ({} for e = 0); else PASS."""
    for item in items:
        total = {}
        for e, c in terms(item):
            total[e] = total.get(e, 0) + c
        e = min((e for e, c in total.items() if c), default=None)
        if e is not None:
            return PropertyReport(axiom, "FAIL", {key: item, "monomial": {"x": e} if e else {}})
    return PropertyReport(axiom, "PASS", {})


def check_d_derivative(A: ModuleStructure, axiom, member):
    """Y_W(Du,x)w = d/dx Y_W(u,x)w: (Du)_n w = -n u_(n-1) w."""
    S = A.over

    def terms(uw):
        u, w = uw
        yield from A.yw_modes(S.dop.get(u, Vec()), w).items()
        yield from ((e - 1, c * -e) for e, c in A.yw_modes(u, w).items() if e)  # -d/dx
    return _first_failing(axiom, "pair", itertools.product(S.basis, A.wbasis), terms)


# ---------------------------------------------------------------------------
# the five checkers that only a structure has

def check_skew_symmetry(A: VertexStructure, axiom, member):
    """Y(u,x)v = e^(xD)Y(v,-x)u: u_n v = sum_j (-1)^(n+j+1) D^j(v_(n+j) u)/j!."""
    def terms(uv):
        u, v = uv
        yield from A.yw_modes(u, v).items()
        for e, c in A.yw_modes(v, u).items():
            sign = 1 if e % 2 else -1  # -(-1)^e
            yield from ((e + j, p * sign) for j, p in enumerate(A.exp_d(c)))
    return _first_failing(axiom, "pair", itertools.product(A.basis, repeat=2), terms)


def check_d_bracket(A: VertexStructure, axiom, member):
    """[D, Y(u,x)]v = d/dx Y(u,x)v: D(u_n v) - u_n Dv = -n u_(n-1) v."""
    def terms(uv):
        u, v = uv
        yuv = A.yw_modes(u, v)
        yield from ((e, linear_map(A.dop, c)) for e, c in yuv.items())
        yield from ((e, -c) for e, c in A.yw_modes(u, A.dop.get(v, Vec())).items())
        yield from ((e - 1, c * -e) for e, c in yuv.items() if e)  # -d/dx
    return _first_failing(axiom, "pair", itertools.product(A.basis, repeat=2), terms)


def check_creation_prop(A: VertexStructure, axiom, member):
    for u in A.basis:
        modes = A.yw_modes(u, A.one)
        if any(e < 0 for e in modes):
            return PropertyReport(
                axiom, "FAIL",
                {"element": u, "reason": "negative powers acting on the vacuum"})
        if modes.get(0, Vec()) != Vec.unit(u):
            return PropertyReport(
                axiom, "FAIL",
                {"element": u, "reason": "constant term differs from u"})
    return PropertyReport(axiom, "PASS", {})


def check_strong_creation(A: VertexStructure, axiom, member):
    """Y(u,x)1 = e^(xD)u: u_(-j-1) 1 = D^j u / j!."""
    def terms(u):
        yield from A.yw_modes(u, A.one).items()
        yield from ((j, -p) for j, p in enumerate(A.exp_d(Vec.unit(u))))
    return _first_failing(axiom, "element", A.basis, terms)


def check_injectivity(A: VertexStructure, axiom, member):
    """Exact rank of v -> (mode table row of v) over the rationals.  Each
    row, a Vec over (w, n, b), is reduced by the earlier pivots in order; a
    nonzero remainder becomes a pivot, scaled to 1 at its first key."""
    pivots = []
    for v in A.basis:
        row = Vec({(w, n, b): c for w in A.basis
                   for n, vec in A.ytable.get((v, w), {}).items()
                   for b, c in vec.entries.items()})
        for key, pivot in pivots:
            if key in row.entries:
                row = row - pivot.scale(row.entries[key])
        if row:
            key = next(iter(row.entries))
            pivots.append((key, row.scale(Fraction(1, row.entries[key]))))
    rank = len(pivots)
    if rank < len(A.basis):
        return PropertyReport(axiom, "FAIL", {"rank": rank, "dim": len(A.basis)})
    return PropertyReport(axiom, "PASS", {"rank": rank})


# every checker, in the order of a structure report; each takes (A, axiom,
# member) and reports under ``axiom``
CHECKERS = {
    "jacobi": check_stacked,
    "weak_comm": check_stacked,
    "weak_assoc": check_stacked,
    "weak_skew_assoc": check_stacked,
    "vf_skew_symmetry": check_stacked,
    "skew_symmetry": check_skew_symmetry,
    "d_derivative": check_d_derivative,
    "d_bracket": check_d_bracket,
    "vacuum_prop": check_vacuum_prop,
    "creation_prop": check_creation_prop,
    "strong_creation": check_strong_creation,
    "injectivity": check_injectivity,
}

AXIOMS = tuple(CHECKERS)

# the seven axioms of every action, in the order of a module report
MODULE_AXIOMS = tuple(f"m_{axiom}" for axiom in (
    "jacobi", "weak_comm", "weak_assoc", "weak_skew_assoc",
    "vf_skew_symmetry", "vacuum_prop", "d_derivative"))


def member_axioms(A: ModuleStructure):
    """The axioms of ``A``: AXIOMS on a structure, MODULE_AXIOMS on a module."""
    return AXIOMS if A.over is A else MODULE_AXIOMS


def check_axiom(A: ModuleStructure, axiom, stacks=None) -> PropertyReport:
    """``axiom`` of ``A``, one of ``member_axioms(A)``, by its checker in
    ``CHECKERS``, handed ``stacks``, the ``MemberStacks`` of ``A``, or a
    fresh one.  An axiom that needs a vacuum is UNTESTED where ``A.over``
    has none."""
    structure = A.over is A
    if axiom not in member_axioms(A):
        raise ValueError(f"unknown {'' if structure else 'module '}axiom {axiom!r}")
    name = axiom.removeprefix("m_")
    if name in VACUUM_AXIOMS and A.over.vacuum is None:
        return PropertyReport(axiom, "UNTESTED", {"reason": (
            "structure" if structure else "base structure") + " has no vacuum element"})
    return CHECKERS[name](A, axiom, stacks or MemberStacks(A))


def check_all(A: ModuleStructure):
    """Every axiom of ``A``, all reading one ``MemberStacks``."""
    stacks = MemberStacks(A)
    return {axiom: check_axiom(A, axiom, stacks)
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


def replay_rows(A: ModuleStructure, verdicts):
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
            base = {f"{A.over.name}/{b}": check_axiom(A.over, b).verdict
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


def replay_corpus(corpus):
    """Replay every member's rows (``replay_rows``) on its ``check_all``
    verdicts.  Module weak commutativity is never encoded as sufficient
    (with module skew-symmetry or otherwise): each module gets an UNTESTED
    record saying so, so that its absence is visible."""
    report = []
    for A in corpus:
        report += replay_rows(A, check_all(A))
        if A.over is not A:
            report.append({"member": A.name, "row": "m-wc+vfss-not-encoded",
                           "verdict": "UNTESTED", "premises": {
                               "reason": "module weak commutativity is not a "
                                         "sufficient replacement; no such row exists"}})
    return report
