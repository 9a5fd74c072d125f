"""Modules over finite vertex structures, built from algebra actions.

A structure is its own regular module, so everything a module shares with
its base structure lives in ``structures``: the action type
ModuleStructure, the seven action checkers, the m_* axiom names, the one
dispatcher ``check_axiom`` and ``check_all``, and the one table of
replacement rows with its corpus replay ``replay_corpus``.  The main theorem
is stated for a module over a vertex algebra V: with the module's minor
axioms, its Jacobi identity is equivalent to weak associativity and to weak
skew-associativity.  Where the three disagree over a V that fails a base
premise (Jacobi, vacuum, creation), the record is UNTESTED and names V's
failing premise.  This module builds modules from the action of a
commutative differential algebra on a module basis.
"""
from __future__ import annotations

from . import structures
from .errors import ConstructionError
from .scalars import Vec
from .structures import (ModuleStructure, VertexStructure, _alg_mul,
                         divided_power_table)

# the m_* axiom names and those that need the base's vacuum, also read from
# here by the benchmark (bench/run.py)
MODULE_AXIOMS = structures.MODULE_AXIOMS

VACUUM_MODULE_AXIOMS = {f"m_{axiom}" for axiom in
                        structures.VACUUM_AXIOMS.intersection(structures.ACTION_CHECKERS)}


def module_construct(S: VertexStructure, mult, derivation, wbasis, action,
                     name, tags=()):
    """Module Y_W(u,x)w = (e^(xD)u) . w from an algebra action.

    ``action`` maps (algebra basis, module basis) to module Vecs; it must be
    associative over the algebra product ((ab).m = a.(b.m), verified on basis
    triples).  ``mult``/``derivation`` are the base algebra's data (the
    derivation acts on the algebra side only).
    """
    wbasis = tuple(wbasis)
    for a in S.basis:
        for b in S.basis:
            for w in wbasis:
                left = _alg_mul(action, mult.get((a, b), Vec()), Vec.unit(w))
                right = _alg_mul(action, Vec.unit(a),
                                 _alg_mul(action, Vec.unit(b), Vec.unit(w)))
                if left != right:
                    raise ConstructionError(
                        f"action not associative over the product at ({a},{b},{w})")
    ywtable = divided_power_table(S.basis, derivation, action, wbasis)
    return ModuleStructure(name, S, wbasis, ywtable, tags=tags)
