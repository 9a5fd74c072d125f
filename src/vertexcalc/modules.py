"""Modules over finite vertex structures and the main-theorem harness.

The action type ModuleStructure and the checkers a module shares with its
base structure live in ``structures``, with the one table of replacement
rows: a structure is its own regular module.  This module builds modules
from algebra actions, dispatches the m_* axioms to those checkers and
replays the rows on every corpus member.  The main theorem is stated for a
module over a vertex algebra V: with the module's minor axioms, its Jacobi
identity is equivalent to weak associativity and to weak skew-associativity.
Where the three disagree over a V that fails a base premise (Jacobi,
vacuum, creation), the record is UNTESTED and names V's failing premise.
"""
from __future__ import annotations

from .errors import ConstructionError
from .scalars import Vec
from .structures import (
    ACTION_CHECKERS,
    ModuleStructure,
    PropertyReport,
    VertexStructure,
    _alg_mul,
    divided_power_table,
    replay_rows,
)

MODULE_CHECKERS = {f"m_{axiom}": check for axiom, check in ACTION_CHECKERS.items()}

MODULE_AXIOMS = tuple(MODULE_CHECKERS)

VACUUM_MODULE_AXIOMS = {"m_vacuum_prop", "m_d_derivative"}


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


def check_module_axiom(M: ModuleStructure, axiom, m_max=None, window=None):
    if axiom in VACUUM_MODULE_AXIOMS and M.over.vacuum is None:
        return PropertyReport(axiom, "UNTESTED",
                              {"reason": "base structure has no vacuum element"})
    if axiom not in MODULE_CHECKERS:
        raise ValueError(f"unknown module axiom {axiom!r}")
    return MODULE_CHECKERS[axiom](M, axiom, m_max, window)


def check_module_all(M: ModuleStructure, m_max=None, window=None):
    with M.shared_triples():
        return {a: check_module_axiom(M, a, m_max, window) for a in MODULE_AXIOMS}


# ---------------------------------------------------------------------------
# the main-theorem harness

def main_theorem_harness(corpus, m_max=None, window=None):
    """Replay the action and module rows on every member.  Under the
    module's vacuum property the verdicts of m_weak_assoc, m_weak_skew_assoc
    and m_jacobi must agree over a V that passes the base premises (Jacobi,
    vacuum, creation), or the harness raises with diagnostics; over a V that
    fails one, the records are UNTESTED and name V's failing premise.
    Module weak commutativity is never encoded as sufficient (with module
    skew-symmetry or otherwise); that combination is reported as a
    non-theorem so its absence is visible.
    """
    report = []
    for M in corpus:
        report += replay_rows(M, "module", check_module_all(M, m_max, window), m_max, window)
        report.append({"member": M.name, "row": "m-wc+vfss-not-encoded", "verdict": "UNTESTED",
                       "premises": {"reason": "module weak commutativity is not a "
                                              "sufficient replacement; no such row exists"}})
    return report
