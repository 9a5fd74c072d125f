"""Modules over finite vertex structures, built from algebra actions.

A structure is its own regular module, so everything a module shares with
its base structure lives in ``structures``: the action type
ModuleStructure, the one checker table ``CHECKERS``, the m_* axiom names,
the one dispatcher ``check_axiom`` and ``check_all``, the one table of
replacement rows with its corpus replay ``replay_corpus``, and
``module_construct``, beside ``borcherds_construct`` and sharing its
associativity law.  The main theorem
is stated for a module over a vertex algebra V: with the module's minor
axioms, its Jacobi identity is equivalent to weak associativity and to weak
skew-associativity.  Where the three disagree over a V that fails a base
premise (Jacobi, vacuum, creation), the record is UNTESTED and names V's
failing premise.  This module re-exports ``module_construct``, which
builds a module from the action of a commutative differential algebra on a
module basis, and names the module axioms for the benchmark.
"""
from __future__ import annotations

from . import structures

# the m_* axiom names and those that need the base's vacuum, also read from
# here by the benchmark (bench/run.py)
MODULE_AXIOMS = structures.MODULE_AXIOMS

VACUUM_MODULE_AXIOMS = {axiom for axiom in MODULE_AXIOMS
                        if axiom.removeprefix("m_") in structures.VACUUM_AXIOMS}

module_construct = structures.module_construct
