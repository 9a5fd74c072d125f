"""The module axiom names, read from here by the benchmark (bench/run.py).

A structure is its own regular module, so everything a module shares with
its base structure lives in ``structures``: the action type
ModuleStructure, the checkers, the m_* axiom names, ``check_axiom`` and
``check_all``, the replacement rows with ``replay_corpus``, and
``module_construct``.
"""
from __future__ import annotations

from . import structures

MODULE_AXIOMS = structures.MODULE_AXIOMS

# the m_* axioms that need the base's vacuum
VACUUM_MODULE_AXIOMS = {axiom for axiom in MODULE_AXIOMS
                        if axiom.removeprefix("m_") in structures.VACUUM_AXIOMS}
