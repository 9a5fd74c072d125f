"""Exact formal calculus and finite vertex-structure axiom checking.

Layers, bottom up:

* ``scalars`` — exact rationals, generalized binomials, sparse basis vectors;
* ``deltacalc`` — the symbolic calculus of expanded powers and delta factors,
  with a coefficient-window oracle (``window_coeffs``) and the two-identity
  prover;
* ``series`` — concrete windowed Laurent series, the independent substrate;
* ``rationalforms`` — the statement family (A)-(G) and implication replays;
* ``structures`` / ``corpus`` — finite vertex structures and their actions
  (a structure is its own regular module), twelve axiom checkers of which
  seven run on an action, one dispatcher and one replay of the replacement
  rows for structures and modules alike, module construction from algebra
  actions (``module_construct``), the built-in testbed;
* ``modules`` — the module axiom names, kept for the benchmark;
* ``configio`` / ``cli`` — config files, deterministic reports, subcommands.
"""

from .scalars import Vec, binom, parse_scalar, format_scalar
from .deltacalc import (
    Atom,
    Delta,
    DeltaExpr,
    Term,
    delta_to_atoms,
    expand_deltas,
    identity_lhs,
    make_term,
    normalize,
    prove_identity,
    taylor_shift,
    window_coeffs,
)
from .series import (
    WindowedSeries,
    apply_delta,
    binomial_power,
    taylor_substitute,
)
from .rationalforms import (
    PoleWitness,
    RationalForm,
    TripleInstance,
    check_A,
    find_pole_witness,
    generate_instance,
    instance_from_form,
    reconstruct_form,
    replay_implication,
)
from .structures import (
    AXIOMS,
    MODULE_AXIOMS,
    ModuleStructure,
    PropertyReport,
    VertexStructure,
    borcherds_construct,
    check_all,
    check_axiom,
    module_construct,
    replay_corpus,
    restrict,
)
# bench/run.py reads the module axiom names from sys.modules["vertexcalc.modules"]
from . import modules

__version__ = "0.1.0"
