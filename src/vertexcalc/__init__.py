"""Exact formal calculus and finite vertex-structure axiom checking.

Layers, bottom up:

* ``scalars`` — exact rationals, generalized binomials, sparse basis vectors;
* ``deltacalc`` — the symbolic calculus of expanded powers and delta factors,
  with a coefficient-window oracle and the two-identity prover;
* ``series`` — concrete windowed Laurent series, the independent substrate;
* ``rationalforms`` — the statement family (A)-(G) and implication replays;
* ``structures`` / ``corpus`` — finite vertex structures and their actions
  (a structure is its own regular module), twelve axiom checkers of which
  seven run on an action, the replacement-row matrix, the built-in testbed;
* ``modules`` — module construction, the m_* axioms on the shared action
  checkers, and the main-theorem harness;
* ``configio`` / ``cli`` — config files, deterministic reports, subcommands.
"""

from .scalars import Vec, binom, parse_scalar, format_scalar
from .deltacalc import (
    Atom,
    Delta,
    DeltaExpr,
    Term,
    coeff_of,
    delta_substitute,
    delta_to_atoms,
    expand_deltas,
    identity_lhs,
    make_term,
    multiply,
    normalize,
    prove_identity,
    taylor_shift,
    window_coeffs,
)
from .series import (
    WindowedSeries,
    apply_delta,
    binomial_power,
    delta_series,
    exp_endo,
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
    PropertyReport,
    VertexStructure,
    borcherds_construct,
    check_all,
    check_axiom,
    implication_matrix,
    minimal_pole_order,
    restrict,
)
from .modules import (
    MODULE_AXIOMS,
    ModuleStructure,
    check_module_all,
    check_module_axiom,
    main_theorem_harness,
    module_construct,
)

__version__ = "0.1.0"
