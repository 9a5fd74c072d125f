"""Built-in testbed: truncated polynomial algebras, ideals, curated mutants.

The valid family is A_k = Q[t]/(t^k) for k in 2..5 with the degree-raising
derivation D = t^2 d/dt (the naive d/dt does not satisfy the Leibniz rule on
the quotient and is refused by the constructor; see the tests).  Basis names
are e0 = 1, e1 = t, ..., e(k-1) = t^(k-1).  The vacuum-free variants are the
ideals t*A_k.

Mutants are curated table edits (all but one touch a single entry), each
verified in the test suite, by the checkers and the independent window
oracle, to break the axioms named in its tags.
"""
from __future__ import annotations

from .scalars import Vec
from .structures import borcherds_construct, restrict

FAMILY_K = (2, 3, 4, 5)


def truncated_polynomial_algebra(k, derivation="t^2 d/dt"):
    """Structure constants of Q[t]/(t^k) with a choice of derivation map."""
    basis = tuple(f"e{i}" for i in range(k))
    mult = {}
    for i in range(k):
        for j in range(k):
            if i + j < k:
                mult[(f"e{i}", f"e{j}")] = Vec.unit(f"e{i + j}")
            else:
                mult[(f"e{i}", f"e{j}")] = Vec()
    if derivation == "t^2 d/dt":
        dmap = {f"e{i}": Vec({f"e{i + 1}": i}) for i in range(1, k - 1)}
    elif derivation == "d/dt":
        # not a derivation of the quotient; kept for the refusal test
        dmap = {f"e{i}": Vec({f"e{i - 1}": i}) for i in range(1, k)}
    else:
        raise ValueError(derivation)
    return basis, mult, dmap


def borcherds_structure(k, tags=("valid",)):
    basis, mult, dmap = truncated_polynomial_algebra(k)
    return borcherds_construct(
        f"borcherds-k{k}", basis, mult, dmap, unit="e0", tags=tags)


def ideal_structure(k, tags=("valid", "vacuum-free")):
    S = borcherds_structure(k)
    return restrict(S, tuple(f"e{i}" for i in range(1, k)),
                    f"borcherds-k{k}-ideal", tags=tags)


def family():
    return [borcherds_structure(k) for k in FAMILY_K]


def ideal_variants():
    return [ideal_structure(k) for k in FAMILY_K]


# ---------------------------------------------------------------------------
# curated mutants: (name, base k, edits, axioms verified broken)
# Each edit rewrites one table entry (u, n, v) -> Vec (None deletes).
# The "axioms verified broken" tuples are frozen from checker runs and pinned
# by tests; every listed axiom fails with a concrete witness.

MUTANT_SPECS = [
    ("mutant-iterate-shift", 3,
     {("e1", -1, "e1"): Vec({"e2": 1, "e1": 1})},
     ("jacobi", "weak_assoc", "weak_skew_assoc", "vf_skew_symmetry",
      "skew_symmetry", "d_bracket")),
    ("mutant-asym-product", 3,
     {("e2", -1, "e1"): Vec({"e2": 1})},
     ("jacobi", "weak_comm", "weak_assoc", "weak_skew_assoc",
      "vf_skew_symmetry", "skew_symmetry", "d_derivative")),
    # deleting this entry instead would give the (valid) D = 0 construction;
    # redirecting it breaks the derivative properties while creation survives
    ("mutant-shifted-derivative", 3,
     {("e1", -2, "e0"): Vec({"e0": 1})},
     ("jacobi", "weak_comm", "weak_assoc", "weak_skew_assoc",
      "vf_skew_symmetry", "d_derivative", "d_bracket")),
    ("mutant-fat-vacuum", 3,
     {("e0", -1, "e1"): Vec({"e1": 1, "e2": 1})},
     ("jacobi", "vacuum_prop", "weak_comm", "weak_assoc", "weak_skew_assoc",
      "vf_skew_symmetry", "skew_symmetry")),
    ("mutant-bad-creation", 3,
     {("e1", -1, "e0"): Vec({"e2": 1})},
     ("jacobi", "creation_prop", "strong_creation", "weak_assoc",
      "weak_skew_assoc", "vf_skew_symmetry", "skew_symmetry", "d_bracket")),
    ("mutant-drop-mode", 4,
     {("e2", -2, "e0"): None},
     ("jacobi", "weak_assoc", "weak_skew_assoc", "vf_skew_symmetry",
      "skew_symmetry", "strong_creation", "d_derivative", "d_bracket")),
    ("mutant-pole", 2,
     {("e1", 0, "e1"): Vec({"e0": 1})},
     ("jacobi", "weak_comm", "weak_assoc", "weak_skew_assoc",
      "vf_skew_symmetry", "skew_symmetry", "d_derivative", "d_bracket")),
    ("mutant-null-row", 3,
     {("e2", -1, "e0"): None},
     ("jacobi", "injectivity", "creation_prop", "strong_creation",
      "weak_assoc", "weak_skew_assoc", "vf_skew_symmetry", "skew_symmetry",
      "d_derivative")),
    ("mutant-ghost-product", 4,
     {("e1", -1, "e3"): Vec({"e1": 1})},
     ("jacobi", "weak_comm", "weak_assoc", "weak_skew_assoc",
      "vf_skew_symmetry", "skew_symmetry", "d_bracket")),
    ("mutant-scaled-mode", 5,
     {("e2", -2, "e0"): Vec({"e3": 1})},
     ("jacobi", "weak_comm", "weak_assoc", "weak_skew_assoc",
      "vf_skew_symmetry", "skew_symmetry", "strong_creation",
      "d_derivative", "d_bracket")),
]


def mutants():
    out = []
    for name, k, edits, broken in MUTANT_SPECS:
        base = borcherds_structure(k)
        tags = ("mutant",) + tuple(f"breaks:{a}" for a in broken)
        out.append(base.mutate(name, edits, tags=tags))
    return out


def mutant_expected_failures():
    return {name: broken for name, _, _, broken in MUTANT_SPECS}


def full_corpus():
    """The acceptance corpus: 4 valid + 4 vacuum-free ideals + 10 mutants."""
    return family() + ideal_variants() + mutants()


# ---------------------------------------------------------------------------
# module corpus: regular, ideal and quotient modules over each family member

def _module_data(k, which):
    """Action tables for the regular, ideal and quotient A_k-modules.  Each
    is a (prefix, lowest index, top) recipe: basis p_lo..p_(top-1) with
    e_i . p_j = p_(i+j) when i + j < top.  The quotient A_k / t^(k-1) A_k
    has basis f0..f(k-2)."""
    recipes = {"regular": ("e", 0, k), "ideal": ("e", 1, k),
               "quotient": ("f", 0, k - 1)}
    if which not in recipes:
        raise ValueError(which)
    prefix, lo, top = recipes[which]
    action = {(f"e{i}", f"{prefix}{j}"): Vec.unit(f"{prefix}{i + j}")
              for i in range(k) for j in range(lo, top) if i + j < top}
    return tuple(f"{prefix}{j}" for j in range(lo, top)), action


def make_module(k, which, name=None, tags=("valid",)):
    from .modules import module_construct
    S = borcherds_structure(k)
    basis, mult, dmap = truncated_polynomial_algebra(k)
    wbasis, action = _module_data(k, which)
    return module_construct(
        S, mult, dmap, wbasis, action,
        name or f"{which}-module-k{k}", tags=tags)


def module_family():
    out = []
    for k in FAMILY_K:
        for which in ("regular", "ideal", "quotient"):
            out.append(make_module(k, which))
    return out


# five curated module mutants; expected failures frozen from checker runs
MODULE_MUTANT_SPECS = [
    ("wmutant-iterate-shift", 3, "regular",
     {("e1", -1, "e1"): Vec({"e2": 1, "e1": 1})},
     ("m_jacobi", "m_weak_assoc", "m_weak_skew_assoc")),
    ("wmutant-fat-vacuum", 3, "regular",
     {("e0", -1, "e1"): Vec({"e1": 1, "e2": 1})},
     ("m_jacobi", "m_vacuum_prop", "m_weak_comm", "m_weak_assoc",
      "m_weak_skew_assoc")),
    ("wmutant-drop-action", 4, "quotient",
     {("e1", -1, "f1"): None},
     ("m_jacobi", "m_weak_assoc", "m_weak_skew_assoc")),
    ("wmutant-shifted-derivative", 4, "regular",
     {("e1", -2, "e0"): Vec({"e0": 1})},
     ("m_jacobi", "m_d_derivative", "m_vf_skew_symmetry", "m_weak_comm",
      "m_weak_assoc", "m_weak_skew_assoc")),
    ("wmutant-ideal-ghost", 3, "ideal",
     {("e2", -1, "e1"): Vec({"e1": 1})},
     ("m_jacobi", "m_d_derivative", "m_vf_skew_symmetry", "m_weak_comm",
      "m_weak_assoc", "m_weak_skew_assoc")),
]


def module_mutants():
    out = []
    for name, k, which, edits, broken in MODULE_MUTANT_SPECS:
        base = make_module(k, which)
        tags = ("mutant",) + tuple(f"breaks:{a}" for a in broken)
        out.append(base.mutate(name, edits, tags=tags))
    return out


def module_mutant_expected_failures():
    return {name: broken for name, _, _, _, broken in MODULE_MUTANT_SPECS}


def full_module_corpus():
    """The acceptance module corpus: 12 valid modules + 5 mutants."""
    return module_family() + module_mutants()
