"""Exact eigenstructure toolkit for skew-symmetric matrix pencils and polynomials.

Computes and cross-verifies: canonical blocks and their assembly, complete
eigenstructures (rank, elementary divisors, minimal indices) in exact
rational arithmetic, the generic structures of bounded-rank skew-symmetric
pencils and polynomials, odd-grade strong linearizations with grade padding,
orbit-closure degeneration rules with a reachability search and
Hom-dimension refutations, orbit codimensions by block sums, Hom dimensions,
closed forms, and tangent ranks, and randomized genericity experiments.

The public names are the ones the library, the CLI, the demos, the
benchmark, the reference oracles or the acceptance suite call. The slow
reference oracles live in `tests/oracles.py`, and a check that only a test
runs lives in that test; `tests/test_unused_names.py` fails on a public
function or class that nothing else calls.

`import skewstruct` loads no submodule: `_HOMES` names each public name's
home module once, and reading a name imports that module (PEP 562
`__getattr__`), so `from skewstruct import analyze` loads only what
`analyze` needs. The float backend's one way in is `skewstruct.floating`,
which no public name leads to: numpy and scipy load only with it.
"""

import importlib

# home module -> the public names it defines
_HOMES = {
    "blocks": (
        "BlockList", "GeneralBlock", "SkewBlock", "assemble_general", "assemble_skew",
        "blocklist_eigenstructure", "general_to_skew", "skew_to_general", "structure_to_skew_blocks",
    ),
    "codimension": (
        "CodimReport", "codim_blocksum", "codim_general", "codim_pencil_closed", "codim_poly_generic",
        "codim_tangent", "dim_hom",
    ),
    "degeneration": (
        "ClosureResult", "HomWitness", "RuleApplication", "apply_rule", "closure_reachable",
        "equal_modulo_symbols", "replay_certificate",
    ),
    "eigenstructure": (
        "CompleteEigenstructure", "analyze", "infinite_structure", "minimal_indices", "same_orbit",
        "smallest_infinite_multiplicity_law",
    ),
    "exact": (
        "MatrixPolynomial", "RationalPolynomial", "SkewMatrixPolynomial", "SmithForm", "frobenius_distance",
        "normal_rank", "poly_gcd", "rank_exact", "rev", "skew_smith", "smith_form",
    ),
    "generic": (
        "PencilGenericParams", "PolyGenericParams", "generic_pencil_structure", "generic_poly_structure",
        "structure_consistency",
    ),
    "linearize": (
        "GsylPencil", "build_linearization", "gsyl_membership", "linearized_structure", "pad_grade",
        "verify_shift",
    ),
    "points": ("INFINITY", "SymbolicPoint"),
    "sampling": (
        "ExperimentReport", "SampleSpec", "monte_carlo_genericity", "perturb_rank_increase",
        "sample_bounded_rank",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    # Not cached in the package: each read looks the name up in its home
    # module. Any other name raises AttributeError, so `from skewstruct
    # import exact` falls back to the submodule
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
