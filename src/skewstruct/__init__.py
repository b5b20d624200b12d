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
The float backend's one way in is `skewstruct.floating`: `import skewstruct`
loads neither numpy nor scipy.
"""

from .blocks import (
    BlockList,
    GeneralBlock,
    SkewBlock,
    assemble_general,
    assemble_skew,
    blocklist_eigenstructure,
    general_to_skew,
    skew_to_general,
    structure_to_skew_blocks,
)
from .codimension import (
    CodimReport,
    codim_blocksum,
    codim_general,
    codim_pencil_closed,
    codim_poly_generic,
    codim_tangent,
    dim_hom,
)
from .degeneration import (
    ClosureResult,
    HomWitness,
    RuleApplication,
    apply_rule,
    closure_reachable,
    equal_modulo_symbols,
    replay_certificate,
)
from .eigenstructure import (
    CompleteEigenstructure,
    analyze,
    infinite_structure,
    minimal_indices,
    same_orbit,
    smallest_infinite_multiplicity_law,
)
from .exact import (
    MatrixPolynomial,
    RationalPolynomial,
    SkewMatrixPolynomial,
    SmithForm,
    frobenius_distance,
    normal_rank,
    poly_gcd,
    rank_exact,
    rev,
    skew_smith,
    smith_form,
)
from .generic import (
    PencilGenericParams,
    PolyGenericParams,
    generic_pencil_structure,
    generic_poly_structure,
    structure_consistency,
)
from .linearize import (
    GsylPencil,
    build_linearization,
    gsyl_membership,
    linearized_structure,
    pad_grade,
    verify_shift,
)
from .points import INFINITY, SymbolicPoint
from .sampling import (
    ExperimentReport,
    SampleSpec,
    monte_carlo_genericity,
    perturb_rank_increase,
    sample_bounded_rank,
)


__all__ = [
    "BlockList",
    "ClosureResult",
    "CodimReport",
    "CompleteEigenstructure",
    "ExperimentReport",
    "GeneralBlock",
    "GsylPencil",
    "HomWitness",
    "INFINITY",
    "MatrixPolynomial",
    "PencilGenericParams",
    "PolyGenericParams",
    "RationalPolynomial",
    "RuleApplication",
    "SampleSpec",
    "SkewBlock",
    "SkewMatrixPolynomial",
    "SmithForm",
    "SymbolicPoint",
    "analyze",
    "apply_rule",
    "assemble_general",
    "assemble_skew",
    "blocklist_eigenstructure",
    "build_linearization",
    "closure_reachable",
    "codim_blocksum",
    "codim_general",
    "codim_pencil_closed",
    "codim_poly_generic",
    "codim_tangent",
    "dim_hom",
    "equal_modulo_symbols",
    "frobenius_distance",
    "general_to_skew",
    "generic_pencil_structure",
    "generic_poly_structure",
    "gsyl_membership",
    "infinite_structure",
    "linearized_structure",
    "minimal_indices",
    "monte_carlo_genericity",
    "normal_rank",
    "pad_grade",
    "perturb_rank_increase",
    "poly_gcd",
    "rank_exact",
    "replay_certificate",
    "rev",
    "same_orbit",
    "sample_bounded_rank",
    "skew_smith",
    "skew_to_general",
    "smallest_infinite_multiplicity_law",
    "smith_form",
    "structure_consistency",
    "structure_to_skew_blocks",
    "verify_shift",
]
