"""The package surface: one export table in `skewstruct/__init__.py`, read lazily."""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

import skewstruct

INIT = Path(skewstruct.__file__).resolve()

PUBLIC = [
    "BlockList", "ClosureResult", "CodimReport", "CompleteEigenstructure", "ExperimentReport",
    "GeneralBlock", "GsylPencil", "HomWitness", "INFINITY", "MatrixPolynomial", "PencilGenericParams",
    "PolyGenericParams", "RationalPolynomial", "RuleApplication", "SampleSpec", "SkewBlock",
    "SkewMatrixPolynomial", "SmithForm", "SymbolicPoint", "analyze", "apply_rule", "assemble_general",
    "assemble_skew", "blocklist_eigenstructure", "build_linearization", "closure_reachable",
    "codim_blocksum", "codim_general", "codim_pencil_closed", "codim_poly_generic", "codim_tangent",
    "dim_hom", "equal_modulo_symbols", "frobenius_distance", "general_to_skew", "generic_pencil_structure",
    "generic_poly_structure", "gsyl_membership", "infinite_structure", "linearized_structure",
    "minimal_indices", "monte_carlo_genericity", "normal_rank", "pad_grade", "perturb_rank_increase",
    "poly_gcd", "rank_exact", "replay_certificate", "rev", "same_orbit", "sample_bounded_rank",
    "skew_smith", "skew_to_general", "smallest_infinite_multiplicity_law", "smith_form",
    "structure_consistency", "structure_to_skew_blocks", "verify_shift",
]


def test_the_public_names():
    assert skewstruct.__all__ == PUBLIC


def test_each_name_is_written_once_and_nothing_is_imported_by_name():
    tree = ast.parse(INIT.read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    strings = Counter(
        node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str)
    )
    assert {name: strings[name] for name in PUBLIC} == dict.fromkeys(PUBLIC, 1)


@pytest.mark.parametrize("name", PUBLIC)
def test_a_name_is_its_home_modules_object(name):
    value = getattr(skewstruct, name)
    home = sys.modules[value.__module__]
    assert home.__name__.startswith("skewstruct.")
    assert getattr(home, name) is value
    # looked up afresh on every read, so a replaced attribute is seen
    assert name not in vars(skewstruct)


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from skewstruct import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    assert all(namespace[name] is getattr(skewstruct, name) for name in PUBLIC)


def test_other_names_are_no_attributes_but_submodules_import():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        skewstruct.nonexistent
    from skewstruct import floating

    assert floating is sys.modules["skewstruct.floating"]
    assert "floating" not in skewstruct.__all__
