"""Each oracle stays independent of the library code it checks.

The oracles in `oracles.py` rank with their own elimination, never with the
library kernel. `src/` has one Smith reduction, `skew_smith`, and
`smith_form` runs it on a skew embedding; the general reduction by row and
column operations lives in `oracles.smith_by_equivalence` as the reference
for both, so it never reaches the congruence reduction. `codimension` has one
block count, the Hom table `dim_hom`: the congruence codimension is read off
the strict-equivalence one, so a second count per block kind would be a
second formula to keep in step.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ORACLES = ast.parse(Path(__file__).with_name("oracles.py").read_text())
KERNEL = {"rank_exact", "nullspace_exact", "_extend_basis", "_integer_rows"}
EXACT = ast.parse((ROOT / "src" / "skewstruct" / "exact.py").read_text())
CODIMENSION = ast.parse((ROOT / "src" / "skewstruct" / "codimension.py").read_text())
GENERAL_SMITH = {"_clear_column", "_bring_to_corner"}
CONGRUENCE_SMITH = {"skew_smith", "smith_form", "_clear_pair", "_congruence", "_swap_index", "_min_degree_pivot"}


def _names_read(node) -> set:
    """Every name a node reads: plain names and attribute names."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _functions(tree) -> dict:
    """A module's top-level functions by name."""
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_oracles_use_no_library_row_reduction():
    # an import by name, or an attribute read such as `exact.rank_exact`
    imported = {
        alias.name
        for node in ast.walk(ORACLES)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "skewstruct"
        for alias in node.names
    }
    read = {node.attr for node in ast.walk(ORACLES) if isinstance(node, ast.Attribute)}
    assert (imported | read) & KERNEL == set()


def test_src_has_one_smith_reduction():
    functions = _functions(EXACT)
    assert set(functions) & GENERAL_SMITH == set()
    assert "skew_smith" in _names_read(functions["smith_form"])


def test_codimension_has_one_block_count():
    # codim_blocksum halves the Hom count, and only the Hom table reads a block's kind
    functions = _functions(CODIMENSION)
    assert "codim_general" in _names_read(functions["codim_blocksum"])
    assert {name for name, node in functions.items() if "kind" in _names_read(node)} == {"dim_hom"}


def test_equivalence_oracle_reaches_no_congruence_reduction():
    # the names read by smith_by_equivalence and, transitively, by every
    # function of oracles.py or exact.py that it reads
    oracle_functions, exact_functions = _functions(ORACLES), _functions(EXACT)
    assert set(oracle_functions) & set(exact_functions) == set()
    functions = {**exact_functions, **oracle_functions}
    reached, todo = set(), ["smith_by_equivalence"]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        todo.extend(n for n in _names_read(functions[name]) if n in functions)
    read = set().union(*(_names_read(functions[name]) for name in reached))
    assert GENERAL_SMITH | {"_divisibility_chain"} <= reached
    assert read & CONGRUENCE_SMITH == set()
