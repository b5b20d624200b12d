"""Each oracle stays independent of the library code it checks.

The oracles in `oracles.py` rank with their own elimination, never with the
library kernel. `smith_form`'s doubled list is the oracle for `skew_smith`,
so `skew_smith` never reaches the general reduction.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ORACLES = ast.parse(Path(__file__).with_name("oracles.py").read_text())
KERNEL = {"rank_exact", "nullspace_exact", "_extend_basis", "_integer_rows"}
EXACT = ast.parse((ROOT / "src" / "skewstruct" / "exact.py").read_text())
GENERAL_SMITH = {"smith_form", "_clear_column", "_bring_to_corner"}


def _names_read(node) -> set:
    """Every name a node reads: plain names and attribute names."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


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


def test_skew_smith_reaches_no_general_smith_reduction():
    # the names read by skew_smith and, transitively, by every function of
    # exact.py that it reads
    functions = {node.name: node for node in EXACT.body if isinstance(node, ast.FunctionDef)}
    reached, todo = set(), ["skew_smith"]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        todo.extend(n for n in _names_read(functions[name]) if n in functions)
    read = set().union(*(_names_read(functions[name]) for name in reached))
    assert {"_clear_pair", "_divisibility_chain"} <= reached
    assert read & GENERAL_SMITH == set()
