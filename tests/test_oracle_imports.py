"""The oracles rank with their own elimination, never with the library kernel they check."""

import ast
from pathlib import Path

ORACLES = ast.parse(Path(__file__).with_name("oracles.py").read_text())
KERNEL = {"rank_exact", "nullspace_exact", "_extend_basis", "_integer_rows"}


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
