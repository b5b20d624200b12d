"""Every block the library builds comes from the interned path.

`blocks._interned` returns one validated block per class, kind, index and
eigenvalue, and the search's speed rests on every library construction site
going through it. The constructor is called directly only by the cache
itself and by `BlockList.from_json_dict`, which reads each block from
outside once.
"""

import ast
from pathlib import Path

import skewstruct

SRC = Path(skewstruct.__file__).resolve().parent
BLOCK_CLASSES = {"_Block", "GeneralBlock", "SkewBlock"}
ALLOWED = {
    "blocks._cached_block",
    "blocks._interned",
    "blocks.BlockList.from_json_dict",
}


def _is_block_class(node, aliases: set) -> bool:
    """Whether an expression names a block class: by name, by attribute, or by a choice of two."""
    if isinstance(node, ast.Name):
        return node.id in BLOCK_CLASSES | aliases
    if isinstance(node, ast.Attribute):
        return node.attr in BLOCK_CLASSES
    if isinstance(node, ast.IfExp):
        return _is_block_class(node.body, aliases) and _is_block_class(node.orelse, aliases)
    return False


def _construction_sites(module: str, tree) -> set:
    """Qualified names of the functions of a module that call a block class.

    `cls(...)` counts in the methods of a block class and in module-level
    functions, where `cls` is a class passed in; a local name bound to a
    block class counts where it is called.
    """
    sites = set()

    def visit(node, prefix: str, in_block_class: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", child.name in BLOCK_CLASSES)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                aliases = {"cls"} if in_block_class or prefix == f"{module}." else set()
                for n in ast.walk(child):
                    if isinstance(n, ast.Assign) and _is_block_class(n.value, aliases):
                        aliases |= {t.id for t in n.targets if isinstance(t, ast.Name)}
                if any(isinstance(n, ast.Call) and _is_block_class(n.func, aliases) for n in ast.walk(child)):
                    sites.add(prefix + child.name)

    visit(tree, f"{module}.", False)
    return sites


def test_blocks_are_built_only_through_the_cache():
    sites = set().union(
        *(_construction_sites(path.stem, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py")))
    )
    assert sites == ALLOWED


def test_the_guard_sees_each_kind_of_construction_site():
    # a named constructor calling cls(...), a direct call by name and by
    # attribute, and a call through a local alias are each found
    source = '''
class GeneralBlock:
    @classmethod
    def right(cls, index):
        return cls("L", index, None)

def direct():
    return GeneralBlock("L", 1, None)

def by_attribute():
    return blocks.SkewBlock("M", 0, None)

def by_alias(flavor):
    block_cls = GeneralBlock if flavor else SkewBlock
    return block_cls("L", 1, None)

def interned():
    return _interned(GeneralBlock, "L", 1, None)

class BlockList:
    @classmethod
    def general(cls, blocks):
        return cls("general", tuple(blocks))
'''
    assert _construction_sites("m", ast.parse(source)) == {
        "m.GeneralBlock.right",
        "m.direct",
        "m.by_attribute",
        "m.by_alias",
    }
