"""No rank in the library is read at chosen evaluation points, except by sampling.

The normal rank, the minimal indices and the structure at infinity all come
from one reader of kernel-profile stages (`eigenstructure._read_profile`), in
both backends. `exact._point_ranks`, the ranks at 0, 1, -1, 2, ..., is read
only by `sampling.sample_bounded_rank`, which accepts a draw when its
r x (m-r) block B has rank r at one of the first r*d + 1 points (the draw
C^T [[0, B], [-B^T, 0]] C has rank 2 * rank B(x) at every point x, since C
is nonsingular), and `sampling.perturb_rank_increase`, which needs a point
where the polynomial attains its normal rank. The sampler ranks no m x m
matrix at a point. In `floating`, the one rank read is an `svd` in
`_nullity`, which reads the ranks of block-Toeplitz truncations: the local
profile at an eigenvalue candidate starts with the rank of P(z), so no
function of the float backend evaluates P and ranks it on its own.
"""

import ast
from pathlib import Path

import skewstruct
from skewstruct import exact
from skewstruct.sampling import SampleSpec, sample_bounded_rank

SRC = Path(skewstruct.__file__).resolve().parent
ALLOWED = {"sampling.sample_bounded_rank", "sampling.perturb_rank_increase"}


def _names(node) -> set:
    """Bare and attribute names read in a node."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def _point_rank_readers(module: str, tree) -> set:
    """Qualified names of the functions of a module that read ranks at chosen points.

    A function reads them if it reads `_point_ranks` (other than by being
    it), or, in `floating`, if it reads `svd` and is not `_nullity`.
    """
    readers = set()

    def visit(node, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name != "_point_ranks" and "_point_ranks" in _names(child):
                    readers.add(prefix + child.name)
                elif module == "floating" and child.name != "_nullity" and "svd" in _names(child):
                    readers.add(prefix + child.name)

    visit(tree, f"{module}.")
    return readers


def test_only_sampling_reads_ranks_at_points():
    readers = set().union(
        *(_point_rank_readers(path.stem, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py")))
    )
    assert readers == ALLOWED


def test_the_sampler_ranks_only_its_block_at_points(monkeypatch):
    real_rank = exact.rank_exact
    shapes = []

    def recording_rank(matrix):
        shapes.append((len(matrix), len(matrix[0])))
        return real_rank(matrix)

    monkeypatch.setattr(exact, "rank_exact", recording_rank)
    for m, d, r in [(3, 1, 1), (4, 2, 1), (5, 2, 2), (6, 4, 2), (7, 2, 3), (9, 2, 4)]:
        for coeff_range in (1, 9):
            for seed in range(4):
                shapes.clear()
                sample_bounded_rank(SampleSpec(m, d, r, coeff_range, seed))
                assert shapes and set(shapes) == {(r, m - r)}, (m, d, r, coeff_range, seed)


def test_the_guard_sees_each_kind_of_point_rank():
    source = '''
def by_name(P):
    return max(rank for _, rank in _point_ranks(P))

def by_module(P):
    return next(exact._point_ranks(P))

def _point_ranks(P):
    for x in _points():
        yield x, rank_exact(P._scaled_value(x, 1))

def on_a_circle(coeffs, tol_rel):
    return max(np.linalg.svd(sum(c * z**i for i, c in enumerate(coeffs)), compute_uv=False)[0] for z in circle())

def at_candidates(coeffs, tol_rel):
    for z in _eigenvalue_candidates(coeffs):
        if svd(value(coeffs, z), compute_uv=False)[-1] > tol_rel:
            return [len(svd(value(coeffs, w))[1]) for w in _eigenvalue_candidates(coeffs)]

def _nullity(t, width, tol_rel):
    svals = np.linalg.svd(t[:, :width], compute_uv=False)
    return width - int(np.count_nonzero(svals > tol_rel * svals[0]))
'''
    tree = ast.parse(source)
    assert _point_rank_readers("exact", tree) == {"exact.by_name", "exact.by_module"}
    assert _point_rank_readers("floating", tree) == {
        "floating.by_name",
        "floating.by_module",
        "floating.on_a_circle",
        "floating.at_candidates",
    }
