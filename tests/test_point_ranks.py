"""No rank in the library is read at chosen evaluation points, except by sampling.

The normal rank, the minimal indices and the structure at infinity all come
from one reader of kernel-profile stages (`eigenstructure._read_profile`), in
both backends. The points 0, 1, -1, 2, ... are `sampling._points`, and only
the two sampling tools read them: `sampling.sample_bounded_rank`, which
accepts a draw when its r x (m-r) block B has rank r at one of the first
r*d + 1 points (the draw C^T [[0, B], [-B^T, 0]] C has rank 2 * rank B(x)
at every point x, since C is nonsingular), and
`sampling.perturb_rank_increase`, which needs a point where the polynomial
attains its normal rank. The sampler ranks no m x m matrix at a point. In
`floating`, the one rank read is an `svd` in `_nullity`, which reads the
ranks of block-Toeplitz truncations: the local profile at an eigenvalue
candidate starts with the rank of P(z), so no function of the float backend
evaluates P and ranks it on its own.
"""

import ast
from pathlib import Path

import skewstruct
from skewstruct import sampling
from skewstruct.exact import MatrixPolynomial
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

    A function reads them if it reads `_points` (other than by being it),
    or, in `floating`, if it reads `svd` and is not `_nullity`.
    """
    readers = set()

    def visit(node, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name != "_points" and "_points" in _names(child):
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
    # every matrix the sampler ranks is its constant m x m C or a value at
    # a point, and each value it takes at a point is its block's, ranked once
    real_rank, real_value = sampling.rank_exact, MatrixPolynomial._scaled_value
    values, ranked = [], []

    def recording_rank(matrix):
        ranked.append(matrix)
        return real_rank(matrix)

    def recording_value(P, p, q):
        value = real_value(P, p, q)
        values.append(value)
        return value

    monkeypatch.setattr(sampling, "rank_exact", recording_rank)
    monkeypatch.setattr(MatrixPolynomial, "_scaled_value", recording_value)
    for m, d, r in [(3, 1, 1), (4, 2, 1), (5, 2, 2), (6, 4, 2), (7, 2, 3), (9, 2, 4)]:
        for coeff_range in (1, 9):
            for seed in range(4):
                values.clear()
                ranked.clear()
                sample_bounded_rank(SampleSpec(m, d, r, coeff_range, seed))
                point_ids = {id(value) for value in values}
                at_points = [_shape(matrix) for matrix in ranked if id(matrix) in point_ids]
                constants = {_shape(matrix) for matrix in ranked if id(matrix) not in point_ids}
                assert at_points and set(at_points) == {(r, m - r)}, (m, d, r, coeff_range, seed)
                assert len(at_points) == len(values) and constants == {(m, m)}, (m, d, r, coeff_range, seed)


def _shape(matrix) -> tuple:
    return len(matrix), len(matrix[0])


def test_the_guard_sees_each_kind_of_point_rank():
    source = '''
def by_name(P):
    return max(rank_exact(P._scaled_value(x, 1)) for x in _points())

def by_module(P):
    return next(sampling._points())

def _points():
    yield 0
    for half in itertools.count(1):
        yield half
        yield -half

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
