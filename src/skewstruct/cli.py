"""Command-line front door.

Subcommands: generic, analyze, sample, mc, linearize, codim, closure.
Exit codes: 0 success, 1 validation failure, 2 inconclusive closure search,
3 numeric backend failure or, from `codim --pencil`, exact codimensions that
disagree ("agree": false), 4 closure answered "no" (the source is not in the
target's orbit closure, by rank, a Hom witness or, without --max-steps, a
search exhausted below the state cap; at a codimension gap <= 0 that search
takes no step). All randomness flows from --seed flags. Each command imports
the modules it uses, so a call loads only those.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import SkewstructError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INCONCLUSIVE = 2
EXIT_NUMERIC = 3
EXIT_UNREACHABLE = 4


def _print_error(message) -> None:
    # one line on stderr, whatever line breaks the message or the argv it
    # quotes may hold
    print("error: " + " ".join(str(message).splitlines()), file=sys.stderr)


def _descending(values) -> str:
    return ", ".join(str(v) for v in sorted(values, reverse=True))


def _format_skew_blocks(structure) -> str:
    # display order: singular part first (M blocks, largest first), then the
    # infinite part (K), then finite eigenvalue blocks (H)
    order = {"M": 0, "K": 1, "H": 2}
    blocks = sorted(structure.blocks, key=lambda b: (order[b.kind], -b.index))
    return " ⊕ ".join(str(b) for b in blocks)


def _check_variant(args) -> None:
    """The --pencil variant needs --n and --w, the polynomial one --m and --d."""
    if args.pencil:
        if args.n is None or args.w is None:
            raise SkewstructError("--pencil needs --n and --w")
    elif args.m is None or args.d is None:
        raise SkewstructError("needs --m and --d (or --pencil with --n/--w)")


def cmd_generic(args) -> int:
    from .fileio import dump_json
    from .generic import generic_pencil_structure, generic_poly_structure

    _check_variant(args)
    if args.pencil:
        structure = generic_pencil_structure(args.n, args.w, args.r)
    else:
        structure = generic_poly_structure(args.m, args.d, args.r)
    if args.json:
        print(dump_json(structure.to_json_dict()), end="")
    elif args.pencil:
        print(_format_skew_blocks(structure))
    else:
        print(f"size: {args.m}x{args.m}, grade: {args.d}, rank: {structure.rank}")
        print(f"left minimal indices: {_descending(structure.left_minimal)}")
        print(f"right minimal indices: {_descending(structure.right_minimal)}")
        print("elementary divisors: none")
    return EXIT_OK


def cmd_analyze(args) -> int:
    from .eigenstructure import analyze
    from .exact import NEG_INF
    from .fileio import dump_json, read_polynomial

    if args.tol is not None and args.backend != "float":
        raise SkewstructError("--tol applies to --backend float")
    P = read_polynomial(args.file)
    grade = args.grade if args.grade is not None else P.grade
    deg = P.degree
    if grade < 0:
        raise SkewstructError(f"--grade {grade} is negative")
    if deg is not NEG_INF and grade < deg:
        raise SkewstructError(f"--grade {grade} is below the degree {deg}")
    if args.backend == "float":
        # numpy loads only here: no other command imports the float backend
        from .floating import DEFAULT_TOL, analyze_float

        tol = DEFAULT_TOL if args.tol is None else args.tol
        try:
            structure = analyze_float(P, grade, tol)
        except Exception as exc:  # numeric path is best-effort by contract
            _print_error(f"numeric backend failed: {exc}")
            return EXIT_NUMERIC
        data = structure.to_json_dict()
        data["tolerance"] = tol
    else:
        data = analyze(P, grade).to_json_dict()
    print(dump_json(data), end="")
    return EXIT_OK


def _spec(args):
    """The draw that `sample` and `mc` describe; --coeff-range defaults to the sampler's."""
    from .sampling import DEFAULT_COEFF_RANGE, SampleSpec

    coeff_range = DEFAULT_COEFF_RANGE if args.coeff_range is None else args.coeff_range
    return SampleSpec(m=args.m, d=args.d, r=args.r, coeff_range=coeff_range, seed=args.seed)


def cmd_sample(args) -> int:
    from .fileio import dump_json, polynomial_to_dict, write_polynomial
    from .sampling import sample_bounded_rank

    P = sample_bounded_rank(_spec(args))
    if args.out:
        write_polynomial(P, args.out)
    else:
        print(dump_json(polynomial_to_dict(P)), end="")
    return EXIT_OK


def cmd_mc(args) -> int:
    from .fileio import dump_json
    from .sampling import monte_carlo_genericity

    report = monte_carlo_genericity(_spec(args), args.trials)
    print(dump_json(report.to_json_dict()), end="")
    return EXIT_OK


def cmd_linearize(args) -> int:
    from .fileio import dump_json, polynomial_to_dict, read_polynomial, write_polynomial
    from .linearize import build_linearization, pad_grade

    P = read_polynomial(args.file)
    if args.pad:
        if P.grade % 2:
            raise SkewstructError(f"--pad applies to even grades, and the file has grade {P.grade}")
        P = pad_grade(P)
    lin = build_linearization(P)
    if args.out:
        write_polynomial(lin.pencil, args.out)
    else:
        print(dump_json(polynomial_to_dict(lin.pencil)), end="")
    return EXIT_OK


def cmd_codim(args) -> int:
    from .codimension import pencil_codim_reports, poly_codim_reports
    from .fileio import dump_json

    _check_variant(args)
    if args.pencil:
        reports = pencil_codim_reports(args.n, args.w, args.r, via_tangent=args.via_tangent)
        agree = len({rep.value for rep in reports}) == 1
        if args.json:
            data = {
                "reports": [dataclasses.asdict(rep) for rep in reports],
                "agree": agree,
            }
            print(dump_json(data), end="")
        else:
            print(reports[0].value)
        return EXIT_OK if agree else EXIT_NUMERIC
    if args.via_tangent:
        raise SkewstructError("--via-tangent applies to the --pencil variant")
    reports = poly_codim_reports(args.m, args.d, args.r)
    if args.json:
        print(dump_json({"reports": [dataclasses.asdict(rep) for rep in reports]}), end="")
    else:
        print(reports[0].value)
    return EXIT_OK


def cmd_closure(args) -> int:
    from .blocks import BlockList
    from .degeneration import closure_reachable
    from .fileio import dump_json, read_json

    target = BlockList.from_json_dict(read_json(args.target))
    source = BlockList.from_json_dict(read_json(args.source))
    result = closure_reachable(target, source, max_steps=args.max_steps)
    if result.reachable:
        data = {
            "status": result.status,
            "certificate": [app.to_json_dict() for app in result.certificate],
            "states_explored": result.states_explored,
        }
        print(dump_json(data), end="")
        return EXIT_OK
    data = {"status": result.status, "states_explored": result.states_explored}
    if result.witness is not None:
        data["witness"] = result.witness.to_json_dict()
    print(dump_json(data), end="")
    return EXIT_UNREACHABLE if result.status == "no" else EXIT_INCONCLUSIVE


def _size(text: str) -> int:
    """An integer flag that sets a size or a count, refused past sys.maxsize.

    Such a value could never be a size, and used as one it would fail far
    from the flag; refused here, the error line names the flag.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if abs(value) > sys.maxsize:
        raise argparse.ArgumentTypeError(f"{text} exceeds {sys.maxsize} in absolute value")
    return value


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors reach `main` as one line.

    argparse would print the usage and exit by itself; raising lets `main`
    print a single `error:` line and return the validation exit code.
    Subparsers are built from the same class.
    """

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="skewstruct",
        description="Generic eigenstructures of bounded-rank skew-symmetric "
        "matrix pencils and polynomials: canonical forms, linearizations, "
        "degenerations, codimensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generic", help="print the generic bounded-rank structure")
    g.add_argument("--m", type=_size, help="polynomial size")
    g.add_argument("--d", type=_size, help="polynomial grade")
    g.add_argument("--r", type=_size, required=True, help="half rank (or K-block count with --pencil)")
    g.add_argument("--pencil", action="store_true", help="pencil variant (uses --n/--w)")
    g.add_argument("--n", type=_size, help="pencil size (with --pencil)")
    g.add_argument("--w", type=_size, help="pencil half rank (with --pencil; note 2w <= n-1, so full-rank pencils are out of scope)")
    g.add_argument("--json", action="store_true")
    g.set_defaults(func=cmd_generic)

    a = sub.add_parser("analyze", help="complete eigenstructure of a polynomial file")
    a.add_argument("file")
    a.add_argument("--grade", type=_size, help="override the declared grade")
    a.add_argument("--backend", choices=("exact", "float"), default="exact")
    a.add_argument("--tol", type=float, help="relative rank tolerance (float backend)")
    a.set_defaults(func=cmd_analyze)

    s = sub.add_parser("sample", help="draw a random bounded-rank polynomial")
    s.add_argument("--m", type=_size, required=True)
    s.add_argument("--d", type=_size, required=True)
    s.add_argument("--r", type=_size, required=True)
    s.add_argument("--coeff-range", type=int)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", help="write the polynomial file here instead of stdout")
    s.set_defaults(func=cmd_sample)

    mc = sub.add_parser("mc", help="Monte Carlo genericity experiment")
    mc.add_argument("--m", type=_size, required=True)
    mc.add_argument("--d", type=_size, required=True)
    mc.add_argument("--r", type=_size, required=True)
    mc.add_argument("--trials", type=_size, default=100)
    mc.add_argument("--coeff-range", type=int)
    mc.add_argument("--seed", type=int, default=0)
    mc.set_defaults(func=cmd_mc)

    lin = sub.add_parser("linearize", help="assemble the odd-grade linearization pencil")
    lin.add_argument("file")
    lin.add_argument("--pad", action="store_true", help="raise the grade by one first (for even grades)")
    lin.add_argument("--out")
    lin.set_defaults(func=cmd_linearize)

    c = sub.add_parser("codim", help="orbit codimension of the generic structure")
    c.add_argument("--m", type=_size)
    c.add_argument("--d", type=_size)
    c.add_argument("--r", type=_size, required=True)
    c.add_argument("--pencil", action="store_true")
    c.add_argument("--n", type=_size)
    c.add_argument("--w", type=_size)
    c.add_argument("--via-tangent", action="store_true", help="also run the exact tangent-rank oracle")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_codim)

    cl = sub.add_parser("closure", help="search for a degeneration path between block lists")
    cl.add_argument("--target", required=True, help="block list JSON file (more generic side)")
    cl.add_argument("--source", required=True, help="block list JSON file (degenerate side)")
    cl.add_argument(
        "--max-steps",
        type=_size,
        default=None,
        help="step bound (default: the orbit codimension gap, which bounds every path)",
    )
    cl.set_defaults(func=cmd_closure)

    return parser


_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except argparse.ArgumentError as exc:
        _print_error(exc)
        return EXIT_VALIDATION
    except SystemExit as exc:
        # argparse exits by itself only for --help
        return EXIT_OK if exc.code in (0, None) else EXIT_VALIDATION
    try:
        return args.func(args)
    except (SkewstructError, OSError, OverflowError) as exc:
        # OverflowError: a size that fits sys.maxsize but not the arithmetic
        # it feeds
        _print_error(exc)
        return EXIT_VALIDATION
    except MemoryError:  # a size that fits sys.maxsize but not in memory; no message of its own
        _print_error("out of memory: the requested sizes are too large")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
