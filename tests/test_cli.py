"""Tests for the command-line interface and file formats."""

import contextlib
import io
import itertools
import json
import math
import random
from fractions import Fraction
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewstruct import codimension
from skewstruct.blocks import BlockList, GeneralBlock, SkewBlock
from skewstruct.cli import main
from skewstruct.errors import SkewstructError
from skewstruct.exact import MatrixPolynomial, RationalPolynomial, SkewMatrixPolynomial
from skewstruct.generic import generic_pencil_structure
from skewstruct.points import parse_rational
from skewstruct.sampling import SampleSpec, sample_bounded_rank
from skewstruct.fileio import (
    FileFormatError,
    dump_json,
    json_rational_parts,
    polynomial_from_dict,
    polynomial_to_dict,
    read_polynomial,
    write_polynomial,
)

P = RationalPolynomial
x = P.variable()


def skew2(p, grade=None):
    return SkewMatrixPolynomial([[P.zero(), p], [-p, P.zero()]], grade)


def run_cli(*argv):
    """Run the command line in a fresh interpreter, as a user would."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "skewstruct.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.fixture
def poly_file(tmp_path):
    path = tmp_path / "p.json"
    write_polynomial(skew2(x**2, grade=2), str(path))
    return str(path)


class TestPolynomialFile:
    def test_roundtrip(self, tmp_path):
        p = skew2((x - 1) * x, grade=2)
        path = tmp_path / "q.json"
        write_polynomial(p, str(path))
        assert read_polynomial(str(path)) == p

    def test_roundtrip_at_int_grades(self, tmp_path):
        # the grade is written as a JSON int, which read_polynomial accepts;
        # a bool grade, which it refuses, is refused at construction
        # (tests/test_exact.py::test_grade_must_be_an_int)
        path = tmp_path / "z.json"
        for grade in range(4):
            p = SkewMatrixPolynomial.zeros(2, 2, grade)
            write_polynomial(p, str(path))
            assert type(json.loads(path.read_text())["grade"]) is int
            assert read_polynomial(str(path)) == p

    def test_write_read_write_byte_identical(self, tmp_path):
        p = skew2(x**2 * 3 + 1, grade=3)
        path = tmp_path / "r.json"
        write_polynomial(p, str(path))
        first = path.read_bytes()
        write_polynomial(read_polynomial(str(path)), str(path))
        assert path.read_bytes() == first

    def test_rationals_as_strings(self):
        data = polynomial_to_dict(skew2(P([0, 1]), grade=1))
        assert data["coefficients"][1][0][1] == "1/1"

    def test_rejects_malformed_rational(self):
        data = {
            "m": 2,
            "grade": 0,
            "coefficients": [[["0/1", "oops"], ["0/1", "0/1"]]],
        }
        with pytest.raises(FileFormatError):
            polynomial_from_dict(data)

    def test_strict_rational_format(self):
        valid = {"0": 0, "-0": 0, "007": 7, "-7/2": Fraction(-7, 2), "4/6": Fraction(2, 3)}
        for text, value in valid.items():
            assert parse_rational(text) == value
        for text in [" 1_0 ", "-1_0", "+3", "1/-2", "1/", "/2", "1/0", "1/00", "٣", "1\n", "1.5", ""]:
            with pytest.raises(ValueError):
                parse_rational(text)

    @pytest.mark.parametrize("grade", [0, 0.5, -1])
    def test_negative_size(self, tmp_path, capsys, grade):
        # the size is checked before the grade and before the coefficient
        # shapes, which named a -1 x -1 list
        data = {"m": -1, "grade": grade, "coefficients": [[]]}
        with pytest.raises(FileFormatError, match="^m must be nonnegative, got -1$"):
            polynomial_from_dict(data)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        assert main(["analyze", str(path)]) == 1
        assert capsys.readouterr() == ("", "error: m must be nonnegative, got -1\n")

    def test_rejects_non_skew(self):
        data = {
            "m": 2,
            "grade": 0,
            "coefficients": [[["0/1", "1/1"], ["1/1", "0/1"]]],
        }
        with pytest.raises(Exception):
            polynomial_from_dict(data)


def _entry_by_entry(data):
    """The reader's result or first error message, from one `json_rational_parts` call per entry."""
    m, grade = data["m"], data["grade"]
    mats = []
    try:
        for mat in data["coefficients"]:
            if not (isinstance(mat, list) and len(mat) == m and all(isinstance(r, list) and len(r) == m for r in mat)):
                raise FileFormatError(f"coefficient matrices must be {m} x {m} lists")
            mats.append([[json_rational_parts(v) for v in row] for row in mat])
    except FileFormatError as exc:
        return str(exc)
    den = math.lcm(*(d for mat in mats for row in mat for _, d in row))
    numerators = [[[n * (den // d) for n, d in row] for row in mat] for mat in mats]
    return SkewMatrixPolynomial._from_integers(m, m, grade, numerators, den)


class TestParseOnce:
    """The reader parses each distinct entry text once, with the errors of a parse of every entry."""

    @staticmethod
    def file_with(entries, m=4, grade=1):
        """A grade-`grade` m x m file whose entries, in file order, cycle through `entries`."""
        cycle = itertools.cycle(entries)
        return {
            "m": m,
            "grade": grade,
            "coefficients": [[[next(cycle) for _ in range(m)] for _ in range(m)] for _ in range(grade + 1)],
        }

    def assert_error(self, tmp_path, capsys, data, message):
        assert _entry_by_entry(data) == message
        with pytest.raises(FileFormatError) as raised:
            polynomial_from_dict(data)
        assert str(raised.value) == message
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        assert main(["analyze", str(path)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    @pytest.mark.parametrize("text", ["1/0", "+1", " 1", "1_0", "oops", "1/"])
    def test_a_malformed_entry_repeated(self, tmp_path, capsys, text):
        # repeated all through a 12 x 12 file, after valid entries that repeat too
        data = self.file_with(["0", "1/2", "0", text], m=12)
        self.assert_error(tmp_path, capsys, data, f"malformed rational {text!r}")

    def test_the_first_of_two_malformed_entries_is_named(self, tmp_path, capsys):
        data = self.file_with(["0", "+1", "1_0", "+1"])
        self.assert_error(tmp_path, capsys, data, "malformed rational '+1'")

    @pytest.mark.parametrize("entry", [[1], ["1"], {"1": 1}, 1, 0, True, False, None, 1.0])
    def test_an_entry_that_is_not_a_string(self, tmp_path, capsys, entry):
        # a list or dict entry is unhashable: it must not be looked up
        data = self.file_with(["0", "1/2", "0", entry])
        self.assert_error(tmp_path, capsys, data, f"rational entries must be strings, got {entry!r}")

    def test_not_a_string_after_a_repeated_malformed_one(self, tmp_path, capsys):
        data = self.file_with(["0", "1/0", "1/0", [1]])
        self.assert_error(tmp_path, capsys, data, "malformed rational '1/0'")

    def test_shape_errors_keep_their_place(self, tmp_path, capsys):
        # a malformed entry in the first matrix comes before a bad second one
        good = [["0", "1/2"], ["-1/2", "0"]]
        bad = [["0", "x"], ["x", "0"]]
        self.assert_error(tmp_path, capsys, {"m": 2, "grade": 1, "coefficients": [bad, [["0"]]]},
                          "malformed rational 'x'")
        self.assert_error(tmp_path, capsys, {"m": 2, "grade": 1, "coefficients": [good, [["x"]]]},
                          "coefficient matrices must be 2 x 2 lists")

    def test_repeated_entries_read_as_parsed_one_by_one(self):
        # every distinct text is parsed once, but equal values written
        # differently ("1/2", "2/4") and the common denominator come out as
        # the entry-by-entry parse's
        values = ["1/2", "2/4", "-3", "5/6", "007", "-0", "1/3"]
        rng = random.Random(41)
        m, grade = 5, 2
        mats = []
        for _ in range(grade + 1):
            mat = [["0"] * m for _ in range(m)]
            for i in range(m):
                for j in range(i + 1, m):
                    text = rng.choice(values)
                    mat[i][j] = text
                    mat[j][i] = text[1:] if text.startswith("-") else "-" + text
            mats.append(mat)
        data = {"m": m, "grade": grade, "coefficients": mats}
        expected = _entry_by_entry(data)
        read = polynomial_from_dict(data)
        assert (read.numerators, read.denominator) == (expected.numerators, expected.denominator)
        assert read == expected


class TestGenericCommand:
    def test_poly_output(self, capsys):
        assert main(["generic", "--m", "5", "--d", "2", "--r", "2"]) == 0
        out = capsys.readouterr().out
        assert "left minimal indices: 4" in out

    def test_poly_list_output(self, capsys):
        main(["generic", "--m", "7", "--d", "2", "--r", "2"])
        assert "left minimal indices: 2, 1, 1" in capsys.readouterr().out

    def test_pencil_output(self, capsys):
        assert main(["generic", "--pencil", "--n", "5", "--w", "2", "--r", "1"]) == 0
        assert capsys.readouterr().out.strip() == "M_1 ⊕ K_1"

    def test_pencil_json(self, capsys):
        assert main(["generic", "--pencil", "--n", "5", "--w", "2", "--r", "1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {
            "flavor": "skew",
            "blocks": [{"kind": "K", "index": 1}, {"kind": "M", "index": 1}],
        }

    def test_param_domain_exit(self, capsys):
        assert main(["generic", "--m", "4", "--d", "2", "--r", "2"]) == 1
        assert "error" in capsys.readouterr().err

    def test_json(self, capsys):
        assert main(["generic", "--m", "5", "--d", "2", "--r", "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["left_minimal"] == [4]
        assert data["rank"] == 4

    @pytest.mark.parametrize("command", ["generic", "codim"])
    def test_each_variant_needs_its_sizes(self, capsys, command):
        assert main([command, "--r", "2"]) == 1
        assert capsys.readouterr() == ("", "error: needs --m and --d (or --pencil with --n/--w)\n")
        assert main([command, "--pencil", "--r", "1"]) == 1
        assert capsys.readouterr() == ("", "error: --pencil needs --n and --w\n")
        assert main([command, "--pencil", "--n", "5", "--r", "1"]) == 1
        assert capsys.readouterr() == ("", "error: --pencil needs --n and --w\n")


class TestAnalyzeCommand:
    def test_exact(self, poly_file, capsys):
        assert main(["analyze", poly_file]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rank"] == 2
        assert data["finite"] == [{"factor": ["0/1", "1/1"], "multiplicities": [2, 2]}]
        assert data["infinite"] == [0, 0]

    def test_grade_override(self, poly_file, capsys):
        assert main(["analyze", poly_file, "--grade", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["infinite"] == [1, 1]

    def test_zero_file(self, tmp_path, capsys):
        path = tmp_path / "z.json"
        write_polynomial(SkewMatrixPolynomial.zeros(3, 3, grade=2), str(path))
        assert main(["analyze", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rank"] == 0
        assert data["left_minimal"] == [0, 0, 0]

    def test_float_backend(self, poly_file, capsys):
        assert main(["analyze", poly_file, "--backend", "float"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rank"] == 2
        assert data["tolerance"] == 1e-8

    @pytest.mark.parametrize("grade", ["0", "1", "2", "3"])
    def test_float_backend_on_an_empty_matrix(self, tmp_path, capsys, grade):
        # numpy read the 0 x 0 coefficients as shape (0,) and the float backend exited 3
        path = tmp_path / "e.json"
        path.write_text('{"m": 0, "grade": 1, "coefficients": [[], []]}')
        assert main(["analyze", str(path), "--grade", grade]) == 0
        exact = json.loads(capsys.readouterr().out)
        assert main(["analyze", str(path), "--grade", grade, "--backend", "float"]) == 0
        assert json.loads(capsys.readouterr().out) == {**exact, "tolerance": 1e-8}

    @pytest.mark.parametrize("tol", ["1e-8", "-1", "nan", "inf"])
    @pytest.mark.parametrize("backend", [[], ["--backend", "exact"]], ids=["default", "exact"])
    def test_tol_needs_the_float_backend(self, poly_file, capsys, backend, tol):
        # the exact backend reads no tolerance: it was ignored, and a NaN or
        # negative one still exited 0 with the exact answer
        assert main(["analyze", poly_file, *backend, "--tol", tol]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --tol applies to --backend float\n"

    def test_float_backend_failure_exit_code(self, poly_file, capsys):
        # a NaN or infinite tolerance printed rank 0 and wrote NaN/Infinity,
        # which is not JSON
        for tol in ("-1", "nan", "inf"):
            assert main(["analyze", poly_file, "--backend", "float", "--tol", tol]) == 3
            out, err = capsys.readouterr()
            assert out == ""
            assert "numeric backend failed" in err

    def test_only_the_float_backend_loads_numpy(self, tmp_path):
        # exact analyze with rational eigenvalues, and generic, in a fresh
        # interpreter: neither imports numpy or scipy; --backend float does.
        # sympy loads only for a factor that the exact rules leave, an
        # irreducible quartic here
        path = tmp_path / "r.json"
        write_polynomial(skew2((x - Fraction(1, 2)) * (x + 3)), str(path))
        quartic = tmp_path / "q.json"
        write_polynomial(skew2((x**4 + 1) * (x - Fraction(1, 3))), str(quartic))
        script = (
            "import sys\n"
            "from skewstruct.cli import main\n"
            "main(sys.argv[1:])\n"
            "print(sorted({'numpy', 'scipy'} & sys.modules.keys()), 'sympy' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

        def run(*argv):
            return subprocess.run(
                [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=120
            ).stdout.splitlines()

        def loaded(*argv):
            return run(*argv)[-1]

        # rational roots are found by the exact rules, without sympy
        assert loaded("analyze", str(path)) == "[] False"
        *printed, last = run("analyze", str(quartic))
        assert last == "[] True"
        assert json.loads("\n".join(printed))["finite"] == [
            {"factor": ["-1/3", "1/1"], "multiplicities": [1, 1]},
            {"factor": ["1/1", "0/1", "0/1", "0/1", "1/1"], "multiplicities": [1, 1]},
        ]
        assert loaded("generic", "--m", "7", "--d", "2", "--r", "2") == "[] False"
        assert loaded("analyze", str(path), "--backend", "float").startswith("['numpy'")

    def test_grade_below_degree(self, poly_file, capsys):
        assert main(["analyze", poly_file, "--grade", "1"]) == 1

    def test_negative_grade_override(self, tmp_path, capsys):
        path = tmp_path / "z.json"
        write_polynomial(SkewMatrixPolynomial.zeros(2, 2, grade=1), str(path))
        assert main(["analyze", str(path), "--grade", "-1"]) == 1
        assert capsys.readouterr().err == "error: --grade -1 is negative\n"

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent.json"]) == 1


HUGE = str(10**20)  # past sys.maxsize, so it fails before anything is allocated


class TestHugeIntegers:
    """Integer arguments too large for a size end in exit 1 and one error line naming the flag."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["analyze", "{file}", "--grade", HUGE], "--grade"),
            (["generic", "--m", HUGE, "--d", "1", "--r", "1"], "--m"),
            (["generic", "--pencil", "--n", HUGE, "--w", "1", "--r", "0"], "--n"),
            (["codim", "--pencil", "--n", HUGE, "--w", "1", "--r", "0"], "--n"),
            (["mc", "--m", "5", "--d", "2", "--r", "1", "--trials", HUGE], "--trials"),
            (["generic", "--m", "-" + HUGE, "--d", "1", "--r", "1"], "--m"),
        ],
        ids=["analyze-grade", "generic-m", "generic-pencil-n", "codim-pencil-n", "mc-trials", "negative-m"],
    )
    def test_exit_code(self, poly_file, capsys, argv, flag):
        assert int(HUGE) > sys.maxsize
        assert main([arg.format(file=poly_file) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"error: argument {flag}: ")

    def test_non_integer_keeps_the_int_message(self, capsys):
        assert main(["generic", "--m", "five", "--d", "1", "--r", "1"]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line == "error: argument --m: invalid int value: 'five'"

    def test_seed_is_not_a_size(self, capsys):
        assert main(["sample", "--m", "3", "--d", "1", "--r", "1", "--seed", HUGE]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["generic", "--m", str(sys.maxsize), "--d", "1", "--r", "1"],
            ["generic", "--pencil", "--n", str(sys.maxsize), "--w", "1", "--r", "1"],
        ],
        ids=["generic-m", "generic-pencil-n"],
    )
    def test_unallocatable_size(self, capsys, argv):
        # sys.maxsize passes the size bound, and building a list that long
        # fails at once, before any allocation
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and line != "error: "


class TestMalformedInput:
    """Malformed files end in exit 1 and one error line, never a traceback."""

    def assert_validation_error(self, result):
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        [line] = result.stderr.splitlines()
        assert line.startswith("error: ")

    def analyze_file(self, tmp_path, data):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        return run_cli("analyze", str(path))

    def closure_with_target(self, tmp_path, blocks):
        return self.closure_with_target_file(tmp_path, {"flavor": "skew", "blocks": blocks})

    def closure_with_target_file(self, tmp_path, data):
        target = tmp_path / "t.json"
        target.write_text(json.dumps(data))
        source = tmp_path / "s.json"
        source.write_text(json.dumps({"flavor": "skew", "blocks": [{"kind": "M", "index": 1}]}))
        return run_cli("closure", "--target", str(target), "--source", str(source))

    def test_negative_grade(self, tmp_path):
        result = self.analyze_file(tmp_path, {"m": 2, "grade": -1, "coefficients": []})
        self.assert_validation_error(result)

    def test_null_coefficient_matrix(self, tmp_path):
        result = self.analyze_file(tmp_path, {"m": 2, "grade": 0, "coefficients": [None]})
        self.assert_validation_error(result)

    @pytest.mark.parametrize(
        "m, grade, n_matrices",
        [(2, 0.5, 1), (2.9, 0, 1), (2, True, 2), (True, 0, 1), (2, "0", 1)],
        ids=["fractional-grade", "fractional-size", "boolean-grade", "boolean-size", "string-grade"],
    )
    def test_non_integer_field(self, tmp_path, m, grade, n_matrices):
        # int() would truncate or coerce each of these into a valid file
        size = int(m)
        zeros = [["0/1"] * size for _ in range(size)]
        data = {"m": m, "grade": grade, "coefficients": [zeros] * n_matrices}
        self.assert_validation_error(self.analyze_file(tmp_path, data))

    @pytest.mark.parametrize(
        "text, negated", [(" 1_0 ", "-10"), ("-1_0", "10"), ("+3", "-3"), ("1/-2", "1/2")]
    )
    def test_non_canonical_rational(self, tmp_path, text, negated):
        # int() reads each of these, and with its negation the file is skew
        data = {"m": 2, "grade": 0, "coefficients": [[["0", text], [negated, "0"]]]}
        self.assert_validation_error(self.analyze_file(tmp_path, data))

    @pytest.mark.parametrize("text", [" 1_0 ", "-1_0", "+3", "1/-2", "1/"])
    def test_non_canonical_eigenvalue(self, tmp_path, text):
        # H_1 + M_0 has the size of the source M_1, so a parsed value would search
        blocks = [{"kind": "H", "index": 1, "eigenvalue": text}, {"kind": "M", "index": 0}]
        self.assert_validation_error(self.closure_with_target(tmp_path, blocks))

    @pytest.mark.parametrize(
        "block",
        [
            {"kind": "Q", "index": 1},
            {"kind": "M", "index": -2},
            {"kind": "M", "index": "x"},
            {"kind": "M", "index": 1.7},
            {"kind": "M", "index": True},
            {"kind": "H", "index": 1, "eigenvalue": 5},
            {"kind": ["M"], "index": 1},
            {"kind": {"M": 1}, "index": 1},
            {"kind": 3, "index": 1},
        ],
        ids=[
            "unknown-kind",
            "negative-index",
            "non-integer-index",
            "fractional-index",
            "boolean-index",
            "non-string-eigenvalue",
            "list-kind",
            "object-kind",
            "number-kind",
        ],
    )
    def test_malformed_block(self, tmp_path, block):
        self.assert_validation_error(self.closure_with_target(tmp_path, [block]))

    @pytest.mark.parametrize(
        "data",
        [
            [],
            "x",
            {"flavor": "skew", "blocks": 5},
            {"blocks": [{"kind": "M", "index": 1}]},
            {"flavor": "skew"},
            {"flavor": "skew", "blocks": [{"index": 1}]},
            {"flavor": "skew", "blocks": [{"kind": "M"}]},
        ],
        ids=["list", "string", "non-list-blocks", "no-flavor", "no-blocks", "no-kind", "no-index"],
    )
    def test_malformed_block_list(self, tmp_path, data):
        self.assert_validation_error(self.closure_with_target_file(tmp_path, data))

    def test_unknown_flavor(self, tmp_path):
        data = {"flavor": "foo", "blocks": [{"kind": "L", "index": 1}]}
        result = self.closure_with_target_file(tmp_path, data)
        self.assert_validation_error(result)
        assert result.stderr == "error: unknown flavor 'foo'\n"


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
RATIONAL_TEXTS = st.sampled_from(["0", "0/1", "1", "-1", "2/3", "-7/2", "1_0", " 4"])
NEAR_MISS_TEXTS = RATIONAL_TEXTS | st.sampled_from(["1/0", "x", "1/2/3", "", "1.5", "1e3", "/", "9" * 5000])


@st.composite
def polynomial_dicts(draw):
    """Polynomial file contents: valid skew ones and near misses of them."""
    m, grade = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    if draw(st.booleans()):
        coefficients = []
        for _ in range(grade + 1):
            mat = [["0"] * m for _ in range(m)]
            for i in range(m):
                for j in range(i + 1, m):
                    value = Fraction(draw(RATIONAL_TEXTS).replace(" ", ""))
                    mat[i][j], mat[j][i] = str(value), str(-value)
            coefficients.append(mat)
    else:
        entry = NEAR_MISS_TEXTS | JSON_SCALARS
        coefficients = [[[draw(entry) for _ in range(m)] for _ in range(m)] for _ in range(grade + 1)]
    data = {"m": m, "grade": grade, "coefficients": coefficients}
    key = draw(st.sampled_from(["m", "grade", "coefficients", None]))
    if key is not None:
        if draw(st.booleans()):
            del data[key]
        else:
            data[key] = draw(JSON_VALUES)
    return data


class TestFuzzedInput:
    """Any JSON value is a polynomial or a SkewstructError; the CLI never tracebacks."""

    @given(JSON_VALUES | polynomial_dicts())
    @settings(max_examples=400, deadline=None)
    def test_polynomial_from_dict(self, data):
        try:
            result = polynomial_from_dict(data)
        except SkewstructError:
            return
        assert isinstance(result, MatrixPolynomial)

    @staticmethod
    def assert_clean_exit(result):
        assert result.returncode in (0, 1, 2, 3)
        assert "Traceback" not in result.stderr
        if result.returncode:
            [line] = result.stderr.splitlines()
            assert line.startswith("error: ")
        else:
            assert result.stdout

    @given(polynomial_dicts())
    @settings(max_examples=6, deadline=None)
    def test_analyze_fuzzed_file(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "p.json"
        path.write_text(json.dumps(data))
        self.assert_clean_exit(run_cli("analyze", str(path)))

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe{", b'{"m": ' + b"9" * 5000 + b"}", b"[" * 100_000 + b"]" * 100_000],
        ids=["not-utf8", "over-long-integer", "deep-nesting"],
    )
    def test_unreadable_json(self, tmp_path, content):
        path = tmp_path / "p.json"
        path.write_bytes(content)
        result = run_cli("analyze", str(path))
        assert result.returncode == 1
        self.assert_clean_exit(result)


SUBCOMMANDS = ["generic", "analyze", "sample", "mc", "linearize", "codim", "closure"]
SWITCHES = ["--pencil", "--json", "--pad", "--via-tangent", "--help", "-h"]
VALUED_FLAGS = [
    "--m", "--d", "--r", "--n", "--w", "--grade", "--trials", "--coeff-range", "--seed",
    "--max-steps", "--backend", "--tol", "--out", "--target", "--source",
]
JUNK = st.text(max_size=6)


def argv_value(flag, files):
    """Values for one flag: mostly plausible, sometimes junk."""
    if flag == "--trials":
        plausible = st.integers(-1, 3).map(str)
    elif flag in ("--backend", "--tol"):
        plausible = st.sampled_from(["exact", "float", "1e-8", "0", "-1", "nan", "inf"])
    elif flag == "--out":
        # never an input file, so no example changes what later ones read
        return st.sampled_from(files["other"]) | JUNK
    elif flag in ("--target", "--source"):
        plausible = st.sampled_from(files["block_lists"])
    else:
        plausible = st.integers(-1, 6).map(str)
    return plausible | st.sampled_from(files["all"]) | JUNK


@st.composite
def cli_argv(draw, files):
    """Command lines from the real subcommands and flags, small integers,
    junk strings and paths to valid, malformed and missing files."""
    argv = [draw(st.sampled_from(SUBCOMMANDS) | JUNK)]
    if argv[0] in ("analyze", "linearize") and draw(st.integers(0, 9)):
        argv.append(draw(st.sampled_from(files["polynomials"]) | st.sampled_from(files["all"])))
    if argv[0] == "closure" and draw(st.integers(0, 9)):
        for flag in ("--target", "--source"):
            argv += [flag, draw(st.sampled_from(files["block_lists"]))]
    for _ in range(draw(st.integers(0, 7))):
        flag = draw(st.sampled_from(VALUED_FLAGS + SWITCHES) | JUNK)
        argv.append(flag)
        if flag in VALUED_FLAGS and draw(st.integers(0, 9)):
            argv.append(draw(argv_value(flag, files)))
    return argv


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    (root / "cwd").mkdir()
    write_polynomial(skew2(x**2, grade=2), str(root / "even.json"))
    write_polynomial(sample_bounded_rank(SampleSpec(m=3, d=1, r=1, seed=0)), str(root / "odd.json"))
    block_lists = {
        "skew_source.json": BlockList.skew([SkewBlock.m(0), SkewBlock.h(1, 3), SkewBlock.k(1)]),
        "skew_target.json": generic_pencil_structure(5, 2, 1),
        "general_source.json": BlockList.general([GeneralBlock.right(0), GeneralBlock.right(2)]),
        "general_target.json": BlockList.general([GeneralBlock.right(1), GeneralBlock.right(1)]),
        # 2x2 pencils of rank 0 and 2: exit 4 one way, 0 or 2 the other
        "zero.json": BlockList.general([GeneralBlock.right(0)] * 2 + [GeneralBlock.left(0)] * 2),
        "regular.json": BlockList.general([GeneralBlock.finite(1, 1), GeneralBlock.finite(1, 2)]),
    }
    for name, blocks in block_lists.items():
        (root / name).write_text(dump_json(blocks.to_json_dict()))
    (root / "malformed.json").write_text(json.dumps({"m": 2, "grade": 0, "coefficients": [None]}))
    (root / "not_json.json").write_bytes(b"\xff{")
    files = {
        "polynomials": [str(root / "even.json"), str(root / "odd.json")],
        "block_lists": [str(root / name) for name in block_lists],
        "other": [str(root / name) for name in ("out.json", "missing.json")] + [str(root)],
    }
    files["all"] = [p for group in files.values() for p in group] + [
        str(root / "malformed.json"),
        str(root / "not_json.json"),
    ]
    files["cwd"] = str(root / "cwd")
    return files


class TestFuzzedArgv:
    """Any command line exits 0-4 with at most one error line, never a traceback."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=10_000)
    def test_main(self, cli_files, data):
        argv = data.draw(cli_argv(cli_files))
        out, err = io.StringIO(), io.StringIO()
        # a junk --out path is written relative to the working directory
        with contextlib.chdir(cli_files["cwd"]), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3, 4)
        lines = err.getvalue().splitlines()
        assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: ")), lines


class TestSampleAndMc:
    def test_sample_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        code = main(
            ["sample", "--m", "4", "--d", "2", "--r", "1", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        p = read_polynomial(str(out))
        assert p.rows == 4 and p.grade == 2

    def test_sample_stdout_deterministic(self, capsys):
        main(["sample", "--m", "3", "--d", "1", "--r", "1", "--seed", "5"])
        first = capsys.readouterr().out
        main(["sample", "--m", "3", "--d", "1", "--r", "1", "--seed", "5"])
        assert capsys.readouterr().out == first

    def test_mc(self, capsys):
        code = main(
            ["mc", "--m", "3", "--d", "2", "--r", "1", "--trials", "5", "--seed", "7"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["trials"] == 5
        assert data["matches"] + len(data["mismatch_seeds"]) == 5
        assert data["expected"]["rank"] == 2

    def test_mc_reports_mismatch_structures(self, tmp_path, capsys):
        shape = ["--m", "4", "--d", "2", "--r", "1", "--coeff-range", "1"]
        assert main(["mc", *shape, "--trials", "40", "--seed", "0"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [m["seed"] for m in data["mismatches"]] == data["mismatch_seeds"]
        assert len(data["mismatches"]) == 40 - data["matches"] == 17
        for mismatch in data["mismatches"]:
            # the listed structure is the replayed draw's, and not the generic one
            out = tmp_path / f"{mismatch['seed']}.json"
            assert main(["sample", *shape, "--seed", str(mismatch["seed"]), "--out", str(out)]) == 0
            assert main(["analyze", str(out), "--grade", "2"]) == 0
            assert json.loads(capsys.readouterr().out) == mismatch["structure"] != data["expected"]

    def test_mc_rejects_negative_trials(self, capsys):
        assert main(["mc", "--m", "3", "--d", "2", "--r", "1", "--trials", "-3"]) == 1
        assert capsys.readouterr().err.startswith("error: trials must be at least 1")


class TestLinearizeCommand:
    def test_even_grade_needs_pad(self, poly_file, capsys):
        assert main(["linearize", poly_file]) == 1
        assert main(["linearize", poly_file, "--pad"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["m"] == 6 and data["grade"] == 1

    def test_pad_on_an_odd_grade_names_the_flag(self, tmp_path, capsys):
        # padding a grade-3 file gave grade 4, and the error named grade 4
        path = tmp_path / "p.json"
        write_polynomial(skew2(x**3, grade=3), str(path))
        assert main(["linearize", str(path), "--pad"]) == 1
        assert capsys.readouterr() == ("", "error: --pad applies to even grades, and the file has grade 3\n")
        assert main(["linearize", str(path)]) == 0

    def test_out_writes_the_stdout_bytes(self, poly_file, tmp_path, capsys):
        assert main(["linearize", poly_file, "--pad"]) == 0
        printed = capsys.readouterr()
        out = tmp_path / "lin.json"
        assert main(["linearize", poly_file, "--pad", "--out", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        assert printed.err == "" and out.read_text() == printed.out


class TestCodimCommand:
    def test_poly(self, capsys):
        assert main(["codim", "--m", "7", "--d", "2", "--r", "2"]) == 0
        assert capsys.readouterr() == ("17\n", "")

    def test_poly_json(self, capsys):
        assert main(["codim", "--m", "7", "--d", "2", "--r", "2", "--json"]) == 0
        report = '    {\n      "method": "closed_form",\n      "space": "%s",\n      "value": %d\n    }'
        reports = [report % ("POL(7,2)", 17), report % ("GSYL(7,3)", 38)]
        assert capsys.readouterr() == ('{\n  "reports": [\n' + ",\n".join(reports) + "\n  ]\n}\n", "")

    def test_via_tangent_needs_the_pencil_variant(self, capsys):
        assert main(["codim", "--m", "7", "--d", "2", "--r", "2", "--via-tangent"]) == 1
        assert capsys.readouterr() == ("", "error: --via-tangent applies to the --pencil variant\n")

    def test_pencil_with_tangent(self, capsys):
        code = main(
            ["codim", "--pencil", "--n", "5", "--w", "2", "--r", "1", "--via-tangent", "--json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["agree"] is True
        assert {rep["method"] for rep in data["reports"]} == {
            "blocksum",
            "closed_form",
            "tangent_rank",
        }

    def test_invalid_params(self, capsys):
        assert main(["codim", "--m", "4", "--d", "2", "--r", "2"]) == 1

    def test_pencil_disagreement_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(codimension, "codim_pencil_closed", lambda n, w, r: -1)
        argv = ["codim", "--pencil", "--n", "5", "--w", "2", "--r", "1"]
        assert main(argv + ["--json"]) == 3
        assert json.loads(capsys.readouterr().out)["agree"] is False
        assert main(argv) == 3


class TestClosureCommand:
    def _write(self, path, data):
        path.write_text(dump_json(data))
        return str(path)

    def test_reachable(self, tmp_path, capsys):
        source = self._write(
            tmp_path / "s.json",
            {
                "flavor": "general",
                "blocks": [{"kind": "L", "index": 0}, {"kind": "L", "index": 2}],
            },
        )
        target = self._write(
            tmp_path / "t.json",
            {
                "flavor": "general",
                "blocks": [{"kind": "L", "index": 1}, {"kind": "L", "index": 1}],
            },
        )
        assert main(["closure", "--target", target, "--source", source]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "yes"
        assert data["certificate"][0]["rule"] == 1

    def test_inconclusive_exit_code(self, tmp_path, capsys):
        # the zero 2x2 pencil needs two rule-6 steps to reach rank 2
        source = self._write(
            tmp_path / "s.json",
            {
                "flavor": "general",
                "blocks": [{"kind": "L", "index": 0}] * 2 + [{"kind": "L_T", "index": 0}] * 2,
            },
        )
        target = self._write(
            tmp_path / "t.json",
            {
                "flavor": "general",
                "blocks": [
                    {"kind": "E_finite", "index": 1, "eigenvalue": "@z"},
                    {"kind": "E_finite", "index": 1, "eigenvalue": "@w"},
                ],
            },
        )
        code = main(["closure", "--target", target, "--source", source, "--max-steps", "1"])
        assert code == 2
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "no_within_bound"
        assert main(["closure", "--target", target, "--source", source]) == 0

    def test_negative_step_bound(self, tmp_path, capsys):
        # it answered "no_within_bound" with exit 2; zero stays a legal bound
        blocks = {
            "flavor": "general",
            "blocks": [{"kind": "L", "index": 0}, {"kind": "L_T", "index": 0}],
        }
        source = self._write(tmp_path / "s.json", blocks)
        target = self._write(tmp_path / "t.json", blocks)
        code = main(["closure", "--target", target, "--source", source, "--max-steps", "-3"])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: the step bound -3 is negative\n"
        assert main(["closure", "--target", target, "--source", source, "--max-steps", "0"]) == 0

    def test_rank_above_target_exit_code(self, tmp_path, capsys):
        source = self._write(
            tmp_path / "s.json",
            {
                "flavor": "general",
                "blocks": [
                    {"kind": "E_finite", "index": 1, "eigenvalue": "5/1"},
                    {"kind": "E_finite", "index": 1, "eigenvalue": "7/1"},
                ],
            },
        )
        target = self._write(
            tmp_path / "t.json",
            {
                "flavor": "general",
                "blocks": [
                    {"kind": "L", "index": 0},
                    {"kind": "L_T", "index": 0},
                    {"kind": "E_finite", "index": 1, "eigenvalue": "@z"},
                ],
            },
        )
        code = main(["closure", "--target", target, "--source", source, "--max-steps", "3"])
        assert code == 4
        assert json.loads(capsys.readouterr().out) == {"status": "no", "states_explored": 1}

    def test_zero_codimension_gap_exit_code(self, tmp_path, capsys):
        # E_2(@a) and E_1(@a) + E_1(@b) both have codimension 2: with the
        # default step bound that is a certified "no", with none inconclusive
        source = self._write(
            tmp_path / "s.json",
            {"flavor": "general", "blocks": [{"kind": "E_finite", "index": 2, "eigenvalue": "@a"}]},
        )
        target = self._write(
            tmp_path / "t.json",
            {
                "flavor": "general",
                "blocks": [
                    {"kind": "E_finite", "index": 1, "eigenvalue": "@a"},
                    {"kind": "E_finite", "index": 1, "eigenvalue": "@b"},
                ],
            },
        )
        assert main(["closure", "--target", target, "--source", source]) == 4
        assert json.loads(capsys.readouterr().out) == {"status": "no", "states_explored": 1}
        assert main(["closure", "--target", target, "--source", source, "--max-steps", "0"]) == 2
        assert json.loads(capsys.readouterr().out) == {"status": "no_within_bound", "states_explored": 1}

    def test_hom_witness_exit_code(self, tmp_path, capsys):
        # two blocks at infinity do not lie in the closure of four: the
        # witness is printed beside the status, only when there is one
        source = self._write(
            tmp_path / "s.json",
            {"flavor": "general", "blocks": [{"kind": "E_infinite", "index": 2}] * 2},
        )
        target = self._write(
            tmp_path / "t.json",
            {"flavor": "general", "blocks": [{"kind": "E_infinite", "index": 1}] * 4},
        )
        assert main(["closure", "--target", source, "--source", target]) == 0
        capsys.readouterr()
        assert main(["closure", "--target", target, "--source", source]) == 4
        assert json.loads(capsys.readouterr().out) == {
            "status": "no",
            "states_explored": 1,
            "witness": {"block": "E_1(inf)", "direction": "Hom(X, -)", "source_dim": 2, "target_dim": 4},
        }

    def test_skew_inputs_accepted(self, tmp_path, capsys):
        source = self._write(
            tmp_path / "s.json",
            {
                "flavor": "skew",
                "blocks": [
                    {"kind": "M", "index": 0},
                    {"kind": "H", "index": 1, "eigenvalue": "3/1"},
                    {"kind": "K", "index": 1},
                ],
            },
        )
        target = self._write(
            tmp_path / "t.json",
            {
                "flavor": "skew",
                "blocks": [{"kind": "M", "index": 1}, {"kind": "K", "index": 1}],
            },
        )
        assert main(["closure", "--target", target, "--source", source]) == 0


class TestHelp:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "generic" in capsys.readouterr().out

    def test_unknown_flag_is_validation_error(self, capsys):
        assert main(["generic", "--bogus"]) == 1
