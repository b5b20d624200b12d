"""Every demo script and the README's quick tour run to completion, as a user would start them.

Each demo's standard output must match its checked-in text in `demo_output/`,
named by the demo's number; timings go to standard error, so the output is
the same on every run. After a deliberate change to a demo's output,
regenerate its text by running the demo with its stdout sent to that file.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).with_name("demo_output")


def run_python(argv, cwd):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=300,
    )


def test_all_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    result = run_python([str(demo)], tmp_path)
    assert "Traceback" not in result.stderr
    assert result.returncode == 0, result.stderr
    golden = GOLDEN / f"{demo.stem.split('_', 1)[0]}.txt"
    assert result.stdout == golden.read_text()


def test_readme_quick_tour(tmp_path):
    # the first python block after the "Quick tour" heading, run as written
    tour = (ROOT / "README.md").read_text().split("## Quick tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    result = run_python(["-c", code], tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "4 (4,)\n"
