"""The example scripts and the library example the README documents run cleanly."""

import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
DATA = os.path.join(os.path.dirname(__file__), "data")


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args], env=env,
        capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("name", ["kodaira_survey.py", "zeta_demo.py"])
def test_script_exits_cleanly(name):
    child = run_script(name)
    assert (child.returncode, child.stderr) == (0, "")
    assert child.stdout
    if name == "kodaira_survey.py":
        assert child.stdout.splitlines()[-1] == "denominator/e mismatches: none"


def test_zeta_demo_prints_its_pinned_tables():
    """Byte-identical to the checked-in output, so a ``Fraction(...)`` repr
    or a changed closed form in a printed table fails here."""
    with open(os.path.join(DATA, "zeta_demo.out"), encoding="utf-8") as f:
        assert run_script("zeta_demo.py").stdout == f.read()


def test_check_pins_replays_large_graph():
    """Every large_graph catalogue item still gives its pinned digest."""
    child = run_script("check_pins.py", "large_graph")
    assert (child.returncode, child.stderr) == (0, "")
    *_, items, verdict = child.stdout.splitlines()
    assert items.startswith("large_graph: ") and verdict == "0 mismatches"


def test_readme_library_example_runs():
    """The fenced block under "Library example" in README.md, run as is."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        readme = f.read()
    block = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S).group(1)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert scope["geometry"](scope["curve"]).self_int["c"] == -1
    assert scope["laws"].ok
    assert scope["z"].unique_pole_slope() == (Fraction(1, 6), 1)
