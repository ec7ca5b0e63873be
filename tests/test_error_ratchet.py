"""Bare ``ValueError``s in the library may only go away.

Errors a caller can act on have their own types in ``neroncalc.errors``;
the modules below still raise some plain ``ValueError``s.  Each module's
count is capped at what it has now, so a new one fails here and a typed
replacement lowers the cap.
"""

import ast
import pathlib

import pytest

import neroncalc

CAPS = {"conductors": 11}

MODULES = sorted(pathlib.Path(neroncalc.__file__).parent.glob("*.py"))


def bare_value_errors(source: str) -> int:
    """``raise ValueError`` and ``raise ValueError(...)`` statements in ``source``."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            count += isinstance(exc, ast.Name) and exc.id == "ValueError"
    return count


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_bare_value_errors_do_not_grow(path):
    assert bare_value_errors(path.read_text(encoding="utf-8")) <= CAPS.get(path.stem, 0)


def test_counter_sees_both_spellings_and_nothing_else():
    source = (
        "raise ValueError\n"
        "raise ValueError('x')\n"
        "raise TypeError('y')\n"
        "raise errors.ValueError('z')\n"
        "try:\n    pass\nexcept ValueError:\n    raise\n"
    )
    assert bare_value_errors(source) == 2


def test_caps_name_existing_modules():
    assert set(CAPS) <= {p.stem for p in MODULES}
