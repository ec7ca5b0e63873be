"""The library raises no bare ``ValueError`` or ``ZeroDivisionError``.

Errors a caller can act on have their own types in ``neroncalc.errors``,
so ``--json`` names them; a plain built-in one in any module fails here.
"""

import ast
import pathlib

import pytest

import neroncalc

MODULES = sorted(pathlib.Path(neroncalc.__file__).parent.glob("*.py"))


def bare_value_errors(source: str) -> int:
    """``raise X`` and ``raise X(...)`` statements in ``source`` with ``X``
    ``ValueError`` or ``ZeroDivisionError``."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            count += isinstance(exc, ast.Name) and exc.id in ("ValueError", "ZeroDivisionError")
    return count


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_bare_value_errors_do_not_grow(path):
    assert bare_value_errors(path.read_text(encoding="utf-8")) == 0


def test_counter_sees_both_spellings_and_nothing_else():
    source = (
        "raise ValueError\n"
        "raise ValueError('x')\n"
        "raise ZeroDivisionError('pole')\n"
        "raise TypeError('y')\n"
        "raise errors.ValueError('z')\n"
        "try:\n    pass\nexcept ValueError:\n    raise\n"
    )
    assert bare_value_errors(source) == 3
