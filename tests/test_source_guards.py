"""Static guards on the package source."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "padiczeta")
                 .glob("*.py"))


def test_no_assert_statements():
    # `python -O` strips asserts, so a check that carries correctness must
    # raise an exception instead
    assert SOURCES
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src: {found}"


def test_no_assertion_errors_raised():
    # an invariant that fails raises the exception that names it
    # (ArithmeticError, ValueError, ...), never a bare AssertionError
    def raises_assertion(node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "AssertionError"

    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Raise) and node.exc is not None
             and raises_assertion(node)]
    assert not found, f"raise AssertionError in src: {found}"
