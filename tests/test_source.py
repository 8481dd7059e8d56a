"""Source-level rules for the package itself."""

import ast
from pathlib import Path

import linrep

PACKAGE = Path(linrep.__file__).parent


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so self-checks must raise explicitly.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
