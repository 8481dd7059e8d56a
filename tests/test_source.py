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


def test_cli_decodes_code_arrays_only_through_codes_from_json():
    # matrix.codes_from_json is the one place that range-checks outside code arrays.
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("array", "asarray")
             and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"]
    assert found == []


def test_kernels_reach_subspaces_only_through_kernel_of():
    # Subspace.kernel_of is the only caller of DenseMatrix.kernel; annihilators
    # are read off the echelon basis by matrix.echelon_kernel.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "subspace.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "kernel"]
    assert found == []


def test_only_matrix_and_field_touch_the_field_tables():
    # matrix.py is the one boundary for code-array arithmetic, so a kernel
    # can change the representation it computes in without other modules knowing.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name not in ("field.py", "matrix.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "tables"]
    assert found == []
