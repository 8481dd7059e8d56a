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
    # No module calls DenseMatrix.kernel: Subspace.kernel_of reads the canonical
    # kernel basis off one elimination of the reversed columns, and annihilators
    # are read off the echelon basis, both by matrix.echelon_kernel.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "kernel"]
    assert found == []


def _imported_modules(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


def test_only_the_package_init_imports_importlib():
    # The package makes each submodule lazy in one place; no module keeps a
    # loader of its own.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if any(name.split(".")[0] == "importlib" for name in _imported_modules(node))]
    assert found == []


def _discards_reduced_array(node):
    """`_, piv = rref_array(...)` or `rref_array(...)[1]`."""
    def is_rref(call):
        return isinstance(call, ast.Call) and getattr(call.func, "id", None) == "rref_array"
    if isinstance(node, ast.Subscript):
        return is_rref(node.value)
    return (isinstance(node, ast.Assign) and is_rref(node.value)
            and isinstance(node.targets[0], ast.Tuple)
            and getattr(node.targets[0].elts[0], "id", None) == "_")


def test_ranks_go_through_rank_data():
    # rank_data eliminates forward only and builds no reduced array, so no
    # code runs rref_array for its pivots alone.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if _discards_reduced_array(node)]
    assert found == []


def test_only_matrix_and_field_touch_the_field_tables():
    # matrix.py is the one boundary for code-array arithmetic, so a kernel
    # can change the representation it computes in without other modules knowing.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name not in ("field.py", "matrix.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "tables"]
    assert found == []


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_reaches_into_another_modules_private_names():
    # An underscore name belongs to its own module: no `from .mod import _name`,
    # no `mod._name` on a module imported with `from . import mod`, and no
    # `_name=` keyword argument unless a function of the calling module takes
    # that parameter.  What another module needs gets a public name.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        params = {arg.arg for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                  for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)}
        found += [f"{path.name}:{node.lineno} {kw.arg}="
                  for node in ast.walk(tree) if isinstance(node, ast.Call)
                  for kw in node.keywords
                  if kw.arg is not None and _private(kw.arg) and kw.arg not in params]
        siblings = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                if node.module is None:
                    siblings.update(alias.asname or alias.name for alias in node.names)
                found += [f"{path.name}:{node.lineno} {node.module}.{alias.name}"
                          for alias in node.names if _private(alias.name)]
        found += [f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and _private(node.attr)
                  and isinstance(node.value, ast.Name) and node.value.id in siblings]
    assert found == []


# Public names that nothing in the package calls yet, kept on purpose: the
# bridge from a tiling to a hyperfiniteness witness (ROADMAP item 1), the
# scalar reference oracles the kernel tests compare against, and the
# console-script entry point named in pyproject.toml.
_UNCALLED_ON_PURPOSE = {
    "hyperfin.witness_from_tiling", "hyperfin.epsilon_for_delta",
    "soficam.approx_extension_check",
    "field.FieldSpec.sub", "field.FieldSpec.mul", "field.FieldSpec.inv",
    "subspace.Subspace.vectors", "soficam.PolyInstance.multiply",
    "cli.entrypoint",
}


def _names_used(tree):
    """(name, bare, ids of the enclosing defs) for every Name, attribute and
    import alias; bare is True for a Name."""
    found = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {id(node)}
        if isinstance(node, ast.Name):
            found.append((node.id, True, inside))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, False, inside))
        elif isinstance(node, ast.alias):
            found.append((node.name, False, inside))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)
    visit(tree, frozenset())
    return found


def test_every_public_function_is_reached():
    # A public function or method must be named somewhere in the package
    # outside its own def (the __init__ re-exports do not count), be used
    # by the acceptance suite, or be listed above.  A method is reached
    # only through an attribute access (`.name`) or an import alias, never
    # through a bare name such as a local variable of the same spelling.
    # Names are still matched without their class (class-blind), so this
    # catches a dead function, not every dead method whose name another
    # one shares.
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    acceptance = Path(__file__).parent / "test_acceptance.py"
    used = [u for tree in [*trees.values(), ast.parse(acceptance.read_text())]
            for u in _names_used(tree)]
    defs = {}
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs[f"{mod}.{node.name}"] = (node, False)
            elif isinstance(node, ast.ClassDef):
                defs.update((f"{mod}.{node.name}.{item.name}", (item, True)) for item in node.body
                            if isinstance(item, ast.FunctionDef))
    assert _UNCALLED_ON_PURPOSE <= set(defs)
    dead = [qual for qual, (node, method) in defs.items()
            if not node.name.startswith("_") and qual not in _UNCALLED_ON_PURPOSE
            and not any(name == node.name and not (method and bare) and id(node) not in inside
                        for name, bare, inside in used)]
    assert dead == []
