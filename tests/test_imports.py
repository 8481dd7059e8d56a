"""Import contract: importing the package lists every submodule and runs none,
the CLI runs only the modules a command uses, and the package namespace
resolves its names on first access without changing them."""

import importlib
import io
import json
import os
import subprocess
import sys
import textwrap

import pytest

import linrep
from linrep import cli

CORE = ["linrep", "linrep.cli", "linrep.field", "linrep.freealg", "linrep.matrix",
        "linrep.repseq", "linrep.subspace"]
DEFERRED = ["linrep.hyperfin", "linrep.ncrat", "linrep.soficam", "linrep.tiling"]

# Defines ran(): the linrep modules whose code has run.  A module not yet run
# is in sys.modules all the same, as a LazyLoader module whose type stays a
# subclass of ModuleType until its first attribute access.
RAN = textwrap.dedent("""
    import sys, types

    def ran():
        return sorted(name for name, module in sys.modules.items()
                      if name.split(".")[0] == "linrep" and type(module) is types.ModuleType)

    def listed():
        return sorted(name for name in sys.modules if name.split(".")[0] == "linrep")
""")

# A fresh interpreter runs `steps`, a list of (label, argv or None), and prints
# for each label the linrep modules whose code has run.
SCRIPT = RAN + textwrap.dedent("""
    import contextlib, io, json
    import linrep.cli

    report = {"listed": listed()}
    for label, argv in json.loads(sys.argv[1]):
        if argv is not None:
            with contextlib.redirect_stdout(io.StringIO()):
                code = linrep.cli.main(argv, io.StringIO())
            report[label + " code"] = code
        report[label] = ran()
    print(json.dumps(report))
""")


def fresh_env():
    """PYTHONPATH led by the directory of the linrep these tests imported."""
    src = os.path.dirname(os.path.dirname(linrep.__file__))
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])]))


def run_fresh(steps, script=SCRIPT):
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(steps)],
                          capture_output=True, text=True, env=fresh_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def subcommands():
    usage = io.StringIO()
    cli.build_parser().print_usage(usage)
    return usage.getvalue().split("{", 1)[1].split("}", 1)[0].split(",")


def test_importing_the_cli_runs_only_the_core_modules():
    report = run_fresh([("import", None)])
    assert report["import"] == CORE
    # The deferred modules are listed, so tools that walk sys.modules find them.
    assert report["listed"] == sorted(CORE + DEFERRED)


def test_importing_the_package_lists_every_submodule_and_runs_none():
    script = RAN + textwrap.dedent("""
        import json
        import linrep

        report = {"listed": listed(), "import": ran()}
        linrep.tiling.greedy_tiling
        report["tiling"] = ran()
        print(json.dumps(report))
    """)
    report = run_fresh([], script)
    assert report["listed"] == sorted(["linrep"] + [f"linrep.{name}" for name in PUBLIC])
    assert report["import"] == ["linrep"]
    # tiling runs with the modules it imports, and no others.
    assert report["tiling"] == ["linrep", "linrep.field", "linrep.matrix", "linrep.subspace",
                                "linrep.tiling"]


def test_running_the_cli_as_a_module_warns_of_nothing(tmp_path):
    # runpy warns, here as an error, when linrep.cli is in sys.modules before
    # it runs: the package enters only its nine submodules, never the CLI.
    m = tmp_path / "m.json"
    m.write_text("[[1,1],[0,1]]")
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "linrep.cli",
                           "rank", "--matrix", str(m)],
                          capture_output=True, text=True, env=fresh_env())
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {"rank": 2, "rows": 2, "cols": 2}


def test_core_commands_and_every_help_leave_the_deferred_modules_unrun(tmp_path):
    m = tmp_path / "m.json"
    m.write_text("[[1,1],[0,1]]")
    prof = tmp_path / "prof.csv"
    prof.write_text("".join(f"{k},{k},{k - 1}\n" for k in range(2, 12)))
    steps = [("profile", ["profile", "--k", "2..6", "--element", "g1 - 1"]),
             ("rank", ["rank", "--matrix", str(m)]),
             ("atiyah", ["atiyah", "--profile", str(prof)]),
             ("help", ["--help"])]
    names = subcommands()
    assert len(names) == 14 and "tile" in names and "ncrat-equiv" in names
    steps += [(f"{name} --help", [name, "--help"]) for name in names]
    report = run_fresh(steps)
    assert (report["profile code"], report["rank code"], report["atiyah code"]) == (0, 0, 2)
    assert all(report[label] == CORE for label, _ in steps)
    assert all(report[f"{label} code"] == 0 for label, _ in steps[3:])


def test_each_command_runs_the_modules_it_uses(tmp_path):
    rep = tmp_path / "rep.json"
    rep.write_text(json.dumps({"field": {"p": 2}, "r": 2, "n": 2,
                               "generators": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]]}))
    out = io.StringIO()
    assert cli.main(["hyperfinite-search", "--rep", str(rep), "--K", "2"], out) == 0
    wit = tmp_path / "wit.json"
    wit.write_text(json.dumps(json.loads(out.getvalue())["witness"]))
    for label, argv, extra, code in [
            ("tile", ["tile", "--poly", "8", "--i", "2"], ["linrep.soficam", "linrep.tiling"], 0),
            ("hyperfinite-check", ["hyperfinite-check", "--rep", str(rep), "--witness", str(wit)],
             ["linrep.hyperfin", "linrep.tiling"], 0),
            ("ncrat-equiv", ["ncrat-equiv", "--r-expr", "z1*z2", "--s-expr", "z2*z1",
                             "--sizes", "1..2", "--trials", "4"], ["linrep.ncrat"], 2)]:
        report = run_fresh([(label, argv)])
        assert report[label + " code"] == code, label
        assert report[label] == sorted(CORE + extra), label


# linrep.__all__ as the package's eager imports made it: each submodule with
# the names the package re-exports from it.
PUBLIC = {
    "field": ["FieldError", "FieldSpec", "GF2", "MAX_Q", "default_modulus"],
    "freealg": ["AlgebraElement", "AlgebraMatrix", "ParseError", "Word", "parse_element",
                "reduce_letters"],
    "hyperfin": ["ExpansionReport", "HyperfiniteWitness", "cheeger_exact", "cheeger_random",
                 "epsilon_for_delta", "expander_check", "grow", "witness_check",
                 "witness_from_tiling", "witness_search"],
    "matrix": ["DenseMatrix", "SingularMatrixError", "random_invertible", "random_matrix",
               "rref_array"],
    "ncrat": ["Const", "EquivVerdict", "EvalResult", "Inv", "Prod", "Sum", "Var",
              "equiv_probabilistic", "evaluate", "parse_ratexpr", "print_ratexpr"],
    "repseq": ["AtiyahReport", "FamilyDescriptor", "RankProfile", "Representation",
               "apply_matrix", "atiyah_check", "family_generate", "normalized_rank",
               "repair_to_invertible"],
    "soficam": ["ExtensionReport", "InfeasibleParametersError", "PolyInstance", "SoficData",
                "SoficReport", "approx_extension_check", "folner_pair", "poly_basis_map",
                "sofic_check"],
    "subspace": ["AmbientMismatchError", "BudgetExceededError", "Subspace",
                 "enumerate_subspaces", "gaussian_binomial", "projection_onto",
                 "subspaces_independent"],
    "tiling": ["FSubspaceData", "FiniteApproxMap", "MissingProductError", "PreconditionReport",
               "TilingCertificate", "candidate_space", "good_subspace", "greedy_tiling",
               "is_center", "is_good_map", "precondition_check", "verify_certificate"],
}


def test_all_lists_the_83_public_names():
    names = [name for names in PUBLIC.values() for name in names] + list(PUBLIC)
    assert len(names) == 83
    assert linrep.__all__ == sorted(names)


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_name_is_its_home_modules_object(module):
    home = importlib.import_module(f"linrep.{module}")
    assert getattr(linrep, module) is home
    for name in PUBLIC[module]:
        assert getattr(linrep, name) is getattr(home, name), name


def test_dir_and_unknown_names():
    assert set(linrep.__all__) <= set(dir(linrep))
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(linrep, "no_such_name")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from linrep import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == linrep.__all__
    assert all(namespace[name] is getattr(linrep, name) for name in namespace)
