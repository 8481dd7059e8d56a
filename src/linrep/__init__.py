"""Exact linear algebra over finite fields for sequences of representations
of free groups: rank profiles, linear tilings, hyperfiniteness witnesses,
sofic checks, and noncommutative rational expressions.

Importing the package runs none of its modules, so a program pays only for
those it uses: each submodule is entered in sys.modules and bound here as an
importlib LazyLoader module, run on its first attribute access, and each
name below is read from its module on first access (module __getattr__).
"""

import importlib.util
import sys

# The submodules, each with the names the package re-exports from it.
_EXPORTS = {
    "field": ("GF2", "MAX_Q", "FieldError", "FieldSpec", "default_modulus"),
    "freealg": ("AlgebraElement", "AlgebraMatrix", "ParseError", "Word", "parse_element",
                "reduce_letters"),
    "hyperfin": ("ExpansionReport", "HyperfiniteWitness", "cheeger_exact", "cheeger_random",
                 "epsilon_for_delta", "expander_check", "grow", "witness_check",
                 "witness_from_tiling", "witness_search"),
    "matrix": ("DenseMatrix", "SingularMatrixError", "random_invertible", "random_matrix",
               "rref_array"),
    "ncrat": ("Const", "EquivVerdict", "EvalResult", "Inv", "Prod", "Sum", "Var",
              "equiv_probabilistic", "evaluate", "parse_ratexpr", "print_ratexpr"),
    "repseq": ("AtiyahReport", "FamilyDescriptor", "RankProfile", "Representation",
               "apply_matrix", "atiyah_check", "family_generate", "normalized_rank",
               "repair_to_invertible"),
    "soficam": ("ExtensionReport", "InfeasibleParametersError", "PolyInstance", "SoficData",
                "SoficReport", "approx_extension_check", "folner_pair", "poly_basis_map",
                "sofic_check"),
    "subspace": ("AmbientMismatchError", "BudgetExceededError", "Subspace",
                 "enumerate_subspaces", "gaussian_binomial", "projection_onto",
                 "subspaces_independent"),
    "tiling": ("FiniteApproxMap", "FSubspaceData", "MissingProductError", "PreconditionReport",
               "TilingCertificate", "candidate_space", "good_subspace", "greedy_tiling",
               "is_center", "is_good_map", "precondition_check", "verify_certificate"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_HOME, *_EXPORTS])


def _lazy(name):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


globals().update({name: _lazy(name) for name in _EXPORTS})


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[_HOME[name]], name)
    globals()[name] = value   # later reads skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *__all__})
