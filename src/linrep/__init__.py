"""Exact linear algebra over finite fields for sequences of representations
of free groups: rank profiles, linear tilings, hyperfiniteness witnesses,
sofic checks, and noncommutative rational expressions.

Importing the package runs none of its modules: each name below, and each
submodule, is imported on first access (module __getattr__), so a program
pays only for the modules it uses.
"""

import importlib

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


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value   # later reads skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *__all__})
