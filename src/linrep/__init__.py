"""Exact linear algebra over finite fields for sequences of representations
of free groups: rank profiles, linear tilings, hyperfiniteness witnesses,
sofic checks, and noncommutative rational expressions.
"""

from .field import GF2, MAX_Q, FieldError, FieldSpec, default_modulus
from .freealg import (AlgebraElement, AlgebraMatrix, ParseError, Word,
                      parse_element, reduce_letters)
from .hyperfin import (ExpansionReport, HyperfiniteWitness, cheeger_exact,
                       cheeger_random, epsilon_for_delta, expander_check, grow,
                       witness_check, witness_from_tiling, witness_search)
from .matrix import (DenseMatrix, SingularMatrixError, random_invertible,
                     random_matrix, rref_array)
from .ncrat import (Const, EquivVerdict, EvalResult, Inv, Prod, Sum, Var,
                    equiv_probabilistic, evaluate, parse_ratexpr, print_ratexpr)
from .repseq import (AtiyahReport, FamilyDescriptor, RankProfile,
                     Representation, apply_matrix, atiyah_check,
                     family_generate, normalized_rank, repair_to_invertible)
from .soficam import (ExtensionReport, InfeasibleParametersError, PolyInstance,
                      SoficData, SoficReport, approx_extension_check,
                      folner_pair, poly_basis_map, sofic_check)
from .subspace import (AmbientMismatchError, BudgetExceededError, Subspace,
                       enumerate_subspaces, gaussian_binomial, projection_onto,
                       subspaces_independent)
from .tiling import (FiniteApproxMap, FSubspaceData, MissingProductError,
                     PreconditionReport, TilingCertificate, candidate_space,
                     good_subspace, greedy_tiling, is_center, is_good_map,
                     precondition_check, verify_certificate)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
