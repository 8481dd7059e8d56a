"""Sofic-representation checks, Folner pairs, and truncated multiplication.

The concrete amenable instance is the polynomial part of GF(q)(x): elements
of degree < m acting on V_m = span{1, x, ..., x^(m-1)} by multiply-then-
truncate.  Truncation by total degree is an algebra quotient, so the maps
are honestly unital and almost multiplicative with defects controlled by
the Folner geometry.  The checks rank the map's raw defects and images
(FiniteApproxMap.defects and .image) with rank_data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .field import FieldSpec
from .freealg import Word
from .matrix import DenseMatrix, fraction_to_json, matmul_data, rank_data, sub_data
from .repseq import Representation
from .subspace import Subspace
from .tiling import FiniteApproxMap, MissingProductError, is_good_map


@dataclass(frozen=True)
class PolyInstance:
    """Polynomials over GF(q) of degree < m acting on V_m."""

    field: FieldSpec
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("degree cap must be positive")

    def coeffs(self, poly) -> np.ndarray:
        arr = np.asarray(poly, dtype=np.uint8)
        if arr.ndim != 1 or len(arr) > self.m:
            raise ValueError("polynomial degree exceeds the instance cap")
        out = np.zeros(self.m, dtype=np.uint8)
        out[: len(arr)] = arr
        return out

    def degree(self, poly) -> int:
        arr = self.coeffs(poly)
        nz = np.nonzero(arr)[0]
        return int(nz[-1]) if nz.size else 0

    def multiply(self, a, b) -> np.ndarray:
        """Exact product in GF(q)[x] (length may exceed m)."""
        a = np.asarray(a, dtype=np.uint8)
        b = np.asarray(b, dtype=np.uint8)
        shifted = np.zeros((len(a), len(a) + len(b) - 1), dtype=np.uint8)   # row i: x^i b
        for i in range(len(a)):
            shifted[i, i:i + len(b)] = b
        return matmul_data(self.field, a[None, :], shifted)[0]

    def degree_subspace(self, d: int) -> Subspace:
        """span{1, x, ..., x^(d-1)} inside the ambient V_m."""
        if not 0 <= d <= self.m:
            raise ValueError("degree out of range")
        return Subspace(self.field, self.m, np.eye(self.m, dtype=np.uint8)[:d])


class InfeasibleParametersError(ValueError):
    pass


def folner_pair(instance: PolyInstance, elements, delta: Fraction):
    """(V_1, V) with E V_1 inside V and dim V_1 >= (1 - delta) dim V.

    V = polynomials of degree < m', V_1 = degree < m' - d where d is the
    top degree in E and m' is minimal with (m' - d)/m' >= 1 - delta.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise InfeasibleParametersError("delta must be positive")
    degrees = [instance.degree(e) for e in elements]
    d = max(degrees, default=0)
    if d == 0:
        return instance.degree_subspace(instance.m), instance.degree_subspace(instance.m)
    # Minimal m' with (m' - d)/m' >= 1 - delta, i.e. m' >= d / delta.
    m_prime = int(-(-d * delta.denominator // delta.numerator))
    if m_prime > instance.m:
        raise InfeasibleParametersError(
            f"needs degree window {m_prime}, instance caps at {instance.m}")
    return instance.degree_subspace(m_prime - d), instance.degree_subspace(m_prime)


def poly_basis_map(instance: PolyInstance, i_max: int) -> FiniteApproxMap:
    """FiniteApproxMap for the monomial basis {1, x, ..., x^(i_max-1)}.

    phi(x^j) is multiply-by-x^j-and-truncate on V_m; the table holds
    x^a * x^b wherever the product stays inside the basis span.
    """
    if i_max > instance.m:
        raise ValueError("basis cannot exceed the ambient dimension")
    field = instance.field
    # x^j sends x^c to x^(c+j), cut above the cap: the truncated shift.
    phi = [DenseMatrix(field, np.eye(instance.m, k=-j, dtype=np.uint8)) for j in range(i_max)]
    monomials = np.eye(i_max, dtype=np.uint8)    # row c: coordinates of x^c
    mult = {(a, b): monomials[a + b - 2]
            for a in range(1, i_max + 1) for b in range(1, i_max + 2 - a)}
    return FiniteApproxMap(field, phi, mult)


@dataclass
class SoficData:
    """Levels of a sofic approximation: maps and their defect bounds."""

    maps: list                       # FiniteApproxMap per level k
    s_bounds: list                   # defect bound s_k per level (Fractions)


@dataclass
class SoficReport:
    unit_ok: bool
    rank_ok: bool
    mult_ok: bool
    max_defect: Fraction
    min_rank: Fraction | None
    s_bound: Fraction

    @property
    def all_ok(self):
        return self.unit_ok and self.rank_ok and self.mult_ok

    def to_json(self):
        min_rank = None if self.min_rank is None else fraction_to_json(self.min_rank)
        return {"unit_ok": self.unit_ok, "rank_ok": self.rank_ok,
                "mult_ok": self.mult_ok, "max_defect": fraction_to_json(self.max_defect),
                "min_rank": min_rank,
                "s_bound": fraction_to_json(self.s_bound), "all_ok": self.all_ok}


def sofic_check(data: SoficData, k: int, elements=None,
                basis_count: int | None = None) -> SoficReport:
    """Check the k-th map (1-based) against span{r_1..r_basis_count}, bound s_k.

    `basis_count` defaults to k, matching the usual diagonal indexing where
    the k-th level certifies the first k basis elements.  The
    multiplicativity defect is bilinear, so basis pairs suffice; the rank
    floor is not, so it is checked on the supplied element list
    (coordinate vector, j-floor) only.
    """
    phi = data.maps[k - 1]
    s_k = Fraction(data.s_bounds[k - 1])
    span = k if basis_count is None else basis_count
    n = phi.n
    unit_ok = phi.phi[0] == DenseMatrix.identity(phi.field, n)

    max_defect = Fraction(0)
    mult_ok = True
    for raw in phi.defects(span):
        defect = Fraction(rank_data(phi.field, raw), n)
        max_defect = max(max_defect, defect)
        if defect >= s_k:
            mult_ok = False

    rank_ok = True
    min_rank = None
    for coords, floor in (elements or []):
        r = Fraction(rank_data(phi.field, phi.image(coords)), n)
        min_rank = r if min_rank is None else min(min_rank, r)
        if r < Fraction(floor):
            rank_ok = False
    return SoficReport(unit_ok, rank_ok, mult_ok, max_defect, min_rank, s_k)


@dataclass
class ExtensionReport:
    good_ok: bool
    max_distance: Fraction
    delta: Fraction

    @property
    def all_ok(self):
        return self.good_ok and self.max_distance < self.delta

    def to_json(self):
        return {"good_ok": self.good_ok, "max_distance": fraction_to_json(self.max_distance),
                "delta": fraction_to_json(self.delta), "all_ok": self.all_ok}


def approx_extension_check(rho: Representation, phi: FiniteApproxMap,
                           theta_images: dict, m: int, delta: Fraction) -> ExtensionReport:
    """(m, delta)-approximate-extension test.

    theta_images maps signed generator indices (+i and -i) to coordinate
    vectors of theta(gamma_i^(+-1)) in the map's basis.  Linearity reduces
    the length-<=m quantifier to reduced words, whose coordinates are
    built with the multiplication table (loud failure when it cannot).
    """
    delta = Fraction(delta)
    good_ok = is_good_map(phi, m)
    max_distance = Fraction(0)
    n = phi.n
    for word in _reduced_words(rho.r, m):
        coords = phi.unit_coords()
        for (i, e) in word.letters:
            key = i if e == 1 else -i
            if key not in theta_images:
                raise MissingProductError(f"no coordinates for generator {key}")
            coords = phi.product_coords(coords, theta_images[key])
        diff = sub_data(phi.field, phi.image(coords), rho.of_word(word).data)
        max_distance = max(max_distance, Fraction(rank_data(phi.field, diff), n))
    return ExtensionReport(good_ok, max_distance, delta)


def _reduced_words(r: int, max_len: int):
    """All reduced words of length <= max_len in F_r."""
    frontier = [Word.identity()]
    yield Word.identity()
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for i in range(1, r + 1):
                for e in (1, -1):
                    if w.letters and w.letters[-1] == (i, -e):
                        continue
                    nw = Word(w.letters + ((i, e),))
                    nxt.append(nw)
                    yield nw
        frontier = nxt
