"""Finite-dimensional representations of F_r and their rank profiles.

A representation is an r-tuple of invertible matrices over GF(q); group
algebra matrices are evaluated blockwise, and normalized ranks are exact
Fractions rank/n_k.  A word is evaluated along its prefixes with only the
products it needs: its first letter is the generator (or inverse) itself,
and a permutation generator, the identity included, acts as a column
gather and is inverted by its transpose, so the cyclic family runs no
matrix product and no elimination per letter.  A dense generator is
checked invertible by its rank and inverted only at the first word that
uses its inverse.  The same decision builds generator images, the one
primitive behind every growth dim(V + sum theta(gamma_i) V): images gathers
the columns of a row stack for each permutation generator and takes the
dense generators in one product with their stacked transposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .field import FieldSpec
from .freealg import AlgebraMatrix, Word
from .matrix import DenseMatrix, fraction_to_json, json_typed, matmul_data, random_invertible
from .subspace import Subspace


class Representation:
    """theta: F_r -> GL(n, GF(q)), given by its generator images."""

    __slots__ = ("field", "r", "n", "generators", "_letters", "_word_cache",
                 "_gather", "_transposes")

    def __init__(self, field: FieldSpec, generators):
        self.field = field
        self.generators = list(generators)
        self.r = len(self.generators)
        if self.r == 0:
            raise ValueError("need at least one generator")
        self.n = self.generators[0].rows
        for g in self.generators:
            if g.field != field or g.rows != self.n or g.cols != self.n:
                raise ValueError("generators must be square matrices over the same field")
        # _letters[(i, e)] = (g_i^e, order): m @ g_i^e is m[:, order] when
        # g_i is a permutation matrix, inverted by its transpose; order is
        # None for a dense g_i, which is checked invertible here and
        # inverted by of_word at its first g_i^-1 letter.  images reads the
        # same decision: the g_i^-1 orders of the permutations in one gather,
        # and the dense g_i as [g_1^T | g_2^T | ...], or None.
        self._letters = {}
        gather, dense = [], []
        for i, g in enumerate(self.generators, start=1):
            inv_perm = _inverse_permutation(g.data)
            if inv_perm is None:
                if not g.is_invertible():
                    raise ValueError("all generator images must be invertible")
                self._letters[i, 1] = (g, None)
                dense.append(g.data)
            else:
                inv = DenseMatrix(field, np.ascontiguousarray(g.data.T))
                self._letters[i, 1], self._letters[i, -1] = (g, np.argsort(inv_perm)), (inv, inv_perm)
                gather.append(inv_perm)
        self._gather = np.concatenate(gather) if gather else None
        self._transposes = np.concatenate(dense).T if dense else None
        self._word_cache = {(): DenseMatrix.identity(field, self.n)}

    def images(self, rows: np.ndarray) -> np.ndarray:
        """g_i v for every row v and every generator g_i, stacked as rows
        (rows @ g_i^T), in no promised order.  A permutation's transpose is
        its inverse, so its images are a column gather; the dense generators
        take one product, returned as it is when every generator is dense."""
        dense = (None if self._transposes is None
                 else matmul_data(self.field, rows, self._transposes).reshape(-1, self.n))
        if self._gather is None:
            return dense
        gathered = rows.take(self._gather, axis=1).reshape(-1, self.n)
        return gathered if dense is None else np.concatenate([gathered, dense])

    def of_word(self, word: Word) -> DenseMatrix:
        key = word.letters
        if key in self._word_cache:
            return self._word_cache[key]
        # Build up along prefixes so shared prefixes are evaluated once.
        for idx in range(len(key)):
            prefix = key[: idx + 1]
            if prefix in self._word_cache:
                m = self._word_cache[prefix]
                continue
            letter = key[idx]
            if letter not in self._letters:     # the first g^-1 of a dense g
                self._letters[letter] = (self.generators[letter[0] - 1].inverse(), None)
            step, order = self._letters[letter]
            if idx == 0:
                m = step
            elif order is None:
                m = m @ step
            else:
                m = DenseMatrix(self.field, m.data.take(order, axis=1))
            self._word_cache[prefix] = m
        return m

    def to_json(self):
        return {"field": self.field.to_json(), "r": self.r, "n": self.n,
                "generators": [g.to_json() for g in self.generators]}

    @staticmethod
    def from_json(obj) -> "Representation":
        field = FieldSpec.from_json(obj["field"])
        gens = [DenseMatrix.from_json(field, g)
                for g in json_typed(obj["generators"], list, '"generators"')]
        rep = Representation(field, gens)
        if rep.n != obj.get("n", rep.n) or rep.r != obj.get("r", rep.r):
            raise ValueError("representation file is inconsistent")
        return rep


def apply_matrix(rep: Representation, a: AlgebraMatrix) -> DenseMatrix:
    """Image of an n x n algebra matrix as an (n*n_k) x (n*n_k) block matrix."""
    if a.field != rep.field:
        raise ValueError("field mismatch")
    if a.r > rep.r:
        raise ValueError("element uses more generators than the representation has")
    nk = rep.n
    out = np.zeros((a.n * nk, a.n * nk), dtype=np.uint8)
    for i in range(a.n):
        for j in range(a.n):
            terms = a.entries[i][j].terms
            words = np.array([rep.of_word(word).data for word in terms], dtype=np.uint8)
            coeffs = np.array([list(terms.values())], dtype=np.uint8)
            block = matmul_data(rep.field, coeffs, words.reshape(len(terms), nk * nk))
            out[i * nk:(i + 1) * nk, j * nk:(j + 1) * nk] = block.reshape(nk, nk)
    return DenseMatrix(rep.field, out)


def normalized_rank(rep: Representation, a: AlgebraMatrix) -> Fraction:
    """rk(theta(A)) / n_k, an exact rational in [0, n]."""
    return Fraction(apply_matrix(rep, a).rank(), rep.n)


@dataclass
class RankProfile:
    """Per-k exact ranks of one algebra matrix: entries (k, n_k, rank)."""

    entries: list = dc_field(default_factory=list)

    def add(self, k: int, n_k: int, rank: int):
        if n_k < 1 or rank < 0:
            raise ValueError(f"entry k = {k} needs n_k >= 1 and rank >= 0, not {n_k} and {rank}")
        self.entries.append((k, n_k, rank))

    def values(self):
        return [Fraction(rank, n_k) for (_, n_k, rank) in self.entries]


@dataclass
class AtiyahReport:
    limit_estimate: Fraction
    tail_oscillation: Fraction
    nearest_integer: int
    integral: bool
    tolerance: Fraction

    def to_json(self):
        return {"limit_estimate": fraction_to_json(self.limit_estimate),
                "tail_oscillation": fraction_to_json(self.tail_oscillation),
                "nearest_integer": self.nearest_integer,
                "integral": self.integral,
                "tolerance": fraction_to_json(self.tolerance)}


def atiyah_check(profile: RankProfile, tail_window: int, tol: Fraction) -> AtiyahReport:
    """Integrality diagnostic over the last `tail_window` profile entries.

    The limit estimate is the last value (no extrapolation); integrality
    holds when it sits within `tol` of an integer and the tail oscillates
    by at most `tol`.
    """
    if tail_window < 1:
        raise ValueError("tail window must be at least 1")
    values = profile.values()
    if len(values) < tail_window:
        raise ValueError(f"profile has {len(values)} entries, window needs {tail_window}")
    tail = values[-tail_window:]
    limit = tail[-1]
    oscillation = max(tail) - min(tail)
    nearest = int(limit + Fraction(1, 2))  # floor(x + 1/2)
    integral = abs(limit - nearest) <= tol and oscillation <= tol
    return AtiyahReport(limit, oscillation, nearest, integral, Fraction(tol))


def repair_to_invertible(m: DenseMatrix) -> DenseMatrix:
    """Closest invertible matrix in rank distance.

    Adds a correction X that maps the kernel isomorphically onto a
    complement of the column space and is zero on the coordinate
    complement of the kernel, so rank(M' - M) equals the rank defect
    exactly (the minimum possible, since rank distance is at least the
    defect).  The canonical kernel basis is the identity on its pivot
    columns, so X is the complement basis placed in those columns.
    """
    if m.rows != m.cols:
        raise ValueError("need a square matrix")
    n = m.rows
    field = m.field
    ker = Subspace.kernel_of(field, n, m.data)
    if ker.dim == 0:
        return m
    col_comp = Subspace(field, n, m.data.T).complement()
    X = np.zeros((n, n), dtype=np.uint8)
    X[:, list(ker.pivots)] = col_comp.basis.T
    repaired = m + DenseMatrix(field, X)
    if not repaired.is_invertible():
        raise RuntimeError("rank-distance repair produced a singular matrix")
    return repaired


# -- built-in families --

@dataclass(frozen=True)
class FamilyDescriptor:
    kind: str
    params: tuple = ()

    @staticmethod
    def cyclic_regular(r: int = 1):
        return FamilyDescriptor("cyclic_regular", (r,))

    @staticmethod
    def involution(r: int = 1):
        return FamilyDescriptor("involution", (r,))

    @staticmethod
    def random_invertible(seed: int, n: int, r: int):
        return FamilyDescriptor("random_invertible", (seed, n, r))


def _inverse_permutation(data):
    """inv with data[j, inv[j]] == 1 for every row j, if data is a
    permutation matrix (inv itself a permutation, all other entries 0),
    else None.  A dense matrix costs one count_nonzero."""
    n = data.shape[0]
    if np.count_nonzero(data) != n:
        return None
    rows, cols = np.nonzero(data)
    if not (np.array_equal(rows, np.arange(n)) and np.all(data[rows, cols] == 1)
            and np.array_equal(np.sort(cols), np.arange(n))):
        return None
    return cols


def _perm_matrix(field, perm):
    """The permutation matrix with column i the unit vector e_perm[i]."""
    return DenseMatrix(field, np.eye(len(perm), dtype=np.uint8).take(perm, axis=1))


def family_generate(spec: FamilyDescriptor, k: int, field: FieldSpec) -> Representation:
    """Instantiate the k-th member of a built-in representation family."""
    r = spec.params[-1] if spec.params else 1   # every family's last parameter
    if r < 1:
        raise ValueError("need at least one generator")
    if spec.kind in ("cyclic_regular", "involution"):
        # g1 permutes the k points and g2..gr are the identity.  Z/k acting on
        # itself: the shift sends e_i to e_(i+1 mod k).  The involution swaps
        # e_2i and e_(2i+1) and fixes the last point when k is odd.
        points = np.arange(k)
        perm = (points + 1) % k if spec.kind == "cyclic_regular" else np.minimum(points ^ 1, k - 1)
        return Representation(field, [_perm_matrix(field, perm)]
                              + [DenseMatrix.identity(field, k)] * (r - 1))
    if spec.kind == "random_invertible":
        seed, n = spec.params[:2]
        rng = np.random.Generator(np.random.Philox(seed))
        return Representation(field, [random_invertible(field, rng, n) for _ in range(r)])
    raise ValueError(f"unknown family {spec.kind!r}")
