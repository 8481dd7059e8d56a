"""Finite-dimensional representations of F_r and their rank profiles.

A representation is an r-tuple of invertible matrices over GF(q); group
algebra matrices are evaluated blockwise, and normalized ranks are exact
Fractions rank/n_k.  A generator is a dense matrix or a permutation held
as its index array, which is how the cyclic and involution families build
theirs, with no k x k array.  A word over permutation letters evaluates to
a composed permutation, its row map, built along its prefixes with one
gather per letter and cached.  normalized_rank lists theta(A)'s nonzeros
from these maps when every word of A is over permutation letters and ranks
them by matrix.rank_entries; otherwise it ranks the dense image that
apply_matrix builds.  of_word returns a word's image as a DenseMatrix: a
permutation word's is materialized from its row map, and any other word is
evaluated along its prefixes with only the products it needs: its first
letter is the generator (or inverse) itself, a permutation letter is a
column gather and a dense letter one product.  A dense generator is
checked invertible by its rank and inverted only at the first word that
uses its inverse.  The same split builds generator images, the one
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
from .matrix import (DenseMatrix, fraction_to_json, json_typed, matmul_data, random_invertible,
                     rank_entries)
from .subspace import Subspace


class Representation:
    """theta: F_r -> GL(n, GF(q)), given by its generator images.

    Each generator is a DenseMatrix, or a permutation perm of range(n) as an
    integer index array: the permutation matrix whose column i is the unit
    vector e_perm[i], materialized only when generators, to_json or of_word
    asks for it.  A DenseMatrix that is a permutation matrix is held as its
    permutation too, so the two forms behave alike.
    """

    __slots__ = ("field", "r", "n", "_generators", "_maps", "_word_maps", "_word_cache",
                 "_gather", "_transposes")

    def __init__(self, field: FieldSpec, generators):
        self.field = field
        gens = list(generators)
        self.r = len(gens)
        if self.r == 0:
            raise ValueError("need at least one generator")
        self.n = gens[0].rows if isinstance(gens[0], DenseMatrix) else len(gens[0])
        # _maps[(i, e)] is the row map of the permutation letter g_i^e: row j
        # of g_i^e is 1 in column _maps[i, e][j] alone, and m @ g_i^e is the
        # column gather m[:, _maps[i, -e]].  A dense g_i has no entry; it is
        # checked invertible here and inverted at its first g_i^-1 letter.
        # images reads the same decision: the row maps of the permutations
        # in one gather, and the dense g_i as [g_1^T | g_2^T | ...], or None.
        self._generators = []
        self._maps = {}
        gather, dense = [], []
        for i, g in enumerate(gens, start=1):
            if isinstance(g, DenseMatrix):
                if g.field != field or g.rows != self.n or g.cols != self.n:
                    raise ValueError("generators must be square matrices over the same field")
                inv = _inverse_permutation(g.data)
                if inv is None and not g.is_invertible():
                    raise ValueError("all generator images must be invertible")
                perm = None if inv is None else np.argsort(inv)
                self._generators.append(g)
            else:
                perm, inv = _permutation(g, self.n)
                self._generators.append(None)
            if perm is None:
                dense.append(g.data)
            else:
                self._maps[i, 1], self._maps[i, -1] = inv, perm
                gather.append(inv)
        self._gather = np.concatenate(gather) if gather else None
        self._transposes = np.concatenate(dense).T if dense else None
        self._word_maps = {(): np.arange(self.n)}
        self._word_cache = {}

    @property
    def generators(self) -> list:
        """The generator images as DenseMatrix values."""
        for i, g in enumerate(self._generators):
            if g is None:
                self._generators[i] = self._permutation_matrix(self._maps[i + 1, 1])
        return self._generators

    def _permutation_matrix(self, row_map) -> DenseMatrix:
        """The 0/1 matrix whose row j is 1 in column row_map[j] alone."""
        return DenseMatrix(self.field, np.eye(self.n, dtype=np.uint8).take(row_map, axis=0))

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

    def _row_map(self, word: Word):
        """The row map of theta(word) when every letter of the word is a
        permutation letter, else None: row j of theta(word) is 1 in column
        map[j] alone.  It is built along prefixes as of_word builds, each
        letter x one gather, map(wx) = map(x)[map(w)], and cached."""
        key = word.letters
        if key in self._word_maps:
            return self._word_maps[key]
        if any(letter not in self._maps for letter in key):
            return None
        m = self._word_maps[()]
        for idx in range(len(key)):
            prefix = key[: idx + 1]
            if prefix not in self._word_maps:
                self._word_maps[prefix] = self._maps[key[idx]].take(m)
            m = self._word_maps[prefix]
        return m

    def of_word(self, word: Word) -> DenseMatrix:
        key = word.letters
        if key in self._word_cache:
            return self._word_cache[key]
        row_map = self._row_map(word)
        if row_map is not None:
            m = self._word_cache[key] = self._permutation_matrix(row_map)
            return m
        # Build up along prefixes so shared prefixes are evaluated once: a
        # dense letter is one product, a permutation letter a column gather.
        for idx in range(len(key)):
            prefix = key[: idx + 1]
            if prefix in self._word_cache:
                m = self._word_cache[prefix]
                continue
            i, e = key[idx]
            if (i, e) not in self._maps:
                g = self._generators[i - 1]
                step = g if e == 1 else g.inverse()
                m = step if idx == 0 else m @ step
            elif idx == 0:
                m = self._permutation_matrix(self._maps[i, e])
            else:
                m = DenseMatrix(self.field, m.data.take(self._maps[i, -e], axis=1))
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


def _check_element(rep: Representation, a: AlgebraMatrix) -> None:
    if a.field != rep.field:
        raise ValueError("field mismatch")
    if a.r > rep.r:
        raise ValueError("element uses more generators than the representation has")


def apply_matrix(rep: Representation, a: AlgebraMatrix) -> DenseMatrix:
    """Image of an n x n algebra matrix as an (n*n_k) x (n*n_k) block matrix."""
    _check_element(rep, a)
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
    """rk(theta(A)) / n_k, an exact rational in [0, n].

    When every word of A is over permutation letters, theta(A) is ranked
    from its nonzeros with no dense array: a term c w of entry (i, j) puts c
    at row i n_k + t, column j n_k + map_w(t) for every point t, and
    rank_entries sums the terms that meet.  Otherwise apply_matrix builds
    theta(A) and it is ranked as an array.
    """
    _check_element(rep, a)
    nk = rep.n
    terms = [(i, j, c, rep._row_map(word))
             for i, row in enumerate(a.entries) for j, entry in enumerate(row)
             for word, c in entry.terms.items()]
    if any(row_map is None for *_, row_map in terms):
        return Fraction(apply_matrix(rep, a).rank(), nk)
    if not terms:
        return Fraction(0, nk)
    points = np.arange(nk)
    rows, cols, codes = map(np.concatenate, zip(*[
        (i * nk + points, j * nk + row_map, np.full(nk, c, dtype=np.uint8))
        for i, j, c, row_map in terms]))
    rank = rank_entries(rep.field, (a.n * nk, a.n * nk), rows, cols, codes)
    return Fraction(rank, nk)


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
    if tol < 0:
        raise ValueError(f"tolerance {tol} must be at least 0")
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


def _permutation(perm, n: int):
    """(perm, inv) as intp arrays with inv[perm[i]] == i, after checking
    that perm is an integer array holding each of 0..n-1 once."""
    perm = np.asarray(perm)
    if perm.shape != (n,) or (n and (perm.dtype.kind not in "iu"
                                     or perm.min() < 0 or perm.max() >= n)):
        raise ValueError(f"a permutation generator must be an index array of 0..{n - 1}")
    perm = perm.astype(np.intp)
    inv = np.full(n, -1, dtype=np.intp)
    inv[perm] = np.arange(n)
    if np.any(inv < 0):
        raise ValueError("a permutation generator must hold each index once")
    return perm, inv


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
        return Representation(field, [perm] + [points] * (r - 1))
    if spec.kind == "random_invertible":
        seed, n = spec.params[:2]
        rng = np.random.Generator(np.random.Philox(seed))
        return Representation(field, [random_invertible(field, rng, n) for _ in range(r)])
    raise ValueError(f"unknown family {spec.kind!r}")
