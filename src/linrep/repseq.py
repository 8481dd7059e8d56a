"""Finite-dimensional representations of F_r and their rank profiles.

A representation is an r-tuple of invertible matrices over GF(q); group
algebra matrices are evaluated blockwise, and normalized ranks are exact
Fractions rank/n_k.  A generator is a dense matrix or a permutation held
as its index array, which is how the cyclic and involution families build
theirs, with no k x k array.  Word images live in one cache keyed by their
letters: the empty word, each letter and each whole word evaluated so far.
A word over permutation letters is held as its row map, any other as a
DenseMatrix.  A new word is built from its cached parent (all letters but
the last), else letter by letter, and each step is set by the kinds of its
two sides: two row maps take one gather, a matrix and a permutation letter
a column gather, a row map and a dense letter a row gather, and two
matrices one product.  normalized_rank lists theta(A)'s nonzeros from the
row maps when every word of A is over permutation letters and ranks them
by matrix.rank_entries; otherwise it ranks the dense image that
apply_matrix builds.  A dense generator is checked invertible by its rank
and inverted only at the first word that uses its inverse.  The same split
builds generator images, the one primitive behind every growth
dim(V + sum theta(gamma_i) V): images gathers the columns of a row stack for
each permutation generator and takes the dense generators in one product
with their stacked transposes, over the live columns of the rows alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .field import FieldSpec
from .freealg import AlgebraMatrix, Word
from .matrix import (DenseMatrix, fraction_to_json, json_typed, matmul_data, matmul_live,
                     random_invertible, rank_entries)
from .subspace import Subspace


class Representation:
    """theta: F_r -> GL(n, GF(q)), given by its generator images.

    Each generator is a DenseMatrix, or a permutation perm of range(n) as an
    integer index array: the permutation matrix whose column i is the unit
    vector e_perm[i], materialized only when generators, to_json or of_word
    asks for it.  A DenseMatrix that is a permutation matrix is held as its
    permutation too, so the two forms behave alike.

    _word_cache maps a letter tuple to theta(word): a row map (an intp array;
    row j of theta(word) is 1 in column map[j] alone) when every letter is a
    permutation letter, else a DenseMatrix.  It holds the empty word, every
    letter, and each whole word evaluated so far, and no other prefix.
    """

    __slots__ = ("field", "r", "n", "_word_cache", "_gather", "_transposes")

    def __init__(self, field: FieldSpec, generators):
        self.field = field
        gens = list(generators)
        self.r = len(gens)
        if self.r == 0:
            raise ValueError("need at least one generator")
        self.n = gens[0].rows if isinstance(gens[0], DenseMatrix) else len(gens[0])
        # A permutation g_i is seeded as the row maps of g_i and g_i^-1; a
        # dense g_i is checked invertible here, and g_i^-1 is added at its
        # first use.  images reads the same decision: the row maps of the
        # permutations in one gather, and the dense g_i as
        # [g_1^T | g_2^T | ...], or None.
        cache = self._word_cache = {(): np.arange(self.n)}
        gather, dense = [], []
        for i, g in enumerate(gens, start=1):
            if isinstance(g, DenseMatrix):
                if g.field != field or g.rows != self.n or g.cols != self.n:
                    raise ValueError("generators must be square matrices over the same field")
                inv = _inverse_permutation(g.data)
                if inv is None:
                    if not g.is_invertible():
                        raise ValueError("all generator images must be invertible")
                    cache[(i, 1),] = g
                    dense.append(g.data)
                    continue
                perm = np.argsort(inv)
            else:
                perm, inv = _permutation(g, self.n)
            cache[(i, 1),], cache[(i, -1),] = inv, perm
            gather.append(inv)
        self._gather = np.concatenate(gather) if gather else None
        self._transposes = np.concatenate(dense).T if dense else None

    @property
    def generators(self) -> list:
        """The generator images as DenseMatrix values."""
        return [self.of_word(Word.generator(i)) for i in range(1, self.r + 1)]

    def images(self, rows: np.ndarray) -> np.ndarray:
        """g_i v for every row v and every generator g_i, stacked as rows
        (rows @ g_i^T), in no promised order.  A permutation's transpose is
        its inverse, so its images are a column gather; the dense generators
        take one product, returned as it is when every generator is dense.
        That product is matmul_live's: rows spun from a coordinate vector
        are zero off one block, and only their live columns are multiplied."""
        dense = (None if self._transposes is None
                 else matmul_live(self.field, rows, self._transposes).reshape(-1, self.n))
        if self._gather is None:
            return dense
        gathered = rows.take(self._gather, axis=1).reshape(-1, self.n)
        return gathered if dense is None else np.concatenate([gathered, dense])

    def _image(self, key: tuple):
        """theta of the word with letters key, as _word_cache holds it.  A new
        word is built from its cached parent (all letters but the last) when
        there is one, else letter by letter, and only the word is kept."""
        cache = self._word_cache
        if key in cache:
            return cache[key]
        m = cache.get(key[:-1]) if len(key) > 1 else None
        for i, e in key if m is None else key[-1:]:
            x = cache.get(((i, e),))
            if x is None:   # a dense g_i^-1, inverted at its first use
                x = cache[(i, e),] = cache[(i, 1),].inverse()
            if m is None:
                m = x
            elif isinstance(x, DenseMatrix):   # one product, or x's rows gathered by m
                m = (m @ x if isinstance(m, DenseMatrix)
                     else DenseMatrix(self.field, x.data.take(m, axis=0)))
            elif isinstance(m, DenseMatrix):   # m @ x gathers m's columns by x^-1
                m = DenseMatrix(self.field, m.data.take(cache[(i, -e),], axis=1))
            else:                              # map(wx) = map(x)[map(w)]
                m = x.take(m)
        cache[key] = m
        return m

    def of_word(self, word: Word) -> DenseMatrix:
        """theta(word); a permutation word's row map is materialized here."""
        m = self._image(word.letters)
        if isinstance(m, DenseMatrix):
            return m
        return DenseMatrix(self.field, np.eye(self.n, dtype=np.uint8).take(m, axis=0))

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
    theta(A) from the word images cached here and it is ranked as an array.
    """
    _check_element(rep, a)
    nk = rep.n
    terms = [(i, j, c, rep._image(word.letters))
             for i, row in enumerate(a.entries) for j, entry in enumerate(row)
             for word, c in entry.terms.items()]
    if any(isinstance(row_map, DenseMatrix) for *_, row_map in terms):
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
    def random_invertible(seed: int, r: int):
        return FamilyDescriptor("random_invertible", (seed, r))


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
    """Instantiate the k-th member of a built-in representation family, of size k."""
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
        rng = np.random.Generator(np.random.Philox(spec.params[0]))
        return Representation(field, [random_invertible(field, rng, k) for _ in range(r)])
    raise ValueError(f"unknown family {spec.kind!r}")
