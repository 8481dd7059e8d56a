"""Subspaces of GF(q)^n in canonical reduced-echelon form.

Two subspaces are equal exactly when their canonical bases are identical
arrays, so equality and hashing are structural and O(1)-ish.

Each basis row is 1 on its own pivot column and 0 on the other pivots, so
the residual rows - rows[:, pivots] . basis is zero exactly on the rows
inside the subspace; membership reduces against it.  Annihilators are
read off the basis without elimination; kernels come from
Subspace.kernel_of(field, n, rows) = {x : rows . x = 0}.  A span that
grows a batch at a time is a matrix.SpanAccumulator, which keeps no
canonical form; a Subspace is built from it only where one is needed.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

from .field import FieldSpec
from .matrix import (DenseMatrix, SingularMatrixError, codes_from_json, echelon_kernel,
                     matmul_data, matmul_live, rank_data, rref_array, sub_data)


class AmbientMismatchError(ValueError):
    pass


class BudgetExceededError(RuntimeError):
    pass


# How many subspaces an exact enumeration may visit before it raises
# BudgetExceededError: the default cap of hyperfin's exact checks and of
# the CLI's --cap.
ENUM_CAP = 1 << 24


class Subspace:
    """A subspace of GF(q)^ambient, held as a reduced-echelon row basis."""

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field: FieldSpec, ambient: int, rows=(), *, _canonical=False):
        self.field = field
        self.ambient = ambient
        arr = np.asarray(rows, dtype=np.uint8).reshape(len(rows), ambient)
        if _canonical:
            R, piv = arr, (arr != 0).argmax(axis=1).tolist()    # each row's first nonzero
        else:
            R, piv = rref_array(field, arr)
            R = R[: len(piv)]
        R = np.array(R, dtype=np.uint8)
        R.setflags(write=False)
        self.basis = R
        self.pivots = tuple(piv)

    @classmethod
    def full(cls, field, ambient):
        return cls(field, ambient, np.eye(ambient, dtype=np.uint8), _canonical=True)

    @classmethod
    def kernel_of(cls, field, n, rows):
        """{x in GF(q)^n : rows . x = 0}, from one elimination of the rows with
        their columns reversed.  echelon_kernel of that gives each free column
        a row that is 1 there and nonzero elsewhere only on pivot columns to
        its right, once columns and rows are flipped back: already the
        canonical basis."""
        rows = np.asarray(rows, dtype=np.uint8).reshape(-1, n)
        rows = rows[np.any(rows, axis=1)]    # keeps all-zero defect stacks cheap
        ker = echelon_kernel(field, *rref_array(field, rows[:, ::-1]))
        return cls(field, n, ker[::-1, ::-1], _canonical=True)

    def to_json(self):
        """The canonical basis as a list of rows of integer codes."""
        return self.basis.astype(int).tolist()

    @classmethod
    def from_json(cls, field, ambient, rows):
        """Inverse of to_json; any rows spanning the subspace are accepted."""
        return cls(field, ambient, codes_from_json(field, rows, ambient))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient == other.ambient
                and bool(np.array_equal(self.basis, other.basis)))

    def __hash__(self):
        return hash((self.ambient, self.basis.tobytes()))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"

    def _check_ambient(self, other):
        if self.field != other.field or self.ambient != other.ambient:
            raise AmbientMismatchError("subspaces live in different ambient spaces")

    def residual(self, rows) -> np.ndarray:
        """rows - rows[:, pivots] . basis: zero exactly on the rows inside.
        The product runs over the live columns of rows[:, pivots] alone."""
        rows = np.asarray(rows, dtype=np.uint8)
        if rows.ndim != 2 or rows.shape[1] != self.ambient:
            raise AmbientMismatchError(f"expected rows of length {self.ambient}")
        proj = matmul_live(self.field, rows[:, list(self.pivots)], self.basis)
        return sub_data(self.field, rows, proj)

    # -- lattice operations --

    def annihilator(self) -> np.ndarray:
        """Rows a with a . x = 0 for every x here, spanning all such functionals;
        read off the echelon basis without elimination."""
        return echelon_kernel(self.field, self.basis, self.pivots)

    def contains_vector(self, v) -> bool:
        return not np.any(self.residual(np.asarray(v, dtype=np.uint8)[None, :]))

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return not np.any(self.residual(other.basis))

    def complement(self) -> "Subspace":
        """Coordinate complement: standard basis vectors off the pivot columns."""
        free = np.delete(np.arange(self.ambient), self.pivots)
        return Subspace(self.field, self.ambient, np.eye(self.ambient, dtype=np.uint8)[free],
                        _canonical=True)

    def vectors(self):
        """Every vector of the subspace (q^dim of them), zero first."""
        for coeffs in product(range(self.field.q), repeat=self.dim):
            yield matmul_data(self.field, np.array([coeffs], dtype=np.uint8), self.basis)[0]


def subspaces_independent(spaces) -> bool:
    """True iff dim of the sum equals the sum of dims."""
    spaces = list(spaces)
    if not spaces:
        return True
    first = spaces[0]
    for s in spaces[1:]:
        first._check_ambient(s)
    stacked = np.concatenate([s.basis for s in spaces], axis=0)
    return rank_data(first.field, stacked) == sum(s.dim for s in spaces)


def gaussian_binomial(n: int, d: int, q: int) -> int:
    if d < 0 or d > n:
        return 0
    num = den = 1
    for i in range(d):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def enumerate_subspaces(field: FieldSpec, n: int, d: int):
    """All d-dimensional subspaces of GF(q)^n, each exactly once.

    Order: pivot patterns lexicographically, then free entries
    lexicographically.
    """
    if not 0 <= d <= n:
        raise ValueError("need 0 <= d <= n")
    q = field.q
    for pivots in combinations(range(n), d):
        free_slots = [(i, j) for i in range(d) for j in range(pivots[i] + 1, n)
                      if j not in pivots]
        for values in product(range(q), repeat=len(free_slots)):
            basis = np.zeros((d, n), dtype=np.uint8)
            for i, pc in enumerate(pivots):
                basis[i, pc] = 1
            for (i, j), v in zip(free_slots, values):
                basis[i, j] = v
            yield Subspace(field, n, basis, _canonical=True)


def projection_onto(v: Subspace, w: Subspace) -> DenseMatrix:
    """Idempotent matrix with image `v` and kernel `w` (complementary pair).

    B = [V; W]^T is invertible exactly when v and w are complementary, so
    its one elimination is also the check: P = [V|0] B^{-1}."""
    v._check_ambient(w)
    B = DenseMatrix(v.field, np.concatenate([v.basis, w.basis], axis=0).T)
    try:
        binv = B.inverse()
    except SingularMatrixError:
        raise ValueError("subspaces are not complementary") from None
    target = np.concatenate([v.basis, np.zeros_like(w.basis)], axis=0).T
    return DenseMatrix(v.field, target) @ binv
