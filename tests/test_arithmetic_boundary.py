"""Code-array sums outside matrix.py, checked against the scalar FieldSpec oracle.

phi_of, product_coords, apply_matrix, Subspace.vectors and
PolyInstance.multiply each form a sum c_k * X_k through matmul_data;
annihilators are read off the echelon basis without elimination.
"""

from itertools import product

import numpy as np
import pytest

from linrep import matrix, subspace
from linrep.field import GF2, FieldSpec
from linrep.freealg import AlgebraElement, AlgebraMatrix, Word
from linrep.matrix import DenseMatrix, random_invertible, random_matrix
from linrep.repseq import Representation, apply_matrix
from linrep.soficam import PolyInstance
from linrep.subspace import Subspace
from linrep.tiling import FiniteApproxMap

FIELDS = [GF2, FieldSpec(3), FieldSpec(251), FieldSpec(2, 2), FieldSpec(3, 2), FieldSpec(2, 8)]
IDS = [f"q{f.q}" for f in FIELDS]


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def codes(field, g, shape):
    return g.integers(0, field.q, size=shape, dtype=np.uint64).astype(np.uint8)


def scalar_combination(field, coeffs, arrays, shape):
    """sum_k coeffs[k] * arrays[k], entry by entry with FieldSpec.add/mul."""
    out = np.zeros(shape, dtype=np.uint8)
    for c, x in zip(coeffs, arrays):
        for idx in np.ndindex(*shape):
            out[idx] = field.add(int(out[idx]), field.mul(int(c), int(x[idx])))
    return out


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_code_array_sums_match_scalar_oracle(field):
    g = rng(field.q)
    n, i_max = 4, 4
    phi = [DenseMatrix.identity(field, n)] + [random_matrix(field, g, n) for _ in range(i_max - 1)]
    mult = {(a, b): codes(field, g, i_max) for a in range(1, i_max + 1)
            for b in range(1, i_max + 1)}
    m = FiniteApproxMap(field, phi, mult)
    sparse = np.array([0, 1, 0, 0], dtype=np.uint8)
    for coeffs in [np.zeros(i_max, dtype=np.uint8), sparse] + [codes(field, g, i_max) for _ in range(4)]:
        want = scalar_combination(field, coeffs, [p.data for p in phi], (n, n))
        assert np.array_equal(m.phi_of(coeffs).data, want)
        other = codes(field, g, i_max)
        weights = [field.mul(int(coeffs[a]), int(other[b])) for a in range(i_max) for b in range(i_max)]
        terms = [mult[(a + 1, b + 1)] for a in range(i_max) for b in range(i_max)]
        got = m.product_coords(coeffs, other)
        assert got.dtype == np.uint8
        assert np.array_equal(got, scalar_combination(field, weights, terms, (i_max,)))

    # A 2 x 2 algebra matrix with one zero entry.
    nk = 3
    rep = Representation(field, [random_invertible(field, g, nk) for _ in range(2)])
    words = [Word.identity(), Word.generator(1), Word.generator(2, -1)]
    elem = [AlgebraElement(field, 2, dict(zip(words, 1 + codes(field, g, 3) % (field.q - 1))))
            for _ in range(3)]
    a = AlgebraMatrix(field, 2, [[elem[0], elem[1]], [AlgebraElement.zero(field, 2), elem[2]]])
    got = apply_matrix(rep, a).data
    for i, j in product(range(2), repeat=2):
        terms = a.entries[i][j].terms
        want = scalar_combination(field, list(terms.values()),
                                  [rep.of_word(w).data for w in terms], (nk, nk))
        assert np.array_equal(got[i * nk:(i + 1) * nk, j * nk:(j + 1) * nk], want)

    dim = 2 if field.q <= 9 else 1
    for s in (Subspace(field, 5), Subspace(field, 5, codes(field, g, (dim, 5)))):
        got = list(s.vectors())
        assert len(got) == field.q ** s.dim and not np.any(got[0])
        for v, c in zip(got, product(range(field.q), repeat=s.dim)):
            assert np.array_equal(v, scalar_combination(field, c, s.basis, (5,)))

    inst = PolyInstance(field, 8)
    for la, lb in ((4, 3), (1, 5), (3, 1)):
        pa, pb = codes(field, g, la), codes(field, g, lb)
        want = np.zeros(la + lb - 1, dtype=np.uint8)
        for i in range(la):
            shifted = np.zeros(la + lb - 1, dtype=np.uint8)
            shifted[i:i + lb] = pb
            want = scalar_combination(field, [1, pa[i]], [want, shifted], want.shape)
        assert np.array_equal(inst.multiply(pa, pb), want)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_annihilator_reads_the_echelon_basis(field, monkeypatch):
    g = rng(field.q + 1)
    n = 6
    spaces = [Subspace(field, n), Subspace.full(field, n)]
    spaces += [Subspace(field, n, codes(field, g, (rows, n))) for rows in (1, 2, 3, 5)]
    spaces.append(Subspace(field, n, np.eye(n, dtype=np.uint8)[[1, 4]]))
    kernels = [DenseMatrix(field, s.basis).kernel() for s in spaces]

    def no_elimination(*args, **kwargs):
        raise AssertionError("annihilator ran an elimination")

    monkeypatch.setattr(matrix, "rref_array", no_elimination)
    monkeypatch.setattr(subspace, "rref_array", no_elimination)
    for s, kernel in zip(spaces, kernels):
        ann = s.annihilator()
        assert ann.dtype == np.uint8 and ann.shape == (n - s.dim, n)
        assert np.array_equal(ann, kernel)
