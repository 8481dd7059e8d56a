from fractions import Fraction

import numpy as np
import pytest

from linrep.field import GF2, FieldSpec
from linrep.matrix import DenseMatrix, random_invertible, random_matrix, sub_data
from linrep.repseq import Representation
from linrep.soficam import (ExtensionReport, InfeasibleParametersError,
                            PolyInstance, SoficData, approx_extension_check,
                            folner_pair, poly_basis_map, sofic_check)
from linrep.subspace import Subspace, projection_onto
from linrep.tiling import FiniteApproxMap, MissingProductError

F3 = FieldSpec(3)


def cyclic_group_map(field, k):
    """Exact regular representation of Z/k as a FiniteApproxMap: basis
    elements are the group elements, the table is the full group law."""
    phi = []
    for j in range(k):
        data = np.zeros((k, k), dtype=np.uint8)
        for c in range(k):
            data[(c + j) % k, c] = 1
        phi.append(DenseMatrix(field, data))
    mult = {}
    for a in range(1, k + 1):
        for b in range(1, k + 1):
            coords = np.zeros(k, dtype=np.uint8)
            coords[(a + b - 2) % k] = 1
            mult[(a, b)] = coords
    return FiniteApproxMap(field, phi, mult)


def test_poly_multiply_matches_convolution():
    inst = PolyInstance(F3, 8)
    a = np.array([1, 2, 0, 1], dtype=np.uint8)
    b = np.array([2, 1], dtype=np.uint8)
    got = inst.multiply(a, b)
    # (1 + 2x + x^3)(2 + x) = 2 + 5x + 2x^2 + 2x^3 + x^4, coefficients mod 3.
    assert got.tolist() == [2, 2, 2, 2, 1]


# The truncation map of a polynomial on V along W is multiplication by it
# followed by the projection onto V along W.

def test_truncation_map_is_multiplication_then_projection():
    inst = PolyInstance(GF2, 6)
    v = inst.degree_subspace(4)
    w = Subspace(GF2, 6, np.eye(6, dtype=np.uint8)[4:])
    x = np.array([0, 1], dtype=np.uint8)  # the polynomial x
    p = projection_onto(v, w)
    # On span{1..x^3}: multiply by x, chop degree >= 4.
    one, cube = np.eye(6, dtype=np.uint8)[[0, 3]]
    assert p.apply(inst.multiply(one, x)[:6]).tolist() == [0, 1, 0, 0, 0, 0]
    assert p.apply(inst.multiply(cube, x)[:6]).tolist() == [0] * 6


@pytest.mark.parametrize("field", [GF2, F3, FieldSpec(2, 2)], ids=["q2", "q3", "q4"])
def test_truncation_map_on_random_complementary_pairs(field):
    # P(x) is the one vector of V with x - P(x) in W, for x = poly times
    # each basis row of V.
    g = np.random.Generator(np.random.Philox(3))
    for m in (1, 2, 4, 6):
        inst = PolyInstance(field, m)
        for _ in range(6):
            b = random_invertible(field, g, m).data
            k = int(g.integers(0, m + 1))
            v, w = Subspace(field, m, b[:k]), Subspace(field, m, b[k:])
            poly = random_matrix(field, g, 1, int(g.integers(1, m + 1))).data[0]
            p = projection_onto(v, w)
            for row in v.basis:
                x = inst.multiply(row, poly)[:m]
                image = p.apply(x)
                assert v.contains_vector(image)
                assert w.contains_vector(sub_data(field, x, image))


def test_truncation_map_needs_complementary_pair():
    inst = PolyInstance(GF2, 6)
    v = inst.degree_subspace(4)
    with pytest.raises(ValueError):
        projection_onto(v, v)


@pytest.mark.parametrize("field", [GF2, F3, FieldSpec(2, 2)], ids=["q2", "q3", "q4"])
@pytest.mark.parametrize("m", [1, 5, 12])
def test_poly_basis_map_is_truncation_by_monomials(field, m):
    inst = PolyInstance(field, m)
    phi = poly_basis_map(inst, m).phi
    eye = np.eye(m, dtype=np.uint8)
    for j in range(m):
        mono = np.zeros(j + 1, dtype=np.uint8)
        mono[j] = 1
        # Column i is x^i * x^j with the degrees from m on cut off.
        cols = [inst.multiply(eye[i], mono)[:m] for i in range(m)]
        assert np.array_equal(phi[j].data, np.array(cols).T)


def test_folner_pair_controls_growth():
    inst = PolyInstance(GF2, 64)
    elements = [np.array([1, 1], dtype=np.uint8), np.array([1, 0, 1], dtype=np.uint8)]
    for num, den in ((1, 8), (1, 4), (1, 3)):
        delta = Fraction(num, den)
        v1, v = folner_pair(inst, elements, delta)
        assert v.contains(v1)
        assert Fraction(v1.dim) >= (1 - delta) * v.dim
        # E V_1 stays inside V: top degree of products is bounded by design.
        for e in elements:
            for row in v1.basis:
                prod = inst.multiply(row, e)
                padded = np.zeros(inst.m, dtype=np.uint8)
                padded[:len(prod)] = prod[:inst.m]
                assert v.contains_vector(padded)


def test_folner_pair_degenerate_and_infeasible():
    inst = PolyInstance(GF2, 8)
    v1, v = folner_pair(inst, [np.array([1], dtype=np.uint8)], Fraction(1, 8))
    assert v1 == v  # degree-0 elements need no shrinking
    with pytest.raises(InfeasibleParametersError):
        folner_pair(inst, [np.array([0, 0, 0, 1], dtype=np.uint8)], Fraction(1, 100))
    with pytest.raises(InfeasibleParametersError):
        folner_pair(inst, [np.array([1, 1], dtype=np.uint8)], Fraction(0))


def test_sofic_check_on_truncation_levels():
    levels = (8, 16, 32, 64)
    basis = 3        # span{1, x, x^2}, top degree d = 2
    d = basis - 1
    maps, bounds = [], []
    for m in levels:
        inst = PolyInstance(GF2, m)
        maps.append(poly_basis_map(inst, 2 * basis))
        bounds.append(Fraction(2 * d, m))
    assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))
    data = SoficData(maps, bounds)
    for idx, m in enumerate(levels):
        elements = []
        for j in range(basis):
            c = np.zeros(maps[idx].i_max, dtype=np.uint8)
            c[j] = 1
            elements.append((c, Fraction(m - d, m)))
        report = sofic_check(data, idx + 1, elements, basis_count=basis)
        assert report.all_ok
        assert report.max_defect < bounds[idx]
        assert report.min_rank >= 1 - Fraction(2, m)


def test_sofic_check_flags_rank_floor_violation():
    inst = PolyInstance(GF2, 8)
    m = poly_basis_map(inst, 6)
    data = SoficData([m], [Fraction(1, 2)])
    coords = np.zeros(6, dtype=np.uint8)
    coords[5] = 1  # x^5 on V_8 has rank 3/8
    report = sofic_check(data, 1, [(coords, Fraction(7, 8))], basis_count=3)
    assert not report.rank_ok and not report.all_ok
    assert report.min_rank == Fraction(3, 8)


def test_sofic_check_flags_defect_violation():
    # A group-law table with a wrong entry produces a visible defect.
    m = cyclic_group_map(GF2, 4)
    bad_mult = dict(m.mult)
    wrong = np.zeros(4, dtype=np.uint8)
    wrong[0] = 1
    bad_mult[(2, 2)] = wrong  # claims x * x = 1
    bad = FiniteApproxMap(GF2, m.phi, bad_mult)
    report = sofic_check(SoficData([bad], [Fraction(1, 8)]), 1, [], basis_count=2)
    assert not report.mult_ok
    good = sofic_check(SoficData([m], [Fraction(1, 8)]), 1, [], basis_count=4)
    assert good.mult_ok and good.max_defect == 0


def test_approx_extension_exact_on_group_algebra():
    # The regular representation of Z/6 extends its own basis map exactly.
    k = 6
    m = cyclic_group_map(GF2, k)
    rho = Representation(GF2, [m.phi[1]])
    e = np.eye(k, dtype=np.uint8)
    theta = {1: e[1], -1: e[k - 1]}
    report = approx_extension_check(rho, m, theta, 3, Fraction(1, 10))
    assert report.good_ok and report.max_distance == 0 and report.all_ok


def test_approx_extension_detects_disagreement():
    k = 6
    m = cyclic_group_map(GF2, k)
    e = np.eye(k, dtype=np.uint8)
    theta = {1: e[1], -1: e[k - 1]}
    # A representation that is not the extension: swap two basis vectors.
    perm = np.eye(k, dtype=np.uint8)
    perm[[0, 1]] = perm[[1, 0]]
    rho = Representation(GF2, [DenseMatrix(GF2, perm)])
    report = approx_extension_check(rho, m, theta, 2, Fraction(1, 10))
    assert report.max_distance > 0 and not report.all_ok


def test_approx_extension_missing_generator_coords_is_loud():
    m = cyclic_group_map(GF2, 4)
    rho = Representation(GF2, [m.phi[1]])
    with pytest.raises(MissingProductError):
        approx_extension_check(rho, m, {1: np.eye(4, dtype=np.uint8)[1]},
                               2, Fraction(1, 10))
