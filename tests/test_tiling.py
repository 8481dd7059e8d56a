import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from linrep import tiling
from linrep.field import GF2, FieldSpec
from linrep.matrix import DenseMatrix, SpanAccumulator, matmul_data, random_codes
from linrep.repseq import repair_to_invertible
from linrep.soficam import PolyInstance, poly_basis_map
from linrep.subspace import AmbientMismatchError, Subspace, subspaces_independent
from linrep.tiling import (FiniteApproxMap, FSubspaceData, MissingProductError,
                           TilingCertificate, candidate_space, good_subspace,
                           greedy_tiling, is_center, is_good_map, precondition_check,
                           verify_certificate)


def unit_f(n):
    e0 = np.eye(n, dtype=np.uint8)[0]
    return FSubspaceData([e0], {0: e0})


def corrupted_map(m, basis_idx=1):
    """Replace one basis image with its invertible repair, spoiling exact
    multiplicativity on part of the space."""
    phi = list(m.phi)
    phi[basis_idx] = repair_to_invertible(phi[basis_idx])
    return FiniteApproxMap(m.field, phi, m.mult)


def test_unit_preservation_enforced():
    n = 3
    bad = [DenseMatrix(GF2, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])]
    with pytest.raises(ValueError):
        FiniteApproxMap(GF2, bad, {})


def test_quotient_map_is_exactly_multiplicative():
    # Degree truncation of polynomials is an algebra quotient, so the good
    # subspace is everything and the map is i-good for every i.
    for m_dim in (4, 8, 12):
        inst = PolyInstance(GF2, m_dim)
        m = poly_basis_map(inst, m_dim)
        g = good_subspace(m, m_dim // 2)
        assert g.dim == m_dim
        assert is_good_map(m, m_dim // 2)


def test_good_subspace_matches_exhaustive_scan():
    inst = PolyInstance(GF2, 4)
    m = corrupted_map(poly_basis_map(inst, 4))
    g = good_subspace(m, 2)
    brute = []
    for v in Subspace.full(GF2, 4).vectors():
        ok = True
        for s in (1, 2):
            for t in (1, 2):
                lhs = m.phi_of(m.mult[(s, t)]).apply(v)
                rhs = m.phi[s - 1].apply(m.phi[t - 1].apply(v))
                if not np.array_equal(lhs, rhs):
                    ok = False
        if ok:
            brute.append(v)
    assert 2 ** g.dim == len(brute)
    assert all(g.contains_vector(v) for v in brute)
    assert 0 < g.dim < 4


def test_missing_product_is_loud():
    inst = PolyInstance(GF2, 4)
    m = poly_basis_map(inst, 4)
    with pytest.raises(MissingProductError, match=r"\(2, 4\)"):
        m.defects(4)  # x * x^3 is the first product, row-major, to leave the basis span
    with pytest.raises(MissingProductError):
        c = np.array([0, 0, 0, 1], dtype=np.uint8)
        m.product_coords(c, c)


DEFECT_FIELDS = [GF2, FieldSpec(3), FieldSpec(2, 2), FieldSpec(3, 2)]


def _random_map_file(field, g, n, i_max, i):
    """A map file as the CLI reads it: phi(1) = Id, random images, and random
    table coordinates for every pair s, t <= i."""
    phi = [np.eye(n, dtype=np.uint8)] + [random_codes(field, g, (n, n)) for _ in range(i_max - 1)]
    mult = [[s, t, random_codes(field, g, i_max).tolist()]
            for s in range(1, i + 1) for t in range(1, i + 1)]
    return FiniteApproxMap.from_json(field, {"phi": [p.tolist() for p in phi], "mult": mult})


@pytest.mark.parametrize("field", DEFECT_FIELDS)
def test_raw_defects_match_dense_matrix_arithmetic(field):
    # Each raw defect is phi(r_s r_t) - phi(r_s) phi(r_t) in DenseMatrix
    # arithmetic, in row-major order, on poly maps with i_max = m (exact and
    # corrupted) and on random map files.
    g = np.random.Generator(np.random.Philox(field.q))
    maps = []
    for m_dim in (5, 8):
        exact = poly_basis_map(PolyInstance(field, m_dim), m_dim)
        maps += [(exact, (m_dim + 1) // 2), (corrupted_map(exact), (m_dim + 1) // 2)]
    maps += [(_random_map_file(field, g, n, i_max, i), i)
             for n, i_max, i in ((3, 2, 2), (4, 3, 3), (6, 4, 2))]
    for m, i in maps:
        raw = m.defects(i)
        want = [(m.phi_of(m.mult[(s, t)]) - m.phi[s - 1] @ m.phi[t - 1]).data
                for s in range(1, i + 1) for t in range(1, i + 1)]
        assert len(raw) == len(want)
        for got, w in zip(raw, want):
            assert got.dtype == np.uint8 and np.array_equal(got, w)
        assert np.array_equal(m.image(m.unit_coords()), np.eye(m.n, dtype=np.uint8))
    # The first pair the table lacks, in row-major order, is the one named.
    m = _random_map_file(field, g, 4, 3, 3)
    mult = dict(m.mult)
    del mult[(3, 1)], mult[(2, 3)]
    with pytest.raises(MissingProductError, match=r"no entry for \(2, 3\)$"):
        FiniteApproxMap(field, m.phi, mult).defects(3)


def test_product_coords_bilinear_consistency():
    inst = PolyInstance(GF2, 8)
    m = poly_basis_map(inst, 8)
    a = np.array([1, 1, 0, 1, 0, 0, 0, 0], dtype=np.uint8)
    b = np.array([0, 1, 1, 0, 0, 0, 0, 0], dtype=np.uint8)
    prod = m.product_coords(a, b)
    want = inst.multiply(a, b)[:8]
    assert np.array_equal(prod, np.pad(want, (0, 8 - len(want))))


def test_candidate_space_membership_definition():
    # Every vector of A_{F,i} keeps its whole F-orbit inside G intersect H.
    inst = PolyInstance(GF2, 6)
    m = corrupted_map(poly_basis_map(inst, 6))
    eye = np.eye(6, dtype=np.uint8)
    f = FSubspaceData([eye[0], eye[1]], {0: eye[0]})
    h = Subspace(GF2, 6, eye[:5])
    g = good_subspace(m, 2)

    def in_gh(v):
        return g.contains_vector(v) and h.contains_vector(v)
    a = candidate_space(m, f, h, 2, good=g)
    for v in a.vectors():
        for coords in f.basis:
            assert in_gh(m.phi_of(coords).apply(v))
    # And a vector outside A must break the condition.
    outside = [v for v in Subspace.full(GF2, 6).vectors()
               if not a.contains_vector(v)]
    for v in outside[:20]:
        broken = any(not in_gh(m.phi_of(c).apply(v)) for c in f.basis)
        assert broken


def test_is_center_matches_brute_force_small():
    inst = PolyInstance(GF2, 6)
    m = corrupted_map(poly_basis_map(inst, 6))
    eye = np.eye(6, dtype=np.uint8)
    f = FSubspaceData([eye[0], eye[1]], {0: eye[0]})
    h = Subspace.full(GF2, 6)
    g = good_subspace(m, 2)
    for v in Subspace.full(GF2, 6).vectors():
        images = [m.phi_of(c).apply(v) for c in f.basis]
        orbit = Subspace(GF2, 6, np.array(images))
        brute = (orbit.dim == f.dim and h.contains(orbit)
                 and all(g.contains_vector(im) for im in images))
        assert is_center(m, f, h, 2, v, good=g) == brute


def test_greedy_tiling_and_verification():
    inst = PolyInstance(GF2, 16)
    m = poly_basis_map(inst, 16)
    f = unit_f(16)
    h = Subspace.full(GF2, 16)
    delta = Fraction(1, 4)
    report = precondition_check(m, f, h, 4, delta)
    assert report.all_ok
    cert = greedy_tiling(m, f, h, 4, delta, seed=0)
    assert Fraction(cert.coverage, 16) >= 1 - delta
    assert verify_certificate(cert, m, f, h, 4, delta)


def test_certificate_json_round_trip():
    inst = PolyInstance(GF2, 8)
    m = poly_basis_map(inst, 8)
    f = unit_f(8)
    h = Subspace.full(GF2, 8)
    cert = greedy_tiling(m, f, h, 2, Fraction(1, 4), seed=0)
    rt = TilingCertificate.from_json(GF2, 8, cert.to_json())
    assert rt.coverage == cert.coverage and rt.tiles == cert.tiles
    assert verify_certificate(rt, m, f, h, 2, Fraction(1, 4))


def test_verifier_rejects_tampered_certificates():
    inst = PolyInstance(GF2, 16)
    m = poly_basis_map(inst, 16)
    f = unit_f(16)
    h = Subspace.full(GF2, 16)
    delta = Fraction(1, 4)
    cert = greedy_tiling(m, f, h, 4, delta, seed=0)

    dropped = TilingCertificate(cert.i, cert.delta, cert.dim_f,
                                cert.centers[:2], cert.tiles[:2],
                                cert.h_basis, cert.coverage, cert.partial)
    assert not verify_certificate(dropped, m, f, h, 4, delta)

    duplicated = TilingCertificate(cert.i, cert.delta, cert.dim_f,
                                   list(cert.centers) + [cert.centers[0]],
                                   list(cert.tiles) + [cert.tiles[0]],
                                   cert.h_basis, cert.coverage + cert.tiles[0].dim,
                                   cert.partial)
    assert not verify_certificate(duplicated, m, f, h, 4, delta)

    lied = TilingCertificate(cert.i, cert.delta, cert.dim_f, cert.centers,
                             cert.tiles, cert.h_basis, cert.coverage + 1,
                             cert.partial)
    assert not verify_certificate(lied, m, f, h, 4, delta)

    zero_center = TilingCertificate(cert.i, cert.delta, cert.dim_f,
                                    [np.zeros(16, dtype=np.uint8)] + list(cert.centers),
                                    [cert.tiles[0]] + list(cert.tiles),
                                    cert.h_basis, cert.coverage, cert.partial)
    assert not verify_certificate(zero_center, m, f, h, 4, delta)


def test_precondition_report_flags_small_ambient():
    # dim F = 1 needs delta * n / 3 >= 1; at n = 8, delta = 1/4 it fails.
    inst = PolyInstance(GF2, 8)
    m = poly_basis_map(inst, 8)
    report = precondition_check(m, unit_f(8), Subspace.full(GF2, 8), 4, Fraction(1, 4))
    assert not report.f_size_ok
    assert report.good_map_ok and report.h_dim_ok and not report.all_ok


def test_missing_finv_blocks_inverse_precondition():
    inst = PolyInstance(GF2, 16)
    m = poly_basis_map(inst, 16)
    e0 = np.eye(16, dtype=np.uint8)[0]
    f = FSubspaceData([e0], {})  # no inverse data supplied
    report = precondition_check(m, f, Subspace.full(GF2, 16), 4, Fraction(1, 4))
    assert not report.inverses_in_span


def test_listed_non_inverse_fails_the_inverse_precondition():
    # x * 1 = x, so 1 is listed as the inverse of x but is none; both lie in
    # span{1, x}, and every other precondition holds.
    m = poly_basis_map(PolyInstance(GF2, 32), 8)
    u, x = np.eye(8, dtype=np.uint8)[:2]
    report = precondition_check(m, FSubspaceData([u, x], {0: u, 1: u}),
                                Subspace.full(GF2, 32), 2, Fraction(1, 4))
    assert report.to_json() == {"inverses_in_span": False, "candidate_dim_ok": True,
                                "kernel_bound_ok": True, "f_size_ok": True, "h_dim_ok": True,
                                "good_map_ok": True, "all_ok": False}


@pytest.mark.parametrize("field", [GF2, FieldSpec(3), FieldSpec(2, 2)], ids=lambda f: str(f.q))
@pytest.mark.parametrize("n", [32, 48, 64])
def test_default_unit_f_meets_every_precondition(field, n):
    m = poly_basis_map(PolyInstance(field, n), 8)
    report = precondition_check(m, unit_f(8), Subspace.full(field, n), 2, Fraction(1, 4))
    assert report.all_ok


def test_inverse_check_reads_a_missing_product_as_false():
    m = poly_basis_map(PolyInstance(GF2, 8), 4)
    u, x = np.eye(4, dtype=np.uint8)[:2]
    assert tiling._is_inverse(m, u, u) and not tiling._is_inverse(m, x, u)
    lacking = FiniteApproxMap(GF2, m.phi, {k: v for k, v in m.mult.items() if k != (1, 1)})
    assert not tiling._is_inverse(lacking, u, u)


@pytest.mark.parametrize("field, scale", [(GF2, 1), (FieldSpec(3), 2)])
def test_dependent_f_basis_is_a_value_error(field, scale):
    # dim F counts the rows, so [u, c u] asks for orbits of dimension 2 that
    # F cannot reach; this once ran into the coverage self-check instead and
    # raised RuntimeError "tiling theorem violated ... coverage 0/64".
    m = poly_basis_map(PolyInstance(field, 64), 8)
    u = np.eye(8, dtype=np.uint8)[0]
    f = FSubspaceData([u, scale * u], {0: u, 1: u})
    with pytest.raises(ValueError, match="^the F basis is linearly dependent$"):
        greedy_tiling(m, f, Subspace.full(field, 64), 2, Fraction(1, 4))


def test_orbit_of_unit_f_is_the_line():
    inst = PolyInstance(GF2, 8)
    m = poly_basis_map(inst, 8)
    x = np.array([1, 0, 1, 0, 0, 0, 0, 0], dtype=np.uint8)
    orbit = Subspace(GF2, 8, tiling.orbit_images(m, unit_f(8).basis, [x])[0])
    assert orbit.dim == 1 and orbit.contains_vector(x)


@pytest.mark.parametrize("field", [GF2, FieldSpec(3), FieldSpec(2, 2), FieldSpec(3, 2)],
                         ids=["2", "3", "2^2", "3^2"])
def test_orbit_images_match_per_element_products(field):
    # One stacked product against phi(f_k).apply(x_j) for each pair; the
    # rows need not contain the unit, and the map need not be multiplicative.
    m = corrupted_map(poly_basis_map(PolyInstance(field, 8), 6))
    g = np.random.Generator(np.random.Philox(field.q))
    f_rows = g.integers(0, field.q, size=(3, 6), dtype=np.uint64).astype(np.uint8)
    f_rows[0, 0] = 0
    xs = g.integers(0, field.q, size=(5, 8), dtype=np.uint64).astype(np.uint8)
    images = tiling.orbit_images(m, f_rows, xs)
    assert images.shape == (5, 3, 8)
    for j, x in enumerate(xs):
        for k, coords in enumerate(f_rows):
            assert np.array_equal(images[j, k], m.phi_of(coords).apply(x))


def test_negative_sample_budget_is_rejected():
    m = poly_basis_map(PolyInstance(GF2, 8), 8)
    h = Subspace.full(GF2, 8)
    with pytest.raises(ValueError, match="^sample budget -5 must be at least 0$"):
        greedy_tiling(m, unit_f(8), h, 2, Fraction(1, 4), sample_budget=-5)
    # Budget 0 tiles with the echelon basis of A_{F,i} alone.
    cert = greedy_tiling(m, unit_f(8), h, 2, Fraction(1, 4), sample_budget=0)
    assert cert.coverage == 8


# (q, dim F, i) -> (dim G, dim A, coverage, sha256 prefix of the JSON of G, A,
# the precondition report and the certificate), recorded before G and A were
# built as stacked kernels.
_PINNED_TILINGS = {
    (2, 1, 1): (8, 6, 6, "0bdb52923883b548"),
    (2, 1, 2): (6, 4, 4, "cfe5002dbf002e82"),
    (2, 1, 3): (5, 3, 3, "48e4aaf76d4f4e53"),
    (2, 2, 1): (8, 4, 6, "f9f4fc24f9ce747b"),
    (2, 2, 2): (6, 1, 2, "1f307c0249b33312"),
    (2, 2, 3): (5, 1, 2, "9355133ab4498691"),
    (3, 1, 1): (8, 6, 6, "2176affce35a2e48"),
    (3, 1, 2): (6, 4, 4, "f644a597c1f20b03"),
    (3, 1, 3): (5, 3, 3, "3e0f6b8f48b56460"),
    (3, 2, 1): (8, 4, 6, "8e13ad4a0f573af3"),
    (3, 2, 2): (6, 1, 2, "f7222b2e1d3ca0d9"),
    (3, 2, 3): (5, 0, 0, "17ded3dd7cda582a"),
    (4, 1, 1): (8, 6, 6, "27f59c0b0157c96d"),
    (4, 1, 2): (6, 4, 4, "d5ae04e7635be6ae"),
    (4, 1, 3): (5, 3, 3, "d5f0298e0893faca"),
    (4, 2, 1): (8, 4, 6, "e734dfb3add65245"),
    (4, 2, 2): (6, 2, 4, "e248ec2421aa3881"),
    (4, 2, 3): (5, 1, 2, "a83d4d3a36a1dcde"),
    (9, 1, 1): (8, 6, 6, "ef1ffd8464f66a48"),
    (9, 1, 2): (6, 4, 4, "79e6ceaf4a12ab35"),
    (9, 1, 3): (5, 3, 3, "cc1e2772b9c1b2ec"),
    (9, 2, 1): (8, 4, 6, "f96464df029d514d"),
    (9, 2, 2): (6, 1, 2, "214a85e6ddeff01e"),
    (9, 2, 3): (5, 0, 0, "45153b41065847d0"),
}


@pytest.mark.parametrize("q, fdim, i", sorted(_PINNED_TILINGS))
def test_corrupted_map_tiling_is_pinned(q, fdim, i):
    field = {2: GF2, 3: FieldSpec(3), 4: FieldSpec(2, 2), 9: FieldSpec(3, 2)}[q]
    m = corrupted_map(poly_basis_map(PolyInstance(field, 8), 6))
    g = np.random.Generator(np.random.Philox(q))
    h = Subspace(field, 8, g.integers(0, q, size=(6, 8), dtype=np.uint64).astype(np.uint8))
    assert h.dim == 6
    eye = np.eye(6, dtype=np.uint8)
    f = FSubspaceData(list(eye[:fdim]), {0: eye[0]})
    good = good_subspace(m, i)
    a_space = candidate_space(m, f, h, i)
    report = precondition_check(m, f, h, i, Fraction(1, 4))
    cert = greedy_tiling(m, f, h, i, Fraction(1, 4), seed=0, sample_budget=16)
    blob = json.dumps({"G": good.to_json(), "A": a_space.to_json(), "report": report.to_json(),
                       "cert": cert.to_json()}, sort_keys=True)
    digest = hashlib.sha256(blob.encode()).hexdigest()[:16]
    assert (good.dim, a_space.dim, cert.coverage, digest) == _PINNED_TILINGS[(q, fdim, i)]


def _counting(monkeypatch, cls, name, calls):
    original = getattr(cls, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)
    monkeypatch.setattr(cls, name, counted)


def test_greedy_tiling_image_calls_do_not_grow_with_budget(monkeypatch):
    # The orbits of all candidates come from one stacked product, so the
    # map's image primitive runs a fixed number of times however many
    # samples are drawn.
    m = poly_basis_map(PolyInstance(GF2, 16), 16)
    eye = np.eye(16, dtype=np.uint8)
    f = FSubspaceData([eye[0], eye[1]], {0: eye[0]})
    h = Subspace.full(GF2, 16)
    counts = []
    for budget in (8, 64):
        calls = []
        _counting(monkeypatch, FiniteApproxMap, "image", calls)
        greedy_tiling(m, f, h, 4, Fraction(1, 4), seed=0, sample_budget=budget)
        monkeypatch.undo()
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_greedy_tiling_never_tests_containment(monkeypatch):
    # Candidates lie in A_{F,i}, whose orbits lie in G and H by construction.
    m = corrupted_map(poly_basis_map(PolyInstance(GF2, 8), 6))
    eye = np.eye(6, dtype=np.uint8)
    f = FSubspaceData([eye[0], eye[1]], {0: eye[0]})
    h = Subspace(GF2, 8, np.eye(8, dtype=np.uint8)[:6])
    calls = []
    _counting(monkeypatch, Subspace, "contains", calls)
    cert = greedy_tiling(m, f, h, 1, Fraction(1, 4), seed=0, sample_budget=16)
    assert cert.centers and calls == []


@pytest.mark.parametrize("fdim", [1, 2])
def test_greedy_tiling_stops_when_full(monkeypatch, fdim):
    # Every orbit lies in H, so once the tiles leave less than dim F of H
    # uncovered no later candidate is tried.
    m = poly_basis_map(PolyInstance(GF2, 16), 16)
    eye = np.eye(16, dtype=np.uint8)
    f = FSubspaceData(list(eye[:fdim]), {0: eye[0]})
    h = Subspace.full(GF2, 16)
    full_sums = []
    summed = SpanAccumulator.try_add

    def counted(self, rows):
        if self.dim + fdim > h.dim:
            full_sums.append(self.dim)
        return summed(self, rows)
    monkeypatch.setattr(SpanAccumulator, "try_add", counted)
    cert = greedy_tiling(m, f, h, 4, Fraction(1, 4), seed=0, sample_budget=64)
    assert cert.coverage > 16 - fdim and full_sums == []


@pytest.mark.parametrize("q, fdim, i", sorted(_PINNED_TILINGS))
def test_corrupted_map_centers_meet_every_condition(q, fdim, i):
    field = {2: GF2, 3: FieldSpec(3), 4: FieldSpec(2, 2), 9: FieldSpec(3, 2)}[q]
    m = corrupted_map(poly_basis_map(PolyInstance(field, 8), 6))
    g = np.random.Generator(np.random.Philox(q))
    h = Subspace(field, 8, g.integers(0, q, size=(6, 8), dtype=np.uint64).astype(np.uint8))
    eye = np.eye(6, dtype=np.uint8)
    f = FSubspaceData(list(eye[:fdim]), {0: eye[0]})
    good = good_subspace(m, i)
    cert = greedy_tiling(m, f, h, i, Fraction(1, 4), seed=0, sample_budget=16)
    for x, tile in zip(cert.centers, cert.tiles):
        assert is_center(m, f, h, i, x, good=good)
        assert tile == Subspace(field, 8, [m.phi_of(c).apply(x) for c in f.basis])
    assert subspaces_independent(cert.tiles)


@pytest.mark.parametrize("field", [GF2, FieldSpec(3), FieldSpec(2, 2), FieldSpec(3, 2)])
def test_verifier_rejects_a_tampered_middle_center(field):
    # F = span{1} on the exact truncation map: G is everything, A = H, and
    # each tile is the line through its center.
    m = poly_basis_map(PolyInstance(field, 8), 8)
    f = unit_f(8)
    eye = np.eye(8, dtype=np.uint8)
    h = Subspace(field, 8, eye[:6])
    delta = Fraction(1, 2)
    cert = greedy_tiling(m, f, h, 2, delta, seed=0, sample_budget=4)
    assert len(cert.centers) == 6 and verify_certificate(cert, m, f, h, 2, delta)
    mid = len(cert.centers) // 2

    def with_middle(center, tile):
        centers, tiles = list(cert.centers), list(cert.tiles)
        centers[mid], tiles[mid] = center, tile
        return TilingCertificate(cert.i, cert.delta, cert.dim_f, centers, tiles,
                                 cert.h_basis, cert.coverage, cert.partial)

    # A line independent of the other tiles, but not the middle center's orbit.
    line = Subspace(field, 8, matmul_data(field, np.ones((1, 2), dtype=np.uint8),
                                          np.array([cert.centers[mid], cert.centers[0]])))
    assert subspaces_independent(cert.tiles[:mid] + [line] + cert.tiles[mid + 1:])
    assert not verify_certificate(with_middle(cert.centers[mid], line), m, f, h, 2, delta)
    # A center outside H whose tile is its own orbit and independent of the rest.
    outside = eye[7]
    assert not h.contains_vector(outside)
    tampered = with_middle(outside, Subspace(field, 8, outside[None, :]))
    assert subspaces_independent(tampered.tiles)
    assert not verify_certificate(tampered, m, f, h, 2, delta)


def test_h_over_another_field_is_rejected():
    m = poly_basis_map(PolyInstance(GF2, 8), 8)
    f = unit_f(8)
    cert = greedy_tiling(m, f, Subspace.full(GF2, 8), 2, Fraction(1, 4), sample_budget=4)
    h3 = Subspace.full(FieldSpec(3), 8)
    with pytest.raises(AmbientMismatchError):
        is_center(m, f, h3, 2, np.eye(8, dtype=np.uint8)[1])
    with pytest.raises(AmbientMismatchError):
        greedy_tiling(m, f, h3, 2, Fraction(1, 4), sample_budget=4)
    with pytest.raises(AmbientMismatchError):
        verify_certificate(cert, m, f, h3, 2, Fraction(1, 4))
