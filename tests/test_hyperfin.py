import hashlib
import io
import json
from fractions import Fraction

import numpy as np
import pytest

from linrep import cli, hyperfin, matrix, repseq, subspace
from linrep.field import GF2, FieldSpec
from linrep.hyperfin import (HyperfiniteWitness, cheeger_exact, cheeger_random,
                             epsilon_for_delta, expander_check, grow,
                             witness_check, witness_from_tiling, witness_search)
from linrep.matrix import DenseMatrix, matmul_data, random_invertible
from linrep.repseq import (FamilyDescriptor, Representation, family_generate,
                           repair_to_invertible)
from linrep.soficam import PolyInstance, poly_basis_map
from linrep.subspace import BudgetExceededError, Subspace, enumerate_subspaces
from linrep.tiling import FSubspaceData, greedy_tiling


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def block_rep(field, sizes, r=2, seed=0):
    """Block-diagonal representation with a random invertible block per size."""
    g = rng(seed)
    n = sum(sizes)
    gens = []
    for _ in range(r):
        data = np.zeros((n, n), dtype=np.uint8)
        off = 0
        for s in sizes:
            data[off:off + s, off:off + s] = random_invertible(field, g, s).data
            off += s
        gens.append(DenseMatrix(field, data))
    return Representation(field, gens)


def test_grow_contains_and_is_invariant_on_fixed_points():
    g = rng(1)
    rep = Representation(GF2, [random_invertible(GF2, g, 5) for _ in range(2)])
    w = Subspace(GF2, 5, g.integers(0, 2, size=(2, 5)).astype(np.uint8))
    gw = grow(rep, w)
    assert gw.contains(w)
    for gen in rep.generators:
        image = matmul_data(GF2, w.basis, gen.data.T)      # rows: gen applied to w's basis
        assert gw.contains(Subspace(GF2, 5, image))
    full = Subspace.full(GF2, 5)
    assert grow(rep, full) == full


def test_witness_check_accepts_block_decomposition():
    rep = block_rep(GF2, [3, 3, 2], seed=2)
    tiles = []
    off = 0
    for s in (3, 3, 2):
        rows = np.zeros((s, 8), dtype=np.uint8)
        for i in range(s):
            rows[i, off + i] = 1
        tiles.append(Subspace(GF2, 8, rows))
        off += s
    w = HyperfiniteWitness(Fraction(1, 10), 3, tiles)
    assert witness_check(rep, w)


def test_witness_check_rejects_each_violated_condition():
    rep = block_rep(GF2, [3, 3, 2], seed=2)
    eye = np.eye(8, dtype=np.uint8)
    blocks = [Subspace(GF2, 8, eye[0:3]), Subspace(GF2, 8, eye[3:6]),
              Subspace(GF2, 8, eye[6:8])]
    # Oversized tile bound violation.
    w = HyperfiniteWitness(Fraction(1, 10), 2, blocks)
    assert not witness_check(rep, w)
    # Dependent tiles.
    w = HyperfiniteWitness(Fraction(1, 10), 3, blocks + [blocks[0]])
    assert not witness_check(rep, w)
    # Undercoverage.
    w = HyperfiniteWitness(Fraction(1, 10), 3, blocks[:1])
    assert not witness_check(rep, w)
    # Zero-dimensional tile.
    w = HyperfiniteWitness(Fraction(1, 10), 3, blocks + [Subspace(GF2, 8)])
    assert not witness_check(rep, w)
    # Growth violation: a non-invariant line under a generic rep blows past
    # (1 + eps) with eps tiny.
    g = rng(3)
    generic = Representation(GF2, [random_invertible(GF2, g, 8) for _ in range(2)])
    line = Subspace(GF2, 8, eye[0:1])
    if grow(generic, line).dim > 1:
        w = HyperfiniteWitness(Fraction(1, 100), 8,
                               [Subspace(GF2, 8, eye[i:i + 1]) for i in range(8)])
        assert not witness_check(generic, w)


def test_witness_growth_inequality_is_strict():
    # A tile growing by exactly (1 + eps) must be rejected.
    shift = DenseMatrix(GF2, [[0, 0, 0, 1], [1, 0, 0, 0],
                              [0, 1, 0, 0], [0, 0, 1, 0]])
    rep = Representation(GF2, [shift])
    eye = np.eye(4, dtype=np.uint8)
    line = Subspace(GF2, 4, eye[0:1])  # grows to dim 2 = (1 + 1) * 1
    w = HyperfiniteWitness(Fraction(1), 4, [line, Subspace(GF2, 4, eye[2:3])])
    assert not witness_check(rep, w)


def test_cheeger_exact_matches_enumeration_oracle():
    g = rng(4)
    rep = Representation(GF2, [random_invertible(GF2, g, 4) for _ in range(2)])
    report = cheeger_exact(rep)
    ratios = []
    for d in (1, 2):
        for w in enumerate_subspaces(GF2, 4, d):
            ratios.append(Fraction(grow(rep, w).dim, w.dim))
    assert report.min_ratio == min(ratios)
    assert report.exact and report.samples == len(ratios)
    # The reported witness subspace achieves the minimum.
    ws = report.witness_subspace
    assert Fraction(grow(rep, ws).dim, ws.dim) == report.min_ratio


def test_cheeger_random_upper_bounds_exact():
    g = rng(5)
    for seed in range(5):
        rep = Representation(GF2, [random_invertible(GF2, g, 4) for _ in range(2)])
        ex = cheeger_exact(rep)
        rn = cheeger_random(rep, 500, seed=seed)
        assert rn.min_ratio >= ex.min_ratio
        assert not rn.exact


# (q, block sizes, seed) -> (min_ratio, witness dim, sha256 prefix of the report JSON)
# for cheeger_random(block_rep(GF(q), sizes, seed=q), 60, seed).
_PINNED_CHEEGER = {
    (2, (2, 4), 0): ("4/3", 3, "449fcde5f99766ba"),
    (2, (2, 4), 1): ("4/3", 3, "c33ed273c69c7a0e"),
    (2, (2, 4), 2): ("4/3", 3, "cc247577054d6965"),
    (2, (6,), 0): ("5/3", 3, "7538275a00ac3505"),
    (2, (6,), 1): ("5/3", 3, "8b7d3042ca4c5620"),
    (2, (6,), 2): ("5/3", 3, "22fd77602d8646fe"),
    (3, (2, 4), 0): ("4/3", 3, "449fcde5f99766ba"),
    (3, (2, 4), 1): ("2", 2, "fdf23369f72c7c64"),
    (3, (2, 4), 2): ("2", 1, "6a05b655ef318773"),
    (3, (6,), 0): ("5/3", 3, "82b7438a592385e0"),
    (3, (6,), 1): ("2", 3, "4921d359f7250476"),
    (3, (6,), 2): ("5/3", 3, "a47b151d7b3533cf"),
    (4, (2, 4), 0): ("2", 3, "80a4cd1c8028a891"),
    (4, (2, 4), 1): ("2", 3, "f8e4e90930ab9cf1"),
    (4, (2, 4), 2): ("2", 3, "f4de274a8f36bffc"),
    (4, (6,), 0): ("2", 3, "80a4cd1c8028a891"),
    (4, (6,), 1): ("2", 3, "f8e4e90930ab9cf1"),
    (4, (6,), 2): ("2", 3, "f4de274a8f36bffc"),
    (9, (2, 4), 0): ("2", 3, "6b83f69644b1cbc2"),
    (9, (2, 4), 1): ("2", 3, "01bae241e4f4b314"),
    (9, (2, 4), 2): ("2", 3, "742ade6171dd6f62"),
    (9, (6,), 0): ("2", 3, "6b83f69644b1cbc2"),
    (9, (6,), 1): ("2", 3, "01bae241e4f4b314"),
    (9, (6,), 2): ("2", 3, "742ade6171dd6f62"),
}


@pytest.mark.parametrize("q, sizes", sorted({key[:2] for key in _PINNED_CHEEGER}))
def test_cheeger_random_is_pinned(q, sizes):
    field = {2: GF2, 3: FieldSpec(3), 4: FieldSpec(2, 2), 9: FieldSpec(3, 2)}[q]
    rep = block_rep(field, list(sizes), seed=q)
    for seed in range(3):
        report = cheeger_random(rep, 60, seed=seed)
        blob = json.dumps(report.to_json(), sort_keys=True)
        digest = hashlib.sha256(blob.encode()).hexdigest()[:16]
        assert (str(report.min_ratio), report.witness_subspace.dim, digest) == \
            _PINNED_CHEEGER[(q, sizes, seed)]


# (q, block sizes, cheeger options) -> sha256 prefix of `cheeger --rep` stdout
# for block_rep(GF(q), sizes, seed=q), recorded when every ratio was read off a
# canonical Subspace of grow(rep, W).  The exact runs enumerate 50, 170 and 442
# subspaces; with --trials 1 --seed 0 the one sample is zero, so the report is
# cheeger_random's coordinate-line fallback.
_PINNED_CHEEGER_STDOUT = {
    (2, (4,), ()): "3e96fc4181d048a1",
    (2, (1, 3), ()): "90aba3529a224294",
    (2, (2, 2), ()): "07ed40b1559d9f79",
    (3, (4,), ()): "4bd004fe3e14f6b4",
    (3, (1, 3), ()): "6a77e86a9168a1e9",
    (3, (2, 2), ()): "ce8acbd6330a52b2",
    (4, (4,), ()): "2ac7f8a5df69e468",
    (4, (1, 3), ()): "fcbc5f218a80692a",
    (4, (2, 2), ()): "67a3654953a26019",
    (2, (2,), ("--trials", "1", "--seed", "0")): "20093a49815ae42f",
    (3, (2,), ("--trials", "1", "--seed", "0")): "20093a49815ae42f",
    (4, (2,), ("--trials", "1", "--seed", "0")): "20093a49815ae42f",
}


@pytest.mark.parametrize("q, sizes, extra", sorted(_PINNED_CHEEGER_STDOUT))
def test_cheeger_stdout_is_pinned(tmp_path, q, sizes, extra):
    field = {2: GF2, 3: FieldSpec(3), 4: FieldSpec(2, 2)}[q]
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(block_rep(field, list(sizes), seed=q).to_json()))
    out = io.StringIO()
    assert cli.main(["cheeger", "--rep", str(path), *extra], out) == 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
    assert digest == _PINNED_CHEEGER_STDOUT[(q, sizes, extra)]


def test_planted_invariant_line_gives_ratio_one():
    rep = block_rep(GF2, [1, 3], seed=6)
    assert cheeger_exact(rep).min_ratio == 1


def test_cheeger_budget_exceeded():
    g = rng(7)
    rep = Representation(GF2, [random_invertible(GF2, g, 10)])
    with pytest.raises(BudgetExceededError):
        cheeger_exact(rep, cap=100)


def test_expander_check_thresholds():
    g = rng(8)
    rep = Representation(GF2, [random_invertible(GF2, g, 4) for _ in range(2)])
    c = cheeger_exact(rep).min_ratio
    if c > 1:
        assert expander_check(rep, c - 1)
    assert not expander_check(rep, c)  # strict margin fails: needs >= 1 + alpha


def _closed(dims):
    """A chain with dims as _chain returns them ends in an invariant member."""
    return len(dims) > 1 and dims[-1] == dims[-2]


def test_orbit_closure_finds_block():
    # witness_search takes an invariant tile from the chain span(v) <
    # grow(span(v)) < ... when it closes within the dimension bound.
    rep = block_rep(GF2, [3, 4], seed=9)
    eye = np.eye(7, dtype=np.uint8)
    rows, dims = hyperfin._chain(rep, eye[0], 3)
    s = Subspace(GF2, 7, rows[:dims[-2]])
    assert _closed(dims) and s.dim == dims[-2] <= 3
    assert grow(rep, s) == s
    # Each prefix of the rows spans its member, grown from the one before.
    for d, grown in zip(dims, dims[1:]):
        assert grow(rep, Subspace(GF2, 7, rows[:d])) == Subspace(GF2, 7, rows[:grown])
    rows, dims = hyperfin._chain(rep, eye[0], 0)
    assert dims == [1] and not _closed(dims)     # no member: span(v) is above the bound


def test_witness_search_on_block_fixture():
    sizes = [3, 5, 2, 4, 2]
    rep = block_rep(GF2, sizes, seed=10)
    w = witness_search(rep, Fraction(1, 10), 5, budget=500, seed=0)
    assert w is not None
    assert witness_check(rep, w)
    assert sum(t.dim for t in w.subspaces) >= Fraction(9, 10) * rep.n


_FALLBACK_TILES = {
    2: [[[1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 1, 0, 1], [0, 0, 1, 0, 1, 1, 1, 0]],
        [[0, 0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 1, 0, 0], [0, 0, 0, 0, 1, 1, 0, 1]]],
    3: [[[1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 2, 2, 1, 2], [0, 0, 1, 0, 2, 0, 1, 1]],
        [[1, 0, 2, 0, 2, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0], [0, 0, 0, 1, 1, 0, 1, 2]]],
}


@pytest.mark.parametrize("q", sorted(_FALLBACK_TILES))
def test_witness_search_almost_invariant_fallback_is_pinned(q):
    # No seed vector has an invariant closure of dimension <= 3 here, so
    # every tile comes from the almost-invariant fallback (span(v), grow(span(v)), ...).
    rep = family_generate(FamilyDescriptor.random_invertible(0, 1), 8, FieldSpec(q))
    assert not any(_closed(hyperfin._chain(rep, v, 3)[1]) for v in np.eye(8, dtype=np.uint8))
    w = witness_search(rep, Fraction(1, 2), 3, budget=60)
    assert w is not None
    assert w.to_json() == {"epsilon": {"num": 1, "den": 2}, "K": 3, "tiles": _FALLBACK_TILES[q]}


# The cyclic family (r = 2, generators a shift and the identity) at
# epsilon = 1/4 and budget 2k: (tiles, digest of the witness JSON) at K = 8.
# A tile of dimension d grows to d + 1 < (5/4) d only for d >= 5, so K = 4
# finds none.  The witness is the same over every field.
_CYCLIC_WITNESS = {32: (5, "f117c7d311e20a33"), 64: (10, "e4770c9ee459e8d0"),
                   128: (20, "68c272e8c8b44361"), 256: (39, "fdeed6f91ee8fc81")}


@pytest.mark.parametrize("field", [GF2, FieldSpec(3), FieldSpec(2, 2)])
@pytest.mark.parametrize("k", sorted(_CYCLIC_WITNESS))
def test_cyclic_family_witness_is_pinned(field, k):
    rep = family_generate(FamilyDescriptor.cyclic_regular(2), k, field)
    w = witness_search(rep, Fraction(1, 4), 8, budget=2 * k)
    digest = hashlib.sha256(json.dumps(w.to_json(), sort_keys=True).encode()).hexdigest()[:16]
    assert (len(w.subspaces), digest) == _CYCLIC_WITNESS[k]
    assert witness_check(rep, w)
    assert witness_search(rep, Fraction(1, 4), 4, budget=2 * k) is None


@pytest.mark.parametrize("field", [GF2, FieldSpec(3), FieldSpec(2, 2)])
def test_search_products_past_the_guard_multiply_within_one_block(field, monkeypatch):
    # A spin from a coordinate vector stays inside its block, so every
    # product past matrix._LIVE_MACS (generator images, span residuals and
    # basis updates) runs over at most one block's columns, not all n.
    sizes = [3, 4, 5, 6] * 6
    rep = block_rep(field, sizes, seed=7)
    assert rep.n >= 96
    inner = matrix.matmul_data
    shapes = []

    def counted(field, a, b):
        shapes.append((len(a), a.shape[1], b.shape[1]))
        return inner(field, a, b)
    for module in (matrix, repseq, subspace):
        monkeypatch.setattr(module, "matmul_data", counted)
    w = witness_search(rep, Fraction(1, 10), max(sizes), budget=rep.n + 16)
    assert w is not None and witness_check(rep, w)
    guard = matrix._LIVE_MACS
    # Products that would pass the guard over all n columns were made...
    assert any(m * rep.n * cols > guard for m, _, cols in shapes)
    # ...and none that passes it runs over more than one block.
    assert all(k <= max(sizes) for m, k, cols in shapes if m * k * cols > guard)


def test_witness_search_raises_when_its_witness_fails_the_check(monkeypatch):
    rep = block_rep(GF2, [2, 2], seed=12)
    monkeypatch.setattr(hyperfin, "witness_check", lambda rep, w: False)
    with pytest.raises(RuntimeError):
        witness_search(rep, Fraction(1, 10), 2, budget=100, seed=0)


def test_witness_search_budget_below_zero_is_rejected():
    rep = block_rep(GF2, [2, 2], seed=12)
    with pytest.raises(ValueError, match="^budget -1 must be at least 0$"):
        witness_search(rep, Fraction(1, 10), 2, budget=-1)
    assert witness_search(rep, Fraction(1, 10), 2, budget=0) is None


def test_witness_search_returns_none_when_hopeless():
    # An expander-ish generic rep has no small almost-invariant tiles.
    g = rng(11)
    rep = Representation(GF2, [random_invertible(GF2, g, 6) for _ in range(2)])
    if cheeger_exact(rep).min_ratio > Fraction(11, 10):
        assert witness_search(rep, Fraction(1, 10), 2, budget=50, seed=0) is None


def test_epsilon_for_delta_satisfies_both_inequalities():
    for num, den in ((1, 4), (1, 10), (3, 7), (49, 100)):
        delta = Fraction(num, den)
        eps = epsilon_for_delta(delta)
        assert eps < 1
        assert (1 - delta) ** 2 > 1 - eps
        assert 1 / (1 - delta) <= 1 + eps


@pytest.mark.parametrize("delta", [Fraction(1, 2), Fraction(7, 10), Fraction(0), Fraction(1)],
                         ids=["1/2", "7/10", "0", "1"])
def test_epsilon_for_delta_rejects_what_no_witness_meets(delta):
    # From delta = 1/2 on, the inequalities need eps >= 1 (6/5 at 1/2), which
    # makes the witness coverage bound vacuous.
    with pytest.raises(ValueError, match="strictly between 0 and 1"):
        epsilon_for_delta(delta)


def test_witness_from_tiling_pipeline():
    inst = PolyInstance(GF2, 16)
    m = poly_basis_map(inst, 16)
    eye = np.eye(16, dtype=np.uint8)
    f = FSubspaceData([eye[j] for j in range(4)], {0: eye[0]})
    h = Subspace.full(GF2, 16)
    cert = greedy_tiling(m, f, h, 4, Fraction(1, 4), seed=0)
    rep = Representation(GF2, [repair_to_invertible(m.phi[1])])
    w = witness_from_tiling(rep, m, cert, [eye[j] for j in range(4)],
                            [eye[j] for j in range(3)], Fraction(1, 2))
    assert witness_check(rep, w)
    with pytest.raises(ValueError):
        witness_from_tiling(rep, m, cert, [eye[0]], [eye[5]], Fraction(1, 2))
    with pytest.raises(ValueError, match="strictly between 0 and 1"):
        witness_from_tiling(rep, m, cert, [eye[j] for j in range(4)],
                            [eye[j] for j in range(3)], Fraction(6, 5))


def test_witness_from_tiling_takes_f1_without_the_unit():
    # V_x = phi(F_1)(x) is read off one stacked product; F_1 = span{x, x^2}
    # gives the same tiles as applying phi(x) and phi(x^2) to each center.
    m = poly_basis_map(PolyInstance(GF2, 16), 16)
    eye = np.eye(16, dtype=np.uint8)
    f = FSubspaceData([eye[j] for j in range(4)], {0: eye[0]})
    cert = greedy_tiling(m, f, Subspace.full(GF2, 16), 4, Fraction(1, 4), seed=0)
    rep = Representation(GF2, [repair_to_invertible(m.phi[1])])
    w = witness_from_tiling(rep, m, cert, [eye[j] for j in range(4)], [eye[1], eye[2]],
                            Fraction(1, 2))
    assert cert.centers and len(w.subspaces) == len(cert.centers)
    for x, tile in zip(cert.centers, w.subspaces):
        assert tile == Subspace(GF2, 16, np.array([m.phi[j].apply(x) for j in (1, 2)]))


def test_witness_json_round_trip():
    rep = block_rep(GF2, [2, 2], seed=12)
    w = witness_search(rep, Fraction(1, 10), 2, budget=100, seed=0)
    assert w is not None
    rt = HyperfiniteWitness.from_json(GF2, 4, w.to_json())
    assert rt.epsilon == w.epsilon and rt.subspaces == w.subspaces
    assert witness_check(rep, rt)
