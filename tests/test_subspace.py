import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linrep import matrix, subspace
from linrep.field import GF2, FieldSpec
from linrep.matrix import DenseMatrix, SpanAccumulator, matmul_data, rref_array
from linrep.subspace import (AmbientMismatchError, Subspace, enumerate_subspaces,
                             gaussian_binomial, projection_onto, subspaces_independent)

F3 = FieldSpec(3)


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def random_subspace(field, g, n, rows):
    return Subspace(field, n, g.integers(0, field.q, size=(rows, n),
                                         dtype=np.uint64).astype(np.uint8))


def span_sum(*spaces):
    """U + W + ... through one SpanAccumulator: its dim and a canonical Subspace
    of the rows that extend returned."""
    acc = SpanAccumulator(spaces[0].field, spaces[0].ambient)
    added = np.concatenate([acc.extend(s.basis) for s in spaces])
    return acc.dim, Subspace(spaces[0].field, spaces[0].ambient, added)


def test_canonical_equality_ignores_basis_choice():
    a = Subspace(GF2, 3, np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8))
    b = Subspace(GF2, 3, np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8))
    assert a == b and hash(a) == hash(b)


def test_intersection_matches_brute_force():
    g = rng(1)
    for field in (GF2, F3, FieldSpec(2, 2), FieldSpec(3, 2)):
        pairs = [(random_subspace(field, g, 4, 2), random_subspace(field, g, 4, 2))
                 for _ in range(25)]
        zero, full = Subspace(field, 4), Subspace.full(field, 4)
        pairs += [(zero, full), (full, zero), (full, full), (zero, zero),
                  (pairs[0][0], full), (zero, pairs[0][1])]
        for u, w in pairs:
            # Dimension formula: dim(U + W) = dim U + dim W - dim(U meet W).
            brute = [v for v in u.vectors() if w.contains_vector(v)]
            assert field.q ** (u.dim + w.dim - span_sum(u, w)[0]) == len(brute)


def test_kernel_of_drops_zero_rows():
    g = rng(6)
    for field in (GF2, F3, FieldSpec(2, 2), FieldSpec(3, 2)):
        assert Subspace.kernel_of(field, 5, np.zeros((0, 5))) == Subspace.full(field, 5)
        assert Subspace.kernel_of(field, 5, np.zeros((3, 5))) == Subspace.full(field, 5)
        assert Subspace.kernel_of(field, 5, np.eye(5)) == Subspace(field, 5)
        rows = g.integers(0, field.q, size=(2, 5), dtype=np.uint64).astype(np.uint8)
        ker = Subspace.kernel_of(field, 5, np.concatenate([rows, np.zeros((2, 5), np.uint8)]))
        brute = [v for v in Subspace.full(field, 5).vectors()
                 if not np.any(matmul_data(field, rows, v[:, None]))]
        assert field.q ** ker.dim == len(brute)
        assert all(ker.contains_vector(v) for v in brute)
        annihilated = matmul_data(field, ker.annihilator(), ker.basis.T)
        assert not np.any(annihilated) and len(ker.annihilator()) == 5 - ker.dim


def _count_rref(monkeypatch):
    """Count rref_array calls made through subspace.py and matrix.py."""
    calls = []

    def counted(field, data):
        calls.append(data.shape)
        return rref_array(field, data)

    for module in (matrix, subspace):
        monkeypatch.setattr(module, "rref_array", counted)
    return calls


@pytest.mark.parametrize("field", [GF2, F3, FieldSpec(2, 2), FieldSpec(3, 2), FieldSpec(251)])
def test_kernel_of_is_one_elimination_and_canonical(field, monkeypatch):
    g = rng(8)
    stacks = [np.zeros((3, 6)), np.eye(6), np.eye(6)[:, ::-1], np.eye(6)[[0, 2, 5]]]
    for k in (1, 3, 5, 6, 8):
        rows = g.integers(0, field.q, size=(k, 6), dtype=np.uint64).astype(np.uint8)
        rows[:, 1] = 0
        stacks += [rows, np.concatenate([rows, rows[:2]])]           # rank-deficient
        stacks.append(g.integers(0, field.q, size=(k, 6), dtype=np.uint64).astype(np.uint8))
    for rows in stacks:
        rows = np.asarray(rows, dtype=np.uint8)
        # The reference: a second elimination of the null space rows.
        expected = Subspace(field, 6, DenseMatrix(field, rows).kernel())
        calls = _count_rref(monkeypatch)
        ker = Subspace.kernel_of(field, 6, rows)
        assert len(calls) == 1
        monkeypatch.undo()
        assert ker == expected and ker.pivots == expected.pivots
        assert not np.any(matmul_data(field, rows, ker.basis.T))


def test_containment_and_lattice_bounds():
    g = rng(2)
    for _ in range(20):
        u = random_subspace(GF2, g, 5, 2)
        w = random_subspace(GF2, g, 5, 3)
        joined = span_sum(u, w)[1]
        assert joined.contains(u) and joined.contains(w)


def test_complement_is_complementary():
    g = rng(3)
    for field in (GF2, F3):
        for _ in range(20):
            u = random_subspace(field, g, 6, 3)
            c = u.complement()
            assert u.dim + c.dim == 6
            assert subspaces_independent([u, c])


def test_ambient_mismatch_raises():
    u = Subspace.full(GF2, 3)
    w = Subspace.full(GF2, 4)
    with pytest.raises(AmbientMismatchError):
        u.contains(w)
    with pytest.raises(AmbientMismatchError):
        Subspace.full(GF2, 3).contains(Subspace.full(F3, 3))
    acc = SpanAccumulator(GF2, 3)
    for bad in (w.basis, np.zeros(3, np.uint8)):
        with pytest.raises(ValueError, match="^expected rows of length 3$"):
            acc.extend(bad)
        with pytest.raises(ValueError, match="^expected rows of length 3$"):
            acc.try_add(bad)
    with pytest.raises(ValueError, match="^expected rows of length 3$"):
        acc.contains(np.zeros(4, np.uint8))


@st.composite
def space_pairs(draw):
    """(U, W, v) over one of five fields; W and v are often drawn inside U."""
    field = draw(st.sampled_from([GF2, F3, FieldSpec(2, 2), FieldSpec(3, 2), FieldSpec(2, 8)]))
    n = draw(st.integers(1, 6))

    def rows(k, width=n):
        cells = draw(st.lists(st.integers(0, field.q - 1), min_size=k * width,
                              max_size=k * width))
        return np.array(cells, dtype=np.uint8).reshape(k, width)

    def inside(u, k):
        return matmul_data(field, rows(k, u.dim), u.basis) if u.dim else np.zeros((k, n), np.uint8)

    def space(kinds, u=None):
        kind = draw(st.sampled_from(kinds))
        if kind == "zero":
            return Subspace(field, n)
        if kind == "full":
            return Subspace.full(field, n)
        k = draw(st.integers(1, n + 1))
        return Subspace(field, n, inside(u, k) if kind == "inside" else rows(k))

    u = space(["zero", "full", "rows"])
    w = space(["zero", "full", "rows", "inside"], u)
    v = inside(u, 1)[0] if draw(st.booleans()) else rows(1)[0]
    return u, w, v


@settings(max_examples=300, deadline=None)
@given(space_pairs())
def test_residual_membership_and_sum_match_re_elimination(pair):
    u, w, v = pair
    field, n = u.field, u.ambient

    def rank(*blocks):
        return len(rref_array(field, np.concatenate(blocks, axis=0))[1])

    assert u.contains_vector(v) == (rank(u.basis, v[None, :]) == u.dim)
    assert u.contains(w) == (rank(u.basis, w.basis) == u.dim)
    joined = Subspace(field, n, np.concatenate([u.basis, w.basis], axis=0))
    assert span_sum(u, w) == (joined.dim, joined)
    res = u.residual(np.concatenate([w.basis, v[None, :]], axis=0))
    assert not np.any(res[:, list(u.pivots)])
    for bad in (np.zeros((1, n + 1), np.uint8), np.zeros(2 * n, np.uint8)):
        with pytest.raises(AmbientMismatchError):
            u.residual(bad)
    with pytest.raises(AmbientMismatchError):
        u.contains_vector(np.zeros(2 * n, np.uint8))


@pytest.mark.parametrize("n", [1, 7, 40])
@pytest.mark.parametrize("field", [GF2, F3, FieldSpec(251), FieldSpec(2, 2), FieldSpec(3, 2)],
                         ids=["2", "3", "251", "2^2", "3^2"])
def test_span_accumulator_matches_re_elimination(field, n):
    # Seeded batches: fresh random rows, rows inside the span, fresh rows
    # with a combination of themselves or of the span appended, a zero row
    # and no row.  Each step extends or tries to add; a Subspace of every
    # row accepted so far is the reference.  The batch rows are probed
    # after the step, so a rejected try_add that kept any of them shows.
    g = rng(field.q * 100 + n)
    acc = SpanAccumulator(field, n)
    rows = np.zeros((0, n), np.uint8)

    def draw(k, width=n):
        return g.integers(0, field.q, size=(k, width), dtype=np.uint64).astype(np.uint8)

    def combos(k, of):
        return matmul_data(field, draw(k, len(of)), of) if len(of) else np.zeros((k, n), np.uint8)

    for _ in range(60):
        fresh = draw(int(g.integers(1, 4)))
        batch = [fresh, combos(2, rows), np.concatenate([fresh, combos(1, fresh)]),
                 np.concatenate([fresh, combos(1, rows)]), np.zeros((1, n), np.uint8),
                 fresh[:0]][int(g.integers(0, 6))]
        before = Subspace(field, n, rows)
        joined = Subspace(field, n, np.concatenate([rows, batch]))
        if g.integers(0, 2):
            added = acc.extend(batch)
            assert len(added) == joined.dim - before.dim
            assert Subspace(field, n, np.concatenate([rows, added])) == joined
            rows = np.concatenate([rows, batch])
        elif acc.try_add(batch):
            assert joined.dim == before.dim + len(batch)
            rows = np.concatenate([rows, batch])
        else:
            assert joined.dim < before.dim + len(batch)
        span = Subspace(field, n, rows)
        assert acc.dim == span.dim
        probes = np.concatenate([batch, draw(2), combos(2, rows)])
        assert [acc.contains(v) for v in probes] == [span.contains_vector(v) for v in probes]


@pytest.mark.parametrize("field,n", [(GF2, 4), (F3, 3)])
def test_enumeration_is_exact_and_duplicate_free(field, n):
    total = 0
    for d in range(n + 1):
        seen = set()
        for s in enumerate_subspaces(field, n, d):
            assert s.dim == d
            assert s not in seen
            seen.add(s)
        assert len(seen) == gaussian_binomial(n, d, field.q)
        total += len(seen)
    # Every subspace appears in exactly one dimension bucket; cross-check a
    # few random spans land somewhere in the enumeration.
    g = rng(4)
    for _ in range(10):
        s = random_subspace(field, g, n, 2)
        assert s in set(enumerate_subspaces(field, n, s.dim))


def test_gaussian_binomial_known_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(5, 0, 2) == 1
    assert gaussian_binomial(5, 6, 2) == 0


def test_projection_idempotent_image_kernel():
    g = rng(5)
    for field in (GF2, F3):
        for _ in range(20):
            u = random_subspace(field, g, 5, 2)
            c = u.complement()
            p = projection_onto(u, c)
            assert p @ p == p
            for row in u.basis:
                assert np.array_equal(p.apply(row), row)
            for row in c.basis:
                assert not np.any(p.apply(row))


def test_projection_is_one_elimination_and_rejects_non_complements(monkeypatch):
    g = rng(9)
    for field in (GF2, F3, FieldSpec(2, 2)):
        u = random_subspace(field, g, 5, 2)
        c = u.complement()
        calls = _count_rref(monkeypatch)
        # Over GF(2) an inverse is the forward pass of [A | I] and a back-clear
        # of its bit rows, with no rref_array call: count that pass.
        reduce_bits = matrix._reduce_bits
        monkeypatch.setattr(matrix, "_reduce_bits", lambda rows, basis:
                            calls.append(rows.shape) or reduce_bits(rows, basis))
        projection_onto(u, c)
        assert len(calls) == 1
        monkeypatch.undo()
        line = Subspace(field, 5, u.basis[:1])
        meets_u = Subspace(field, 5, np.concatenate([u.basis[:1], c.basis[:2]]))  # dim 3
        for v, w in ((u, meets_u), (meets_u, u), (u, u), (u, line), (line, c),
                     (Subspace.full(field, 5), c), (u, Subspace(field, 5))):
            with pytest.raises(ValueError, match="not complementary"):
                projection_onto(v, w)
