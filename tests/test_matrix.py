import numpy as np
import pytest

from linrep import matrix
from linrep.field import GF2, FieldSpec
from linrep.matrix import (DenseMatrix, SingularMatrixError, add_data, inverse_data,
                           matmul_data, matmul_live, random_invertible, random_matrix,
                           rank_data, rref_array, scale_data)
from linrep.repseq import Representation

F3 = FieldSpec(3)
F4 = FieldSpec(2, 2)
F9 = FieldSpec(3, 2)
F25 = FieldSpec(5, 2)
F251 = FieldSpec(251)
F256 = FieldSpec(2, 8)
# Every kernel family: GF(2), GF(p), GF(2^d) and odd GF(p^d).
KERNEL_FIELDS = [GF2, F3, F4, F9, F251, F256, F25]
# The benchmark's six fields.
BENCH_FIELDS = [GF2, F3, F251, F4, F9, F256]


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def test_known_rank_fixture():
    m = DenseMatrix(GF2, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert m.rank() == 2
    assert not m.is_invertible()


def test_rref_is_reduced_and_idempotent():
    g = rng(1)
    for field in (GF2, F3, F4):
        for _ in range(25):
            data = random_matrix(field, g, 5, 7).data
            R, piv = rref_array(field, data)
            assert R.dtype == np.uint8 and R.shape == data.shape and R.max() < field.q
            # Pivot columns are standard basis vectors of the row space.
            for i, pc in enumerate(piv):
                col = R[:, pc]
                assert col[i] == 1 and np.count_nonzero(col) == 1
            R2, piv2 = rref_array(field, R)
            assert np.array_equal(R2, R) and piv2 == piv


def scalar_matmul(field, a, b):
    want = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            s = 0
            for k in range(a.shape[1]):
                s = field.add(s, field.mul(int(a[i, k]), int(b[k, j])))
            want[i, j] = s
    return want


@pytest.mark.parametrize("field", KERNEL_FIELDS)
def test_matmul_matches_scalar_oracle(field):
    # 70 x 50 by 50 x 40 takes more than one characteristic-2 gather block.
    assert 70 * 50 * 40 > matrix._GATHER_TERMS
    g = rng(2)
    shapes = [(4, 3, 5)] * 10 + [(3, 0, 4), (0, 3, 4), (3, 4, 0), (2, 17, 3), (5, 20, 1),
                                 (3, 33, 2), (70, 50, 40)]
    for m, inner, n in shapes:
        a = random_matrix(field, g, m, inner)
        b = random_matrix(field, g, inner, n)
        want = scalar_matmul(field, a.data, b.data)
        assert np.array_equal((a @ b).data, want)
        for y in (b.data, np.ascontiguousarray(b.data.T).T):     # C-ordered and strided
            got = matmul_data(field, a.data, y)
            assert got.dtype == np.uint8 and np.array_equal(got, want)


@pytest.mark.parametrize("field", BENCH_FIELDS)
def test_matmul_live_matches_matmul_data(field, monkeypatch):
    # Left operands with zero columns, none live, all live and no rows, on
    # both sides of the guard: each product equals matmul_data's, and above
    # the guard matmul_data sees only the live columns of a and rows of b.
    g = rng(3)
    guard = matrix._LIVE_MACS
    inner = matrix.matmul_data
    seen = []

    def counted(field, a, b):
        seen.append(a.shape[1])
        return inner(field, a, b)
    monkeypatch.setattr(matrix, "matmul_data", counted)
    # (rows of a, inner, cols of b): 2 * 32 * 128 = guard, then past it.
    for m, k, n in [(2, 32, 128), (3, 32, 128), (1, 4, 8), (0, 64, 200), (9, 40, 90)]:
        b = random_matrix(field, g, k, n).data
        full = g.integers(1, field.q, size=(m, k), dtype=np.uint8)    # no zero entry
        for live in (np.arange(k), np.arange(0), np.array([1, 3]), np.arange(0, k, 3)):
            a = np.zeros_like(full)
            a[:, live] = full[:, live]
            a_before, b_before = a.copy(), b.copy()
            seen.clear()
            got = matmul_live(field, a, b)
            want = inner(field, a, b)
            assert got.dtype == np.uint8 and got.shape == (m, n)
            assert np.array_equal(got, want)
            assert np.array_equal(a, a_before) and np.array_equal(b, b_before)
            assert seen == [len(live) if m * b.size > guard else k], (m, k, n, len(live))
    for y in (b, np.ascontiguousarray(b.T).T):     # C-ordered and strided
        assert np.array_equal(matmul_live(field, a, y), inner(field, a, b))


def test_matmul_odd_extension_across_packing_chunks():
    # GF(3^5) packs five 12-bit digit fields per int64, so its products are
    # summed in chunks of 204 inner terms; these cross one or more chunks.
    field = FieldSpec(3, 5)
    g = rng(9)
    for inner in (204, 205, 1300):
        a = random_matrix(field, g, 2, inner).data
        b = random_matrix(field, g, inner, 2).data
        for x, y in ((a, b), (np.full_like(a, field.q - 1), b)):
            assert np.array_equal(matmul_data(field, x, y), scalar_matmul(field, x, y))


def gauss_jordan_oracle(field, data):
    """rref_array's contract in scalar FieldSpec arithmetic: the pivot is the
    first nonzero entry at or below the current row, swapped up, scaled to 1
    and cleared from every other row."""
    m, n = data.shape
    R = data.astype(int).tolist()
    pivots, row = [], 0
    for col in range(n):
        pr = next((i for i in range(row, m) if R[i][col]), None)
        if pr is None:
            continue
        R[row], R[pr] = R[pr], R[row]
        inv = field.inv(R[row][col])
        R[row] = [field.mul(inv, x) for x in R[row]]
        for i in range(m):
            f = R[i][col]
            if i != row and f:
                R[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(R[i], R[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    return np.array(R, dtype=np.uint8).reshape(m, n), pivots


def _rref_cases(field, g):
    """Arrays of random ranks, duplicate rows, zero columns, empty shapes and
    augmented [A | I] systems, A singular or not."""
    cases = [np.zeros(shape, dtype=np.uint8) for shape in ((0, 0), (0, 5), (4, 0))]
    for _ in range(12):
        m, n = (int(x) for x in g.integers(1, 9, size=2))
        r = int(g.integers(0, min(m, n) + 1))
        a = matmul_data(field, random_matrix(field, g, m, r).data, random_matrix(field, g, r, n).data)
        dup = np.concatenate([a, a[g.integers(0, m, size=2)]], axis=0)
        zc = random_matrix(field, g, m, n).data.copy()
        zc[:, g.integers(0, n, size=2)] = 0
        aug = np.concatenate([a[:, :min(m, n)][:min(m, n)], np.eye(min(m, n), dtype=np.uint8)], axis=1)
        cases += [a, dup, zc, aug, a.T, zc[:, ::2]]     # the last two non-contiguous views
    for m, n in ((3, 30), (7, 40)):     # wide and low rank, with runs of zero columns
        r = int(g.integers(1, m))
        a = matmul_data(field, random_matrix(field, g, m, r).data, random_matrix(field, g, r, n).data)
        a[:, :5] = 0
        a[:, 12:25] = 0
        cases.append(a)
    return cases


def _gf2_wide_cases(g):
    """GF(2) packs each row into bytes: widths on both sides of a byte and
    of 64 bits, up to 70 rows, singular [A | I] systems, and tall arrays
    (up to 3n rows) whose rows arrive in reverse leading-column order, each
    followed by an XOR of earlier rows, so the rows that reduction by
    leading bit keeps must be sorted, back-cleared and padded with zeros."""
    def low_rank(m, n):
        r = int(g.integers(0, min(m, n) + 1))
        return matmul_data(GF2, random_matrix(GF2, g, m, r).data, random_matrix(GF2, g, r, n).data)

    cases = []
    for n in (1, 7, 8, 9, 16, 17, 63, 64, 65):
        for m in (1, 9):
            a, full = low_rank(m, n), random_matrix(GF2, g, m, n).data
            cases += [a, full, full.T, full[:, ::2]]
        cases.append(low_rank(70, n))
        r = n - 1 - int(g.integers(0, n))
        singular = matmul_data(GF2, random_matrix(GF2, g, n, r).data,
                               random_matrix(GF2, g, r, n).data)
        cases.append(np.concatenate([singular, np.eye(n, dtype=np.uint8)], axis=1))
    for n in (2, 5, 9, 24, 65):
        cases += [random_matrix(GF2, g, 3 * n, n).data, low_rank(3 * n, n)]
        unit = np.triu(random_matrix(GF2, g, n, n).data, 1) | np.eye(n, dtype=np.uint8)
        rows = []
        for row in unit[::-1]:      # leading columns n-1, ..., 0
            rows.append(row)
            subset = random_matrix(GF2, g, 1, len(rows)).data[0] == 1
            rows.append(np.bitwise_xor.reduce(np.array(rows)[subset], axis=0))
        both = np.array(rows)
        cases += [unit[::-1], both, both[:, ::2], np.concatenate([both, both[::-2]])]
    return cases


@pytest.mark.parametrize("field", KERNEL_FIELDS)
def test_rref_matches_scalar_gauss_jordan(field):
    g = rng(7)
    cases = _rref_cases(field, g) + (_gf2_wide_cases(g) if field == GF2 else [])
    for data in cases:
        before = data.copy()
        R, piv = rref_array(field, data)
        want, want_piv = gauss_jordan_oracle(field, data)
        assert R.dtype == np.uint8
        assert piv == want_piv and np.array_equal(R, want)
        assert np.array_equal(data, before)


def _arrow(n):
    """Ones on the first row, the first column and the diagonal: reducing
    row 1 by row 0 fills it in to n - 1 nonzeros, past the sparse kernel's
    cap once n > _FILL_CAP + 1, though the array has 3n - 2 nonzeros."""
    data = np.eye(n, dtype=np.uint8)
    data[0] = data[:, 0] = 1
    return data


def _rank_cases(field, g):
    """Empty, zero, tall and wide arrays on both sides of the list kernel's
    cutoff, each full, rank-deficient, with duplicate rows, with a zero
    row, and the rank-deficient one transposed; and sparse arrays, one of
    which fills in past the sparse kernel's cap."""
    cells = matrix._LIST_CELLS
    cases = [np.zeros(shape, dtype=np.uint8) for shape in ((0, 0), (0, 9), (9, 0), (5, 7))]
    for m, n in ((3, 5), (16, 16), (16, 17), (4, cells // 4), (4, cells // 4 + 1),
                 (cells // 4, 4), (cells // 4 + 1, 4), (1, cells + 1), (cells + 1, 1),
                 (24, 40), (40, 24)):
        full = random_matrix(field, g, m, n).data
        low = _rank_deficient(field, g, m, n)
        dup = np.concatenate([full, full[g.integers(0, m, size=2)]])
        zero = full.copy()
        zero[int(g.integers(0, m))] = 0
        cases += [full, low, dup, zero, low.T]
    return cases + [_arrow(40), _block_diagonal(field, g, 48), _circulant(field, 30, 4, 1, 1)]


@pytest.mark.parametrize("field", KERNEL_FIELDS)
def test_rank_is_forward_elimination_matching_the_oracle(field, monkeypatch):
    # rank_data never runs rref_array and leaves its read-only argument as
    # it was.  Off GF(2) an array of at most _LIST_CELLS cells runs the list
    # kernel; a larger one with at most _SPARSE_TERMS nonzeros per row on
    # average runs the sparse kernel, and the table kernel only when the
    # sparse one gives up; any other array runs the table kernel.
    g = rng(14)
    cases = [_read_only(a) for a in _rank_cases(field, g)]
    want = [len(gauss_jordan_oracle(field, a)[1]) for a in cases]

    def no_rref(*args, **kwargs):
        raise AssertionError("rank_data ran rref_array")
    monkeypatch.setattr(matrix, "rref_array", no_rref)
    taken = []
    for name in ("_rref_lists", "_rank_sparse", "_rref_table"):
        kernel = getattr(matrix, name)

        def logged(f, *args, name=name, kernel=kernel, **kw):
            result = kernel(f, *args, **kw)
            taken.append(name + (" gave up" if result is None else ""))
            return result
        monkeypatch.setattr(matrix, name, logged)
    seen = set()
    for a, rank in zip(cases, want):
        before = a.copy()
        taken.clear()
        assert rank_data(field, a) == rank, a.shape
        assert np.array_equal(a, before)
        seen.add(tuple(taken))
        if field.q == 2:
            assert taken == []
        elif a.size <= matrix._LIST_CELLS:
            assert taken == ["_rref_lists"]
        elif np.count_nonzero(a) > matrix._SPARSE_TERMS * len(a):
            assert taken == ["_rref_table"]
        else:
            assert taken in (["_rank_sparse"], ["_rank_sparse gave up", "_rref_table"])
            if a.shape == (40, 40) and a[0].all():      # the arrow fills in past the cap
                assert taken[0] == "_rank_sparse gave up"
    assert min(a.size for a in cases) == 0 and max(a.size for a in cases) > matrix._LIST_CELLS
    if field.q != 2:
        assert seen == {("_rref_lists",), ("_rank_sparse",), ("_rank_sparse gave up", "_rref_table"),
                        ("_rref_table",)}


def _circulant(field, k, a, b, c):
    """c (S^a - S^b) for the k x k cyclic shift S and a != b mod k: row i
    holds c at column i + a and -c at column i + b (mod k), so the rank is
    k - gcd(a - b, k) over every field."""
    data = np.zeros((k, k), dtype=np.uint8)
    i = np.arange(k)
    data[i, (i + a) % k] = c
    data[i, (i + b) % k] = field.neg(c)
    return data


def _block_diagonal(field, g, k):
    """Dense random blocks of 3 to 9 rows down the diagonal of a k x k array."""
    data = np.zeros((k, k), dtype=np.uint8)
    lo = 0
    while lo < k:
        hi = min(k, lo + int(g.integers(3, 10)))
        data[lo:hi, lo:hi] = random_matrix(field, g, hi - lo).data
        lo = hi
    return data


def _permutation_sum(field, g, k, terms):
    """c_1 P_1 + ... + c_t P_t for random k x k permutation matrices P_i and
    nonzero codes c_i: about t nonzeros per row, which fill in fast."""
    data = np.zeros((k, k), dtype=np.uint8)
    for _ in range(terms):
        perm = np.eye(k, dtype=np.uint8)[g.permutation(k)]
        data = add_data(field, data, scale_data(field, perm, int(g.integers(1, field.q))))
    return data


def _sparse_rank(field, a, oracle=True):
    """_rank_sparse on the nonzeros of a read-only copy of a, which it
    leaves as it was, checked against the table kernel and, with oracle,
    the scalar oracle unless it gave up; returns what it returned."""
    a = _read_only(a)
    before = a.copy()
    rows, cols = a.nonzero()
    got = matrix._rank_sparse(field, a.shape, rows, cols, a[rows, cols])
    assert np.array_equal(a, before)
    if got is not None:
        assert got == len(matrix._rref_table(field, a, back=False)[1]), a.shape
        if oracle:
            assert got == len(gauss_jordan_oracle(field, a)[1]), a.shape
    return got


@pytest.mark.parametrize("field", KERNEL_FIELDS)
def test_sparse_rank_of_circulants_is_k_minus_gcd(field):
    # The images of c (g1^a - g1^b) on the cyclic family; the scalar oracle
    # runs at k = 104 only, since it takes 14 s at k = 512.
    g = rng(21)
    for k in (104, 117, 512):
        for a, b in ((1, 0), (0, 3), (9, 2), (5, 5 + k // 2)):
            c = int(g.integers(1, field.q))
            rank = _sparse_rank(field, _circulant(field, k, a, b, c), oracle=k == 104)
            assert rank == k - np.gcd(a - b, k), (k, a, b)


@pytest.mark.parametrize("field", KERNEL_FIELDS)
def test_sparse_rank_of_block_diagonals_and_edge_shapes(field):
    g = rng(22)
    cases = [_block_diagonal(field, g, k) for k in (24, 60, 60, 117)]
    cases += [np.zeros(shape, dtype=np.uint8) for shape in ((0, 0), (0, 40), (40, 0), (30, 30))]
    block = cases[1].copy()
    block[g.integers(0, 60, size=5)] = 0      # zero rows
    cases += [block, block.T, block[:20], block[:, :20], block[::3], block[:, ::3],
              _circulant(field, 60, 2, 0, 1)[:, :5], _arrow(20)]
    for a in cases:
        assert _sparse_rank(field, a) is not None, a.shape
    # Blocks of rank r add r to the rank.
    blocks = np.kron(np.eye(12, dtype=np.uint8), _arrow(4))
    assert _sparse_rank(field, blocks) == 12 * len(gauss_jordan_oracle(field, _arrow(4))[1])


@pytest.mark.parametrize("field", KERNEL_FIELDS)
def test_sparse_rank_gives_up_on_fill_in_and_rank_data_falls_back(field):
    # Sums of two permutation matrices are unions of cycles and stay sparse;
    # sums of three or more fill in past the cap at these sizes, and so
    # does the arrow, whose first row is already 40 nonzeros long.
    g = rng(23)
    for k, terms in ((60, 2), (117, 2), (512, 2)):
        a = _permutation_sum(field, g, k, terms)
        assert _sparse_rank(field, a, oracle=k <= 117) is not None
    for a in (_permutation_sum(field, g, 117, 5), _permutation_sum(field, g, 512, 3), _arrow(40)):
        assert _sparse_rank(field, a) is None
        assert rank_data(field, _read_only(a)) == len(matrix._rref_table(field, a, back=False)[1])


@pytest.mark.parametrize("field", KERNEL_FIELDS[1:])
def test_sparse_kernel_runs_up_to_its_nonzeros_per_row(field, monkeypatch):
    # One nonzero either side of _SPARSE_TERMS * rows, on a tall, a square
    # and a wide array above _LIST_CELLS.
    taken = []
    kernel = matrix._rank_sparse
    monkeypatch.setattr(matrix, "_rank_sparse",
                        lambda f, shape, *entries: taken.append(shape) or kernel(f, shape, *entries))
    g = rng(24)
    for m, n in ((100, 20), (40, 40), (17, 200)):
        a = np.zeros((m, n), dtype=np.uint8)
        spots = g.permutation(m * n)[:matrix._SPARSE_TERMS * m + 1]
        a.flat[spots] = g.integers(1, field.q, size=spots.size)
        for extra in (0, 1):
            b = a.copy()
            b.flat[spots[-1]] = extra * b.flat[spots[-1]]
            taken.clear()
            assert rank_data(field, _read_only(b)) == len(gauss_jordan_oracle(field, b)[1])
            assert taken == ([] if extra else [(m, n)]), (m, n, extra)


def _summed(field, shape, rows, cols, codes):
    """The array rank_entries ranks, summed one entry at a time by the scalar field."""
    a = np.zeros(shape, dtype=np.uint8)
    for r, c, v in zip(rows.tolist(), cols.tolist(), codes.tolist()):
        a[r, c] = field.add(int(a[r, c]), v)
    return a


@pytest.mark.parametrize("field", KERNEL_FIELDS)
def test_rank_entries_sums_repeated_positions(field, monkeypatch):
    # Entries in no order, with repeats that add up, repeats that cancel to
    # zero and zero codes, on empty, tall, wide, sparse and dense shapes and
    # a sum of six permutations (which fills in past the cap), against the
    # scalar oracle on the summed array; the inputs stay as given.  Off
    # GF(2) the sparse kernel finishes, gives up, or is skipped for density.
    taken = []
    sparse, dense = matrix._rank_sparse, matrix._rank_dense
    monkeypatch.setattr(matrix, "_rank_sparse", lambda *args: (
        lambda rank: taken.append("sparse" if rank is not None else "gave up") or rank)(
        sparse(*args)))
    monkeypatch.setattr(matrix, "_rank_dense", lambda *args: taken.append("dense") or dense(*args))
    g = rng(25)
    seen = set()
    for m, n, per_row in ((0, 0, 0), (0, 5, 0), (5, 0, 0), (1, 1, 3), (30, 17, 4),
                          (17, 30, 4), (60, 60, 2), (40, 40, 20), (117, 117, None)):
        count = m * (per_row or 0)
        rows, cols = g.integers(0, max(m, 1), size=count), g.integers(0, max(n, 1), size=count)
        codes = g.integers(0, field.q, size=count).astype(np.uint8)
        if per_row is None:
            rows = np.tile(np.arange(m), 6)
            cols = np.concatenate([g.permutation(n) for _ in range(6)])
            codes = np.repeat(g.integers(1, field.q, size=6), m).astype(np.uint8)
            count = len(rows)
        again = g.choice(count, count // 6, replace=False)
        cancel = g.choice(count, count // 6, replace=False)
        rows = np.concatenate([rows, rows[again], rows[cancel]])
        cols = np.concatenate([cols, cols[again], cols[cancel]])
        negated = [field.neg(int(c)) for c in codes[cancel]]
        codes = np.concatenate([codes, codes[again], np.array(negated, dtype=np.uint8)])
        order = g.permutation(len(rows))
        rows, cols, codes = (_read_only(x[order]) for x in (rows, cols, codes))
        want = len(gauss_jordan_oracle(field, _summed(field, (m, n), rows, cols, codes))[1])
        taken.clear()
        assert matrix.rank_entries(field, (m, n), rows, cols, codes) == want, (m, n)
        seen.add(tuple(taken))
    assert seen == ({()} if field.q == 2
                    else {("sparse",), ("gave up", "dense"), ("dense",)})

def test_rref_prime_update_at_the_largest_residues():
    # Row updates over GF(251) reach (p-1) + (p-1)^2 before the reduction.
    top = np.full((6, 6), 250, dtype=np.uint8)
    extreme = top.copy()
    extreme[:, 0] = 1       # factor 250 against a pivot row of 250s
    mixed = np.where(rng(8).integers(0, 2, size=(7, 9)) == 1, 250, 1).astype(np.uint8)
    for data in (top, extreme, mixed):
        R, piv = rref_array(F251, data)
        want, want_piv = gauss_jordan_oracle(F251, data)
        assert piv == want_piv and np.array_equal(R, want)


@pytest.mark.parametrize("field", KERNEL_FIELDS + [FieldSpec(127), FieldSpec(131)])
def test_sub_data_matches_field_sub_on_every_pair(field):
    # Every pair (a, b).  GF(127) and GF(131) sit either side of 2(p - 1) = 255:
    # a sum of two residues, such as a + (p - b), fits in uint8 only below it.
    q = field.q
    a, b = (x.astype(np.uint8) for x in np.divmod(np.arange(q * q), q))
    want = np.array([field.sub(int(x), int(y)) for x, y in zip(a, b)], dtype=np.uint8)
    got = matrix.sub_data(field, a.reshape(q, q), b.reshape(q, q))
    assert got.dtype == np.uint8 and np.array_equal(got, want.reshape(q, q))


PRIMITIVE_FIELDS = [GF2, F3, F4, F9, F256]


def _read_only(a):
    """A read-only copy: a primitive that writes to its argument raises."""
    a = a.copy()
    a.setflags(write=False)
    return a


@pytest.mark.parametrize("field", PRIMITIVE_FIELDS)
def test_add_and_scale_data_match_the_field_on_every_pair(field):
    q = field.q
    a, b = (_read_only(x.astype(np.uint8).reshape(q, q)) for x in np.divmod(np.arange(q * q), q))
    want = np.array([[field.add(int(x), int(y)) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)],
                    dtype=np.uint8)
    got = add_data(field, a, b)
    assert got.dtype == np.uint8 and np.array_equal(got, want)
    assert np.array_equal((DenseMatrix(field, a) + DenseMatrix(field, b)).data, got)
    codes = _read_only(np.arange(q, dtype=np.uint8).reshape(1, q))
    for c in range(q):
        got = scale_data(field, codes, c)
        assert got.dtype == np.uint8 and got.shape == (1, q)
        assert got[0].tolist() == [field.mul(c, x) for x in range(q)]


class _GatherLog(np.ndarray):
    """A field table that logs the first index of each gather from it."""
    keys = []

    def __getitem__(self, key):
        self.keys.append(key)
        return np.asarray(super().__getitem__(key))


@pytest.mark.parametrize("field", [F3, F4, F9, F25, F251, F256])
def test_rref_takes_both_multiples_gathers(monkeypatch, field):
    # Clearing k >= q rows gathers from the q multiples of the pivot row,
    # t.mul[:, row]; fewer rows gather their own multiples, t.mul[f].
    # Cases: (q + 6) x 12 of rank 3 (its first pivot clears >= q rows), the
    # same shape sparse, and a few rows.
    q = field.q
    g = rng(11)
    low = matmul_data(field, random_matrix(field, g, q + 6, 3).data,
                      random_matrix(field, g, 3, 12).data)
    sparse = random_matrix(field, g, q + 6, 12).data * (g.random((q + 6, 12)) < 0.1)
    few = random_matrix(field, g, 3, 5).data
    monkeypatch.setattr(_GatherLog, "keys", [])
    monkeypatch.setattr(field.tables, "mul", field.tables.mul.view(_GatherLog))
    for data in (low, sparse, few):
        R, piv = matrix._rref_table(field, data)
        want, want_piv = gauss_jordan_oracle(field, data)
        assert piv == want_piv and np.array_equal(R, want)
    table = sum(isinstance(k, tuple) and k[0] == slice(None) for k in _GatherLog.keys)
    per_row = [k.size for k in _GatherLog.keys if isinstance(k, np.ndarray) and k.ndim == 1]
    assert table >= 1 and per_row and max(per_row) < q


LIST_FIELDS = [F3, F4, F9, F251, F256]


def _small_shapes():
    """Every shape up to 16 x 16, empty ones included, then shapes on both
    sides of the list kernel's cutoff up to twice it."""
    cells = matrix._LIST_CELLS
    shapes = [(m, n) for m in range(17) for n in range(17)]
    for c in (cells // 2, cells - 1, cells, cells + 1, 2 * cells):
        shapes += [(c // k, k) for k in (1, 2, 3, 5, 8, 16)] + [(k, c // k) for k in (1, 2, 4, 7)]
    return shapes + [(0, 2 * cells), (2 * cells, 0)]


def _rank_deficient(field, g, m, n):
    """A random m x n array of random rank, with a zero row and a zero column."""
    r = int(g.integers(0, min(m, n) + 1))
    a = matmul_data(field, random_matrix(field, g, m, r).data, random_matrix(field, g, r, n).data)
    if m and n:
        a[int(g.integers(0, m))] = 0
        a[:, int(g.integers(0, n))] = 0
    return a


@pytest.mark.parametrize("field", LIST_FIELDS)
def test_list_kernel_matches_the_table_loop_and_the_oracle(field):
    g = rng(12)
    for m, n in _small_shapes():
        for data in (random_matrix(field, g, m, n).data, _rank_deficient(field, g, m, n)):
            R, piv = matrix._rref_lists(field, data)
            want, want_piv = matrix._rref_table(field, data)
            assert R.dtype == np.uint8 and R.shape == (m, n)
            assert piv == want_piv and np.array_equal(R, want)
        # The scalar oracle, on the rank-deficient array only: it is slow.
        want, want_piv = gauss_jordan_oracle(field, data)
        assert piv == want_piv and np.array_equal(R, want)


def test_rref_takes_the_list_kernel_exactly_off_gf2_at_few_cells(monkeypatch):
    taken = []
    for name in ("_rref_lists", "_rref_table"):
        kernel = getattr(matrix, name)
        monkeypatch.setattr(matrix, name,
                            lambda field, data, name=name, kernel=kernel:
                            taken.append(name) or kernel(field, data))
    cells = matrix._LIST_CELLS
    shapes = [(0, 3 * cells), (3 * cells, 0), (1, cells), (cells, 1), (4, cells // 4),
              (1, cells + 1), (cells + 1, 1), (4, cells // 4 + 1), (cells, cells)]
    for field in [GF2] + LIST_FIELDS:
        for m, n in shapes:
            taken.clear()
            rref_array(field, random_matrix(field, rng(13), m, n).data)
            want = [] if field.q == 2 else ["_rref_lists" if m * n <= cells else "_rref_table"]
            assert taken == want, (field, m, n)


def test_inverse_round_trip():
    g = rng(3)
    for field in (GF2, F3, F4, F9):
        eye = DenseMatrix.identity(field, 5)
        for _ in range(20):
            a = random_invertible(field, g, 5)
            assert a @ a.inverse() == eye
            assert a.inverse() @ a == eye


@pytest.mark.parametrize("field", KERNEL_FIELDS)
def test_inverse_matches_scalar_oracle(field):
    # inverse_data and rank_data on read-only arrays, and the DenseMatrix
    # methods that wrap them; [A | I] at n = 13 takes the table loop.
    g = rng(10)
    singular = 0
    for n in (0, 1, 2, 3, 5, 8, 13):
        eye = np.eye(n, dtype=np.uint8)
        for k in range(6):
            a = random_matrix(field, g, n).data.copy()
            if k % 2 and n:     # a repeated row, a zero row, a product of rank < n
                a[k % n] = a[(k + 1) % n] if k == 1 else 0
                if k == 5:
                    a = matmul_data(field, a[:, : n - 1], random_matrix(field, g, n - 1, n).data)
            a = _read_only(a)
            pivots = gauss_jordan_oracle(field, a)[1]
            assert rank_data(field, a) == len(pivots) == DenseMatrix(field, a).rank()
            if len(pivots) < n:
                singular += 1
                with pytest.raises(SingularMatrixError, match="singular"):
                    inverse_data(field, a)
                with pytest.raises(SingularMatrixError):
                    DenseMatrix(field, a).inverse()
                continue
            got = inverse_data(field, a)
            want = gauss_jordan_oracle(field, np.concatenate([a, eye], axis=1))[0][:, n:]
            assert got.dtype == np.uint8 and np.array_equal(got, want)
            assert np.array_equal(DenseMatrix(field, a).inverse().data, got)
            assert np.array_equal(matmul_data(field, a, got), eye)
    assert singular >= 12
    for shape in ((2, 3), (3, 2), (0, 1)):
        a = _read_only(random_matrix(field, g, *shape).data)
        with pytest.raises(SingularMatrixError, match="not square"):
            inverse_data(field, a)
        assert rank_data(field, a) == len(gauss_jordan_oracle(field, a)[1])


def test_singular_inverse_raises():
    m = DenseMatrix(GF2, [[1, 1], [1, 1]])
    # Nothing is kept from a failed inversion: the second call raises too.
    for _ in range(2):
        with pytest.raises(SingularMatrixError):
            m.inverse()


@pytest.mark.parametrize("field", [GF2, F9])
def test_matrix_on_a_view_does_not_follow_its_base(field):
    # The kept inverse would go stale if a write to the base reached the matrix.
    base = np.eye(3, dtype=np.uint8)
    m = DenseMatrix(field, base[:, :])
    inv = m.inverse()
    base[0, 1] = 1
    assert np.array_equal(m.data, np.eye(3)) and m.inverse() is inv
    assert m @ m.inverse() == DenseMatrix.identity(field, 3)


@pytest.mark.parametrize("field", [GF2, F3, F251, F4, F9, F256])
def test_random_invertible_eliminates_each_draw_once(monkeypatch, field):
    shapes = []

    def counted(f, data):
        shapes.append(data.shape)
        return rref_array(f, data)
    monkeypatch.setattr(matrix, "rref_array", counted)
    for n in (1, 5, 40):
        # The draw count, replayed from the same Philox stream with the
        # scalar oracle's rank.
        replay, draws = rng(n), 1
        while len(gauss_jordan_oracle(field, random_matrix(field, replay, n).data)[1]) < n:
            draws += 1
        shapes.clear()
        a = random_invertible(field, rng(n), n)
        assert shapes == [(n, 2 * n)] * draws
        # The inverse is kept: a Representation on it eliminates nothing.
        shapes.clear()
        rep = Representation(field, [a])
        assert shapes == []
        assert a @ rep.generators[0].inverse() == DenseMatrix.identity(field, n)


def test_kernel_annihilates_and_has_right_dimension():
    g = rng(4)
    for field in (GF2, F3, F9):
        mats = [random_matrix(field, g, 4, 6) for _ in range(25)]
        zero_3x5 = DenseMatrix(field, np.zeros((3, 5), dtype=np.uint8))
        mats += [zero_3x5, DenseMatrix(field, np.zeros((0, 4), dtype=np.uint8)),
                 random_invertible(field, g, 5)]
        for m in mats:
            k = m.kernel()
            assert k.dtype == np.uint8 and k.shape == (m.cols - m.rank(), m.cols)
            for v in k:
                assert not np.any(m.apply(v))
            # Kernel rows are independent.
            assert len(rref_array(field, k)[1]) == len(k)
        assert np.array_equal(zero_3x5.kernel(), np.eye(5, dtype=np.uint8))


def test_rank_is_transpose_invariant():
    g = rng(6)
    for field in (GF2, F4):
        for _ in range(25):
            m = random_matrix(field, g, 5, 3)
            assert m.rank() == DenseMatrix(field, m.data.T).rank()


def test_entry_range_enforced():
    with pytest.raises(ValueError):
        DenseMatrix(GF2, [[0, 2]])


def test_json_round_trip():
    m = DenseMatrix(F4, [[0, 1, 2], [3, 2, 1]])
    assert DenseMatrix.from_json(F4, m.to_json()) == m
