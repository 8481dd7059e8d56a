"""Dense matrices over GF(q): arithmetic, elimination, rank, kernels.

Entries are integer codes (see linrep.field) held in a numpy uint8 array.
Everything is exact and uses no floats.  No other module does code-array
arithmetic: each operation is one function on raw uint8 arrays here
(add_data, sub_data, scale_data, matmul_data, matmul_live, inverse_data,
rank_data, rref_array), and the DenseMatrix methods wrap all but
scale_data and matmul_live, so a caller that builds many intermediate
values, as rational-expression evaluation does, computes on arrays and
wraps only what it returns.  A sum c_1 X_1 + ... + c_k X_k elsewhere is
one matmul_data product.  A product whose left operand is sparse by
construction, as a spin's rows and their reductions are (generator
images, SpanAccumulator residuals and basis updates, Subspace
residuals), goes through matmul_live, which multiplies only the live
columns of the left operand once the product passes _LIVE_MACS
multiply-adds.  Each field family has its own kernels:
characteristic 2 adds and subtracts codes by XOR, GF(p) subtracts the
residues in uint8 with a borrow of p, and odd extensions GF(p^d) subtract
through one flat q x q table and multiply base-p digit planes in int64
(see sub_data and matmul_data).
Elimination over GF(2) runs on bit rows, each row one Python int, in one
loop for rref_array, SpanAccumulator and the rank alike (_reduce_ints),
at every size.  Every other field picks its elimination kernel by shape
alone: an array of at most _LIST_CELLS cells runs Gauss-Jordan on Python
lists of the field tables (_rref_lists), where one list index costs less
than one numpy call; a larger one runs the table loop (_rref_table),
which clears a pivot column by one sub_data call on the live block, in
place: the rows from the column's first nonzero to its last, and the
columns from the pivot column to the pivot row's last nonzero.  Ranks
run these kernels forward only and build no reduced array, and have one
more: a matrix with few nonzeros per row, as the image of a permutation
representation has, is reduced one sparse row at a time (_rank_sparse),
and goes to the dense kernels after all if a row fills in past
_FILL_CAP.  Two entries feed it: rank_data takes a larger sparse array's
nonzeros, and rank_entries takes a list of entries whose repeated
positions it sums, so that a permutation representation's image is
ranked with no dense array at all.
Arrays stay uint8 at the API, and no function here writes to an array it
is given.  A DenseMatrix owns its read-only array and keeps its inverse,
so random_invertible's test is the inverse a Representation uses; over
GF(2) that test stops a singular draw after the forward pass of [A | I].
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush

import numpy as np

from .field import FieldSpec, json_typed    # json_typed is re-exported to the loaders


# Index entries per gather block of the characteristic-2 product (8 bytes
# each), which keeps its temporaries near 256 KiB on any shape.
_GATHER_TERMS = 1 << 15

# Off GF(2), rref_array eliminates an array of at most this many cells on
# Python lists of the field tables (_rref_lists), a larger one by numpy
# gathers (_rref_table).  Replaying every elimination of one cycle of the
# benchmark's check and certify jobs through both kernels, the lists won
# up to 128 cells, tied from 129 to 256, and lost from 257 to 512 on
# certify's short wide residuals (4 x 96, 5 x 96).
_LIST_CELLS = 256

# Off GF(2), rank_data ranks an array of more than _LIST_CELLS cells with
# at most _SPARSE_TERMS nonzeros per row on average by _rank_sparse, and
# rank_entries so ranks summed entries of that density at any size.  On
# block-diagonal arrays of dense random b x b blocks at k = 117 and 512 over
# GF(3), GF(251), GF(2^2) and GF(2^8), the sparse kernel took a fifth of the
# table loop's time at b = 3 and still won at b = 12, while at b = 24 it
# tied or lost by up to 2x; 8 keeps a margin below that crossover.
_SPARSE_TERMS = 8

# _rank_sparse gives up, and the rank runs the dense kernels, once a row
# under reduction holds more than _FILL_CAP nonzeros.  On sums of three random
# permutation matrices over GF(3) and GF(2^8), finishing the sparse
# elimination with rows up to 32 long beat the table loop at k = 117
# (2.7-3.0 against 4.2-4.9 ms over GF(3)); a cap of 64 finished at k = 256
# in about the table loop's time, and a cap of 128 finished at k = 512 in
# 3 to 6 times it.  Giving up at 32 cost 1.5-3 ms at k = 512 on top of the
# table loop's 10-40 ms.
_FILL_CAP = 32


# matmul_live drops the left operand's all-zero columns only in a product of
# more than _LIVE_MACS multiply-adds (rows of a times cells of b); below it
# the scan and two gathers, about 3 us, cost more than they save.  Timing
# m x k by k x n products with 4 of k columns live (timeit, best of 5), the
# scan lost up to 4,096 and won by 5-6% at 8,192 over GF(2), GF(3) and
# GF(251), while GF(2^2) won from 4,096 and GF(3^2) from 2,048.  On
# all-live operands it added 5-37% at 8,192 and at most 10% from 65,536.
# Measured on a 2-vCPU x86_64 VM with numpy 2.4.
_LIVE_MACS = 8192


class SingularMatrixError(ValueError):
    pass


class DenseMatrix:
    """Immutable rows-by-cols matrix with entries in a fixed GF(q)."""

    __slots__ = ("field", "data", "_inverse")

    def __init__(self, field: FieldSpec, data):
        self.field = field
        arr = np.asarray(data, dtype=np.uint8)
        if arr.ndim != 2:
            raise ValueError("matrix data must be 2-dimensional")
        if arr.size and arr.max() >= field.q:
            raise ValueError("entry code out of range for field")
        if arr.base is not None:    # a view: a write to its base would change the matrix
            arr = arr.copy()
        arr.setflags(write=False)
        self.data = arr
        self._inverse = None

    # -- constructors --

    @classmethod
    def identity(cls, field, n):
        return cls(field, np.eye(n, dtype=np.uint8))

    # -- basic protocol --

    @property
    def rows(self):
        return self.data.shape[0]

    @property
    def cols(self):
        return self.data.shape[1]

    def __eq__(self, other):
        return (isinstance(other, DenseMatrix) and self.field == other.field
                and self.data.shape == other.data.shape
                and bool(np.array_equal(self.data, other.data)))

    def __hash__(self):
        return hash((self.field, self.data.shape, self.data.tobytes()))

    def __repr__(self):
        return f"DenseMatrix({self.field.p}^{self.field.deg}, {self.data.tolist()})"

    def _check_same(self, other):
        if self.field != other.field:
            raise ValueError("field mismatch")

    # -- arithmetic --

    def __add__(self, other):
        self._check_same(other)
        return DenseMatrix(self.field, add_data(self.field, self.data, other.data))

    def __sub__(self, other):
        self._check_same(other)
        return DenseMatrix(self.field, sub_data(self.field, self.data, other.data))

    def __matmul__(self, other):
        self._check_same(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        return DenseMatrix(self.field, matmul_data(self.field, self.data, other.data))

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Matrix-vector product; vec is a 1-D code array of length cols."""
        col = np.asarray(vec, dtype=np.uint8).reshape(self.cols, 1)
        return matmul_data(self.field, self.data, col)[:, 0]

    # -- elimination --

    def rank(self) -> int:
        return rank_data(self.field, self.data)

    def inverse(self):
        """A^-1 (see inverse_data).  The matrix keeps its inverse: later calls
        return it with no elimination.  A singular matrix keeps nothing and
        raises SingularMatrixError on every call."""
        if self._inverse is None:
            self._inverse = DenseMatrix(self.field, inverse_data(self.field, self.data))
        return self._inverse

    def is_invertible(self) -> bool:
        """True from a kept inverse with no elimination, else from the rank."""
        if self._inverse is not None:
            return True
        return self.rows == self.cols and self.rank() == self.rows

    def kernel(self):
        """Right null space, as rows: echelon_kernel of the rref."""
        return echelon_kernel(self.field, *rref_array(self.field, self.data))

    def to_json(self):
        return self.data.astype(int).tolist()

    @staticmethod
    def from_json(field, obj):
        return DenseMatrix(field, codes_from_json(field, obj))


def codes_from_json(field: FieldSpec, rows, cols: int | None = None) -> np.ndarray:
    """Decode a JSON list of rows of field codes into a uint8 array.

    Anything but a rectangular list of rows of integers in [0, q) raises
    ValueError.  With `cols` given, every row must have that length and
    the empty list decodes to a 0 x cols array.
    """
    if cols is not None and isinstance(rows, list) and not rows:
        return np.zeros((0, cols), dtype=np.uint8)
    try:
        arr = np.array(rows)
    except (TypeError, ValueError):     # ragged rows
        arr = np.array(None)
    if (arr.ndim != 2 or (cols is not None and arr.shape[1] != cols)
            or (arr.size and (arr.dtype.kind not in "iu"
                              or arr.min() < 0 or arr.max() >= field.q))):
        width = "" if cols is None else f" of length {cols}"
        raise ValueError(f"expected a list of rows{width} of integer codes in [0, {field.q})")
    return arr.astype(np.uint8)


def fraction_to_json(x: Fraction) -> dict:
    """The JSON form of an exact rational."""
    return {"num": x.numerator, "den": x.denominator}


def fraction_from_json(obj) -> Fraction:
    """Inverse of fraction_to_json: an object with integer num and nonzero integer den."""
    if not (isinstance(obj, dict) and type(obj.get("num")) is int
            and type(obj.get("den")) is int and obj["den"] != 0):
        raise ValueError('expected a rational {"num": int, "den": nonzero int}')
    return Fraction(obj["num"], obj["den"])


def open_unit_fraction(x, name: str) -> Fraction:
    """x as a Fraction, which must lie strictly between 0 and 1: the range of
    the tiling parameter delta, outside which the coverage bound (1 - delta) n
    is vacuous or unmeetable, and of a witness's epsilon, since at epsilon >= 1
    no tiles at all cover (1 - epsilon) n and at epsilon <= 0 no tile passes
    witness_check."""
    x = Fraction(x)
    if not 0 < x < 1:
        raise ValueError(f"{name} = {x} must lie strictly between 0 and 1")
    return x


def matmul_data(field: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Raw code-array product, one exact integer path per field family.

    Prime fields: int64 matmul of the codes, reduced mod p.  Characteristic
    2: packed-code addition is XOR, so the products t.mul[a[r,k], b[k,s]]
    are XOR-reduced over k, gathered in blocks of rows so that no shape
    builds the whole m x k x n tensor at once.  Odd extensions: digit j of
    (ab)[r,s] is the sum over k, i of digit_i(a[r,k]) * digit_j(x^i b[k,s])
    mod p.  The d digits of x^i b[k,s] are packed into one int64, w = 63 // d
    bits each, so one int64 product of the digit planes of a accumulates all
    d output digits; the inner dimension is cut into chunks of c terms, with
    c * d * (p-1)^2 < 2^w, so no packed field overflows into the next.
    """
    t = field.tables
    if field.deg == 1:
        prod = a.astype(np.int64) @ b.astype(np.int64)
        return (prod % field.p).astype(np.uint8)
    if field.p == 2:
        # terms[r, s, k] is gathered from the flat table at a[r,k] * q + b[k,s]
        # (one intp index array gathers faster than a broadcast pair of uint8
        # ones) and XOR-reduced along contiguous k, whatever b's strides.
        # Rows go in blocks, so the index holds at most _GATHER_TERMS entries.
        flat = t.mul.ravel()
        rows_a = np.multiply(a, field.q, dtype=np.intp)[:, None, :]
        cols_b = np.ascontiguousarray(b.T, dtype=np.intp)
        step = max(1, _GATHER_TERMS // max(1, cols_b.size))
        if len(a) <= step:
            return np.bitwise_xor.reduce(flat.take(rows_a + cols_b), axis=2)
        return np.concatenate([np.bitwise_xor.reduce(flat.take(block + cols_b), axis=2)
                               for block in np.split(rows_a, range(step, len(a), step))])
    (m, inner), n, d, p = a.shape, b.shape[1], field.deg, field.p
    w = 63 // d
    shifts = w * np.arange(d)
    step = ((1 << w) - 1) // ((p - 1) ** 2 * d) * d     # columns of c terms, d digits each
    planes_a = t.digits[a].reshape(m, inner * d)
    # Built transposed: numpy's integer matmul runs its inner loop down a
    # column of the right operand, which is then contiguous.
    packed_b = (t.xdigits @ (1 << shifts))[b].transpose(1, 0, 2).reshape(n, inner * d)
    digits = np.zeros((m, n, d), dtype=np.int64)
    for lo in range(0, inner * d, step):
        prod = planes_a[:, lo:lo + step] @ packed_b[:, lo:lo + step].T
        digits += (prod[:, :, None] >> shifts) & ((1 << w) - 1)
    return (digits % p @ p ** np.arange(d)).astype(np.uint8)


def matmul_live(field: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """matmul_data(field, a, b) over a's live columns only: an all-zero
    column of a and the matching row of b add nothing to the product, so
    both are dropped first.  A product of at most _LIVE_MACS
    multiply-adds skips the scan and runs matmul_data as it is."""
    if len(a) * b.size > _LIVE_MACS:
        live = np.flatnonzero(a.any(axis=0))
        if len(live) < len(b):
            a, b = a.take(live, axis=1), b.take(live, axis=0)
    return matmul_data(field, a, b)


def add_data(field: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise sum a + b of two uint8 code arrays of one shape: XOR in
    characteristic 2, otherwise one gather from the flat q x q table t.add
    at a * q + b."""
    if field.p == 2:
        return a ^ b
    return field.tables.add.take(a.astype(np.intp) * field.q + b)


def sub_data(field: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise difference a - b of two uint8 code arrays of one shape,
    one exact kernel per field family.

    Characteristic 2: a - b = a + b is XOR.  GF(p): uint8 arithmetic wraps
    mod 256 and the true difference lies in [0, p), so a - b plus a borrow
    of p where a < b is exact for every p <= 251.  Odd extensions: one
    gather from the flat q x q table t.sub at a * q + b.
    """
    if field.p == 2:
        return a ^ b
    if field.deg == 1:
        return a - b + np.multiply(a < b, field.p, dtype=np.uint8)
    return field.tables.sub.take(a.astype(np.intp) * field.q + b)


def scale_data(field: FieldSpec, a: np.ndarray, c: int) -> np.ndarray:
    """c * a for a code c: one gather from row c of the mul table."""
    return field.tables.mul[c].take(a)


def inverse_data(field: FieldSpec, a: np.ndarray) -> np.ndarray:
    """A^-1, the right half of rref([A | I]).  A is invertible iff the pivots
    are the first n columns, and elimination then stops after those n.
    Over GF(2) the forward pass alone decides: [A | I] has rank n, and A is
    singular iff a row _reduce_bits keeps leads in the identity half, so a
    singular A raises before any back-substitution (_back_clear).  Every
    other field runs rref_array and reads the pivots.  Raises
    SingularMatrixError for a singular or a non-square A."""
    n, cols = a.shape
    if n != cols:
        raise SingularMatrixError("not square")
    aug = np.concatenate([a, np.eye(n, dtype=np.uint8)], axis=1)
    if field.q == 2:
        new = _reduce_bits(aug, {})
        w = 8 * -(-2 * n // 8)      # a leading bit above w - n is a column of A
        if any(top <= w - n for top in new):
            raise SingularMatrixError("matrix is singular")
        return _bit_array(_back_clear(new)[1], 2 * n)[:, n:]
    R, pivots = rref_array(field, aug)
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return R[:, n:]


def rank_data(field: FieldSpec, a: np.ndarray) -> int:
    """The rank of a raw code array by forward elimination, with no
    back-substitution and no reduced array built.

    Over GF(2) it is the number of rows _reduce_bits keeps.  Every other
    field has three kernels: an array of more than _LIST_CELLS cells with
    at most _SPARSE_TERMS nonzeros per row on average feeds its nonzeros to
    _rank_sparse; any other array, and one whose sparse elimination passes
    _FILL_CAP, runs _rank_dense on the array as given.
    """
    if field.q == 2:
        return len(_reduce_bits(a, {}))
    if a.size > _LIST_CELLS and np.count_nonzero(a) <= _SPARSE_TERMS * len(a):
        rows, cols = a.nonzero()
        rank = _rank_sparse(field, a.shape, rows, cols, a[rows, cols])
        if rank is not None:
            return rank
    return _rank_dense(field, a)


def rank_entries(field: FieldSpec, shape, rows, cols, codes) -> int:
    """The rank of the m x n code array that holds, at each position, the
    field sum of the codes[t] with (rows[t], cols[t]) there: the image of a
    group algebra matrix under a permutation representation, one entry per
    term and point, whose terms may land on one position.

    It builds no m x n array unless the sparse elimination gives up.  Over
    GF(2) each row is a bit row, XOR sums the repeated positions as it is
    built, and _reduce_ints ranks the rows.  Every other field sums them by
    _sum_entries, which also sorts the entries by row and column, and ranks
    them by _rank_sparse under rank_data's rule: entries past _SPARSE_TERMS
    per row, or a row under reduction past _FILL_CAP, run _rank_dense on the
    entries scattered into an array.
    """
    m, n = shape
    rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
    codes = np.asarray(codes, dtype=np.uint8)
    if field.q == 2:
        bits = [0] * m
        for r, c, v in zip(rows.tolist(), cols.tolist(), codes.tolist()):
            bits[r] ^= v << (n - 1 - c)
        return len(_reduce_ints(bits, {}))
    rows, cols, codes = _sum_entries(field, n, rows, cols, codes)
    if len(codes) <= _SPARSE_TERMS * m:
        rank = _rank_sparse(field, shape, rows, cols, codes)
        if rank is not None:
            return rank
    a = np.zeros(shape, dtype=np.uint8)
    a[rows, cols] = codes
    return _rank_dense(field, a)


def _sum_entries(field: FieldSpec, n: int, rows, cols, codes):
    """The entries sorted by row, then column, with the codes at one
    position summed in the field and the zero sums dropped.  Each run of
    one position is summed by one reduceat per field family: XOR in
    characteristic 2, residues mod p in GF(p), and base-p digits mod p in
    odd extensions."""
    keys = rows.astype(np.int64) * n + cols
    order = np.argsort(keys)
    keys, codes = keys[order], codes[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    if field.p == 2:
        codes = np.bitwise_xor.reduceat(codes, starts)
    elif field.deg == 1:
        codes = (np.add.reduceat(codes.astype(np.int64), starts) % field.p).astype(np.uint8)
    else:
        digits = np.add.reduceat(field.tables.digits[codes], starts) % field.p
        codes = (digits @ field.p ** np.arange(field.deg)).astype(np.uint8)
    live = codes != 0
    rows, cols = np.divmod(keys[starts][live], n)
    return rows, cols, codes[live]


def _rank_dense(field: FieldSpec, a: np.ndarray) -> int:
    """The rank off GF(2) by _rref_lists up to _LIST_CELLS cells, else by
    _rref_table, both without back-substitution."""
    return len((_rref_lists if a.size <= _LIST_CELLS else _rref_table)(field, a, back=False)[1])


def _rank_sparse(field: FieldSpec, shape, rows, cols, vals):
    """The rank off GF(2) of the m x n array with nonzero codes vals at
    (rows, cols), given row by row with columns ascending, by sparse forward
    elimination, or None once a row under reduction holds more than
    _FILL_CAP nonzeros.

    Each row is a {column: code} dict over the list tables.  A kept row is
    scaled to 1 on its pivot, which it does not store, and is zero left of
    it, so reducing by it only fills in to the right: an incoming row meets
    its nonzero columns in increasing order from a heap, subtracts the
    kept row under each one that is a pivot and stops at the first that is
    not, which makes it a new kept row.  The rank is the number of pivots."""
    mul, sub, inv = field.tables.lists
    neg = sub[0]
    m, n = shape
    ends = np.bincount(rows, minlength=m).cumsum().tolist()
    vals = vals.tolist()
    cols = cols.tolist()
    kept = {}     # pivot column -> {column: code} right of it
    lo = 0
    for hi in ends:
        heap = cols[lo:hi]      # ascending, so already a heap
        row = dict(zip(heap, vals[lo:hi]))
        lo = hi
        while heap:
            col = heappop(heap)
            f = row.get(col)
            if f is None:       # cancelled, or a column pushed twice
                continue
            del row[col]
            prow = kept.get(col)
            if prow is None:
                if f != 1:
                    scale = mul[inv[f]]
                    row = {j: scale[b] for j, b in row.items()}
                kept[col] = row
                break
            mf = mul[f]
            for j, b in prow.items():
                fb = mf[b]
                old = row.get(j)
                if old is None:
                    row[j] = neg[fb]
                    heappush(heap, j)
                elif old == fb:
                    del row[j]
                else:
                    row[j] = sub[old][fb]
            if len(row) > _FILL_CAP:
                return None
        if len(kept) == n:
            break
    return len(kept)


def echelon_kernel(field: FieldSpec, R: np.ndarray, pivots) -> np.ndarray:
    """Right null space of a reduced echelon array R with these pivot columns,
    without elimination: per free column j, 1 at j and -R[:, j] on the pivots."""
    free = np.delete(np.arange(R.shape[1]), pivots)
    basis = np.eye(R.shape[1], dtype=np.uint8)[free]
    basis[:, pivots] = field.tables.neg[R[: len(pivots), free].T]
    return basis


def _bit_rows(data: np.ndarray) -> list:
    """Each row of a 0/1 array with n columns as one Python int, column j at
    bit w - 1 - j, w = 8 * ceil(n / 8): a leading bit is a first nonzero column."""
    nb = -(-data.shape[1] // 8)
    buf = np.packbits(data, axis=1).tobytes()
    return [int.from_bytes(buf[i * nb:(i + 1) * nb], "big") for i in range(len(data))]


def _bit_array(bits, n: int) -> np.ndarray:
    """Inverse of _bit_rows: the ints as the rows of a 0/1 array with n columns."""
    nb = -(-n // 8)
    buf = b"".join(b.to_bytes(nb, "big") for b in bits)
    return np.unpackbits(np.frombuffer(buf, dtype=np.uint8).reshape(len(bits), nb), axis=1,
                         count=n)


def _reduce_bits(rows: np.ndarray, basis: dict) -> dict:
    """_reduce_ints on the rows of a 0/1 array as bit rows (_bit_rows)."""
    return _reduce_ints(_bit_rows(rows), basis)


def _reduce_ints(bits, basis: dict) -> dict:
    """The one GF(2) elimination loop: each bit row, one Python int whose
    leading bit is its first nonzero column, is XORed with the basis row or
    earlier new row under its leading bit until that bit is new.  Returns
    the new rows keyed by leading bit (bit_length), dropping rows that
    reduce to 0; the basis is unchanged."""
    new = {}
    for r in bits:
        while r:
            top = r.bit_length()
            b = basis.get(top) or new.get(top)
            if b is None:
                new[top] = r
                break
            r ^= b
    return new


def _back_clear(new: dict):
    """The rows _reduce_ints kept, one per leading bit, as the nonzero rows
    of the reduced echelon form: sorted first pivot column first, with each
    pivot bit cleared from the rows above it, last pivot first.  Returns
    the leading bits and the rows, in that order."""
    tops = sorted(new, reverse=True)
    bits = [new[top] for top in tops]
    for i in range(len(bits) - 1, 0, -1):
        bit, pivot = 1 << (tops[i] - 1), bits[i]
        bits[:i] = [b ^ pivot if b & bit else b for b in bits[:i]]
    return tops, bits


def rref_array(field: FieldSpec, data: np.ndarray):
    """Reduced row echelon form of a raw code array, with its pivot columns.

    The kernel is chosen by field and shape alone.  Over GF(2) each row is
    a bit row, one Python int with column j at bit w-1-j: _back_clear
    reduces the rows _reduce_bits keeps, and zero rows pad the result to m
    rows.  Over every other field an array of at most _LIST_CELLS cells
    runs _rref_lists and a larger one _rref_table.  The reduced echelon
    form is unique, so every kernel returns the same array, always a fresh
    uint8 one.
    """
    data = np.asarray(data, dtype=np.uint8)
    m, n = data.shape
    if field.q == 2:
        w = 8 * -(-n // 8)
        tops, bits = _back_clear(_reduce_bits(data, {}))
        return _bit_array(bits + [0] * (m - len(bits)), n), [w - top for top in tops]
    return (_rref_lists if m * n <= _LIST_CELLS else _rref_table)(field, data)


def _rref_lists(field: FieldSpec, data: np.ndarray, back=True):
    """rref_array off GF(2) on nested Python lists of the mul, sub and inv
    tables, one row at a time as _reduce_bits does: the row is reduced by
    the kept rows in the order kept, each 1 on its pivot and 0 on earlier
    pivots, so it ends 0 on every pivot; its first nonzero is scaled to 1,
    cleared from the kept rows only with back, and the row is kept.  Once
    n rows are kept every later row reduces to 0.  Without back only the
    pivots are returned."""
    mul, sub, inv = field.tables.lists
    m, n = data.shape
    kept = {}     # pivot column -> row
    for row in data.tolist():
        for col, prow in kept.items():
            f = row[col]
            if f:
                mf = mul[f]
                row = [sub[a][mf[b]] for a, b in zip(row, prow)]
        lead = next((j for j, a in enumerate(row) if a), None)
        if lead is None:
            continue
        if row[lead] != 1:
            scale = mul[inv[row[lead]]]
            row = [scale[a] for a in row]
        for col, prow in kept.items() if back else ():
            f = prow[lead]
            if f:
                mf = mul[f]
                kept[col] = [sub[a][mf[b]] for a, b in zip(prow, row)]
        kept[lead] = row
        if len(kept) == n:
            break
    pivots = sorted(kept)
    if not back:
        return None, pivots
    rows = [kept[col] for col in pivots] + [[0] * n] * (m - len(pivots))
    return np.array(rows, dtype=np.uint8).reshape(m, n), pivots


def _rref_table(field: FieldSpec, data: np.ndarray, back=True):
    """rref_array off GF(2) on numpy gathers from the field tables.  It
    stops once every row holds a pivot, and clears a pivot column by
    subtracting f * pivot row from every other row (without back, every
    row below) whose entry in it is f: the multiples f * row come from one
    of two gathers from t.mul, and one sub_data call subtracts them.  The
    clear runs in place on the block of rows from the column's first
    nonzero to its last (from `row + 1` on without back), the pivot row's
    factor set to 0; a zero factor inside the block subtracts nothing.
    With k rows in it, k >= q gathers the q multiples of the pivot row
    once, t.mul[:, row], and picks k of them; fewer gather their own
    factors' rows t.mul[f] and then the pivot row's columns, so a sparse
    column whose nonzeros lie close together costs k x w, not q x w.  It
    moves past columns with no pivot in one scan, so a wide array of low
    rank costs one step per pivot.  It swaps the live columns R[:, col:]
    alone, since the rows from `row` down are zero left of col, and with
    back it scales and clears only up to the pivot row's last nonzero
    column, past which the pivot row adds nothing: in [A | I] that is the
    identity columns of the rows pivoted so far, so a step clears about n
    columns, not 2n - col."""
    m, n = data.shape
    pivots, row, col = [], 0, 0
    t, q = field.tables, field.q
    R = data.copy()
    while col < n and row < m:
        nz = R[row:, col].nonzero()[0]
        if nz.size == 0:
            # No pivot here: jump to the next column with an entry at or below `row`.
            ahead = R[row:, col:].any(axis=0).nonzero()[0]
            if ahead.size == 0:
                break
            col += int(ahead[0])
            nz = R[row:, col].nonzero()[0]
        pr = row + int(nz[0])
        # The rows from `row` down are zero left of col; `live` is a view of R.
        live = R[:, col:]
        if pr != row:
            live[[row, pr]] = live[[pr, row]]
        if back:
            live = live[:, :live[row].nonzero()[0][-1] + 1]
        pv = live[row, 0]
        if pv != 1:
            live[row] = t.mul[t.inv[pv]][live[row]]
        lo = 0 if back else row + 1
        nz = live[lo:, 0].nonzero()[0]
        if nz.size > back:      # a row to clear
            top = lo + int(nz[0])
            block = live[top:lo + int(nz[-1]) + 1]
            f = block[:, 0]
            if back:
                f = f.copy()
                f[row - top] = 0
            prow = live[row]
            multiples = t.mul[:, prow][f] if q <= f.size else t.mul[f][:, prow]
            block[:] = sub_data(field, block, multiples)
        pivots.append(col)
        row += 1
        col += 1
    return R, pivots


class SpanAccumulator:
    """A span in GF(q)^n that grows a batch of rows at a time: the
    incremental echelon basis ("spinning") of Parker's MeatAxe (1984).

    A batch is reduced against the basis kept so far; the span is never
    eliminated again as a whole.  Over GF(2) each basis row is a bit row
    (see rref_array) kept under its leading bit, and a batch is reduced
    by _reduce_bits, the loop rref_array eliminates with.  Every
    other field keeps a fully reduced basis in one n x n array, each row 1
    on its own pivot column and 0 on the others, with the pivot list: a
    batch is reduced by one product and one sub_data, only its residual is
    eliminated, and one more product clears the old rows at the new
    pivots, only those nonzero there.  Both products are matmul_live's,
    over the live columns of their left operand alone: a batch spun from a
    coordinate vector is zero off one block or orbit, and so at most of
    the pivots, and the old rows are zero at most of the new pivots.  The
    basis is not canonical; a caller that needs the canonical form builds a
    Subspace from the rows that extend returned.
    """

    __slots__ = ("field", "n", "dim", "_bits", "_basis", "_pivots")

    def __init__(self, field: FieldSpec, n: int):
        self.field = field
        self.n = n
        self.dim = 0
        if field.q == 2:
            self._bits = {}
        else:
            self._basis = np.zeros((n, n), dtype=np.uint8)
            self._pivots = np.zeros(n, dtype=np.intp)

    def _rows(self, rows) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.uint8)
        if rows.ndim != 2 or rows.shape[1] != self.n:
            raise ValueError(f"expected rows of length {self.n}")
        return rows

    def _residual(self, rows) -> np.ndarray:
        """rows - rows[:, pivots] . basis: zero exactly on the rows inside."""
        if not self.dim:
            return rows
        pivots = self._pivots[:self.dim]
        return sub_data(self.field, rows,
                        matmul_live(self.field, rows[:, pivots], self._basis[:self.dim]))

    def _new_rows(self, rows):
        """Off GF(2): the nonzero rows of the residual's rref and their pivots."""
        R, pivots = rref_array(self.field, self._residual(rows))
        return R[:len(pivots)], pivots

    def _append(self, R, pivots) -> None:
        """Clear the basis at the new pivots, then add R's rows below it.
        Only the old rows nonzero at a new pivot change, so only those are
        gathered, updated and scattered back."""
        old, k = self.dim, len(pivots)
        if old and k:
            basis = self._basis[:old]
            at = basis[:, pivots]
            hit = np.flatnonzero(at.any(axis=1))
            if len(hit):
                basis[hit] = sub_data(self.field, basis[hit],
                                      matmul_live(self.field, at[hit], R))
        self._basis[old:old + k] = R
        self._pivots[old:old + k] = pivots
        self.dim = old + k

    def contains(self, vec) -> bool:
        row = self._rows(np.asarray(vec, dtype=np.uint8)[None, :])
        if self.field.q == 2:
            return not _reduce_bits(row, self._bits)
        return not np.any(self._residual(row))

    def extend(self, rows) -> np.ndarray:
        """Add the rows to the span; returns the reduced rows that joined the
        basis, in order, as many as the dimension grew by."""
        rows = self._rows(rows)
        if self.field.q == 2:
            new = _reduce_bits(rows, self._bits)
            self._bits.update(new)
            self.dim = len(self._bits)
            return _bit_array(new.values(), self.n)
        R, pivots = self._new_rows(rows)
        self._append(R, pivots)
        return R

    def try_add(self, rows) -> bool:
        """Add the rows when they are independent of each other and of the
        span, and return True; otherwise leave the span as it was."""
        rows = self._rows(rows)
        if self.field.q == 2:
            new = _reduce_bits(rows, self._bits)
            if len(new) < len(rows):
                return False
            self._bits.update(new)
            self.dim = len(self._bits)
            return True
        R, pivots = self._new_rows(rows)
        if len(pivots) < len(rows):
            return False
        self._append(R, pivots)
        return True


def random_codes(field, rng, shape) -> np.ndarray:
    """Uniform codes of GF(q) in a uint8 array of this shape.  The one draw
    format, uint64 integers in [0, q) from rng, fixes the stream behind
    every seeded output."""
    return rng.integers(0, field.q, size=shape, dtype=np.uint64).astype(np.uint8)


def random_matrix(field, rng, rows, cols=None) -> DenseMatrix:
    return DenseMatrix(field, random_codes(field, rng, (rows, rows if cols is None else cols)))


def random_invertible(field, rng, n) -> DenseMatrix:
    """The first invertible draw of random_matrix.  Each draw is tested by
    inverse(), one elimination of [A | I] (over GF(2) a singular draw stops
    after its forward pass), so the matrix returned already keeps its
    inverse and a later inverse() runs no elimination."""
    while True:
        m = random_matrix(field, rng, n)
        try:
            m.inverse()
        except SingularMatrixError:
            continue
        return m
