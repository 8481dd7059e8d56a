"""Reference arithmetic for checking linrep outputs, independent of linrep.

GF(p^d) is rebuilt here from its definition (codes are base-p digit
vectors, least significant first, reduced by the lexicographically
smallest monic irreducible modulus).  Elimination is plain Python on
lists of ints; `rank_np` counts pivots by forward elimination with numpy
row operations over this module's own tables, for inputs too large for
the pure-Python loop.
"""

from __future__ import annotations

import numpy as np


def _poly_rem(a, m, p):
    """Remainder of a modulo the monic m over GF(p); coefficient lists, constant first."""
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm:
        lead = a[-1] % p
        if lead:
            shift = len(a) - 1 - dm
            for i, c in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * c) % p
        a.pop()
    return [c % p for c in a]


def smallest_irreducible(p: int, d: int) -> tuple:
    """Lexicographically smallest (by base-p code) monic irreducible of degree d."""
    if d == 1:
        return (0, 1)
    for code in range(p**d):
        poly = [(code // p**i) % p for i in range(d)] + [1]
        divisible = False
        for dd in range(1, d // 2 + 1):
            for dcode in range(p**dd):
                div = [(dcode // p**i) % p for i in range(dd)] + [1]
                if not any(_poly_rem(poly, div, p)):
                    divisible = True
                    break
            if divisible:
                break
        if not divisible:
            return tuple(poly)
    raise ValueError(f"no irreducible of degree {d} over GF({p})")


class RefField:
    """GF(p^d) with q-by-q add and mul tables held as Python lists."""

    def __init__(self, p: int, d: int = 1):
        self.p, self.d, self.q = p, d, p**d
        q = self.q
        self.modulus = smallest_irreducible(p, d)
        pw = [p**i for i in range(d)]
        dig = [[(c // pw[i]) % p for i in range(d)] for c in range(q)]

        def code(ds):
            return sum(x * w for x, w in zip(ds, pw))

        self.add = [[code([(x + y) % p for x, y in zip(dig[a], dig[b])]) for b in range(q)]
                    for a in range(q)]
        self.neg = [code([(-x) % p for x in dig[a]]) for a in range(q)]
        scal = [[code([(c * x) % p for x in dig[e]]) for e in range(q)] for c in range(p)]

        def xtimes(c):
            ds = [0] + dig[c]
            top = ds.pop()
            return code([(x - top * mc) % p for x, mc in zip(ds, self.modulus)])

        self.mul = []
        for a in range(q):
            ax = [a]
            for _ in range(d - 1):
                ax.append(xtimes(ax[-1]))
            row = []
            for b in range(q):
                acc = 0
                for i in range(d):
                    if dig[b][i]:
                        acc = self.add[acc][scal[dig[b][i]][ax[i]]]
                row.append(acc)
            self.mul.append(row)
        self.inv = [0] * q
        for a in range(1, q):
            self.inv[a] = self.mul[a].index(1)
        self._np = None

    def np_tables(self):
        if self._np is None:
            self._np = (np.array(self.add, dtype=np.uint8), np.array(self.mul, dtype=np.uint8),
                        np.array(self.neg, dtype=np.uint8), np.array(self.inv, dtype=np.uint8))
        return self._np

    # -- pure-Python linear algebra on lists of rows --

    def rref(self, rows):
        """(reduced echelon rows without zero rows, pivot columns)."""
        add, mul, neg, inv = self.add, self.mul, self.neg, self.inv
        R = [list(map(int, r)) for r in rows]
        pivots = []
        top = 0
        ncols = len(R[0]) if R else 0
        for col in range(ncols):
            pr = next((i for i in range(top, len(R)) if R[i][col]), None)
            if pr is None:
                continue
            R[top], R[pr] = R[pr], R[top]
            s = inv[R[top][col]]
            prow = [mul[s][x] for x in R[top]]
            R[top] = prow
            for i in range(len(R)):
                if i != top and R[i][col]:
                    f = mul[neg[R[i][col]]]
                    R[i] = [add[x][f[y]] for x, y in zip(R[i], prow)]
            pivots.append(col)
            top += 1
            if top == len(R):
                break
        return R[:top], pivots

    def rank(self, rows) -> int:
        return len(self.rref(rows)[1])

    def matmul(self, a, b):
        add, mul = self.add, self.mul
        bt = list(zip(*b))
        out = []
        for row in a:
            mrows = [mul[x] for x in row]
            out_row = []
            for col in bt:
                acc = 0
                for mr, y in zip(mrows, col):
                    if y:
                        acc = add[acc][mr[y]]
                out_row.append(acc)
            out.append(out_row)
        return out

    def inverse(self, a):
        n = len(a)
        aug = [list(map(int, r)) + [int(i == j) for j in range(n)] for i, r in enumerate(a)]
        R, piv = self.rref(aug)
        if piv[:n] != list(range(n)):
            raise ValueError("singular")
        return [r[n:] for r in R]

    def lin_comb(self, coeffs, mats):
        """sum_i coeffs[i] * mats[i] for same-shape matrices."""
        add, mul = self.add, self.mul
        rows, cols = len(mats[0]), len(mats[0][0])
        out = [[0] * cols for _ in range(rows)]
        for c, m in zip(coeffs, mats):
            mc = mul[c]
            for i in range(rows):
                out[i] = [add[x][mc[y]] for x, y in zip(out[i], m[i])]
        return out

    # -- numpy-vectorized elimination over this module's own tables --

    def rank_np(self, data) -> int:
        add, mul, neg, inv = self.np_tables()
        R = np.array(data, dtype=np.uint8)
        m, n = R.shape
        top = 0
        for col in range(n):
            if top == m:
                break
            nz = np.flatnonzero(R[top:, col])
            if nz.size == 0:
                continue
            pr = top + int(nz[0])
            R[[top, pr]] = R[[pr, top]]
            R[top] = mul[inv[R[top, col]], R[top]]
            below = top + 1 + np.flatnonzero(R[top + 1:, col])
            if below.size:
                f = neg[R[below, col]]
                R[below] = add[R[below], mul[f[:, None], R[top][None, :]]]
            top += 1
        return top
