"""Exact arithmetic in GF(p^d) with integer-coded elements.

An element of GF(p^d) is stored as a single integer in [0, q): the
coefficient vector of the element in the power basis, packed base p with
the least-significant coefficient first.  All arithmetic is table-driven
so that bulk matrix operations can run as numpy fancy indexing.  Each
field family builds its q x q tables on (q, q) arrays, the way its
kernels in matrix.py compute.  In characteristic 2 a + b is the XOR of
the codes, and a * b the XOR, over the set bits i of b, of the code of
x^i * a.  In GF(p) the tables are the residues of sums and products of
the codes.  In odd extensions digit j of a * b is the sum over i of
digit_i(b) * digit_j(x^i a) mod p, the identity matrix.matmul_data
multiplies odd-extension matrices by.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache

import numpy as np

MAX_Q = 256


class FieldError(ValueError):
    pass


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _poly_mod(a, m, p):
    """Remainder of a modulo the monic m over GF(p), constant terms first."""
    a = list(a)
    dm = len(m) - 1
    for top in range(len(a) - 1, dm - 1, -1):
        factor = a[top]
        for i, c in enumerate(m):
            a[top - dm + i] = (a[top - dm + i] - factor * c) % p
    return a[:dm]


def _is_irreducible(poly, p):
    """Trial division by all monic polynomials of degree <= deg/2."""
    for d in range(1, (len(poly) - 1) // 2 + 1):
        for code in range(p**d):    # all monic polynomials of degree d
            if not any(_poly_mod(poly, [(code // p**i) % p for i in range(d)] + [1], p)):
                return False
    return True


@lru_cache(maxsize=None)
def default_modulus(p: int, deg: int) -> tuple:
    """Lexicographically smallest monic irreducible of given degree over GF(p)."""
    if deg == 1:
        return (0, 1)
    for code in range(p**deg):
        poly = [(code // p**i) % p for i in range(deg)] + [1]
        if _is_irreducible(poly, p):
            return tuple(poly)
    raise FieldError(f"no irreducible polynomial of degree {deg} over GF({p})")


def json_typed(value, kind: type, name: str):
    """`value` if it is a JSON `kind` (list, int or bool; a bool is no int), else ValueError."""
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"expected {name} to be a JSON {kind.__name__}")
    return value


@dataclass(frozen=True)
class FieldSpec:
    """A finite field GF(p^deg) with an explicit irreducible modulus.

    The modulus is a monic degree-`deg` polynomial over GF(p), given as a
    coefficient list of length deg+1 (constant term first).
    """

    p: int
    deg: int = 1
    modulus: tuple = dc_field(default=None)

    def __post_init__(self):
        # Bounds first (q >= 2^deg): trial division or p**deg never ends on a huge p or deg.
        if not (self.p <= MAX_Q and _is_prime(self.p)):
            raise FieldError(f"p = {self.p} is not a prime up to {MAX_Q}")
        if not 1 <= self.deg < MAX_Q.bit_length() or self.q > MAX_Q:
            raise FieldError(f"GF({self.p}^{self.deg}) needs deg >= 1 and q <= {MAX_Q}")
        if self.modulus is None:
            object.__setattr__(self, "modulus", default_modulus(self.p, self.deg))
        else:
            object.__setattr__(self, "modulus", tuple(int(c) % self.p for c in self.modulus))
            if len(self.modulus) != self.deg + 1 or self.modulus[-1] != 1:
                raise FieldError("modulus must be monic of degree deg")
            if self.deg > 1 and not _is_irreducible(list(self.modulus), self.p):
                raise FieldError("modulus is reducible")

    @property
    def q(self) -> int:
        return self.p**self.deg

    def to_json(self) -> dict:
        return {"p": self.p, "deg": self.deg, "modulus": list(self.modulus)}

    @staticmethod
    def from_json(obj) -> "FieldSpec":
        if not isinstance(obj, dict):
            raise ValueError('a field must be an object {"p": prime, "deg": degree}')
        modulus = [json_typed(c, int, '"modulus" entries')
                   for c in json_typed(obj.get("modulus", []), list, '"modulus"')]
        return FieldSpec(json_typed(obj["p"], int, '"p"'),
                         json_typed(obj.get("deg", 1), int, '"deg"'), tuple(modulus) or None)

    # -- element-level arithmetic (tables built lazily, cached per spec) --

    @cached_property
    def tables(self) -> "FieldTables":
        # Kept on the instance after the first read; the shared builder
        # gives equal specs one FieldTables.
        return _tables(self)

    def add(self, a: int, b: int) -> int:
        return int(self.tables.add[a, b])

    def sub(self, a: int, b: int) -> int:
        return int(self.tables.sub[a, b])

    def mul(self, a: int, b: int) -> int:
        return int(self.tables.mul[a, b])

    def neg(self, a: int) -> int:
        return int(self.tables.neg[a])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in GF(q)")
        return int(self.tables.inv[a])


class FieldTables:
    """Dense q-by-q operation tables for one FieldSpec, built per field family.

    digits[c, i] is the i-th base-p coefficient of code c, and xdigits[c, i, j]
    the j-th coefficient of x^i * element(c); matrix.matmul_data multiplies
    odd-extension matrices with these two arrays, and the same identity
    builds their mul table.  Characteristic 2 reads the codes of x^i * a off
    xdigits; GF(p) needs neither array.
    """

    def __init__(self, spec: FieldSpec):
        p, deg, q = spec.p, spec.deg, spec.q
        powers = p ** np.arange(deg)
        digits = np.arange(q)[:, None] // powers % p
        # x^i c from x^(i-1) c: shift every coefficient up one place, and the
        # top one, at x^deg, becomes minus that multiple of the monic modulus.
        xdigits = np.zeros((q, deg, deg), dtype=np.int64)
        xdigits[:, 0] = digits
        for i in range(1, deg):
            prev = xdigits[:, i - 1]
            xdigits[:, i, 1:] = prev[:, :-1]
            xdigits[:, i] = (xdigits[:, i] - prev[:, -1:] * spec.modulus[:deg]) % p
        self.digits = digits
        self.xdigits = xdigits

        if p == 2:
            codes = np.arange(q, dtype=np.uint8)
            # Addition is XOR and b = sum of bit_i(b) x^i, so a * b is the XOR,
            # over the set bits i of b, of the code of x^i * a.
            self.add = np.bitwise_xor.outer(codes, codes)
            self.neg = codes
            xcodes = (xdigits @ powers).astype(np.uint8)
            self.mul = np.zeros((q, q), dtype=np.uint8)
            for i in range(deg):
                self.mul ^= np.multiply.outer(xcodes[:, i], codes >> i & 1)
        elif deg == 1:
            # Row a of add is the window from a of the residues of 0, 1, ..., 2p - 2;
            # uint16 holds every product of two residues, (p - 1)^2 < 2^16.
            codes = np.arange(q, dtype=np.uint16)
            residues = (np.arange(2 * q - 1) % p).astype(np.uint8)
            self.add = np.lib.stride_tricks.sliding_window_view(residues, q).copy()
            self.neg = ((p - codes) % p).astype(np.uint8)
            self.mul = (np.multiply.outer(codes, codes) % p).astype(np.uint8)
        else:
            self.add = ((digits[:, None] + digits) % p @ powers).astype(np.uint8)
            self.neg = (-digits % p @ powers).astype(np.uint8)
            # mul[a, b] digit j = sum_i digits[b, i] * xdigits[a, i, j] mod p.
            self.mul = ((digits @ xdigits) % p @ powers).astype(np.uint8)
        # sub[a, b] = a - b; matrix.sub_data gathers from it by flat index.
        self.sub = self.add.take(self.neg, axis=1)
        # Row a of mul holds 1 at column a^-1; row 0 holds none, and argmax reads 0.
        self.inv = (self.mul == 1).argmax(axis=1).astype(np.uint8)

    @cached_property
    def lists(self) -> tuple:
        """(mul, sub, inv) as nested Python lists, built on first use: the
        tables matrix.rref_array eliminates tiny arrays on, where one list
        index costs less than one numpy call."""
        return self.mul.tolist(), self.sub.tolist(), self.inv.tolist()


@lru_cache(maxsize=None)
def _tables(spec: FieldSpec) -> FieldTables:
    return FieldTables(spec)


GF2 = FieldSpec(2)
