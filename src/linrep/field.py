"""Exact arithmetic in GF(p^d) with integer-coded elements.

An element of GF(p^d) is stored as a single integer in [0, q): the
coefficient vector of the element in the power basis, packed base p with
the least-significant coefficient first.  All arithmetic is table-driven
so that bulk matrix operations can run as numpy fancy indexing.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache

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
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p) if p > 2 else m[-1]
    while len(a) - 1 >= dm and any(a):
        shift = len(a) - 1 - dm
        factor = (a[-1] * inv_lead) % p
        for i, c in enumerate(m):
            a[shift + i] = (a[shift + i] - factor * c) % p
        while len(a) > 1 and a[-1] == 0:
            a.pop()
    return a


def _is_irreducible(poly, p):
    """Trial division by all monic polynomials of degree <= deg/2."""
    deg = len(poly) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        # All monic polynomials of degree d over GF(p).
        for code in range(p**d):
            divisor = [(code // p**i) % p for i in range(d)] + [1]
            if _poly_divides(divisor, poly, p):
                return False
    return True


def _poly_divides(d, a, p):
    rem = _poly_mod(a, d, p)
    return rem == [0]


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

    @property
    def tables(self) -> "FieldTables":
        return _tables(self)

    def add(self, a: int, b: int) -> int:
        return int(self.tables.add[a, b])

    def sub(self, a: int, b: int) -> int:
        return int(self.tables.add[a, self.tables.neg[b]])

    def mul(self, a: int, b: int) -> int:
        return int(self.tables.mul[a, b])

    def neg(self, a: int) -> int:
        return int(self.tables.neg[a])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in GF(q)")
        return int(self.tables.inv[a])


class FieldTables:
    """Dense q-by-q operation tables for one FieldSpec."""

    def __init__(self, spec: FieldSpec):
        p, deg, q = spec.p, spec.deg, spec.q
        codes = np.arange(q)
        # Digit matrix: digits[c, i] = i-th base-p coefficient of code c.
        digits = np.zeros((q, deg), dtype=np.int64)
        rest = codes.copy()
        for i in range(deg):
            digits[:, i] = rest % p
            rest //= p
        powers = p ** np.arange(deg)

        add_digits = (digits[:, None, :] + digits[None, :, :]) % p
        self.add = (add_digits @ powers).astype(np.uint8)
        self.neg = (((-digits) % p) @ powers).astype(np.uint8)
        # sub[a, b] = a - b; matrix.sub_data gathers from it by flat index.
        self.sub = self.add[:, self.neg]

        # xtimes[c] = code of x * element(c) reduced by the modulus.
        mod = list(spec.modulus)
        xtimes = np.empty(q, dtype=np.int64)
        for c in range(q):
            poly = [int(digits[c, i]) for i in range(deg)]
            shifted = [0] + poly
            red = _poly_mod(shifted, mod, p) if len(shifted) - 1 >= deg else shifted
            red = (red + [0] * deg)[:deg]
            xtimes[c] = sum(red[i] * p**i for i in range(deg))

        # mul[a, b] = sum_i b_i * (a * x^i), accumulated with the add table.
        # xdigits[c, i, j] = j-th base-p coefficient of x^i * element(c), so
        # digit j of a * b is sum_i digits[a, i] * xdigits[b, i, j] mod p:
        # the digit-plane product of matrix.matmul_data.
        scalar_mul = np.zeros((p, q), dtype=np.int64)
        for c in range(p):
            scalar_mul[c] = ((c * digits) % p) @ powers
        a_xi = codes.copy()
        mul = np.zeros((q, q), dtype=np.uint8)
        xdigits = np.zeros((q, deg, deg), dtype=np.int64)
        for i in range(deg):
            xdigits[:, i, :] = digits[a_xi]
            partial = scalar_mul[digits[:, i][None, :].repeat(q, axis=0),
                                 a_xi[:, None].repeat(q, axis=1)]
            mul = self.add[mul, partial.astype(np.uint8)]
            a_xi = xtimes[a_xi]
        self.mul = mul
        self.digits = digits
        self.xdigits = xdigits

        inv = np.zeros(q, dtype=np.uint8)
        rows, cols = np.nonzero(mul == 1)
        inv[rows] = cols
        self.inv = inv


@lru_cache(maxsize=None)
def _tables(spec: FieldSpec) -> FieldTables:
    return FieldTables(spec)


GF2 = FieldSpec(2)
