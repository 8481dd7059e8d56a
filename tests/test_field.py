import random
import tracemalloc

import pytest

from linrep.field import MAX_Q, FieldError, FieldSpec, FieldTables, default_modulus


def test_rejects_composite_characteristic():
    with pytest.raises(FieldError):
        FieldSpec(4)
    with pytest.raises(FieldError):
        FieldSpec(1)


def test_rejects_oversized_field():
    with pytest.raises(FieldError):
        FieldSpec(2, 9)  # q = 512 > MAX_Q
    assert FieldSpec(2, 8).q == MAX_Q


def test_huge_characteristic_or_degree_is_rejected_up_front():
    # Bounded before trial division and p**deg, neither of which would finish.
    with pytest.raises(FieldError):
        FieldSpec(2**61 - 1)    # a Mersenne prime
    with pytest.raises(FieldError):
        FieldSpec(2, 10**12)


def test_default_moduli_are_lex_smallest_irreducible():
    # x^2 + x + 1 over GF(2), x^3 + x + 1 over GF(2), x^2 + 1 over GF(3).
    assert default_modulus(2, 2) == (1, 1, 1)
    assert default_modulus(2, 3) == (1, 1, 0, 1)
    assert default_modulus(3, 2) == (1, 0, 1)


def test_rejects_reducible_modulus():
    with pytest.raises(FieldError):
        FieldSpec(2, 2, (0, 0, 1))  # x^2 = x * x
    with pytest.raises(FieldError):
        FieldSpec(2, 2, (1, 0, 1))  # x^2 + 1 = (x+1)^2 over GF(2)


@pytest.mark.parametrize("p,deg", [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2)])
def test_field_axioms_exhaustive(p, deg):
    f = FieldSpec(p, deg)
    q = f.q
    for a in range(q):
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in range(q):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in range(q):
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_prime_subfield_agrees_with_integer_arithmetic():
    f7 = FieldSpec(7)
    for a in range(7):
        for b in range(7):
            assert f7.add(a, b) == (a + b) % 7
            assert f7.mul(a, b) == (a * b) % 7
            assert f7.sub(a, b) == (a - b) % 7


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        FieldSpec(2).inv(0)


def test_json_round_trip():
    f = FieldSpec(2, 4)
    g = FieldSpec.from_json(f.to_json())
    assert g == f and g.modulus == f.modulus


def test_frobenius_in_characteristic_p():
    # (a + b)^p = a^p + b^p, a quick structural sanity check on GF(9).
    f = FieldSpec(3, 2)

    def power(a, e):
        out = 1
        for _ in range(e):
            out = f.mul(out, a)
        return out

    for a in range(9):
        for b in range(9):
            assert power(f.add(a, b), 3) == f.add(power(a, 3), power(b, 3))


def _prime_powers(limit):
    primes = [p for p in range(2, limit + 1) if all(p % d for d in range(2, p))]
    return [(p, deg) for p in primes for deg in range(1, 9) if p**deg <= limit]


# Non-default irreducible moduli: x^8 + x^4 + x^3 + x^2 + 1, x^2 + x + 2,
# x^2 + x + 1 over GF(5) and x^4 + x^3 + 1.
_OTHER_MODULI = [(2, 8, (1, 0, 1, 1, 1, 0, 0, 0, 1)), (3, 2, (2, 1, 1)), (5, 2, (1, 1, 1)),
                 (2, 4, (1, 0, 0, 1, 1))]


@pytest.mark.parametrize("p, deg, modulus",
                         [(p, deg, None) for p, deg in _prime_powers(MAX_Q)] + _OTHER_MODULI,
                         ids=lambda v: "default" if v is None else str(v))
def test_tables_match_schoolbook_polynomial_arithmetic(p, deg, modulus):
    f = FieldSpec(p, deg, modulus)
    q, mod = f.q, f.modulus
    assert modulus is None or modulus != default_modulus(p, deg)

    def coeffs(c):
        return [c // p**i % p for i in range(deg)]

    def code(poly):
        return sum(c % p * p**i for i, c in enumerate(poly))

    def times(a, b):
        prod = [0] * (2 * deg - 1)
        for i, x in enumerate(coeffs(a)):
            for j, y in enumerate(coeffs(b)):
                prod[i + j] += x * y
        # x^deg = -(mod[0] + mod[1] x + ... + mod[deg-1] x^(deg-1)), top power first.
        for top in range(2 * deg - 2, deg - 1, -1):
            for i in range(deg):
                prod[top - deg + i] -= prod[top] * mod[i]
        return code(prod[:deg])

    t = f.tables
    for name, shape, dtype in [("add", (q, q), "uint8"), ("sub", (q, q), "uint8"),
                               ("mul", (q, q), "uint8"), ("neg", (q,), "uint8"),
                               ("inv", (q,), "uint8"), ("digits", (q, deg), "int64"),
                               ("xdigits", (q, deg, deg), "int64")]:
        table = getattr(t, name)
        assert (table.shape, table.dtype, table.flags.c_contiguous) == (shape, dtype, True), name
    for c in range(q):
        assert t.digits[c].tolist() == coeffs(c)
        assert t.xdigits[c].tolist() == [coeffs(times(c, p**i)) for i in range(deg)]
        assert t.neg[c] == code([-x for x in coeffs(c)])
        assert times(c, int(t.inv[c])) == 1 if c else t.inv[c] == 0
    # Every pair on the small fields, a seeded sample of pairs on the others.
    rng = random.Random(q)
    pairs = ([(a, b) for a in range(q) for b in range(q)] if q <= 32
             else [(rng.randrange(q), rng.randrange(q)) for _ in range(600)])
    for a, b in pairs:
        ca, cb = coeffs(a), coeffs(b)
        assert t.add[a, b] == code([x + y for x, y in zip(ca, cb)])
        assert t.sub[a, b] == code([x - y for x, y in zip(ca, cb)])
        assert t.mul[a, b] == times(a, b)


def test_gf256_table_build_stays_on_q_by_q_arrays():
    # Built directly, not through the cached FieldSpec.tables.  Reducing
    # (q, q, deg) int64 digit tensors here peaks at about 8.3 MiB; the XOR
    # rounds on (q, q) uint8 arrays stay under 1 MiB.
    spec = FieldSpec(2, 8)
    tracemalloc.start()
    try:
        FieldTables(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
