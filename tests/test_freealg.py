import pytest
from hypothesis import given, strategies as st

from linrep.field import GF2, FieldSpec
from linrep.freealg import (AlgebraElement, AlgebraMatrix, ParseError, Word,
                            parse_element, reduce_letters)

F3 = FieldSpec(3)

letters = st.lists(st.tuples(st.integers(1, 3), st.sampled_from([1, -1])),
                   max_size=12)


@given(letters)
def test_reduction_is_idempotent(ls):
    once = reduce_letters(ls)
    assert reduce_letters(once) == once
    Word(once)  # constructible, i.e. actually reduced


@given(letters, st.integers(0, 11), st.integers(1, 3), st.sampled_from([1, -1]))
def test_reduction_invariant_under_cancelling_insertion(ls, pos, gen, exp):
    pos = min(pos, len(ls))
    padded = list(ls[:pos]) + [(gen, exp), (gen, -exp)] + list(ls[pos:])
    assert reduce_letters(padded) == reduce_letters(ls)


@given(letters, letters, letters)
def test_word_multiplication_associative(a, b, c):
    u, v, w = Word.from_letters(a), Word.from_letters(b), Word.from_letters(c)
    assert (u * v) * w == u * (v * w)


@given(letters)
def test_inverse_cancels(ls):
    w = Word.from_letters(ls)
    inverse = Word(tuple((i, -e) for i, e in reversed(w.letters)))
    assert w * inverse == Word.identity()
    assert inverse * w == Word.identity()


def test_word_rejects_unreduced_input():
    with pytest.raises(ValueError):
        Word(((1, 1), (1, -1)))


def test_word_str_compresses_runs():
    w = Word.generator(1, 3) * Word.generator(2, -2)
    assert str(w) == "g1^3*g2^-2"
    assert str(Word.identity()) == "e"


def test_algebra_ring_identities():
    a = parse_element("g1 + g2", F3, 2)
    b = parse_element("2*g1^-1 + e", F3, 2)
    c = parse_element("g1*g2 - g2*g1", F3, 2)
    zero = AlgebraElement.zero(F3, 2)
    assert a + zero == a
    assert a - a == zero
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a - (b - c) == (a - b) + c


def test_augmentation_ideal_element():
    # gamma - 1 is killed by the trivial representation's character: the sum
    # of coefficients vanishes.
    e = parse_element("g1 - e", GF2, 1)
    total = 0
    for _, c in e.terms.items():
        total = GF2.add(total, c)
    assert total == 0


def test_characteristic_collapses_coefficients():
    e = parse_element("g1 + g1", GF2, 1)
    assert not e.terms
    e3 = parse_element("g1 + g1 + g1", F3, 1)
    assert not e3.terms


def test_parse_examples():
    e = parse_element("g1*g2^-1 + 2*e - g1", F3, 2)
    assert str(e) == "2 + 2*g1 + g1*g2^-1"
    assert parse_element("g1*g1^-1", GF2, 1) == AlgebraElement(GF2, 1, {Word.identity(): 1})


@pytest.mark.parametrize("bad,pos_range", [
    ("g0", (0, 2)),
    ("g1 +", (4, 5)),
    ("h1", (0, 1)),
    ("g1 ** g2", (4, 6)),
    ("g1 g2", (3, 4)),
    ("", (0, 1)),
    ("g4", (0, 2)),            # generator index beyond r
])
def test_parse_errors_carry_position(bad, pos_range):
    with pytest.raises(ParseError) as exc:
        parse_element(bad, F3, 3)
    assert pos_range[0] <= exc.value.pos <= pos_range[1]


def test_algebra_matrix_blocks():
    a = AlgebraMatrix.scalar(F3, 1, 2, parse_element("g1", F3, 1))
    b = AlgebraMatrix.scalar(F3, 1, 1, parse_element("e", F3, 1))
    zero = AlgebraElement.zero(F3, 1)
    d = AlgebraMatrix(F3, 1, [row + [zero] for row in a.entries] + [[zero, zero] + b.entries[0]])
    assert d.n == 3
    assert d.entries[0][0] == parse_element("g1", F3, 1)
    assert d.entries[2][2] == parse_element("e", F3, 1)
    assert not d.entries[0][2].terms
