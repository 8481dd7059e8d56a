import pytest
from hypothesis import given, strategies as st

from linrep import freealg
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


def _word_text(letters):
    return "*".join(f"g{i}" if e == 1 else f"g{i}^-1" for i, e in letters) or "e"


@given(st.lists(st.tuples(st.sampled_from("+-"), st.integers(0, 255), letters),
                min_size=1, max_size=6),
       st.sampled_from([GF2, F3, FieldSpec(2, 2), FieldSpec(3, 2)]))
def test_parse_sums_its_terms_as_the_ring_does(terms, field):
    # Repeated words, signs, zero and cancelling coefficients and unreduced
    # letter runs, against the sum of one-term elements.
    text, want = "", AlgebraElement.zero(field, 3)
    for idx, (sign, c, ls) in enumerate(terms):
        c %= field.q
        term = AlgebraElement(field, 3, {Word.from_letters(ls): c})
        want = want - term if idx and sign == "-" else want + term
        text += (f" {sign} " if idx else "") + f"{c}*{_word_text(ls)}"
    assert parse_element(text, field, 3) == want


def test_parse_builds_one_element_and_reduces_each_word_once(monkeypatch):
    # Summing term by term would build an element per term and reduce a
    # word per factor; the parse is linear in its text instead.
    counts = {"elements": 0, "reductions": 0}
    init, reduce = AlgebraElement.__init__, freealg.reduce_letters

    def counted_init(self, *args, **kwargs):
        counts["elements"] += 1
        init(self, *args, **kwargs)

    def counted_reduce(ls):
        counts["reductions"] += 1
        return reduce(ls)
    monkeypatch.setattr(AlgebraElement, "__init__", counted_init)
    monkeypatch.setattr(freealg, "reduce_letters", counted_reduce)
    e = parse_element("g1*g2*g2^-1*g1 + 2*g2^-1*g1^3 + g1*g1 + g2*g1^-1*g1 - 2*g2^-1*g1^3", F3, 2)
    assert counts == {"elements": 1, "reductions": 5}
    assert e.terms == {Word.generator(1, 2): 2, Word.generator(2): 1}
    counts.update(elements=0, reductions=0)
    long = parse_element("*".join(["g1"] * 2000) + " - 1", F3, 1)
    assert counts == {"elements": 1, "reductions": 1}
    assert long.terms == {Word.generator(1, 2000): 1, Word.identity(): 2}


@pytest.mark.parametrize("field", [FieldSpec(2, 2), FieldSpec(3, 2)])
def test_extension_field_coefficients_must_be_codes(field):
    # A code of GF(p^d) is a digit vector, so it is not reduced mod q: an
    # integer outside [0, q) is an error.  GF(p) reduces any integer mod p.
    g1 = Word.generator(1)
    for c in (field.q, field.q + 3, -1):
        with pytest.raises(ValueError, match="out of range"):
            AlgebraElement(field, 1, {g1: c})
    assert AlgebraElement(field, 1, {g1: field.q - 1, Word.identity(): 0}).terms == {
        g1: field.q - 1}
    assert AlgebraElement(F3, 1, {g1: 7}).terms == {g1: 1}
    assert AlgebraElement(F3, 1, {g1: -1}).terms == {g1: 2}


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
