"""Free-group words, group-algebra elements, and matrices over them.

Words are kept reduced at all times so they can serve as dict keys in the
term maps of algebra elements.  The textual grammar is:

    elem  := term (('+'|'-') term)*
    term  := [coeff '*'] wordpart
    wordpart := 'e' | gen ('*' gen)*
    gen   := 'g' digit+ ['^' ['-'] digit+]
    coeff := digit+

A wordpart may spell at most MAX_WORD_LETTERS letters, counted before
free reduction (g1^3 spells three); an exponent that takes a word past
that raises ParseError, so a parse costs at most that many letters per
generator in the text.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import FieldSpec


# The most letters one wordpart may spell (see the grammar above).
MAX_WORD_LETTERS = 1 << 16


class ParseError(ValueError):
    """Syntax error with a character position."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


@dataclass(frozen=True)
class Word:
    """A reduced word in F_r: letters are (generator index >= 1, exponent +-1)."""

    letters: tuple = ()

    def __post_init__(self):
        for (i, e) in self.letters:
            if i < 1 or e not in (1, -1):
                raise ValueError("letters must be (index >= 1, +-1)")
        for a, b in zip(self.letters, self.letters[1:]):
            if a[0] == b[0] and a[1] == -b[1]:
                raise ValueError("word is not reduced")

    @staticmethod
    def identity() -> "Word":
        return Word(())

    @staticmethod
    def generator(i: int, exponent: int = 1) -> "Word":
        if exponent == 0:
            return Word(())
        sign = 1 if exponent > 0 else -1
        return Word(tuple((i, sign) for _ in range(abs(exponent))))

    @staticmethod
    def from_letters(letters) -> "Word":
        return Word(reduce_letters(letters))

    @property
    def length(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(reduce_letters(self.letters + other.letters))

    def max_generator(self) -> int:
        return max((i for (i, _) in self.letters), default=0)

    def __str__(self):
        if not self.letters:
            return "e"
        parts = []
        idx = 0
        while idx < len(self.letters):
            i, e = self.letters[idx]
            run = 1
            while idx + run < len(self.letters) and self.letters[idx + run] == (i, e):
                run += 1
            exp = e * run
            parts.append(f"g{i}" if exp == 1 else f"g{i}^{exp}")
            idx += run
        return "*".join(parts)


def reduce_letters(letters) -> tuple:
    """Free reduction by a stack pass; confluent regardless of input order."""
    out = []
    for (i, e) in letters:
        if out and out[-1][0] == i and out[-1][1] == -e:
            out.pop()
        else:
            out.append((i, e))
    return tuple(out)


class AlgebraElement:
    """An element of the group algebra KF_r: finite map Word -> nonzero Scalar."""

    __slots__ = ("field", "r", "terms")

    def __init__(self, field: FieldSpec, r: int, terms=None):
        self.field = field
        self.r = r
        clean = {}
        for w, c in (terms or {}).items():
            c = int(c)
            if field.deg == 1:
                c %= field.q
            elif not 0 <= c < field.q:
                raise ValueError(f"coefficient {c} out of range [0, {field.q})")
            if c:
                if w.max_generator() > r:
                    raise ValueError(f"generator index {w.max_generator()} exceeds r={r}")
                clean[w] = c
        self.terms = clean

    # -- constructors --

    @classmethod
    def zero(cls, field, r):
        return cls(field, r, {})

    def _check(self, other):
        if self.field != other.field or self.r != other.r:
            raise ValueError("algebra mismatch")

    def __eq__(self, other):
        return (isinstance(other, AlgebraElement) and self.field == other.field
                and self.r == other.r and self.terms == other.terms)

    def __hash__(self):
        return hash((self.field, self.r, tuple(sorted(self.terms.items(), key=lambda t: str(t[0])))))

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = self.field.add(out.get(w, 0), c)
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        return AlgebraElement(self.field, self.r, out)

    def __neg__(self):
        return AlgebraElement(self.field, self.r,
                              {w: self.field.neg(c) for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=lambda w: (w.length, str(w))):
            c = self.terms[w]
            if w.length == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(str(w))
            else:
                parts.append(f"{c}*{w}")
        return " + ".join(parts)

    __repr__ = __str__


class AlgebraMatrix:
    """A square matrix over KF_r."""

    __slots__ = ("field", "r", "n", "entries")

    def __init__(self, field, r, entries):
        self.field = field
        self.r = r
        self.entries = [list(row) for row in entries]
        self.n = len(self.entries)
        for row in self.entries:
            if len(row) != self.n:
                raise ValueError("matrix must be square")
            for e in row:
                if e.field != field or e.r != r:
                    raise ValueError("entry algebra mismatch")

    @classmethod
    def scalar(cls, field, r, n, element):
        zero = AlgebraElement.zero(field, r)
        return cls(field, r, [[element if i == j else zero for j in range(n)]
                              for i in range(n)])


# -- parsing --

class Scanner:
    """Cursor over the text of a parse; each token read skips whitespace first."""

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def startswith(self, s):
        self.skip_ws()
        return self.text.startswith(s, self.pos)

    def take(self, s):
        if not self.startswith(s):
            raise ParseError(f"expected {s!r}", self.pos)
        self.pos += len(s)

    def number(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected digits", start)
        try:
            return int(self.text[start:self.pos])
        except ValueError:   # past int()'s digit limit, or a digit int() does not read
            raise ParseError("unreadable number", start) from None


def parse_element(text: str, field: FieldSpec, r: int) -> AlgebraElement:
    """Parse the group-algebra grammar; round-trips with str() for words of
    at most MAX_WORD_LETTERS letters.  The terms are summed in one dict and
    each word is reduced once from all its letters, so a parse is linear in
    its text."""
    sc = Scanner(text)
    terms, sign = {}, "+"
    while True:
        coeff, word = _parse_term(sc, field, r)
        if sign == "-":
            coeff = field.neg(coeff)
        if word in terms:
            coeff = field.add(terms[word], coeff)
        terms[word] = coeff   # a zero sum is dropped by AlgebraElement
        sign = sc.peek()
        if sign not in ("+", "-"):
            break
        sc.take(sign)
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise ParseError(f"unexpected {sc.text[sc.pos]!r}", sc.pos)
    return AlgebraElement(field, r, terms)


def _parse_term(sc, field, r):
    """(coefficient, word) of one term."""
    coeff = 1
    if sc.peek().isdigit():
        coeff = sc.number() % field.q if field.deg == 1 else sc.number()
        if coeff >= field.q:
            raise ParseError(f"coefficient {coeff} out of range [0, {field.q})", sc.pos)
        if sc.peek() == "*":
            sc.take("*")
        else:
            return coeff, Word.identity()
    return coeff, _parse_wordpart(sc, r)


def _parse_wordpart(sc, r):
    if sc.peek() == "e":
        sc.take("e")
        return Word.identity()
    letters = list(_parse_gen(sc, r, MAX_WORD_LETTERS))
    while sc.peek() == "*":
        sc.take("*")
        letters.extend(_parse_gen(sc, r, MAX_WORD_LETTERS - len(letters)))
    return Word.from_letters(letters)


def _parse_gen(sc, r, room):
    """The letters of one gen, at most room of them."""
    pos = sc.pos
    if sc.peek() != "g":
        raise ParseError("expected generator 'g<digits>'", sc.pos)
    sc.take("g")
    idx = sc.number()
    if idx < 1 or idx > r:
        raise ParseError(f"generator index {idx} out of range [1, {r}]", pos)
    sign, count = 1, 1
    if sc.peek() == "^":
        sc.take("^")
        if sc.peek() == "-":
            sc.take("-")
            sign = -1
        count = sc.number()
    if count > room:
        raise ParseError(f"word longer than {MAX_WORD_LETTERS} letters", pos)
    return ((idx, sign),) * count
