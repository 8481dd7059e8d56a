"""Noncommutative rational expressions: AST, evaluation, equivalence sampling.

Grammar:

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := 'z' digit+ | const | 'inv' '(' expr ')' | '(' expr ')'

Subtraction desugars to addition of a product led by a -1 marker, keeping
the AST to constants, variables, sums, products, and inverses.  A constant
c stands for c times the identity, c a code of the field the matrices are
over (see linrep.field), and the marker for that field's -1: over
GF(3^5) the constant 5 is 2 + x, not 5 mod 3.

Evaluation recurses over the raw code arrays of the point (the array
primitives of linrep.matrix) and wraps only its result in a DenseMatrix;
equivalence sampling draws its points as arrays and builds matrices only
for a counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import MAX_Q, FieldSpec
from .freealg import ParseError, Scanner
from .matrix import (DenseMatrix, SingularMatrixError, add_data, inverse_data,
                     matmul_data, random_codes, scale_data)


@dataclass(frozen=True)
class Const:
    code: int


@dataclass(frozen=True)
class Var:
    index: int

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("variable index must be >= 1")


@dataclass(frozen=True)
class Sum:
    parts: tuple

    def __post_init__(self):
        if not self.parts:
            raise ValueError("empty sum")


@dataclass(frozen=True)
class Prod:
    parts: tuple

    def __post_init__(self):
        if not self.parts:
            raise ValueError("empty product")


@dataclass(frozen=True)
class Inv:
    arg: object


def max_variable(expr) -> int:
    if isinstance(expr, Var):
        return expr.index
    if isinstance(expr, (Sum, Prod)):
        return max(max_variable(p) for p in expr.parts)
    if isinstance(expr, Inv):
        return max_variable(expr.arg)
    return 0


@dataclass
class EvalResult:
    """Either a value, or the AST path to the Inv whose argument was singular."""

    value: DenseMatrix | None = None
    failure_path: tuple | None = None

    @property
    def ok(self) -> bool:
        return self.value is not None


def evaluate(expr, matrices: list) -> EvalResult:
    """Bottom-up evaluation on an r-tuple of same-size square matrices."""
    if not matrices:
        raise ValueError("need at least one matrix")
    field = matrices[0].field
    n = matrices[0].rows
    for m in matrices:
        if m.field != field or m.rows != n or m.cols != n:
            raise ValueError("matrices must share field and size")
    if max_variable(expr) > len(matrices):
        raise ValueError("expression uses more variables than matrices supplied")
    try:
        value = _eval(expr, [m.data for m in matrices], field, n, ())
    except _Singular as exc:
        return EvalResult(failure_path=exc.path)
    return EvalResult(DenseMatrix(field, value))


class _Singular(Exception):
    """An Inv whose argument is singular at the point; path is its AST path."""

    def __init__(self, path: tuple):
        super().__init__(path)
        self.path = path


def _eval(expr, mats, field, n, path):
    """The code array of expr at the point whose variables are the arrays
    mats.  Parts are evaluated left to right and depth first, so the first
    Inv with a singular argument raises _Singular.  A product led by the -1
    marker is the negated product of its other factors; their indices
    still count the marker's slot."""
    if isinstance(expr, Var):
        return mats[expr.index - 1]
    if isinstance(expr, Prod):
        parts = expr.parts
        negate = isinstance(parts[0], _MinusOne)
        acc = None
        for idx in range(negate, len(parts)):
            value = _eval(parts[idx], mats, field, n, path + (idx,))
            acc = value if acc is None else matmul_data(field, acc, value)
        if negate and field.p != 2:     # -1 = 1 in characteristic 2
            return scale_data(field, acc, field.neg(1))
        return acc
    if isinstance(expr, Sum):
        acc = None
        for idx, part in enumerate(expr.parts):
            value = _eval(part, mats, field, n, path + (idx,))
            acc = value if acc is None else add_data(field, acc, value)
        return acc
    if isinstance(expr, Inv):
        value = _eval(expr.arg, mats, field, n, path + (0,))
        try:
            return inverse_data(field, value)
        except SingularMatrixError:
            raise _Singular(path) from None
    if isinstance(expr, Const):
        if not 0 <= expr.code < field.q:
            raise ValueError(f"constant code {expr.code} out of range for GF({field.q})")
        return scale_data(field, np.eye(n, dtype=np.uint8), expr.code)
    raise TypeError(f"not a rational expression node: {expr!r}")


def _defined_value(expr, mats, field, n):
    """The code array of expr at the point, or None where it is undefined."""
    try:
        return _eval(expr, mats, field, n, ())
    except _Singular:
        return None


# -- equivalence sampling --

@dataclass
class EquivVerdict:
    kind: str                     # "counterexample" | "consistent" | "no_common_domain"
    common_domain_points: int
    point: list | None = None     # matrices of the counterexample
    values: tuple | None = None   # (value of R, value of S) at the point

    def to_json(self):
        out = {"kind": self.kind, "common_domain_points": self.common_domain_points}
        if self.point is not None:
            out["point"] = [m.to_json() for m in self.point]
            out["values"] = [v.to_json() for v in self.values]
        return out


def equiv_probabilistic(r_expr, s_expr, sizes, trials: int, ext_deg: int | None = None,
                        seed: int = 0, base_field: FieldSpec | None = None) -> EquivVerdict:
    """Sample random tuples over GF(q^ext_deg) and compare the two expressions.

    `ext_deg` defaults to the largest d with q^d <= MAX_Q (8 over GF(2)).
    A counterexample is a point where both expressions are defined and
    differ; evaluation is exact, so it refutes equivalence.  A "consistent"
    verdict is evidence, not a proof of equivalence.  Fewer than one trial
    per size raises ValueError.
    """
    if trials < 1:
        raise ValueError(f"trials {trials} must be at least 1")
    base = base_field or FieldSpec(2)
    if ext_deg is None:
        ext_deg = 1
        while base.q ** (ext_deg + 1) <= MAX_Q:
            ext_deg += 1
    if ext_deg < 1:
        raise ValueError(f"extension degree {ext_deg} must be at least 1")
    field = FieldSpec(base.p, base.deg * ext_deg) if ext_deg > 1 else base
    r = max(max_variable(r_expr), max_variable(s_expr), 1)
    rng = np.random.Generator(np.random.Philox(seed))
    common = 0
    for n in sizes:
        for _ in range(trials):
            mats = [random_codes(field, rng, (n, n)) for _ in range(r)]
            value_r = _defined_value(r_expr, mats, field, n)
            value_s = _defined_value(s_expr, mats, field, n)
            if value_r is None or value_s is None:
                continue
            common += 1
            if not np.array_equal(value_r, value_s):
                return EquivVerdict("counterexample", common,
                                    [DenseMatrix(field, m) for m in mats],
                                    (DenseMatrix(field, value_r), DenseMatrix(field, value_s)))
    if common == 0:
        return EquivVerdict("no_common_domain", 0)
    return EquivVerdict("consistent", common)


# -- parsing and printing --

def parse_ratexpr(text: str):
    sc = Scanner(text)
    expr = _parse_expr(sc)
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise ParseError(f"unexpected {sc.text[sc.pos]!r}", sc.pos)
    return expr


@dataclass(frozen=True)
class _MinusOne:
    """Field-agnostic -1 produced by desugaring '-'; resolved at evaluation."""


def _parse_expr(sc):
    parts = [_parse_term(sc)]
    signs = [1]
    while sc.peek() in ("+", "-"):
        op = sc.peek()
        sc.take(op)
        parts.append(_parse_term(sc))
        signs.append(1 if op == "+" else -1)
    if len(parts) == 1:
        return parts[0]
    resolved = [p if s == 1 else Prod((_MinusOne(), p)) if not isinstance(p, Prod)
                else Prod((_MinusOne(),) + p.parts)
                for p, s in zip(parts, signs)]
    return Sum(tuple(resolved))


def _parse_term(sc):
    parts = [_parse_factor(sc)]
    while sc.peek() == "*":
        sc.take("*")
        parts.append(_parse_factor(sc))
    return parts[0] if len(parts) == 1 else Prod(tuple(parts))


def _parse_factor(sc):
    ch = sc.peek()
    if ch == "z":
        start = sc.pos
        sc.take("z")
        idx = sc.number()
        if idx < 1:
            raise ParseError("variable index must be >= 1", start)
        return Var(idx)
    if ch.isdigit():
        return Const(sc.number())
    if sc.startswith("inv"):
        sc.take("inv")
        sc.take("(")
        inner = _parse_expr(sc)
        sc.take(")")
        return Inv(inner)
    if ch == "(":
        sc.take("(")
        inner = _parse_expr(sc)
        sc.take(")")
        return inner
    raise ParseError("expected variable, constant, inv(...) or (...)", sc.pos)


def print_ratexpr(expr) -> str:
    return _print(expr, 0)


def _print(expr, level):
    # level 0 = sum context, 1 = product context.
    if isinstance(expr, Const):
        return str(expr.code)
    if isinstance(expr, _MinusOne):
        raise ValueError("negation marker cannot be printed directly")
    if isinstance(expr, Var):
        return f"z{expr.index}"
    if isinstance(expr, Inv):
        return f"inv({_print(expr.arg, 0)})"
    if isinstance(expr, Sum):
        pieces = []
        for idx, p in enumerate(expr.parts):
            if (isinstance(p, Prod) and isinstance(p.parts[0], _MinusOne)):
                rest = p.parts[1:]
                inner = rest[0] if len(rest) == 1 else Prod(rest)
                if idx == 0:
                    raise ValueError("leading negation has no printable form")
                pieces.append("- " + _print(inner, 1))
            else:
                if idx:
                    pieces.append("+ " + _print(p, 1))
                else:
                    pieces.append(_print(p, 1))
        text = " ".join(pieces)
        return f"({text})" if level >= 1 else text
    if isinstance(expr, Prod):
        text = "*".join(_print(p, 1) if not isinstance(p, (Sum,))
                        else f"({_print(p, 0)})" for p in expr.parts)
        return text
    raise TypeError(f"not a rational expression node: {expr!r}")
