import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linrep.field import GF2, FieldSpec
from linrep.freealg import ParseError
from linrep.matrix import DenseMatrix, SingularMatrixError, random_invertible, random_matrix
from linrep.ncrat import (Const, Inv, Prod, Sum, Var, _MinusOne, equiv_probabilistic,
                          evaluate, max_variable, parse_ratexpr, print_ratexpr)

F256 = FieldSpec(2, 8)


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


# AST strategy: no negation markers (those only arise from parsing '-').
def exprs(max_depth=4):
    base = st.one_of(st.builds(Var, st.integers(1, 3)),
                     st.builds(Const, st.integers(0, 3)))
    return st.recursive(
        base,
        lambda kids: st.one_of(
            st.builds(lambda ps: Sum(tuple(ps)), st.lists(kids, min_size=2, max_size=3)),
            st.builds(lambda ps: Prod(tuple(ps)), st.lists(kids, min_size=2, max_size=3)),
            st.builds(Inv, kids)),
        max_leaves=12)


@settings(max_examples=200)
@given(exprs())
def test_print_parse_round_trip(expr):
    text = print_ratexpr(expr)
    back = parse_ratexpr(text)
    # Round trip must at least re-print identically (AST may differ by
    # flattening of nested one-element sums/products).
    assert print_ratexpr(back) == text
    # And evaluate identically wherever both are defined.
    g = rng(42)
    mats = [random_matrix(F256, g, 2) for _ in range(3)]
    a, b = evaluate(expr, mats), evaluate(back, mats)
    assert a.ok == b.ok
    if a.ok:
        assert a.value == b.value


def test_parse_known_forms():
    e = parse_ratexpr("z1*z2 + inv(z3) - 1")
    assert isinstance(e, Sum) and len(e.parts) == 3
    assert max_variable(e) == 3
    assert parse_ratexpr("(z1)") == Var(1)
    nested = parse_ratexpr("inv(inv(z1))")
    assert nested == Inv(Inv(Var(1)))


def test_subtraction_desugars_and_evaluates():
    f3 = FieldSpec(3)
    m = DenseMatrix(f3, [[2]])
    res = evaluate(parse_ratexpr("z1 - 1"), [m])
    assert res.ok and res.value == DenseMatrix(f3, [[1]])
    # Over GF(2), x - x = 0.
    res2 = evaluate(parse_ratexpr("z1 - z1"), [DenseMatrix(GF2, [[1]])])
    assert res2.ok and res2.value == DenseMatrix(GF2, [[0]])


@pytest.mark.parametrize("bad", ["", "z", "z0", "inv()", "inv(z1", "z1 +",
                                 "* z1", "z1 z2", "inw(z1)", "(z1"])
def test_malformed_inputs_raise_positioned_errors(bad):
    with pytest.raises(ParseError) as exc:
        parse_ratexpr(bad)
    assert 0 <= exc.value.pos <= len(bad)


def test_failure_path_points_at_inner_inverse():
    f = GF2
    zero = DenseMatrix(f, np.zeros((2, 2), dtype=np.uint8))
    ident = DenseMatrix.identity(f, 2)
    # inv(z1) at a singular point: path is the root.
    res = evaluate(parse_ratexpr("inv(z1)"), [zero])
    assert not res.ok and res.failure_path == ()
    # z2 * inv(z1): failure inside the second product factor.
    res = evaluate(parse_ratexpr("z2 * inv(z1)"), [zero, ident])
    assert not res.ok and res.failure_path == (1,)
    # Nested: inv(inv(z1) + z2) fails at the inner inverse first.
    res = evaluate(parse_ratexpr("inv(inv(z1) + z2)"), [zero, ident])
    assert not res.ok and res.failure_path == (0, 0)


def test_in_domain_and_const_range():
    assert evaluate(parse_ratexpr("inv(z1)"), [DenseMatrix.identity(GF2, 2)]).ok
    with pytest.raises(ValueError):
        evaluate(Const(5), [DenseMatrix.identity(GF2, 2)])
    with pytest.raises(ValueError):
        evaluate(Var(2), [DenseMatrix.identity(GF2, 2)])


def test_hua_identity_consistent():
    lhs = parse_ratexpr("inv(z1) + inv(inv(z2) - z1)")
    rhs = parse_ratexpr("inv(z1 - z1*z2*z1)")
    verdict = equiv_probabilistic(lhs, rhs, [1, 2, 3], 60, seed=0)
    assert verdict.kind == "consistent"
    assert verdict.common_domain_points >= 50


def test_noncommutativity_counterexample_is_verified():
    verdict = equiv_probabilistic(parse_ratexpr("z1*z2"), parse_ratexpr("z2*z1"),
                                  [2], 100, seed=0)
    assert verdict.kind == "counterexample"
    a, b = verdict.point
    assert a @ b != b @ a
    va, vb = verdict.values
    assert va == a @ b and vb == b @ a


def test_no_common_domain_verdict():
    # inv(z1 - z1) is nowhere defined.
    nowhere = parse_ratexpr("inv(z1 - z1)")
    verdict = equiv_probabilistic(nowhere, nowhere, [2], 20, seed=0)
    assert verdict.kind == "no_common_domain"
    assert verdict.common_domain_points == 0


@pytest.mark.parametrize("ext_deg", [0, -3])
def test_extension_degree_below_one_is_rejected(ext_deg):
    z1 = parse_ratexpr("z1")
    with pytest.raises(ValueError, match="extension degree"):
        equiv_probabilistic(z1, z1, [2], 5, ext_deg=ext_deg)


@pytest.mark.parametrize("trials", [0, -1])
def test_fewer_than_one_trial_is_rejected(trials):
    # No point would be drawn, so the verdict would read no_common_domain.
    z1 = parse_ratexpr("z1")
    with pytest.raises(ValueError, match=f"^trials {trials} must be at least 1$"):
        equiv_probabilistic(z1, z1, [2], trials)


def test_inverse_perturbation_rank_identity():
    # rank(A^-1 - B^-1) = rank(A - B) for invertible A, B: a sampled law
    # that doubles as an oracle for inverse correctness.
    g = rng(7)
    for _ in range(100):
        a = random_invertible(F256, g, 3)
        b = random_invertible(F256, g, 3)
        assert (a.inverse() - b.inverse()).rank() == (a - b).rank()


def test_equiv_is_deterministic_per_seed():
    lhs, rhs = parse_ratexpr("z1*z2"), parse_ratexpr("z2*z1")
    v1 = equiv_probabilistic(lhs, rhs, [2, 3], 30, seed=5)
    v2 = equiv_probabilistic(lhs, rhs, [2, 3], 30, seed=5)
    assert v1.to_json() == v2.to_json()


def reference_eval(expr, mats, field, n, path=()):
    """(value, failure_path) from DenseMatrix operations alone, the -1 marker
    evaluated as the factor -I in its own slot."""
    if isinstance(expr, _MinusOne):
        return DenseMatrix(field, np.eye(n, dtype=np.uint8) * field.neg(1)), None
    if isinstance(expr, Const):
        return DenseMatrix(field, np.eye(n, dtype=np.uint8) * expr.code), None
    if isinstance(expr, Var):
        return mats[expr.index - 1], None
    if isinstance(expr, Inv):
        value, failed = reference_eval(expr.arg, mats, field, n, path + (0,))
        if failed is not None:
            return None, failed
        try:
            return value.inverse(), None
        except SingularMatrixError:
            return None, path
    acc = None
    for idx, part in enumerate(expr.parts):
        value, failed = reference_eval(part, mats, field, n, path + (idx,))
        if failed is not None:
            return None, failed
        acc = value if acc is None else acc + value if isinstance(expr, Sum) else acc @ value
    return acc, None


# Expression texts with '-', constants (codes 0..2, in range for every q >= 3)
# and nested inv(...).
def expr_texts():
    atoms = st.one_of(st.integers(1, 2).map(lambda i: f"z{i}"), st.integers(0, 2).map(str))
    return st.recursive(
        atoms,
        lambda kids: st.one_of(
            kids.map(lambda e: f"inv({e})"),
            st.lists(kids, min_size=2, max_size=3).map(lambda ps: "*".join(f"({p})" for p in ps)),
            st.tuples(kids, st.lists(st.tuples(st.sampled_from("+-"), kids),
                                     min_size=1, max_size=2)).map(
                lambda t: " ".join([t[0]] + [f"{op} ({e})" for op, e in t[1]]))),
        max_leaves=10)


@settings(max_examples=300, deadline=None)
@given(expr_texts(), st.sampled_from([FieldSpec(3), FieldSpec(3, 2), FieldSpec(5)]),
       st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_evaluate_matches_a_dense_matrix_reference_in_odd_characteristic(text, field, n, seed):
    expr = parse_ratexpr(text)
    g = rng(seed)
    mats = [random_matrix(field, g, n) for _ in range(2)]
    got = evaluate(expr, mats)
    want, failure = reference_eval(expr, mats, field, n)
    assert got.failure_path == failure
    assert got.value == want


@pytest.mark.parametrize("text, path", [
    ("z1 - inv(z2)", (1, 1)),
    ("z2 - z1*inv(z1 - z1)", (1, 2)),       # the -1 marker holds slot 0
    ("inv(z2) - inv(z1)", (0,)),
])
def test_failure_paths_through_negated_terms(text, path):
    f3 = FieldSpec(3)
    point = [DenseMatrix.identity(f3, 2), DenseMatrix(f3, np.zeros((2, 2), dtype=np.uint8))]
    res = evaluate(parse_ratexpr(text), point)
    assert not res.ok and res.failure_path == path
