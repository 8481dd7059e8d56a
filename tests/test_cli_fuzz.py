"""Fuzz the CLI boundary: input files of arbitrary JSON shape.

Whatever the file holds, `cheeger --rep` prints exactly one JSON line and
exits 0 (a report), 1 (an input error) or 3 (over the enumeration cap),
`tile --f` prints one JSON line and exits 0 (a certificate) or 1, and
`tile-verify --cert` and `hyperfinite-check --witness` print one JSON
line and exit 0 (valid), 1 or 2 (invalid), and `tile --map`,
`sofic-check --sofic` and `ncrat-eval --matrices` print one JSON line and
exit 0 to 3; no exception escapes main.
The range arguments (--k, --sizes, --poly-levels) and the counts
(--trials, --budget, --K, --cap) answer any value the same way: a report
with exit 0, 2 or 3, or one JSON input error with exit 1, which an empty
or repeated range and a value below the least valid one always give.
On the permutation families, `profile` prints the rank of the dense image
that `apply_matrix` builds, for any element of a few short words, and an
`--element` exponent of any size gives a report or one JSON input error.
"""

import functools
import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from linrep import cli
from linrep.freealg import MAX_WORD_LETTERS, AlgebraMatrix, parse_element
from linrep.repseq import FamilyDescriptor, apply_matrix, family_generate

json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                         st.text(max_size=3))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8)


def mostly(good, other):
    """`good` about three times in four, else `other`."""
    return st.sampled_from([good, good, good, other]).flatmap(lambda chosen: chosen)


def squares(k, entries):
    return st.lists(st.lists(entries, min_size=k, max_size=k), min_size=k, max_size=k)


def invertible(k):
    """k x k permutation matrices and unitriangular 0/1 matrices."""
    perms = st.permutations(range(k)).map(
        lambda perm: [[int(perm[r] == c) for c in range(k)] for r in range(k)])
    unitri = squares(k, st.integers(0, 1)).map(
        lambda rows: [[int(r == c) if c <= r else rows[r][c] for c in range(k)]
                      for r in range(k)])
    return st.one_of(perms, unitri)


# Well-formed pieces outweigh arbitrary ones, so that the computation behind
# the decoders is reached too.
fields = mostly(
    st.sampled_from([{"p": 2}, {"p": 3, "deg": 1}, {"p": 2, "deg": 2},
                     {"p": 2, "deg": 2, "modulus": [1, 1, 1]}, {"p": 5, "modulus": []}]),
    st.one_of(
        st.fixed_dictionaries(
            {"p": st.one_of(st.sampled_from([2, 3, 5]), json_values)},
            optional={"deg": st.one_of(st.integers(1, 3), json_values),
                      "modulus": st.one_of(st.lists(st.integers(0, 4), max_size=4),
                                           json_values)}),
        json_values))
any_squares = st.integers(0, 3).flatmap(
    lambda k: squares(k, st.one_of(st.integers(-2, 300), json_values)))
generators = mostly(
    mostly(st.integers(2, 3), st.integers(0, 1)).flatmap(lambda k: st.lists(
        mostly(invertible(k), squares(k, st.integers(0, 4))), min_size=1, max_size=3)),
    st.one_of(st.lists(st.one_of(any_squares, json_values), max_size=3), json_values))
reps = mostly(
    st.fixed_dictionaries({"field": fields, "generators": generators},
                          optional={"n": st.one_of(st.integers(0, 4), json_values)}),
    json_values)


@settings(max_examples=300, deadline=None)
@given(rep=reps)
def test_cheeger_answers_any_representation_file(tmp_path_factory, rep):
    path = tmp_path_factory.getbasetemp() / "fuzz-rep.json"
    path.write_text(json.dumps(rep))
    # A small cap turns large enumerations into exit 3 instead of long runs.
    for extra in (["--cap", "500"], ["--trials", "2"]):
        out = io.StringIO()
        code = cli.main(["cheeger", "--rep", str(path), *extra], out)
        text = out.getvalue()
        assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_BUDGET), (code, text)
        assert text.endswith("\n") and text.count("\n") == 1, text
        assert isinstance(json.loads(text), dict)


@functools.cache
def valid_certificate():
    """The certificate `tile --poly 8 --i 2` writes; tile-verify accepts it."""
    out = io.StringIO()
    assert cli.main(["tile", "--poly", "8", "--i", "2"], out) == cli.EXIT_OK
    return json.loads(out.getvalue())


def rows(width, entries, max_size=9):
    return st.lists(st.lists(entries, min_size=width, max_size=width), max_size=max_size)


# F files on the degree-<8 basis of `tile --poly 32 --imax 8`, where
# F = span{1} meets every precondition at i = 2, delta = 1/4, so the
# coverage self-check (exit 4) runs.  The starting file lists an inverse in
# span{1} for up to three basis rows.  Per F-file field, values close to a
# valid one: rows of 1, x and 1 + x, which repeat into dependent bases,
# codes just past GF(2), wrong widths; finv keys in and out of range.
_UNIT = [1, 0, 0, 0, 0, 0, 0, 0]
f_rows = mostly(st.sampled_from([_UNIT, [0, 1, 0, 0, 0, 0, 0, 0], [1, 1, 0, 0, 0, 0, 0, 0]]),
                st.one_of(st.lists(st.integers(0, 2), min_size=8, max_size=8),
                          st.lists(st.integers(0, 1), max_size=9)))
near_valid_f = {
    "basis": st.one_of(st.lists(f_rows, max_size=2).map(lambda more: [_UNIT, *more]),
                       st.lists(f_rows, max_size=3)),
    "finv": st.dictionaries(st.sampled_from(["0", "1", "2", "-1", "x"]), f_rows, max_size=3),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_tile_answers_any_f_file(tmp_path_factory, data):
    f = {"basis": [_UNIT], "finv": {"0": _UNIT, "1": _UNIT, "2": _UNIT}}
    for key in data.draw(st.lists(st.sampled_from(sorted(near_valid_f)), max_size=2, unique=True)):
        how = data.draw(st.sampled_from(["near", "near", "any", "drop"]))
        if how == "drop":
            del f[key]
        else:
            f[key] = data.draw(near_valid_f[key] if how == "near" else json_values)
    f = data.draw(mostly(st.just(f), json_values))
    path = tmp_path_factory.getbasetemp() / "fuzz-f.json"
    path.write_text(json.dumps(f))
    out = io.StringIO()
    code = cli.main(["tile", "--poly", "32", "--imax", "8", "--i", "2", "--budget", "16",
                     "--f", str(path)], out)
    text = out.getvalue()
    assert code in (cli.EXIT_OK, cli.EXIT_INPUT), (code, text)
    assert text.endswith("\n") and text.count("\n") == 1, text
    assert isinstance(json.loads(text), dict)


# Per certificate field, values close to a valid one: delta in and out of
# (0, 1), zero denominators included; codes just past GF(2); wrong widths.
near_valid = {
    "delta": st.fixed_dictionaries({"num": st.integers(-3, 9), "den": st.integers(-3, 9)}),
    "i": st.integers(-1, 9),
    "dim_f": st.integers(-1, 3),
    "coverage": st.integers(-1, 10),
    "partial": st.booleans(),
    "centers": rows(8, st.integers(0, 2)),
    "tiles": st.lists(rows(8, st.integers(0, 1), max_size=2), max_size=9),
    "h_basis": st.one_of(rows(8, st.integers(0, 1)), rows(7, st.integers(0, 1))),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_tile_verify_answers_any_certificate(tmp_path_factory, data):
    cert = dict(valid_certificate())
    for key in data.draw(st.lists(st.sampled_from(sorted(near_valid)), max_size=3, unique=True)):
        how = data.draw(st.sampled_from(["near", "near", "any", "drop"]))
        if how == "drop":
            del cert[key]
        else:
            cert[key] = data.draw(near_valid[key] if how == "near" else json_values)
    path = tmp_path_factory.getbasetemp() / "fuzz-cert.json"
    path.write_text(json.dumps(cert))
    out = io.StringIO()
    code = cli.main(["tile-verify", "--poly", "8", "--i", "2", "--cert", str(path)], out)
    text = out.getvalue()
    assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_CHECK_FAILED), (code, text)
    assert text.endswith("\n") and text.count("\n") == 1, text
    assert isinstance(json.loads(text), dict)
    if code == cli.EXIT_OK:
        assert 0 < Fraction(cert["delta"]["num"], cert["delta"]["den"]) < 1, cert


# Two 3-cycles on GF(2)^6, (0 1 2)(3 4 5): each block is the orbit closure of
# its first coordinate, so the two blocks make a witness at any K >= 3.
_CYCLES_REP = {"field": {"p": 2},
               "generators": [[[0, 0, 1, 0, 0, 0], [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
                               [0, 0, 0, 0, 0, 1], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0]]]}


@functools.cache
def valid_witness(tmp):
    """The witness `hyperfinite-search --K 3` finds for _CYCLES_REP, and that
    representation's file; hyperfinite-check accepts the witness."""
    rep = tmp / "cycles-rep.json"
    rep.write_text(json.dumps(_CYCLES_REP))
    out = io.StringIO()
    assert cli.main(["hyperfinite-search", "--rep", str(rep), "--K", "3"], out) == cli.EXIT_OK
    return str(rep), json.loads(out.getvalue())["witness"]


# Per witness field, values close to a valid one: epsilon in and out of
# (0, 1), zero denominators included; K around the tile size; tiles with
# codes just past GF(2), zero rows, repeats and wrong widths.
near_valid_witness = {
    "epsilon": st.fixed_dictionaries({"num": st.integers(-3, 9), "den": st.integers(-3, 9)}),
    "K": st.integers(-1, 7),
    "tiles": st.lists(st.one_of(rows(6, st.integers(0, 2), max_size=4),
                                rows(5, st.integers(0, 1), max_size=2)), max_size=4),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_hyperfinite_check_answers_any_witness(tmp_path_factory, data):
    rep, witness = valid_witness(tmp_path_factory.getbasetemp())
    witness = dict(witness)
    for key in data.draw(st.lists(st.sampled_from(sorted(near_valid_witness)), max_size=3,
                                  unique=True)):
        how = data.draw(st.sampled_from(["near", "near", "any", "drop"]))
        if how == "drop":
            del witness[key]
        else:
            witness[key] = data.draw(near_valid_witness[key] if how == "near" else json_values)
    path = tmp_path_factory.getbasetemp() / "fuzz-witness.json"
    path.write_text(json.dumps(witness))
    out = io.StringIO()
    code = cli.main(["hyperfinite-check", "--rep", rep, "--witness", str(path)], out)
    text = out.getvalue()
    assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_CHECK_FAILED), (code, text)
    assert text.endswith("\n") and text.count("\n") == 1, text
    assert isinstance(json.loads(text), dict)
    if code == cli.EXIT_OK:
        assert 0 < Fraction(witness["epsilon"]["num"], witness["epsilon"]["den"]) < 1, witness


# Range arguments: "lo..hi" and comma lists of small integers, reversed,
# empty, repeated and non-positive ones included, and short texts over the
# characters a range is written with.  Counts are integers around their
# least valid value.  Each draw is (text, values), values being the sizes
# the text lists or None for free text.  Values go in as --opt=VALUE, so
# that one starting with "-" is read as a value and not as an option.
small = st.integers(-3, 12)
ranges = st.one_of(
    st.tuples(small, small).map(lambda t: (f"{t[0]}..{t[1]}", list(range(t[0], t[1] + 1)))),
    st.lists(small, max_size=3).map(lambda vs: (",".join(map(str, vs)), vs)),
    st.text(alphabet="0123456789.,- ", max_size=2).map(lambda text: (text, None)))


def counts(lo, hi):
    return st.integers(lo, hi).map(lambda v: (str(v), [v]))


# name -> (argv, option, values, least valid value)
_COUNT_ARGS = {
    "profile-k": (["profile", "--element", "g1 - 1"], "--k", ranges, 1),
    "profile-r": (["profile", "--k", "2..3", "--element", "1"], "--r", counts(-3, 3), 1),
    "sofic-check-poly-levels": (["sofic-check"], "--poly-levels", ranges, 1),
    "ncrat-equiv-sizes": (["ncrat-equiv", "--r-expr", "z1*z2", "--s-expr", "z2*z1",
                           "--trials", "2"], "--sizes", ranges, 1),
    "ncrat-equiv-trials": (["ncrat-equiv", "--r-expr", "z1*z2", "--s-expr", "z2*z1",
                            "--sizes", "1..2"], "--trials", counts(-3, 4), 1),
    "tile-budget": (["tile", "--poly", "16", "--i", "2"], "--budget", counts(-3, 40), 0),
    "hyperfinite-search-budget": (["hyperfinite-search", "--K", "3"], "--budget",
                                  counts(-3, 12), 0),
    "hyperfinite-search-K": (["hyperfinite-search", "--budget", "12"], "--K", counts(-3, 6), 1),
    "cheeger-cap": (["cheeger"], "--cap", counts(-3, 40), 0),
    "expander-cap": (["expander", "--alpha", "1/2"], "--cap", counts(-3, 40), 0),
}


@pytest.mark.parametrize("name", sorted(_COUNT_ARGS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_range_and_count_arguments_answer_any_value(tmp_path_factory, name, data):
    argv, option, values, least = _COUNT_ARGS[name]
    if argv[0] in ("hyperfinite-search", "cheeger", "expander"):
        rep, _ = valid_witness(tmp_path_factory.getbasetemp())
        argv = [*argv, "--rep", rep]
    value, sizes = data.draw(values)
    out = io.StringIO()
    code = cli.main([*argv, f"{option}={value}"], out)
    text = out.getvalue()
    assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_CHECK_FAILED, cli.EXIT_BUDGET), text
    assert text.endswith("\n"), (value, text)
    # Empty, below the least valid value, or repeated: an input error.
    if sizes is not None and (not sizes or min(sizes) < least or len(set(sizes)) < len(sizes)):
        assert code == cli.EXIT_INPUT, (value, text)
    if argv[0] == "profile" and code == cli.EXIT_OK:
        # One CSV row k,n_k,rank,num,den per distinct k, in increasing k
        # (the k are 2..3 when the option drawn is --r).
        rows = text.splitlines()
        assert all(len(row.split(",")) == 5 for row in rows), text
        ks = sizes if option == "--k" else [2, 3]
        assert ks is None or [int(row.split(",")[0]) for row in rows] == sorted(set(ks)), \
            (value, text)
        return
    assert text.count("\n") == 1, text
    obj = json.loads(text)
    assert isinstance(obj, dict) and (code != cli.EXIT_INPUT or obj["error"] == "input"), obj


def answers_once(argv):
    """Run argv through main: one JSON object line and exit 0 to 3."""
    out = io.StringIO()
    code = cli.main(argv, out)
    text = out.getvalue()
    assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_CHECK_FAILED, cli.EXIT_BUDGET), \
        (code, text)
    assert text.endswith("\n") and text.count("\n") == 1, text
    assert isinstance(json.loads(text), dict)


@st.composite
def mutated(draw, obj, near):
    """obj with up to all but one of the fields in `near` replaced or
    dropped: most often by a near-valid value (the strategy in `near`), else
    by any JSON value; one draw in four is any JSON value instead of obj."""
    obj = dict(obj)
    for key in draw(st.lists(st.sampled_from(sorted(near)), max_size=len(near) - 1,
                             unique=True)):
        how = draw(st.sampled_from(["near", "near", "any", "drop"]))
        if how == "drop":
            del obj[key]
        else:
            obj[key] = draw(near[key] if how == "near" else json_values)
    return draw(mostly(st.just(obj), json_values))


# A map on GF(2)^3: phi(1) = I and phi(x) the cyclic shift, with the products
# 1 * 1, 1 * x and x * 1 in its table.  Near-valid values: mostly these two
# images and table entries, else matrices of size 0 to 3 with codes just past
# GF(2), and entries with indices around 1..2 and coordinates of any length.
_SHIFT = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
_EYE3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
_MULT = [[1, 1, [1, 0]], [1, 2, [0, 1]], [2, 1, [0, 1]], [2, 2, [1, 1]]]
_FUZZ_MAP = {"field": {"p": 2}, "phi": [_EYE3, _SHIFT], "mult": _MULT[:3]}
any_image = st.integers(0, 3).flatmap(lambda k: squares(k, st.integers(0, 2)))
near_valid_map = {
    "field": fields,
    "phi": mostly(st.tuples(mostly(st.just(_EYE3), any_image),
                            mostly(st.just(_SHIFT), any_image)).map(list),
                  st.lists(mostly(st.sampled_from([_EYE3, _SHIFT]), any_image), max_size=3)),
    "mult": st.lists(mostly(st.sampled_from(_MULT), st.one_of(
        st.tuples(st.integers(0, 3), st.integers(0, 3),
                  st.lists(st.integers(0, 2), max_size=3)).map(list),
        json_values)), max_size=3).flatmap(
            lambda more: mostly(st.just([_MULT[0], *more]), st.just(more))),
}


@settings(max_examples=300, deadline=None)
@given(approx=mutated(_FUZZ_MAP, near_valid_map))
def test_tile_answers_any_map_file(tmp_path_factory, approx):
    path = tmp_path_factory.getbasetemp() / "fuzz-map.json"
    path.write_text(json.dumps(approx))
    answers_once(["tile", "--map", str(path), "--budget", "8"])


# Sofic data with the map above at its one level, a bound s and an element
# x with a rank floor.  Near-valid values: lists of maps, mutated the same
# way, or of values that are not objects; bounds and floors with zero and
# negative parts; coordinates of any length.
fractions = mostly(st.sampled_from([{"num": 1, "den": 2}, {"num": 2, "den": 3}]),
                   st.fixed_dictionaries({"num": st.integers(-1, 3), "den": st.integers(-1, 3)}))
near_valid_sofic = {
    "field": fields,
    "maps": st.lists(mutated(_FUZZ_MAP, near_valid_map), min_size=1, max_size=2),
    "s": st.lists(fractions, min_size=1, max_size=2),
    "elements": st.lists(st.tuples(mostly(st.sampled_from([[1, 0], [0, 1], [1, 1]]),
                                          st.lists(st.integers(0, 2), max_size=3)),
                                   fractions).map(list), max_size=2),
}
_FUZZ_SOFIC = {"field": {"p": 2}, "maps": [_FUZZ_MAP], "s": [{"num": 1, "den": 2}],
               "elements": [[[0, 1], {"num": 1, "den": 2}]]}


@settings(max_examples=300, deadline=None)
@given(sofic=mutated(_FUZZ_SOFIC, near_valid_sofic), level=mostly(st.just(1), st.integers(0, 2)))
def test_sofic_check_answers_any_sofic_file(tmp_path_factory, sofic, level):
    path = tmp_path_factory.getbasetemp() / "fuzz-sofic.json"
    path.write_text(json.dumps(sofic))
    answers_once(["sofic-check", "--sofic", str(path), f"--level={level}"])


# Matrix lists for z1 * inv(z2) over GF(2^2): mostly two square matrices of
# one size, else lists of any squares (codes past the field, sizes that
# differ, too few) and arbitrary JSON.
eval_matrices = mostly(
    st.integers(1, 3).flatmap(lambda k: st.lists(squares(k, st.integers(0, 3)),
                                                  min_size=2, max_size=2)),
    st.one_of(st.lists(any_squares, max_size=3), json_values))


@settings(max_examples=300, deadline=None)
@given(mats=eval_matrices)
def test_ncrat_eval_answers_any_matrix_file(tmp_path_factory, mats):
    path = tmp_path_factory.getbasetemp() / "fuzz-matrices.json"
    path.write_text(json.dumps(mats))
    answers_once(["ncrat-eval", "--expr", "z1 * inv(z2)", "--field", "2^2",
                  "--matrices", str(path)])


letters = st.tuples(st.integers(1, 2), st.sampled_from([1, -1]))
_FAMILIES = {"cyclic": FamilyDescriptor.cyclic_regular, "involution": FamilyDescriptor.involution}


def _word_text(word):
    return "*".join(f"g{i}" if e == 1 else f"g{i}^-1" for i, e in word) or "e"


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_profile_of_a_permutation_family_matches_the_dense_image(data):
    # Up to three terms of words up to four letters long (inverse letters
    # and unreduced words included) with any codes, zero too; each row must
    # hold the rank of apply_matrix's dense image.
    field_text = data.draw(st.sampled_from(["3", "2^2"]))
    family = data.draw(st.sampled_from(sorted(_FAMILIES)))
    field = cli.parse_field(field_text)
    terms = data.draw(st.lists(st.tuples(st.integers(0, field.q - 1),
                                         st.lists(letters, max_size=4)),
                               min_size=1, max_size=3))
    ks = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=3, unique=True))
    element = " + ".join(f"{c}*{_word_text(word)}" for c, word in terms)
    out = io.StringIO()
    argv = ["profile", "--family", family, "--r", "2", "--k", ",".join(map(str, ks)),
            "--field", field_text, "--element", element]
    assert cli.main(argv, out) == cli.EXIT_OK
    a = AlgebraMatrix.scalar(field, 2, 1, parse_element(element, field, 2))
    want = []
    for k in sorted(ks):
        rank = apply_matrix(family_generate(_FAMILIES[family](2), k, field), a).rank()
        frac = Fraction(rank, k)
        want.append(f"{k},{k},{rank},{frac.numerator},{frac.denominator}")
    assert out.getvalue().splitlines() == want, element


_LONG = f"g1^{MAX_WORD_LETTERS - 2}*g1*g1^-1*"    # MAX_WORD_LETTERS letters so far
_PAST_CAP = f"word longer than {MAX_WORD_LETTERS} letters (at position"


@pytest.mark.parametrize("element, detail", [
    ("g1^99999999999999999999 - 1", f"{_PAST_CAP} 0)"),
    ("g1^999999999 - 1", f"{_PAST_CAP} 0)"),
    (f"{_LONG}g1 - 1", f"{_PAST_CAP} {len(_LONG)})"),
    (f"g1 + g1^-{MAX_WORD_LETTERS + 1}", f"{_PAST_CAP} 5)"),
    ("g1^" + "9" * 5000, "unreadable number (at position 3)"),
    ("g1^\u00b2 - 1", "unreadable number (at position 3)"),
    (f"{_LONG[:-1]} - 1", None),
])
def test_profile_answers_any_exponent(element, detail):
    # A word may spell MAX_WORD_LETTERS letters, counted before reduction;
    # a gen that takes it past that is one JSON input error at the gen's
    # position, whatever the exponent's size, and an exponent int() cannot
    # read (past its digit limit, or a superscript digit) one at the number.
    out = io.StringIO()
    code = cli.main(["profile", "--k", "4", "--field", "3", "--element", element], out)
    if detail:
        assert code == cli.EXIT_INPUT
        assert json.loads(out.getvalue()) == {"error": "input", "detail": detail}
    else:
        # It reduces to g1^(MAX_WORD_LETTERS - 2) - 1: on Z/4, rank 4 - gcd.
        rank = 4 - math.gcd(MAX_WORD_LETTERS - 2, 4)
        frac = Fraction(rank, 4)
        assert (code, out.getvalue()) == (cli.EXIT_OK,
                                          f"4,4,{rank},{frac.numerator},{frac.denominator}\n")
