"""Seeded job lists for the three benchmark workloads, and their checks.

A job is one CLI invocation.  Each workload's job list has a fixed shape
(fields, sizes and job kinds by position); the seed draws only contents
(words, coefficients, planted matrices, tampered entries, --seed values),
so runs with different seeds do the same amount of work.  Every job carries
its expected exit code and a check that derives the expected output
without linrep: closed forms, the planted structure, or the reference
arithmetic in `reference.py`.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from reference import RefField, smallest_irreducible

FIELDS = ("2", "3", "251", "2^2", "3^2", "2^8")

WORKLOADS = ("profile", "certify", "check")


@dataclass
class Job:
    kind: str
    argv: list
    code: int                              # expected exit code
    check: Callable[[str], str | None]     # error message for a wrong output, else None
    deep: Callable[[str, np.random.Generator], str | None] | None = None  # reference re-derivation


def parse_q(text: str):
    p, _, d = text.partition("^")
    return int(p), int(d or 1)


REF_CACHE: dict = {}


def ref_field(text: str) -> RefField:
    key = parse_q(text)
    if key not in REF_CACHE:
        REF_CACHE[key] = RefField(*key)
    return REF_CACHE[key]


def frac(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def _fail(cond: bool, msg: str):
    return None if cond else msg


# -- profile --------------------------------------------------------------

def _random_word(rng, length: int, first):
    """Reduced word over g1, g2 as a list of (generator, exponent)."""
    letters = [first]
    while len(letters) < length:
        g, e = int(rng.integers(1, 3)), int(rng.choice([1, -1]))
        if letters[-1] == (g, -e):
            continue
        letters.append((g, e))
    return letters


def _word_text(letters) -> str:
    return "*".join(f"g{g}" if e == 1 else f"g{g}^-1" for g, e in letters)


def _term_text(c: int, word: str) -> str:
    return word if c == 1 else f"{c}*{word}"


def _parse_profile(out: str):
    return [tuple(int(x) for x in line.split(",")) for line in out.strip().splitlines()]


def _profile_rows_ok(rows, ks):
    if [r[0] for r in rows] != ks:
        return f"k column {[r[0] for r in rows]} != {ks}"
    for k, nk, rank, num, den in rows:
        if nk != k or not 0 <= rank <= k or Fraction(rank, k) != Fraction(num, den) \
                or math.gcd(num, den) != 1:
            return f"bad profile row {(k, nk, rank, num, den)}"
    return None


def cyclic_job(rng, field: str, ks: list) -> Job:
    """c*w1 - c*w2 on the cyclic family (g1 = shift, g2 = 1): the image is
    c*S^e2*(S^a - 1) with a the difference of g1-exponent sums, so
    rank = k - gcd(a, k).  w1 holds g1 twice and w2 holds g1^-1 once, so
    a = 3; w1 starts with g1 and w2 with g2, so they share no prefix."""
    q = parse_q(field)[0] ** parse_q(field)[1]
    c = int(rng.integers(1, q))
    g2 = (2, int(rng.choice([1, -1])))
    w1 = [(1, 1), (1, 1), g2] if rng.integers(0, 2) else [(1, 1), g2, (1, 1)]
    w2 = [(2, int(rng.choice([1, -1]))), (1, -1)]
    a = sum(e for g, e in w1 if g == 1) - sum(e for g, e in w2 if g == 1)
    elem = f"{_term_text(c, _word_text(w1))} - {_term_text(c, _word_text(w2))}"
    argv = ["profile", "--family", "cyclic", "--r", "2", "--k", f"{ks[0]}..{ks[-1]}",
            "--field", field, "--element", elem]

    def check(out):
        rows = _parse_profile(out)
        bad = _profile_rows_ok(rows, ks)
        if bad:
            return bad
        for k, _, rank, _, _ in rows:
            if rank != k - math.gcd(abs(a), k):
                return f"cyclic rank at k={k} is {rank}, closed form {k - math.gcd(abs(a), k)}"
        return None

    return Job("profile-cyclic", argv, 0, check)


def random_job(rng, field: str, ks: list, lengths: tuple, fam_seed: int) -> Job:
    """An element with one term per entry of `lengths` (0: a constant) on
    random_invertible(r=2).  The words start with different letters, so
    they share no prefix and no two terms cancel."""
    q = parse_q(field)[0] ** parse_q(field)[1]
    firsts = [_LETTERS[i] for i in rng.permutation(len(_LETTERS))]
    terms = []
    for length in lengths:
        c = int(rng.integers(1, q))
        terms.append((c, _random_word(rng, length, firsts.pop()) if length else []))
    pieces = []
    for idx, (c, w) in enumerate(terms):
        text = _term_text(c, _word_text(w)) if w else f"{c}*e"
        pieces.append(text if idx == 0 else f"+ {text}")
    elem = " ".join(pieces)
    argv = ["profile", "--family", "random", "--r", "2", "--k", f"{ks[0]}..{ks[-1]}",
            "--field", field, "--element", elem, "--seed", str(fam_seed)]

    def check(out):
        return _profile_rows_ok(_parse_profile(out), ks)

    def deep(out, crng):
        rows = _parse_profile(out)
        k, _, rank, _, _ = rows[int(crng.integers(0, len(rows)))]
        ref = ref_field(field)
        expect = ref.rank(_random_family_image(ref, fam_seed, k, terms))
        return _fail(rank == expect, f"random-family rank at k={k} is {rank}, reference {expect}")

    # The pure-Python reference costs O(k^3) per product; keep it to n <= 64.
    return Job("profile-random", argv, 0, check, deep if ks[-1] <= 64 else None)


def _random_family_image(ref: RefField, fam_seed: int, k: int, terms):
    """theta_k(sum c*w) for random_invertible(seed + k, k, 2), rebuilt from the
    family's definition: Philox(seed + k) draws k-by-k matrices until one is
    invertible, once per generator."""
    rng = np.random.Generator(np.random.Philox(fam_seed + k))
    gens = []
    for _ in range(2):
        while True:
            m = rng.integers(0, ref.q, size=(k, k), dtype=np.uint64).astype(np.uint8).tolist()
            if ref.rank(m) == k:
                gens.append(m)
                break
    invs = [ref.inverse(g) for g in gens]
    eye = [[int(i == j) for j in range(k)] for i in range(k)]
    mats = []
    for _, w in terms:
        m = eye
        for g, e in w:
            m = ref.matmul(m, gens[g - 1] if e == 1 else invs[g - 1])
        mats.append(m)
    return ref.lin_comb([c for c, _ in terms], mats)


# Shapes, windows and random-family seeds are fixed by position, since
# random_invertible's number of draws (each one a rank at size k) depends
# on its family seed; the workload seed draws the elements: letters, signs
# and coefficients.
_LETTERS = ((1, 1), (1, -1), (2, 1), (2, -1))
_RANDOM_SHAPES = ((1, 1), (2, 2), (1, 3, 0), (2, 4), (3, 1, 0), (4, 2))
_CYCLIC_SHAPES = (("2", 10), ("3", 10), ("251", 10), ("2^2", 4), ("2^8", 4))


def profile_jobs(rng, tiny: bool):
    jobs = []
    for fi, field in enumerate(FIELDS):
        lo = (5 if tiny else 40) + fi % 3
        jobs.append(random_job(rng, field, list(range(lo, lo + 6)), _RANDOM_SHAPES[fi],
                               1009 * (2 * fi + 1)))
        if tiny:
            ks = [10 + fi % 3]
        elif field in ("2", "3"):
            ks = list(range(78 + fi, 81 + fi))
        else:
            ks = [112 + fi]
        jobs.append(random_job(rng, field, ks, _RANDOM_SHAPES[(fi + 3) % 6], 1009 * (2 * fi + 2)))
    for ci, (field, width) in enumerate(_CYCLIC_SHAPES):
        lo = (4 if tiny else 104) + ci
        jobs.append(cyclic_job(rng, field, list(range(lo, lo + (4 if tiny else width)))))
    return jobs


# -- planted representations ---------------------------------------------

def _rand_invertible(ref: RefField, rng, s: int):
    while True:
        m = rng.integers(0, ref.q, size=(s, s), dtype=np.uint64).astype(np.uint8).tolist()
        if ref.rank(m) == s:
            return m


def _irreducible_block(ref: RefField, rng, s: int):
    """P C P^-1 with C the companion matrix of a degree-s irreducible over
    GF(p); it has no invariant subspace but 0 and the whole block as long as
    the polynomial stays irreducible over GF(q), i.e. gcd(s, deg) = 1."""
    if s == 1:
        return [[int(rng.integers(1, ref.q))]]
    if math.gcd(s, ref.d) != 1:
        raise ValueError(f"block size {s} is not coprime to the extension degree {ref.d}")
    poly = smallest_irreducible(ref.p, s)
    c = [[0] * s for _ in range(s)]
    for i in range(s):
        if i + 1 < s:
            c[i + 1][i] = 1
        c[i][s - 1] = ref.neg[poly[i]]
    p = _rand_invertible(ref, rng, s)
    return ref.matmul(ref.matmul(p, c), ref.inverse(p))


def planted_rep(field: str, sizes, rng) -> dict:
    """Block-diagonal rep of F_2: g1 irreducible on each block, g2 random
    invertible on each block, so the blocks are exactly the minimal
    invariant subspaces spanned by coordinate vectors."""
    ref = ref_field(field)
    n = sum(sizes)
    gens = [[[0] * n for _ in range(n)] for _ in range(2)]
    off = 0
    for s in sizes:
        for g, block in zip(gens, (_irreducible_block(ref, rng, s), _rand_invertible(ref, rng, s))):
            for i in range(s):
                g[off + i][off:off + s] = block[i]
        off += s
    return {"field": {"p": ref.p, "deg": ref.d, "modulus": list(ref.modulus)},
            "r": 2, "n": n, "generators": gens}


def block_bases(sizes):
    n = sum(sizes)
    out, off = [], 0
    for s in sizes:
        out.append([[int(j == off + i) for j in range(n)] for i in range(s)])
        off += s
    return out


def _sizes(pattern, target):
    """The block-size pattern repeated until the blocks cover `target`."""
    sizes = []
    while sum(sizes) < target:
        sizes.append(pattern[len(sizes) % len(pattern)])
    return sizes


def _write(workdir: Path, name: str, obj) -> str:
    path = workdir / name
    path.write_text(json.dumps(obj))
    return str(path)


# -- certify ----------------------------------------------------------------

def _shift(x):
    """phi(x) on the truncation fixture: coefficients move up one degree."""
    return [0] + list(x[:-1])


def check_tile_cert(field: str, m: int, two_dim_f: bool, obj) -> str | None:
    """Closed form coverage m (m even), tiles = canonical span of each
    center's orbit, and the tiles independent by reference elimination."""
    ref = ref_field(field)
    centers, tiles = obj["centers"], obj["tiles"]
    if obj["i"] != 4 or obj["dim_f"] != (2 if two_dim_f else 1) or len(centers) != len(tiles):
        return "certificate header does not echo the request"
    if obj["coverage"] != m or sum(len(t) for t in tiles) != m:
        return f"coverage {obj['coverage']} != closed form {m}"
    for x, tile in zip(centers, tiles):
        orbit = [x, _shift(x)] if two_dim_f else [x]
        if ref.rref(orbit)[0] != tile:
            return "tile is not the canonical span of its center's orbit"
    stacked = [row for t in tiles for row in t]
    return _fail(ref.rank(stacked) == len(stacked), "tiles are not independent")


def tile_job(rng, workdir: Path, field: str, m: int, two_dim_f: bool, budget: int) -> Job:
    argv = ["tile", "--poly", str(m), "--field", field, "--i", "4", "--delta", "1/4",
            "--seed", str(int(rng.integers(0, 1 << 20))), "--budget", str(budget)]
    if two_dim_f:
        unit, x = [0] * m, [0] * m
        unit[0], x[1] = 1, 1
        argv += ["--f", _write(workdir, f"f2_{m}.json", {"basis": [unit, x]})]

    def check(out):
        return check_tile_cert(field, m, two_dim_f, json.loads(out))

    return Job("tile", argv, 0, check)


def search_job(rng, workdir: Path, idx: int, field: str, pattern, target: int) -> Job:
    sizes = _sizes(pattern, target)
    n = sum(sizes)
    rep = _write(workdir, f"search_rep{idx}.json", planted_rep(field, sizes, rng))
    argv = ["hyperfinite-search", "--rep", rep, "--epsilon", "1/10", "--K", str(max(sizes)),
            "--budget", str(n + 16), "--seed", str(int(rng.integers(0, 1 << 20)))]
    # Coordinate seeds come first, and the closure of a block's first
    # coordinate is the whole block, so the witness is the leading blocks
    # up to coverage >= (1 - 1/10) n.
    expect, covered = [], 0
    for s, basis in zip(sizes, block_bases(sizes)):
        if covered >= Fraction(9, 10) * n:
            break
        expect.append(basis)
        covered += s

    def check(out):
        obj = json.loads(out)
        if not obj.get("found"):
            return "planted witness not found"
        w = obj["witness"]
        return _fail(w["tiles"] == expect and w["K"] == max(sizes)
                     and w["epsilon"] == frac(Fraction(1, 10)),
                     "witness tiles are not the planted blocks")

    return Job("hyperfinite-search", argv, 0, check)


def certify_jobs(rng, workdir: Path, tiny: bool):
    budget = 8 if tiny else 32
    jobs = []
    for field, m, two in (("2", 32, False), ("3", 32, True), ("2^2", 48, False),
                          ("2", 48, True), ("3", 64, False), ("2^2", 32, True)):
        jobs.append(tile_job(rng, workdir, field, 8 if tiny else m, two, budget))
    for idx, (field, pattern, target) in enumerate(
            (("2", (3, 4, 5, 6), 72), ("3", (3, 4, 5), 96), ("2^2", (3, 5), 72),
             ("2", (4, 5, 6), 120), ("3", (3, 4, 5, 6), 84), ("2^2", (5, 3), 96),
             ("2", (6, 5, 4, 3), 108))):
        jobs.append(search_job(rng, workdir, idx, field, pattern, 12 if tiny else target))
    return jobs


# -- check ----------------------------------------------------------------

def _valid_reply(valid: bool):
    want = json.dumps({"valid": valid}, separators=(",", ":")) + "\n"
    return lambda out: _fail(out == want, f"expected {want.strip()}, got {out[:80]!r}")


def _tamper_cert(obj, how: str, rng):
    """A copy of the certificate that verify_certificate must reject."""
    obj = json.loads(json.dumps(obj))
    if how == "coverage":
        obj["coverage"] += 1
    elif how == "duplicate":        # a repeated tile breaks independence
        victim = int(rng.integers(0, len(obj["tiles"])))
        obj["centers"].append(obj["centers"][victim])
        obj["tiles"].append(obj["tiles"][victim])
        obj["coverage"] += len(obj["tiles"][victim])
    else:
        obj["dim_f"] += 1
    return obj


def _tamper_witness(obj, sizes, how: str, rng):
    """A copy of the witness that witness_check must reject."""
    obj = json.loads(json.dumps(obj))
    if how == "drop":               # coverage below (1 - epsilon) n
        while sum(len(t) for t in obj["tiles"]) >= Fraction(9, 10) * sum(sizes):
            obj["tiles"].pop(int(rng.integers(0, len(obj["tiles"]))))
    elif how == "duplicate":        # a repeated tile breaks independence
        obj["tiles"].append(obj["tiles"][int(rng.integers(0, len(obj["tiles"])))])
    else:                           # the largest tile exceeds K
        obj["K"] = max(sizes) - 1
    return obj


def _cheeger_check(field: str, rep: dict, trials: int):
    ref = ref_field(field)
    n = rep["n"]
    gens_t = [[list(col) for col in zip(*g)] for g in rep["generators"]]

    def check(out):
        obj = json.loads(out)
        w = obj["witness_subspace"]
        if obj["exact"] or obj["samples"] != trials or not 1 <= len(w) <= max(1, n // 2):
            return "cheeger report header is wrong"
        if ref.rref(w)[0] != w:
            return "witness subspace is not in canonical form"
        grown = w + [row for gt in gens_t for row in ref.matmul(w, gt)]
        ratio = Fraction(ref.rank(grown), len(w))
        return _fail(frac(ratio) == obj["min_ratio"] and ratio >= 1,
                     f"min_ratio {obj['min_ratio']} != reference {ratio}")

    return check


_HUA = ("inv(z1) + inv(inv(z2) - z1)", "inv(z1 - z1*z2*z1)")
_NON_IDENTITIES = (("z1*z2", "z2*z1"), ("z1*z2*z1", "z2*z1*z1"), ("z1*z1*z2", "z2*z1*z1"))


def _ncrat_product(ref: RefField, expr: str, point):
    out = None
    for var in expr.split("*"):
        m = point[int(var[1:]) - 1]
        out = m if out is None else ref.matmul(out, m)
    return out


def hua_job(rng) -> Job:
    """Hua's identity over GF(2^8): every common-domain point agrees."""
    argv = ["ncrat-equiv", "--r-expr", _HUA[0], "--s-expr", _HUA[1], "--sizes", "1..3",
            "--trials", "4", "--seed", str(int(rng.integers(0, 1 << 20)))]

    def check(out):
        obj = json.loads(out)
        return _fail(obj["kind"] == "consistent" and 1 <= obj["common_domain_points"] <= 12,
                     f"Hua's identity reported {obj}")

    return Job("ncrat-hua", argv, 0, check)


def non_identity_job(rng, r: str, s: str) -> Job:
    """Two different monomials: a counterexample whose values are the
    reference products at the reported point."""
    argv = ["ncrat-equiv", "--r-expr", r, "--s-expr", s, "--sizes", "2..3",
            "--trials", "4", "--seed", str(int(rng.integers(0, 1 << 20)))]

    def check(out):
        obj = json.loads(out)
        if obj["kind"] != "counterexample":
            return f"non-identity reported {obj['kind']}"
        ref = ref_field("2^8")
        vr, vs = (_ncrat_product(ref, e, obj["point"]) for e in (r, s))
        return _fail(obj["values"] == [vr, vs] and vr != vs,
                     "counterexample values do not match the reference products")

    return Job("ncrat-non-identity", argv, 2, check)


def sofic_job(field: str, levels, basis: int) -> Job:
    argv = ["sofic-check", "--poly-levels", ",".join(map(str, levels)),
            "--basis-size", str(basis), "--field", field]
    d = basis - 1
    # Truncated shifts compose exactly, and x^j truncated on V_m has rank m - j.
    want = {"levels": list(levels), "reports": [
        {"all_ok": True, "max_defect": frac(Fraction(0)), "min_rank": frac(Fraction(m - d, m)),
         "mult_ok": True, "rank_ok": True, "s_bound": frac(Fraction(2 * d, m)), "unit_ok": True}
        for m in levels]}

    def check(out):
        return _fail(json.loads(out) == want, "sofic report differs from the closed form")

    return Job("sofic-check", argv, 0, check)


def check_jobs(rng, workdir: Path, tiny: bool, cli):
    jobs = []
    # Tiling certificates made here, at small sizes, and checked against the
    # closed form before use; each gets one tampered copy.
    for idx, (field, m, two, how) in enumerate((("2", 12, False, "coverage"),
                                                ("2^2", 8, True, "duplicate"),
                                                ("3", 10, True, "dim_f"))):
        src = tile_job(rng, workdir, field, m, two, 8)
        obj = run_setup_job(cli, src)
        base = (["tile-verify", "--poly", str(m), "--field", field]
                + src.argv[src.argv.index("--i"):])
        valid = _write(workdir, f"cert{idx}.json", obj)
        jobs.append(Job("tile-verify", base + ["--cert", valid], 0, _valid_reply(True)))
        bad = _write(workdir, f"cert{idx}_{how}.json", _tamper_cert(obj, how, rng))
        jobs.append(Job("tile-verify-tampered", base + ["--cert", bad], 2, _valid_reply(False)))
    # Witnesses are the planted blocks themselves.
    for idx, (field, pattern, target, how) in enumerate((("2", (2, 3, 4), 16, "drop"),
                                                         ("3", (2, 3), 20, "duplicate"),
                                                         ("2^2", (3, 5), 16, "kbound"))):
        sizes = _sizes(pattern, target)
        rep = _write(workdir, f"wit_rep{idx}.json", planted_rep(field, sizes, rng))
        wit = {"epsilon": frac(Fraction(1, 10)), "K": max(sizes), "tiles": block_bases(sizes)}
        base = ["hyperfinite-check", "--rep", rep, "--witness"]
        jobs.append(Job("hyperfinite-check", base + [_write(workdir, f"wit{idx}.json", wit)], 0,
                        _valid_reply(True)))
        bad = _write(workdir, f"wit{idx}_{how}.json", _tamper_witness(wit, sizes, how, rng))
        jobs.append(Job("hyperfinite-check-tampered", base + [bad], 2, _valid_reply(False)))
    # Sampled expansion at n = 4 (a planted invariant line) and n ~ 24.
    for idx, (field, sizes, trials) in enumerate(
            (("2", [1, 3], 40), ("2", [1, 3], 40), ("3", [1, 3], 40),
             ("2", _sizes((3, 4, 5), 8 if tiny else 24), 6))):
        rep = planted_rep(field, sizes, rng)
        path = _write(workdir, f"cheeger_rep{idx}.json", rep)
        argv = ["cheeger", "--rep", path, "--trials", str(trials),
                "--seed", str(int(rng.integers(0, 1 << 20)))]
        jobs.append(Job("cheeger", argv, 0, _cheeger_check(field, rep, trials)))
    jobs += [hua_job(rng), hua_job(rng)]
    jobs += [non_identity_job(rng, r, s) for r, s in _NON_IDENTITIES]
    jobs += [sofic_job("2", (8, 12), 3), sofic_job("3", (6, 10), 2),
             sofic_job("2^2", (8,), 3), sofic_job("2", (16,), 2)]
    return jobs


def run_setup_job(cli, job: Job):
    """Run a job during set-up; its output must pass the job's own check."""
    out = io.StringIO()
    code = cli.main(list(job.argv), out)
    text = out.getvalue()
    err = None if code == job.code else f"exit {code}, expected {job.code}"
    err = err or job.check(text)
    if err:
        raise RuntimeError(f"set-up job {job.argv[0]} failed its check: {err}")
    return json.loads(text)


def build_jobs(workload: str, seed: int, workdir: Path, tiny: bool, cli):
    rng = np.random.Generator(np.random.Philox(seed))
    if workload == "profile":
        return profile_jobs(rng, tiny)
    if workload == "certify":
        return certify_jobs(rng, workdir, tiny)
    return check_jobs(rng, workdir, tiny, cli)


def fields_of(workload: str):
    return {"profile": FIELDS, "certify": ("2", "3", "2^2"),
            "check": ("2", "3", "2^2", "2^8")}[workload]
