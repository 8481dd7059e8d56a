"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Each test prints its verdict through the capture-disabled channel so the
line is visible in normal pytest output, then asserts it.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import linrep
from linrep.field import GF2, FieldSpec
from linrep.freealg import AlgebraElement, AlgebraMatrix, ParseError, Word, parse_element
from linrep.hyperfin import (HyperfiniteWitness, cheeger_exact, cheeger_random,
                             witness_check, witness_search)
from linrep.matrix import DenseMatrix, random_invertible, random_matrix
from linrep.ncrat import (Const, Inv, Prod, Sum, Var, equiv_probabilistic,
                          evaluate, parse_ratexpr, print_ratexpr)
from linrep.repseq import (FamilyDescriptor, RankProfile, Representation,
                           atiyah_check, family_generate, normalized_rank,
                           repair_to_invertible)
from linrep.soficam import PolyInstance, SoficData, poly_basis_map, sofic_check
from linrep.subspace import Subspace, projection_onto, subspaces_independent
from linrep.tiling import (FiniteApproxMap, FSubspaceData, good_subspace,
                           greedy_tiling, is_center, precondition_check,
                           verify_certificate)

F3 = FieldSpec(3)
F4 = FieldSpec(2, 2)
F256 = FieldSpec(2, 8)


@pytest.fixture
def verdict(capsys):
    def emit(name, ok):
        with capsys.disabled():
            print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
        assert ok, name
    return emit


def philox(seed):
    return np.random.Generator(np.random.Philox(seed))


def block_rep(field, sizes, r=2, seed=0):
    g = philox(seed)
    n = sum(sizes)
    gens = []
    for _ in range(r):
        data = np.zeros((n, n), dtype=np.uint8)
        off = 0
        for s in sizes:
            data[off:off + s, off:off + s] = random_invertible(field, g, s).data
            off += s
        gens.append(DenseMatrix(field, data))
    return Representation(field, gens)


def test_acceptance_01_rank_axioms(verdict):
    start = time.time()
    ok = True
    for field in (GF2, F3, F4):
        g = philox(field.q)
        for _ in range(1000):
            a = random_matrix(field, g, 6)
            b = random_matrix(field, g, 6)
            ra, rb = a.rank(), b.rank()
            ok &= (a + b).rank() <= ra + rb
            ok &= (a @ b).rank() <= min(ra, rb)
            # Orthogonal idempotents carved from A's row space.
            u = Subspace(field, 6, a.data)
            c = u.complement()
            if 0 < u.dim < 6:
                p = projection_onto(u, c)
                q = projection_onto(c, u)
                ok &= (p @ q).rank() == 0 and (q @ p).rank() == 0
                ok &= (p + q).rank() == p.rank() + q.rank()
            # Block additivity.
            blk = np.zeros((12, 12), dtype=np.uint8)
            blk[:6, :6] = a.data
            blk[6:, 6:] = b.data
            ok &= DenseMatrix(field, blk).rank() == ra + rb
    elapsed = time.time() - start
    verdict("1 rank-axiom suite", ok and elapsed < 10)


def test_acceptance_02_regular_profile(verdict):
    start = time.time()
    elem = parse_element("g1 - e", GF2, 1)
    a = AlgebraMatrix.scalar(GF2, 1, 1, elem)
    profile = RankProfile()
    ok = True
    for k in range(2, 65):
        rep = family_generate(FamilyDescriptor.cyclic_regular(1), k, GF2)
        r = normalized_rank(rep, a)
        ok &= r == Fraction(k - 1, k)
        # Independent oracle: the kernel of theta(g1) - I is exactly the
        # all-ones line, so rank-nullity forces k - 1.
        diff = rep.generators[0] - DenseMatrix.identity(GF2, k)
        ker = diff.kernel()
        ok &= len(ker) == 1 and bool(np.all(ker[0] == 1))
        profile.add(k, k, int(r * k))
    report = atiyah_check(profile, 8, Fraction(1, 32))
    ok &= report.integral and report.nearest_integer == 1
    elapsed = time.time() - start
    verdict("2 regular-representation profile", ok and elapsed < 5)


def test_acceptance_03_tiling_theorem(verdict):
    ok = True
    delta = Fraction(1, 4)
    for m_dim in (16, 32, 64):
        inst = PolyInstance(GF2, m_dim)
        m = poly_basis_map(inst, m_dim)
        e0 = np.eye(m_dim, dtype=np.uint8)[0]
        f = FSubspaceData([e0], {0: e0})
        h = Subspace.full(GF2, m_dim)
        report = precondition_check(m, f, h, 4, delta)
        if report.all_ok:
            cert = greedy_tiling(m, f, h, 4, delta, seed=0)
            ok &= Fraction(cert.coverage, m_dim) >= 1 - delta
            ok &= verify_certificate(cert, m, f, h, 4, delta)
    # Exhaustive center re-check at m = 12 on a map with a genuine defect.
    inst = PolyInstance(GF2, 12)
    base = poly_basis_map(inst, 12)
    phi = list(base.phi)
    phi[1] = repair_to_invertible(phi[1])
    m = FiniteApproxMap(GF2, phi, base.mult)
    eye = np.eye(12, dtype=np.uint8)
    f = FSubspaceData([eye[0], eye[1]], {0: eye[0]})
    h = Subspace(GF2, 12, eye[:10])
    g = good_subspace(m, 3)
    for v in Subspace.full(GF2, 12).vectors():
        images = [m.phi_of(c).apply(v) for c in f.basis]
        orbit = Subspace(GF2, 12, np.array(images))
        brute = (orbit.dim == f.dim and h.contains(orbit)
                 and all(g.contains_vector(im) for im in images))
        if is_center(m, f, h, 3, v, good=g) != brute:
            ok = False
            break
    verdict("3 tiling theorem at desk scale", ok)


def _mutate_witness(w, rng):
    """One random single-field mutation guaranteed to violate a witness bullet:
    a duplicated tile breaks independence, a zeroed tile breaks positivity,
    keeping one tile breaks coverage (n = 100, tiles <= 5), and shrinking K
    below the smallest tile breaks the dimension bound."""
    op = rng.choice(["duplicate", "zero", "drop", "shrink_k"])
    tiles = list(w.subspaces)
    pick = int(rng.integers(0, len(tiles)))
    if op == "duplicate":
        tiles.append(tiles[pick])
        return HyperfiniteWitness(w.epsilon, w.k_bound, tiles)
    if op == "zero":
        tiles[pick] = Subspace(tiles[0].field, tiles[0].ambient)
        return HyperfiniteWitness(w.epsilon, w.k_bound, tiles)
    if op == "drop":
        return HyperfiniteWitness(w.epsilon, w.k_bound, [tiles[pick]])
    return HyperfiniteWitness(w.epsilon, min(t.dim for t in tiles) - 1, tiles)


def test_acceptance_04_witness_soundness(verdict):
    ok = True
    for fixture in range(10):
        g = philox(1000 + fixture)
        sizes, total = [], 0
        while total < 100:
            s = min(int(g.integers(1, 6)), 100 - total)
            sizes.append(s)
            total += s
        rep = block_rep(GF2, sizes, seed=2000 + fixture)
        w = witness_search(rep, Fraction(1, 10), 5, budget=2000, seed=fixture)
        if w is None or not witness_check(rep, w):
            ok = False
            continue
        mut_rng = philox(3000 + fixture)
        for _ in range(100):
            if witness_check(rep, _mutate_witness(w, mut_rng)):
                ok = False
                break
    verdict("4 witness soundness", ok)


def test_acceptance_05_expansion_oracles(verdict):
    start = time.time()
    g = philox(55)
    ok = True
    equal = 0
    for i in range(20):
        rep = Representation(GF2, [random_invertible(GF2, g, 4) for _ in range(2)])
        exact = cheeger_exact(rep)
        sampled = cheeger_random(rep, 10_000, seed=i)
        ok &= sampled.min_ratio >= exact.min_ratio
        equal += sampled.min_ratio == exact.min_ratio
    ok &= equal >= 18
    planted = block_rep(GF2, [1, 3], seed=56)
    ok &= cheeger_exact(planted).min_ratio == 1
    elapsed = time.time() - start
    verdict("5 expansion oracle agreement", ok and elapsed < 60)


def test_acceptance_06_folner_sofic_pipeline(verdict):
    ok = True
    basis = 3  # span{1, x, x^2}, top degree d = 2
    d = basis - 1
    levels = (8, 16, 32, 64)
    maps, bounds = [], []
    for m in levels:
        inst = PolyInstance(GF2, m)
        maps.append(poly_basis_map(inst, 2 * basis))
        bounds.append(Fraction(2 * d, m))
    ok &= all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))
    data = SoficData(maps, bounds)
    for idx, m in enumerate(levels):
        elements = []
        for j in range(basis):
            c = np.zeros(maps[idx].i_max, dtype=np.uint8)
            c[j] = 1
            elements.append((c, Fraction(m - d, m)))
        report = sofic_check(data, idx + 1, elements, basis_count=basis)
        ok &= report.all_ok
        ok &= report.min_rank is not None and report.min_rank >= 1 - Fraction(2, m)
    verdict("6 Folner/sofic pipeline", ok)


def test_acceptance_07_repair(verdict):
    ok = True
    g = philox(77)
    for _ in range(500):
        n = int(g.integers(2, 51))
        m = random_matrix(GF2, g, n)
        data = np.array(m.data)
        data[int(g.integers(0, n))] = 0  # force a deficiency
        m = DenseMatrix(GF2, data)
        repaired = repair_to_invertible(m)
        ok &= repaired.is_invertible()
        ok &= (repaired - m).rank() == n - m.rank()
    # Exhaustive minimality for every 2x2 and 3x3 matrix over GF(2).
    for n in (2, 3):
        mats = [DenseMatrix(GF2, np.array(bits, dtype=np.uint8).reshape(n, n))
                for bits in product(range(2), repeat=n * n)]
        invertibles = [m for m in mats if m.is_invertible()]
        for m in mats:
            repaired = repair_to_invertible(m)
            best = min((inv - m).rank() for inv in invertibles)
            ok &= (repaired - m).rank() == best == n - m.rank()
    verdict("7 representation repair", ok)


def test_acceptance_08_ncrat(verdict):
    ok = True
    hua_l = parse_ratexpr("inv(z1) + inv(inv(z2) - z1)")
    hua_r = parse_ratexpr("inv(z1 - z1*z2*z1)")
    v = equiv_probabilistic(hua_l, hua_r, [1, 2, 3, 4], 40, seed=8)
    ok &= v.kind == "consistent" and v.common_domain_points >= 50
    v = equiv_probabilistic(parse_ratexpr("z1*z2"), parse_ratexpr("z2*z1"),
                            [2], 100, seed=8)
    ok &= v.kind == "counterexample"
    if ok and v.point is not None:
        a, b = v.point
        ok &= a @ b != b @ a
    g = philox(88)
    for _ in range(1000):
        a = random_invertible(F256, g, 3)
        b = random_invertible(F256, g, 3)
        ok &= (a.inverse() - b.inverse()).rank() == (a - b).rank()
    verdict("8 ncrat identities", ok)


def _random_algebra_element(g, field, r):
    terms = {}
    for _ in range(int(g.integers(0, 5))):
        letters = []
        for _ in range(int(g.integers(0, 6))):
            letters.append((int(g.integers(1, r + 1)),
                            1 if g.integers(0, 2) else -1))
        coeff = int(g.integers(1, field.q))
        terms[Word.from_letters(letters)] = coeff
    return AlgebraElement(field, r, terms)


def _random_ratexpr(g, depth, parent=None):
    if depth == 0 or g.integers(0, 3) == 0:
        if g.integers(0, 2):
            return Var(int(g.integers(1, 4)))
        return Const(int(g.integers(0, 4)))
    kind = ["sum", "prod", "inv"][int(g.integers(0, 3))]
    if kind == "inv":
        return Inv(_random_ratexpr(g, depth - 1, "inv"))
    if kind == "prod":
        # Products directly inside products would be flattened by the parser.
        parts = tuple(_random_ratexpr(g, depth - 1, "prod")
                      for _ in range(int(g.integers(2, 4))))
        parts = tuple(p if not isinstance(p, Prod) else Inv(p) for p in parts)
        return Prod(parts)
    parts = tuple(_random_ratexpr(g, depth - 1, "sum")
                  for _ in range(int(g.integers(2, 4))))
    return Sum(parts)


def test_acceptance_09_parser_round_trips(verdict):
    ok = True
    g = philox(99)
    for field in (GF2, F4):
        for _ in range(500):
            e = _random_algebra_element(g, field, 3)
            ok &= parse_element(str(e), field, 3) == e
    for _ in range(1000):
        expr = _random_ratexpr(g, 3)
        text = print_ratexpr(expr)
        back = parse_ratexpr(text)
        ok &= back == expr and print_ratexpr(back) == text
    malformed_alg = ["", "g0", "g1 +", "h1", "g1 ** g2", "g1 g2", "g9", "+g1",
                     "g1^", "g1^x", "2*", "e e"]
    for bad in malformed_alg:
        try:
            parse_element(bad, F3, 3)
            ok = False
        except ParseError as exc:
            ok &= 0 <= exc.pos <= len(bad)
        except Exception:
            ok = False
    malformed_rat = ["", "z", "z0", "inv()", "inv(z1", "z1 +", "* z1",
                     "z1 z2", "inw(z1)", "(z1", "z1 ++ z2", ")z1("]
    for bad in malformed_rat:
        try:
            parse_ratexpr(bad)
            ok = False
        except ParseError as exc:
            ok &= 0 <= exc.pos <= len(bad)
        except Exception:
            ok = False
    verdict("9 parser round-trips", ok)


def _run_cli(args):
    # The CLI runs the linrep this suite imported, installed or not.
    src = os.path.dirname(os.path.dirname(linrep.__file__))
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-m", "linrep.cli", *args],
                          capture_output=True, env=dict(os.environ, PYTHONPATH=path))
    return proc.returncode, proc.stdout


def test_acceptance_10_determinism(verdict, tmp_path):
    rep = block_rep(GF2, [3, 4, 3], seed=10)
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(rep.to_json()))
    # Each command with the exit code it must give: three identical
    # failures to start are not determinism.
    commands = [
        (0, ["profile", "--family", "random", "--k", "2..6", "--element", "g1 - 1",
             "--field", "2", "--r", "2", "--seed", "11"]),
        (0, ["tile", "--poly", "16", "--field", "2", "--i", "4", "--delta", "1/4",
             "--seed", "11"]),
        (0, ["hyperfinite-search", "--rep", str(rep_path), "--epsilon", "1/10",
             "--K", "4", "--budget", "300", "--seed", "11"]),
        (0, ["cheeger", "--rep", str(rep_path), "--trials", "300", "--seed", "11"]),
        (2, ["ncrat-equiv", "--r-expr", "z1*z2", "--s-expr", "z2*z1",
             "--sizes", "2..3", "--trials", "20", "--seed", "11"]),
    ]
    ok = True
    for expected, cmd in commands:
        runs = [_run_cli(cmd) for _ in range(3)]
        codes = {code for code, _ in runs}
        outputs = {out for _, out in runs}
        ok &= codes == {expected} and len(outputs) == 1
    verdict("10 determinism", ok)
