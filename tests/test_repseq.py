from fractions import Fraction

import numpy as np
import pytest

from linrep.field import GF2, FieldSpec
from linrep.freealg import AlgebraMatrix, Word, parse_element
from linrep.matrix import DenseMatrix, random_invertible, random_matrix
from linrep.repseq import (FamilyDescriptor, RankProfile, Representation,
                           apply_matrix, atiyah_check, family_generate,
                           normalized_rank, rank_distance, rank_profile,
                           repair_to_invertible)

F3 = FieldSpec(3)


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def test_representation_rejects_singular_generators():
    sing = DenseMatrix.from_rows(GF2, [[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        Representation(GF2, [sing])


def test_word_evaluation_is_homomorphic():
    g = rng(1)
    rep = Representation(F3, [random_invertible(F3, g, 4) for _ in range(2)])
    words = [Word.generator(1), Word.generator(2, -1),
             Word.generator(1) * Word.generator(2),
             Word.generator(2, 3) * Word.generator(1, -2)]
    for u in words:
        for v in words:
            assert rep.of_word(u * v) == rep.of_word(u) @ rep.of_word(v)
        assert rep.of_word(u) @ rep.of_word(u.inverse()) == DenseMatrix.identity(F3, 4)


def test_cyclic_profile_is_exact():
    elem = parse_element("g1 - e", GF2, 1)
    a = AlgebraMatrix.scalar(GF2, 1, 1, elem)
    for k in range(2, 17):
        rep = family_generate(FamilyDescriptor.cyclic_regular(1), k, GF2)
        assert normalized_rank(rep, a) == Fraction(k - 1, k)


def test_blockwise_evaluation_matches_diag_blocks():
    # Evaluating a block-diagonal algebra matrix equals the block-diagonal of
    # the evaluations (additivity of rank over blocks comes for free).
    g = rng(2)
    rep = Representation(GF2, [random_invertible(GF2, g, 3) for _ in range(2)])
    a = AlgebraMatrix.scalar(GF2, 2, 1, parse_element("g1 + g2^-1", GF2, 2))
    b = AlgebraMatrix.scalar(GF2, 2, 2, parse_element("g1*g2 - e", GF2, 2))
    d = AlgebraMatrix.diag_blocks(a, b)
    ma, mb, md = apply_matrix(rep, a), apply_matrix(rep, b), apply_matrix(rep, d)
    assert md.rank() == ma.rank() + mb.rank()
    assert np.array_equal(md.data[:3, :3], ma.data)
    assert np.array_equal(md.data[3:, 3:], mb.data)


def test_abelian_quotient_generators_commute():
    rep = family_generate(FamilyDescriptor.abelian_quotient((3, 4)), 0, GF2)
    g1, g2 = rep.generators
    assert rep.n == 12
    assert g1 @ g2 == g2 @ g1
    # Orders match the moduli.
    assert rep.of_word(Word.generator(1, 3)) == DenseMatrix.identity(GF2, 12)
    assert rep.of_word(Word.generator(2, 4)) == DenseMatrix.identity(GF2, 12)


def test_block_diagonal_family_of_swaps():
    desc = FamilyDescriptor.block_diagonal(
        (FamilyDescriptor.cyclic_regular(1), FamilyDescriptor.cyclic_regular(1)))
    rep = family_generate(desc, 2, GF2)
    swap = [[0, 1], [1, 0]]
    want = np.zeros((4, 4), dtype=np.uint8)
    want[:2, :2] = swap
    want[2:, 2:] = swap
    assert rep.n == 4
    assert np.array_equal(rep.generators[0].data, want)


def test_random_invertible_family_is_seed_deterministic():
    desc = FamilyDescriptor.random_invertible(7, 5, 2)
    a = family_generate(desc, 0, GF2)
    b = family_generate(desc, 0, GF2)
    assert a.generators == b.generators


def test_atiyah_report_integral_and_not():
    prof = RankProfile()
    for k in range(2, 65):
        prof.add(k, k, k - 1)
    rep = atiyah_check(prof, 8, Fraction(1, 32))
    assert rep.integral and rep.nearest_integer == 1
    short = RankProfile()
    for k in range(2, 10):
        short.add(k, k, k - 1)
    rep2 = atiyah_check(short, 8, Fraction(1, 32))
    assert not rep2.integral  # tail still far from the limit
    half = RankProfile()
    for k in range(2, 20):
        half.add(k, 2, 1)
    rep3 = atiyah_check(half, 8, Fraction(1, 32))
    assert not rep3.integral and rep3.limit_estimate == Fraction(1, 2)


def test_atiyah_needs_enough_entries():
    prof = RankProfile()
    prof.add(2, 2, 1)
    with pytest.raises(ValueError):
        atiyah_check(prof, 8, Fraction(1, 32))


def test_rank_profile_collects_in_order():
    a = AlgebraMatrix.scalar(GF2, 1, 1, parse_element("g1 - e", GF2, 1))
    reps = [(k, family_generate(FamilyDescriptor.cyclic_regular(1), k, GF2))
            for k in (2, 3, 4)]
    prof = rank_profile(reps, a)
    assert prof.entries == [(2, 2, 1), (3, 3, 2), (4, 4, 3)]


def test_repair_identity_on_invertible():
    g = rng(3)
    m = random_invertible(F3, g, 4)
    assert repair_to_invertible(m) == m


def test_repair_raises_when_the_repair_is_singular(monkeypatch):
    monkeypatch.setattr(DenseMatrix, "is_invertible", lambda self: False)
    with pytest.raises(RuntimeError):
        repair_to_invertible(DenseMatrix.from_rows(GF2, [[1, 1], [1, 1]]))


def test_repair_minimality_exhaustive_2x2_gf2():
    # Brute-force the rank metric: for every singular M, no invertible N is
    # closer than the repair.
    from itertools import product
    all_mats = [DenseMatrix.from_rows(GF2, [[a, b], [c, d]])
                for a, b, c, d in product(range(2), repeat=4)]
    invertibles = [m for m in all_mats if m.is_invertible()]
    for m in all_mats:
        r = repair_to_invertible(m)
        assert r.is_invertible()
        dist = (r - m).rank()
        best = min((n - m).rank() for n in invertibles)
        assert dist == best == m.rows - m.rank()


def test_rank_distance_is_a_metric_sample():
    g = rng(4)
    for _ in range(50):
        a, b, c = (random_matrix(GF2, g, 4) for _ in range(3))
        assert rank_distance(a, a) == 0
        assert rank_distance(a, b) == rank_distance(b, a)
        assert rank_distance(a, c) <= rank_distance(a, b) + rank_distance(b, c)


def test_json_round_trip():
    g = rng(5)
    rep = Representation(F3, [random_invertible(F3, g, 3) for _ in range(2)])
    rt = Representation.from_json(rep.to_json())
    assert rt.field == rep.field and rt.generators == rep.generators
