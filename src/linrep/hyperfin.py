"""Hyperfiniteness witnesses, witness search, and dimension expansion.

A witness decomposes GF(q)^n into independent, almost-invariant tiles of
bounded dimension covering most of the space; the expansion constant is
the minimal growth ratio dim(W + sum theta(gamma_i) W)/dim W over small
subspaces, computed exactly by enumeration or bounded from above by
sampling.  The search spins each seed vector's chain span(v) < grow(span(v))
< ... in a SpanAccumulator and keeps the growths of the accepted tiles in
another; witness_check re-derives every condition on canonical Subspaces,
sharing no accumulation code with the search.  Every growth takes its
generator images from Representation.images (a column gather for a
permutation generator, one product for the dense ones), so this module
runs no product of its own and only the span or rank of a stack is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .matrix import (SpanAccumulator, fraction_from_json, fraction_to_json, json_typed,
                     open_unit_fraction, random_codes, rank_data)
from .repseq import Representation
from .subspace import (ENUM_CAP, BudgetExceededError, Subspace, enumerate_subspaces,
                       gaussian_binomial, subspaces_independent)
from .tiling import FiniteApproxMap, TilingCertificate, orbit_images


@dataclass
class HyperfiniteWitness:
    epsilon: Fraction
    k_bound: int
    subspaces: list

    def to_json(self):
        return {"epsilon": fraction_to_json(self.epsilon),
                "K": self.k_bound,
                "tiles": [s.to_json() for s in self.subspaces]}

    @staticmethod
    def from_json(field, n, obj):
        eps = open_unit_fraction(fraction_from_json(obj["epsilon"]), "epsilon")
        tiles = [Subspace.from_json(field, n, rows)
                 for rows in json_typed(obj["tiles"], list, '"tiles"')]
        return HyperfiniteWitness(eps, json_typed(obj["K"], int, '"K"'), tiles)


@dataclass
class ExpansionReport:
    min_ratio: Fraction
    witness_subspace: Subspace
    exact: bool
    samples: int

    def to_json(self):
        return {"min_ratio": fraction_to_json(self.min_ratio),
                "witness_subspace": self.witness_subspace.to_json(),
                "exact": self.exact,
                "samples": self.samples}


def grow(rep: Representation, w: Subspace) -> Subspace:
    """W + sum_i theta(gamma_i) W."""
    return Subspace(rep.field, rep.n, np.concatenate([w.basis, rep.images(w.basis)]))


def _grown_dim(rep: Representation, rows) -> int:
    """dim grow(span(rows)): the rank of the rows stacked on their images."""
    return rank_data(rep.field, np.concatenate([rows, rep.images(rows)]))


def witness_check(rep: Representation, w: HyperfiniteWitness) -> bool:
    """Re-derive all three witness conditions; trusts nothing in the witness."""
    n = rep.n
    grown = []
    for v in w.subspaces:
        if v.ambient != n:
            raise ValueError("witness tile ambient does not match representation")
        if v.dim == 0 or v.dim > w.k_bound:
            return False
        wv = grow(rep, v)
        if Fraction(wv.dim) >= (1 + w.epsilon) * v.dim:
            return False
        grown.append(wv)
    if not subspaces_independent(grown):
        return False
    coverage = sum(v.dim for v in w.subspaces)
    return Fraction(coverage) >= (1 - w.epsilon) * n


def cheeger_exact(rep: Representation, cap: int = ENUM_CAP) -> ExpansionReport:
    """Exact minimal growth ratio over all W with 1 <= dim W <= n/2.
    A negative cap raises ValueError."""
    if cap < 0:
        raise ValueError(f"cap {cap} must be at least 0")
    n = rep.n
    if n < 2:
        raise ValueError(f"expansion needs n >= 2: at n = {n} no W has 1 <= dim W <= n/2")
    total = sum(gaussian_binomial(n, d, rep.field.q) for d in range(1, n // 2 + 1))
    if total > cap:
        raise BudgetExceededError(f"{total} subspaces exceeds cap {cap}")
    best = None
    best_w = None
    count = 0
    for d in range(1, n // 2 + 1):
        for w in enumerate_subspaces(rep.field, n, d):
            count += 1
            ratio = Fraction(_grown_dim(rep, w.basis), w.dim)
            if best is None or ratio < best:
                best, best_w = ratio, w
    return ExpansionReport(best, best_w, True, count)


def cheeger_random(rep: Representation, trials: int, seed: int = 0) -> ExpansionReport:
    """Sampled upper bound on the same minimum; exact=False.

    Each trial draws at most n/2 random rows; dim W and dim grow(W) are the
    ranks of the rows and of the rows stacked on their images under every
    generator, taken in one Representation.images call.  Ties break by
    canonical basis, for determinism, so the canonical W is built only for
    a sample whose ratio is at most the best so far.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = rep.n
    if n < 2:
        raise ValueError(f"expansion needs n >= 2: at n = {n} no W has 1 <= dim W <= n/2")
    field = rep.field
    rng = np.random.Generator(np.random.Philox(seed))
    best = None
    best_w = None
    for _ in range(trials):
        d = int(rng.integers(1, n // 2 + 1))
        rows = random_codes(field, rng, (d, n))
        dim = rank_data(field, rows)
        if dim == 0:
            continue
        ratio = Fraction(_grown_dim(rep, rows), dim)
        if best is None or ratio <= best:
            w = Subspace(field, n, rows)
            if best is None or (ratio, _canon_key(w)) < (best, _canon_key(best_w)):
                best, best_w = ratio, w
    if best is None:
        # All samples degenerated to zero; fall back to a coordinate line.
        w = Subspace(field, n, np.eye(n, dtype=np.uint8)[:1])
        best, best_w = Fraction(_grown_dim(rep, w.basis), w.dim), w
    return ExpansionReport(best, best_w, False, trials)


def _canon_key(w: Subspace):
    return (w.dim, w.basis.tobytes())


def expander_check(rep: Representation, alpha: Fraction, cap: int = ENUM_CAP) -> bool:
    """Dimension-expander test: every small subspace grows by >= 1 + alpha."""
    return cheeger_exact(rep, cap).min_ratio >= 1 + Fraction(alpha)


def _chain(rep: Representation, vec, max_dim: int):
    """The spin of vec: s_0 = span(vec) and s_(j+1) = grow(s_j), while
    0 < dim s_j <= max_dim.  Since g s_(j-1) lies in s_j, s_(j+1) is s_j
    plus the images of the rows that s_j added, so each step takes the
    images of only those.  Returns the rows in the order they were added,
    the first dims[j] of them spanning s_j, and the dims.  Every s_j but
    the last is a member of the chain, paired with its growth s_(j+1); the
    last member is invariant when the last two dims are equal."""
    acc = SpanAccumulator(rep.field, rep.n)
    new = acc.extend(np.asarray(vec, dtype=np.uint8)[None, :])
    added, dims = [new], [acc.dim]
    while 0 < dims[-1] <= max_dim:
        new = acc.extend(rep.images(new))
        added.append(new)
        dims.append(acc.dim)
        if not len(new):
            break
    return np.concatenate(added), dims


def witness_search(rep: Representation, epsilon: Fraction, k_bound: int,
                   budget: int = 1000, seed: int = 0) -> HyperfiniteWitness | None:
    """Heuristic witness construction; None means budget exhausted, nothing more.
    A negative budget or a K below 1 raises ValueError.

    Pipeline: orbit-closure tiles seeded from coordinate and random vectors,
    then greedy acceptance of almost-invariant tiles whose growths stay
    independent of the growths accepted already, all held in one
    SpanAccumulator; a tile becomes a canonical Subspace once accepted.
    """
    epsilon = open_unit_fraction(epsilon, "epsilon")
    if budget < 0:
        raise ValueError(f"budget {budget} must be at least 0")
    if k_bound < 1:
        raise ValueError(f"K = {k_bound} must be at least 1")
    n = rep.n
    rng = np.random.Generator(np.random.Philox(seed))
    tiles = []
    grown_accum = SpanAccumulator(rep.field, n)
    covered = 0
    # covered >= (1 - epsilon) n and grown >= (1 + epsilon) dim, cross-multiplied.
    num, den = epsilon.numerator, epsilon.denominator

    seeds = list(np.eye(n, dtype=np.uint8))
    for _ in range(budget):
        if covered * den >= (den - num) * n:
            break
        if seeds:
            vec = seeds.pop(0)
        else:
            vec = random_codes(rep.field, rng, n)
        if grown_accum.contains(vec):
            continue
        rows, dims = _chain(rep, vec, k_bound)
        members = list(zip(dims, dims[1:]))     # (dim s_j, dim grow(s_j))
        # The orbit closure first, then almost-invariant members, smallest up.
        if members and members[-1][0] == members[-1][1]:
            members = members[-1:] + members[:-1]
        for dim, grown in members:
            if grown * den >= (den + num) * dim:
                continue
            if grown_accum.try_add(rows[:grown]):
                tiles.append(Subspace(rep.field, n, rows[:dim]))
                covered += dim
                break

    if covered * den >= (den - num) * n:
        witness = HyperfiniteWitness(epsilon, k_bound, tiles)
        if not witness_check(rep, witness):
            raise RuntimeError("witness search built a witness that witness_check rejects")
        return witness
    return None


def epsilon_for_delta(delta: Fraction) -> Fraction:
    """Smallest workable epsilon for a tiling parameter delta:
    needs (1-delta)^2 > 1-eps and (1-delta)^(-1) <= 1+eps.  Every delta >= 1/2
    needs eps >= 1, which no witness has, and raises ValueError.
    """
    delta = open_unit_fraction(delta, "delta")
    lower = max(1 - (1 - delta) ** 2, 1 / (1 - delta) - 1)
    # Strict inequality in the first bound: nudge upward.
    return open_unit_fraction(lower + Fraction(1, 1 + lower.denominator * 4), "epsilon")


def witness_from_tiling(rep: Representation, approx: FiniteApproxMap,
                        cert: TilingCertificate, f_basis, f1_basis,
                        epsilon: Fraction) -> HyperfiniteWitness:
    """Tiles V_x = phi(F_1)(x) for each certified center x.

    F_1 must sit inside F; acceptance is decided separately by
    witness_check, never here.  An epsilon outside (0, 1) raises ValueError.
    """
    epsilon = open_unit_fraction(epsilon, "epsilon")
    f_space = Subspace(approx.field, approx.i_max, f_basis)
    if np.any(f_space.residual(f1_basis)):
        raise ValueError("F_1 is not contained in F")
    tiles = [Subspace(approx.field, approx.n, images)
             for images in orbit_images(approx, f1_basis, cert.centers)]
    return HyperfiniteWitness(epsilon, cert.dim_f, tiles)
