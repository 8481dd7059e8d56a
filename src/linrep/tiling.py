"""Linear tilings: good subspaces, centers, greedy tiling, certificates.

A FiniteApproxMap is a unit-preserving linear map from the span of finitely
many basis elements of an algebra into Mat_n(GF(q)), together with a partial
multiplication table for the basis.  Goodness of a vector means the map is
exactly multiplicative on it for all products from the first i basis
elements; tilings pack mutually independent orbits of good vectors.  The
good subspace and the candidate space are kernels of stacked conditions.
Images and defects are raw code arrays (FiniteApproxMap.image and
.defects); only phi_of wraps an image as a DenseMatrix.  Orbits come from
one product with the stacked F-basis images; the greedy tiler's
candidates lie in A_{F,i}, so it tests only dimension and independence.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .field import FieldSpec
from .matrix import (DenseMatrix, SpanAccumulator, codes_from_json, fraction_from_json,
                     fraction_to_json, json_typed, matmul_data, open_unit_fraction,
                     random_codes, rank_data, sub_data)
from .subspace import AmbientMismatchError, Subspace, subspaces_independent


class MissingProductError(ValueError):
    """The partial multiplication table lacks a needed basis product."""


class FiniteApproxMap:
    """phi restricted to span{r_1..r_imax}, with phi(r_1) = Id.

    `phi` lists the images of the basis elements (index 0 is r_1 = 1).
    `mult` maps 1-based basis index pairs (a, b) to the coordinate vector
    of r_a * r_b in span{r_1..r_imax}; entries may be absent.
    """

    __slots__ = ("field", "n", "i_max", "phi", "mult")

    def __init__(self, field: FieldSpec, phi, mult):
        self.field = field
        self.phi = list(phi)
        if not self.phi:
            raise ValueError("phi needs at least the image of the unit")
        self.i_max = len(self.phi)
        self.n = self.phi[0].rows
        if self.phi[0] != DenseMatrix.identity(field, self.n):
            raise ValueError("phi(1) must be the identity (unit preserving)")
        for m in self.phi:
            if m.field != field or m.rows != self.n or m.cols != self.n:
                raise ValueError("phi images must be n x n over the field")
        self.mult = {}
        for (a, b), coords in mult.items():
            coords = np.asarray(coords, dtype=np.uint8)
            if coords.shape != (self.i_max,):
                raise ValueError("mult coordinates must have length i_max")
            self.mult[(int(a), int(b))] = coords

    def image(self, coords) -> np.ndarray:
        """The raw n x n code array of the span element with the given basis
        coordinates: the sum of c_k phi(r_k) over its nonzero c_k only, as
        one matmul_data product."""
        coords = np.asarray(coords, dtype=np.uint8)
        idx = np.flatnonzero(coords)
        mats = np.array([self.phi[k].data for k in idx], dtype=np.uint8)
        acc = matmul_data(self.field, coords[None, idx], mats.reshape(len(idx), self.n * self.n))
        return acc.reshape(self.n, self.n)

    def phi_of(self, coords) -> DenseMatrix:
        """image(coords) as a DenseMatrix."""
        return DenseMatrix(self.field, self.image(coords))

    def defects(self, i: int) -> list:
        """The raw defects phi(r_s r_t) - phi(r_s) phi(r_t) for s, t <= i in
        row-major order, each zero exactly where phi multiplies: one product
        of the two images and one sub_data from the table's image.  The
        first pair the table lacks, in that order, raises MissingProductError."""
        pairs = [(s, t) for s in range(1, i + 1) for t in range(1, i + 1)]
        f, phi = self.field, self.phi
        return [sub_data(f, self.image(coords), matmul_data(f, phi[s - 1].data, phi[t - 1].data))
                for (s, t), coords in zip(pairs, self._products(pairs))]

    def product_coords(self, ca, cb) -> np.ndarray:
        """Coordinates of the product of two span elements (bilinear expansion)."""
        ca = np.asarray(ca, dtype=np.uint8)
        cb = np.asarray(cb, dtype=np.uint8)
        weights = matmul_data(self.field, ca[:, None], cb[None, :])    # ca[a] * cb[b]
        keys = [(a + 1, b + 1) for a, b in zip(*np.nonzero(weights))]
        terms = np.array(self._products(keys), dtype=np.uint8)
        return matmul_data(self.field, weights[weights != 0][None, :],
                           terms.reshape(len(keys), self.i_max))[0]

    def _products(self, pairs) -> list:
        """Each pair's product coordinates; the first pair the table lacks raises."""
        for pair in pairs:
            if pair not in self.mult:
                raise MissingProductError("mult table has no entry for ({}, {})".format(*pair))
        return [self.mult[pair] for pair in pairs]

    @staticmethod
    def from_json(field, obj):
        """Decode {"phi": [matrix, ...], "mult": [[a, b, coords], ...]}."""
        if not isinstance(obj, dict):
            raise ValueError('a map must be an object {"phi": [...], "mult": [...]}')
        phi = [DenseMatrix.from_json(field, m) for m in json_typed(obj["phi"], list, '"phi"')]
        i_max = len(phi)
        mult = {}
        for entry in json_typed(obj["mult"], list, '"mult"'):
            if not (isinstance(entry, list) and len(entry) == 3
                    and all(type(x) is int and 1 <= x <= i_max for x in entry[:2])):
                raise ValueError(f"mult entries must be [a, b, coords] with a, b in 1..{i_max}")
            a, b, coords = entry
            mult[(a, b)] = codes_from_json(field, [coords], i_max)[0]
        return FiniteApproxMap(field, phi, mult)

    def unit_coords(self) -> np.ndarray:
        c = np.zeros(self.i_max, dtype=np.uint8)
        c[0] = 1
        return c


@dataclass
class FSubspaceData:
    """The tile-shape subspace F: basis coordinate vectors, 1 included.

    `finv` optionally maps the index of each nonzero basis element to the
    coordinates of its inverse.  The inverse precondition holds when every
    basis element is listed, it and its listed inverse lie in span{r_1..r_i},
    and the multiplication table gives their product as 1 in both orders.
    A missing `finv` entry or table product reports it False.
    """

    basis: list
    finv: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        self.basis = [np.asarray(v, dtype=np.uint8) for v in self.basis]
        self.finv = {int(k): np.asarray(v, dtype=np.uint8) for k, v in self.finv.items()}
        if not any(v[0] == 1 and not np.any(v[1:]) for v in self.basis):
            raise ValueError("F must contain the unit")

    @property
    def dim(self):
        return len(self.basis)


def require_independent(field: FieldSpec, basis) -> None:
    """ValueError unless the rows of `basis` are linearly independent: dim F
    counts the rows, so a dependent basis would ask for orbits of a
    dimension that F cannot reach."""
    basis = np.asarray(basis, dtype=np.uint8)
    if rank_data(field, basis) < len(basis):
        raise ValueError("the F basis is linearly dependent")


@dataclass
class TilingCertificate:
    """Checkable evidence of an (F, H, i, delta)-tiling."""

    i: int
    delta: Fraction
    dim_f: int
    centers: list                 # vectors in GF(q)^n
    tiles: list                   # Subspace phi(F)(x) per center
    h_basis: list                 # canonical basis of H
    coverage: int                 # sum of tile dimensions
    partial: bool = False         # candidate budget ran out before maximality

    def to_json(self):
        return {"i": self.i,
                "delta": fraction_to_json(self.delta),
                "dim_f": self.dim_f,
                "centers": [np.asarray(c).astype(int).tolist() for c in self.centers],
                "tiles": [t.to_json() for t in self.tiles],
                "h_basis": [list(map(int, row)) for row in self.h_basis],
                "coverage": self.coverage,
                "partial": self.partial}

    @staticmethod
    def from_json(field, n, obj):
        tiles = [Subspace.from_json(field, n, rows)
                 for rows in json_typed(obj["tiles"], list, '"tiles"')]
        return TilingCertificate(
            i=json_typed(obj["i"], int, '"i"'),
            delta=open_unit_fraction(fraction_from_json(obj["delta"]), "delta"),
            dim_f=json_typed(obj["dim_f"], int, '"dim_f"'),
            centers=list(codes_from_json(field, obj["centers"], n)),
            tiles=tiles,
            h_basis=codes_from_json(field, obj["h_basis"], n).tolist(),
            coverage=json_typed(obj["coverage"], int, '"coverage"'),
            partial=json_typed(obj.get("partial", False), bool, '"partial"'))


def good_subspace(m: FiniteApproxMap, i: int) -> Subspace:
    """G^{i,phi}: vectors where phi is exactly multiplicative up to level i.

    By bilinearity this is the common kernel of the defects
    phi(r_s r_t) - phi(r_s) phi(r_t) over basis pairs s, t <= i.
    """
    if not 1 <= i <= m.i_max:
        raise ValueError(f"i = {i} must lie in 1..{m.i_max}")
    return Subspace.kernel_of(m.field, m.n, np.concatenate(m.defects(i)))


def is_good_map(m: FiniteApproxMap, i: int) -> bool:
    """dim G^{i,phi} >= (1 - 1/i) n, compared with exact rationals."""
    g = good_subspace(m, i)
    return Fraction(g.dim, m.n) >= 1 - Fraction(1, i)


def candidate_space(m: FiniteApproxMap, f: FSubspaceData, h: Subspace, i: int,
                    good: Subspace | None = None) -> Subspace:
    """A_{F,i}: vectors x with phi(f)(x) in G intersect H for every f in F,
    the kernel of the blocks [ann(G); ann(H)] . phi(f)."""
    if h.field != m.field or h.ambient != m.n:
        raise AmbientMismatchError("H must live in the map's ambient space")
    good = good_subspace(m, i) if good is None else good
    ann = np.concatenate([good.annihilator(), h.annihilator()], axis=0)
    blocks = [matmul_data(m.field, ann, m.image(coords)) for coords in f.basis]
    return Subspace.kernel_of(m.field, m.n, np.concatenate(blocks))


def orbit_images(m: FiniteApproxMap, f_rows, xs) -> np.ndarray:
    """images[j, k] = phi(f_k)(x_j) for every row x_j of `xs` and every
    coordinate row f_k of `f_rows`, in one product with the images of the
    f_k stacked as a (len(f_rows) * n) x n array."""
    xs = np.asarray(xs, dtype=np.uint8).reshape(len(xs), m.n)
    stacked = np.concatenate([m.image(coords) for coords in f_rows])
    return matmul_data(m.field, xs, stacked.T).reshape(len(xs), len(f_rows), m.n)


def is_center(m: FiniteApproxMap, f: FSubspaceData, h: Subspace, i: int, x,
              good: Subspace | None = None) -> bool:
    """Center conditions for a single vector (set-level independence excluded):
    the orbit has dimension dim F, lies in H, and every image is i-good.
    """
    good = good_subspace(m, i) if good is None else good
    return _center_orbits(m, f, h, [x], good)[0] is not None


def _center_orbits(m: FiniteApproxMap, f: FSubspaceData, h: Subspace, xs,
                   good: Subspace) -> list:
    """For each row x of `xs`, the orbit phi(F)(x) when x meets the center
    conditions, else None; H and G test all images in one residual each."""
    if h.field != m.field or h.ambient != m.n:
        raise AmbientMismatchError("H must live in the map's ambient space")
    images = orbit_images(m, f.basis, xs)
    flat = images.reshape(-1, m.n)
    inside = ~np.any(h.residual(flat), axis=1) & ~np.any(good.residual(flat), axis=1)
    orbits = [Subspace(m.field, m.n, ims) for ims in images]
    return [orbit if ok and orbit.dim == f.dim else None
            for orbit, ok in zip(orbits, inside.reshape(len(images), f.dim).all(axis=1))]


@dataclass
class PreconditionReport:
    """Sufficient inequalities from the tiling theorem's proof, individually."""

    inverses_in_span: bool
    candidate_dim_ok: bool
    kernel_bound_ok: bool
    f_size_ok: bool
    h_dim_ok: bool
    good_map_ok: bool

    @property
    def all_ok(self) -> bool:
        return all(asdict(self).values())

    def to_json(self):
        return asdict(self) | {"all_ok": self.all_ok}


def _is_inverse(m: FiniteApproxMap, a, b) -> bool:
    """a b = b a = 1 by the multiplication table; False where it lacks a product."""
    unit = m.unit_coords()
    try:
        return all(np.array_equal(m.product_coords(x, y), unit) for x, y in ((a, b), (b, a)))
    except MissingProductError:
        return False


def precondition_check(m: FiniteApproxMap, f: FSubspaceData, h: Subspace,
                       i: int, delta: Fraction) -> PreconditionReport:
    good = good_subspace(m, i)
    return _preconditions(m, f, h, i, delta, good, candidate_space(m, f, h, i, good=good))


def _preconditions(m: FiniteApproxMap, f: FSubspaceData, h: Subspace, i: int,
                   delta: Fraction, good: Subspace, a_space: Subspace) -> PreconditionReport:
    """precondition_check given G^{i,phi} and A_{F,i}."""
    delta = Fraction(delta)
    n = m.n

    # F and the inverses of its listed nonzero basis elements inside span{r_1..r_i},
    # each a two-sided inverse by the multiplication table.
    inverses = all(idx in f.finv and not (np.any(coords[i:]) or np.any(f.finv[idx][i:]))
                   and _is_inverse(m, coords, f.finv[idx])
                   for idx, coords in enumerate(f.basis))
    candidate_ok = Fraction(a_space.dim, n) >= 1 - delta / 4
    kernel_ok = all(np.any(coords)
                    and Fraction(n - rank_data(m.field, m.image(coords)), n) <= delta / 3
                    for coords in f.basis)
    # |F| = q^dim F <= q^(delta n / 3), i.e. dim F <= delta n / 3.
    f_size_ok = Fraction(f.dim) <= delta * n / 3
    h_ok = Fraction(h.dim, n) >= 1 - Fraction(1, i)
    good_ok = Fraction(good.dim, n) >= 1 - Fraction(1, i)
    return PreconditionReport(inverses, candidate_ok, kernel_ok, f_size_ok, h_ok, good_ok)


def greedy_tiling(m: FiniteApproxMap, f: FSubspaceData, h: Subspace, i: int,
                  delta: Fraction, *, seed: int = 0, sample_budget: int = 2048) -> TilingCertificate:
    """Maximal greedy set of centers over a deterministic candidate pool.

    Candidates are the echelon basis vectors of A_{F,i} first, then seeded
    pseudo-random samples from A_{F,i}, whose orbits lie in G and H: one is
    accepted when its orbit has dimension dim F and is independent of the
    tiles before it.  The scan stops once the tiles leave less than dim F
    of H uncovered, since no later orbit can then be independent of them.
    If the precondition report is all-true, the theorem's coverage bound
    (1 - delta) n is asserted.  A delta outside (0, 1) or a negative budget
    raises ValueError.
    """
    delta = open_unit_fraction(delta, "delta")
    if sample_budget < 0:
        raise ValueError(f"sample budget {sample_budget} must be at least 0")
    require_independent(m.field, f.basis)
    good = good_subspace(m, i)
    a_space = candidate_space(m, f, h, i, good=good)
    report = _preconditions(m, f, h, i, delta, good, a_space)

    rng = np.random.Generator(np.random.Philox(seed))
    exhausted = a_space.dim > 0 and m.field.q ** a_space.dim > sample_budget + a_space.dim
    coeffs = random_codes(m.field, rng, (sample_budget if a_space.dim else 0, a_space.dim))
    candidates = np.concatenate([a_space.basis, matmul_data(m.field, coeffs, a_space.basis)])

    centers, tiles = [], []
    accum = SpanAccumulator(m.field, m.n)
    for x, images in zip(candidates, orbit_images(m, f.basis, candidates)):
        if accum.dim + f.dim > h.dim:
            break
        # try_add takes the dim F images only when they are independent of
        # each other and of the tiles before: an orbit of dimension dim F.
        if accum.try_add(images):
            centers.append(x.copy())
            tiles.append(Subspace(m.field, m.n, images))

    coverage = sum(t.dim for t in tiles)
    cert = TilingCertificate(i=i, delta=delta, dim_f=f.dim, centers=centers,
                             tiles=tiles, h_basis=h.to_json(),
                             coverage=coverage, partial=exhausted)
    if report.all_ok and Fraction(coverage, m.n) < 1 - delta:
        raise RuntimeError(
            "tiling theorem violated: preconditions hold but greedy coverage "
            f"{coverage}/{m.n} < (1 - {delta})")
    return cert


def verify_certificate(cert: TilingCertificate, m: FiniteApproxMap, f: FSubspaceData,
                       h: Subspace, i: int, delta: Fraction) -> bool:
    """Re-check every center condition, independence, and coverage from scratch."""
    delta = Fraction(delta)
    if f.dim != cert.dim_f or len(cert.centers) != len(cert.tiles):
        return False
    orbits = _center_orbits(m, f, h, cert.centers, good_subspace(m, i))
    if any(orbit is None or orbit != claimed for orbit, claimed in zip(orbits, cert.tiles)):
        return False
    if not subspaces_independent(orbits):
        return False
    coverage = sum(t.dim for t in orbits)
    if coverage != cert.coverage:
        return False
    return Fraction(coverage, m.n) >= 1 - delta
