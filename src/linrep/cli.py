"""Command-line surface tying the modules together.

Exit codes: 0 success, 1 input error, 2 check failed, 3 budget exceeded /
inconclusive, 4 internal error (a self-check failed).  All randomness is
counter-based (Philox) and fully determined by --seed, so reports are
byte-identical across runs.

Start-up runs only the modules that rank, profile, atiyah and repair use:
field, freealg, matrix, repseq and subspace, from which this module imports
names.  tiling, soficam, hyperfin and ncrat are imported as the package's
lazy modules, whose code runs when a command first reads a name from one.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter
from fractions import Fraction

import numpy as np

from . import hyperfin, ncrat, soficam, tiling
from .field import MAX_Q, FieldSpec
from .freealg import AlgebraMatrix, parse_element
from .matrix import (DenseMatrix, codes_from_json, fraction_from_json, fraction_to_json,
                     json_typed)
from .repseq import (FamilyDescriptor, RankProfile, Representation, atiyah_check,
                     family_generate, normalized_rank, repair_to_invertible)
from .subspace import ENUM_CAP, BudgetExceededError, Subspace

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CHECK_FAILED = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


class InputError(ValueError):
    pass


def parse_field(text: str) -> FieldSpec:
    text = text.strip()
    if "^" in text:
        p, deg = text.split("^", 1)
        return FieldSpec(int(p), int(deg))
    return FieldSpec(int(text))


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise InputError(f"zero denominator in {text!r}") from exc


def parse_range(text: str):
    """'2..16' or a comma list '8,16,32' of distinct positive sizes; never empty."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        values = list(range(int(lo), int(hi) + 1))
    else:
        values = [int(x) for x in text.split(",")]
    if not values:
        raise InputError(f"range {text!r} is empty")
    if any(v < 1 for v in values):
        raise InputError(f"sizes in {text!r} must be at least 1")
    repeated = [v for v, count in Counter(values).items() if count > 1]
    if repeated:
        raise InputError(f"size {repeated[0]} is repeated in {text!r}")
    return values


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def load_object(path) -> dict:
    """load_json for the files whose top level must be a JSON object."""
    obj = load_json(path)
    if not isinstance(obj, dict):
        raise InputError(f"{path} must hold a JSON object")
    return obj


def emit(obj, out):
    out.write(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    out.write("\n")


def load_approx_map(args) -> tiling.FiniteApproxMap:
    if args.poly:
        field = parse_field(args.field)
        inst = soficam.PolyInstance(field, args.poly)
        return soficam.poly_basis_map(inst, args.poly if args.imax is None else args.imax)
    if args.map:
        obj = load_object(args.map)
        return tiling.FiniteApproxMap.from_json(FieldSpec.from_json(obj["field"]), obj)
    raise InputError("need --map FILE or --poly M")


def load_f_data(args, m: tiling.FiniteApproxMap) -> tiling.FSubspaceData:
    if args.f:
        obj = load_object(args.f)
        finv = obj.get("finv", {})
        if not isinstance(finv, dict):
            raise InputError('"finv" must map basis indices to coordinates')
        basis = codes_from_json(m.field, obj["basis"], m.i_max)
        tiling.require_independent(m.field, basis)
        return tiling.FSubspaceData(
            list(basis),
            {int(k): codes_from_json(m.field, [v], m.i_max)[0] for k, v in finv.items()})
    # Default F = span{1}.
    unit = m.unit_coords()
    return tiling.FSubspaceData([unit], {0: unit})


def load_h(args, field, n) -> Subspace:
    if args.h:
        return Subspace.from_json(field, n, load_json(args.h))
    return Subspace.full(field, n)


# -- subcommand bodies --

def cmd_rank(args, out):
    field = parse_field(args.field)
    m = DenseMatrix.from_json(field, load_json(args.matrix))
    emit({"rank": m.rank(), "rows": m.rows, "cols": m.cols}, out)
    return EXIT_OK


# The families whose generators are permutations, g2..gr the identity.
_PERMUTATION_FAMILIES = {"cyclic": FamilyDescriptor.cyclic_regular,
                         "involution": FamilyDescriptor.involution}


def cmd_profile(args, out):
    field = parse_field(args.field)
    ks = parse_range(args.k)
    elem = parse_element(args.element, field, args.r)
    a = AlgebraMatrix.scalar(field, args.r, 1, elem)
    for k in sorted(ks):   # a comma list may be unordered; output is ordered by k
        desc = (FamilyDescriptor.random_invertible(args.seed + k, args.r)
                if args.family == "random" else _PERMUTATION_FAMILIES[args.family](args.r))
        rep = family_generate(desc, k, field)
        frac = normalized_rank(rep, a)
        out.write(f"{k},{rep.n},{frac * rep.n},{frac.numerator},{frac.denominator}\n")
    return EXIT_OK


def cmd_atiyah(args, out):
    profile = RankProfile()
    try:
        with open(args.profile) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                k, nk, rank = line.split(",")[:3]
                profile.add(int(k), int(nk), int(rank))
    except (OSError, ValueError) as exc:
        raise InputError(f"bad profile file: {exc}") from exc
    report = atiyah_check(profile, args.window, parse_fraction(args.tol))
    emit(report.to_json(), out)
    return EXIT_OK if report.integral else EXIT_CHECK_FAILED


def cmd_tile(args, out):
    m = load_approx_map(args)
    f = load_f_data(args, m)
    h = load_h(args, m.field, m.n)
    delta = parse_fraction(args.delta)
    cert = tiling.greedy_tiling(m, f, h, args.i, delta, seed=args.seed,
                                sample_budget=args.budget)
    emit(cert.to_json(), out)
    return EXIT_OK


def cmd_tile_verify(args, out):
    delta = None if args.delta is None else parse_fraction(args.delta)
    m = load_approx_map(args)
    f = load_f_data(args, m)
    asked_h = load_h(args, m.field, m.n) if args.h else None
    obj = load_object(args.cert)
    cert = tiling.TilingCertificate.from_json(m.field, m.n, obj)
    h = Subspace.from_json(m.field, m.n, cert.h_basis)
    # A certificate made for another H, i or delta than the one asked about is invalid.
    ok = (asked_h in (None, h) and args.i in (None, cert.i) and delta in (None, cert.delta)
          and tiling.verify_certificate(cert, m, f, h, cert.i, cert.delta))
    emit({"valid": ok}, out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_hyperfinite_check(args, out):
    rep = Representation.from_json(load_object(args.rep))
    w = hyperfin.HyperfiniteWitness.from_json(rep.field, rep.n, load_object(args.witness))
    ok = hyperfin.witness_check(rep, w)
    emit({"valid": ok}, out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_hyperfinite_search(args, out):
    rep = Representation.from_json(load_object(args.rep))
    w = hyperfin.witness_search(rep, parse_fraction(args.epsilon), args.K,
                                budget=args.budget, seed=args.seed)
    if w is None:
        emit({"found": False}, out)
        return EXIT_BUDGET
    emit({"found": True, "witness": w.to_json()}, out)
    return EXIT_OK


def cmd_cheeger(args, out):
    rep = Representation.from_json(load_object(args.rep))
    if args.trials:
        report = hyperfin.cheeger_random(rep, args.trials, args.seed)
    else:
        report = hyperfin.cheeger_exact(rep, cap=args.cap)
    emit(report.to_json(), out)
    return EXIT_OK


def cmd_expander(args, out):
    rep = Representation.from_json(load_object(args.rep))
    alpha = parse_fraction(args.alpha)
    ok = hyperfin.expander_check(rep, alpha, cap=args.cap)
    emit({"expander": ok, "alpha": fraction_to_json(alpha)}, out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_sofic_check(args, out):
    if args.poly_levels is not None:
        field = parse_field(args.field)
        levels = parse_range(args.poly_levels)
        # The mult table needs 2 * basis_size - 1 <= min(levels); at one basis
        # element the bound 2d/m below is 0, which fails every exact map.
        top = (min(levels) + 1) // 2
        if not 2 <= args.basis_size <= top:
            raise InputError(f"--basis-size must lie in 2..{top} for these --poly-levels")
        d = args.basis_size - 1   # top degree of the checked span
        reports = []
        for m in levels:
            phi = soficam.poly_basis_map(soficam.PolyInstance(field, m),
                                         min(2 * args.basis_size, m))
            # Each monomial x^j, j <= d, keeps rank at least m - d after truncation.
            floors = [(coords, Fraction(m - d, m))
                      for coords in np.eye(phi.i_max, dtype=np.uint8)[:args.basis_size]]
            reports.append(soficam.sofic_check(soficam.SoficData([phi], [Fraction(2 * d, m)]),
                                               1, floors, basis_count=args.basis_size))
        emit({"levels": levels, "reports": [r.to_json() for r in reports]}, out)
        return EXIT_OK if all(r.all_ok for r in reports) else EXIT_CHECK_FAILED
    if args.sofic is None:
        raise InputError("need --sofic FILE or --poly-levels LIST")
    obj = load_object(args.sofic)
    field = FieldSpec.from_json(obj["field"])
    maps = [tiling.FiniteApproxMap.from_json(field, entry)
            for entry in json_typed(obj["maps"], list, '"maps"')]
    s_bounds = [fraction_from_json(s) for s in json_typed(obj["s"], list, '"s"')]
    if not 1 <= args.level <= min(len(maps), len(s_bounds)):
        raise InputError(f"--level {args.level} is not a level of the sofic file")
    elements = []
    for entry in json_typed(obj.get("elements", []), list, '"elements"'):
        if not (isinstance(entry, list) and len(entry) == 2):
            raise InputError("elements must be [coords, j-floor] pairs")
        coords = codes_from_json(field, [entry[0]], maps[args.level - 1].i_max)[0]
        elements.append((coords, fraction_from_json(entry[1])))
    data = soficam.SoficData(maps, s_bounds)
    report = soficam.sofic_check(data, args.level, elements)
    emit(report.to_json(), out)
    return EXIT_OK if report.all_ok else EXIT_CHECK_FAILED


def cmd_folner(args, out):
    field = parse_field(args.field)
    inst = soficam.PolyInstance(field, args.m)
    elements = json.loads(args.elements)
    if not isinstance(elements, list):
        raise InputError("--elements must be a JSON list of coefficient lists")
    elements = [codes_from_json(field, [e])[0] for e in elements]
    v1, v = soficam.folner_pair(inst, elements, parse_fraction(args.delta))
    emit({"V1": v1.to_json(), "V": v.to_json(),
          "dim_V1": v1.dim, "dim_V": v.dim}, out)
    return EXIT_OK


def cmd_ncrat_eval(args, out):
    field = parse_field(args.field)
    expr = ncrat.parse_ratexpr(args.expr)
    mats = [DenseMatrix.from_json(field, m)
            for m in json_typed(load_json(args.matrices), list, "--matrices")]
    result = ncrat.evaluate(expr, mats)
    if result.ok:
        emit({"ok": True, "value": result.value.to_json()}, out)
        return EXIT_OK
    emit({"ok": False, "failure_path": list(result.failure_path)}, out)
    return EXIT_CHECK_FAILED


def cmd_ncrat_equiv(args, out):
    r_expr = ncrat.parse_ratexpr(args.r_expr)
    s_expr = ncrat.parse_ratexpr(args.s_expr)
    verdict = ncrat.equiv_probabilistic(
        r_expr, s_expr, parse_range(args.sizes), args.trials,
        ext_deg=args.ext_deg, seed=args.seed, base_field=parse_field(args.field))
    emit(verdict.to_json(), out)
    if verdict.kind == "counterexample":
        return EXIT_CHECK_FAILED
    if verdict.kind == "no_common_domain":
        return EXIT_BUDGET
    return EXIT_OK


def cmd_repair(args, out):
    field = parse_field(args.field)
    m = DenseMatrix.from_json(field, load_json(args.matrix))
    repaired = repair_to_invertible(m)
    emit({"repaired": repaired.to_json(),
          "distance": (repaired - m).rank(),
          "defect": m.rows - m.rank()}, out)
    return EXIT_OK


@functools.cache
def build_parser():
    """The argparse parser, built once per process on first use.

    parse_args keeps no state on it between calls: each call gets a fresh
    namespace filled from the defaults."""
    p = argparse.ArgumentParser(prog="linrep",
                                description="exact computations with sequences of "
                                            "linear representations over finite fields")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("rank", cmd_rank, help="rank of a matrix over GF(q)")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--field", default="2")

    sp = add("profile", cmd_profile, help="normalized rank profile of an element")
    sp.add_argument("--family", default="cyclic", choices=["cyclic", "involution", "random"])
    sp.add_argument("--k", required=True, help="range like 2..16")
    sp.add_argument("--element", required=True, help="group-algebra grammar, e.g. 'g1 - 1'")
    sp.add_argument("--field", default="2")
    sp.add_argument("--r", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)

    sp = add("atiyah", cmd_atiyah, help="integrality diagnostic on a profile CSV")
    sp.add_argument("--profile", required=True)
    sp.add_argument("--window", type=int, default=8)
    sp.add_argument("--tol", default="1/32")

    for name, fn in (("tile", cmd_tile), ("tile-verify", cmd_tile_verify)):
        sp = add(name, fn, help=f"{name} a linear tiling")
        sp.add_argument("--map", help="FiniteApproxMap JSON file")
        sp.add_argument("--poly", type=int, help="use the degree-<M truncation fixture")
        sp.add_argument("--imax", type=int)
        sp.add_argument("--field", default="2")
        sp.add_argument("--f", help="F data JSON file (default: span{1})")
        sp.add_argument("--h", help="H basis JSON file (default: full space)" if name == "tile"
                        else "fail unless the certificate was made for this H")
        if name == "tile":
            sp.add_argument("--i", type=int, default=1)
            sp.add_argument("--delta", default="1/4")
            sp.add_argument("--seed", type=int, default=0)
            sp.add_argument("--budget", type=int, default=2048)
        else:
            sp.add_argument("--cert", required=True)
            sp.add_argument("--i", type=int,
                            help="fail unless the certificate was made for this i")
            sp.add_argument("--delta", help="fail unless the certificate was made for this delta")
            for flag in ("--seed", "--budget"):
                sp.add_argument(flag, type=int, help="ignored: accepted for tile's command line")

    sp = add("hyperfinite-check", cmd_hyperfinite_check, help="verify a witness file")
    sp.add_argument("--rep", required=True)
    sp.add_argument("--witness", required=True)

    sp = add("hyperfinite-search", cmd_hyperfinite_search, help="search for a witness")
    sp.add_argument("--rep", required=True)
    sp.add_argument("--epsilon", default="1/10")
    sp.add_argument("--K", type=int, default=8)
    sp.add_argument("--budget", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)

    sp = add("cheeger", cmd_cheeger, help="linear expansion constant")
    sp.add_argument("--rep", required=True)
    sp.add_argument("--trials", type=int, default=0, help="0 = exact enumeration")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--cap", type=int, default=ENUM_CAP)

    sp = add("expander", cmd_expander, help="dimension-expander check")
    sp.add_argument("--rep", required=True)
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--cap", type=int, default=ENUM_CAP)

    sp = add("sofic-check", cmd_sofic_check, help="sofic-representation conditions")
    sp.add_argument("--sofic", help="SoficData JSON file")
    sp.add_argument("--level", type=int, default=1)
    sp.add_argument("--poly-levels", help="truncation fixture sizes, e.g. 8,16,32,64")
    sp.add_argument("--basis-size", type=int, default=3)
    sp.add_argument("--field", default="2")

    sp = add("folner", cmd_folner, help="Folner pair for polynomial elements")
    sp.add_argument("--field", default="2")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--elements", required=True, help="JSON list of coefficient lists")
    sp.add_argument("--delta", required=True)

    sp = add("ncrat-eval", cmd_ncrat_eval, help="evaluate a rational expression")
    sp.add_argument("--expr", required=True)
    sp.add_argument("--matrices", required=True)
    sp.add_argument("--field", default="2^8")

    sp = add("ncrat-equiv", cmd_ncrat_equiv, help="probabilistic equivalence test")
    sp.add_argument("--r-expr", required=True)
    sp.add_argument("--s-expr", required=True)
    sp.add_argument("--sizes", default="1..4")
    sp.add_argument("--trials", type=int, default=50)
    sp.add_argument("--ext-deg", type=int, help=f"default: largest d with q^d <= {MAX_Q}")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--field", default="2")

    sp = add("repair", cmd_repair, help="closest invertible matrix in rank distance")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--field", default="2")
    return p


def main(argv=None, out=None):
    """Run one subcommand and return its exit code; the report goes to `out`.

    main may be called repeatedly in one process: the parser is built on
    the first call and reused, so later calls only parse and dispatch.
    """
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        # argparse drops the value of `--opt=--`, leaving an empty list.
        unset = [name for name, value in vars(args).items() if isinstance(value, list)]
        if unset:
            raise InputError(f"no value given for --{unset[0].replace('_', '-')}")
        return args.fn(args, out)
    except BudgetExceededError as exc:
        emit({"error": "budget_exceeded", "detail": str(exc)}, out)
        return EXIT_BUDGET
    except RuntimeError as exc:
        emit({"error": "internal", "detail": str(exc)}, out)
        return EXIT_INTERNAL
    except KeyError as exc:
        emit({"error": "input", "detail": f"missing key: {exc.args[0]}"}, out)
        return EXIT_INPUT
    except ValueError as exc:
        emit({"error": "input", "detail": str(exc)}, out)
        return EXIT_INPUT


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
