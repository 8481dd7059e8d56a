"""linrep benchmark: closed-loop CLI workloads, checked outputs, traced layers.

Usage (from the repository root):

    python3 perfbench/run.py --workload {profile,certify,check} --seed N \
        --seconds S --trace {0,1} [--tiny]

One process, one client, one thread: each job is a CLI subcommand called
in-process through `linrep.cli.main(argv, out)`, and the next job starts
when the previous one returns.  `LINREP_THREADS` is removed from the
environment before linrep is imported.  Times are scaled to a reference
CPU speed by a calibration taken before every job (see Calibration).

With `--trace 0` the run measures the end-to-end metrics for S seconds.
With `--trace 1` it runs the same jobs untraced for S/2 seconds, times
the kernel sweep, then re-imports linrep with spans installed on every
layer (see tracer.py) and runs the jobs again for S/2 seconds; it prints
the per-layer metrics and the tracing overhead.  Every job's exit code
and output are checked after the timed loop.  The last stdout line is the
result object; the line before it holds details (tail percentile and
sample count, raw figures, machine facts, digests).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter, defaultdict, namedtuple
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads
from reference import RefField

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPS = 9
WARMUP_S = 2.0
DEEP_CHECKS = 2
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
SWEEP_SIZES = (64, 256)   # n = 512 is left out: GF(2^8) matmul builds an n^3 uint8 tensor (128 MiB)
SWEEP_REPS = {64: 5, 256: 1}
LOAD_MODEL = "closed loop; 1 process, 1 client, 1 thread; LINREP_THREADS unset"
CAL_REFERENCE_S = 3.0e-3  # the calibration's time on a 2-vCPU x86_64 VM at its fastest


class Calibration:
    """A fixed piece of benchmark-owned work, timed just before each job and
    each set-up: numpy elimination over the reference tables plus a plain
    Python loop, the two kinds of work linrep does.  On a shared VM the CPU
    speed wanders by up to 2x within seconds; scaling a job's time by
    CAL_REFERENCE_S / (calibration time) removes that and leaves the job's
    cost at a fixed reference speed."""

    def __init__(self):
        self.ref = RefField(3)
        rng = np.random.Generator(np.random.Philox(0))
        self.a = rng.integers(0, 3, size=(24, 24), dtype=np.uint64).astype(np.uint8)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for _ in range(4):
            self.ref.rank_np(self.a)
        acc = 0
        for i in range(20000):
            acc += i
        return time.perf_counter() - t0


def fresh_import():
    """Drop every linrep module and import the package again."""
    for name in [m for m in sys.modules if m == "linrep" or m.startswith("linrep.")]:
        del sys.modules[name]
    import linrep.cli
    return linrep.cli


def set_up(args, workdir, cli=None):
    """Import (unless `cli` is given), field tables and inputs.

    Returns (cli module, jobs, seconds)."""
    workloads.REF_CACHE.clear()
    gc.collect()   # garbage from an earlier import is not this set-up's cost
    t0 = time.perf_counter()
    cli = cli or fresh_import()
    from linrep.field import FieldSpec
    for text in workloads.fields_of(args.workload):
        FieldSpec(*workloads.parse_q(text)).tables
    jobs = workloads.build_jobs(args.workload, args.seed, workdir, args.tiny, cli)
    return cli, jobs, time.perf_counter() - t0


Record = namedtuple("Record", "idx code out wall cpu cal")


def closed_loop(cli, jobs, seconds, calibrate, tracer=None):
    """Run jobs in order, cycling, until `seconds` have passed.

    A record's code is the exit code, or the text of the exception the job
    raised; `cal` is the calibration time measured just before the job."""
    records = []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        idx = i % len(jobs)
        out = io.StringIO()
        cal = calibrate()
        if tracer is not None:
            tracer.job_id = i
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            code = cli.main(list(jobs[idx].argv), out)
        except Exception as exc:  # a job that raises is a failed job, not a crashed run
            code = f"{type(exc).__name__}: {exc}"
        t1, c1 = time.perf_counter(), time.process_time()
        records.append(Record(idx, code, out.getvalue(), t1 - t0, c1 - c0, cal))
        i += 1
        if t1 >= deadline:
            break
    if tracer is not None:
        tracer.job_id = -1
    return records


def speed(cal: float) -> float:
    """Factor that scales a time measured next to calibration time `cal`."""
    return CAL_REFERENCE_S / cal


def digest(code, text) -> str:
    return hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()[:16]


def check_records(jobs, records, reference, errors, crng, deep_checks=DEEP_CHECKS):
    """Check each record; `reference` maps job index -> digest of an accepted
    output and is extended.  Returns the number of failed records."""
    failed = 0
    for r in records:
        idx, code, text = r.idx, r.code, r.out
        job = jobs[idx]
        d = digest(code, text)
        if idx in reference:
            same = d == reference[idx]
            err = None if same else "output differs from the same job's earlier output"
        elif code != job.code:
            err = f"exit {code!r}, expected {job.code}"
        else:
            try:
                err = job.check(text)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                err = f"unreadable output: {type(exc).__name__}: {exc}"
            if err is None:
                reference[idx] = d
        if err:
            failed += 1
            errors.append(f"{job.kind} {' '.join(job.argv)[:120]}: {err}")
    deep = sorted(i for i in reference if jobs[i].deep)
    for idx in crng.permutation(deep)[:deep_checks] if deep else []:
        text = next(r.out for r in records if r.idx == idx)
        err = jobs[idx].deep(text, crng)
        if err:
            failed += 1
            errors.append(f"{jobs[idx].kind} reference: {err}")
    return failed


def tail(lat_ms):
    """Highest ladder percentile with at least ten jobs beyond it."""
    n = len(lat_ms)
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            return p, float(np.percentile(lat_ms, p))
    return 100.0, float(max(lat_ms))


def kernel_sweep(seed, errors, calibrate):
    """rank and matmul per field at n in SWEEP_SIZES, scaled by a calibration
    taken before each; returns (metrics, detail rows, number of checks)."""
    from linrep.field import FieldSpec
    from linrep.matrix import matmul_data, rref_array
    rng = np.random.Generator(np.random.Philox(seed))
    metrics, rows, checks = {}, [], 0
    for text in workloads.FIELDS:
        fs = FieldSpec(*workloads.parse_q(text))
        ref = workloads.ref_field(text)
        for n in SWEEP_SIZES:
            a = rng.integers(0, fs.q, size=(n, n), dtype=np.uint64).astype(np.uint8)
            b = rng.integers(0, fs.q, size=(n, n), dtype=np.uint64).astype(np.uint8)
            rank_t, mm_t = [], []
            factor = speed(calibrate())
            for _ in range(SWEEP_REPS[n]):
                t0 = time.perf_counter()
                _, piv = rref_array(fs, a)
                t1 = time.perf_counter()
                prod = matmul_data(fs, a, b)
                t2 = time.perf_counter()
                rank_t.append(t1 - t0)
                mm_t.append(t2 - t1)
            checks += 2
            if len(piv) != ref.rank_np(a):
                errors.append(f"sweep rank q={fs.q} n={n} differs from the reference")
            # Freivalds: (A B) x == A (B x) for two random x, in reference arithmetic.
            for _ in range(2):
                x = [[int(v)] for v in rng.integers(0, fs.q, size=n)]
                bx = ref.matmul(b.tolist(), x)
                if ref.matmul(prod.tolist(), x) != ref.matmul(a.tolist(), bx):
                    errors.append(f"sweep matmul q={fs.q} n={n} fails the Freivalds check")
                    break
            rank_ms = statistics.median(rank_t) * 1e3 * factor
            mm_ms = statistics.median(mm_t) * 1e3 * factor
            metrics[f"matrix.rank_ms.q{fs.q}.n{n}"] = (rank_ms, "ms")
            metrics[f"matrix.matmul_ms.q{fs.q}.n{n}"] = (mm_ms, "ms")
            rows.append({"q": fs.q, "n": n, "rank_ms": rank_ms, "rank_cells": n * n * len(piv),
                         "matmul_ms": mm_ms, "matmul_macs": n ** 3})
    return metrics, rows, checks


def layer_metrics(tr: tracing.Tracer, job_speed, setup_speed):
    """Per-layer metrics from the traced run; counts and times are per job.

    Times are scaled like the end-to-end ones: by the calibration of their
    job (`job_speed[i]` for job i) or of the set-up."""
    name, parent, job, start, end, self_t = tr.arrays()
    in_job = job >= 0
    scale = np.where(in_job, np.array(job_speed + [setup_speed])[job], setup_speed)
    self_t = self_t * scale
    dur = (end - start) * scale
    span_name = np.array(tr.names, dtype=str)[name]
    parent_name = np.where(parent >= 0, span_name[np.maximum(parent, 0)], "")
    per = max(len(job_speed), 1)

    def sel(n):
        return in_job & (span_name == n)

    def calls(n):
        return float(sel(n).sum()) / per

    def self_s(n):
        return float(self_t[sel(n)].sum()) / per

    def prefix_self(layer):
        mask = in_job & np.char.startswith(span_name, layer + ".")
        return float(self_t[mask].sum()) / per

    def under(n, p):
        return float((sel(n) & (parent_name == p)).sum())

    def ratio(a, b):
        return float(a) / b if b else 0.0

    out = {}
    builds = span_name == "field.FieldTables.__init__"
    out["field.tables.builds"] = (float(builds.sum()), "count")
    out["field.tables.build_s"] = (float(dur[builds].sum()), "s")

    for kernel, key in (("rref", "matrix.rref_array"), ("matmul", "matrix.matmul_data")):
        spans = [s for s in tr.kernel_spans[kernel] if job[s[0]] >= 0]
        idx = np.array([s[0] for s in spans], dtype=np.int64)
        kinds = np.array([s[1] for s in spans])
        small = np.array([s[2] for s in spans], dtype=bool)
        work = float(sum(s[3] for s in spans))
        st = self_t[idx] if len(idx) else np.zeros(0)
        out[f"{key}.calls"] = (len(spans) / per, "count/job")
        if kernel == "rref":
            out[f"{key}.self_s"] = (float(st.sum()) / per, "s/job")
            out[f"{key}.self_s.small"] = (float(st[small].sum()) / per, "s/job")
            out[f"{key}.self_s.large"] = (float(st[~small].sum()) / per, "s/job")
            out[f"{key}.cells"] = (work / per, "count/job")
            out["matrix.rref_array.small_share"] = (ratio(small.sum(), len(spans)), "ratio")
        else:
            out[f"{key}.macs"] = (work / per, "count/job")
        for kind in ("gf2", "gfp", "gfpd"):
            out[f"{key}.self_s.{kind}"] = (float(st[kinds == kind].sum()) / per, "s/job")
    out["matrix.random_invertible.draws_per_matrix"] = (
        ratio(under("matrix.random_matrix", "matrix.random_invertible"),
              sel("matrix.random_invertible").sum()), "ratio")

    out["subspace.Subspace.constructs"] = (calls("subspace.Subspace.__init__"), "count/job")
    for op in ("sum", "intersection", "contains_vector"):
        out[f"subspace.{op}.calls"] = (calls(f"subspace.Subspace.{op}"), "count/job")
    out["subspace.self_s"] = (prefix_self("subspace"), "s/job")
    out["freealg.parse_element.self_s"] = (self_s("freealg.parse_element"), "s/job")
    out["repseq.family_generate.self_s"] = (self_s("repseq.family_generate"), "s/job")
    out["repseq.apply_matrix.self_s"] = (self_s("repseq.apply_matrix"), "s/job")
    of_word = sel("repseq.Representation.of_word").sum()
    out["repseq.of_word.calls"] = (float(of_word) / per, "count/job")
    out["repseq.of_word.hit_ratio"] = (ratio(tr.counts["of_word.hits"], of_word), "ratio")

    out["tiling.greedy_tiling.self_s"] = (self_s("tiling.greedy_tiling"), "s/job")
    for fn in ("is_center", "orbit_of", "good_subspace"):
        out[f"tiling.{fn}.calls"] = (calls(f"tiling.{fn}"), "count/job")
    out["tiling.center_accept_ratio"] = (
        ratio(tr.counts["greedy_tiling.centers"],
              under("tiling.is_center", "tiling.greedy_tiling")), "ratio")
    out["tiling.verify_certificate.self_s"] = (self_s("tiling.verify_certificate"), "s/job")

    out["hyperfin.grow.calls"] = (calls("hyperfin.grow"), "count/job")
    out["hyperfin.witness_search.self_s"] = (self_s("hyperfin.witness_search"), "s/job")
    out["hyperfin.tile_accept_ratio"] = (
        ratio(tr.counts["witness_search.tiles"],
              under("hyperfin.orbit_closure", "hyperfin.witness_search")), "ratio")
    out["hyperfin.witness_check.self_s"] = (self_s("hyperfin.witness_check"), "s/job")
    out["hyperfin.cheeger_random.self_s"] = (self_s("hyperfin.cheeger_random"), "s/job")
    out["hyperfin.cheeger_random.samples_per_s"] = (
        ratio(tr.counts["cheeger_random.samples"], dur[sel("hyperfin.cheeger_random")].sum()),
        "1/s")

    out["soficam.poly_basis_map.self_s"] = (self_s("soficam.poly_basis_map"), "s/job")
    out["soficam.sofic_check.self_s"] = (self_s("soficam.sofic_check"), "s/job")
    out["ncrat.evaluate.calls"] = (calls("ncrat.evaluate"), "count/job")
    out["ncrat.evaluate.self_s"] = (self_s("ncrat.evaluate"), "s/job")
    points = (under("ncrat.evaluate", "ncrat.equiv_probabilistic")
              - 2 * tr.counts["equiv.counterexamples"]) / 2
    out["ncrat.common_domain_ratio"] = (ratio(tr.counts["equiv.common"], points), "ratio")
    out["cli.self_s"] = (prefix_self("cli"), "s/job")
    return out


def e2e_metrics(records, setup_s, peak_rss_mib, failed):
    """End-to-end metrics of one timed loop, and the raw figures behind them.

    Each execution's wall and CPU time is scaled to the reference speed
    (see Calibration), and counts at the median scaled time of its job over
    the loop, so that single executions slowed by other tenants drop out."""
    scaled_wall, scaled_cpu = defaultdict(list), defaultdict(list)
    for r in records:
        scaled_wall[r.idx].append(r.wall * speed(r.cal))
        scaled_cpu[r.idx].append(r.cpu * speed(r.cal))
    job_ms = {j: statistics.median(v) * 1e3 for j, v in scaled_wall.items()}
    job_cpu_ms = {j: statistics.median(v) * 1e3 for j, v in scaled_cpu.items()}
    n = len(records)
    lat_ms = [job_ms[r.idx] for r in records]
    tail_p, tail_ms = tail(lat_ms)
    raw_ms = [r.wall * 1e3 for r in records]
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (n * 1e3 / sum(lat_ms), "1/s"),
        "job_p50_ms": (statistics.median(lat_ms), "ms"),
        "job_tail_ms": (tail_ms, "ms"),
        "cpu_ms_per_job": (sum(job_cpu_ms[r.idx] for r in records) / n, "ms"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "ok_frac": ((n - failed) / n, "ratio"),
    }
    timing = {"jobs": n, "job_tail_percentile": tail_p, "job_tail_samples": n,
              "calibration_ms": statistics.median(r.cal for r in records) * 1e3,
              "raw": {"jobs_per_s": n * 1e3 / sum(raw_ms), "job_p50_ms": statistics.median(raw_ms),
                      "job_tail_ms": tail(raw_ms)[1],
                      "cpu_ms_per_job": sum(r.cpu for r in records) * 1e3 / n},
              "scaled_ms_by_job": {str(j): v for j, v in sorted(job_ms.items())}}
    return metrics, timing


def machine_facts():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "linrep" / "cli.py").is_file():
        print(f"linrep sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.pop("LINREP_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))

    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir):
    errors = []
    # The first set-up may compile bytecode; then a short untimed loop lets
    # the CPU clock settle before set-up and jobs are timed.
    calibrate = Calibration()
    cli, jobs, first_setup_s = set_up(args, workdir)
    closed_loop(cli, jobs, WARMUP_S, calibrate)
    setup_s = []
    for _ in range(SETUP_REPS):
        factor = speed(calibrate())
        cli, jobs, dt = set_up(args, workdir)
        setup_s.append(dt * factor)
    phase = args.seconds / 2 if args.trace else args.seconds

    records = closed_loop(cli, jobs, phase, calibrate)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    crng = np.random.Generator(np.random.Philox(args.seed + 1))
    reference = {}
    failed = check_records(jobs, records, reference, errors, crng)
    attempted = len(records)
    metrics, timing = e2e_metrics(records, statistics.median(setup_s), peak_rss_mib, failed)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "load_model": LOAD_MODEL, "machine": machine_facts(),
        "setup_s_first": first_setup_s, "setup_s_reps": setup_s, **timing,
        "jobs_by_kind": dict(Counter(jobs[r.idx].kind for r in records)),
        "job_list_digest": hashlib.sha256(
            json.dumps([j.argv for j in jobs]).replace(str(workdir), "").encode()).hexdigest()[:16],
        "output_digests": {str(k): v for k, v in sorted(reference.items())},
    }
    if args.trace:
        metrics, trace_detail, t_attempted, t_failed = traced_phase(
            args, workdir, records, reference, errors, crng, calibrate)
        attempted += t_attempted
        failed += t_failed
        detail["traced"] = trace_detail
    detail["errors"] = errors[:20]
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


def paired_overhead(untraced, traced):
    """Traced over untraced scaled latency, summed over the jobs both phases
    ran (median per job), minus one.  Pairing by job keeps the job mix of
    each phase out of the comparison."""
    lat = [defaultdict(list), defaultdict(list)]
    for side, records in zip(lat, (untraced, traced)):
        for r in records:
            side[r.idx].append(r.wall * speed(r.cal))
    common = lat[0].keys() & lat[1].keys()
    base = sum(statistics.median(lat[0][j]) for j in common)
    return sum(statistics.median(lat[1][j]) for j in common) / base - 1 if base else 0.0


def traced_phase(args, workdir, untraced, reference, errors, crng, calibrate):
    sweep, sweep_rows, sweep_checks = kernel_sweep(args.seed, errors, calibrate)
    tr = tracing.Tracer()
    cli = fresh_import()
    tracing.install(tr)
    # Set up again under the tracer, so field table builds are counted.
    cal = calibrate()
    cli, jobs, _ = set_up(args, workdir, cli)
    records = closed_loop(cli, jobs, args.seconds / 2, calibrate, tracer=tr)
    # Traced stdout must be byte-identical to untraced stdout for the same job.
    failed = check_records(jobs, records, reference, errors, crng, deep_checks=0)
    metrics = layer_metrics(tr, [speed(r.cal) for r in records], speed(cal))

    def rate(recs):
        return len(recs) / sum(r.wall * speed(r.cal) for r in recs)

    metrics["trace.jobs_per_s.untraced"] = (rate(untraced), "1/s")
    metrics["trace.jobs_per_s.traced"] = (rate(records), "1/s")
    metrics["trace.overhead"] = (paired_overhead(untraced, records), "ratio")
    metrics.update(sweep)
    span_file = HERE / "_out" / f"spans-{args.workload}-{args.seed}.npz"
    span_file.parent.mkdir(exist_ok=True)
    tr.save(span_file)
    detail = {"spans": len(tr.start), "span_file": str(span_file.relative_to(ROOT)),
              "traced_jobs": len(records), "sweep": sweep_rows}
    sweep_failed = sum(1 for e in errors if e.startswith("sweep"))
    return metrics, detail, len(records) + sweep_checks, failed + sweep_failed


if __name__ == "__main__":
    sys.exit(main())
