"""Self-test of the benchmark itself: `python3 perfbench/selftest.py` from the repo root.

For each workload, at tiny sizes: the result line has the contract's shape
and names every metric of BENCHMARK.json with its unit; all checks pass;
the same seed gives the same job list and the same output digests; another
seed gives other inputs.  Finally the benchmark must refuse to run, without
a result line, in a directory that holds only BENCHMARK.json and the
benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def expect(cond, message):
    if not cond:
        raise AssertionError(message)


def run(args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def result(workload, seed, trace):
    code, lines, err = run(["--workload", workload, "--seed", str(seed), "--seconds",
                            str(2 if trace else 1), "--trace", str(trace), "--tiny"])
    if code != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace} exited {code}: {err[-2000:]}")
    res = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    expect(set(res) == {"correct", "attempted", "failed", "metrics"}, f"result keys {res.keys()}")
    expect(res["correct"] is True and res["failed"] == 0, f"checks failed: {detail['errors']}")
    expect(isinstance(res["attempted"], int) and res["attempted"] >= 1, "nothing attempted")
    return res, detail


def expect_metrics(res, specs):
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    want = {m["name"]: m["unit"] for m in specs}
    expect(got == want, f"metric names or units differ: {set(got.items()) ^ set(want.items())}")
    for name, v in res["metrics"].items():
        expect(isinstance(v["value"], (int, float)), f"{name} is not a number")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names differ")
    for workload in WORKLOADS:
        a1, d1 = result(workload, 101, 0)
        a2, d2 = result(workload, 101, 0)
        _, d3 = result(workload, 202, 0)
        expect_metrics(a1, spec["end_to_end"])
        expect(d1["job_list_digest"] == d2["job_list_digest"], "same seed, other job list")
        common = d1["output_digests"].keys() & d2["output_digests"].keys()
        expect(common and all(d1["output_digests"][k] == d2["output_digests"][k] for k in common),
               "same seed, other outputs")
        expect(d1["job_list_digest"] != d3["job_list_digest"], "another seed, same inputs")
        t, _ = result(workload, 101, 1)
        expect_metrics(t, spec["per_layer"])
        print(f"{workload}: ok ({a1['attempted']} jobs untraced, {t['attempted']} traced)")

    # Without the linrep sources the benchmark must fail and print no result.
    (HERE / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "_work") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
        code, lines, _ = run(["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                              "--trace", "0"], cwd=tmp, script=Path(tmp) / HERE.name / "run.py")
        expect(code != 0 and not any(line.startswith('{"correct"') for line in lines),
               "ran without the linrep sources")
    print("bare directory: refused")
    print("selftest: PASS")


if __name__ == "__main__":
    main()
