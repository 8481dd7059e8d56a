"""The benchmark's tracer keeps working on the package: it wraps the layers of
a fresh import, and the wrapped CLI runs benchmark jobs to their checked
outputs while spans and the of_word cache hook record."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import linrep

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(linrep.__file__).resolve().parent.parent

# A fresh interpreter builds the tiny profile and certify job lists, installs
# the tracer on its first linrep import, runs one cyclic profile, one random
# profile and one hyperfinite-search job, and prints per job (kind, exit
# code, expected code, check error) and the of_word span and hit counts.
SCRIPT = textwrap.dedent("""
    import io, json, sys
    from pathlib import Path
    sys.path[:0] = [sys.argv[1], sys.argv[2]]
    import tracer, workloads
    import linrep.cli as cli
    tr = tracer.Tracer()
    tracer.install(tr)
    work = Path(sys.argv[3])
    jobs = (workloads.build_jobs("profile", 3, work, True, cli)
            + workloads.build_jobs("certify", 3, work, True, cli))
    picked = [next(j for j in jobs if j.kind == kind)
              for kind in ("profile-cyclic", "profile-random", "hyperfinite-search")]
    report = []
    for i, job in enumerate(picked):
        out = io.StringIO()
        tr.job_id = i
        code = cli.main(list(job.argv), out)
        report.append([job.kind, code, job.code, job.check(out.getvalue())])
    tr.job_id = -1
    of_word = tr.names.index("repseq.Representation.of_word")
    print(json.dumps({"jobs": report, "of_word_spans": list(tr.name).count(of_word),
                      "of_word_hits": tr.counts["of_word.hits"]}))
""")


def test_tracer_runs_profile_and_search_jobs(tmp_path):
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(SRC), str(ROOT / "perfbench"),
                           str(tmp_path)], capture_output=True, text=True, cwd=tmp_path,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["jobs"] == [["profile-cyclic", 0, 0, None], ["profile-random", 0, 0, None],
                              ["hyperfinite-search", 0, 0, None]]
    # The random profile evaluates its words through of_word, and each word
    # is cached when normalized_rank first reads it, so apply_matrix hits.
    assert report["of_word_spans"] > 0
    assert report["of_word_hits"] == report["of_word_spans"]
