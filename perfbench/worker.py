"""One benchmark process: input generation, a set-up sample, or one pass.

Reads a JSON request on stdin and prints one JSON result line on stdout.
Every mode starts in a fresh process, as one CLI invocation does, so
fields and memo caches start cold, and every mode first times the set-up:
build_field for every field the workload uses (a `setup_s` sample).

- gen: then generates the run's inputs from the seed;
- setup: nothing more;
- pass: then runs the workload (`run_s`; the probe checks interleaved
  with it are timed apart and left out) and reads this process's peak RSS
  from its own getrusage.  A traced pass drops the probe, reports the
  per-layer metrics of set-up and run, and on `direct` adds the `--jobs`
  pool scan.

Run by perfbench/run.py:  python3 perfbench/worker.py < request.json
"""

from __future__ import annotations

import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter


def _load(root):
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.path.insert(0, str(root / "src"))
    import cppforge.cli  # noqa: F401  (loads every module the tracer wraps)
    import workloads
    return workloads


def setup(req, workloads):
    from cppforge.field import build_field
    t0 = perf_counter()
    for p, n, mod in workloads.fields(req["workload"], req["size"]):
        build_field(p, n, mod)
    return perf_counter() - t0


def run_pass(req, workloads):
    from tracer import Tracer

    workload, size = req["workload"], req["size"]
    cfg = workloads.SIZES[workload][size]
    workdir = Path(req["workdir"])
    tracer = Tracer() if req["trace"] else None
    if tracer:
        tracer.install()

    setup_s = setup(req, workloads)
    ps = workloads.Pass(workdir, probe=not tracer)
    t1 = perf_counter()
    workloads.RUN[workload](ps, cfg, req["inputs"])
    run_s = perf_counter() - t1 - ps.probe_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out = {"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": peak_rss_mb,
           "check_ms": ps.check_ms}
    if tracer:
        out["layers"] = tracer.layer_metrics()
        out["layers"]["scan.direct_cpp_scan.pool_s"] = 0.0
        if workload == "direct":
            out["layers"]["scan.direct_cpp_scan.pool_s"] = _pool_s(ps, tracer)
        spans = workdir / f"spans-{workload}.jsonl"
        tracer.dump(spans)
        out["spans_file"] = str(spans)
        tracer.uninstall()
    out.update(attempted=ps.attempted, failed=ps.failed, failures=ps.failures)
    return out


def _pool_s(ps, tracer):
    """F_3^8 direct scan through count-cpp with min(2, nproc) jobs; the
    serial twin is the direct scan inside `count-cpp --method both`."""
    jobs = min(2, os.cpu_count() or 1)
    path = ps.workdir / "count-pool.json"
    mark = len(tracer.spans)
    rc, _, err = ps.cli(["count-cpp", "--p", "3", "--k", "2", "--r", "4",
                         "--method", "direct", "--jobs", str(jobs),
                         "--out", str(path)])
    count = json.loads(path.read_text())["count"] if rc == 0 else None
    ps.expect(count == 64, f"pool count-cpp jobs={jobs}: exit {rc}, count "
                           f"{count} {err.strip()[:200]}")
    return tracer.total_s("scan.direct_cpp_scan", since=mark)


def main():
    req = json.loads(sys.stdin.read())
    workloads = _load(Path(req["root"]))
    if req["mode"] == "pass":
        out = run_pass(req, workloads)
    else:
        out = {"setup_s": setup(req, workloads)}
    if req["mode"] == "gen":
        import cppforge
        import numpy
        t0 = perf_counter()
        out.update(inputs=workloads.generate(req["workload"], req["size"],
                                             req["seed"]),
                   gen_s=perf_counter() - t0,
                   cppforge=cppforge.__version__, numpy=numpy.__version__)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
