"""The cppforge benchmark.

    python3 perfbench/run.py --workload enumerate|direct|harness \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds src/cppforge.  Every step
is a fresh process (perfbench/worker.py), started one at a time: input
generation from the seed, one set-up-only process, then passes until
--seconds have gone by, at least one.  Each of them times a cold set-up
of the workload's fields; a pass also times the workload and checks every
verdict.

--trace 0 reports the end-to-end metrics: run_s and peak_rss_mb as medians
over the passes, setup_s as the median over every process (at least
three), check_ms_* as percentiles over all timed oracle checks.
--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics of the traced one, with the tracing overhead (traced minus
untraced run_s).

Human-readable lines come first (environment, sample counts, fail ratio);
the last line of stdout is the JSON result.  Scratch files go to
.perfbench_work/ in the checkout; the spans of the last traced run stay
there as spans-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS  # noqa: E402

E2E_METRICS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
               "check_ms_p50": "ms", "check_ms_p90": "ms"}
WORKLOADS = ("enumerate", "direct", "harness")
TIME_LIMIT_S = 170          # a run must end within 180 s
MAX_PASSES = 50
MIN_SETUPS = 3


class BenchError(Exception):
    pass


def _worker(req, deadline):
    left = deadline - monotonic()
    if left <= 1:
        raise BenchError("out of time before starting a pass")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                              input=json.dumps(req), capture_output=True,
                              text=True, timeout=left, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{req['mode']} process exceeded the time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{req['mode']} process exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def _read_proc(path, key):
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(seed, gen):
    return {"nproc": os.cpu_count(),
            "cpu": _read_proc("/proc/cpuinfo", "model name"),
            "mem_total": _read_proc("/proc/meminfo", "MemTotal"),
            "python": platform.python_version(),
            "numpy": gen["numpy"], "cppforge": gen["cppforge"], "seed": seed}


def percentiles(values):
    """(p50, p90) by statistics.quantiles, or the single value twice."""
    if len(values) < 2:
        return values[0], values[0]
    cuts = statistics.quantiles(values, n=10)
    return cuts[4], cuts[8]


def run(workload, seed, seconds, trace, size="full"):
    """Run the benchmark; returns (result dict, human-readable lines)."""
    deadline = monotonic() + TIME_LIMIT_S
    workdir = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    base = {"root": str(ROOT), "workload": workload, "size": size,
            "seed": seed, "workdir": str(workdir)}
    try:
        gen = _worker({**base, "mode": "gen"}, deadline)
        req = {**base, "mode": "pass", "inputs": gen["inputs"]}
        setups = [gen["setup_s"]]
        passes = []
        if trace:
            passes.append(_worker({**req, "trace": False}, deadline))
            passes.append(_worker({**req, "trace": True}, deadline))
            spans = Path(passes[1]["spans_file"])
            shutil.move(str(spans), str(workdir.parent / spans.name))
        else:
            setups.append(_worker({**base, "mode": "setup"}, deadline)["setup_s"])
            t0 = monotonic()
            while len(passes) < MAX_PASSES:
                t = monotonic()
                passes.append(_worker({**req, "trace": False}, deadline))
                last = monotonic() - t
                if monotonic() - t0 >= seconds or \
                        monotonic() + last > deadline - 5:
                    break
            setups += [p["setup_s"] for p in passes]
            while len(setups) < MIN_SETUPS:
                setups.append(_worker({**base, "mode": "setup"},
                                      deadline)["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    env = environment(seed, gen)
    lines = [f"perfbench workload={workload} seed={seed} seconds={seconds} "
             f"trace={int(trace)} size={size}",
             "env " + " ".join(f"{k}={v!r}" for k, v in env.items()),
             f"input generation {gen['gen_s']:.3f} s"]
    for i, p in enumerate(passes, 1):
        kind = "traced" if p.get("layers") else "untraced"
        lines.append(f"pass {i} ({kind}): setup_s={p['setup_s']:.4f} "
                     f"run_s={p['run_s']:.4f} peak_rss_mb={p['peak_rss_mb']:.1f} "
                     f"checks={len(p['check_ms'])} verdicts={p['attempted']} "
                     f"failed={p['failed']}")
        lines += [f"  FAILED: {f}" for f in p["failures"][:20]]

    if trace:
        layers = dict(passes[1]["layers"])
        layers["trace.overhead_s"] = passes[1]["run_s"] - passes[0]["run_s"]
        metrics = {m: {"value": layers[m], "unit": u}
                   for m, u in LAYER_METRICS.items()}
        lines.append(f"traced run_s {passes[1]['run_s']:.4f} s, untraced "
                     f"{passes[0]['run_s']:.4f} s (one pass each)")
    else:
        checks = [ms for p in passes for ms in p["check_ms"]]
        p50, p90 = percentiles(checks)
        values = {
            "run_s": statistics.median(p["run_s"] for p in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "check_ms_p50": p50, "check_ms_p90": p90,
        }
        metrics = {m: {"value": values[m], "unit": u}
                   for m, u in E2E_METRICS.items()}
        for m, n in (("run_s", len(passes)), ("setup_s", len(setups)),
                     ("peak_rss_mb", len(passes))):
            lines.append(f"{m} {values[m]:.4f} {E2E_METRICS[m]} "
                         f"(median of {n} processes)")
        for m in ("check_ms_p50", "check_ms_p90"):
            lines.append(f"{m} {values[m]:.4f} ms (of {len(checks)} timed "
                         "oracle checks)")
    lines.append(f"fail_ratio {failed / max(attempted, 1):.6f} "
                 f"({failed} of {attempted} verdicts, counts and exits)")
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    summary = {"environment": env, "setup_s": setups, "passes": passes,
               "result": result}
    (workdir.parent / f"last-{workload}-trace{int(trace)}.json").write_text(
        json.dumps(summary, indent=1) + "\n")
    return result, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "quick"), default="full",
                    help="quick: reduced inputs, for perfbench/selfcheck.py")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cppforge" / "__init__.py").is_file():
        print(f"perfbench: no cppforge sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        result, lines = run(args.workload, args.seed, args.seconds,
                            bool(args.trace), args.size)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
