"""Fast self-check of the benchmark (under a minute on two cores).

    python3 perfbench/selfcheck.py

Runs every workload once at reduced size (--size quick), untraced and
traced.  It asserts that the result line has exactly the keys correct,
attempted, failed and metrics, that every metric BENCHMARK.json names is
reported with its unit, and that every correctness check passed.  Then it
copies BENCHMARK.json and perfbench/ into an otherwise empty directory
and asserts that the benchmark refuses to run there: nonzero exit, no
result line.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def _check_result(result, wanted, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0, \
        f"{label}: correctness checks failed: {result}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    got = {m: v["unit"] for m, v in result["metrics"].items()}
    assert got == wanted, f"{label}: metrics {sorted(got)} != {sorted(wanted)}"
    for m, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)), f"{label}: {m} = {v}"


def _check_bare_directory():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "direct",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0, "ran without the cppforge sources"
        assert '"metrics"' not in proc.stdout, "printed a result without sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == run.E2E_METRICS, "BENCHMARK.json end_to_end != run.py"
    assert layers == run.LAYER_METRICS, "BENCHMARK.json per_layer != tracer.py"
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    for workload in run.WORKLOADS:
        for trace, wanted in ((False, e2e), (True, layers)):
            label = f"{workload} trace={int(trace)}"
            result, lines = run.run(workload, seed=7, seconds=0, trace=trace,
                                    size="quick")
            _check_result(result, wanted, label)
            print(f"ok  {label}: {result['attempted']} verdicts, "
                  f"{lines[-1]}")
    _check_bare_directory()
    print("ok  refuses to run without the cppforge sources")


if __name__ == "__main__":
    main()
