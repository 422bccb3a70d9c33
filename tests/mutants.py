"""The mutation catalogue: small faults planted in the library, each of
which some test must catch.

Each mutant replaces one exact text, which occurs once in its file, with
another, and names the pytest selection expected to catch it.  The
runner copies the tree into a temporary directory, applies one mutant
there, runs its selection with -x and reports the mutant caught (the
selection fails) or survived (it passes).  The working tree is never
written.

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named ones

The exit code is 0 when every mutant run is caught, 1 when one survives
and 2 on an unknown name or a selection that pytest could not run.
tests/test_mutants.py checks in the suite that each old text still occurs
exactly once, so a change that moves mutated code must update its entry.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str           # relative to the root of the tree
    old: str            # occurs exactly once in file
    new: str
    tests: tuple        # the pytest selection that catches it


MUTANTS = (
    # the class minima: a step fewer leaves orbits of length n unjoined;
    # without t *= e a step keeps x p - floor(x p / e); int32 up to
    # p e < 2**32 wraps x p, which only F_2039^2 (p e = 2.8e9) reaches
    Mutant("minima-one-step-fewer", "src/cppforge/scan.py",
           "for _ in range(ctx.n - 1):          # the order of p mod e",
           "for _ in range(ctx.n - 2):          # the order of p mod e",
           ("tests/test_scan.py::TestOrbitMinima",)),
    Mutant("minima-quotient-not-scaled", "src/cppforge/scan.py",
           "        t *= e\n", "",
           ("tests/test_scan.py::TestOrbitMinima",)),
    Mutant("minima-int32-below-2-32", "src/cppforge/scan.py",
           "np.int32 if ctx.p * e < 2**31 else np.int64",
           "np.int32 if ctx.p * e < 2**32 else np.int64",
           ("tests/test_scan.py::TestOrbitMinima::test_int64_past_2_31",)),
    # the member expansion walks the logs s + e t of a passing residue s
    Mutant("expansion-step-off-by-one", "src/cppforge/scan.py",
           "mask[ctx.exp_table[res[row] + e * t]] = True",
           "mask[ctx.exp_table[res[row] + (e + 1) * t]] = True",
           ("tests/test_scan.py::TestOrbitMembers",)),
    # gcd(d, q - 1) > 1: x^14 + ax permutes F_3^3 for 12 a.  Each scan
    # screens d before deciding a class, and the oracle screens each call
    Mutant("direct-gcd-screen-dropped", "src/cppforge/scan.py",
           "        if d < 1 or math.gcd(d, ctx.q - 1) != 1:    "
           "# after the table read\n"
           "            return [False] * len(reps)\n", "",
           ("tests/test_scan.py::TestDirectScan",)),
    Mutant("ha-gcd-screen-dropped", "src/cppforge/scan.py",
           "        if math.gcd(d, ctx.q - 1) != 1:     # as in direct_cpp_scan\n"
           "            return [False] * len(reps)\n", "",
           ("tests/test_scan.py::TestDirectScan",)),
    Mutant("oracle-gcd-screen-dropped", "src/cppforge/oracle.py",
           "    if d < 1 or math.gcd(d, ctx.q - 1) != 1:\n"
           "        return False\n", "",
           ("tests/test_oracle.py",)),
    # h_a(c) = 0 where a = -c: the zero must not pass for a nonzero log
    Mutant("norm-zero-unmarked", "src/cppforge/field.py",
           "            np.copyto(z, 3 * m, where=zero)\n", "",
           ("tests/test_scan.py",)),
    # the occupancy check: its early exit on a proven repeat, and the
    # count of all q values before True
    Mutant("pigeonhole-exit-off-by-one", "src/cppforge/bulk.py",
           "if hit < total:", "if hit < total - 1:",
           ("tests/test_bulk.py",)),
    Mutant("occupancy-count-unchecked", "src/cppforge/bulk.py",
           "return total == q and (hit == q if hit is not None else "
           "bool(seen.all()))",
           "return (hit == q if hit is not None else bool(seen.all()))",
           ("tests/test_bulk.py", "tests/test_oracle.py")),
    Mutant("is-cpp-or", "src/cppforge/oracle.py",
           "return bulk.values_are_permutation(ctx, vals) and ",
           "return bulk.values_are_permutation(ctx, vals) or ",
           ("tests/test_oracle.py",)),
    Mutant("trace-one-conjugate-fewer", "src/cppforge/bulk.py",
           "for _ in range(ctx.n // k - 1):",
           "for _ in range(ctx.n // k - 2):",
           ("tests/test_bulk.py",)),
    Mutant("walsh-sign", "src/cppforge/niho.py",
           "return (n_a - 1) * nctx.q", "return (1 - n_a) * nctx.q",
           ("tests/test_niho.py",)),
    # the table build: each doubling step squares the digit map of the
    # last; H = N // 2 leaves Z[N/2] = -1 unset for odd p; the reverse
    # Zech half is Z[i] - i mod N, the + N taken from the sign bit
    Mutant("step-matrix-not-squared", "src/cppforge/field.py",
           "            M = M @ M % p\n", "            M = M\n",
           ("tests/test_field.py::TestBackendAgreement::"
            "test_step_matrices_against_twin",)),
    Mutant("zech-gather-half-short", "src/cppforge/field.py",
           "        H = N // 2 + 1\n", "        H = N // 2\n",
           ("tests/test_field.py::TestBackendAgreement::"
            "test_exp_table_blocks_against_twin",)),
    Mutant("zech-ramp-off-by-one", "src/cppforge/field.py",
           "t[:m] -= lo  ", "t[:m] -= lo - 1  ",
           ("tests/test_field.py::TestBackendAgreement::"
            "test_exp_table_blocks_against_twin",
            "tests/test_field.py::TestBackendAgreement::"
            "test_zech_reverse_half_at_samples")),
    Mutant("zech-plus-n-dropped", "src/cppforge/field.py",
           "            t[:m] += u[:m]\n", "",
           ("tests/test_field.py::TestBackendAgreement::"
            "test_exp_table_blocks_against_twin",
            "tests/test_field.py::TestBackendAgreement::"
            "test_zech_reverse_half_at_samples")),
)

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                 ".hypothesis", ".perfbench_work")


def apply(tree, mutant):
    """Replace mutant.old by mutant.new in the copy at tree."""
    path = Path(tree) / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: old text occurs "
                         f"{text.count(mutant.old)} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new))


def run(mutant):
    """(outcome, seconds, failing test): "caught" when the selection
    fails on the mutated copy, "survived" when it passes, "error" when
    pytest could not run it (no tests collected, a usage error, an
    interrupt)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_IGNORE)
        apply(tree, mutant)
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=str(tree / "src"))
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p",
             "no:cacheprovider", *mutant.tests],
            cwd=tree, env=env, capture_output=True, text=True)
        dt = time.monotonic() - t0
    failed = next((line.split()[1] for line in proc.stdout.splitlines()
                   if line.startswith("FAILED ")), "")
    return {0: "survived", 1: "caught"}.get(proc.returncode, "error"), dt, failed


def main(names):
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in names if n not in by_name]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    outcomes = []
    t0 = time.monotonic()
    for mutant in [by_name[n] for n in names] or MUTANTS:
        outcome, dt, failed = run(mutant)
        outcomes.append(outcome)
        by = f" by {failed}" if failed else ""
        print(f"{mutant.name}: {outcome}{by} ({dt:.1f} s)", flush=True)
    print(f"{outcomes.count('caught')} caught, "
          f"{outcomes.count('survived')} survived, "
          f"{outcomes.count('error')} errors in "
          f"{time.monotonic() - t0:.0f} s")
    if "error" in outcomes:
        return 2
    return 1 if "survived" in outcomes else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
