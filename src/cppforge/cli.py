"""Command-line interface.

Subcommands: field (construct and describe a field), count-cpp (exhaustive
coefficient scans with reports), verify (run one family's generator or
predicate against the direct CPP oracle), conjecture (the two open-case
harnesses), walsh (transform values on even-degree fields).

Exit codes: 0 verified/success, 1 counterexample found, 2 usage or
hypothesis error, 3 resource cap exceeded, 4 internal error (a broken
invariant).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
import traceback

import numpy as np

from . import __version__, bulk, families
from .field import CapExceeded, InternalError, build_field
from .niho import (NihoCtx, all_root_counts, count_N, direct_walsh,
                   niho_s_from_d, walsh_value)
from .oracle import CHARSUM_CAP
from .report import CppReport, check_report_path


class _Progress:
    """Progress lines on stderr, at most one per 2 s, only on a tty."""

    def __init__(self, label):
        self.label = label
        self.last = time.monotonic()
        self.enabled = sys.stderr.isatty()

    def __call__(self, done, total):
        if not self.enabled:
            return
        now = time.monotonic()
        if now - self.last >= 2.0:
            self.last = now
            print(f"{self.label}: {done}/{total}", file=sys.stderr)


def _int_list(text):
    return [int(tok) for tok in text.split(",") if tok != ""]


def cmd_field(args):
    mod = _int_list(args.mod) if args.mod else None
    ctx = build_field(args.p, args.n, mod)
    print(f"field {ctx.spec_string()}")
    print(f"order {ctx.q}")
    print(f"backend {ctx.backend}")
    if ctx.generator is not None:
        print(f"generator {ctx.generator}")
    return 0


def cmd_count_cpp(args):
    if args.jobs < 1:
        raise ValueError(f"no-jobs: --jobs {args.jobs} < 1")
    if args.out:
        check_report_path(args.out)    # before the field and the scan
    progress = _Progress(f"count-cpp p={args.p} k={args.k} r={args.r}")
    res = families.count_cpp(args.p, args.k, args.r, method=args.method,
                         jobs=args.jobs, progress=progress)
    ctx = res["ctx"]
    report = CppReport(p=args.p, n=ctx.n, modulus=ctx.modulus, d=res["d"],
                       method=res["method"], count=res["count"],
                       conditions=res["conditions"],
                       elements=res["elements"] if (args.list or args.out) else None,
                       seconds=res["seconds"])
    print(f"field p={args.p} n={ctx.n} modulus={','.join(map(str, ctx.modulus))}")
    print(f"d {res['d']}")
    print(f"count {res['count']}")
    for tag, cnt in sorted(res["conditions"].items()):
        print(f"condition {tag}: {cnt}")
    if args.list:
        print("elements " + ",".join(map(str, res["elements"])))
    print(f"seconds {res['seconds']:.3f}")
    if args.out:
        report.write(args.out, res["labels"])
    return 0


# `verify` and `conjecture` option -> its value when the command line
# leaves it out (`conjecture` requires --p)
OPTION_DEFAULTS = {"p": 3, "k": 1, "r": 4, "i": 1, "t": 1, "preset": None,
                   "kmin": 1, "kmax": 1, "budget": None}
# `conjecture --id` -> the options it reads; conjecture 2 fixes r = p - 1
# and checks every coefficient
CONJECTURE_OPTIONS = {1: ("p", "r", "kmin", "kmax", "budget"),
                      2: ("p", "kmin", "kmax")}


def read_options(args, options, reader):
    """{option: value} for each of options, OPTION_DEFAULTS filling those
    the command line left out; any other option given is a usage error,
    raised before a field is built."""
    unused = [f"--{o}" for o in OPTION_DEFAULTS
              if hasattr(args, o) and o not in options]
    if unused:
        raise ValueError(f"unused-option: {' '.join(unused)}; {reader} "
                         f"reads {' '.join('--' + o for o in options)}")
    return {o: getattr(args, o, OPTION_DEFAULTS[o]) for o in options}


def run_family(args):
    """The result of family args.family on the verify options it reads
    (families.FAMILIES)."""
    options, run = families.FAMILIES[args.family]
    return run(*read_options(args, options, f"family {args.family}").values())


def cmd_verify(args):
    res = run_family(args)
    print(f"family {args.family}")
    if res.get("d") is not None:
        print(f"d {res['d']}")
    print(f"tested {res['tested']}")
    if "count" in res:
        print(f"count {res['count']}")
    if res["failures"]:
        print(f"FAIL {len(res['failures'])} counterexample(s): "
              f"{res['failures'][:10]}")
        return 1
    print("PASS")
    return 0


def cmd_conjecture(args):
    opts = read_options(args, CONJECTURE_OPTIONS[args.id],
                        f"conjecture {args.id}")
    p, kmin, kmax, r, budget = map(opts.get, ("p", "kmin", "kmax", "r", "budget"))
    if kmin > kmax:
        raise ValueError(f"empty-range: --kmin {kmin} > --kmax {kmax}")
    if budget is not None and budget < 1:
        raise ValueError(f"empty-budget: --budget {budget} < 1")
    if args.id == 1:
        for k in range(kmin, kmax + 1):      # before any line
            families.dickson_hypotheses(p, r, k)
    all_pass = True
    for k in range(kmin, kmax + 1):
        if args.id == 1:
            res = families.dickson_witness_search(p, r, k, budget=budget)
            counts = (f"witnesses={res['witness_count']} "
                      f"cpp_failures={len(res['cpp_failures'])}")
        else:
            res = families.verify_neg_one_family(p, k)
            counts = (f"coefficients={res['coefficients']} "
                      f"failures={len(res['failures'])} reformulated_failures="
                      f"{len(res['reformulated_failures'])}")
        print(f"k={k}: {counts} {'pass' if res['passed'] else 'FAIL'}")
        all_pass &= res["passed"]
    return 0 if all_pass else 1


WALSH_BLOCK = 1 << 12      # `walsh` lines per write: no q-length string column
NOTES = ("", " (a=0: outside the stated coefficient family)")   # [a == 0]


def cmd_walsh(args):
    ctx = build_field(args.p, 2 * args.k)
    if args.a is not None and not 0 <= args.a < ctx.q:
        raise ValueError(f"not-an-element: --a {args.a} must encode an "
                         f"element of F_{args.p}^{2 * args.k}, 0 <= a < {ctx.q}")
    # the cap error of bulk.elements before any line; one --a stays an
    # exact int, since a generic encoding can pass int64
    coeffs = (bulk.elements(ctx) if args.all
              else np.array([args.a or 0], dtype=object))
    nctx = NihoCtx(ctx, args.k)
    if args.s is not None:
        s = args.s
    else:
        s = niho_s_from_d(args.p, 2 * args.k, args.k, args.d)
        print(f"s {s} (from d={args.d})")
    roots = (all_root_counts(nctx, s) if args.all
             else np.array([count_N(nctx, coeffs[0], s)], dtype=object))
    cols = [coeffs, roots, walsh_value(nctx, roots)]
    line, status = "a=%d N=%d walsh=%d%s", 0
    if ctx.q <= CHARSUM_CAP:
        C = direct_walsh(
            ctx, bulk.monomial_values(ctx, s * (args.p ** args.k - 1) + 1),
            coeffs)
        # an integer iff the counts of t = 1..p-1 agree
        direct = np.where((C[:, 1:] == C[:, 1:2]).all(axis=1),
                          C[:, 0] - C[:, 1], None)
        cols += [direct, direct == cols[2]]
        line += " direct=%s agree=%s"
        status = int(not cols[-1].all())
    line += "\n"
    for lo in range(0, len(coeffs), WALSH_BLOCK):
        a, n, w, *check = (col[lo:lo + WALSH_BLOCK] for col in cols)
        note = map(NOTES.__getitem__, (a == 0).tolist())
        rows = zip(a.tolist(), n.tolist(), w.tolist(), note,
                   *(col.tolist() for col in check))
        sys.stdout.write("".join(map(line.__mod__, rows)))
    return status


@functools.cache
def build_parser():
    ap = argparse.ArgumentParser(
        prog="cppforge",
        description="complete permutation polynomial families over finite "
                    "fields: verification, enumeration, reports")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    f = sub.add_parser("field", help="construct and describe a field")
    f.add_argument("--p", type=int, required=True)
    f.add_argument("--n", type=int, required=True)
    f.add_argument("--mod", type=str, default=None,
                   help="comma-separated ascending coefficients c0,...,cn")
    f.set_defaults(fn=cmd_field)

    c = sub.add_parser("count-cpp", help="exhaustive CPP coefficient scan")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--r", type=int, required=True)
    c.add_argument("--method", choices=("direct", "ha", "both"), default="ha")
    c.add_argument("--list", action="store_true",
                   help="include the coefficient list in output")
    c.add_argument("--out", type=str, default=None,
                   help="write a structured report (.json or .csv)")
    c.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    c.set_defaults(fn=cmd_count_cpp)

    v = sub.add_parser("verify", help="verify one coefficient family")
    v.add_argument("--family", required=True, choices=list(families.FAMILIES))
    # no defaults here: run_family tells a given option from a left-out one
    for opt in ("p", "k", "r", "i", "t"):
        v.add_argument(f"--{opt}", type=int, default=argparse.SUPPRESS)
    v.add_argument("--preset", type=str, default=argparse.SUPPRESS,
                   choices=families.MULTINOMIAL_PRESETS)
    v.set_defaults(fn=cmd_verify)

    j = sub.add_parser("conjecture", help="run an open-case harness")
    j.add_argument("--id", type=int, required=True, choices=(1, 2))
    j.add_argument("--p", type=int, required=True)
    # no defaults here: cmd_conjecture tells a given option from a left-out one
    for opt in ("r", "kmin", "kmax", "budget"):
        j.add_argument(f"--{opt}", type=int, default=argparse.SUPPRESS)
    j.set_defaults(fn=cmd_conjecture)

    w = sub.add_parser("walsh", help="Walsh transform values on F_{p^2k}")
    w.add_argument("--p", type=int, required=True)
    w.add_argument("--k", type=int, required=True)
    grp = w.add_mutually_exclusive_group(required=True)
    grp.add_argument("--s", type=int, default=None)
    grp.add_argument("--d", type=int, default=None)
    which = w.add_mutually_exclusive_group()
    which.add_argument("--a", type=int, default=None)
    which.add_argument("--all", action="store_true")
    w.set_defaults(fn=cmd_walsh)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "conjecture" and not families.is_prime(args.p):
        print(f"error: not-prime: {args.p}", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except families.MethodMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:        # a bug, never a counterexample's exit 1
        traceback.print_exc()
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
