"""Command-line interface.

Subcommands: field (construct and describe a field), count-cpp (exhaustive
coefficient scans with reports), verify (run one family's generator or
predicate against the direct CPP oracle), conjecture (the two open-case
harnesses), walsh (transform values on even-degree fields).

Exit codes: 0 verified/success, 1 counterexample found, 2 usage or
hypothesis error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import __version__, families, scan
from .field import build_field
from .niho import NihoCtx, count_N, direct_walsh, niho_s_from_d, walsh_value
from .oracle import CHARSUM_CAP, is_cpp, is_cpp_exponent_pair, monomial_map
from .report import CppReport

_CAP_MARKERS = ("field-too-large", "cap-exceeded", "field-too-large-for-charsum",
                "subgroup order")


class _Progress:
    """Throttled progress lines on stderr, only when attached to a tty."""

    def __init__(self, label, interval=2.0):
        self.label = label
        self.interval = interval
        self.last = time.monotonic()
        self.enabled = sys.stderr.isatty()

    def __call__(self, done, total):
        if not self.enabled:
            return
        now = time.monotonic()
        if now - self.last >= self.interval:
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
    progress = _Progress(f"count-cpp p={args.p} k={args.k} r={args.r}")
    res = scan.count_cpp(args.p, args.k, args.r, method=args.method,
                         jobs=args.jobs, collect=args.list or bool(args.out),
                         progress=progress)
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
    if args.list and res["elements"] is not None:
        print("elements " + ",".join(map(str, res["elements"])))
    print(f"seconds {res['seconds']:.3f}")
    if args.out:
        report.write(args.out, res["labels"])
    return 0


def _verify_niho(p, k, i):
    ctx = build_field(p, 2 * k)
    d = families.niho_exponent(p, k, i)
    coeffs = ctx.neg_one_roots(k)
    failures = [a for a in coeffs if not is_cpp_exponent_pair(ctx, d, a)]
    return {"d": d, "tested": len(coeffs), "failures": failures}


def _run_family(args):
    fam = args.family
    if fam == "niho2":
        return _verify_niho(args.p, args.k, args.i)
    if fam == "p3k2":
        return _verify_niho(3, args.k, 1)
    if fam in ("r4_general", "r4_p3", "r4_p5"):
        p = {"r4_p3": 3, "r4_p5": 5}.get(fam, args.p)
        ctx = build_field(p, 4 * args.k)
        if fam == "r4_p3":
            cpps = scan.ha_cpp_scan(ctx, 4, args.k)
            missing = [a for a in cpps
                       if families.r4_condition_p3(ctx, a, args.k) is None]
            tagged = sum(1 for a in range(1, ctx.q)
                         if families.r4_condition_p3(ctx, a, args.k) is not None)
            return {"d": families.tower_exponent(p, args.k, 4),
                    "tested": ctx.q - 1, "count": len(cpps),
                    "failures": missing if tagged == len(cpps) else
                    missing + [("tagged-count", tagged)]}
        cpps, tagged, ok = scan.r4_equality_check(ctx, args.k)
        return {"d": families.tower_exponent(p, args.k, 4),
                "tested": ctx.q - 1, "count": len(cpps),
                "failures": [] if ok else [("tagged-count", tagged)]}
    if fam == "r4_p3_beta":
        ctx, beta = families.field_with_root(3, 4 * args.k,
                                             families.QUARTIC_BETA_POLY)
        d = families.tower_exponent(3, args.k, 4)
        gen = families.beta_quartic_all(ctx, beta)
        failures = [a for a in gen if not is_cpp_exponent_pair(ctx, d, a)]
        return {"d": d, "tested": len(gen), "failures": failures}
    if fam == "r4_p5_vset":
        ctx = build_field(5, 4 * args.k)
        d = families.tower_exponent(5, args.k, 4)
        m = 5 ** args.k - 1
        roots = list(ctx.neg_one_roots(args.k))
        y = ctx.subgroup_generator(4 * m)
        half = [ctx.pow(y, 2 * j + 1) for j in range(2 * m)]   # a^(2m) = -1
        coeffs = sorted(set(roots) | set(half))
        failures = [a for a in coeffs if not is_cpp_exponent_pair(ctx, d, a)]
        return {"d": d, "tested": len(coeffs), "failures": failures}
    if fam in ("r6_p3", "r6_p5"):
        p = 3 if fam == "r6_p3" else 5
        ctx, beta = families.field_with_root(p, 6 * args.k,
                                             families.SEXTIC_BETA_POLY)
        d = families.tower_exponent(p, args.k, 6)
        failures = []
        tested = 0
        coords = families.r6_coordinate_table(p)
        for fi in range(len(coords)):
            for u in [e for e in ctx.subfield_elements(args.k) if e != 0]:
                tested += 1
                a = families.r6_dickson_coefficient(ctx, beta, fi, u)
                if not is_cpp_exponent_pair(ctx, d, a):
                    failures.append((fi, u))
        return {"d": d, "tested": tested, "failures": failures}
    if fam in ("rp_k1", "rt_k1"):
        t = 1 if fam == "rp_k1" else args.t
        ctx, d, coeffs = families.rt_family_coefficients(args.p, t)
        failures = [a for a in coeffs if not is_cpp_exponent_pair(ctx, d, a)]
        return {"d": d, "tested": len(coeffs), "failures": failures}
    if fam == "multinomial":
        ctx = build_field(args.p, args.r * args.k)
        presets = families.multinomial_presets(ctx, args.k)
        names = [args.preset] if args.preset else list(presets)
        tested = 0
        failures = []
        for name in names:
            g, v = presets[name]
            for a in families.multinomial_admissible_a(ctx, args.k, g, v):
                tested += 1
                if not is_cpp(families.multinomial_map(ctx, g, v, a, args.k)):
                    failures.append((name, a))
        return {"d": None, "tested": tested, "failures": failures}
    raise ValueError(f"hypothesis-violation: family {fam!r} is run through "
                     "the conjecture command" if fam in ("conj1", "conj2")
                     else f"unknown family {fam!r}")


def cmd_verify(args):
    res = _run_family(args)
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
    all_pass = True
    for k in range(args.kmin, args.kmax + 1):
        if args.id == 1:
            res = families.dickson_witness_search(args.p, args.r, k,
                                                  budget=args.budget)
            verdict = "pass" if res["passed"] else "FAIL"
            print(f"k={k}: witnesses={res['witness_count']} "
                  f"cpp_failures={len(res['cpp_failures'])} {verdict}")
            all_pass &= res["passed"]
        else:
            res = families.verify_neg_one_family(args.p, k)
            verdict = "pass" if res["passed"] else "FAIL"
            print(f"k={k}: coefficients={res['coefficients']} "
                  f"failures={len(res['failures'])} "
                  f"reformulated_failures={len(res['reformulated_failures'])} "
                  f"{verdict}")
            all_pass &= res["passed"]
    return 0 if all_pass else 1


def cmd_walsh(args):
    ctx = build_field(args.p, 2 * args.k)
    nctx = NihoCtx(ctx, args.k)
    if args.s is not None:
        s = args.s
    else:
        s = niho_s_from_d(args.p, 2 * args.k, args.k, args.d)
        print(f"s {s} (from d={args.d})")
    coeffs = range(ctx.q) if args.all else [args.a if args.a is not None else 0]
    xcheck = ctx.q <= CHARSUM_CAP
    fmap = monomial_map(ctx, s * (args.p ** args.k - 1) + 1) if xcheck else None
    status = 0
    for a in coeffs:
        n_a = count_N(nctx, a, s)
        w = walsh_value(nctx, a, s)
        line = f"a={a} N={n_a} walsh={w}"
        if a == 0:
            line += " (a=0: outside the stated coefficient family)"
        if xcheck:
            direct = direct_walsh(ctx, fmap, a)
            agree = direct.as_int() == w
            line += f" direct={direct.as_int()} agree={agree}"
            if not agree:
                status = 1
        print(line)
    return status


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
    c.add_argument("--jobs", type=int, default=scan.default_jobs())
    c.set_defaults(fn=cmd_count_cpp)

    v = sub.add_parser("verify", help="verify one coefficient family")
    v.add_argument("--family", required=True, choices=[
        fid for fid in families.FAMILY_IDS if fid not in ("conj1", "conj2")])
    v.add_argument("--p", type=int, default=3)
    v.add_argument("--k", type=int, default=1)
    v.add_argument("--r", type=int, default=4)
    v.add_argument("--i", type=int, default=1)
    v.add_argument("--t", type=int, default=1)
    v.add_argument("--preset", type=str, default=None,
                   choices=("zero", "monomial", "dickson-quartic"))
    v.set_defaults(fn=cmd_verify)

    j = sub.add_parser("conjecture", help="run an open-case harness")
    j.add_argument("--id", type=int, required=True, choices=(1, 2))
    j.add_argument("--p", type=int, required=True)
    j.add_argument("--r", type=int, default=4)
    j.add_argument("--kmin", type=int, default=1)
    j.add_argument("--kmax", type=int, default=1)
    j.add_argument("--budget", type=int, default=None)
    j.set_defaults(fn=cmd_conjecture)

    w = sub.add_parser("walsh", help="Walsh transform values on F_{p^2k}")
    w.add_argument("--p", type=int, required=True)
    w.add_argument("--k", type=int, required=True)
    grp = w.add_mutually_exclusive_group(required=True)
    grp.add_argument("--s", type=int, default=None)
    grp.add_argument("--d", type=int, default=None)
    w.add_argument("--a", type=int, default=None)
    w.add_argument("--all", action="store_true")
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
    except (ValueError, ZeroDivisionError) as exc:
        msg = str(exc)
        print(f"error: {msg}", file=sys.stderr)
        if any(msg.startswith(m) or m in msg for m in _CAP_MARKERS):
            return 3
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
