"""Exhaustive CPP coefficient scans for exponents d = (p^(rk)-1)/(p^k-1)+1.

Two routes, each deciding one a per Frobenius orbit class of coefficients:
"direct" tests the bijectivity of x -> x^d + a*x on the whole field
(ground truth, optionally across a process pool); "ha" checks that
h_a(c) = c N(a + c), N the norm onto F_{p^k}, permutes F_{p^k}.
Both return ascending coefficient lists so results merge and compare
bytewise.

The orbit classes live on Z/e, e = gcd(d - 1, q - 1): their least
elements cost O(e n) once.  orbit_values decides a property once per
class that a coefficient list touches and gives each coefficient its
class's verdict; orbit_members decides every class and expands the
passing ones into their members, O(members) plus one q-byte mask that
sorts them, so no array of one int per field element is built.  Both
scans list their members through orbit_members, and in families so do
the r = 4 checks and the Dickson witness search; every table-field oracle
check of a coefficient list goes through orbit_values.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from . import bulk, oracle

POOL_MIN_ORBITS = 3000      # orbits before --jobs > 1 forks a pool
_WORKER = {}                # (ctx, d) of the scan, inherited through fork


def oracle_verdicts(ctx, d, reps):
    """oracle.is_cpp_exponent_pair(ctx, d, a) for each a in reps, the
    checks sharing one occupancy array."""
    # sized from the log table, so that a generic field refuses before
    # the q bytes
    seen = np.zeros(len(ctx.log_table), dtype=bool)
    return [oracle.is_cpp_exponent_pair(ctx, d, a, seen) for a in reps]


def _check_part(reps):
    return oracle_verdicts(*_WORKER["task"], reps)


def _orbit_minima(ctx, d):
    """e = gcd(d - 1, q - 1) and, for each j in Z/e, the least element of
    its Frobenius orbit j -> pj mod e, as one array of length e: int32
    while p e < 2**31 (x p stays below it), int64 past that.

    Each step takes x p mod e as x p - e floor(x p / e): numpy divides by
    the scalar e with a multiply and a shift, where remainder costs one
    hardware division per element."""
    e = math.gcd(d - 1, ctx.q - 1)
    least = np.arange(e, dtype=np.int32 if ctx.p * e < 2**31 else np.int64)
    x = least.copy()
    t = np.empty_like(x)
    for _ in range(ctx.n - 1):          # the order of p mod e divides n
        x *= ctx.p
        np.floor_divide(x, e, out=t)
        t *= e
        x -= t
        np.minimum(least, x, out=least)
    return e, least


def orbit_values(ctx, d, elems, decide):
    """decide's verdict for each a != 0 in elems, one call per orbit class.

    The classes are the Frobenius orbits j -> pj mod e of log(a) mod
    e = gcd(d - 1, q - 1), each named by its least j.  decide gets the
    representatives g^j of the classes elems touch (j ascending) in one
    call and returns one verdict for each; the result is a numpy array
    holding the verdict of each element's class.  Exact for any property
    constant on those classes.
    """
    logs = ctx.log_table[np.asarray(elems, dtype=np.int64)]
    if (logs < 0).any():        # log_table[0] = -1 would name class e - 1
        raise ValueError("zero-coefficient: need a != 0")
    e, least = _orbit_minima(ctx, d)
    cls = least[logs % e]
    touched = np.zeros(e, dtype=bool)
    touched[cls] = True
    reps = np.flatnonzero(touched)
    slot = np.zeros(e, dtype=np.intp)
    slot[reps] = np.arange(len(reps))
    verdict = np.asarray(decide(ctx.exp_table[reps].tolist()))
    return verdict[slot[cls]]


def orbit_members(ctx, d, decide, top=None):
    """Ascending list of every a != 0, up to top when given, whose orbit
    class passes decide (see orbit_values).

    The classes come from Z/e alone in O(e n); decide gets the
    representatives of every class in one call (under top, of the classes
    of 1..top, read off log_table[1:top + 1]).  Each residue s of a
    passing class expands to the logs s + e t, t < (q - 1)/e, marked in
    one q-byte mask by encoding in blocks of bulk.CHECK_BLOCK: O(members)
    and q bytes, with no array of one int per field element.
    """
    # a table read comes first, so a generic field refuses before any
    # array of length e; the slice is a view
    stop = None if top is None else top + 1
    logs = ctx.log_table[1:stop]
    e, least = _orbit_minima(ctx, d)
    touched = np.zeros(e, dtype=bool)
    # without top every class is touched: no log is read
    touched[least if top is None else least[logs % e]] = True
    reps = np.flatnonzero(touched)
    verdict = decide(ctx.exp_table[reps].tolist())
    passed = np.zeros(e, dtype=bool)
    passed[reps[np.flatnonzero(verdict)]] = True
    res = np.flatnonzero(passed[least])
    del least, touched, passed, reps    # before the mask and member list
    period = (ctx.q - 1) // e
    total = len(res) * period
    mask = np.zeros(ctx.q, dtype=bool)
    for lo in range(0, total, bulk.CHECK_BLOCK):
        row, t = np.divmod(np.arange(lo, min(lo + bulk.CHECK_BLOCK, total)),
                           period)
        mask[ctx.exp_table[res[row] + e * t]] = True
    del res
    return np.flatnonzero(mask[:stop]).tolist()


def direct_cpp_scan(ctx, d, jobs=1, progress=None):
    """Ascending list of all a != 0 making x -> x^d + a*x bijective, for
    d >= 1 with gcd(d, q-1) == 1: exactly the CPP coefficients.

    Bijectivity of f_a(x) = x^d + ax depends only on the Frobenius orbit
    of log(a) mod e, e = gcd(d - 1, q - 1): f_a(cx) = c^d f_{a c^(1-d)}(x),
    where c^(1-d) runs over the (d-1)-th powers, the subgroup of index e,
    and f_a(x)^p = f_{a^p}(x^p).  So one a = g^j per orbit is checked on
    the whole field, and the members are every a whose orbit passed.
    """
    def decide(reps):
        if d < 1 or math.gcd(d, ctx.q - 1) != 1:    # after the table read
            return [False] * len(reps)
        # a pool of jobs workers takes jobs * 8 chunks, a serial run 64;
        # progress is reported once per chunk
        pooled = jobs > 1 and len(reps) >= POOL_MIN_ORBITS
        step = -(-len(reps) // (jobs * 8 if pooled else 64))
        chunks = [reps[lo:lo + step] for lo in range(0, len(reps), step)]
        passed = []
        _WORKER["task"] = ctx, d
        with contextlib.ExitStack() as stack:
            run = map
            if pooled:
                import multiprocessing as mp
                run = stack.enter_context(
                    mp.get_context("fork").Pool(jobs)).imap
            for part in run(_check_part, chunks):
                passed += part
                if progress:
                    progress(len(passed), len(reps))
        return passed

    return orbit_members(ctx, d, decide)


def ha_cpp_scan(ctx, r, k):
    """Ascending list of CPP coefficients through the subfield criterion:
    a qualifies iff h_a permutes F_{p^k} (gcd(d, q-1) == 1 is checked once,
    globally).

    Whether h_a permutes is constant on the orbit classes of orbit_values
    (d - 1 = (q-1)/(p^k-1)): h_(ta)(x) = t^(r+1) h_a(x/t) for t in
    F_{p^k}^*, and Frobenius maps h_a to h_(a^p).  On F_{p^k}, h_a(c) is
    c N(a + c) (Zieve's criterion for x^d + ax), so one a = g^j per class
    is decided by one SubfieldView.norm_permutes call: one ambient Zech
    gather per point, with no lambda rows.
    """
    d = (ctx.p ** (r * k) - 1) // (ctx.p ** k - 1) + 1

    def decide(reps):
        if math.gcd(d, ctx.q - 1) != 1:     # as in direct_cpp_scan
            return [False] * len(reps)
        if ctx.n != r * k:
            raise ValueError("degree-mismatch: need n == r*k, "
                             f"got {ctx.n} != {r}*{k}")
        return ctx.subfield_view(k).norm_permutes(reps, bulk.CHECK_BLOCK)

    return orbit_members(ctx, d, decide)
