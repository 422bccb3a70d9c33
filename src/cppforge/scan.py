"""Exhaustive CPP coefficient scans for exponents d = (p^(rk)-1)/(p^k-1)+1.

Two routes, each deciding one a per Frobenius orbit class of coefficients:
"direct" tests the bijectivity of x -> x^d + a*x on the whole field
(ground truth, optionally across a process pool); "ha" reduces a to a
degree-(r+1) polynomial h_a on F_{p^k} and checks the permutation there.
Both return ascending coefficient lists so results merge and compare
bytewise.

orbit_values is the one implementation of the orbit classes: it decides a
property once per class and gives each coefficient its class's verdict.
Both scans use it, and in families so do the r = 4 checks, the Dickson
witness search and every table-field oracle check of a coefficient list.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from . import bulk

POOL_MIN_POINTS = 1 << 25   # orbits x q before --jobs > 1 forks a pool
_WORKER = {}                # (ctx, d) of the scan, inherited through fork


def _check_part(reps):
    ctx, d = _WORKER["task"]
    return [bulk.binomial_is_permutation(ctx, d, a) for a in reps]


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
    return _log_values(ctx, d, logs, decide)


def _log_values(ctx, d, logs, decide):
    """orbit_values on the discrete logs of the elements; log_table[1:]
    stands for every a = 1..q-1 without a list of their encodings."""
    e = math.gcd(d - 1, ctx.q - 1)
    j = np.arange(e, dtype=np.int64)
    least, x = j.copy(), j.copy()
    for _ in range(ctx.n - 1):          # the order of p mod e divides n
        x = x * ctx.p % e
        np.minimum(least, x, out=least)
    # per element one residue array and one gather of the result; the
    # classes are resolved on Z/e
    res = logs % e
    hit = np.zeros(e, dtype=bool)
    hit[res] = True
    touched = np.zeros(e, dtype=bool)
    touched[least[hit]] = True
    reps = np.flatnonzero(touched)
    slot = np.zeros(e, dtype=np.intp)
    slot[reps] = np.arange(len(reps))
    verdict = np.asarray(decide(ctx.exp_table[reps].tolist()))
    value = np.empty(e, dtype=verdict.dtype)
    value[hit] = verdict[slot[least[hit]]]
    return value[res]


def orbit_members(ctx, d, decide, top=None):
    """Ascending list of every a != 0, up to top when given, whose orbit
    class passes decide (see orbit_values)."""
    logs = ctx.log_table[1:][:top]
    return (np.flatnonzero(_log_values(ctx, d, logs, decide)) + 1).tolist()


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
        pooled = jobs > 1 and len(reps) * ctx.q >= POOL_MIN_POINTS
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
    F_{p^k}^*, and Frobenius maps h_a to h_(a^p).  So the lambda rows of
    one a = g^j per class come from one bulk.lambda_scan and are checked
    in one SubfieldView call.
    """
    d = (ctx.p ** (r * k) - 1) // (ctx.p ** k - 1) + 1

    def decide(reps):
        if math.gcd(d, ctx.q - 1) != 1:     # as in direct_cpp_scan
            return [False] * len(reps)
        lam = bulk.lambda_scan(ctx, r, k, reps)
        return ctx.subfield_view(k).permutes(lam)

    return orbit_members(ctx, d, decide)
