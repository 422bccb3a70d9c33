"""Exhaustive CPP coefficient scans for exponents d = (p^(rk)-1)/(p^k-1)+1.

Two routes, each deciding one a per Frobenius orbit class of coefficients:
"direct" tests the bijectivity of x -> x^d + a*x on the whole field
(ground truth, optionally across a process pool); "ha" reduces a to a
degree-(r+1) polynomial h_a on F_{p^k} and checks the permutation there.
Both return ascending coefficient lists so results merge and compare
bytewise.

orbit_values is the one implementation of the orbit classes: it decides a
property once per class and gives each coefficient its class's verdict.
Both scans, the r = 4 checks, the Dickson witness search and every
oracle check of a family's coefficient list on a table field use it.
"""

from __future__ import annotations

import contextlib
import math
import time

import numpy as np

from . import bulk
from .field import CapExceeded, build_field

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
    if ctx.backend != "table":
        raise CapExceeded("field-too-large: orbit classes need the log tables")
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
    """Ascending list of all a != 0 making x -> x^d + a*x bijective.
    Combined with gcd(d, q-1) == 1 these are exactly the CPP coefficients.

    Bijectivity of f_a(x) = x^d + ax depends only on the Frobenius orbit
    of log(a) mod e, e = gcd(d - 1, q - 1): f_a(cx) = c^d f_{a c^(1-d)}(x),
    where c^(1-d) runs over the (d-1)-th powers, the subgroup of index e,
    and f_a(x)^p = f_{a^p}(x^p).  So one a = g^j per orbit is checked on
    the whole field, and the members are every a whose orbit passed.
    """
    if ctx.backend != "table":
        raise CapExceeded("cap-exceeded: direct scans need the table backend")
    if math.gcd(d, ctx.q - 1) != 1:
        return []

    def decide(reps):
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
    if ctx.backend != "table":
        raise CapExceeded("cap-exceeded: full coefficient enumeration needs "
                          "the table backend")
    d = (ctx.p ** (r * k) - 1) // (ctx.p ** k - 1) + 1
    if math.gcd(d, ctx.q - 1) != 1:
        return []

    def decide(reps):
        lam = bulk.lambda_scan(ctx, r, k, reps)
        return ctx.subfield_view(k).permutes(lam)

    return orbit_members(ctx, d, decide)


def r4_equality_check(ctx, k, tagger):
    """Cross-check that an r = 4 membership tagger (a -> ConditionTag or
    None) tags exactly the CPP coefficients of F_{p^4k}.

    Membership and every condition's tag are constant on the classes of
    F_q^*/F_{p^k}^* (cyclic of order e = (q-1)/(p^k-1), a = g^j in class
    j mod e) and on their Frobenius orbits j -> pj mod e, since
    f_a(cx) = c N(c) f_{a/N(c)}(x), f_a(x)^p = f_{a^p}(x^p) and each
    condition is weighted-homogeneous in the lambda_i.  So one g^j per
    orbit, j least in its coset, is tagged, and every coefficient of a
    tagged orbit counts as tagged.

    Returns (cpp_list, tagged_count, untagged): the members whose orbit
    is untagged.  The tagger is sound and complete when untagged is empty
    and tagged_count == len(cpp_list).
    """
    from .families import tower_exponent
    cpps = ha_cpp_scan(ctx, 4, k)
    tagged = set(orbit_members(ctx, tower_exponent(ctx.p, k, 4), lambda reps: [
        tagger(a) is not None for a in reps]))
    return cpps, len(tagged), [a for a in cpps if a not in tagged]


def count_cpp(p, k, r, method="ha", jobs=1, progress=None):
    """Coefficient count and list for d = (p^(rk)-1)/(p^k-1)+1.

    method "direct", "ha", or "both"; with "both" the two lists must agree
    element for element or a RuntimeError names the first mismatch.
    Returns a dict feeding the structured report; for r = 4, "labels"
    maps each coefficient to its condition label ("" when untagged).
    """
    from .families import r4_tagger, tower_exponent
    d = tower_exponent(p, k, r)
    ctx = build_field(p, r * k)
    t0 = time.monotonic()
    elems_direct = elems_ha = None
    if method in ("direct", "both"):
        elems_direct = direct_cpp_scan(ctx, d, jobs=jobs, progress=progress)
    if method in ("ha", "both"):
        elems_ha = ha_cpp_scan(ctx, r, k)
    if method == "both":
        if elems_direct != elems_ha:
            sd, sh = set(elems_direct), set(elems_ha)
            diff = sorted(sd.symmetric_difference(sh))
            raise RuntimeError(
                f"method-mismatch: first disagreeing coefficient {diff[0]} "
                f"(direct={diff[0] in sd}, ha={diff[0] in sh})")
    elems = elems_direct if elems_direct is not None else elems_ha
    labels = {}
    if r == 4 and p != 2:
        # labels are constant on the orbits of r4_equality_check: tag the
        # representative g^j of each member orbit
        tagger = r4_tagger(ctx, k)

        def tag_labels(reps):
            return [tag.label() if tag else "" for tag in map(tagger, reps)]

        labels = dict(zip(elems,
                          orbit_values(ctx, d, elems, tag_labels).tolist()))
    conditions = {}
    for label in labels.values():
        label = label or "untagged"
        conditions[label] = conditions.get(label, 0) + 1
    return {
        "ctx": ctx,
        "d": d,
        "method": method,
        "count": len(elems),
        "elements": elems,
        "conditions": conditions,
        "labels": labels,
        "seconds": time.monotonic() - t0,
    }
