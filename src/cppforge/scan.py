"""Exhaustive CPP coefficient scans for exponents d = (p^(rk)-1)/(p^k-1)+1.

Two routes: "direct" tests the bijectivity of x -> x^d + a*x on the whole
field for every a (ground truth, optionally across a process pool);
"ha" reduces each a to a degree-(r+1) polynomial on F_{p^k} and checks the
permutation there, deduplicating identical coefficient vectors.  Both
return ascending coefficient lists so results merge and compare bytewise.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

from . import bulk
from .field import build_field

_WORKER = {}


def _pool_init(p, n, modulus, backend):
    _WORKER["ctx"] = build_field(p, n, modulus, backend)


def _pool_chunk(args):
    lo, hi, d = args
    ctx = _WORKER["ctx"]
    return [a for a in range(lo, hi)
            if bulk.binomial_is_permutation(ctx, d, a)]


def direct_cpp_scan(ctx, d, jobs=1, progress=None):
    """Ascending list of all a != 0 making x -> x^d + a*x bijective.
    Combined with gcd(d, q-1) == 1 these are exactly the CPP coefficients."""
    if ctx.backend != "table":
        raise ValueError("cap-exceeded: direct scans need the table backend")
    if math.gcd(d, ctx.q - 1) != 1:
        return []
    q = ctx.q
    if jobs > 1 and q > 4096:
        import multiprocessing as mp
        chunks = []
        step = max(256, (q - 1) // (jobs * 8) + 1)
        lo = 1
        while lo < q:
            chunks.append((lo, min(lo + step, q), d))
            lo += step
        with mp.get_context("fork").Pool(
                jobs, initializer=_pool_init,
                initargs=(ctx.p, ctx.n, ctx.modulus, ctx.backend)) as pool:
            parts = []
            for i, part in enumerate(pool.imap(_pool_chunk, chunks)):
                parts.append(part)
                if progress:
                    progress(chunks[i][1] - 1, q - 1)
        return [a for part in parts for a in part]
    out = []
    xd = bulk.monomial_values(ctx, d)
    X = bulk.elements(ctx)
    report_step = max(1, (q - 1) // 64)
    for a in range(1, q):
        vals = bulk.add(ctx, xd, bulk.mul_scalar(ctx, a, X))
        if bulk.values_are_permutation(ctx, vals):
            out.append(a)
        if progress and a % report_step == 0:
            progress(a, q - 1)
    return out


def ha_cpp_scan(ctx, r, k, progress=None):
    """Ascending list of CPP coefficients through the subfield criterion:
    a qualifies iff h_a permutes F_{p^k} (gcd(d, q-1) == 1 is checked once,
    globally)."""
    if ctx.backend != "table":
        raise ValueError("cap-exceeded: full coefficient enumeration needs "
                         "the table backend")
    d = (ctx.p ** (r * k) - 1) // (ctx.p ** k - 1) + 1
    if math.gcd(d, ctx.q - 1) != 1:
        return []
    A, lam = bulk.lambda_scan(ctx, r, k)
    if progress:
        progress(1, 4)
    view = ctx.subfield_view(k)
    sub = np.array(view.elems, dtype=np.int64)
    pos = np.searchsorted(sub, lam)
    if not (sub[pos] == lam).all():
        raise RuntimeError("conjugate symmetric function left the subfield")
    if progress:
        progress(2, 4)
    base = view.order
    keys = pos[:, 0]
    for j in range(1, r):
        keys = keys * base + pos[:, j]
    uniq, inverse = np.unique(keys, return_inverse=True)
    rows = np.empty((len(uniq), r), dtype=np.int32)
    tmp = uniq.copy()
    for j in range(r - 1, -1, -1):
        rows[:, j] = tmp % base
        tmp //= base
    if progress:
        progress(3, 4)
    mask = view.permutes(rows)[inverse]
    if progress:
        progress(4, 4)
    return [int(a) for a in A[mask]]


def r4_equality_check(ctx, k):
    """Full-field cross-check that the r = 4 membership conditions
    characterize the CPP coefficient set exactly.

    Returns (cpp_list, tagged_count, ok): ok means every CPP coefficient
    carries a tag and the number of tagged coefficients over the whole
    field equals the CPP count (conditions are sound and complete).
    """
    p = ctx.p
    tagger = _r4_tagger(ctx, k)
    cpps = ha_cpp_scan(ctx, 4, k)
    members_tagged = all(tagger(a) is not None for a in cpps)
    if p == 5 and k > 1:
        tagged = int(_p5_bulk_tag_mask(ctx, k).sum())
    elif ctx.q <= 100000:
        tagged = sum(1 for a in range(1, ctx.q) if tagger(a) is not None)
    else:
        raise ValueError("cap-exceeded: no bulk tagger for this field")
    return cpps, tagged, members_tagged and tagged == len(cpps)


def _r4_tagger(ctx, k):
    """The r = 4 membership tagger a -> ConditionTag or None: the p = 5
    conditions when p = 5, the quintic-classification ones otherwise."""
    from .families import r4_condition, r4_condition_p5
    condition = r4_condition_p5 if ctx.p == 5 else r4_condition
    return lambda a: condition(ctx, a, k)


def _p5_bulk_tag_mask(ctx, k):
    # vectorized union of the k > 1 membership conditions for p = 5
    q_sub = 5 ** k
    N = ctx.q - 1
    A, lam = bulk.lambda_scan(ctx, 4, k)
    l1, l2, l3, l4 = (lam[:, j] for j in range(4))
    three = ctx.scalar(3)
    # condition 1: l1 = l2 = l3 = 0 and -l4 not a fourth power
    e4 = (q_sub - 1) // math.gcd(4, q_sub - 1)
    not4 = bulk.pow_const(ctx, bulk.neg(ctx, l4), e4) != 1
    c1 = (l1 == 0) & (l2 == 0) & (l3 == 0) & not4
    # condition 2: l1 = 0, l2 != 0, -l2^2 = l4 + 3 l3^2 / l2, 2 l2 not square
    inv_l2 = bulk.pow_const(ctx, l2, N - 1)          # x^(q-2) = 1/x off zero
    rhs = bulk.add(ctx, l4, bulk.mul_scalar(
        ctx, three, bulk.mul(ctx, bulk.mul(ctx, l3, l3), inv_l2)))
    lhs = bulk.neg(ctx, bulk.mul(ctx, l2, l2))
    e2 = (q_sub - 1) // 2
    notsq = bulk.pow_const(ctx, bulk.mul_scalar(ctx, ctx.scalar(2), l2), e2) != 1
    c2 = (l1 == 0) & (l2 != 0) & (lhs == rhs) & notsq
    return c1 | c2


def count_cpp(p, k, r, method="ha", jobs=1, collect=False, progress=None,
              modulus=None):
    """Coefficient count (and optional list) for d = (p^(rk)-1)/(p^k-1)+1.

    method "direct", "ha", or "both"; with "both" the two lists must agree
    element for element or a RuntimeError names the first mismatch.
    Returns a dict feeding the structured report; for r = 4, "labels"
    maps each coefficient to its condition label ("" when untagged).
    """
    from .families import tower_exponent
    d = tower_exponent(p, k, r)
    n = r * k
    ctx = build_field(p, n, modulus)
    t0 = time.monotonic()
    elems_direct = elems_ha = None
    if method in ("direct", "both"):
        elems_direct = direct_cpp_scan(ctx, d, jobs=jobs, progress=progress)
    if method in ("ha", "both"):
        elems_ha = ha_cpp_scan(ctx, r, k, progress=progress)
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
        tagger = _r4_tagger(ctx, k)
        for a in elems:
            tag = tagger(a)
            labels[a] = tag.label() if tag else ""
    conditions = {}
    for label in labels.values():
        label = label or "untagged"
        conditions[label] = conditions.get(label, 0) + 1
    return {
        "ctx": ctx,
        "d": d,
        "method": method,
        "count": len(elems),
        "elements": elems if collect else None,
        "conditions": conditions,
        "labels": labels,
        "seconds": time.monotonic() - t0,
    }


def default_jobs():
    return os.cpu_count() or 1
