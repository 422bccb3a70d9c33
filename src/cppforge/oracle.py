"""Ground-truth permutation and CPP checks on value tables, and the count
vectors of the additive character sums they are cross-validated against.

A map f is its value table: an int64 array whose entry x is f(x).
A character sum sum_x w^Tr(...) (w a primitive p-th root of unity) is
kept as its count vector C, C[t] = #{x : Tr(...) = t}, read off one table
of absolute traces: it vanishes iff all p counts are equal.
"""

from __future__ import annotations

import math

import numpy as np

from . import bulk

CHARSUM_CAP = 1 << 14


def is_permutation(ctx, vals) -> bool:
    """Occupancy bijectivity check of the value table vals."""
    return bulk.values_are_permutation(ctx, vals)


def is_cpp(ctx, vals) -> bool:
    """True iff both f and f(x)+x permute the field, f given by its value
    table vals; f(x)+x streams from it in blocks of CHECK_BLOCK points."""
    B = bulk.CHECK_BLOCK
    return bulk.values_are_permutation(ctx, vals) and bulk.values_are_permutation(
        ctx, (bulk.add(ctx, vals[lo:lo + B], np.arange(lo, min(lo + B, ctx.q)))
              for lo in range(0, ctx.q, B)))


def is_cpp_exponent_pair(ctx, d, a, seen=None) -> bool:
    """True iff a^(-1) x^d is a CPP: d >= 1, gcd(d, q-1) == 1 and x^d + a*x
    is a bijection (by composing with the scalings by a and a^(-1)).
    seen: an occupancy array for bulk.binomial_is_permutation to reuse."""
    if a == 0:
        raise ValueError("zero-coefficient: need a != 0")
    if d < 1 or math.gcd(d, ctx.q - 1) != 1:
        return False
    return bulk.binomial_is_permutation(ctx, d, a, seen)


def trace_counts(ctx, vals, alphas, offset=0):
    """Count vectors of the character sums sum_i w^Tr(offset_i + alpha*vals_i),
    one row per alpha, lazily: row[t] = #{i : Tr(offset_i + alpha*vals_i) = t}.

    Tr is additive, so one trace table of the whole field serves every
    alpha.  The logs of vals are read once; with tr_log[i] = Tr(g^i) (q - 1
    entries), Tr(alpha*v) is tr_log at log v + log alpha, one wrap-mode
    gather per row (see bulk), then one bincount.  offset is an encoding
    or an array of encodings like vals."""
    p = ctx.p
    tr = bulk.trace(ctx, bulk.elements(ctx), 1)
    base = tr[offset]
    tr_log = tr[ctx.exp_table]
    logs = ctx.log_table[vals].astype(np.int64)
    zero = logs < 0
    for alpha in alphas:
        t = tr_log.take(logs + int(ctx.log_table[alpha]), mode="wrap")
        t[zero | (alpha == 0)] = 0                  # Tr(0) = 0
        yield np.bincount((base + t) % p, minlength=p)
