"""Ground-truth permutation and CPP checks, plus the additive
character-sum test they are cross-validated against.

A character sum sum_x w^Tr(...) (w a primitive p-th root of unity) is
kept as its count vector C, C[t] = #{x : Tr(...) = t}, read off one table
of absolute traces: it vanishes iff all p counts are equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bulk
from .field import CapExceeded

CHARSUM_CAP = 1 << 14


@dataclass(frozen=True)
class FieldMap:
    """A total deterministic self-map of a field.

    fn evaluates one encoding; values, when given, returns the whole value
    table as an int64 array (must agree with fn -- the tests sample this).
    """
    ctx: object
    fn: object
    values: object = None

    def value_table(self):
        if self.values is not None:
            return np.asarray(self.values(), dtype=np.int64)
        if self.ctx.backend != "table":
            raise CapExceeded("field-too-large: cannot tabulate a map on a "
                              "generic-backend field")
        return np.fromiter((self.fn(x) for x in range(self.ctx.q)),
                           dtype=np.int64, count=self.ctx.q)


def is_permutation(fmap: FieldMap) -> bool:
    """Occupancy bijectivity check over all encodings."""
    return bulk.values_are_permutation(fmap.ctx, fmap.value_table())


def is_cpp(fmap: FieldMap) -> bool:
    """True iff both f and f(x)+x permute the field (one value table)."""
    ctx, v = fmap.ctx, fmap.value_table()
    B = bulk.CHECK_BLOCK
    return bulk.values_are_permutation(ctx, v) and bulk.values_are_permutation(
        ctx, (bulk.add(ctx, v[lo:lo + B], np.arange(lo, min(lo + B, ctx.q)))
              for lo in range(0, ctx.q, B)))


def monomial_map(ctx, d, a=0) -> FieldMap:
    """x -> x^d + a*x as a FieldMap (vector-backed on table fields)."""
    vals = None
    if ctx.backend == "table":
        def vals():
            X = bulk.elements(ctx)
            out = bulk.monomial_values(ctx, d)
            if a:
                out = bulk.add(ctx, out, bulk.mul_scalar(ctx, a, X))
            return out
    return FieldMap(ctx, lambda x: ctx.add(ctx.pow(x, d), ctx.mul(a, x)), vals)


def is_cpp_exponent_pair(ctx, d, a) -> bool:
    """True iff a^(-1) x^d is a CPP: gcd(d, q-1) == 1 and x^d + a*x is a
    bijection (equivalent by composing with the scalings by a and a^(-1))."""
    if a == 0:
        raise ValueError("zero-coefficient: need a != 0")
    if math.gcd(d, ctx.q - 1) != 1:
        return False
    return bulk.binomial_is_permutation(ctx, d, a)


def trace_counts(ctx, vals, alphas, offset=0):
    """Count vectors of the character sums sum_i w^Tr(offset_i + alpha*vals_i),
    one row per alpha, lazily: row[t] = #{i : Tr(offset_i + alpha*vals_i) = t}.

    Tr is additive, so one trace table of the whole field serves every
    alpha: each row is one mul_scalar, one gather and one bincount.
    offset is an encoding or an array of encodings like vals."""
    p = ctx.p
    tr = bulk.trace(ctx, bulk.elements(ctx), 1)
    base = tr[offset]
    for alpha in alphas:
        yield np.bincount((base + tr[bulk.mul_scalar(ctx, alpha, vals)]) % p,
                          minlength=p)


def char_sum_pp_check(fmap: FieldMap) -> bool:
    """Permutation test through additive character sums: f permutes the
    field iff sum_x w^Tr(alpha*f(x)) vanishes in Z[w], that is all p counts
    of Tr(alpha*f(x)) are equal, for every alpha != 0."""
    ctx = fmap.ctx
    if ctx.q > CHARSUM_CAP:
        raise CapExceeded("field-too-large-for-charsum: capped at 2**14 elements")
    rows = trace_counts(ctx, fmap.value_table(), range(1, ctx.q))
    return all((row == row[0]).all() for row in rows)
