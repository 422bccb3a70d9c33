"""Ground-truth permutation and CPP checks, plus the classical criteria
they are cross-validated against: the additive character-sum test and the
two cyclotomic-coset permutation criteria (on the s-th roots of unity and
on a subfield product form).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bulk
from .cyclotomic import CycInt

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
    name: str = ""

    def value_table(self):
        if self.values is not None:
            return np.asarray(self.values(), dtype=np.int64)
        if self.ctx.backend != "table":
            raise ValueError("field-too-large: cannot tabulate a map on a "
                             "generic-backend field")
        return np.fromiter((self.fn(x) for x in range(self.ctx.q)),
                           dtype=np.int64, count=self.ctx.q)

    def plus_identity(self) -> "FieldMap":
        ctx = self.ctx
        vals = None
        if self.values is not None:
            vals = lambda: bulk.add(ctx, np.asarray(self.values()), bulk.elements(ctx))
        return FieldMap(ctx, lambda x: ctx.add(self.fn(x), x), vals,
                        name=f"{self.name}+x" if self.name else "f+x")


def is_permutation(fmap: FieldMap) -> bool:
    """Occupancy bijectivity check over all encodings."""
    return bulk.values_are_permutation(fmap.ctx, fmap.value_table())


def is_cpp(fmap: FieldMap) -> bool:
    """True iff both f and f(x)+x permute the field."""
    return is_permutation(fmap) and is_permutation(fmap.plus_identity())


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
    return FieldMap(ctx, lambda x: ctx.add(ctx.pow(x, d), ctx.mul(a, x)), vals,
                    name=f"x^{d}+{a}x")


def is_cpp_exponent_pair(ctx, d, a) -> bool:
    """True iff a^(-1) x^d is a CPP: gcd(d, q-1) == 1 and x^d + a*x is a
    bijection (equivalent by composing with the scalings by a and a^(-1))."""
    if a == 0:
        raise ValueError("zero-coefficient: need a != 0")
    if math.gcd(d, ctx.q - 1) != 1:
        return False
    if ctx.backend == "table":
        return bulk.binomial_is_permutation(ctx, d, a)
    return is_permutation(monomial_map(ctx, d, a))


def char_sum_pp_check(fmap: FieldMap) -> bool:
    """Permutation test through additive character sums: f permutes the
    field iff sum_x w^Tr(alpha*f(x)) vanishes in Z[w] for every alpha != 0."""
    ctx = fmap.ctx
    if ctx.q > CHARSUM_CAP:
        raise ValueError("field-too-large-for-charsum: capped at 2**14 elements")
    p = ctx.p
    fv = fmap.value_table()
    tr = bulk.trace(ctx, bulk.elements(ctx), 1)
    for alpha in range(1, ctx.q):
        counts = np.bincount(tr[bulk.mul_scalar(ctx, alpha, fv)], minlength=p)
        if not CycInt(p, counts.tolist()).is_zero():
            return False
    return True


def mu_permutation_check(ctx, l, g, s) -> bool:
    """Whether x^l * g(x)^((q-1)/s) permutes the s-th roots of unity and
    gcd(l, (q-1)/s) == 1; equivalent to x^l g(x^((q-1)/s)) permuting the
    whole field."""
    q = ctx.q
    if (q - 1) % s:
        raise ValueError(f"s-not-divisor: {s} does not divide q-1")
    cof = (q - 1) // s
    if math.gcd(l, cof) != 1:
        return False
    mu = ctx.mu_subgroup(s)
    values = [ctx.mul(ctx.pow(lam, l), ctx.pow(ctx.poly_eval(g, lam), cof))
              for lam in mu]
    return sorted(values) == sorted(mu)


def subfield_product_check(ctx, l, g, k) -> bool:
    """Whether x^l * g(x) g^[p^k](x) ... g^[p^((r-1)k)](x) permutes F_{p^k}
    and gcd(l, (q-1)/(p^k-1)) == 1, where g^[m] raises each coefficient of
    g to the m-th power; equivalent to x^l g(x^((q-1)/(p^k-1))) permuting
    the whole field."""
    if ctx.n % k:
        raise ValueError(f"k-not-divisor: {k} does not divide {ctx.n}")
    r = ctx.n // k
    cof = (ctx.q - 1) // (ctx.p ** k - 1)
    if math.gcd(l, cof) != 1:
        return False
    gis = [[ctx.pow(c, ctx.p ** (i * k)) for c in g] for i in range(r)]
    sub = ctx.subfield_elements(k)
    values = []
    for x in sub:
        v = ctx.pow(x, l)
        for gi in gis:
            v = ctx.mul(v, ctx.poly_eval(gi, x))
        values.append(v)
    return sorted(values) == sorted(sub)
