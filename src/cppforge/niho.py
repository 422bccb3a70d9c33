"""Analysis over F_{p^2k}: the unit circle, the coefficient set V of
a^(p^k-1) = -1, the root count N(a) on the unit circle, Walsh transform
values for exponents of the form s(p^k-1)+1, and their exact cross-check,
direct_walsh, as count vectors over one trace table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bulk
from .field import CapExceeded
from .oracle import CHARSUM_CAP, trace_counts


@dataclass(frozen=True)
class NihoCtx:
    """A field of even degree n = 2k with conjugation x -> x^(p^k)."""
    ctx: object
    k: int

    def __post_init__(self):
        if self.ctx.n != 2 * self.k:
            raise ValueError(f"odd-degree: need n == 2k, got n={self.ctx.n}, k={self.k}")

    @property
    def q(self):
        return self.ctx.p ** self.k

    def conj(self, x):
        return self.ctx.pow(x, self.q)


def unit_circle(nctx: NihoCtx) -> tuple:
    """The p^k + 1 elements with x * conj(x) == 1, in power order."""
    return nctx.ctx.mu_subgroup(nctx.q + 1)


def v_set(nctx: NihoCtx) -> tuple:
    """All a with a^(p^k - 1) == -1 (p^k - 1 of them for odd p)."""
    return nctx.ctx.neg_one_roots(nctx.k)


def count_N(nctx: NihoCtx, a, s) -> int:
    """Number of unit-circle lambda with
    lambda^s + lambda^(1-s) + conj(a)*lambda + a == 0."""
    ctx = nctx.ctx
    N = ctx.q - 1
    es = s % N
    e1s = (1 - s) % N
    abar = nctx.conj(a)
    hits = 0
    for lam in unit_circle(nctx):
        v = ctx.add(ctx.pow(lam, es), ctx.pow(lam, e1s))
        v = ctx.add(v, ctx.mul(abar, lam))
        v = ctx.add(v, a)
        if v == 0:
            hits += 1
    return hits


def walsh_value(nctx: NihoCtx, n_a) -> int:
    """Walsh transform of Tr(x^d) at a for d = s(p^k-1)+1, from the root
    count n_a = count_N(nctx, a, s): it equals (N(a) - 1) * p^k."""
    return (n_a - 1) * nctx.q


def niho_s_from_d(p, n, k, d) -> int:
    """Recover s with d' = s(p^k-1)+1 from an equivalent exponent d.

    d' = d * p^(n-1) mod p^n - 1 has the same Walsh spectrum as d because
    Tr(u^p) = Tr(u).  Raises if d' - 1 is not divisible by p^k - 1."""
    N = p ** n - 1
    dprime = (d * p ** (n - 1)) % N
    if (dprime - 1) % (p ** k - 1):
        raise ValueError(f"exponent {d} is not of the form s(p^k-1)+1 up to "
                         "p-power twist")
    return (dprime - 1) // (p ** k - 1)


def direct_walsh(ctx, fmap, coeffs):
    """Count vectors of the Walsh transform sum_x w^Tr(f(x) + a*x) of f
    composed with the absolute trace, one row per a in coeffs: an integer
    array of shape (len(coeffs), p) with row i holding
    C[t] = #{x : Tr(f(x) + a_i*x) = t}."""
    if ctx.q > CHARSUM_CAP:
        raise CapExceeded("field-too-large-for-charsum: capped at 2**14 elements")
    rows = trace_counts(ctx, bulk.elements(ctx), coeffs, fmap.value_table())
    return np.array(list(rows), dtype=np.int64).reshape(len(coeffs), ctx.p)
