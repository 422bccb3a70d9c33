"""Analysis over F_{p^2k}: the unit circle, the root count N(a) on it,
Walsh transform values for exponents of the form s(p^k-1)+1, and their
exact cross-check, direct_walsh, as count vectors over one trace table.
The coefficient set V of a^(p^k-1) = -1 is FieldCtx.neg_one_roots(k).

N(a) comes two ways: count_N sums digit rows of the unit circle for one
a on either backend, and all_root_counts inverts that sum for every a.
For fixed lambda the root equation is F_{p^k}-linear in a, so each lambda
names exactly p^k coefficients, and one histogram of the (p^k + 1) p^k
pairs is the whole table of N(a).
"""

from __future__ import annotations

import functools
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


@functools.cache
def unit_circle(nctx: NihoCtx):
    """The p^k + 1 elements with x * conj(x) == 1, in power order, as one
    read-only int64 array (the generic subgroup cap of 2**26 keeps q below
    2**52), listed once per NihoCtx."""
    ctx, m = nctx.ctx, nctx.q + 1
    U = ctx.progression(ctx.subgroup_generator(m), m)
    U.flags.writeable = False
    return U


def count_N(nctx: NihoCtx, a, s) -> int:
    """Number of unit-circle lambda with lambda^s + lambda^(1-s) +
    conj(a)*lambda + a == 0.  U lists lambda_j = zeta^j, m = p^k + 1 <=
    2**26 of them, so lambda_j^s = U[js mod m]; M = ctx.digit_map(conj(a))
    multiplies digit rows by conj(a); U // p^i is digit i mod p, so one % p
    ends the sums."""
    ctx, p = nctx.ctx, nctx.ctx.p
    U = unit_circle(nctx)
    m, place = len(U), p ** np.arange(ctx.n, dtype=np.int64)
    M = ctx.digit_map(nctx.conj(a), np.int64)
    es, e1s = s % m, (1 - s) % m            # exact for any int s
    step = max(1, bulk.CHECK_BLOCK // 8 // ctx.n)      # rows per block
    hits = 0
    for j in np.split(np.arange(m), range(step, m, step)):
        S = (U[j, None] // place % p @ M + U[j * es % m, None] // place
             + U[j * e1s % m, None] // place + ctx.coeffs(a))
        hits += np.count_nonzero(~(S % p).any(axis=1))
    return int(hits)


def all_root_counts(nctx: NihoCtx, s):
    """count_N(nctx, a, s) for every encoding a, as an int64 array of
    length q (a generic field refuses the first table read).

    For lambda in the unit circle U put c = -(lambda^s + lambda^(1-s)).
    Then a + lambda*conj(a) = c is F_{p^k}-linear in a: its kernel is
    t F_{p^k} with t^(p^k-1) = -1/lambda, and c w solves it for any w with
    w + conj(w) = 1, since lambda*conj(c) = c.  So the a with lambda as a
    root are c w + t F_{p^k}, p^k of them, and N(a) counts the lambda
    whose set holds a."""
    ctx, Q = nctx.ctx, nctx.q

    def exp(L):                 # the int64 encodings bulk takes
        # logs in [-Q, q - 1): within a period of the wrap (see bulk)
        return ctx.exp_table.take(L, mode="wrap").astype(np.int64)

    j = np.arange(Q + 1, dtype=np.int64)       # lambda_j = g^((Q-1) j)
    lam_s = exp((Q - 1) * (j * (s % (Q + 1)) % (Q + 1)))
    lam_1s = exp((Q - 1) * (j * ((1 - s) % (Q + 1)) % (Q + 1)))
    # x + conj(x) = 0 would give x^(2(Q-1)) = 1, too small an order for
    # the generator x, so w = x / (x + conj(x)) has w + conj(w) = 1
    x = ctx.generator
    w = ctx.mul(x, ctx.inv(ctx.add(x, nctx.conj(x))))
    cw = bulk.mul_scalar(ctx, ctx.neg(w), bulk.add(ctx, lam_s, lam_1s))
    # log t_j = log(-1/lambda_j) / (Q-1); log(-1) is 0 or (Q-1)(Q+1)/2
    t_log = int(ctx.log_table[ctx.neg(1)]) // (Q - 1) - j
    u_log = (Q + 1) * np.arange(Q - 1, dtype=np.int64)     # F_{p^k}^*
    counts = np.bincount(cw, minlength=ctx.q)
    step = max(1, bulk.CHECK_BLOCK // (Q - 1))     # kernel rows per block
    for lo in range(0, Q + 1, step):
        kernel = exp(t_log[lo:lo + step, None] + u_log)
        np.add.at(counts, bulk.add(ctx, kernel, cw[lo:lo + step, None]), 1)
    return counts


def walsh_value(nctx: NihoCtx, n_a):
    """Walsh transform of Tr(x^d) at a for d = s(p^k-1)+1, from the root
    count n_a = N(a) of count_N or all_root_counts (an int or an array of
    them): it equals (N(a) - 1) * p^k."""
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


def direct_walsh(ctx, vals, coeffs):
    """Count vectors of the Walsh transform sum_x w^Tr(f(x) + a*x) of f
    composed with the absolute trace, f given by its value table vals, one
    row per a in coeffs: an integer array of shape (len(coeffs), p) with
    row i holding C[t] = #{x : Tr(f(x) + a_i*x) = t}."""
    if ctx.q > CHARSUM_CAP:
        raise CapExceeded("field-too-large-for-charsum: capped at "
                          f"2**{CHARSUM_CAP.bit_length() - 1} elements")
    rows = trace_counts(ctx, bulk.elements(ctx), coeffs, vals)
    return np.array(list(rows), dtype=np.int64).reshape(len(coeffs), ctx.p)
