"""Test-side twins: the two cyclotomic-coset permutation criteria (on the
s-th roots of unity and on a subfield product form), checked against the
occupancy oracle, the readings of a character sum off its count vector C
(C[t] = #{x : Tr(...) = t}, the sum being sum_t C[t] w^t) and the
character-sum permutation test, the hand-expanded normal form of the
r = 4 quintic, and the scalar forms of the library's value tables and
family checks: Frobenius powers and traces of one element, the
coefficient set V of the Walsh theorem as a tuple, the root count N(a)
by powering each lambda of the unit circle, a map tabulated point
by point, the multinomial map one point at a time, and the quartic beta
coefficients and their membership identities one (u, v) at a time, the
product of two polynomials over Z_p as coefficient lists, the Frobenius
orbit minima by one remainder per step, the orbit members of a
decision read off every log of the field, and the step matrices of
FieldCtx._powers by one generic product per step."""

import functools
import math

import numpy as np

from cppforge import bulk
from cppforge import field as field_mod
from cppforge.field import CapExceeded, InternalError
from cppforge.oracle import CHARSUM_CAP, trace_counts


def frobenius(ctx, x, j):
    """x^(p^j) for 0 <= j < n."""
    if not 0 <= j < ctx.n:
        raise ValueError(f"frobenius power {j} outside [0, {ctx.n})")
    return ctx.pow(x, ctx.p ** j)


def trace(ctx, x, k=1):
    """Tr from F_{p^n} onto F_{p^k} of one element, the scalar twin of
    bulk.trace: the sum of x^(p^(i*k)) for i < n/k."""
    if ctx.n % k:
        raise ValueError(f"k-not-divisor: {k} does not divide {ctx.n}")
    acc = cur = x
    for _ in range(ctx.n // k - 1):
        cur = ctx.pow(cur, ctx.p ** k)
        acc = ctx.add(acc, cur)
    return acc


def v_set(nctx):
    """All a with a^(p^k - 1) == -1 on F_{p^2k} (p^k - 1 of them for odd
    p): the coefficient set V of the Walsh theorem."""
    return nctx.ctx.neg_one_roots(nctx.k)


def count_N_by_powers(nctx, a, s):
    """niho.count_N with each lambda^s and lambda^(1-s) computed by
    powering: the number of unit-circle lambda with
    lambda^s + lambda^(1-s) + conj(a)*lambda + a == 0."""
    ctx = nctx.ctx
    abar = nctx.conj(a)
    return sum(ctx.add(ctx.add(v, ctx.mul(abar, lam)), a) == 0
               for lam, v in _circle_power_sums(nctx, s))


@functools.cache
def _circle_power_sums(nctx, s):
    """(lambda, lambda^s + lambda^(1-s)) over the unit circle, by powering,
    once per (field, s): they do not depend on a."""
    ctx = nctx.ctx
    N = ctx.q - 1
    return [(lam, ctx.add(ctx.pow(lam, s % N), ctx.pow(lam, (1 - s) % N)))
            for lam in ctx.mu_subgroup(nctx.q + 1)]


def orbit_minima_by_remainder(ctx, d):
    """scan._orbit_minima with one int64 remainder per element and step:
    e = gcd(d - 1, q - 1) and the least element of each Frobenius orbit
    j -> pj mod e on Z/e."""
    e = math.gcd(d - 1, ctx.q - 1)
    least = np.arange(e, dtype=np.int64)
    x = least.copy()
    for _ in range(ctx.n - 1):
        np.multiply(x, ctx.p, out=x)
        np.remainder(x, e, out=x)
        np.minimum(least, x, out=least)
    return e, least


def orbit_members_by_logs(ctx, d, decide, top=None):
    """scan.orbit_members through every log a <= top: each log_table[a]
    is reduced mod e = gcd(d - 1, q - 1), the classes it touches are
    decided in one call, and each a takes its class's verdict."""
    logs = ctx.log_table[1:][:top]
    e, least = orbit_minima_by_remainder(ctx, d)
    res = logs % e
    hit = np.zeros(e, dtype=bool)
    hit[res] = True
    touched = np.zeros(e, dtype=bool)
    touched[least[hit]] = True
    reps = np.flatnonzero(touched)
    slot = np.zeros(e, dtype=np.intp)
    slot[reps] = np.arange(len(reps))
    verdict = np.asarray(decide(ctx.exp_table[reps].astype(np.int64)))
    value = np.empty(e, dtype=verdict.dtype)
    value[hit] = verdict[slot[least[hit]]]
    return (np.flatnonzero(value[res]) + 1).tolist()


def step_matrices_by_products(ctx, ratio, steps):
    """FieldCtx._powers's step matrices with no squaring: digit_map of
    ratio^(2^j) for j < steps, each power one generic product from the
    last, in the dtype _powers holds them in."""
    dtype = field_mod._holding(ctx.n * (ctx.p - 1) ** 2)
    out, s = [], ratio
    for _ in range(steps):
        out.append(ctx.digit_map(s, dtype))
        s = ctx._mul_generic(s, s)
    return out


def poly_mul(a, b, p):
    """The product of two polynomials over Z_p, coefficient lists in
    ascending degree, by schoolbook convolution (no modulus)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return out


def int_value(C):
    """The value sum_t C[t] w^t as an integer, or None if it is not one:
    1 + w + ... + w^(p-1) = 0, so it is an integer iff C[1..p-1] agree."""
    C = [int(c) for c in C]
    return C[0] - C[1] if len(set(C[1:])) == 1 else None


def autocorrelation(C):
    """Count vector A of |W|^2 = W * conj(W) for W = sum_t C[t] w^t:
    A[t] = sum_j C[j] C[j - t mod p]."""
    p = len(C)
    return [sum(int(C[j]) * int(C[(j - t) % p]) for j in range(p))
            for t in range(p)]


def norm2(C):
    """|W|^2 as an integer; raises when it is not one (p > 3 in general)."""
    v = int_value(autocorrelation(C))
    if v is None:
        raise ArithmeticError("norm is not a rational integer")
    return v


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


def expanded_depressed_quintic(ctx, lv):
    """(A3, A2, A1) of h_a(x - lambda_1/5) from the expanded shift formulas

        A3 = lambda_2 - (2/5) lambda_1^2
        A2 = lambda_3 + (4/25) lambda_1^3 - (3/5) lambda_1 lambda_2
        A1 = lambda_4 - (2/5) lambda_1 lambda_3 - (3/125) lambda_1^4
             + (3/25) lambda_2 lambda_1^2

    each fraction taken mod p (p != 5)."""
    def frac(num, den):
        return ctx.scalar(num * pow(den, -1, ctx.p))

    l1, l2, l3, l4 = lv
    l1_2 = ctx.mul(l1, l1)
    l1_3 = ctx.mul(l1_2, l1)
    l1_4 = ctx.mul(l1_2, l1_2)
    a3 = ctx.sub(l2, ctx.mul(frac(2, 5), l1_2))
    a2 = ctx.add(l3, ctx.sub(ctx.mul(frac(4, 25), l1_3),
                             ctx.mul(frac(3, 5), ctx.mul(l1, l2))))
    a1 = ctx.sub(l4, ctx.mul(frac(2, 5), ctx.mul(l1, l3)))
    a1 = ctx.sub(a1, ctx.mul(frac(3, 125), l1_4))
    a1 = ctx.add(a1, ctx.mul(frac(3, 25), ctx.mul(l2, l1_2)))
    return a3, a2, a1


def tabulate(ctx, fn):
    """The value table of fn, one scalar call per encoding."""
    return np.fromiter((fn(x) for x in range(ctx.q)), dtype=np.int64,
                       count=ctx.q)


def binomial_values(ctx, d, a=0):
    """The value table of x -> x^d + a*x from bulk kernels."""
    out = bulk.monomial_values(ctx, d)
    return bulk.add(ctx, out, bulk.mul_scalar(ctx, a, bulk.elements(ctx)))


def char_sum_pp_check(ctx, vals) -> bool:
    """Permutation test through additive character sums: f (value table
    vals) permutes the field iff sum_x w^Tr(alpha*f(x)) vanishes in Z[w],
    that is all p counts of Tr(alpha*f(x)) are equal, for every
    alpha != 0."""
    if ctx.q > CHARSUM_CAP:
        raise CapExceeded("field-too-large-for-charsum: capped at 2**14 elements")
    rows = trace_counts(ctx, vals, range(1, ctx.q))
    return all((row == row[0]).all() for row in rows)


def multinomial_fn(ctx, g, v, a, k):
    """x -> f(x) of families.multinomial_map, one point at a time:
    f(x) = x((a/v) g(T) + T^(p-1)) + (p-1) x^p + a x with T = Tr onto
    F_{p^k} (no hypothesis checks)."""
    p = ctx.p
    av = ctx.mul(a, ctx.inv(v))
    pm1 = ctx.scalar(p - 1)

    def fn(x):
        t = trace(ctx, x, k)
        inner = ctx.add(ctx.mul(av, ctx.poly_eval(g, t)), ctx.pow(t, p - 1))
        return ctx.add(ctx.add(ctx.mul(x, inner),
                               ctx.mul(pm1, ctx.pow(x, p))),
                       ctx.mul(a, x))
    return fn


def beta_quartic_coefficient(ctx, beta, family, u, v):
    """One coefficient a = sum coords_j * beta^j over F_{3^4k}, beta a root
    of x^4 - x - 1; family selects one of the four coordinate patterns in
    (u, v).  (u, v) must not both be zero; the coordinates must meet both
    membership identities."""
    if math.gcd(ctx.n // 4, 4) != 1:
        raise ValueError("k-not-coprime-4")
    if u == 0 and v == 0:
        raise ValueError("uv-both-zero")
    k = ctx.n // 4
    for w in (u, v):
        if not ctx.in_subfield(w, k):
            raise ValueError(f"not-in-subfield: {w}")
    nu, nv = ctx.neg(u), ctx.neg(v)
    coords = {
        1: (u, v, nu, ctx.add(nu, v)),
        2: (u, v, ctx.neg(ctx.add(u, v)), nv),
        3: (u, u, v, nv),
        4: (u, v, v, u),
    }[family]
    a = ctx.poly_eval(coords, beta)
    if quartic_beta_identities(ctx, coords) != (0, 0):
        raise InternalError("generated coefficient violates the membership "
                            f"identities: {coords}")
    return a


def quartic_beta_identities(ctx, coords):
    """The two coordinate identities characterizing membership, (c_a, c_b),
    hand-expanded; both are zero for a member."""
    u0, u1, u2, u3 = coords
    m, add = ctx.mul, ctx.add

    def s(*terms):
        acc = 0
        for t in terms:
            acc = add(acc, t)
        return acc

    c_a = s(m(u1, m(u1, u1)), m(u3, m(u2, u2)), m(m(u3, u3), u2),
            m(m(u1, u1), u2), m(u2, m(u2, u2)), m(u1, m(u3, u3)),
            m(2, m(u0, m(u2, u2))), m(u3, m(u3, u3)),
            m(2, m(u0, m(u0, u0))), m(u3, m(u1, u0)))
    u0_4 = ctx.pow(u0, 4)
    u1_4 = ctx.pow(u1, 4)
    u2_4 = ctx.pow(u2, 4)
    u3_4 = ctx.pow(u3, 4)
    c_b = s(u0_4, m(2, u1_4), m(2, u3_4), m(2, u2_4),
            m(2, m(u1, ctx.pow(u3, 3))), m(u2, ctx.pow(u3, 3)),
            m(2, m(u1, ctx.pow(u2, 3))))
    return c_a, c_b
