"""Test-side twins: the two cyclotomic-coset permutation criteria (on the
s-th roots of unity and on a subfield product form), checked against the
occupancy oracle, the readings of a character sum off its count vector C
(C[t] = #{x : Tr(...) = t}, the sum being sum_t C[t] w^t), and the
hand-expanded normal form of the r = 4 quintic."""

import math


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

    l1, l2, l3, l4 = lv.entries
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
