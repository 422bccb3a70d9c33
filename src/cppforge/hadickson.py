"""The subfield reduction machinery for exponents d = (p^(rk)-1)/(p^k-1)+1.

For a in F_{p^rk} with Frobenius^k-conjugates a_i = a^(p^(ik)), the
polynomial h_a(x) = x * prod(x + a_i) has coefficients (the elementary
symmetric functions lambda_i) in F_{p^k}, and x^d + a*x permutes the big
field iff h_a permutes F_{p^k}.  One shift, h_a(x - lambda_1/(r+1)),
removes the degree-r term: for r = 4 it gives the normalized quintic of
Dickson's table of permutation quintics, and for r = 6 the form in which
h_a is matched against a degree-7 Dickson polynomial.
"""

from __future__ import annotations

import math

from .field import InternalError


def lambda_coeffs(ctx, a, r, k) -> tuple:
    """(lambda_1, ..., lambda_r), the elementary symmetric functions of the
    conjugates a^(p^(ik)), i < r, via the incremental product prod(x + a_i);
    lambda_0 = 1 is implicit and every entry lies in F_{p^k}."""
    if ctx.n != r * k:
        raise ValueError(f"degree-mismatch: need n == r*k, got {ctx.n} != {r}*{k}")
    step = ctx.p ** k
    conj = [a]
    for _ in range(r - 1):
        conj.append(ctx.pow(conj[-1], step))
    es = [1] + [0] * r
    for c in conj:
        for j in range(r, 0, -1):
            es[j] = ctx.add(es[j], ctx.mul(es[j - 1], c))
    lam = tuple(es[1:])
    if not all(ctx.in_subfield(entry, k) for entry in lam):
        raise InternalError("conjugate symmetric function left the subfield")
    return lam


def ha_pp_check(ctx, a, r, k) -> bool:
    """Whether h_a permutes F_{p^k} (occupancy check on the subfield)."""
    lam = lambda_coeffs(ctx, a, r, k)
    return bool(ctx.subfield_view(k).permutes([lam])[0])


def h_a_coeffs(lam) -> tuple:
    """Ascending coefficient sequence of h_a: (0, lambda_r, ..., lambda_1, 1)."""
    return (0,) + tuple(reversed(lam)) + (1,)


def taylor_shift(ctx, coeffs, s):
    """Coefficients of f(x + s) by repeated synthetic division."""
    out = list(coeffs)
    n = len(out)
    for i in range(n):
        for j in range(n - 2, i - 1, -1):
            out[j] = ctx.add(out[j], ctx.mul(out[j + 1], s))
    return out


def depressed(ctx, lam):
    """Ascending coefficients of h_a(x - lambda_1/(r+1)), r = len(lam), the
    shift that removes the degree-r term (needs p not dividing r + 1).  The
    shift and the additive constant do not affect bijectivity."""
    shift = ctx.neg(ctx.mul(lam[0], ctx.inv(ctx.scalar(len(lam) + 1))))
    h = h_a_coeffs(lam)
    return taylor_shift(ctx, h, shift) if shift else list(h)


def depressed_quintic(ctx, lam):
    """Coefficients (A3, A2, A1) of the normalized quintic
    x^5 + A3 x^3 + A2 x^2 + A1 x + const = h_a(x - lambda_1/5) (needs
    p != 5), the form of Dickson's table of permutation quintics."""
    if ctx.p == 5:
        raise ValueError("char-five: the degree-4 term cannot be removed when p = 5")
    if len(lam) != 4:
        raise ValueError(f"degree-mismatch: need r == 4, got {len(lam)}")
    return tuple(depressed(ctx, lam)[3:0:-1])


def dickson_poly(ctx, l, eta, k) -> tuple:
    """Ascending coefficient tuple of the Dickson polynomial D_l(x, eta)
    over F_{p^k}: coefficient of x^(l-2j) is l/(l-j) * C(l-j, j) *
    (-eta)^j, the integer factor taken exactly and then reduced mod p."""
    if l < 1:
        raise ValueError(f"degree must be >= 1, got {l}")
    if eta == 0:
        raise ValueError("eta-not-in-subfield: eta must be a nonzero subfield element")
    if not ctx.in_subfield(eta, k):
        raise ValueError(f"eta-not-in-subfield: {eta}")
    coeffs = [0] * (l + 1)
    neg_eta = ctx.neg(eta)
    for j in range(l // 2 + 1):
        num = l * math.comb(l - j, j)
        if num % (l - j):
            raise InternalError(f"l/(l-j) * C(l-j, j) is not an integer "
                                f"for l={l}, j={j}")
        c = ctx.scalar(num // (l - j))
        coeffs[l - 2 * j] = ctx.mul(c, ctx.pow(neg_eta, j))
    return tuple(coeffs)


def is_dickson_of_degree(ctx, lam, k):
    """eta such that h_a(x) = D_l(x + c, eta) + const, l = len(lam) + 1 the
    degree of h_a, for the unique shift c = lambda_1/l that removes the
    degree-(l-1) term, else None.

    The shift and the dropped constant preserve bijectivity, so a match
    certifies that h_a permutes F_{p^k} exactly when D_l does.  eta is
    solved from the x^(l-2) coefficient of the shifted polynomial; eta = 0
    (D_l degenerating to the monomial x^l) counts only when the shift is
    nontrivial -- the all-zero lambda vector never matches.
    """
    l = len(lam) + 1
    if l % ctx.p == 0:
        raise ValueError("degree divisible by p: eta cannot be recovered")
    dep = depressed(ctx, lam)
    eta = ctx.neg(ctx.mul(dep[l - 2], ctx.inv(ctx.scalar(l))))
    if not ctx.in_subfield(eta, k):
        return None
    if eta == 0:
        if lam[0] == 0:
            return None
        return 0 if all(c == 0 for c in dep[1:l]) else None
    want = dickson_poly(ctx, l, eta, k)
    if tuple(dep[1:]) == want[1:]:
        return eta
    return None
