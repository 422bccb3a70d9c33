"""The subfield reduction machinery for exponents d = (p^(rk)-1)/(p^k-1)+1.

For a in F_{p^rk} with Frobenius^k-conjugates a_i = a^(p^(ik)), the
polynomial h_a(x) = x * prod(x + a_i) has coefficients (the elementary
symmetric functions lambda_i) in F_{p^k}, and x^d + a*x permutes the big
field iff h_a permutes F_{p^k}.  For r = 4 that brings the classification
of quintic permutations of F_{p^k} to bear; Dickson polynomials supply
degree-(r+1) permutations for the r = 6 constructions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class LambdaVec:
    """Elementary symmetric functions (lambda_1, ..., lambda_r) of the
    Frobenius^k-conjugates of a coefficient; lambda_0 = 1 is implicit and
    every entry lies in F_{p^k}."""
    r: int
    k: int
    entries: tuple


@dataclass(frozen=True)
class SubfieldPoly:
    """Coefficient sequence (ascending degree) with all coefficients fixed
    by Frobenius^k."""
    k: int
    coeffs: tuple

    @property
    def degree(self):
        d = len(self.coeffs) - 1
        while d > 0 and self.coeffs[d] == 0:
            d -= 1
        return d


def subfield_poly(ctx, coeffs, k) -> SubfieldPoly:
    cs = tuple(coeffs)
    for c in cs:
        if not ctx.in_subfield(c, k):
            raise ValueError(f"not-in-subfield: coefficient {c}")
    return SubfieldPoly(k, cs)


def lambda_coeffs(ctx, a, r, k) -> LambdaVec:
    """lambda_i of the conjugates a^(p^(ik)), i < r, via the incremental
    product prod(x + a_i)."""
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
    entries = tuple(es[1:])
    for lam in entries:
        if not ctx.in_subfield(lam, k):
            raise RuntimeError("conjugate symmetric function left the subfield")
    return LambdaVec(r, k, entries)


def h_a_eval(ctx, lv: LambdaVec, x):
    """h_a(x) = x^(r+1) + lambda_1 x^r + ... + lambda_r x at one point."""
    acc = ctx.add(x, lv.entries[0])
    for lam in lv.entries[1:]:
        acc = ctx.add(ctx.mul(acc, x), lam)
    return ctx.mul(acc, x)


def ha_pp_check(ctx, a, r, k) -> bool:
    """Whether h_a permutes F_{p^k} (occupancy check on the subfield)."""
    lv = lambda_coeffs(ctx, a, r, k)
    return ha_pp_check_from_lambda(ctx, lv)


def ha_pp_check_from_lambda(ctx, lv: LambdaVec) -> bool:
    view = ctx.subfield_view(lv.k)
    return bool(view.permutes([[view.idx(lam) for lam in lv.entries]])[0])


def depressed_quintic(ctx, lv: LambdaVec, k):
    """Coefficients (A3, A2, A1) of the quintic after removing the degree-4
    term by the shift x -> x - lambda_1/5 (needs p != 5):

        A3 = lambda_2 - (2/5) lambda_1^2
        A2 = lambda_3 + (4/25) lambda_1^3 - (3/5) lambda_1 lambda_2
        A1 = lambda_4 - (2/5) lambda_1 lambda_3 - (3/125) lambda_1^4
             + (3/25) lambda_2 lambda_1^2

    The dropped additive constant does not affect bijectivity.
    """
    if ctx.p == 5:
        raise ValueError("char-five: the degree-4 term cannot be removed when p = 5")
    if lv.r != 4:
        raise ValueError(f"degree-mismatch: need r == 4, got {lv.r}")
    l1, l2, l3, l4 = lv.entries

    def frac(num, den):
        return ctx.mul(ctx.scalar(num), ctx.inv(ctx.scalar(den)))

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


# normalized quintic permutation forms over F_q, odd q, p != 5, keyed by
# the depressed coefficient triple (A3, A2, A1)
def classify_quintic_pp(ctx, a3, a2, a1, k):
    """Tag of the normalized-permutation form matched by
    x^5 + A3 x^3 + A2 x^2 + A1 x over F_{p^k}, or None.

    The tag is a sufficiency certificate (every tagged triple is a
    permutation); untagged triples are not claimed to be non-permutations.
    """
    if ctx.p == 5:
        raise ValueError("char-five: classification here covers p != 5 only")
    p = ctx.p
    q = p ** k
    for c in (a3, a2, a1):
        if not ctx.in_subfield(c, k):
            raise ValueError(f"not-in-subfield: coefficient {c}")
    if a3 == 0 and a2 == 0 and a1 == 0:
        if q % 5 != 1:
            return "x^5"
        return None
    if a2 == 0 and q % 5 in (2, 3):
        inv5 = ctx.inv(ctx.scalar(5))
        if ctx.mul(inv5, ctx.mul(a3, a3)) == a1:
            return "x^5+vx^3+(1/5)v^2x"
    if q == 9 and a3 == 0 and a2 == 0:
        if ctx.mul(a1, a1) == ctx.neg(1):
            return "x^5+vx (v^2=-1, q=9)"
    if q == 7:
        if a3 == 0 and a1 == 0 and a2 in (ctx.scalar(2), ctx.scalar(-2)):
            return "x^5+-2x^2 (q=7)"
        if a3 != 0 and not ctx.residue_test(a3, k, "square") \
                and a2 in (1, ctx.scalar(-1)) \
                and a1 == ctx.mul(ctx.scalar(3), ctx.mul(a3, a3)):
            return "x^5+vx^3+-x^2+3v^2x (q=7)"
    if q == 13 and a2 == 0 and a3 != 0:
        if not ctx.residue_test(a3, k, "square") \
                and a1 == ctx.mul(ctx.scalar(3), ctx.mul(a3, a3)):
            return "x^5+vx^3+3v^2x (q=13)"
    if q == 3 and a2 == 0:
        if a3 == 0 and a1 == 1:
            return "x^5+x (q=3)"
        if a3 == ctx.scalar(2) and a1 == 1:
            return "x^5+2x^3+x (q=3)"
        if a3 == 1 and a1 == 0:
            return "x^5+x^3 (q=3)"
    return None


def dickson_poly(ctx, l, eta, k) -> SubfieldPoly:
    """Dickson polynomial D_l(x, eta) over F_{p^k}: coefficient of
    x^(l-2j) is l/(l-j) * C(l-j, j) * (-eta)^j, the integer factor taken
    exactly and then reduced mod p."""
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
            raise AssertionError(f"l/(l-j) * C(l-j, j) is not an integer "
                                 f"for l={l}, j={j}")
        c = ctx.scalar(num // (l - j))
        coeffs[l - 2 * j] = ctx.mul(c, ctx.pow(neg_eta, j))
    return SubfieldPoly(k, tuple(coeffs))


def dickson_is_pp(ctx, l, k) -> bool:
    """D_l(x, eta) permutes F_{p^k} iff gcd(l, p^(2k) - 1) == 1."""
    return math.gcd(l, ctx.p ** (2 * k) - 1) == 1


def taylor_shift(ctx, coeffs, s):
    """Coefficients of f(x + s) by repeated synthetic division."""
    out = list(coeffs)
    n = len(out)
    for i in range(n):
        for j in range(n - 2, i - 1, -1):
            out[j] = ctx.add(out[j], ctx.mul(out[j + 1], s))
    return out


def h_a_coeffs(lv: LambdaVec) -> tuple:
    """Ascending coefficient sequence of h_a: (0, lambda_r, ..., lambda_1, 1)."""
    return (0,) + tuple(reversed(lv.entries)) + (1,)


def is_dickson_of_degree(ctx, lv: LambdaVec, l, k):
    """eta such that h_a(x) = D_l(x + c, eta) + const for the unique shift
    c = lambda_1/l that removes the degree-(l-1) term, else None.

    The shift and the dropped constant preserve bijectivity, so a match
    certifies that h_a permutes F_{p^k} exactly when D_l does.  eta is
    solved from the x^(l-2) coefficient of the shifted polynomial; eta = 0
    (D_l degenerating to the monomial x^l) counts only when the shift is
    nontrivial -- the all-zero lambda vector never matches.
    """
    if lv.r + 1 != l:
        raise ValueError(f"degree-mismatch: h_a has degree {lv.r + 1}, not {l}")
    if l % ctx.p == 0:
        raise ValueError("degree divisible by p: eta cannot be recovered")
    h = h_a_coeffs(lv)
    l1 = lv.entries[0]
    shift = ctx.neg(ctx.mul(l1, ctx.inv(ctx.scalar(l))))
    dep = taylor_shift(ctx, h, shift) if shift else list(h)
    eta = ctx.neg(ctx.mul(dep[l - 2], ctx.inv(ctx.scalar(l))))
    if not ctx.in_subfield(eta, k):
        return None
    if eta == 0:
        if l1 == 0:
            return None
        return 0 if all(c == 0 for c in dep[1:l]) else None
    want = dickson_poly(ctx, l, eta, k).coeffs
    if tuple(dep[1:]) == want[1:]:
        return eta
    return None
