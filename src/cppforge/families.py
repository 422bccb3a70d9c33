"""CPP coefficient families: exponent formulas, membership predicates,
explicit generators, and the two open-verification harnesses.

Each family pins down coefficients a (or maps f) that make a^(-1) x^d (or
f) a complete permutation; every generator or predicate here is backed by
the direct CPP oracle in the test and acceptance suites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import bulk
from .field import build_field, is_prime
from .hadickson import (SubfieldPoly, lambda_coeffs, depressed_quintic,
                        ha_pp_check, is_dickson_of_degree)
from .oracle import FieldMap, is_cpp_exponent_pair

FAMILY_IDS = ("niho2", "p3k2", "r4_general", "r4_p3", "r4_p3_beta", "r4_p5",
              "r4_p5_vset", "r6_p3", "r6_p5", "rp_k1", "rt_k1", "multinomial",
              "conj1", "conj2")


@dataclass(frozen=True)
class FamilySpec:
    id: str
    params: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.id not in FAMILY_IDS:
            raise ValueError(f"hypothesis-violation: unknown family {self.id!r}")


@dataclass(frozen=True)
class ConditionTag:
    """Which membership condition a coefficient satisfied, with witness data."""
    family: str
    condition: str
    witness: tuple = ()

    def label(self):
        return f"{self.family}:{self.condition}"


# ----------------------------------------------------------------------
# exponent formulas

def niho_exponent(p, k, i) -> int:
    """d = (p^k - 1)(p^i - 1)/2 + p^i, coprime to p^2k - 1 for odd p."""
    if p == 2:
        raise ValueError("even-characteristic: needs odd p")
    if not 1 <= i <= 2 * k:
        raise ValueError(f"hypothesis-violation: need 1 <= i <= 2k, got i={i}")
    d = (p ** k - 1) * (p ** i - 1) // 2 + p ** i
    if math.gcd(d, p ** (2 * k) - 1) != 1:
        raise AssertionError(f"niho exponent {d} is not coprime to p^2k - 1 "
                             f"for p={p}, k={k}, i={i}")
    return d


def tower_exponent(p, k, r) -> int:
    """d = (p^(rk) - 1)/(p^k - 1) + 1 under gcd(r+1, p^k - 1) == 1."""
    if math.gcd(r + 1, p ** k - 1) != 1:
        raise ValueError(f"gcd-violation: gcd(r+1, p^k-1) = "
                         f"{math.gcd(r + 1, p ** k - 1)} != 1")
    return (p ** (r * k) - 1) // (p ** k - 1) + 1


def scaled_tower_exponent(p, t) -> int:
    """d = t (p^r - 1)/(p - 1) + 1 with r = p - 1, under gcd(rt+1, p-1) == 1."""
    r = p - 1
    if math.gcd(r * t + 1, p - 1) != 1:
        raise ValueError(f"gcd-violation: gcd(rt+1, p-1) != 1 for t={t}")
    return t * (p ** r - 1) // (p - 1) + 1


# ----------------------------------------------------------------------
# r = 4: quintic-classification conditions

def r4_condition(ctx, a, k, tag_family="r4_general"):
    """First matching membership condition for the exponent
    (p^(4k)-1)/(p^k-1)+1 over F_{p^4k}, p not in {2, 5}, as a ConditionTag;
    None when a = 0 or nothing matches."""
    p = ctx.p
    if p in (2, 5):
        raise ValueError(f"char-excluded: p={p}")
    if ctx.n != 4 * k:
        raise ValueError(f"degree-mismatch: need n == 4k, got n={ctx.n}")
    if math.gcd(5, p ** k - 1) != 1:
        raise ValueError("hypothesis-violation: gcd(5, p^k-1) != 1")
    if a == 0:
        return None
    lv = lambda_coeffs(ctx, a, 4, k)
    l1, l2, l3, l4 = lv.entries
    a3, a2, a1 = depressed_quintic(ctx, lv, k)
    q = p ** k

    if a3 == 0 and a1 == 0 and a2 == 0:
        return ConditionTag(tag_family, "1")
    if q % 5 in (2, 3) and a2 == 0:
        if ctx.mul(ctx.inv(ctx.scalar(5)), ctx.mul(a3, a3)) == a1:
            return ConditionTag(tag_family, "2", (("v", a3),))

    l1_2 = ctx.mul(l1, l1)
    l1_3 = ctx.mul(l1_2, l1)
    l1_4 = ctx.mul(l1_2, l1_2)
    if p == 3 and k == 2:
        if l2 == l1_2 and l3 == ctx.neg(l1_3):
            t = ctx.add(l4, l1_4)
            if ctx.mul(t, t) == ctx.neg(1):
                return ConditionTag(tag_family, "3")
    if p == 3 and k == 1:
        if l2 == ctx.add(l1_2, 1) and l3 == ctx.neg(l1_3) and l4 == ctx.neg(l1_4):
            return ConditionTag(tag_family, "4")
        if l2 == ctx.add(l1_2, 2) and l3 == ctx.neg(l1_3) \
                and l4 == ctx.add(ctx.neg(l1_4), 1):
            return ConditionTag(tag_family, "5")
    if p == 7 and k == 1:
        s3 = ctx.add(ctx.add(l3, l1_3), ctx.neg(ctx.mul(2, ctx.mul(l1, l2))))
        s1 = ctx.add(ctx.add(ctx.mul(l1, l3), ctx.mul(3, l1_4)),
                     ctx.add(ctx.neg(ctx.mul(l2, l1_2)), l4))
        if ctx.add(l1_2, l2) == 0 and s1 == 0 and s3 in (2, 5):
            return ConditionTag(tag_family, "6", (("sign", s3),))
        v = ctx.add(l1_2, l2)
        if v in (3, 5, 6) and s1 == ctx.mul(3, ctx.mul(v, v)) and s3 in (1, 6):
            return ConditionTag(tag_family, "7", (("v", v),))
    if p == 13 and k == 1:
        v = ctx.add(ctx.neg(ctx.mul(3, l1_2)), l2)
        s1 = ctx.add(ctx.neg(ctx.mul(3, ctx.mul(l1, l3))),
                     ctx.neg(ctx.mul(2, l1_4)))
        s1 = ctx.add(s1, ctx.add(ctx.neg(ctx.mul(3, ctx.mul(l2, l1_2))), l4))
        s3 = ctx.add(ctx.sub(l3, ctx.mul(4, l1_3)), ctx.mul(2, ctx.mul(l1, l2)))
        if v in (2, 5, 6, 7, 8, 11) and s1 == ctx.mul(3, ctx.mul(v, v)) and s3 == 0:
            return ConditionTag(tag_family, "8", (("v", v),))
    return None


def r4_condition_p3(ctx, a, k):
    """p = 3 variant: the two closed-form conditions, else the inherited
    small-field conditions 3)-5)."""
    if ctx.p != 3:
        raise ValueError(f"wrong-characteristic: p={ctx.p}")
    if ctx.n != 4 * k:
        raise ValueError(f"degree-mismatch: need n == 4k, got n={ctx.n}")
    if math.gcd(5, 3 ** k - 1) != 1:
        raise ValueError("hypothesis-violation: gcd(5, 3^k-1) != 1")
    if a == 0:
        return None
    lv = lambda_coeffs(ctx, a, 4, k)
    l1, l2, l3, l4 = lv.entries
    l1_2 = ctx.mul(l1, l1)
    l1_3 = ctx.mul(l1_2, l1)
    l1_4 = ctx.mul(l1_2, l1_2)
    if k % 4 == 2 and l2 == l1_2 and l3 == ctx.neg(l1_3) and l4 == ctx.neg(l1_4):
        return ConditionTag("r4_p3", "1")
    if k % 2 == 1 and l3 == ctx.neg(l1_3):
        t = ctx.sub(l2, l1_2)
        if ctx.neg(ctx.mul(t, t)) == ctx.sub(l4, ctx.mul(l1, l3)):
            return ConditionTag("r4_p3", "2")
    inherited = r4_condition(ctx, a, k, tag_family="r4_p3")
    if inherited is not None and inherited.condition in ("3", "4", "5"):
        return inherited
    return None


def r4_condition_p5(ctx, a, k, case3_inverse="lambda2"):
    """p = 5 membership conditions.  case3_inverse selects which lambda is
    inverted in the third condition ("lambda2" default, "lambda1" variant;
    the variant divides by lambda_1 = 0 and so never matches)."""
    if ctx.p != 5:
        raise ValueError(f"wrong-characteristic: p={ctx.p}")
    if ctx.n != 4 * k:
        raise ValueError(f"degree-mismatch: need n == 4k, got n={ctx.n}")
    if a == 0:
        return None
    lv = lambda_coeffs(ctx, a, 4, k)
    l1, l2, l3, l4 = lv.entries
    if l1 == 0 and l2 == 0 and l3 == 0:
        if not ctx.residue_test(ctx.neg(l4), k, "fourth"):
            return ConditionTag("r4_p5", "1", (("-l4", ctx.neg(l4)),))
    if l1 == 0 and l2 != 0:
        shifted = ctx.add(l4, ctx.mul(3, ctx.mul(ctx.mul(l3, l3), ctx.inv(l2))))
        if ctx.neg(ctx.mul(l2, l2)) == shifted \
                and not ctx.residue_test(ctx.mul(2, l2), k, "square"):
            return ConditionTag("r4_p5", "2", (("l2", l2),))
    if k == 1 and l1 == 0 and l2 in (2, 3):
        den = l2 if case3_inverse == "lambda2" else l1
        if den != 0:
            shifted = ctx.add(l4, ctx.mul(3, ctx.mul(ctx.mul(l3, l3),
                                                     ctx.inv(den))))
            if shifted == ctx.scalar(4):
                return ConditionTag("r4_p5", "3", (("l2", l2),))
    return None


# ----------------------------------------------------------------------
# explicit coefficient generators in a power basis

QUARTIC_BETA_POLY = (-1, -1, 0, 0, 1)       # x^4 - x - 1
SEXTIC_BETA_POLY = (2, 1, 0, 0, 0, 0, 1)    # x^6 + x + 2


def field_with_root(p, n, poly):
    """F_{p^n} containing a root of poly: the modulus itself when the
    degrees match, else the default field plus a root search."""
    deg = len(poly) - 1
    if n == deg:
        ctx = build_field(p, n, tuple(c % p for c in poly))
        return ctx, p       # the residue class of x
    ctx = build_field(p, n)
    beta = ctx.find_root(tuple(c % p for c in poly))
    return ctx, beta


def _beta_powers(ctx, beta, count):
    out = [1]
    for _ in range(count - 1):
        out.append(ctx.mul(out[-1], beta))
    return out


def beta_quartic_coefficient(ctx, beta, family, u, v):
    """One coefficient a = sum coords_j * beta^j over F_{3^4k}, beta a root
    of x^4 - x - 1; family selects one of the four coordinate patterns in
    (u, v).  (u, v) must not both be zero."""
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
    bp = _beta_powers(ctx, beta, 4)
    a = 0
    for c, b in zip(coords, bp):
        a = ctx.add(a, ctx.mul(c, b))
    _assert_quartic_beta_conditions(ctx, coords)
    return a


def _assert_quartic_beta_conditions(ctx, coords):
    # the two coordinate identities characterizing membership
    u0, u1, u2, u3 = coords
    m, add, neg = ctx.mul, ctx.add, ctx.neg

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
    if c_a != 0 or c_b != 0:
        raise AssertionError("generated coefficient violates the membership "
                             f"identities: {coords}")


def beta_quartic_all(ctx, beta):
    """Every coefficient the four quartic patterns produce, over all
    admissible (u, v); returns the distinct set."""
    k = ctx.n // 4
    sub = ctx.subfield_elements(k)
    out = set()
    for family in (1, 2, 3, 4):
        for u in sub:
            for v in sub:
                if u == 0 and v == 0:
                    continue
                out.add(beta_quartic_coefficient(ctx, beta, family, u, v))
    return sorted(out)


R6_COORDS_P3 = (
    (0, 0, 1, 1, 1, 1), (0, 1, 0, 0, 1, -1), (0, 1, 0, -1, -1, 0),
    (1, 0, 1, 0, 1, 1), (1, 0, -1, 1, 0, -1), (1, 1, 0, -1, 1, 1),
    (1, 1, 1, 0, -1, 0), (1, 1, 1, 0, -1, -1), (1, 1, -1, 0, -1, -1),
    (1, 1, -1, 1, 0, 0), (1, -1, 1, 0, 0, -1), (1, -1, -1, -1, 1, -1),
)

R6_COORDS_P5 = (
    (1, 0, -1, 3, 0, -3), (1, 1, 0, -2, 2, 0), (1, 1, 0, -1, 1, 2),
    (1, 1, 1, 1, 1, 2), (1, 1, 2, -1, 0, -1), (1, 1, -2, 2, -1, 1),
    (1, 1, -1, 0, 3, 3), (1, 2, 0, 1, 3, 1), (1, 2, 1, 0, 2, 2),
    (1, 2, 1, 2, 1, 1), (1, 2, 2, -2, -1, 1), (1, 2, -2, -1, 2, 1),
    (1, -2, 2, 1, -2, 2), (1, 2, -1, 0, 0, 1), (1, -1, -2, 2, -1, 2),
    (0, 0, 1, 1, -2, 0), (0, 0, 1, 3, -1, -3), (0, 1, 1, 1, 1, 0),
)


def r6_coordinate_table(p):
    if p == 3:
        return R6_COORDS_P3
    if p == 5:
        return R6_COORDS_P5
    raise ValueError(f"hypothesis-violation: r=6 coordinate families exist "
                     f"for p in (3, 5), not {p}")


def r6_dickson_coefficient(ctx, beta, family_index, u):
    """Coefficient a = sum coords_j(u) * beta^j over F_{p^6k}, beta a root
    of x^6 + x + 2; h_a is checked to be a degree-7 Dickson polynomial."""
    if u == 0:
        raise ValueError("u-zero")
    k = ctx.n // 6
    if math.gcd(k, 6) != 1:
        raise ValueError("k-not-coprime-6")
    if not ctx.in_subfield(u, k):
        raise ValueError(f"not-in-subfield: {u}")
    coords = r6_coordinate_table(ctx.p)[family_index]
    bp = _beta_powers(ctx, beta, 6)
    a = 0
    for c, b in zip(coords, bp):
        term = ctx.mul(ctx.mul(ctx.scalar(c), u), b)
        a = ctx.add(a, term)
    lv = lambda_coeffs(ctx, a, 6, k)
    if is_dickson_of_degree(ctx, lv, 7, k) is None:
        raise AssertionError(f"h_a is not a Dickson polynomial for family "
                             f"{family_index}, u={u}")
    return a


# ----------------------------------------------------------------------
# r + 1 = p families and the two verification harnesses

def rt_family_coefficients(p, t):
    """(ctx, d, coefficients) for d = t(p^r-1)/(p-1)+1, r = p-1, k = 1:
    the qualifying a are exactly those with a^(p-1) == -1."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"hypothesis-violation: need an odd prime, got {p}")
    d = scaled_tower_exponent(p, t)
    ctx = build_field(p, p - 1)
    return ctx, d, ctx.neg_one_roots(1)


def verify_neg_one_family(p, k):
    """Check that every a with a^(p^k-1) == -1 makes a^(-1) x^d a CPP over
    F_{p^(p-1)k} (d the tower exponent with r = p-1), both through the
    subfield criterion and through the map x(x^2-a^2)^((p-1)/2) on
    F_{p^k}.  Returns a result dict."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"hypothesis-violation: need an odd prime, got {p}")
    r = p - 1
    ctx = build_field(p, r * k)
    d = tower_exponent(p, k, r)
    gcd_ok = math.gcd(d, ctx.q - 1) == 1
    roots = ctx.neg_one_roots(k)
    failures = [a for a in roots if not ha_pp_check(ctx, a, r, k)]
    ref_ok = neg_one_map_permutes(ctx, k, roots)
    ref_failures = [a for a, ok in zip(roots, ref_ok) if not ok]
    passed = gcd_ok and not failures and not ref_failures
    return {"p": p, "k": k, "d": d, "coefficients": len(roots),
            "gcd_ok": gcd_ok, "failures": failures,
            "reformulated_failures": ref_failures, "passed": passed}


def neg_one_map_permutes(ctx, k, coeffs):
    """Whether x(x^2-a^2)^((p-1)/2) permutes F_{p^k}, for each a in coeffs
    (each a^2 must lie in F_{p^k}); all of them in one SubfieldView call."""
    half = (ctx.p - 1) // 2
    view = ctx.subfield_view(k)
    binom = [ctx.scalar(math.comb(half, j)) for j in range(half)]
    rows = []
    for a in coeffs:
        # (x^2 + b)^half = sum_j C(half, j) b^(half-j) x^(2j), b = -a^2;
        # the row runs from x^(p-2) down to x^0
        b = ctx.neg(ctx.mul(a, a))
        row, bpow = [], 1
        for j in range(half - 1, -1, -1):
            bpow = ctx.mul(bpow, b)
            row += [0, view.idx(ctx.mul(binom[j], bpow))]
        rows.append(row)
    return view.permutes(rows).tolist()


def dickson_witness_search(p, r, k, budget=None, verify_cpp=True):
    """Coefficients a over F_{p^rk} whose h_a is a Dickson polynomial of
    degree r+1 (hypotheses: r+1 prime, r+1 != p, gcd(r, k) = 1,
    gcd(r+1, p^2-1) = 1).  Returns a result dict with the witnesses."""
    l = r + 1
    if not is_prime(l) or l == p:
        raise ValueError("hypothesis-violation: r+1 must be a prime != p")
    if math.gcd(r, k) != 1:
        raise ValueError("hypothesis-violation: gcd(r, k) != 1")
    if math.gcd(l, p * p - 1) != 1:
        raise ValueError("hypothesis-violation: gcd(r+1, p^2-1) != 1")
    ctx = build_field(p, r * k)
    d = tower_exponent(p, k, r)
    if ctx.backend != "table" and budget is None:
        raise ValueError("cap-exceeded: full witness enumeration needs an "
                         "enumerable field; pass a budget")
    witnesses = []
    if ctx.backend == "table" and budget is None:
        for a in _dickson_witness_candidates(ctx, r, k):
            lv = lambda_coeffs(ctx, int(a), r, k)
            if is_dickson_of_degree(ctx, lv, l, k) is not None:
                witnesses.append(int(a))
    else:
        count = 0
        for a in range(1, ctx.q):
            if budget is not None and count >= budget:
                break
            count += 1
            lv = lambda_coeffs(ctx, a, r, k)
            if is_dickson_of_degree(ctx, lv, l, k) is not None:
                witnesses.append(a)
    cpp_failures = []
    if verify_cpp and ctx.backend == "table":
        cpp_failures = [a for a in witnesses
                        if not is_cpp_exponent_pair(ctx, d, a)]
    return {"p": p, "r": r, "k": k, "d": d, "witnesses": witnesses,
            "witness_count": len(witnesses), "cpp_failures": cpp_failures,
            "passed": bool(witnesses) and not cpp_failures}


def _dickson_witness_candidates(ctx, r, k):
    """Vectorized sieve for the witness search: coefficients whose shifted
    h_a has the Dickson coefficient pattern.  Exact (the scalar matcher
    re-verifies each survivor)."""
    l = r + 1
    A, lam = bulk.lambda_scan(ctx, r, k)
    M = len(A)
    hs = [np.zeros(M, dtype=np.int64)]
    for j in range(r - 1, -1, -1):
        hs.append(lam[:, j].copy())
    hs.append(np.ones(M, dtype=np.int64))
    inv_l = ctx.inv(ctx.scalar(l))
    shift = bulk.mul_scalar(ctx, inv_l, bulk.neg(ctx, lam[:, 0]))
    for i in range(l + 1):
        for j in range(l - 1, i - 1, -1):
            hs[j] = bulk.add(ctx, hs[j], bulk.mul(ctx, hs[j + 1], shift))
    eta = bulk.mul_scalar(ctx, inv_l, bulk.neg(ctx, hs[l - 2]))
    ok = np.ones(M, dtype=bool)
    neg_eta = bulk.neg(ctx, eta)
    etapow = np.ones(M, dtype=np.int64)
    nonzero_pos = {l}
    for j in range(1, l // 2 + 1):
        num = l * math.comb(l - j, j)
        c = ctx.scalar(num // (l - j))
        etapow = bulk.mul(ctx, etapow, neg_eta)
        ok &= hs[l - 2 * j] == bulk.mul_scalar(ctx, c, etapow)
        nonzero_pos.add(l - 2 * j)
    for pos in range(1, l):
        if pos not in nonzero_pos:
            ok &= hs[pos] == 0
    return A[ok]


# ----------------------------------------------------------------------
# the multinomial family

def _scaled_base_permutes(ctx, gc, ws, k):
    """Whether x g(x) + w x permutes F_{p^k}, for each w in ws.

    x g(x) + w x = x (g(x) + w), and dividing g + w by its leading
    coefficient keeps bijectivity, so each w is one SubfieldView row; a
    constant g + w permutes iff it is nonzero."""
    cs = list(gc) or [0]
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    if len(cs) == 1:
        return [ctx.add(cs[0], w) != 0 for w in ws]
    view = ctx.subfield_view(k)
    inv_lead = ctx.inv(cs[-1])
    top = [view.idx(ctx.mul(c, inv_lead)) for c in reversed(cs[1:-1])]
    rows = [top + [view.idx(ctx.mul(ctx.add(cs[0], w), inv_lead))] for w in ws]
    return view.permutes(rows).tolist()


def multinomial_map(ctx, g, v, a, k) -> FieldMap:
    """f(x) = x((a/v) g(T) + T^(p-1)) + (p-1) x^p + a x with T = Tr onto
    F_{p^k}; a CPP over F_{p^n} when gcd(p-1, r) = gcd(r, p) = 1 (r = n/k),
    a avoids {0, -1}, and x g(x) + w x permutes F_{p^k} both for w = v and
    for w = v(a+1)/a.

    The second scaling is what f(x) + x reduces to: it is the same family
    member at (a+1, v(a+1)/a).  Requiring only w = v admits maps whose
    f + x is not a bijection, so both are checked here.
    """
    p = ctx.p
    if ctx.n % k:
        raise ValueError(f"k-not-divisor: {k} does not divide {ctx.n}")
    r = ctx.n // k
    if math.gcd(p - 1, r) != 1 or math.gcd(r, p) != 1:
        raise ValueError("gcd-violation: need gcd(p-1, r) = gcd(r, p) = 1")
    if v == 0:
        raise ValueError("v-zero")
    if not ctx.in_subfield(v, k):
        raise ValueError(f"not-in-subfield: v={v}")
    if isinstance(g, SubfieldPoly):
        if g.k != k:
            raise ValueError("g-not-subfield: declared for a different subfield")
        gc = g.coeffs
    else:
        gc = tuple(g)
    for c in gc:
        if not ctx.in_subfield(c, k):
            raise ValueError(f"g-not-subfield: coefficient {c}")
    if a == 0 or a == ctx.neg(1) or not ctx.in_subfield(a, k):
        raise ValueError(f"a-excluded: a must lie in F_{{p^{k}}} minus {{0, -1}}")
    rescaled = ctx.mul(v, ctx.mul(ctx.add(a, 1), ctx.inv(a)))
    base_ok, rescaled_ok = _scaled_base_permutes(ctx, gc, [v, rescaled], k)
    if not base_ok:
        raise ValueError("g-not-subfield-pp: x g(x) + v x does not permute "
                         f"F_{{p^{k}}}")
    if not rescaled_ok:
        raise ValueError("a-excluded: x g(x) + v(a+1)/a x does not permute "
                         f"F_{{p^{k}}}, so f + x would not be a bijection")
    av = ctx.mul(a, ctx.inv(v))
    pm1 = ctx.scalar(p - 1)

    def fn(x):
        t = ctx.trace(x, k)
        inner = ctx.add(ctx.mul(av, ctx.poly_eval(gc, t)), ctx.pow(t, p - 1))
        return ctx.add(ctx.add(ctx.mul(x, inner),
                               ctx.mul(pm1, ctx.pow(x, p))),
                       ctx.mul(a, x))

    values = None
    if ctx.backend == "table":
        def values():
            X = bulk.elements(ctx)
            T = bulk.trace(ctx, X, k)
            gT = np.zeros_like(X)
            for c in reversed(gc):
                gT = bulk.mul(ctx, gT, T)
                if c:
                    gT = bulk.add(ctx, gT, np.full_like(X, c))
            inner = bulk.add(ctx, bulk.mul_scalar(ctx, av, gT),
                             bulk.pow_const(ctx, T, p - 1))
            out = bulk.mul(ctx, X, inner)
            out = bulk.add(ctx, out, bulk.mul_scalar(ctx, pm1,
                                                     bulk.frobenius(ctx, X, 1)))
            return bulk.add(ctx, out, bulk.mul_scalar(ctx, a, X))

    fmap = FieldMap(ctx, fn, values, name=f"multinomial(a={a},v={v})")
    _assert_trace_identity(ctx, fmap, gc, v, a, k)
    return fmap


def _assert_trace_identity(ctx, fmap, gc, v, a, k):
    # Tr(f(x)) must equal (a/v)(T g(T) + v T) with T = Tr(x), sampled
    av = ctx.mul(a, ctx.inv(v))
    step = max(1, ctx.q // 64) if ctx.backend == "table" else 1
    samples = range(0, min(ctx.q, 64 * step), step) if ctx.backend == "table" \
        else list(ctx.subfield_elements(k))[:32]
    for x in samples:
        t = ctx.trace(x, k)
        lhs = ctx.trace(fmap.fn(x), k)
        rhs = ctx.mul(av, ctx.add(ctx.mul(t, ctx.poly_eval(gc, t)),
                                  ctx.mul(v, t)))
        if lhs != rhs:
            raise AssertionError("trace identity fails at sample point")


def multinomial_presets(ctx, k):
    """The three stock g choices: zero, a monomial x^(d-1) for a CPP
    exponent d of the subfield, and the quartic whose induced quintic is a
    Dickson shape (2 c0^2 = c1 + v).  Returns {name: (SubfieldPoly, v)}."""
    p = ctx.p
    sub = ctx.subfield_elements(k)
    nonzero = [e for e in sub if e != 0]
    out = {"zero": (SubfieldPoly(k, (0,)), 1)}

    # the first x^d + v x with some admissible a; failing that, the first
    # bare permutation (usable maps may still be empty for very small
    # subfields)
    found = fallback = None
    for d in range(2, 4 * p ** k + 3):
        if math.gcd(d, p ** k - 1) != 1:
            continue
        gc = tuple([0] * (d - 1) + [1])
        for v, ok in zip(nonzero, _scaled_base_permutes(ctx, gc, nonzero, k)):
            if ok:
                fallback = fallback or (gc, v)
                if multinomial_admissible_a(ctx, k, gc, v):
                    found = (gc, v)
                    break
        if found:
            break
    found = found or fallback
    if found is None:
        raise RuntimeError("no monomial preset found")
    gc, v = found
    out["monomial"] = (SubfieldPoly(k, gc), v)

    found = fallback = None
    for c0 in nonzero + [0]:
        c0sq2 = ctx.mul(ctx.scalar(2), ctx.mul(c0, c0))
        v = 1
        c1 = ctx.sub(c0sq2, v)
        gc = (c1, 0, c0, 0, 1)
        # x g(x) + v x = x^5 + c0 x^3 + 2 c0^2 x
        if _scaled_base_permutes(ctx, gc, [v], k)[0]:
            if fallback is None:
                fallback = (SubfieldPoly(k, gc), v)
            if multinomial_admissible_a(ctx, k, gc, v):
                found = (SubfieldPoly(k, gc), v)
                break
    found = found or fallback
    if found is None:
        raise RuntimeError("no quartic preset found")
    out["dickson-quartic"] = found
    return out


def multinomial_admissible_a(ctx, k, g=None, v=None):
    """Subfield coefficients allowed in the multinomial family: everything
    outside {0, -1}; with (g, v) given, also only those a for which the
    rescaled base x g(x) + v(a+1)/a x still permutes (the f + x side)."""
    excl = {0, ctx.neg(1)}
    out = [a for a in ctx.subfield_elements(k) if a not in excl]
    if g is None:
        return out
    gc = g.coeffs if isinstance(g, SubfieldPoly) else tuple(g)
    ws = [ctx.mul(v, ctx.mul(ctx.add(a, 1), ctx.inv(a))) for a in out]
    keep = _scaled_base_permutes(ctx, gc, ws, k)
    return [a for a, ok in zip(out, keep) if ok]
