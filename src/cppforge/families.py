"""CPP coefficient families: exponent formulas, membership predicates and
the r = 4 equality check, the count-cpp driver, explicit generators, the
two open-verification harnesses, and FAMILIES, the table `verify` runs.

The r = 4 predicates for p != 5 test only the normalized quintic
x^5 + A3 x^3 + A2 x^2 + A1 x of hadickson.depressed_quintic: each
condition is one entry of Dickson's table of permutation quintics.

Each family pins down coefficients a (or maps f) that make a^(-1) x^d (or
f) a complete permutation; every generator or predicate here is backed by
the direct CPP oracle in the test and acceptance suites.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import bulk, scan
from .field import (CapExceeded, HypothesisViolation, InternalError,
                    build_field, is_prime)
from .hadickson import (depressed_quintic, h_a_coeffs, ha_pp_check,
                        is_dickson_of_degree, lambda_coeffs, taylor_shift)
from .oracle import is_cpp


# ----------------------------------------------------------------------
# exponent formulas

def niho_exponent(p, k, i) -> int:
    """d = (p^k - 1)(p^i - 1)/2 + p^i, coprime to p^2k - 1 for odd p."""
    if p == 2:
        raise ValueError("even-characteristic: needs odd p")
    if not 1 <= i <= 2 * k:
        raise HypothesisViolation(
            f"hypothesis-violation: need 1 <= i <= 2k, got i={i}")
    d = (p ** k - 1) * (p ** i - 1) // 2 + p ** i
    if math.gcd(d, p ** (2 * k) - 1) != 1:
        raise InternalError(f"niho exponent {d} is not coprime to p^2k - 1 "
                            f"for p={p}, k={k}, i={i}")
    return d


def tower_exponent(p, k, r) -> int:
    """d = (p^(rk) - 1)/(p^k - 1) + 1 under gcd(r+1, p^k - 1) == 1."""
    if k < 1 or r < 1:
        raise HypothesisViolation(f"hypothesis-violation: need k >= 1 and "
                                  f"r >= 1, got k={k}, r={r}")
    if math.gcd(r + 1, p ** k - 1) != 1:
        raise HypothesisViolation(f"gcd-violation: gcd(r+1, p^k-1) = "
                                  f"{math.gcd(r + 1, p ** k - 1)} != 1")
    return (p ** (r * k) - 1) // (p ** k - 1) + 1


def scaled_tower_exponent(p, t) -> int:
    """d = t (p^r - 1)/(p - 1) + 1 with r = p - 1, under gcd(rt+1, p-1) == 1."""
    if t < 1:
        raise HypothesisViolation(
            f"hypothesis-violation: need t >= 1, got t={t}")
    r = p - 1
    if math.gcd(r * t + 1, p - 1) != 1:
        raise HypothesisViolation(
            f"gcd-violation: gcd(rt+1, p-1) != 1 for t={t}")
    return t * (p ** r - 1) // (p - 1) + 1


# ----------------------------------------------------------------------
# r = 4: quintic-classification conditions

def r4_condition(ctx, a, k):
    """First matching membership condition for the exponent
    (p^(4k)-1)/(p^k-1)+1 over F_{p^4k}, p not in {2, 5}, as its label
    "r4_general:<condition>"; None when a = 0 or nothing matches."""
    p = ctx.p
    if p in (2, 5):
        raise ValueError(f"char-excluded: p={p}")
    if ctx.n != 4 * k:
        raise ValueError(f"degree-mismatch: need n == 4k, got n={ctx.n}")
    if math.gcd(5, p ** k - 1) != 1:
        raise HypothesisViolation("hypothesis-violation: gcd(5, p^k-1) != 1")
    if a == 0:
        return None
    condition = _quintic_condition(
        ctx, k, *depressed_quintic(ctx, lambda_coeffs(ctx, a, 4, k)))
    return None if condition is None else f"r4_general:{condition}"


def _quintic_condition(ctx, k, a3, a2, a1):
    """The first of the general conditions 1)-8) that h_a meets, as its
    number "1".."8", else None.  Each condition is one normalized quintic
    x^5 + A3 x^3 + A2 x^2 + A1 x of Dickson's table, tested on the
    (A3, A2, A1) of h_a over F_{p^k}."""
    p = ctx.p
    a3_2 = ctx.mul(a3, a3)
    if a3 == 0 and a1 == 0 and a2 == 0:
        return "1"
    if (p ** k) % 5 in (2, 3) and a2 == 0 \
            and ctx.mul(ctx.inv(ctx.scalar(5)), a3_2) == a1:
        return "2"
    if p == 3 and k == 2 and a3 == 0 and a2 == 0 \
            and ctx.mul(a1, a1) == ctx.neg(1):
        return "3"
    if p == 3 and k == 1:
        if (a3, a2, a1) == (1, 0, 0):
            return "4"
        if (a3, a2, a1) == (2, 0, 1):
            return "5"
    if p == 7 and k == 1:
        if a3 == 0 and a1 == 0 and a2 in (2, 5):
            return "6"
        if a3 in (3, 5, 6) and a1 == ctx.mul(3, a3_2) and a2 in (1, 6):
            return "7"
    if p == 13 and k == 1 and a3 in (2, 5, 6, 7, 8, 11) \
            and a1 == ctx.mul(3, a3_2) and a2 == 0:
        return "8"
    return None


def r4_condition_p3(ctx, a, k):
    """p = 3 variant: the two closed-form conditions, else the inherited
    small-field conditions 3)-5), all on one normalized quintic; the label
    "r4_p3:<condition>" or None."""
    if ctx.p != 3:
        raise ValueError(f"wrong-characteristic: p={ctx.p}")
    if ctx.n != 4 * k:
        raise ValueError(f"degree-mismatch: need n == 4k, got n={ctx.n}")
    if math.gcd(5, 3 ** k - 1) != 1:
        raise HypothesisViolation("hypothesis-violation: gcd(5, 3^k-1) != 1")
    if a == 0:
        return None
    a3, a2, a1 = depressed_quintic(ctx, lambda_coeffs(ctx, a, 4, k))
    if k % 4 == 2 and a3 == 0 and a2 == 0 and a1 == 0:
        return "r4_p3:1"
    if k % 2 == 1 and a2 == 0 and a1 == ctx.neg(ctx.mul(a3, a3)):
        return "r4_p3:2"
    inherited = _quintic_condition(ctx, k, a3, a2, a1)
    return f"r4_p3:{inherited}" if inherited in ("3", "4", "5") else None


def r4_condition_p5(ctx, a, k):
    """p = 5 membership conditions, as the label "r4_p5:<condition>"; None
    when a = 0 or nothing matches.  p = 5 cannot remove the x^4 term, so
    these stay in the lambda_i; with lambda_1 = 0 and lambda_2 != 0 the
    shift x -> x - lambda_3/(3 lambda_2) removes the x^2 term instead."""
    if ctx.p != 5:
        raise ValueError(f"wrong-characteristic: p={ctx.p}")
    if ctx.n != 4 * k:
        raise ValueError(f"degree-mismatch: need n == 4k, got n={ctx.n}")
    if a == 0:
        return None
    lam = lambda_coeffs(ctx, a, 4, k)
    l1, l2, l3, l4 = lam
    if l1 == 0 and l2 == 0 and l3 == 0:
        if not ctx.residue_test(ctx.neg(l4), k, "fourth"):
            return "r4_p5:1"
    if l1 == 0 and l2 != 0:
        shift = ctx.neg(ctx.mul(l3, ctx.inv(ctx.mul(3, l2))))
        shifted = taylor_shift(ctx, h_a_coeffs(lam), shift)[1]
        if ctx.neg(ctx.mul(l2, l2)) == shifted \
                and not ctx.residue_test(ctx.mul(2, l2), k, "square"):
            return "r4_p5:2"
        if k == 1 and l2 in (2, 3) and shifted == ctx.scalar(4):
            return "r4_p5:3"
    return None


def r4_tagger(ctx, k):
    """The r = 4 membership tagger a -> label or None: the p = 5
    conditions when p = 5, the quintic-classification ones otherwise."""
    condition = r4_condition_p5 if ctx.p == 5 else r4_condition
    return lambda a: condition(ctx, a, k)


def r4_equality_check(ctx, k, tagger):
    """Cross-check that an r = 4 membership tagger (a -> label or None)
    tags exactly the CPP coefficients of F_{p^4k}.

    Membership and every condition's tag are constant on the classes of
    F_q^*/F_{p^k}^* (cyclic of order e = (q-1)/(p^k-1), a = g^j in class
    j mod e) and on their Frobenius orbits j -> pj mod e, since
    f_a(cx) = c N(c) f_{a/N(c)}(x), f_a(x)^p = f_{a^p}(x^p) and each
    condition is weighted-homogeneous in the lambda_i.  So one g^j per
    orbit, j least in its coset, is tagged, and every coefficient of a
    tagged orbit counts as tagged.

    Returns (cpp_list, tagged_count, untagged): the members whose orbit
    is untagged.  The tagger is sound and complete when untagged is empty
    and tagged_count == len(cpp_list).
    """
    cpps = scan.ha_cpp_scan(ctx, 4, k)
    tagged = set(scan.orbit_members(
        ctx, tower_exponent(ctx.p, k, 4),
        lambda reps: [tagger(a) is not None for a in reps]))
    return cpps, len(tagged), [a for a in cpps if a not in tagged]


# ----------------------------------------------------------------------
# the count-cpp driver

class MethodMismatch(RuntimeError):
    """The direct and subfield-criterion scans disagree on a coefficient:
    one of them is wrong on this field (the CLI's exit code 1)."""


def count_cpp(p, k, r, method="ha", jobs=1, progress=None):
    """Coefficient count and list for d = (p^(rk)-1)/(p^k-1)+1.

    method "direct", "ha", or "both"; with "both" the two lists must agree
    element for element or a MethodMismatch names the first mismatch.
    Returns a dict feeding the structured report; for r = 4, "labels"
    maps each coefficient to its condition label ("" when untagged).
    """
    d = tower_exponent(p, k, r)
    ctx = build_field(p, r * k)
    t0 = time.monotonic()
    elems_direct = elems_ha = None
    if method in ("direct", "both"):
        elems_direct = scan.direct_cpp_scan(ctx, d, jobs=jobs, progress=progress)
    if method in ("ha", "both"):
        elems_ha = scan.ha_cpp_scan(ctx, r, k)
    if method == "both":
        if elems_direct != elems_ha:
            sd, sh = set(elems_direct), set(elems_ha)
            diff = sorted(sd.symmetric_difference(sh))
            raise MethodMismatch(
                f"method-mismatch: first disagreeing coefficient {diff[0]} "
                f"(direct={diff[0] in sd}, ha={diff[0] in sh})")
    elems = elems_direct if elems_direct is not None else elems_ha
    labels = {}
    if r == 4 and p != 2:
        # labels are constant on the orbits of r4_equality_check: tag the
        # representative g^j of each member orbit
        tagger = r4_tagger(ctx, k)

        def tag_labels(reps):
            return [tagger(a) or "" for a in reps]

        labels = dict(zip(elems,
                          scan.orbit_values(ctx, d, elems, tag_labels).tolist()))
    conditions = {}
    for label in labels.values():
        label = label or "untagged"
        conditions[label] = conditions.get(label, 0) + 1
    return {
        "ctx": ctx,
        "d": d,
        "method": method,
        "count": len(elems),
        "elements": elems,
        "conditions": conditions,
        "labels": labels,
        "seconds": time.monotonic() - t0,
    }


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
    beta = bulk.find_root(ctx, tuple(c % p for c in poly))
    return ctx, beta


# the four coordinate patterns of beta_quartic_all: coordinate j of a
# coefficient is c_u u + c_v v for the pair (c_u, c_v) at place j
QUARTIC_BETA_PATTERNS = (
    ((1, 0), (0, 1), (-1, 0), (-1, 1)),     # (u, v, -u, v - u)
    ((1, 0), (0, 1), (-1, -1), (0, -1)),    # (u, v, -(u + v), -v)
    ((1, 0), (1, 0), (0, 1), (0, -1)),      # (u, u, v, -v)
    ((1, 0), (0, 1), (0, 1), (1, 0)),       # (u, v, v, u)
)

# the two identities in the coordinates (u0, u1, u2, u3) that
# characterize membership, as (coefficient, exponents) terms over F_3
QUARTIC_BETA_IDENTITIES = (
    ((1, (0, 3, 0, 0)), (1, (0, 0, 2, 1)), (1, (0, 0, 1, 2)),
     (1, (0, 2, 1, 0)), (1, (0, 0, 3, 0)), (1, (0, 1, 0, 2)),
     (2, (1, 0, 2, 0)), (1, (0, 0, 0, 3)), (2, (3, 0, 0, 0)),
     (1, (1, 1, 0, 1))),
    ((1, (4, 0, 0, 0)), (2, (0, 4, 0, 0)), (2, (0, 0, 0, 4)),
     (2, (0, 0, 4, 0)), (2, (0, 1, 0, 3)), (1, (0, 0, 1, 3)),
     (2, (0, 1, 3, 0))),
)


def beta_quartic_all(ctx, beta):
    """Every coefficient a = sum_j u_j beta^j over F_{3^4k} (beta a root of
    x^4 - x - 1) that the four coordinate patterns give over all (u, v) in
    F_{3^k}^2 but (0, 0), distinct and sorted.  Each pattern is built on
    the whole (u, v) grid at once, and both membership identities are
    checked on its coordinate arrays."""
    k = ctx.n // 4
    if math.gcd(k, 4) != 1:
        raise ValueError("k-not-coprime-4")
    sub = np.asarray(ctx.subfield_elements(k), dtype=np.int64)
    U, V = (w.ravel()[1:] for w in np.meshgrid(sub, sub, indexing="ij"))
    # coordinate j of every pattern, the patterns one after the other
    coords = [np.concatenate([
        bulk.add(ctx, bulk.mul_scalar(ctx, ctx.scalar(cu), U),
                 bulk.mul_scalar(ctx, ctx.scalar(cv), V)) for cu, cv in place])
        for place in zip(*QUARTIC_BETA_PATTERNS)]
    for terms in QUARTIC_BETA_IDENTITIES:
        bad = np.flatnonzero(_coordinate_poly(ctx, terms, coords))
        if bad.size:
            raise InternalError(
                "generated coefficient violates the membership identities: "
                f"{tuple(int(c[bad[0]]) for c in coords)}")
    a = coords[3]
    for c in reversed(coords[:3]):
        a = bulk.add(ctx, bulk.mul_scalar(ctx, beta, a), c)
    return np.unique(a).tolist()


def _coordinate_poly(ctx, terms, coords):
    """sum c * prod_j coords[j]^e_j over (c, (e_j)) in terms, element-wise."""
    acc = np.zeros_like(coords[0])
    for c, exps in terms:
        t = np.full_like(acc, c)
        for x, e in zip(coords, exps):
            if e:
                t = bulk.mul(ctx, t, bulk.pow_const(ctx, x, e))
        acc = bulk.add(ctx, acc, t)
    return acc


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
    raise HypothesisViolation(f"hypothesis-violation: r=6 coordinate families "
                              f"exist for p in (3, 5), not {p}")


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
    a = ctx.mul(u, ctx.poly_eval([ctx.scalar(c) for c in coords], beta))
    if is_dickson_of_degree(ctx, lambda_coeffs(ctx, a, 6, k), k) is None:
        raise InternalError(f"h_a is not a Dickson polynomial for family "
                            f"{family_index}, u={u}")
    return a


# ----------------------------------------------------------------------
# r + 1 = p families and the two verification harnesses

def rt_family_coefficients(p, t):
    """(ctx, d, coefficients) for d = t(p^r-1)/(p-1)+1, r = p-1, k = 1:
    the qualifying a are exactly those with a^(p-1) == -1."""
    if p == 2 or not is_prime(p):
        raise HypothesisViolation(
            f"hypothesis-violation: need an odd prime, got {p}")
    d = scaled_tower_exponent(p, t)
    ctx = build_field(p, p - 1)
    return ctx, d, ctx.neg_one_roots(1)


def verify_neg_one_family(p, k):
    """Check that every a with a^(p^k-1) == -1 makes a^(-1) x^d a CPP over
    F_{p^(p-1)k} (d the tower exponent with r = p-1), both through the
    subfield criterion and through the map x(x^2-a^2)^((p-1)/2) on
    F_{p^k}.  Returns a result dict.

    These a form V = y F_{p^k}^*, y of order 2(p^k-1), which divides q-1
    as r = p-1 is even.  Both checks are constant on V: h_(ta)(x) =
    t^(r+1) h_a(x/t) for t in F_{p^k}^*, and the map for ta is t^p times
    the map for a at x/t.  So y alone is checked, and a failure fails
    all of V.
    """
    if p == 2 or not is_prime(p):
        raise HypothesisViolation(
            f"hypothesis-violation: need an odd prime, got {p}")
    r = p - 1
    ctx = build_field(p, r * k)
    d = tower_exponent(p, k, r)
    gcd_ok = math.gcd(d, ctx.q - 1) == 1
    m = p ** k - 1
    y = ctx.subgroup_generator(2 * m)
    ok = ha_pp_check(ctx, y, r, k)
    (ref_ok,) = neg_one_map_permutes(ctx, k, [y])
    failures = [] if ok else list(ctx.neg_one_roots(k))
    ref_failures = [] if ref_ok else list(ctx.neg_one_roots(k))
    passed = gcd_ok and ok and ref_ok
    return {"p": p, "k": k, "d": d, "coefficients": m,
            "gcd_ok": gcd_ok, "failures": failures,
            "reformulated_failures": ref_failures, "passed": passed}


def neg_one_map_permutes(ctx, k, coeffs):
    """Whether x(x^2-a^2)^((p-1)/2) permutes F_{p^k}, for each a in coeffs
    (each a^2 must lie in F_{p^k}); all of them in one SubfieldView call."""
    half = (ctx.p - 1) // 2
    binom = [ctx.scalar(math.comb(half, j)) for j in range(half)]
    rows = []
    for a in coeffs:
        # (x^2 + b)^half = sum_j C(half, j) b^(half-j) x^(2j), b = -a^2;
        # the row runs from x^(p-2) down to x^0
        b = ctx.neg(ctx.mul(a, a))
        row, bpow = [], 1
        for j in range(half - 1, -1, -1):
            bpow = ctx.mul(bpow, b)
            row += [0, ctx.mul(binom[j], bpow)]
        rows.append(row)
    return ctx.subfield_view(k).permutes(rows).tolist()


def dickson_hypotheses(p, r, k) -> int:
    """The tower exponent d of the Dickson witness search, after its
    hypotheses: r+1 prime, r+1 != p, gcd(r, k) = 1, gcd(r+1, p^2-1) = 1."""
    l = r + 1
    if not is_prime(l) or l == p:
        raise HypothesisViolation(
            "hypothesis-violation: r+1 must be a prime != p")
    if math.gcd(r, k) != 1:
        raise HypothesisViolation("hypothesis-violation: gcd(r, k) != 1")
    if math.gcd(l, p * p - 1) != 1:
        raise HypothesisViolation(
            "hypothesis-violation: gcd(r+1, p^2-1) != 1")
    return tower_exponent(p, k, r)


def dickson_witness_search(p, r, k, budget=None):
    """Coefficients a <= budget (all a without one) over F_{p^rk} whose h_a
    is a Dickson polynomial of degree r+1 (under dickson_hypotheses).
    Returns a result dict with the witnesses.

    On a table field one a = g^j per orbit class of scan.orbit_values
    (here d - 1 = (q-1)/(p^k-1)) is matched: for t in F_{p^k}^*,
    h_(ta)(x) = t^(r+1) h_a(x/t) and t^l D_l(x/t + c, eta) =
    D_l(x + tc, t^2 eta), and Frobenius maps D_l(x, eta) to
    D_l(x, eta^p), so the match is constant on those orbits.  The lambda
    rows of all representatives come from one bulk.lambda_scan.
    """
    d = dickson_hypotheses(p, r, k)
    ctx = build_field(p, r * k)
    if ctx.backend == "table":
        def decide(reps):
            lam = bulk.lambda_scan(ctx, r, k, reps)
            ctx.subfield_view(k).logs(lam)     # the lambda invariant
            return [is_dickson_of_degree(ctx, tuple(row), k) is not None
                    for row in lam.tolist()]
        witnesses = scan.orbit_members(ctx, d, decide, budget)
        cpp_failures = _oracle_checked(ctx, d, witnesses)["failures"]
    elif budget is None:
        raise CapExceeded("cap-exceeded: full witness enumeration needs an "
                          "enumerable field; pass a budget")
    else:
        # no orbit classes without the log tables: each a is matched, and
        # each witness re-checked as in verify_neg_one_family, on its own
        witnesses = [a for a in range(1, min(budget, ctx.q - 1) + 1)
                     if is_dickson_of_degree(
                         ctx, lambda_coeffs(ctx, a, r, k), k) is not None]
        gcd_ok = math.gcd(d, ctx.q - 1) == 1
        cpp_failures = [a for a in witnesses
                        if not (gcd_ok and ha_pp_check(ctx, a, r, k))]
    return {"p": p, "r": r, "k": k, "d": d, "witnesses": witnesses,
            "witness_count": len(witnesses), "cpp_failures": cpp_failures,
            "passed": bool(witnesses) and not cpp_failures}


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
    inv_lead = ctx.inv(cs[-1])
    top = [ctx.mul(c, inv_lead) for c in reversed(cs[1:-1])]
    rows = [top + [ctx.mul(ctx.add(cs[0], w), inv_lead)] for w in ws]
    return ctx.subfield_view(k).permutes(rows).tolist()


def _multinomial_hypotheses(ctx, k):
    """The field's hypotheses for the multinomial family: k divides n and
    gcd(p-1, r) = gcd(r, p) = 1 for r = n/k."""
    if ctx.n % k:
        raise ValueError(f"k-not-divisor: {k} does not divide {ctx.n}")
    r = ctx.n // k
    if math.gcd(ctx.p - 1, r) != 1 or math.gcd(r, ctx.p) != 1:
        raise HypothesisViolation(
            "gcd-violation: need gcd(p-1, r) = gcd(r, p) = 1")


def multinomial_map(ctx, g, v, a, k, grid=None):
    """The value table of f(x) = x((a/v) g(T) + T^(p-1)) + (p-1) x^p + a x
    with T = Tr onto F_{p^k}, on grid = _multinomial_grid(ctx, k) (built
    here when not given); a CPP over F_{p^n} when gcd(p-1, r) =
    gcd(r, p) = 1 (r = n/k), a avoids {0, -1}, and x g(x) + w x permutes
    F_{p^k} both for w = v and for w = v(a+1)/a.

    The second scaling is what f(x) + x reduces to: it is the same family
    member at (a+1, v(a+1)/a).  Requiring only w = v admits maps whose
    f + x is not a bijection, so both are checked here.

    The table is f(x) = x u(T) + (p-1) x^p with u(t) = (a/v) g(t) +
    t^(p-1) + a tabulated on the p^k points of F_{p^k} and gathered at
    T's position.  Tr(f(x)) = (a/v)(T g(T) + v T) is checked at every
    point, with the right side tabulated on the subfield as well.
    """
    _multinomial_hypotheses(ctx, k)
    if v == 0:
        raise ValueError("v-zero")
    if not ctx.in_subfield(v, k):
        raise ValueError(f"not-in-subfield: v={v}")
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
    S, X, pos, px = _multinomial_grid(ctx, k) if grid is None else grid
    av = ctx.mul(a, ctx.inv(v))
    gS = bulk.poly_eval(ctx, gc, S)
    u = bulk.add(ctx, bulk.mul_scalar(ctx, av, gS),
                 bulk.pow_const(ctx, S, ctx.p - 1))
    u = bulk.add(ctx, u, np.full_like(S, a))
    vals = bulk.add(ctx, bulk.mul(ctx, X, u[pos]), px)
    # pos is Tr as positions in S, so S[pos[vals]] is Tr(f(x))
    rhs = bulk.mul_scalar(ctx, av, bulk.add(ctx, bulk.mul(ctx, S, gS),
                                            bulk.mul_scalar(ctx, v, S)))
    if not np.array_equal(S[pos[vals]], rhs[pos]):
        raise InternalError("trace identity Tr(f(x)) = (a/v)(T g(T) + v T) "
                            "fails")
    return vals


def _multinomial_grid(ctx, k):
    """The arrays every multinomial value table over F_{p^n} with subfield
    F_{p^k} shares: the subfield points S (mu_subgroup's powers zeta^i,
    then 0), the elements X, the position of T = Tr(X) onto F_{p^k} in S
    (its checked SubfieldView log), and (p-1) X^p."""
    X = bulk.elements(ctx)          # a generic field refuses here
    Q = ctx.p ** k
    S = np.append(ctx.mu_subgroup(Q - 1), 0)
    T = bulk.trace(ctx, X, k)
    pos = np.where(T == 0, Q - 1, ctx.subfield_view(k).logs(T))
    del T                           # before px's q-length temporaries
    px = bulk.mul_scalar(ctx, ctx.scalar(ctx.p - 1), bulk.pow_const(ctx, X, ctx.p))
    return S, X, pos, px


# the names of multinomial_presets, in its order (`verify --preset`)
MULTINOMIAL_PRESETS = ("zero", "monomial", "dickson-quartic")


def multinomial_presets(ctx, k, only=None):
    """The stock g choices that have a member on F_{p^k} (only the one
    named, when given): zero, a monomial x^(d-1) for a CPP exponent d of
    the subfield, and the quartic whose induced quintic is a Dickson shape
    (2 c0^2 = c1 + v).  A preset is the first of its candidates (g, v)
    whose base x g(x) + v x permutes F_{p^k} and that admits some a; with
    none, it is left out.  Returns {name: (coeffs ascending, v, admissible
    a)}."""
    Q, two = ctx.p ** k, ctx.scalar(2)
    nonzero = [e for e in ctx.subfield_elements(k) if e != 0]
    candidates = dict(zip(MULTINOMIAL_PRESETS, (
        [((0,), [1])],                                  # zero
        ((tuple([0] * (d - 1) + [1]), nonzero)
         for d in range(2, 4 * Q + 3) if math.gcd(d, Q - 1) == 1),  # monomial
        # dickson-quartic: v = 1 and x g(x) + v x = x^5 + c0 x^3 + 2 c0^2 x
        (((ctx.sub(ctx.mul(two, ctx.mul(c0, c0)), 1), 0, c0, 0, 1), [1])
         for c0 in nonzero + [0]))))
    firsts = {name: next(_members(ctx, k, candidates[name]), None)
              for name in ([only] if only else candidates)}
    return {name: first for name, first in firsts.items() if first}


def _members(ctx, k, candidates):
    """(g, v, admissible a) for each (g, v), over the (g, vs) of
    candidates, for which x g(x) + v x permutes F_{p^k} and some a is
    admissible."""
    for gc, vs in candidates:
        for v, ok in zip(vs, _scaled_base_permutes(ctx, gc, vs, k)):
            admissible = multinomial_admissible_a(ctx, k, gc, v) if ok else []
            if admissible:
                yield gc, v, admissible


def multinomial_admissible_a(ctx, k, g, v):
    """Subfield coefficients allowed in the multinomial family with (g, v):
    those outside {0, -1} for which the rescaled base x g(x) + v(a+1)/a x
    still permutes (the f + x side)."""
    excl = {0, ctx.neg(1)}
    out = [a for a in ctx.subfield_elements(k) if a not in excl]
    ws = [ctx.mul(v, ctx.mul(ctx.add(a, 1), ctx.inv(a))) for a in out]
    keep = _scaled_base_permutes(ctx, tuple(g), ws, k)
    return [a for a, ok in zip(out, keep) if ok]


# ----------------------------------------------------------------------
# the family table behind `verify`

def _cpp_verdicts(ctx, d, coeffs):
    """is_cpp_exponent_pair(ctx, d, a) for each a in coeffs, with one
    oracle call per orbit class of scan.orbit_values that coeffs touch:
    bijectivity of x^d + ax is constant on them (scan.direct_cpp_scan)."""
    return scan.orbit_values(
        ctx, d, coeffs, lambda reps: scan.oracle_verdicts(ctx, d, reps)).tolist()


def _oracle_checked(ctx, d, coeffs, cases=None):
    """Every coefficient of a family's list through the direct CPP oracle;
    a failure is reported as its coefficient, or as its case if given."""
    cpp = _cpp_verdicts(ctx, d, coeffs)
    return {"d": d, "tested": len(coeffs),
            "failures": [a for a, ok in zip(cases or coeffs, cpp) if not ok]}


def _niho(p, k, i):
    d = niho_exponent(p, k, i)
    ctx = build_field(p, 2 * k, backend="table")   # lists need the log tables
    return _oracle_checked(ctx, d, ctx.neg_one_roots(k))


def _r4_scan(p, k, condition=None):
    # the conditions must tag exactly the subfield criterion's coefficients;
    # failures are the untagged members, plus the tagged count if it differs.
    # Without a condition, the tagger whose labels count_cpp reports.
    # The hypothesis before the field: F_{p^4k} may be past the table cap
    d = tower_exponent(p, k, 4)
    ctx = build_field(p, 4 * k)
    tagger = (r4_tagger(ctx, k) if condition is None
              else lambda a: condition(ctx, a, k))
    cpps, tagged, failures = r4_equality_check(ctx, k, tagger)
    if tagged != len(cpps):
        failures.append(("tagged-count", tagged))
    return {"d": d, "tested": ctx.q - 1,
            "count": len(cpps), "failures": failures}


def _r4_p3_beta(k):
    # the hypotheses before the field: k = 4 would need F_3^16, past the
    # root search's table cap
    d = tower_exponent(3, k, 4)
    if math.gcd(k, 4) != 1:
        raise ValueError("k-not-coprime-4")
    ctx, beta = field_with_root(3, 4 * k, QUARTIC_BETA_POLY)
    return _oracle_checked(ctx, d, beta_quartic_all(ctx, beta))


def _r4_p5_vset(k):
    d = tower_exponent(5, k, 4)
    ctx = build_field(5, 4 * k, backend="table")   # lists need the log tables
    m = 5 ** k - 1
    # zeta^j, zeta of order 4m: a^m = -1 for j = 2 mod 4, a^(2m) = -1 for odd j
    vset = [a for j, a in enumerate(ctx.mu_subgroup(4 * m)) if j % 4]
    return _oracle_checked(ctx, d, sorted(vset))


def _r6(p, k):
    ctx, beta = field_with_root(p, 6 * k, SEXTIC_BETA_POLY)
    d = tower_exponent(p, k, 6)
    units = [e for e in ctx.subfield_elements(k) if e != 0]
    cases = [(fi, u) for fi in range(len(r6_coordinate_table(p)))
             for u in units]
    return _oracle_checked(ctx, d, [r6_dickson_coefficient(ctx, beta, fi, u)
                                    for fi, u in cases], cases)


def _multinomial(p, k, r, preset):
    # the hypotheses (exit 2) and the table backend (exit 3) before the
    # presets search; X, T's subfield position and (p-1) X^p serve every
    # map of the run.  Without --preset, the presets with no member on
    # F_{p^k} are skipped
    ctx = build_field(p, r * k)
    _multinomial_hypotheses(ctx, k)
    grid = _multinomial_grid(ctx, k)
    presets = multinomial_presets(ctx, k, preset)
    if not presets:
        which = f"preset {preset}" if preset else "any multinomial preset"
        raise HypothesisViolation(f"hypothesis-violation: the subfield "
                                  f"F_{p}^{k} admits no member of {which}")
    cases = [(name, a) for name, (_, _, admissible) in presets.items()
             for a in admissible]
    failures = [(name, a) for name, a in cases if not is_cpp(
        ctx, multinomial_map(ctx, *presets[name][:2], a, k, grid))]
    return {"d": None, "tested": len(cases), "failures": failures}


# `verify --family` id -> (the verify options its function reads, in
# argument order; the function); each function returns d (None for the
# multinomial family), tested and failures, and count for the r = 4 scans
FAMILIES = {
    "niho2": (("p", "k", "i"), _niho),
    "p3k2": (("k",), lambda k: _niho(3, k, 1)),
    "r4_general": (("p", "k"), _r4_scan),
    "r4_p3": (("k",), lambda k: _r4_scan(3, k, r4_condition_p3)),
    "r4_p3_beta": (("k",), _r4_p3_beta),
    "r4_p5": (("k",), lambda k: _r4_scan(5, k)),
    "r4_p5_vset": (("k",), _r4_p5_vset),
    "r6_p3": (("k",), lambda k: _r6(3, k)),
    "r6_p5": (("k",), lambda k: _r6(5, k)),
    "rp_k1": (("p",), lambda p: _oracle_checked(*rt_family_coefficients(p, 1))),
    "rt_k1": (("p", "t"),
              lambda p, t: _oracle_checked(*rt_family_coefficients(p, t))),
    "multinomial": (("p", "k", "r", "preset"), _multinomial),
}
