"""Conjugate symmetric functions, h_a, the quintic reduction, and Dickson
polynomials, each pinned against brute-force evaluation."""

import math
import random

import pytest

from cppforge.field import build_field
from cppforge.hadickson import (depressed, depressed_quintic, dickson_poly,
                                h_a_coeffs, ha_pp_check, is_dickson_of_degree,
                                lambda_coeffs, taylor_shift)
from twins import expanded_depressed_quintic, frobenius, trace


def brute_lambda(ctx, a, r, k):
    """Elementary symmetric functions by direct subset expansion."""
    from itertools import combinations
    conj = [ctx.pow(a, ctx.p ** (i * k)) for i in range(r)]
    out = []
    for i in range(1, r + 1):
        acc = 0
        for subset in combinations(conj, i):
            prod = 1
            for c in subset:
                prod = ctx.mul(prod, c)
            acc = ctx.add(acc, prod)
        out.append(acc)
    return tuple(out)


def subfield_map_is_pp(ctx, k, fn):
    sub = ctx.subfield_elements(k)
    return sorted(fn(x) for x in sub) == sorted(sub)


class TestLambda:
    def test_all_conjugates_one(self, f81):
        # a = 1: lambda_i = C(4, i) mod 3 = (1, 0, 1, 1)... C(4,2)=6=0
        lv = lambda_coeffs(f81, 1, 4, 1)
        assert lv == (4 % 3, 6 % 3, 4 % 3, 1)

    def test_zero(self, f81):
        assert lambda_coeffs(f81, 0, 4, 1) == (0, 0, 0, 0)

    def test_lambda1_is_trace(self, f81):
        rng = random.Random(31)
        for _ in range(50):
            a = rng.randrange(81)
            assert lambda_coeffs(f81, a, 4, 1)[0] == trace(f81, a, 1)

    def test_matches_subset_expansion(self, f81, f625):
        rng = random.Random(37)
        for ctx, r, k in ((f81, 4, 1), (f81, 2, 2), (f625, 4, 1), (f625, 2, 2)):
            for _ in range(25):
                a = rng.randrange(ctx.q)
                assert lambda_coeffs(ctx, a, r, k) == \
                    brute_lambda(ctx, a, r, k)

    def test_entries_fixed_by_frobenius(self, f625, f81):
        rng = random.Random(41)
        for _ in range(1000):
            a = rng.randrange(625)
            for lam in lambda_coeffs(f625, a, 4, 1):
                assert frobenius(f625, lam, 1) == lam
        for _ in range(1000):
            a = rng.randrange(81)
            for lam in lambda_coeffs(f81, a, 2, 2):
                assert frobenius(f81, lam, 2) == lam

    def test_lambda_r_is_norm(self, f81):
        for a in range(1, 81, 7):
            lv = lambda_coeffs(f81, a, 4, 1)
            assert lv[-1] == f81.pow(a, (81 - 1) // 2)

    def test_degree_mismatch(self, f81):
        with pytest.raises(ValueError, match="degree-mismatch"):
            lambda_coeffs(f81, 1, 3, 1)


class TestHaEval:
    def test_zero_maps_to_zero(self, f81):
        for a in (1, 5, 40):
            lv = lambda_coeffs(f81, a, 4, 1)
            assert f81.poly_eval(h_a_coeffs(lv), 0) == 0

    def test_hand_expansion_a_one(self, f81):
        # h_1(x) = x(x+1)^4 over F_3: h_1(1) = 1 * 2^4 = 16 = 1
        lv = lambda_coeffs(f81, 1, 4, 1)
        assert f81.poly_eval(h_a_coeffs(lv), 1) == 1
        for x in f81.subfield_elements(1):
            direct = f81.mul(x, f81.pow(f81.add(x, 1), 4))
            assert f81.poly_eval(h_a_coeffs(lv), x) == direct

    def test_subfield_closure(self, f81):
        rng = random.Random(43)
        for _ in range(30):
            a = rng.randrange(81)
            lv = lambda_coeffs(f81, a, 4, 1)
            for x in f81.subfield_elements(1):
                v = f81.poly_eval(h_a_coeffs(lv), x)
                assert frobenius(f81, v, 1) == v


class TestHaPpCheck:
    def test_equivalence_with_direct_exhaustive(self, f81, f625):
        # h_a permutes F_{p^k} iff x^d + a x permutes F_{p^rk}
        from cppforge.oracle import is_permutation
        from twins import binomial_values
        for ctx, r, k in ((f81, 4, 1), (f625, 4, 1), (f81, 2, 2)):
            d = (ctx.p ** (r * k) - 1) // (ctx.p ** k - 1) + 1
            for a in range(ctx.q):
                direct = is_permutation(ctx, binomial_values(ctx, d, a))
                assert ha_pp_check(ctx, a, r, k) == direct, (ctx.p, r, k, a)

    def test_a_zero_monomial(self, f81):
        # h_0 = x^(r+1): permutes F_3 iff gcd(5, 2) = 1
        assert ha_pp_check(f81, 0, 4, 1) is True
        f16 = build_field(2, 4)
        # gcd(5, 2^2-1) != 1 over k=2
        assert ha_pp_check(f16, 0, 2, 2) == (math.gcd(3, 3) == 1)

    def test_p5_neg_one_fourth_roots(self, f625):
        for a in range(1, 625):
            if f625.pow(a, 4) == f625.neg(1):
                assert ha_pp_check(f625, a, 4, 1)


class TestDepressedQuintic:
    def test_lambda1_zero_passthrough(self, f625):
        lv = (0, 2, 3, 4)
        with pytest.raises(ValueError, match="char-five"):
            depressed_quintic(f625, lv)
        f7 = build_field(7, 4)
        lv7 = (0, 2, 3, 4)
        assert depressed_quintic(f7, lv7) == (2, 3, 4)

    def test_p3_constant_reduction(self, f81):
        # mod 3: A3 = l2 - l1^2, A2 = l3 + l1^3, A1 = l4 - l1 l3
        rng = random.Random(47)
        for _ in range(40):
            l1, l2, l3, l4 = (rng.randrange(3) for _ in range(4))
            lv = (l1, l2, l3, l4)
            a3, a2, a1 = depressed_quintic(f81, lv)
            assert a3 == (l2 - l1 * l1) % 3
            assert a2 == (l3 + l1 ** 3) % 3
            assert a1 == (l4 - l1 * l3) % 3

    def test_preserves_pp_property(self):
        # shifting the variable and dropping the constant keeps bijectivity
        f7 = build_field(7, 1)
        rng = random.Random(53)
        checked = 0
        for _ in range(300):
            entries = tuple(rng.randrange(7) for _ in range(4))
            lv = entries
            a3, a2, a1 = depressed_quintic(f7, lv)
            orig = subfield_map_is_pp(
                f7, 1, lambda x: f7.poly_eval(h_a_coeffs(lv), x))
            dep = subfield_map_is_pp(
                f7, 1, lambda x: f7.poly_eval((0, a1, a2, a3, 0, 1), x))
            assert orig == dep
            checked += 1
        assert checked >= 200

    def test_preserves_pp_property_f9(self, f9):
        rng = random.Random(59)
        for _ in range(250):
            entries = tuple(rng.randrange(9) for _ in range(4))
            # entries must lie in the subfield = whole field here (k = n = 2)
            lv = entries
            a3, a2, a1 = depressed_quintic(f9, lv)
            orig = subfield_map_is_pp(
                f9, 2, lambda x: f9.poly_eval(h_a_coeffs(lv), x))
            dep = subfield_map_is_pp(
                f9, 2, lambda x: f9.poly_eval((0, a1, a2, a3, 0, 1), x))
            assert orig == dep

    @pytest.mark.parametrize("p,n", [(7, 1), (11, 1), (13, 1), (3, 2), (7, 2)])
    def test_matches_expanded_formulas(self, p, n):
        ctx = build_field(p, n)
        rng = random.Random(61 * p + n)
        for _ in range(200):
            lv = tuple(rng.randrange(ctx.q) for _ in range(4))
            assert depressed_quintic(ctx, lv) == \
                expanded_depressed_quintic(ctx, lv)


class TestDepressed:
    @pytest.mark.parametrize("p,n,r", [(7, 1, 4), (3, 2, 4), (3, 2, 6),
                                       (5, 2, 6)])
    def test_matches_pointwise_shift(self, p, n, r):
        # h_a(x - lambda_1/(r+1)) - h_a(-lambda_1/(r+1)) at every x
        ctx = build_field(p, n)
        rng = random.Random(67 * p + r)
        for _ in range(20):
            lv = tuple(rng.randrange(ctx.q) for _ in range(r))
            h = h_a_coeffs(lv)
            c = ctx.mul(lv[0], ctx.inv(ctx.scalar(r + 1)))
            dep = depressed(ctx, lv)
            assert len(dep) == r + 2 and dep[r] == 0 and dep[r + 1] == 1
            base = ctx.poly_eval(h, ctx.neg(c))
            for x in range(ctx.q):
                assert ctx.sub(ctx.poly_eval(h, ctx.sub(x, c)), base) == \
                    ctx.sub(ctx.poly_eval(dep, x), dep[0])


class TestDickson:
    def test_d7_coefficients_p3(self, f81):
        # x^7 + 2 eta x^5 + 2 eta^2 x^3 + 2 eta^3 x
        eta = 2
        got = dickson_poly(f81, 7, eta, 1)
        e2, e3 = f81.mul(eta, eta), f81.mul(f81.mul(eta, eta), eta)
        want = (0, f81.mul(2, e3), 0, f81.mul(2, e2), 0, f81.mul(2, eta), 0, 1)
        assert got == want

    def test_d7_coefficients_p5(self, f625):
        # x^7 + 3 eta x^5 + 4 eta^2 x^3 + 3 eta^3 x
        eta = 2
        got = dickson_poly(f625, 7, eta, 1)
        e2, e3 = 4, f625.mul(4, 2)
        want = (0, f625.mul(3, e3), 0, f625.mul(4, e2), 0, f625.mul(3, eta), 0, 1)
        assert got == want

    def test_d1_is_x(self, f81):
        assert dickson_poly(f81, 1, 1, 1) == (0, 1)

    def test_functional_equation(self, f81):
        # D_l(y + eta/y, eta) = y^l + (eta/y)^l
        rng = random.Random(67)
        for l in (3, 5, 7):
            for _ in range(20):
                eta = rng.choice([e for e in f81.subfield_elements(2) if e])
                dp = dickson_poly(f81, l, eta, 2)
                y = rng.randrange(1, 81)
                x = f81.add(y, f81.mul(eta, f81.inv(y)))
                lhs = f81.poly_eval(dp, x)
                rhs = f81.add(f81.pow(y, l),
                              f81.pow(f81.mul(eta, f81.inv(y)), l))
                assert lhs == rhs

    def test_pp_criterion_gcd(self, f81):
        # D_l(x, eta) permutes F_{p^k} iff gcd(l, p^2k - 1) = 1, here on
        # proper subfields of F_81
        d7 = dickson_poly(f81, 7, 1, 1)              # gcd(7, 8) = 1
        assert subfield_map_is_pp(
            f81, 1, lambda x: f81.poly_eval(d7, x))
        d5 = dickson_poly(f81, 5, 1, 2)              # gcd(5, 80) = 5
        assert not subfield_map_is_pp(
            f81, 2, lambda x: f81.poly_eval(d5, x))

    def test_pp_criterion_matches_brute_force(self):
        for k in (1, 2, 3):
            ctx = build_field(3, k)
            for l in range(1, 10):
                for eta in (1, 2, ctx.q - 1):
                    if eta == 0 or not ctx.in_subfield(eta, k):
                        continue
                    dp = dickson_poly(ctx, l, eta, k)
                    brute = subfield_map_is_pp(
                        ctx, k, lambda x: ctx.poly_eval(dp, x))
                    assert brute == (math.gcd(l, 3 ** (2 * k) - 1) == 1), \
                        (k, l, eta)

    def test_eta_validation(self, f81):
        with pytest.raises(ValueError, match="eta-not-in-subfield"):
            dickson_poly(f81, 7, 0, 1)
        with pytest.raises(ValueError, match="eta-not-in-subfield"):
            dickson_poly(f81, 7, 3, 1)   # the class of x is not in F_3


class TestTaylorShift:
    def test_matches_pointwise(self, f81):
        rng = random.Random(71)
        for _ in range(30):
            coeffs = [rng.randrange(81) for _ in range(6)]
            s = rng.randrange(81)
            shifted = taylor_shift(f81, coeffs, s)
            for x in range(0, 81, 13):
                assert f81.poly_eval(shifted, x) == \
                    f81.poly_eval(coeffs, f81.add(x, s))


class TestIsDickson:
    def test_literal_match(self, f81):
        # build lambdas whose h_a IS D_5 exactly: h = x^5 + c3 x^3 + c1 x
        eta = 2
        dp = dickson_poly(f81, 5, eta, 1)
        lv = (0, dp[3], 0, dp[1])
        assert is_dickson_of_degree(f81, lv, 1) == eta

    def test_a_one_no_match(self, f81):
        # h_1 = x(x+1)^4 is not a bijection shape: no Dickson form
        lv = lambda_coeffs(f81, 1, 4, 1)
        assert is_dickson_of_degree(f81, lv, 1) is None

    def test_all_zero_lambda_rejected(self, f81):
        lv = (0, 0, 0, 0)
        assert is_dickson_of_degree(f81, lv, 1) is None

    def test_translated_match_from_family(self):
        # [0,0,u,u,u,u] with u=1 in the sextic basis: h_a is a shifted
        # degree-7 Dickson (the monomial case eta = 0)
        from cppforge.families import (field_with_root, SEXTIC_BETA_POLY,
                                       r6_dickson_coefficient)
        ctx, beta = field_with_root(3, 6, SEXTIC_BETA_POLY)
        a = r6_dickson_coefficient(ctx, beta, 0, 1)
        lv = lambda_coeffs(ctx, a, 6, 1)
        assert is_dickson_of_degree(ctx, lv, 1) is not None

    def test_match_certifies_pp_consistency(self, f81):
        # whenever a match is found, h_a permutes the subfield iff
        # gcd(l, p^2k - 1) = 1
        for a in range(1, 81):
            lv = lambda_coeffs(f81, a, 4, 1)
            eta = is_dickson_of_degree(f81, lv, 1)
            if eta is not None:
                assert ha_pp_check(f81, a, 4, 1) == \
                    (math.gcd(5, 3 ** 2 - 1) == 1)
