"""Family exponents, membership conditions, generators, and harnesses."""

import math

import pytest

from cppforge import scan
from cppforge.field import build_field
from cppforge.families import (ConditionTag, FamilySpec, QUARTIC_BETA_POLY,
                               SEXTIC_BETA_POLY, beta_quartic_all,
                               beta_quartic_coefficient,
                               dickson_witness_search, field_with_root,
                               multinomial_admissible_a, multinomial_map,
                               multinomial_presets, neg_one_map_permutes,
                               niho_exponent, r4_condition, r4_condition_p3,
                               r4_condition_p5, r6_coordinate_table,
                               r6_dickson_coefficient,
                               rt_family_coefficients, scaled_tower_exponent,
                               tower_exponent, verify_neg_one_family)
from cppforge.hadickson import lambda_coeffs
from cppforge.oracle import is_cpp, is_cpp_exponent_pair


class TestExponents:
    def test_niho_values(self):
        assert niho_exponent(3, 1, 1) == 5
        assert niho_exponent(3, 2, 1) == 11        # (9-1)*1 + 3
        assert niho_exponent(5, 1, 2) == 73        # 4*12 + 25

    def test_niho_coprimality(self):
        for p in (3, 5, 7):
            for k in (1, 2, 3):
                for i in range(1, 2 * k + 1):
                    d = niho_exponent(p, k, i)
                    assert math.gcd(d, p ** (2 * k) - 1) == 1

    def test_niho_even_char(self):
        with pytest.raises(ValueError, match="even-characteristic"):
            niho_exponent(2, 2, 1)

    def test_tower_values(self):
        assert tower_exponent(3, 1, 4) == 41
        assert tower_exponent(3, 2, 4) == 821
        assert tower_exponent(3, 3, 4) == 20441
        assert tower_exponent(5, 2, 4) == 16277
        assert tower_exponent(3, 1, 6) == 365
        assert tower_exponent(5, 1, 6) == 3907

    def test_tower_gcd_violation(self):
        with pytest.raises(ValueError, match="gcd-violation"):
            tower_exponent(3, 4, 4)   # gcd(5, 80) = 5

    def test_scaled_tower(self):
        assert scaled_tower_exponent(5, 1) == 157 == tower_exponent(5, 1, 4)
        assert scaled_tower_exponent(5, 2) == 313
        assert scaled_tower_exponent(7, 1) == 19609


class TestR4Conditions:
    def test_tags_characterize_cpp_set_f81(self, f81):
        direct = set(scan.direct_cpp_scan(f81, 41))
        tagged = {a for a in range(1, 81) if r4_condition(f81, a, 1)}
        assert tagged == direct
        assert len(direct) == 38

    def test_tag_histogram_f81(self, f81):
        hist = {}
        for a in range(1, 81):
            t = r4_condition(f81, a, 1)
            if t:
                hist[t.condition] = hist.get(t.condition, 0) + 1
        # conditions evaluate in order; 1) subsumes part of 2), and the
        # closed-form membership (28 elements) is their union
        assert hist["1"] + hist["2"] == 28
        assert hist["4"] + hist["5"] == 10

    def test_a_zero_is_untagged(self, f81):
        assert r4_condition(f81, 0, 1) is None

    def test_char_excluded(self, f625):
        with pytest.raises(ValueError, match="char-excluded"):
            r4_condition(f625, 1, 1)

    def test_p5_conditions_characterize_cpp_set(self, f625):
        direct = set(scan.direct_cpp_scan(f625, 157))
        tagged = {a for a in range(1, 625) if r4_condition_p5(f625, a, 1)}
        assert tagged == direct
        assert len(direct) == 60

    def test_p5_case3_lambda1_variant_never_matches(self, f625):
        # the variant divides by lambda_1 = 0, so condition 3 drops out
        tags_default = [r4_condition_p5(f625, a, 1) for a in range(1, 625)]
        got3 = sum(1 for t in tags_default if t and t.condition == "3")
        assert got3 == 16
        tags_l1 = [r4_condition_p5(f625, a, 1, case3_inverse="lambda1")
                   for a in range(1, 625)]
        assert sum(1 for t in tags_l1 if t and t.condition == "3") == 0
        assert sum(1 for t in tags_l1 if t) == 60 - 16

    def test_p3_closed_form_matches_general_conditions(self, f81):
        thm = {a for a in range(1, 81) if r4_condition(f81, a, 1)}
        coro = {a for a in range(1, 81) if r4_condition_p3(f81, a, 1)}
        assert thm == coro

    def test_p3_closed_form_condition1_empty_at_k2(self):
        # k = 2 is not 2 mod 4... it is: k=2: condition 1 requires
        # k = 2 mod 4 and the lambda identities; no element satisfies them
        ctx = build_field(3, 8)
        hits = [a for a in range(1, 6561)
                if (t := r4_condition_p3(ctx, a, 2)) and t.condition == "1"]
        assert hits == []


@pytest.fixture(scope="module")
def beta_field():
    return field_with_root(3, 4, QUARTIC_BETA_POLY)


class TestBetaQuartic:

    def test_known_element_family1(self, beta_field):
        ctx, beta = beta_field
        # a = 1 - beta^2 - beta^3 at (u, v) = (1, 0)
        a = beta_quartic_coefficient(ctx, beta, 1, 1, 0)
        b2 = ctx.mul(beta, beta)
        b3 = ctx.mul(b2, beta)
        assert a == ctx.sub(ctx.sub(1, b2), b3)
        assert is_cpp_exponent_pair(ctx, 41, a)

    def test_total_distinct_k1(self, beta_field):
        ctx, beta = beta_field
        gen = beta_quartic_all(ctx, beta)
        assert len(gen) == 28
        direct = scan.direct_cpp_scan(ctx, 41)
        assert set(gen) <= set(direct)

    def test_uv_both_zero(self, beta_field):
        ctx, beta = beta_field
        with pytest.raises(ValueError, match="uv-both-zero"):
            beta_quartic_coefficient(ctx, beta, 1, 0, 0)

    def test_k_not_coprime(self):
        ctx = build_field(3, 8)
        beta_poly_root = None
        with pytest.raises(ValueError, match="k-not-coprime-4"):
            beta_quartic_coefficient(ctx, 3, 1, 1, 0)


class TestR6Dickson:
    def test_coordinate_tables(self):
        assert len(r6_coordinate_table(3)) == 12
        assert len(r6_coordinate_table(5)) == 18
        with pytest.raises(ValueError, match="hypothesis-violation"):
            r6_coordinate_table(7)

    @pytest.mark.parametrize("p", [3, 5])
    def test_all_families_all_u(self, p):
        ctx, beta = field_with_root(p, 6, SEXTIC_BETA_POLY)
        d = tower_exponent(p, 1, 6)
        for fi in range(len(r6_coordinate_table(p))):
            for u in range(1, p):
                a = r6_dickson_coefficient(ctx, beta, fi, u)
                assert is_cpp_exponent_pair(ctx, d, a)

    def test_u_zero(self):
        ctx, beta = field_with_root(3, 6, SEXTIC_BETA_POLY)
        with pytest.raises(ValueError, match="u-zero"):
            r6_dickson_coefficient(ctx, beta, 0, 0)


class TestRtFamily:
    def test_p5_t2_exhaustive(self):
        ctx, d, coeffs = rt_family_coefficients(5, 2)
        assert d == 313
        assert len(coeffs) == 4
        assert all(is_cpp_exponent_pair(ctx, d, a) for a in coeffs)

    def test_p5_t1_matches_tower(self):
        ctx, d, coeffs = rt_family_coefficients(5, 1)
        assert d == tower_exponent(5, 1, 4)
        assert all(is_cpp_exponent_pair(ctx, d, a) for a in coeffs)

    def test_p7_t1_six_coefficients(self):
        ctx, d, coeffs = rt_family_coefficients(7, 1)
        assert d == 19609
        assert len(coeffs) == 6
        assert all(is_cpp_exponent_pair(ctx, d, a) for a in coeffs)


class TestConjectureHarnesses:
    def test_neg_one_family_p3(self):
        for k in (1, 2, 3):
            res = verify_neg_one_family(3, k)
            assert res["passed"], res
            assert res["coefficients"] == 3 ** k - 1

    def test_neg_one_family_p5_k1(self):
        res = verify_neg_one_family(5, 1)
        assert res["passed"] and res["coefficients"] == 4

    @pytest.mark.parametrize("p,k", [(5, 2), (7, 2), (7, 1), (3, 3)])
    def test_reformulated_map_rejects_subfield_coefficients(self, p, k):
        # for a in F_{p^k}^*, x(x^2-a^2)^((p-1)/2) sends 0, a and -a to 0
        ctx = build_field(p, k * (p - 1))
        sub = [a for a in ctx.subfield_elements(k) if a != 0]
        assert neg_one_map_permutes(ctx, k, sub) == [False] * len(sub)
        assert all(neg_one_map_permutes(ctx, k, ctx.neg_one_roots(k)))

    def test_neg_one_family_rejects_composite(self):
        with pytest.raises(ValueError, match="hypothesis-violation"):
            verify_neg_one_family(9, 1)

    def test_witness_search_p3_r4(self):
        res = dickson_witness_search(3, 4, 1)
        assert res["passed"]
        assert res["witness_count"] == 28
        # on the quartic-root field the witnesses contain the whole
        # generated family
        ctx, beta = field_with_root(3, 4, QUARTIC_BETA_POLY)
        gen = set(beta_quartic_all(ctx, beta))
        wits = set()
        for a in range(1, 81):
            from cppforge.hadickson import is_dickson_of_degree
            lv = lambda_coeffs(ctx, a, 4, 1)
            if is_dickson_of_degree(ctx, lv, 5, 1) is not None:
                wits.add(a)
        assert gen <= wits

    def test_witness_search_hypotheses(self):
        with pytest.raises(ValueError, match="hypothesis-violation"):
            dickson_witness_search(3, 4, 4)      # gcd(r, k) != 1
        with pytest.raises(ValueError, match="hypothesis-violation"):
            dickson_witness_search(3, 5, 1)      # r+1 = 6 not prime
        with pytest.raises(ValueError, match="hypothesis-violation"):
            dickson_witness_search(3, 2, 1)      # r+1 = 3 = p

    def test_witness_search_budget(self):
        full = dickson_witness_search(3, 4, 1)
        budgeted = dickson_witness_search(3, 4, 1, budget=30)
        assert set(budgeted["witnesses"]) <= set(full["witnesses"])

    def test_witness_search_p5_r6(self):
        res = dickson_witness_search(5, 6, 1)
        assert res["passed"] and res["witness_count"] == 72

    def test_witness_search_p3_r10(self):
        # degree-11 Dickson shapes exist over F_3^10
        res = dickson_witness_search(3, 10, 1)
        assert res["passed"] and res["witness_count"] > 0


class TestMultinomial:
    def test_p2_bao_form(self):
        # f = x Tr(x) + x^2 + a x over F_64 with the zero preset
        ctx = build_field(2, 6)
        g, v = multinomial_presets(ctx, 2)["zero"]
        assert v == 1
        aa = multinomial_admissible_a(ctx, 2, g, v)
        assert len(aa) == 2
        for a in aa:
            f = multinomial_map(ctx, g, v, a, 2)
            assert is_cpp(f)
            for x in range(0, 64, 7):
                direct = ctx.add(ctx.add(ctx.mul(x, ctx.trace(x, 2)),
                                         ctx.mul(x, x)), ctx.mul(a, x))
                assert f.fn(x) == direct

    def test_p3_trace_power_form(self):
        # f = x Tr(x)^2 + 2 x^3 + x over F_3^5 with a = 1
        ctx = build_field(3, 5)
        g, v = multinomial_presets(ctx, 1)["zero"]
        f = multinomial_map(ctx, g, v, 1, 1)
        assert is_cpp(f)
        for x in range(0, 243, 11):
            t = ctx.trace(x, 1)
            direct = ctx.add(ctx.add(ctx.mul(x, ctx.mul(t, t)),
                                     ctx.mul(2, ctx.pow(x, 3))), x)
            assert f.fn(x) == direct

    def test_gcd_violation(self):
        ctx = build_field(3, 2)
        g, v = (0,), 1
        with pytest.raises(ValueError, match="gcd-violation"):
            multinomial_map(ctx, g, v, 1, 1)   # r = 2, gcd(p-1, r) = 2

    def test_v_zero(self):
        ctx = build_field(3, 5)
        with pytest.raises(ValueError, match="v-zero"):
            multinomial_map(ctx, (0,), 0, 1, 1)

    def test_a_excluded(self):
        ctx = build_field(3, 5)
        with pytest.raises(ValueError, match="a-excluded"):
            multinomial_map(ctx, (0,), 1, 0, 1)
        with pytest.raises(ValueError, match="a-excluded"):
            multinomial_map(ctx, (0,), 1, 2, 1)   # a = -1

    def test_rescaled_base_guard(self):
        # g = x^3 over F_4 inside F_2^6 with v = a: then v(a+1)/a lands on
        # the scaling whose base map x^4 + x degenerates, so f + x would
        # collide; the constructor must refuse
        ctx = build_field(2, 6)
        sub = [e for e in ctx.subfield_elements(2) if e not in (0, 1)]
        w1, w2 = sub
        g = (0, 0, 0, 1)
        assert is_cpp(multinomial_map(ctx, g, w1, w1, 2))
        with pytest.raises(ValueError, match="a-excluded"):
            multinomial_map(ctx, g, w1, w2, 2)

    @pytest.mark.parametrize("p,n,k", [(3, 4, 2), (2, 6, 3), (5, 2, 1)])
    def test_admissible_a_matches_brute_force(self, p, n, k):
        # random g, constant and non-monic ones included, against the
        # scalar bijectivity of x g(x) + v(a+1)/a x on F_{p^k}
        import random as _random
        ctx = build_field(p, n)
        sub = ctx.subfield_elements(k)
        rng = _random.Random(n * 10 + k)
        for _ in range(12):
            g = [rng.choice(sub) for _ in range(rng.randrange(1, 5))]
            v = rng.choice(sub[1:])
            want = []
            for a in multinomial_admissible_a(ctx, k):
                w = ctx.mul(v, ctx.mul(ctx.add(a, 1), ctx.inv(a)))
                values = [ctx.add(ctx.mul(x, ctx.poly_eval(g, x)),
                                  ctx.mul(w, x)) for x in sub]
                if sorted(values) == list(sub):
                    want.append(a)
            assert multinomial_admissible_a(ctx, k, g, v) == want, (g, v)

    # (g coefficients, v) per preset on the acceptance criterion 11 fields
    PINNED_PRESETS = {
        (2, 2, 3): {"zero": ((0,), 1), "monomial": ((0, 0, 0, 1), 56),
                    "dickson-quartic": ((1, 0, 0, 0, 1), 1)},
        (2, 2, 5): {"zero": ((0,), 1), "monomial": ((0, 0, 0, 1), 398),
                    "dickson-quartic": ((1, 0, 0, 0, 1), 1)},
        (3, 1, 5): {"zero": ((0,), 1), "monomial": ((0, 0, 1), 1),
                    "dickson-quartic": ((1, 0, 1, 0, 1), 1)},
        (3, 1, 7): {"zero": ((0,), 1), "monomial": ((0, 0, 1), 1),
                    "dickson-quartic": ((1, 0, 1, 0, 1), 1)},
        (3, 2, 5): {"zero": ((0,), 1), "monomial": ((0, 0, 1), 22417),
                    "dickson-quartic": ((2, 0, 0, 0, 1), 1)},
    }

    @pytest.mark.parametrize("p,k,r", sorted(PINNED_PRESETS))
    def test_presets_pinned(self, p, k, r):
        presets = multinomial_presets(build_field(p, r * k), k)
        got = {name: (g.coeffs, v) for name, (g, v) in presets.items()}
        assert got == self.PINNED_PRESETS[(p, k, r)]

    def test_scalar_vector_agreement(self):
        ctx = build_field(3, 5)
        presets = multinomial_presets(ctx, 1)
        for name, (g, v) in presets.items():
            for a in multinomial_admissible_a(ctx, 1, g, v):
                f = multinomial_map(ctx, g, v, a, 1)
                vals = f.value_table()
                for x in range(0, 243, 17):
                    assert vals[x] == f.fn(x), (name, a, x)

    def test_trace_identity_on_all_points(self):
        ctx = build_field(3, 5)
        g, v = multinomial_presets(ctx, 1)["dickson-quartic"]
        for a in multinomial_admissible_a(ctx, 1, g, v):
            f = multinomial_map(ctx, g, v, a, 1)
            av = ctx.mul(a, ctx.inv(v))
            for x in range(0, 243, 5):
                t = ctx.trace(x, 1)
                want = ctx.mul(av, ctx.add(ctx.mul(t, ctx.poly_eval(g.coeffs, t)),
                                           ctx.mul(v, t)))
                assert ctx.trace(f.fn(x), 1) == want

    def test_output_trace_depends_only_on_input_trace(self):
        # equal input traces force equal output traces
        import random as _random
        ctx = build_field(3, 5)
        g, v = multinomial_presets(ctx, 1)["zero"]
        f = multinomial_map(ctx, g, v, 1, 1)
        by_trace = {}
        for x in range(243):
            by_trace.setdefault(ctx.trace(x, 1), []).append(x)
        rng = _random.Random(73)
        for _ in range(1000):
            bucket = by_trace[rng.choice(list(by_trace))]
            x, y = rng.choice(bucket), rng.choice(bucket)
            assert ctx.trace(f.fn(x), 1) == ctx.trace(f.fn(y), 1)


def test_family_spec_validation():
    FamilySpec("niho2", {"p": 3, "k": 1, "i": 1})
    with pytest.raises(ValueError, match="hypothesis-violation"):
        FamilySpec("nonsense")


def test_condition_tag_label():
    t = ConditionTag("r4_general", "2", (("v", 5),))
    assert t.label() == "r4_general:2"
