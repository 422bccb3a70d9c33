"""Field construction, arithmetic, Frobenius/trace/subfield machinery.

Oracles here are independent of the code paths they check: brute-force
enumeration, hand-expanded identities, and textbook facts about small
fields.
"""

import itertools
import random
import tracemalloc

import numpy as np
import pytest

from cppforge import bulk
from cppforge import field as field_mod
from cppforge.field import (CapExceeded, InternalError, SubfieldView,
                            build_field, lex_least_irreducible, is_prime,
                            zp_is_irreducible)
from twins import frobenius, poly_mul, step_matrices_by_products, trace


def monic_irreducible_count(p, d):
    """Gauss's count (1/d) sum_{e | d} mu(d/e) p^e."""
    def mobius(m):
        out, f = 1, 2
        while m > 1:
            if m % f == 0:
                m //= f
                if m % f == 0:
                    return 0
                out = -out
            f += 1
        return out
    return sum(mobius(d // e) * p ** e
               for e in range(1, d + 1) if d % e == 0) // d


def brute_irreducible_quadratics(p):
    """Monic irreducible quadratics over Z_p by root absence."""
    out = []
    for c1 in range(p):
        for c0 in range(p):
            if all((x * x + c1 * x + c0) % p for x in range(p)):
                out.append((c0, c1, 1))
    return out


class TestConstruction:
    def test_default_modulus_f9_is_x2_plus_1(self):
        # first irreducible monic quadratic over F_3 in lex order of (c0, c1)
        ctx = build_field(3, 2)
        assert ctx.modulus == (1, 0, 1)
        lex_first = min(brute_irreducible_quadratics(3))
        assert ctx.modulus == lex_first

    def test_explicit_modulus_x4_minus_x_minus_1(self):
        ctx = build_field(3, 4, (2, 2, 0, 0, 1))
        assert ctx.modulus == (2, 2, 0, 0, 1)
        beta = 3  # the residue class of x
        assert ctx.pow(beta, 4) == ctx.add(beta, 1)

    def test_not_prime_rejected(self):
        with pytest.raises(ValueError, match="not-prime"):
            build_field(4, 2)

    def test_reducible_modulus_rejected(self):
        with pytest.raises(ValueError, match="modulus-reducible"):
            build_field(3, 2, (0, 0, 1))  # x^2

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError, match="modulus-degree-mismatch"):
            build_field(3, 2, (1, 0, 0, 1))

    def test_field_cap(self):
        with pytest.raises(ValueError, match="field-too-large"):
            build_field(3, 81)  # 3^81 - 1 >= 2^127

    def test_backend_selection(self):
        assert build_field(3, 4).backend == "table"
        assert build_field(5, 12).backend == "generic"

    def test_cache_keys_on_resolved_modulus_and_backend(self):
        ctx = build_field(3, 4)
        assert build_field(3, 4, backend="table") is ctx
        assert build_field(3, 4, modulus=lex_least_irreducible(3, 4)) is ctx
        assert build_field(3, 4, backend="generic") is not ctx

    def test_spec_string(self):
        ctx = build_field(3, 4, (2, 2, 0, 0, 1))
        assert ctx.spec_string() == "p=3,n=4,mod=2,2,0,0,1"


class TestArithmetic:
    def test_i_squared_is_minus_one(self, f9):
        i = f9.element((0, 1))
        assert f9.mul(i, i) == f9.element((2, 0))

    def test_add_mod_p(self):
        f3 = build_field(3, 1)
        assert f3.add(2, 2) == 1

    def test_inverse_axiom(self, f9, f625):
        for ctx in (f9, f625):
            for x in range(1, ctx.q):
                assert ctx.mul(x, ctx.inv(x)) == 1

    def test_inverse_of_zero(self, f9):
        with pytest.raises(ZeroDivisionError):
            f9.inv(0)

    @pytest.mark.parametrize("p,n", [(7, 18), (5, 12), (2, 40)])
    def test_inverse_axiom_generic_above_table_cap(self, p, n):
        ctx = build_field(p, n)
        assert ctx.backend == "generic"
        rng = random.Random(p * 100 + n)
        points = [1, p, ctx.q - 1] + [rng.randrange(1, ctx.q)
                                      for _ in range(60)]
        for x in points:
            y = ctx.inv(x)
            assert ctx.mul(x, y) == 1, x
            assert ctx.inv(y) == x, x

    def test_inverse_axiom_generic_f81_exhaustive(self):
        ctx = build_field(3, 4, backend="generic")
        for x in range(1, ctx.q):
            assert ctx.mul(x, ctx.inv(x)) == 1, x
        with pytest.raises(ZeroDivisionError):
            ctx.inv(0)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("backend", ["table", "generic"])
    def test_inverse_prime_fields_where_q_minus_2_is_small(self, p, backend):
        # q - 2 is 0 on F_2 and 1 on F_3: x^0 = 1 and x^1 = x are the inverses
        ctx = build_field(p, 1, backend=backend)
        assert [ctx.inv(x) for x in range(1, p)] == list(range(1, p))
        with pytest.raises(ZeroDivisionError):
            ctx.inv(0)

    def test_pow_i_fifth(self, f9):
        # i^5 = i*(i^2)^2 = i
        i = f9.element((0, 1))
        assert f9.pow(i, 5) == i

    def test_pow_lagrange(self, f625):
        for x in range(1, 626, 17):
            assert f625.pow(x, 624) == 1

    def test_pow_zero_conventions(self, f9):
        assert f9.pow(0, 0) == 1
        assert f9.pow(0, 5) == 0

    def test_wide_exponent_reduction(self, f9):
        e = (1 << 126) + 3
        for x in range(1, 9):
            assert f9.pow(x, e) == f9.pow(x, e % 8)

    @pytest.mark.parametrize("p,n", [(3, 4), (2, 6), (5, 2)])
    @pytest.mark.parametrize("backend", ["table", "generic"])
    def test_neg_negates_every_digit(self, p, n, backend):
        # neg is a product by -1; on encodings it negates each digit mod p
        ctx = build_field(p, n, backend=backend)
        assert [ctx.neg(x) for x in range(ctx.q)] == \
            [ctx.element([-c for c in ctx.coeffs(x)]) for x in range(ctx.q)]


class TestFrobeniusTrace:
    def test_frobenius_identity_power(self, f81):
        for x in range(0, 81, 7):
            assert frobenius(f81, x, 0) == x

    def test_frobenius_of_i(self, f9):
        i = f9.element((0, 1))
        assert frobenius(f9, i, 1) == f9.element((0, 2))  # i^3 = -i

    def test_frobenius_roundtrip(self, f81):
        for x in range(81):
            assert frobenius(f81, frobenius(f81, x, 1), 3) == x

    def test_frobenius_is_automorphism(self, f81):
        rng = random.Random(7)
        for _ in range(100):
            x, y = rng.randrange(81), rng.randrange(81)
            fx, fy = frobenius(f81, x, 1), frobenius(f81, y, 1)
            assert frobenius(f81, f81.add(x, y), 1) == f81.add(fx, fy)
            assert frobenius(f81, f81.mul(x, y), 1) == f81.mul(fx, fy)

    def test_trace_values_f9(self, f9):
        i = f9.element((0, 1))
        assert trace(f9, i) == 0        # i + i^3 = i - i
        assert trace(f9, 1) == 2        # 1 + 1

    def test_trace_additive_and_fixed(self, f81):
        rng = random.Random(11)
        for _ in range(100):
            x, y = rng.randrange(81), rng.randrange(81)
            assert trace(f81, f81.add(x, y)) == \
                f81.add(trace(f81, x), trace(f81, y))
        for k in (1, 2):
            for x in range(0, 81, 5):
                t = trace(f81, x, k)
                assert frobenius(f81, t, k) == t

    def test_trace_subfield_linear(self, f81):
        for c in f81.subfield_elements(1):
            for x in range(0, 81, 11):
                assert trace(f81, f81.mul(c, x), 1) == \
                    f81.mul(c, trace(f81, x, 1))

    def test_trace_bad_divisor(self, f81):
        with pytest.raises(ValueError, match="k-not-divisor"):
            trace(f81, 5, 3)


class TestSubfields:
    def test_prime_subfield_f9(self, f9):
        assert f9.subfield_elements(1) == (0, 1, 2)

    def test_subfield_sizes(self, f81):
        assert len(f81.subfield_elements(1)) == 3
        assert len(f81.subfield_elements(2)) == 9

    def test_subfield_fixed_points(self, f81):
        # exactly the Frobenius^k fixed points, by whole-field enumeration
        for k in (1, 2):
            fixed = tuple(x for x in range(81) if f81.pow(x, 3 ** k) == x)
            assert f81.subfield_elements(k) == fixed

    def test_subfield_closure(self, f81):
        sub = f81.subfield_elements(2)
        ss = set(sub)
        for x in sub:
            for y in sub:
                assert f81.add(x, y) in ss
                assert f81.mul(x, y) in ss

    def test_neg_one_roots(self, f9, f81):
        # V over F_9: solve a^2 = -1 by enumeration
        brute = tuple(a for a in range(9) if f9.pow(a, 2) == f9.neg(1))
        assert f9.neg_one_roots(1) == brute
        assert len(brute) == 2
        assert len(f81.neg_one_roots(2)) == 8
        brute81 = tuple(a for a in range(81) if f81.pow(a, 8) == f81.neg(1))
        assert f81.neg_one_roots(2) == brute81

    @pytest.mark.parametrize("backend", ["table", "generic"])
    def test_memo_keeps_results_not_refusals(self, backend):
        ctx = build_field(3, 4, backend=backend)
        assert ctx.subfield_view(2) is ctx.subfield_view(2)
        assert ctx.subfield_elements(2) is ctx.subfield_elements(2)
        for _ in range(2):
            with pytest.raises(ValueError, match="k-not-divisor"):
                ctx.subfield_elements(3)
            with pytest.raises(ValueError, match="s-not-divisor"):
                ctx.subgroup_generator(7)

    def test_neg_one_roots_p2_literal(self):
        f64 = build_field(2, 6)
        # -1 = 1: the literal solution set of a^(2^2-1) = 1
        brute = tuple(sorted(a for a in range(1, 64) if f64.pow(a, 3) == 1))
        assert f64.neg_one_roots(2) == brute

    @pytest.mark.parametrize("p,n,backend", [
        (3, 4, "table"), (3, 4, "generic"), (5, 2, "generic"),
        (7, 1, "generic"), (2, 6, "generic"), (3, 16, "generic"),
        (7, 30, "generic"), (2 ** 61 - 1, 2, "generic"),
        (2 ** 89 - 1, 1, "generic")])
    def test_progressions_match_scalar_steps(self, p, n, backend):
        # mu_subgroup and neg_one_roots against ctx.mul one step at a time;
        # F_7^30 has encodings past int64, the two wide primes products
        # past int64 (and order-2 elements outside F_p for p = 2^61 - 1)
        ctx = build_field(p, n, backend=backend)
        assert ctx.backend == backend

        def steps(start, ratio, count):
            out = [start]
            while len(out) < count:
                out.append(ctx.mul(out[-1], ratio))
            return out

        for s in (s for s in range(1, min(ctx.q, 730)) if (ctx.q - 1) % s == 0):
            assert ctx.mu_subgroup(s) == tuple(
                steps(1, ctx.subgroup_generator(s), s)), s
        for k in (k for k in range(1, n + 1) if n % k == 0 and p ** k < 730):
            m = p ** k - 1
            if p == 2:
                want = sorted(steps(1, ctx.subgroup_generator(m), m))
            elif (ctx.q - 1) % (2 * m):
                want = []
            else:
                y = ctx.subgroup_generator(2 * m)
                want = sorted(steps(y, ctx.mul(y, y), m))
            assert ctx.neg_one_roots(k) == tuple(want), k

    def test_unit_subgroup_orders(self, f625):
        mu = f625.mu_subgroup(26)
        assert len(set(mu)) == 26
        assert all(f625.pow(x, 26) == 1 for x in mu)

    def test_subgroup_generator_leaves_the_prime_field(self):
        # p + 1 does not divide p - 1, so no constant of F_p has a power of
        # order p + 1; the search must reach x + c with p >= 2^20
        ctx = build_field(1048583, 2)
        s = 1048584
        y = ctx.subgroup_generator(s)
        assert ctx.pow(y, s) == 1
        assert all(ctx.pow(y, s // ell) != 1 for ell in (2, 3, 43691))

    @pytest.mark.parametrize("p,n,pins", [
        (7, 18, {2: 6, 3: 2, 7 ** 9 - 1: 295, 48: 702651090224339,
                 8: 1405288339043776, 7 ** 6 - 1: 402671207773282,
                 7 ** 3 + 1: 1315102315342636}),
        # forced generic: order 3 and 6 come from constants (start at 2)
        (7, 4, {2: 6, 3: 4, 4: 540, 5: 444, 6: 3})])
    def test_generic_subgroup_generator_pinned(self, p, n, pins):
        ctx = build_field(p, n, backend="generic")
        assert {s: ctx.subgroup_generator(s) for s in pins} == pins

    def test_generic_listing_memory_is_linear(self):
        # F_3^11 inside F_3^22 (generic): at most 96 bytes per element,
        # the digit matrix, product blocks and returned tuple included
        ctx = build_field(3, 22)
        m = 3 ** 11 - 1
        ctx.subgroup_generator(m)
        tracemalloc.start()
        try:
            mu = ctx.mu_subgroup(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(mu) == m
        assert peak <= 96 * m


class TestResidues:
    def test_squares_mod_5(self):
        f5 = build_field(5, 1)
        squares = {f5.mul(x, x) for x in range(1, 5)}  # {1, 4}
        for x in range(1, 5):
            assert f5.residue_test(x, 1, "square") == (x in squares)

    def test_fourth_powers_mod_5(self):
        f5 = build_field(5, 1)
        fourths = {f5.pow(x, 4) for x in range(1, 5)}
        assert f5.residue_test(1, 1, "fourth") is True
        for x in range(1, 5):
            assert f5.residue_test(x, 1, "fourth") == (x in fourths)

    def test_i_is_a_square_in_f9(self, f9):
        # i = (g^2) for some g since i has order 4 | (9-1)/2 * 2; criterion:
        # i^((9-1)/2) = i^4 = 1
        i = f9.element((0, 1))
        squares = {f9.mul(x, x) for x in range(1, 9)}
        assert f9.residue_test(i, 2, "square") is True
        assert (i in squares) is True

    def test_residue_errors(self, f9):
        with pytest.raises(ValueError, match="zero-input"):
            f9.residue_test(0, 1, "square")
        i = f9.element((0, 1))
        with pytest.raises(ValueError, match="not-in-subfield"):
            f9.residue_test(i, 1, "square")


class TestIrreducibility:
    def test_x4_minus_x_minus_1_over_f3(self):
        assert zp_is_irreducible(3, (2, 2, 0, 0, 1)) is True

    def test_x6_plus_x_plus_2(self):
        for p in (3, 5):
            assert zp_is_irreducible(p, (2, 1, 0, 0, 0, 0, 1)) is True

    def test_x2_plus_1_over_f5(self):
        # 2^2 = 4 = -1 mod 5: a root exists
        assert zp_is_irreducible(5, (1, 0, 1)) is False

    def test_not_monic(self):
        with pytest.raises(ValueError, match="not-monic"):
            zp_is_irreducible(3, (1, 2))

    def test_zp_matches_brute_force_quadratics(self):
        for p in (3, 5, 7):
            brute = set(brute_irreducible_quadratics(p))
            for c1 in range(p):
                for c0 in range(p):
                    got = zp_is_irreducible(p, [c0, c1, 1])
                    assert got == ((c0, c1, 1) in brute)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_zp_matches_brute_force_cubics_and_quartics(self, p):
        # degree 3: irreducible iff rootless; degree 4: also not a
        # product of two monic quadratics
        quadratics = list(itertools.product(range(p), repeat=2))
        products = set()
        for a0, a1 in quadratics:
            for b0, b1 in quadratics:
                products.add(((a0 * b0) % p, (a0 * b1 + a1 * b0) % p,
                              (a0 + b0 + a1 * b1) % p, (a1 + b1) % p, 1))
        for deg in (3, 4):
            for low in itertools.product(range(p), repeat=deg):
                f = low + (1,)
                rootless = all(sum(c * x ** i for i, c in enumerate(f)) % p
                               for x in range(p))
                want = rootless and f not in products
                assert zp_is_irreducible(p, f) is want, (p, f)

    @pytest.mark.parametrize("p,top", [(2, 8), (3, 6), (5, 5)])
    def test_irreducible_iff_no_monic_factorization(self, p, top):
        # every monic of degree d <= top: accepted iff not the product of
        # two monic factors of positive degree, as many as Gauss counts
        monics = {d: [low + (1,) for low in itertools.product(range(p), repeat=d)]
                  for d in range(1, top + 1)}
        for d, fs in monics.items():
            products = {tuple(poly_mul(a, b, p)) for e in range(1, d // 2 + 1)
                        for a in monics[e] for b in monics[d - e]}
            accepted = {f for f in fs if zp_is_irreducible(p, f)}
            assert accepted == set(fs) - products, (p, d)
            assert len(accepted) == monic_irreducible_count(p, d), (p, d)

    def test_lex_least_on_the_benchmark_fields(self):
        # the default moduli of the fields the benchmark builds: every
        # encoding printed over them depends on these
        pins = {
            (2, 10): (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
            (2, 12): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
            (2, 20): (1,) + (0,) * 16 + (1, 0, 0, 1),
            (2, 22): (1,) + (0,) * 20 + (1, 1),
            (3, 2): (1, 0, 1),
            (3, 4): (1, 0, 1, 1, 1),
            (3, 6): (1, 0, 0, 0, 1, 1, 1),
            (3, 7): (1, 0, 0, 0, 0, 1, 2, 1),
            (3, 8): (1, 0, 0, 0, 0, 1, 1, 0, 1),
            (3, 10): (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1),
            (3, 12): (1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1),
            (5, 4): (1, 0, 1, 1, 1),
            (5, 6): (1, 0, 0, 0, 1, 1, 1),
            (5, 8): (1, 0, 0, 0, 0, 1, 1, 0, 1),
            (5, 12): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 4, 1),
            (7, 4): (1, 0, 0, 1, 1),
            (7, 6): (1, 0, 0, 0, 1, 0, 1),
            (7, 12): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 3, 1),
            (7, 18): (1,) + (0,) * 15 + (1, 0, 1),
            (11, 6): (1, 0, 0, 0, 1, 1, 1),
            (11, 10): (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1),
            (13, 12): (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1),
        }
        assert {pn: lex_least_irreducible(*pn) for pn in pins} == pins


class TestFindRoot:
    def test_beta_of_quartic(self):
        ctx = build_field(3, 4)
        beta = bulk.find_root(ctx, (2, 2, 0, 0, 1))
        assert ctx.poly_eval((2, 2, 0, 0, 1), beta) == 0
        assert ctx.pow(beta, 4) == ctx.add(beta, 1)
        assert ctx.pow(beta, 80) == 1
        # least-encoding root: no smaller root exists
        for x in range(beta):
            assert ctx.poly_eval((2, 2, 0, 0, 1), x) != 0

    def test_root_of_x2_plus_1_in_f9(self, f9):
        i = f9.element((0, 1))
        assert bulk.find_root(f9, (1, 0, 1)) == min(i, f9.neg(i))

    def test_x2_plus_2_root_is_one(self, f81):
        assert bulk.find_root(f81, (2, 0, 1)) == 1  # 1 + 2 = 0 mod 3

    def test_no_root(self, f9):
        with pytest.raises(ValueError, match="no-root-found"):
            bulk.find_root(f9, (2, 2, 0, 0, 1))  # quartic cannot split in F_9

    @pytest.mark.parametrize("p,n", [(3, 8), (2, 12), (5, 4), (3, 6)])
    def test_subfield_search_against_whole_field(self, monkeypatch, p, n):
        # a monic irreducible F_p-polynomial of degree m | n, m < n, is
        # searched on the p^m elements of F_{p^m}; everything else, on all
        # q: the root found is the least-encoding root of the whole field
        ctx = build_field(p, n)
        X = bulk.elements(ctx)
        sizes = []
        poly_eval = bulk.poly_eval

        def recorded(ctx, coeffs, points):
            sizes.append(len(points))
            return poly_eval(ctx, coeffs, points)
        monkeypatch.setattr(bulk, "poly_eval", recorded)
        sub = [lex_least_irreducible(p, m) for m in range(1, n) if n % m == 0]
        sub.append((1, 1))
        # degree n, reducible, a coefficient outside F_p, not monic
        whole = [lex_least_irreducible(p, n), (0, 0, 1, 1), (ctx.generator, 1)]
        if p > 2:
            whole.append((1, 2))
        for coeffs, size in ([(c, p ** (len(c) - 1)) for c in sub]
                             + [(c, ctx.q) for c in whole]):
            del sizes[:]
            want = np.flatnonzero(poly_eval(ctx, coeffs, X) == 0)[0]
            assert bulk.find_root(ctx, coeffs) == want, coeffs
            assert sizes == [size], coeffs

    def test_beta_basis_is_independent(self):
        # {1, beta, beta^2, beta^3} spans: all 81 combinations distinct
        ctx = build_field(3, 4)
        beta = bulk.find_root(ctx, (2, 2, 0, 0, 1))
        bp = [1, beta, ctx.mul(beta, beta), ctx.mul(ctx.mul(beta, beta), beta)]
        seen = set()
        for c0 in range(3):
            for c1 in range(3):
                for c2 in range(3):
                    for c3 in range(3):
                        v = 0
                        for c, b in zip((c0, c1, c2, c3), bp):
                            v = ctx.add(v, ctx.mul(c, b))
                        seen.add(v)
        assert len(seen) == 81


class TestBackendAgreement:
    def test_full_cross_check_f81_and_f25(self):
        for (p, n) in ((3, 4), (5, 2)):
            ft = build_field(p, n)
            fg = build_field(p, n, backend="generic")
            q = p ** n
            for x in range(q):
                for y in range(q):
                    assert ft.add(x, y) == fg.add(x, y)
                    assert ft.mul(x, y) == fg.mul(x, y)
            for x in range(q):
                assert ft.neg(x) == fg.neg(x)
                assert ft.pow(x, 7) == fg.pow(x, 7)
                assert frobenius(ft, x, 1) == frobenius(fg, x, 1)
                assert trace(ft, x, 1) == trace(fg, x, 1)
                if x:
                    assert ft.inv(x) == fg.inv(x)
            assert ft.subfield_elements(1) == fg.subfield_elements(1)
            assert ft.neg_one_roots(1) == fg.neg_one_roots(1)

    @pytest.mark.parametrize("p,backend", [
        (2, "table"), (2, "generic"), (7, "table"), (7, "generic"),
        (4194319, "generic")])
    def test_prime_fields_match_integers_mod_p(self, p, backend):
        # F_p runs the extension-field paths (Zech or packed); every
        # operation against Python integers mod p
        ctx = build_field(p, 1, backend=backend)
        assert ctx.backend == backend
        rng = random.Random(p)
        xs = sorted({0, 1, p - 1} | {rng.randrange(p) for _ in range(40)})
        pairs = [(x, y) for x in xs for y in xs]
        assert [ctx.add(x, y) for x, y in pairs] == \
            [(x + y) % p for x, y in pairs]
        assert [ctx.sub(x, y) for x, y in pairs] == \
            [(x - y) % p for x, y in pairs]
        assert [ctx.mul(x, y) for x, y in pairs] == \
            [x * y % p for x, y in pairs]
        assert [ctx.neg(x) for x in xs] == [-x % p for x in xs]
        assert [ctx.inv(x) for x in xs if x] == \
            [pow(x, -1, p) for x in xs if x]
        # 0^0 = 1 and 0^e = 0 for e > 0, as Python's pow has them
        for e in (0, 1, 5, p - 1, 2 * (p - 1), 10 ** 30 + 7):
            assert [ctx.pow(x, e) for x in xs] == \
                [pow(x, e, p) for x in xs], e

    @pytest.mark.parametrize("p,n", [(3, 4), (2, 8), (5, 3), (257, 2), (3, 7),
                                     (2, 11), (65521, 1), (2039, 2), (2, 2),
                                     (2, 3), (2, 9), (2, 12), (2, 13)])
    def test_exp_table_blocks_against_twin(self, monkeypatch, p, n):
        # short blocks (7 rows; 4093 on F_2039^2): every doubling step and
        # the log and Zech fills span several blocks, most ending in a
        # short one.  The table field steps on encodings (odd n splits
        # unevenly, n = 1 multiplies mod p, p = 2 XORs two half-tables),
        # its generic twin on a digit matrix: int16 digits for p = 257 and
        # 2039, uint8 below
        q = p ** n
        monkeypatch.setattr(field_mod, "EXP_BLOCK", 7 if q < 1 << 17 else 4093)
        mod = lex_least_irreducible(p, n)
        ft = field_mod.FieldCtx(p, n, mod, "table")
        fg = build_field(p, n, mod, backend="generic")
        g = ft.generator
        assert np.array_equal(ft.exp_table, fg._powers(g, q - 1))
        monkeypatch.undo()
        assert np.array_equal(ft.exp_table, fg._powers(g, q - 1))
        if q > 1 << 17:
            return                      # too large for the scalar loop
        want, x = [], 1
        for _ in range(q - 1):
            want.append(x)
            x = fg.mul(x, g)
        assert x == 1
        assert ft.exp_table.tolist() == want
        assert fg.progression(g, q - 1).tolist() == want
        log = {x: i for i, x in enumerate(want)}
        assert ft.log_table.tolist() == [-1] + [log[x] for x in range(1, q)]
        assert ft.zech_table.tolist() == [log.get(fg.add(1, x), -1)
                                          for x in want]
        assert np.array_equal(ft.exp_table, build_field(p, n).exp_table)

    @pytest.mark.parametrize("p,n", [(2, 22), (2, 20), (3, 13), (4194301, 1)])
    def test_exp_table_matches_pow_at_samples(self, p, n):
        # the largest table fields, past the scalar twin: exp_table[i]
        # against packed-integer powers of g at 2000 seeded i
        ctx = field_mod.FieldCtx(p, n, lex_least_irreducible(p, n), "table")
        idx = np.random.default_rng(p + n).integers(0, ctx.q - 1, 2000)
        assert [int(ctx.exp_table[i]) for i in idx] == \
            [ctx._pow_generic(ctx.generator, int(i)) for i in idx]

    @pytest.mark.parametrize("p,n", [(2, 22), (3, 13), (11, 6), (5, 8),
                                     (7, 7)])
    def test_zech_reverse_half_at_samples(self, p, n):
        # Z[i] for i in [H, N), H = N // 2 + 1, is filled from
        # Z[N - i] = Z[i] - i: at 2000 seeded i there, g^Z[i] = 1 + g^i by
        # packed-integer powers, with no table read but Z[i].  1 + g^i = 0
        # only at i = 0 or N/2, both below H
        ctx = build_field(p, n)
        N, g = ctx.q - 1, ctx.generator
        idx = np.random.default_rng(p + n).integers(N // 2 + 1, N, 2000)
        z = ctx.zech_table[idx]
        assert (z >= 0).all()
        assert [ctx._pow_generic(g, j) for j in z.tolist()] == \
            [field_mod._plus_one(ctx._pow_generic(g, i), p)
             for i in idx.tolist()]

    @pytest.mark.parametrize("p,n", [(2, 22), (3, 13), (11, 6), (5, 8),
                                     (7, 7)])
    def test_zech_frobenius_identity(self, p, n):
        # 1 + g^(p i) = (1 + g^i)^p, so Z[p i mod N] = p Z[i] mod N on the
        # whole table, -1 kept: an identity the build does not use
        ctx = build_field(p, n)
        N, zech = ctx.q - 1, ctx.zech_table.astype(np.int64)
        want = np.where(zech < 0, -1, zech * p % N)
        assert np.array_equal(zech[np.arange(N, dtype=np.int64) * p % N],
                              want)

    @pytest.mark.parametrize("p,n,backend,dtype", [
        (3, 12, "table", np.uint8), (2, 22, "table", np.uint8),
        (11, 6, "table", np.int16), (127, 2, "table", np.int16),
        (257, 2, "table", np.int32), (2039, 2, "table", np.int32),
        (65521, 1, "table", np.int64),
        (2 ** 61 - 1, 2, "generic", object)])
    def test_step_matrices_against_twin(self, monkeypatch, p, n, backend,
                                        dtype):
        # _powers squares the digit map of ratio after each doubling step;
        # every step's matrix equals the digit map of ratio^(2^j) built by
        # generic products, in each dtype _holding(n (p - 1)^2) picks.  The
        # table fields list their exp table again, the generic one a
        # subgroup of order 15015 (= 3 5 7 11 13, dividing 2^60 - 1)
        ctx = build_field(p, n, backend=backend)
        seen = []

        def recorded(steps):
            def step(M):
                seen.append(M.copy())
                return steps(M)
            return step

        if backend == "table":
            real = ctx._encoding_steps
            monkeypatch.setattr(ctx, "_encoding_steps",
                                lambda: recorded(real()))
            ratio, count = ctx.generator, ctx.q - 1
            assert np.array_equal(ctx._powers(ratio, count), ctx.exp_table)
        else:
            monkeypatch.setattr(ctx, "_matrix_step",
                                recorded(ctx._matrix_step))
            ratio, count = ctx.subgroup_generator(15015), 15015
            listing = ctx.mu_subgroup(count)
            assert all(ctx.mul(listing[i], ratio) == listing[i + 1]
                       for i in range(0, count - 1, 997))
        assert len(seen) == (count - 1).bit_length()
        assert all(M.dtype == np.dtype(dtype) for M in seen)
        want = step_matrices_by_products(ctx, ratio, len(seen))
        for j, (got, M) in enumerate(zip(seen, want)):
            assert np.array_equal(got, M), j

    @pytest.mark.parametrize("p,n", [(2, 16), (2, 17), (65521, 1)])
    def test_build_peak_memory(self, monkeypatch, p, n):
        # with 2^12-row blocks, the build's temporaries stay under a quarter
        # of the exp, log and Zech bytes: a full-size int64 temporary adds
        # 8q bytes (0.4 of them), a 2^17-entry normalising table for
        # F_65521 about 0.8 of them
        monkeypatch.setattr(field_mod, "EXP_BLOCK", 1 << 12)
        monkeypatch.setattr(field_mod, "_FIELD_CACHE", {})
        tracemalloc.start()
        try:
            ctx = build_field(p, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tables = (ctx.exp_table.nbytes + ctx.log_table.nbytes
                  + ctx.zech_table.nbytes)
        assert peak < 1.25 * tables
        # three int32 tables: 12 bytes per element, and no q-length int64
        # array (8q bytes) alongside them
        assert peak < 1.25 * 12 * ctx.q

    @pytest.mark.parametrize("p,n", [(3, 4), (5, 4), (2, 8), (3, 8), (7, 4),
                                     (13, 4), (5, 8), (3, 12), (11, 6),
                                     (2, 20), (2, 22), (2, 16), (65521, 1)])
    def test_tables_are_int32(self, p, n):
        ctx = build_field(p, n)
        assert [t.dtype for t in (ctx.exp_table, ctx.log_table,
                                  ctx.zech_table)] == [np.dtype(np.int32)] * 3

    @pytest.mark.parametrize("p,n", [(3, 4), (5, 2), (2, 6), (7, 2), (2, 8),
                                     (5, 8), (2, 1), (7, 1)])
    def test_table_lengths(self, p, n):
        # exp and Zech are gathered mod q - 1 by their length (mode="wrap",
        # negative scalar indices), and the log table is never
        ctx = build_field(p, n)
        assert (len(ctx.exp_table), len(ctx.zech_table), len(ctx.log_table)) \
            == (ctx.q - 1, ctx.q - 1, ctx.q)

    @pytest.mark.parametrize("p,n", [(2, 1), (7, 1), (3, 4)])
    def test_table_length_check_raises(self, monkeypatch, p, n):
        # one exp entry too many: with one-row blocks the fill loops never
        # read it, and only the length check sees it
        powers = field_mod.FieldCtx._powers
        monkeypatch.setattr(field_mod, "EXP_BLOCK", 1)
        monkeypatch.setattr(field_mod.FieldCtx, "_powers", lambda self, g, c:
                            np.append(powers(self, g, c), 1).astype(np.int32))
        mod = lex_least_irreducible(p, n)
        with pytest.raises(InternalError, match="table lengths"):
            field_mod.FieldCtx(p, n, mod, "table")

    @pytest.mark.parametrize("p,n", [(3, 4), (5, 2), (2, 6), (7, 2), (2, 1),
                                     (7, 1)])
    def test_scalar_ops_return_int(self, p, n):
        ctx = build_field(p, n)
        N = ctx.q - 1
        for x, y in [(1, 1), (ctx.q - 1, ctx.q - 1), (ctx.p % ctx.q, ctx.q - 1),
                     (1, ctx.neg(1)), (0, 1), (1, 0)]:
            outs = [ctx.add(x, y), ctx.mul(x, y), ctx.sub(x, y), ctx.neg(x),
                    ctx.pow(x, 3), ctx.pow(x, 10 ** 30)]
            if x:
                outs.append(ctx.inv(x))
            assert all(type(v) is int for v in outs), (x, y, outs)
        gens = [ctx.subgroup_generator(s) for s in range(1, N + 1) if N % s == 0]
        assert all(type(g) is int for g in gens)

    def test_table_views_are_read_only(self, f81):
        for view, table in [(f81._exp, f81.exp_table), (f81._log, f81.log_table),
                            (f81._zech, f81.zech_table)]:
            assert view.readonly and np.shares_memory(np.asarray(view), table)
            assert view.tolist() == table.tolist()
            with pytest.raises(TypeError):
                view[1] = 0
        assert f81.exp_table.flags.writeable    # the views leave it alone

    def test_subfield_zero_log_fits_int32(self):
        # SubfieldView.logs writes -5(q - 1) into a gathered int32 log row
        assert 5 * field_mod.TABLE_CAP < 2 ** 31

    def test_prime_check(self):
        assert is_prime(2) and is_prime(13) and is_prime(2 ** 31 - 1)
        assert not is_prime(1) and not is_prime(9) and not is_prime(2 ** 32 + 1)

    def test_zech_table_matches_generic_add(self):
        for (p, n) in ((3, 4), (5, 2), (2, 6), (2, 1), (3, 1), (7, 1), (2, 8),
                       (2, 11)):
            ft = build_field(p, n)
            fg = build_field(p, n, ft.modulus, backend="generic")
            N = ft.q - 1
            for i in range(N):
                s = fg.add(1, int(ft.exp_table[i]))
                want = -1 if s == 0 else int(ft.log_table[s])
                assert int(ft.zech_table[i]) == want, (p, n, i)

    def test_plus_one_p2_is_the_digit_formula(self):
        # the XOR form of 1 + e against the base-p formula it replaces
        def formula(e):
            return e + 1 - 2 * (e % 2 == 1)

        assert [field_mod._plus_one(e, 2) for e in range(64)] == \
            [formula(e) for e in range(64)]
        E = np.arange(1 << 12, dtype=np.int32)
        got = field_mod._plus_one(E, 2)
        assert got.dtype == np.int32
        assert np.array_equal(got, formula(E))

    def test_log_exp_roundtrip(self, f81, f625):
        for ctx in (f81, f625):
            for x in range(1, ctx.q):
                assert int(ctx.exp_table[int(ctx.log_table[x])]) == x
            assert int(ctx.log_table[0]) == -1
            g = ctx.generator
            # the generator really has full multiplicative order
            assert ctx.pow(g, ctx.q - 1) == 1
            for ell in (2, 3, 5, 7):
                if (ctx.q - 1) % ell == 0:
                    assert ctx.pow(g, (ctx.q - 1) // ell) != 1


def _view_cases():
    for p, n in ((3, 4), (5, 4), (3, 8)):
        for k in range(1, n + 1):
            if n % k == 0:
                yield p, n, k, "table"
    for p, n in ((3, 4), (7, 6)):
        for k in range(1, n + 1):
            # F_7^6 itself has too many points for scalar Horner here
            if n % k == 0 and p ** k <= 1 << 13:
                yield p, n, k, "generic"
    yield 7, 30, 2, "generic"       # F_49 encodings in F_7^30 pass int64


def _rows_with_zeros(rng, elems, D):
    """Random encoding rows of length D, plus the all-zero row and a row
    whose first coefficient c is nonzero and the rest zero: at x = -c its
    Horner steps meet a zero accumulator and a zero coefficient together."""
    rows = [[rng.choice(elems) for _ in range(D)] for _ in range(2)]
    return rows + [[0] * D, [rng.choice(elems[1:])] + [0] * (D - 1)]


def listed_view_arrays(ctx, k):
    # the listing build of a view: F_{p^k}^* as powers of the same zeta
    # through mu_subgroup, sorted and indexed, Z read through the index
    m = ctx.p ** k - 1
    powers = ctx.mu_subgroup(m)
    elems = sorted((0,) + powers)
    index = {e: i for i, e in enumerate(elems)}
    log = np.full(m + 1, -5 * m, dtype=np.int32)
    log[[index[z] for z in powers]] = np.arange(m, dtype=np.int32)
    zech = log[[index[ctx.add(1, z)] for z in powers]]
    zech[zech < 0] = 3 * m
    zech_vec = np.concatenate([zech, zech, np.zeros(3 * m, np.int32),
                               np.arange(5 * m, 9 * m, dtype=np.int32), zech])
    reduce_vec = np.concatenate([np.arange(m, dtype=np.int32)] * 2 +
                                [np.full(2 * m, 3 * m, np.int32)])
    return elems, log, zech_vec, reduce_vec


def _outside(ctx, k):
    # the least encoding outside F_{p^k}
    return next(x for x in range(1, ctx.q) if not ctx.in_subfield(x, k))


class TestSubfieldView:
    @pytest.mark.parametrize("p,n,k,backend", list(_view_cases()))
    def test_tables_match_scalar_arithmetic(self, p, n, k, backend):
        # the view's log-domain Horner against scalar Horner at every
        # nonzero point zeta^t, with zero as the log 3m
        ctx = build_field(p, n, backend=backend)
        view = SubfieldView(ctx, k)     # uncached: F_3^8's own view is large
        m = view.order - 1
        zeta = ctx.subgroup_generator(m)
        point = [ctx.pow(zeta, t) for t in range(m)]
        log = {x: t for t, x in enumerate(point)}
        elems = [0] + sorted(point)
        assert len(log) == m and all(ctx.in_subfield(e, k) for e in elems)
        assert view.logs(elems).tolist() == [-5 * m] + [log[e] for e in elems[1:]]
        rng = random.Random(p * 100 + n * 10 + k)
        for D in range(1, 4):
            rows = _rows_with_zeros(rng, elems, D)
            got = view.eval_poly_rows(view.logs(rows))
            assert got.shape == (len(rows), m)
            for row, logs in zip(rows, got.tolist()):
                want = []
                for t in range(m):
                    acc = 1
                    for c in row:
                        acc = ctx.add(ctx.mul(acc, point[t]), c)
                    want.append(3 * m if acc == 0 else log[acc])
                assert logs == want, row

    @pytest.mark.parametrize("p,n,k", [(3, 4, 2), (3, 4, 4), (2, 6, 3),
                                       (5, 2, 2), (7, 2, 1), (5, 6, 6)])
    def test_permutes_matches_brute_force(self, p, n, k):
        ctx = build_field(p, n)
        view = ctx.subfield_view(k)
        elems = list(ctx.subfield_elements(k))
        rng = random.Random(p * 100 + n * 10 + k)
        rows = [[rng.choice(elems) for _ in range(rng.randrange(1, 5))]
                for _ in range(60)]
        # x^(D+1) is a permutation whenever gcd(D+1, p^k-1) = 1
        rows += [[0] * D for D in range(1, 6)]
        for D in range(2, 5):
            rows += _rows_with_zeros(rng, elems, D)
        got = []
        for D in sorted({len(r) for r in rows}):
            batch = [r for r in rows if len(r) == D]
            got += list(zip(batch, view.permutes(batch)))
        X = np.array(elems, dtype=np.int64)
        for row, ok in got:
            # x m(x) by bulk Horner over every subfield point
            coeffs = (0,) + tuple(reversed(row)) + (1,)
            values = np.sort(bulk.poly_eval(ctx, coeffs, X))
            assert bool(ok) == np.array_equal(values, X), row
        verdicts = {bool(ok) for _, ok in got}
        assert verdicts == {True, False}

    @pytest.mark.parametrize("p,n", [(3, 4), (5, 4), (2, 8), (3, 8), (7, 4),
                                     (13, 4)])
    def test_gathered_arrays_match_listing(self, p, n):
        # the slow twin of the table-field view: every array gathered from
        # the ambient tables equals the one built by listing F_{p^k}^*
        ctx = build_field(p, n)
        for k in (k for k in range(1, n + 1) if n % k == 0):
            view = SubfieldView(ctx, k)
            elems, log, zech_vec, reduce_vec = listed_view_arrays(ctx, k)
            assert view._zech.dtype == view._reduce.dtype == np.int32
            assert np.array_equal(view._zech, zech_vec), k
            assert np.array_equal(view._reduce, reduce_vec), k
            assert np.array_equal(view.logs(elems), log), k

    def test_table_view_lists_nothing(self, monkeypatch):
        ctx = build_field(3, 8)
        monkeypatch.setattr(ctx, "mu_subgroup",
                            lambda s: pytest.fail("listed a subgroup"))
        for k in (1, 2, 4, 8):
            assert SubfieldView(ctx, k).permutes([[0, 0]]).tolist() == [True]

    @pytest.mark.parametrize("backend", ["table", "generic"])
    def test_logs_rejects_entries_outside(self, backend):
        ctx = build_field(3, 4, backend=backend)
        for k in (1, 2):
            view = SubfieldView(ctx, k)
            x = _outside(ctx, k)
            for encs in ([x], [[1, 0], [x, 2]]):
                with pytest.raises(InternalError, match="left the subfield"):
                    view.logs(encs)
            with pytest.raises(InternalError, match="left the subfield"):
                view.permutes([[0, x]])

    def test_logs_of_a_field_length_array(self):
        # the traces of F_3^12 onto F_3^6: logs hold one int32 array and
        # one byte per entry for the remainders, 5q bytes traced beside
        # the int64 input
        ctx = build_field(3, 12)
        T = bulk.trace(ctx, bulk.elements(ctx), 6)
        m = 3 ** 6 - 1
        view = ctx.subfield_view(6)
        tracemalloc.start()
        try:
            L = view.logs(T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * ctx.q
        zero = T == 0
        assert L.dtype == np.int32 and (L[zero] == -5 * m).all()
        zeta_powers = np.asarray(ctx.mu_subgroup(m))
        assert np.array_equal(zeta_powers[L[~zero]], T[~zero])

    def test_view_cap(self, monkeypatch):
        # F_2^23 is past TABLE_CAP: refused before F_{2^23}^* is enumerated
        ctx = build_field(2, 46)
        monkeypatch.setattr(ctx, "mu_subgroup",
                            lambda s: pytest.fail("enumerated past the cap"))
        with pytest.raises(CapExceeded, match="cap-exceeded"):
            ctx.subfield_view(23)

    def test_norm_permutes_builds_no_horner_tables(self):
        # the F_3^10 self-view and one norm_permutes row stay under 48
        # bytes a point, temporaries included: the view's 14m-entry
        # Horner tables are never built (with them, a permutes call of
        # one row peaks at 84)
        ctx = build_field(3, 10)
        tracemalloc.start()
        try:
            view = SubfieldView(ctx, 10)
            got = view.norm_permutes([ctx.generator], bulk.CHECK_BLOCK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tolist() == [False]
        assert peak < 48 * ctx.q

    def test_norm_permutes_refuses_zero(self):
        view = build_field(3, 4).subfield_view(1)
        with pytest.raises(ValueError, match="zero-coefficient"):
            view.norm_permutes([1, 0], bulk.CHECK_BLOCK)

    def test_state_is_linear_in_the_order(self):
        # the F_3^12 self-view allocates at most 96 bytes per element,
        # temporaries included: nothing listed, sorted or put in a dict
        ctx = build_field(3, 12)
        tracemalloc.start()
        try:
            view = SubfieldView(ctx, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert view.order == 3 ** 12
        assert peak <= 96 * view.order
