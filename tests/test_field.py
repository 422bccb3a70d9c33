"""Field construction, arithmetic, Frobenius/trace/subfield machinery.

Oracles here are independent of the code paths they check: brute-force
enumeration, hand-expanded identities, and textbook facts about small
fields.
"""

import random

import pytest

from cppforge.field import (SubfieldView, build_field, lex_least_irreducible,
                            is_prime, parse_field_spec, zp_is_irreducible)


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

    def test_spec_string_roundtrip(self):
        ctx = build_field(3, 4, (2, 2, 0, 0, 1))
        p, n, mod = parse_field_spec(ctx.spec_string())
        assert (p, n, tuple(mod)) == (3, 4, ctx.modulus)


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


class TestFrobeniusTrace:
    def test_frobenius_identity_power(self, f81):
        for x in range(0, 81, 7):
            assert f81.frobenius(x, 0) == x

    def test_frobenius_of_i(self, f9):
        i = f9.element((0, 1))
        assert f9.frobenius(i, 1) == f9.element((0, 2))  # i^3 = -i

    def test_frobenius_roundtrip(self, f81):
        for x in range(81):
            assert f81.frobenius(f81.frobenius(x, 1), 3) == x

    def test_frobenius_is_automorphism(self, f81):
        rng = random.Random(7)
        for _ in range(100):
            x, y = rng.randrange(81), rng.randrange(81)
            fx, fy = f81.frobenius(x, 1), f81.frobenius(y, 1)
            assert f81.frobenius(f81.add(x, y), 1) == f81.add(fx, fy)
            assert f81.frobenius(f81.mul(x, y), 1) == f81.mul(fx, fy)

    def test_trace_values_f9(self, f9):
        i = f9.element((0, 1))
        assert f9.trace(i) == 0        # i + i^3 = i - i
        assert f9.trace(1) == 2        # 1 + 1

    def test_trace_additive_and_fixed(self, f81):
        rng = random.Random(11)
        for _ in range(100):
            x, y = rng.randrange(81), rng.randrange(81)
            assert f81.trace(f81.add(x, y)) == f81.add(f81.trace(x), f81.trace(y))
        for k in (1, 2):
            for x in range(0, 81, 5):
                t = f81.trace(x, k)
                assert f81.frobenius(t, k) == t

    def test_trace_subfield_linear(self, f81):
        for c in f81.subfield_elements(1):
            for x in range(0, 81, 11):
                assert f81.trace(f81.mul(c, x), 1) == f81.mul(c, f81.trace(x, 1))

    def test_trace_bad_divisor(self, f81):
        with pytest.raises(ValueError, match="k-not-divisor"):
            f81.trace(5, 3)


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

    def test_neg_one_roots_p2_literal(self):
        f64 = build_field(2, 6)
        # -1 = 1: the literal solution set of a^(2^2-1) = 1
        brute = tuple(sorted(a for a in range(1, 64) if f64.pow(a, 3) == 1))
        assert f64.neg_one_roots(2) == brute

    def test_unit_subgroup_orders(self, f625):
        mu = f625.mu_subgroup(26)
        assert len(set(mu)) == 26
        assert all(f625.pow(x, 26) == 1 for x in mu)


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
    def test_x4_minus_x_minus_1_over_f3(self, f81):
        assert f81.is_irreducible((2, 2, 0, 0, 1), 1) is True

    def test_x6_plus_x_plus_2(self):
        for p in (3, 5):
            ctx = build_field(p, 6)
            assert ctx.is_irreducible((2, 1, 0, 0, 0, 0, 1), 1) is True

    def test_x2_plus_1_over_f5(self, f25):
        # 2^2 = 4 = -1 mod 5: a root exists
        assert f25.is_irreducible((1, 0, 1), 1) is False

    def test_not_monic(self, f9):
        with pytest.raises(ValueError, match="not-monic"):
            f9.is_irreducible((1, 2), 1)

    def test_zp_matches_brute_force_quadratics(self):
        for p in (3, 5, 7):
            brute = set(brute_irreducible_quadratics(p))
            for c1 in range(p):
                for c0 in range(p):
                    got = zp_is_irreducible(p, [c0, c1, 1])
                    assert got == ((c0, c1, 1) in brute)

    def test_irreducible_persistence_coprime_degree(self):
        # a cubic stays irreducible over F_{p^k} iff gcd(k, 3) = 1
        f26 = build_field(3, 6)
        cubic = lex_least_irreducible(3, 3)
        assert f26.is_irreducible(cubic, 1) is True
        assert f26.is_irreducible(cubic, 2) is True  # gcd(2,3)=1
        assert f26.is_irreducible(cubic, 3) is False  # roots exist in F_27


class TestFindRoot:
    def test_beta_of_quartic(self):
        ctx = build_field(3, 4)
        beta = ctx.find_root((2, 2, 0, 0, 1))
        assert ctx.poly_eval((2, 2, 0, 0, 1), beta) == 0
        assert ctx.pow(beta, 4) == ctx.add(beta, 1)
        assert ctx.pow(beta, 80) == 1
        # least-encoding root: no smaller root exists
        for x in range(beta):
            assert ctx.poly_eval((2, 2, 0, 0, 1), x) != 0

    def test_root_of_x2_plus_1_in_f9(self, f9):
        i = f9.element((0, 1))
        assert f9.find_root((1, 0, 1)) == min(i, f9.neg(i))

    def test_x2_plus_2_root_is_one(self, f81):
        assert f81.find_root((2, 0, 1)) == 1  # 1 + 2 = 0 mod 3

    def test_no_root(self, f9):
        with pytest.raises(ValueError, match="no-root-found"):
            f9.find_root((2, 2, 0, 0, 1))  # quartic cannot split in F_9

    def test_beta_basis_is_independent(self):
        # {1, beta, beta^2, beta^3} spans: all 81 combinations distinct
        ctx = build_field(3, 4)
        beta = ctx.find_root((2, 2, 0, 0, 1))
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
                assert ft.frobenius(x, 1) == fg.frobenius(x, 1)
                assert ft.trace(x, 1) == fg.trace(x, 1)
                if x:
                    assert ft.inv(x) == fg.inv(x)
            assert ft.subfield_elements(1) == fg.subfield_elements(1)
            assert ft.neg_one_roots(1) == fg.neg_one_roots(1)

    def test_prime_check(self):
        assert is_prime(2) and is_prime(13) and is_prime(2 ** 31 - 1)
        assert not is_prime(1) and not is_prime(9) and not is_prime(2 ** 32 + 1)

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
            # F_7^6 itself is above the view cap
            if n % k == 0 and p ** k <= 1 << 13:
                yield p, n, k, "generic"


class TestSubfieldView:
    @pytest.mark.parametrize("p,n,k,backend", list(_view_cases()))
    def test_tables_match_scalar_arithmetic(self, p, n, k, backend):
        ctx = build_field(p, n, backend=backend)
        view = SubfieldView(ctx, k)     # uncached: F_3^8's own view is large
        elems, idx = view.elems, view.index
        assert len(elems) == p ** k and elems[0] == 0
        assert all(ctx.in_subfield(e, k) for e in elems)
        # every pair up to 625 elements; a fixed sample of rows of F_3^8
        rows = range(view.order) if view.order <= 625 else \
            random.Random(k).sample(range(view.order), 24)
        for i in rows:
            x = elems[i]
            assert [int(v) for v in view.add_table[i]] == \
                [idx[ctx.add(x, y)] for y in elems], (i,)
            assert [int(v) for v in view.mul_table[i]] == \
                [idx[ctx.mul(x, y)] for y in elems], (i,)
        assert [int(v) for v in view.neg_table] == \
            [idx[ctx.neg(x)] for x in elems]

    @pytest.mark.parametrize("p,n,k", [(3, 4, 2), (3, 4, 4), (2, 6, 3),
                                       (5, 2, 2), (7, 2, 1)])
    def test_permutes_matches_brute_force(self, p, n, k):
        ctx = build_field(p, n)
        view = ctx.subfield_view(k)
        elems = view.elems
        rng = random.Random(p * 100 + n * 10 + k)
        rows = [[rng.randrange(view.order) for _ in range(rng.randrange(1, 5))]
                for _ in range(60)]
        # x^(D+1) is a permutation whenever gcd(D+1, p^k-1) = 1
        rows += [[0] * D for D in range(1, 6)]
        got = []
        for D in sorted({len(r) for r in rows}):
            batch = [r for r in rows if len(r) == D]
            got += list(zip(batch, view.permutes(batch)))
        for row, ok in got:
            values = []
            for x in elems:
                acc = 1
                for c in row:
                    acc = ctx.add(ctx.mul(acc, x), elems[c])
                values.append(ctx.mul(acc, x))
            assert bool(ok) == (sorted(values) == list(elems)), row
        verdicts = {bool(ok) for _, ok in got}
        assert verdicts == {True, False}

    def test_view_cap(self):
        with pytest.raises(ValueError, match="cap-exceeded"):
            build_field(7, 5).subfield_view(5)
