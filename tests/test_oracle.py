"""Permutation/CPP oracles and the criteria they are validated against."""

import random

import numpy as np
import pytest

from cppforge import bulk
from cppforge.field import CapExceeded, build_field
from cppforge.niho import direct_walsh
from cppforge.oracle import (is_cpp, is_cpp_exponent_pair, is_permutation,
                             trace_counts)
from twins import (autocorrelation, binomial_values, char_sum_pp_check,
                   int_value, mu_permutation_check, norm2,
                   subfield_product_check, tabulate, trace)


def brute_is_permutation(ctx, fn):
    return sorted(fn(x) for x in range(ctx.q)) == list(range(ctx.q))


class TestPermutation:
    def test_identity(self, f9):
        assert is_permutation(f9, np.arange(9))

    def test_cube_over_f7(self):
        f7 = build_field(7, 1)
        # x^3 is not a bijection since 7 = 1 mod 3
        assert not is_permutation(f7, binomial_values(f7, 3))

    def test_x5_plus_x_over_f3(self):
        f3 = build_field(3, 1)
        assert is_permutation(f3, binomial_values(f3, 5, 1))

    def test_scalar_and_vector_paths_agree(self, f81):
        # a table tabulated point by point and the same table as an array
        rng = random.Random(3)
        for _ in range(20):
            perm = list(range(81))
            rng.shuffle(perm)
            scalar = tabulate(f81, perm.__getitem__)
            assert is_permutation(f81, scalar) == \
                is_permutation(f81, np.array(perm)) is True
        not_perm = [0] * 81
        assert not is_permutation(f81, tabulate(f81, not_perm.__getitem__))


class TestCpp:
    def test_identity_is_cpp_odd_char(self, f9):
        # x and 2x are both bijections when p != 2
        assert is_cpp(f9, np.arange(9))

    def test_identity_not_cpp_char2(self):
        f4 = build_field(2, 2)
        assert not is_cpp(f4, np.arange(4))

    def test_niho_cpp_over_f9(self, f9):
        i = f9.element((0, 1))
        inv_i = f9.inv(i)
        assert is_cpp(f9, tabulate(f9, lambda x: f9.mul(inv_i, f9.pow(x, 5))))

    def test_one_value_table_per_check(self, f9, monkeypatch):
        # f is tested on the table it is given, and f(x) + x is read off
        # that table; when f is no permutation the second check is skipped
        real = bulk.values_are_permutation
        for table, want in ((np.arange(9), True), (np.zeros(9, dtype=np.int64),
                                                    False)):
            calls = []

            def recording(ctx, vals):
                calls.append(vals)
                return real(ctx, vals)
            monkeypatch.setattr(bulk, "values_are_permutation", recording)
            assert is_cpp(f9, table) is want
            assert calls[0] is table
            assert len(calls) == (2 if want else 1)

    def test_sum_streamed_in_blocks_against_brute(self, monkeypatch, f81):
        # f(x) + x reaches the predicate in slices of CHECK_BLOCK points
        # (81 = 11 * 7 + 4: the last slice is short); the verdict is the
        # brute-force one on scalar sums
        monkeypatch.setattr(bulk, "CHECK_BLOCK", 7)
        verdicts = set()
        for d in (1, 3, 7, 41):
            for c in range(1, 81):
                table = [f81.mul(c, f81.pow(x, d)) for x in range(81)]
                want = brute_is_permutation(f81, lambda x: f81.add(table[x], x))
                assert is_cpp(f81, np.array(table)) is want, (d, c)
                verdicts.add(want)
        assert verdicts == {True, False}

    def test_exponent_pair_f9(self, f9):
        i = f9.element((0, 1))
        assert is_cpp_exponent_pair(f9, 5, i)
        # equivalent formulation: a^(-1) x^d and a^(-1) x^d + x both bijective
        inv_i = f9.inv(i)
        assert is_cpp(f9, tabulate(f9, lambda x: f9.mul(inv_i, f9.pow(x, 5))))

    def test_exponent_pair_gcd_failure(self, f9):
        assert not is_cpp_exponent_pair(f9, 2, 1)
        # gcd(14, 26) = 2, though x^14 + 4x permutes F_27
        f27 = build_field(3, 3)
        assert bulk.binomial_is_permutation(f27, 14, 4)
        assert not is_cpp_exponent_pair(f27, 14, 4)
        # d = 0 on F_2: gcd(0, 1) = 1, yet x^0 = 1 is constant
        f2 = build_field(2, 1)
        assert bulk.monomial_values(f2, 0).tolist() == [1, 1]
        assert not is_cpp_exponent_pair(f2, 0, 1)

    def test_zero_coefficient_rejected(self, f9):
        with pytest.raises(ValueError, match="zero-coefficient"):
            is_cpp_exponent_pair(f9, 5, 0)

    def test_exponent_pair_generic_field_is_a_cap(self):
        # no value table on a generic-backend field: a cap, not a verdict
        gen = build_field(3, 4, backend="generic")
        with pytest.raises(CapExceeded, match="field-too-large"):
            is_cpp_exponent_pair(gen, 41, 1)

    def test_exponent_pair_matches_brute_force(self, f81):
        d = 41
        for a in range(1, 81):
            brute = brute_is_permutation(
                f81, lambda x: f81.add(f81.pow(x, d), f81.mul(a, x)))
            assert is_cpp_exponent_pair(f81, d, a) == brute

    def test_scaling_preserves_permutation(self, f9):
        # pre/post-composing with x -> c x never changes bijectivity
        rng = random.Random(79)
        for _ in range(20):
            vals = [rng.randrange(9) for _ in range(9)]
            base = is_permutation(f9, np.array(vals))
            for c in range(1, 9):
                pre = tabulate(f9, lambda x: vals[f9.mul(c, x)])
                post = tabulate(f9, lambda x: f9.mul(c, vals[x]))
                assert is_permutation(f9, pre) == base == \
                    is_permutation(f9, post)


class TestCharSum:
    def test_identity_all_sums_vanish(self, f9):
        assert char_sum_pp_check(f9, np.arange(9))
        # each inner sum is zero: all p counts of Tr(alpha*x) are equal
        C = direct_walsh(f9, np.zeros(9, dtype=np.int64), range(1, 9))
        assert C.shape == (8, 3)
        assert (C == C[:, :1]).all()

    def test_cube_over_f7_fails(self):
        f7 = build_field(7, 1)
        assert not char_sum_pp_check(f7, binomial_values(f7, 3))

    def test_agrees_with_bitmap_on_binomials(self, f9):
        for a in range(9):
            vals = binomial_values(f9, 5, a)
            assert char_sum_pp_check(f9, vals) == is_permutation(f9, vals)

    def test_agrees_on_random_maps(self, f9):
        rng = random.Random(5)
        for _ in range(100):
            vals = np.array([rng.randrange(9) for _ in range(9)])
            assert char_sum_pp_check(f9, vals) == is_permutation(f9, vals)

    def test_cap(self):
        big = build_field(3, 10)
        with pytest.raises(ValueError, match="field-too-large-for-charsum"):
            char_sum_pp_check(big, bulk.elements(big))


class TestZieveCriteria:
    def test_mu_check_known_instance(self, f9):
        # x^d + a x = x(x^((p+1)(p-1)/2) + a) with d = 5, p = 3, k = 1:
        # l=1, g(y) = y^((p-1)/2... here (3-1)/2=1) + a over mu_2
        i = f9.element((0, 1))
        assert mu_permutation_check(f9, 1, [i, 1], 2)

    def test_mu_check_scaling(self, f25):
        for c in (1, 2, 7):
            assert mu_permutation_check(f25, 1, [c], 6)

    def test_mu_check_not_divisor(self, f9):
        with pytest.raises(ValueError, match="s-not-divisor"):
            mu_permutation_check(f9, 1, [1], 3)

    def test_mu_consistency_with_direct(self, f9, f25):
        # f(x) = x^l g(x^((q-1)/s)) permutes the field iff the mu-criterion
        # holds (checked by brute force over random l, g)
        rng = random.Random(17)
        for ctx in (f9, f25):
            q = ctx.q
            for _ in range(20):
                l = rng.randrange(1, 8)
                s = rng.choice([s for s in range(2, q) if (q - 1) % s == 0])
                g = [rng.randrange(q) for _ in range(rng.randrange(1, 4))]
                if ctx.poly_eval(g, 0) == 0 and all(c == 0 for c in g):
                    continue
                cof = (q - 1) // s
                fn = lambda x: ctx.mul(ctx.pow(x, l),
                                       ctx.poly_eval(g, ctx.pow(x, cof)))
                assert mu_permutation_check(ctx, l, g, s) == \
                    brute_is_permutation(ctx, fn), (ctx.p, l, s, g)

    def test_subfield_check_ha_connection(self, f81):
        # l = 1, g(x) = x + a: the product criterion coincides with h_a
        # permuting the subfield
        from cppforge.hadickson import ha_pp_check
        for a in range(81):
            assert subfield_product_check(f81, 1, [a, 1], 1) == \
                ha_pp_check(f81, a, 4, 1)

    def test_subfield_check_constant_g(self, f81):
        assert subfield_product_check(f81, 1, [1], 1)
        # gcd(l, (q-1)/(p-1)) = gcd(2, 40) fails
        assert not subfield_product_check(f81, 2, [1], 1)

    def test_subfield_consistency_with_direct(self, f81):
        rng = random.Random(23)
        cof = 80 // 2
        for _ in range(20):
            l = rng.randrange(1, 6)
            g = [rng.randrange(81) for _ in range(rng.randrange(1, 4))]
            fn = lambda x: f81.mul(f81.pow(x, l),
                                   f81.poly_eval(g, f81.pow(x, cof)))
            assert subfield_product_check(f81, l, g, 1) == \
                brute_is_permutation(f81, fn), (l, g)


class TestParseval:
    def test_sum_of_squared_walsh_values(self, f9):
        # sum over a of |W_f(a)|^2 = p^(2n) for any f
        rng = random.Random(29)
        for trial in range(3):
            vals = [rng.randrange(9) for _ in range(9)]
            total = 0
            for C in direct_walsh(f9, tabulate(f9, vals.__getitem__), range(9)):
                total += norm2(C)
            assert total == 3 ** 4

    def test_summed_autocorrelations_f25(self, f25):
        # for p = 5 a single |W(a)|^2 lies in Z[w] but need not be an
        # integer; summed over a, the autocorrelation vectors give q^2
        rng = random.Random(31)
        not_int = 0
        for trial in range(5):
            vals = np.array([rng.randrange(25) for _ in range(25)])
            rows = [autocorrelation(C) for C in direct_walsh(f25, vals, range(25))]
            not_int += sum(int_value(A) is None for A in rows)
            summed = np.sum(rows, axis=0)
            assert int_value(summed) == 25 ** 2
        assert not_int > 0


class TestTraceCounts:
    @pytest.mark.parametrize("p,n", [(3, 2), (2, 4), (5, 2), (3, 4), (7, 2)])
    def test_rows_against_scalar_traces(self, p, n):
        # every alpha, 0 included, on values that hold 0 and repeats, with
        # an offset array: row[t] = #{i : Tr(offset_i + alpha vals_i) = t}
        ctx = build_field(p, n)
        rng = random.Random(p * 100 + n)
        vals = [0, 0, 1, ctx.q - 1] + [rng.randrange(ctx.q) for _ in range(40)]
        offset = [rng.randrange(ctx.q) for _ in vals]
        rows = trace_counts(ctx, np.array(vals), range(ctx.q), np.array(offset))
        for alpha, row in enumerate(rows):
            traces = [trace(ctx, ctx.add(o, ctx.mul(alpha, v)))
                      for o, v in zip(offset, vals)]
            assert row.tolist() == [traces.count(t) for t in range(p)], alpha
