"""Acceptance criteria: one test per criterion, each printing a PASS line
with its wall time and asserting the stated count/tolerance and budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import random
import re
import time
from contextlib import contextmanager

from cppforge import bulk, cli, scan
from cppforge import field as field_mod
from cppforge.field import build_field
from cppforge.families import (QUARTIC_BETA_POLY, SEXTIC_BETA_POLY,
                               beta_quartic_all, field_with_root,
                               multinomial_admissible_a, multinomial_map,
                               multinomial_presets, niho_exponent,
                               r4_condition, r4_condition_p5,
                               r6_coordinate_table, r6_dickson_coefficient,
                               tower_exponent, verify_neg_one_family)
from cppforge.hadickson import (ha_pp_check, is_dickson_of_degree,
                                lambda_coeffs)
from cppforge.niho import NihoCtx, count_N, direct_walsh, niho_s_from_d
from cppforge.oracle import is_cpp, is_cpp_exponent_pair, is_permutation
from twins import (binomial_values, char_sum_pp_check, int_value,
                   mu_permutation_check, norm2, subfield_product_check,
                   tabulate, v_set)


@contextmanager
def criterion(num, label, budget):
    t0 = time.monotonic()
    yield
    dt = time.monotonic() - t0
    # milliseconds, so that a budget of a few ms reads to 0.1 ms
    print(f"ACCEPTANCE {num} [{label}]: PASS ({dt * 1e3:.1f} ms, "
          f"budget {budget * 1e3:g} ms)")
    assert dt < budget, (f"criterion {num} exceeded its {budget * 1e3:g} ms "
                         f"budget: {dt * 1e3:.1f} ms")


def test_criterion_01_f81_count_38():
    with criterion(1, "F_3^4 d=41 count 38, both methods", 1.0):
        ctx = build_field(3, 4)
        direct = scan.direct_cpp_scan(ctx, 41)
        ha = scan.ha_cpp_scan(ctx, 4, 1)
        assert len(direct) == 38
        assert direct == ha


def test_criterion_02_beta_family_counts():
    with criterion(2, "beta families: 28 at k=1, 2860 at k=3 = full scan", 120.0):
        ctx1, beta1 = field_with_root(3, 4, QUARTIC_BETA_POLY)
        gen1 = beta_quartic_all(ctx1, beta1)
        assert len(gen1) == 28
        assert set(gen1) <= set(scan.direct_cpp_scan(ctx1, 41))

        ctx3, beta3 = field_with_root(3, 12, QUARTIC_BETA_POLY)
        gen3 = beta_quartic_all(ctx3, beta3)
        assert len(gen3) == 2860
        full = scan.ha_cpp_scan(ctx3, 4, 3)
        assert len(full) == 2860
        assert gen3 == full


def test_criterion_03_f3_8_count_64_all_condition_3():
    with criterion(3, "F_3^8 d=821 count 64, all condition 3", 60.0):
        ctx = build_field(3, 8)
        direct = scan.direct_cpp_scan(ctx, 821)
        assert len(direct) == 64
        for a in direct:
            assert r4_condition(ctx, a, 2) == "r4_general:3", a


def test_criterion_04_f625_count_60_power_subset_12():
    with criterion(4, "F_5^4 d=157 count 60, closed-form subset 12", 10.0):
        ctx = build_field(5, 4)
        direct = scan.direct_cpp_scan(ctx, 157)
        assert len(direct) == 60
        neg1 = ctx.neg(1)
        coro = sorted(a for a in range(1, 625)
                      if ctx.pow(a, 8) == neg1 or ctx.pow(a, 4) == neg1)
        assert len(coro) == 12
        assert set(coro) <= set(direct)


def test_criterion_05_f5_8_count_1224_with_spot_checks():
    with criterion(5, "F_5^8 d=16277 ha count 1224 + 500 spot checks", 300.0):
        ctx = build_field(5, 8)
        d = tower_exponent(5, 2, 4)
        assert d == 16277
        ha = scan.ha_cpp_scan(ctx, 4, 2)
        assert len(ha) == 1224
        for a in ha:
            assert r4_condition_p5(ctx, a, 2) in ("r4_p5:1", "r4_p5:2"), a
        ha_set = set(ha)
        rng = random.Random(20260809)
        for _ in range(500):
            a = rng.randrange(1, ctx.q)
            assert is_cpp_exponent_pair(ctx, d, a) == (a in ha_set), a


def test_criterion_06_niho_families_exhaustive():
    with criterion(6, "Niho exponents: all of V passes on every grid point", 30.0):
        for k in (1, 2, 3):
            ctx = build_field(3, 2 * k)
            d = 3 ** k + 2
            V = v_set(NihoCtx(ctx, k))
            assert len(V) == 3 ** k - 1
            for a in V:
                assert is_cpp_exponent_pair(ctx, d, a), (3, k, a)
        for p in (3, 5, 7):
            for k in (1, 2):
                ctx = build_field(p, 2 * k)
                V = v_set(NihoCtx(ctx, k))
                for i in (1, 2):
                    d = niho_exponent(p, k, i)
                    for a in V:
                        assert is_cpp_exponent_pair(ctx, d, a), (p, k, i, a)


def test_criterion_07_count_N_and_walsh():
    with criterion(7, "N(a)=1 on V for k<=3; Walsh formula exact on F_9", 5.0):
        for k in (1, 2, 3):
            ctx = build_field(3, 2 * k)
            nctx = NihoCtx(ctx, k)
            s = niho_s_from_d(3, 2 * k, k, 3 ** k + 2)
            for a in v_set(nctx):
                assert count_N(nctx, a, s) == 1, (k, a)
        f9 = build_field(3, 2)
        n9 = NihoCtx(f9, 1)
        s = niho_s_from_d(3, 2, 1, 5)
        xd = bulk.monomial_values(f9, s * 2 + 1)
        for a, C in enumerate(direct_walsh(f9, xd, range(9))):
            assert int_value(C) == (count_N(n9, a, s) - 1) * 3, a


def test_criterion_08_ha_equivalence_exhaustive():
    with criterion(8, "h_a criterion == direct bijection, three fields", 30.0):
        for p, r, k in ((3, 4, 1), (5, 4, 1), (3, 2, 2)):
            ctx = build_field(p, r * k)
            d = tower_exponent(p, k, r)
            xd = bulk.monomial_values(ctx, d)
            X = bulk.elements(ctx)
            for a in range(ctx.q):
                direct = bulk.values_are_permutation(
                    ctx, bulk.add(ctx, xd, bulk.mul_scalar(ctx, a, X)))
                assert ha_pp_check(ctx, a, r, k) == direct, (p, r, k, a)


def test_criterion_09_dickson_families():
    with criterion(9, "degree-7 Dickson families over F_3^6 and F_5^6", 60.0):
        for p in (3, 5):
            ctx, beta = field_with_root(p, 6, SEXTIC_BETA_POLY)
            d = tower_exponent(p, 1, 6)
            coords = r6_coordinate_table(p)
            assert len(coords) == {3: 12, 5: 18}[p]
            for fi in range(len(coords)):
                for u in range(1, p):
                    # the generator itself asserts the Dickson match
                    a = r6_dickson_coefficient(ctx, beta, fi, u)
                    assert is_cpp_exponent_pair(ctx, d, a), (p, fi, u)
                    lv = lambda_coeffs(ctx, a, 6, 1)
                    assert is_dickson_of_degree(ctx, lv, 1) is not None


def test_criterion_10_neg_one_coefficient_harness():
    with criterion(10, "a^(p^k-1)=-1 coefficients: all CPP via subfield "
                       "criterion + reformulated check", 120.0):
        for p, kmax in ((3, 3), (5, 3), (7, 3), (11, 1), (13, 1)):
            for k in range(1, kmax + 1):
                res = verify_neg_one_family(p, k)
                assert res["passed"], (p, k, res)
                assert res["coefficients"] == p ** k - 1


def test_criterion_11_multinomial_family():
    with criterion(11, "multinomial family: all presets, all admissible a", 60.0):
        # the presets with a member: the quartic admits no a on F_4 and
        # the monomial none on F_3
        for p, k, rs, absent in ((2, 2, (3, 5), {"dickson-quartic"}),
                                 (3, 1, (5, 7), {"monomial"}),
                                 (3, 2, (5,), set())):
            for r in rs:
                ctx = build_field(p, r * k)
                presets = multinomial_presets(ctx, k)
                assert set(presets) == \
                    {"zero", "monomial", "dickson-quartic"} - absent
                for name, (g, v, admissible) in presets.items():
                    assert admissible == \
                        multinomial_admissible_a(ctx, k, g, v) != []
                    for a in admissible:
                        vals = multinomial_map(ctx, g, v, a, k)
                        assert is_cpp(ctx, vals), (p, k, r, name, a)


def test_criterion_12_oracle_equivalence_suites():
    with criterion(12, "criteria agreement, backend agreement, Parseval", 60.0):
        # character-sum test == occupancy test on binomial families
        f9 = build_field(3, 2)
        for a in range(9):
            vals = binomial_values(f9, 5, a)
            assert char_sum_pp_check(f9, vals) == is_permutation(f9, vals)
        f25 = build_field(5, 2)
        for a in range(25):
            vals = binomial_values(f25, 9, a)
            assert char_sum_pp_check(f25, vals) == is_permutation(f25, vals)

        # cyclotomic-coset criteria == direct bijection of the composite map
        rng = random.Random(12)
        for _ in range(20):
            l = rng.randrange(1, 8)
            s = rng.choice([2, 4, 8])
            g = [rng.randrange(9) for _ in range(rng.randrange(1, 4))]
            cof = 8 // s
            direct = is_permutation(f9, tabulate(
                f9, lambda x: f9.mul(f9.pow(x, l),
                                     f9.poly_eval(g, f9.pow(x, cof)))))
            assert mu_permutation_check(f9, l, g, s) == direct, (l, s, g)
        f81 = build_field(3, 4)
        for _ in range(20):
            l = rng.randrange(1, 6)
            g = [rng.randrange(81) for _ in range(rng.randrange(1, 4))]
            direct = is_permutation(f81, tabulate(
                f81, lambda x: f81.mul(f81.pow(x, l),
                                       f81.poly_eval(g, f81.pow(x, 40)))))
            assert subfield_product_check(f81, l, g, 1) == direct, (l, g)

        # backend agreement on the full F_3^4
        ft = build_field(3, 4)
        fg = build_field(3, 4, backend="generic")
        for x in range(81):
            for y in range(81):
                assert ft.add(x, y) == fg.add(x, y)
                assert ft.mul(x, y) == fg.mul(x, y)

        # Parseval: sum over a of |W(a)|^2 = p^(2n), exactly, each |W(a)|^2
        # read off the autocorrelation of its count vector
        rng = random.Random(13)
        for _ in range(3):
            vals = [rng.randrange(9) for _ in range(9)]
            fm = tabulate(f9, vals.__getitem__)
            total = sum(norm2(C) for C in direct_walsh(f9, fm, range(9)))
            assert total == 3 ** 4


def test_criterion_13_walsh_all_past_charsum_cap(capsys):
    with criterion(13, "walsh --all on F_3^10: 59049 N(a) from one histogram", 20.0):
        # past CHARSUM_CAP, so no direct cross-check: each unit-circle
        # lambda names 3^5 coefficients, so the N(a) sum to 244 * 243
        code = cli.main(["walsh", "--p", "3", "--k", "5", "--s", "2", "--all"])
        out = capsys.readouterr().out
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith("a=")]
        assert len(lines) == 3 ** 10
        assert sum(int(re.search(r" N=(\d+) ", line).group(1))
                   for line in lines) == 244 * 243


def test_criterion_14_oracle_checks_once_per_class(capsys):
    with criterion(14, "verify r4_p3_beta --k 3 and budgeted conjecture 1 "
                       "on F_3^12, one decision per orbit class", 3.0):
        # 2860 generated coefficients in 13 classes; --budget 20000 decides
        # the classes of a = 1..20000 instead of 20000 scalar matches
        code = cli.main(["verify", "--family", "r4_p3_beta", "--k", "3"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[-2:] == ["tested 2860", "PASS"]
        code = cli.main(["conjecture", "--id", "1", "--p", "3", "--r", "4",
                         "--kmin", "3", "--kmax", "3", "--budget", "20000"])
        assert code == 0
        assert capsys.readouterr().out == \
            "k=3: witnesses=106 cpp_failures=0 pass\n"


def test_criterion_15_direct_scan_f5_8(capsys):
    # a rejected orbit representative stops at its first line of 24
    # residues, and the scan reuses one occupancy array per chunk: the
    # 2044 checks fit in under half of the 1.37 s that a full first block
    # and a fresh array per check cost on a 2-core VM
    with criterion(15, "count-cpp --method direct on F_5^8: 1224", 0.6):
        code = cli.main(["count-cpp", "--p", "5", "--k", "2", "--r", "4",
                         "--method", "direct", "--jobs", "1"])
        assert code == 0
        assert "count 1224" in capsys.readouterr().out.splitlines()


def test_criterion_16_both_scan_f2_18_member_dense(capsys):
    # 1110 of the 4892 orbit classes are members, and each streams all
    # 2^18 values: its lines after line 0 scatter through a 2-D view of
    # the occupancy array (P = 3), with no index array.  On a 2-core VM
    # the run took 1.09-1.24 s with one index array a window of lines,
    # and 0.25-0.27 s without
    with criterion(16, "count-cpp --method both on F_2^18 (r = 9): 58479", 0.6):
        code = cli.main(["count-cpp", "--p", "2", "--k", "2", "--r", "9",
                         "--method", "both", "--jobs", "1"])
        assert code == 0
        assert "count 58479" in capsys.readouterr().out.splitlines()


def test_criterion_17_member_checks_f2_22():
    # P = 2047 > CHECK_BLOCK // P: each member streams its 2049 lines
    # after line 0 as windows of rows of P cells.  On a 2-core VM the
    # four checks took 40-56 ms with those lines as arrays in a reused
    # block buffer, and about 8 ms as windows
    ctx = build_field(2, 22)
    d = tower_exponent(2, 11, 2)
    members = scan.ha_cpp_scan(ctx, 2, 11)[:4]
    with criterion(17, "four oracle member checks on F_2^22 (k = 11, r = 2)",
                   0.03):
        assert all(is_cpp_exponent_pair(ctx, d, a) for a in members)


def test_criterion_18_ha_scan_f11_6(capsys):
    # 29575 orbit classes of 10 points each, decided from
    # h_a(c) = c N(a + c) in one Zech gather per point.  On a 2-core VM
    # this criterion, run alone, took 35-45 ms through lambda rows and
    # Horner steps, and 13-14 ms through the norm
    build_field(11, 6)
    with criterion(18, "count-cpp --method ha on F_11^6 (r = 6): 6110", 0.04):
        code = cli.main(["count-cpp", "--p", "11", "--k", "1", "--r", "6",
                         "--method", "ha"])
        assert code == 0
        assert "count 6110" in capsys.readouterr().out.splitlines()


def test_criterion_19_ha_scan_f2_21(capsys):
    # e = 2^21 - 1, so the orbit minima take 20 Frobenius steps over
    # 2097151 residues.  On a 2-core VM this criterion, run alone, took
    # 355-570 ms with one int64 remainder per element and step, and
    # 230-320 ms with int32 floor divisions by the constant e
    build_field(2, 21)
    with criterion(19, "count-cpp --method ha on F_2^21 (r = 21): 2097150",
                   0.7):
        code = cli.main(["count-cpp", "--p", "2", "--k", "1", "--r", "21",
                         "--method", "ha"])
        assert code == 0
        assert "count 2097150" in capsys.readouterr().out.splitlines()


def test_criterion_20_cold_build_at_table_cap(monkeypatch):
    # build_field(2, 22) from an empty field cache: the modulus search,
    # the exp table by doubling steps, the log and Zech tables.  On a
    # 2-core VM it took 107-229 ms with a digit map built from generic
    # products at every step, a fancy-assigned log table and a fully
    # gathered Zech table, and 66-103 ms with the digit map squared, a
    # put-filled log table and half of the Zech table from
    # Z[N - i] = Z[i] - i
    monkeypatch.setattr(field_mod, "_FIELD_CACHE", {})
    with criterion(20, "cold build_field(2, 22), the TABLE_CAP build", 0.25):
        ctx = build_field(2, 22)
        assert len(ctx.exp_table) == ctx.q - 1 == (1 << 22) - 1
