"""Scan pipelines: direct vs subfield-criterion routes, process pools,
and the full-field condition cross-checks."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cppforge import bulk, scan
from cppforge.families import (count_cpp, r4_condition, r4_condition_p3,
                               r4_condition_p5, r4_equality_check, r4_tagger,
                               tower_exponent)
from cppforge.field import CapExceeded, SubfieldView, build_field
from cppforge.report import CppReport

from twins import orbit_members_by_logs, orbit_minima_by_remainder


def whole_field_members(ctx, d):
    # the slow twin of the orbit-reduced direct scan: every nonzero a
    return [a for a in range(1, ctx.q)
            if bulk.binomial_is_permutation(ctx, d, a)]


def whole_field_ha_members(ctx, r, k):
    # the slow twin of the orbit-reduced subfield scan: every nonzero a
    # through lambda_scan and one permutes call, no orbits and no dedup
    A = np.arange(1, ctx.q)
    lam = bulk.lambda_scan(ctx, r, k, A)
    return A[ctx.subfield_view(k).permutes(lam)].tolist()


def coset(ctx, e, j):
    return {j * ctx.p ** i % e for i in range(ctx.n)}


def least(ctx, e, a):
    # the least j in the Frobenius coset of log(a) mod e
    return min(coset(ctx, e, int(ctx.log_table[a]) % e))


def divisors(ctx):
    return [e for e in range(1, ctx.q) if (ctx.q - 1) % e == 0]


class TestFrobeniusOrbits:
    @pytest.mark.parametrize("p,n", [(3, 4), (2, 6), (5, 3), (7, 2), (2, 8)])
    def test_cosets_of_every_divisor(self, p, n):
        # every d, so e = gcd(d - 1, q - 1) runs over every divisor of
        # q - 1 (d = e + 1) and d - 1 need not divide q - 1; over all
        # nonzero a, decide gets g^j once for each coset's least j,
        # ascending, and each a gets the verdict of its own coset
        ctx = build_field(p, n)
        for d in range(1, ctx.q):
            e = math.gcd(d - 1, ctx.q - 1)
            reps = sorted({min(coset(ctx, e, j)) for j in range(e)})
            assert sum(len(coset(ctx, e, j)) for j in reps) == e
            calls = []

            def decide(coeffs):
                calls.append(coeffs)
                return [int(ctx.log_table[a]) for a in coeffs]

            values = scan.orbit_values(ctx, d, range(1, ctx.q), decide)
            assert calls == [[int(ctx.exp_table[j]) for j in reps]], d
            assert values.tolist() == [least(ctx, e, a)
                                       for a in range(1, ctx.q)], d


class TestOrbitMinima:
    # scan._orbit_minima against the remainder twin, as arrays of the
    # same values; int32 exactly while p e < 2**31
    @staticmethod
    def check(ctx, d):
        e, least = scan._orbit_minima(ctx, d)
        want_e, want = orbit_minima_by_remainder(ctx, d)
        assert e == want_e, d
        assert least.tolist() == want.tolist(), d
        small = ctx.p * e < 2**31
        assert least.dtype == (np.int32 if small else np.int64), d
        return least

    @pytest.mark.parametrize("p,n", [(2, 1), (13, 1), (3, 4), (2, 6), (5, 3),
                                     (7, 2), (2, 8), (13, 4)])
    def test_every_divisor(self, p, n):
        # d = e + 1 puts every divisor e of q - 1 in play; at n = 1 no
        # step runs and every j is its own class
        ctx = build_field(p, n)
        for e in divisors(ctx):
            least = self.check(ctx, e + 1)
            if n == 1:
                assert least.tolist() == list(range(e))

    @pytest.mark.parametrize("p,k,r", [(3, 2, 4), (5, 2, 4), (3, 3, 4),
                                       (2, 5, 4), (11, 1, 6)])
    def test_tower_exponents(self, p, k, r):
        # the five fields of the enumerate benchmark
        self.check(build_field(p, r * k), tower_exponent(p, k, r))

    def test_int64_past_2_31(self):
        # F_2039^2 with d - 1 = (q - 1)/3: p e = 2.8e9 >= 2**31, where x p
        # would wrap in int32; the minima read no table
        ctx = build_field(2039, 2, backend="generic")
        d = (ctx.q - 1) // 3 + 1
        assert ctx.p * ((ctx.q - 1) // 3) >= 2**31
        self.check(ctx, d)


class TestOrbitMembers:
    @pytest.mark.parametrize("p,n", [(3, 4), (2, 6), (5, 3), (7, 2)])
    def test_expands_representative_verdicts(self, p, n):
        # a is a member iff its representative passed; only the classes
        # that elems touch reach decide, in one call (one class for the
        # single element, a strict subset whenever e > 1)
        ctx = build_field(p, n)
        for e in divisors(ctx):
            calls = []

            def decide(coeffs):
                calls.append(coeffs)
                return [int(ctx.log_table[a]) % 3 != 1 for a in coeffs]

            members = scan.orbit_members(ctx, e + 1, decide)
            assert members == [a for a in range(1, ctx.q)
                               if least(ctx, e, a) % 3 != 1], e
            for elems in ([ctx.q - 1], list(range(ctx.q - 1, 0, -5)), []):
                calls.clear()
                values = scan.orbit_values(ctx, e + 1, elems, decide)
                touched = sorted({least(ctx, e, a) for a in elems})
                assert calls == [[int(ctx.exp_table[j]) for j in touched]]
                assert values.tolist() == [least(ctx, e, a) % 3 != 1
                                           for a in elems], (e, elems)


    @pytest.mark.parametrize("p,n", [(3, 4), (2, 6), (5, 3)])
    def test_top_bounds_the_members(self, p, n):
        # orbit_members up to top: the members a <= top, and decide sees
        # only the classes of 1..top
        ctx = build_field(p, n)
        for e in divisors(ctx):
            calls = []

            def decide(coeffs):
                calls.append(coeffs)
                return [int(ctx.log_table[a]) % 3 != 1 for a in coeffs]

            full = scan.orbit_members(ctx, e + 1, decide)
            for top in (1, 2, 7, ctx.q // 2, ctx.q - 2, ctx.q - 1, ctx.q + 3):
                calls.clear()
                assert scan.orbit_members(ctx, e + 1, decide, top) == [
                    a for a in full if a <= top], (e, top)
                touched = sorted({least(ctx, e, a)
                                  for a in range(1, min(top, ctx.q - 1) + 1)})
                assert calls == [[int(ctx.exp_table[j]) for j in touched]]

    @pytest.mark.parametrize("p,n", [(2, 1), (3, 4), (2, 6), (5, 3), (7, 2),
                                     (2, 8), (5, 4), (7, 4), (3, 8), (13, 4)])
    def test_matches_the_log_twin(self, p, n):
        # the members on Z/e against the twin that reads every log of
        # 1..top: the same members from the same decide calls, for every
        # divisor e of q - 1, constant and random verdicts and every cut
        ctx = build_field(p, n)
        q = ctx.q
        pick = np.random.default_rng(q).random(q) < 0.4
        verdicts = {"none": lambda a: False, "all": lambda a: True,
                    "random": lambda a: bool(pick[a])}
        for e in divisors(ctx):
            for name, verdict in verdicts.items():
                for top in (None, 0, 1, 7, q // 2, q - 2, q - 1, q + 3):
                    calls = {"scan": [], "twin": []}

                    def decide(reps, side):
                        calls[side].append(reps)
                        return [verdict(a) for a in reps]

                    got = scan.orbit_members(
                        ctx, e + 1, lambda r: decide(r, "scan"), top)
                    want = orbit_members_by_logs(
                        ctx, e + 1, lambda r: decide(r, "twin"), top)
                    assert got == want, (e, name, top)
                    assert calls["scan"] == calls["twin"], (e, name, top)

    def test_holds_no_field_length_int_array(self):
        # F_2^20 with the tower d of r = 4, k = 5 (e = 33825) and a sparse
        # verdict: the scan holds one q-byte mask, arrays on Z/e and
        # blocks of the members, so its traced peak stays under 3q bytes
        # (the log twin's int32 residues alone take 4q; it peaks at 6.2q)
        ctx = build_field(2, 20)
        d = tower_exponent(2, 5, 4)

        def decide(reps):
            return [i % 64 == 0 for i in range(len(reps))]

        tracemalloc.start()
        try:
            members = scan.orbit_members(ctx, d, decide)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * ctx.q
        assert members == orbit_members_by_logs(ctx, d, decide)
        assert len(members) == 16151


class TestOrbitInputs:
    # both refusals come before decide is asked anything
    def test_generic_field_is_a_cap(self):
        ctx = build_field(3, 4, backend="generic")
        calls = []
        with pytest.raises(CapExceeded, match="^field-too-large"):
            scan.orbit_values(ctx, 41, [1, 2, 3], calls.append)
        assert calls == []

    @pytest.mark.parametrize("elems", [[0], [5, 0, 7], range(0, 81)])
    def test_zero_coefficient_rejected(self, f81, elems):
        # log_table[0] = -1 would file a = 0 under class e - 1
        calls = []
        with pytest.raises(ValueError, match="^zero-coefficient"):
            scan.orbit_values(f81, 41, elems, calls.append)
        assert calls == []


class TestDirectScan:
    def test_f81_count(self, f81):
        elems = scan.direct_cpp_scan(f81, 41)
        assert len(elems) == 38
        assert elems == sorted(elems)

    def test_gcd_blocked_exponent(self, f81):
        # d sharing a factor with q-1 can never be a CPP exponent
        assert scan.direct_cpp_scan(f81, 10) == []
        # nor can d = 0, though gcd(0, 1) = 1 on F_2: x^0 = 1 is constant
        assert scan.direct_cpp_scan(build_field(2, 1), 0) == []

    def test_gcd_screen_of_the_direct_scan(self, monkeypatch):
        # F_3^3, d = 14: gcd(14, 26) = 2, so x^14 is no permutation and no
        # a is a CPP coefficient, yet x^14 + ax permutes F_27 for 12 a
        # (4, 8, 9, 12, 15-18, 21-24).  The screen turns them away before
        # any class reaches the oracle, which would screen each again
        calls = []
        monkeypatch.setattr(scan.oracle, "is_cpp_exponent_pair",
                            lambda *args: calls.append(args))
        assert scan.direct_cpp_scan(build_field(3, 3), 14) == []
        assert calls == []

    def test_gcd_screen_of_the_ha_scan(self):
        # the same field and d, the tower exponent of k = 1, r = 3: h_a
        # permutes F_3 for the same 12 a
        assert scan.ha_cpp_scan(build_field(3, 3), 3, 1) == []

    @pytest.mark.parametrize("p,k,count", [(3, 1, 38), (3, 2, 64),
                                           (5, 1, 60), (7, 1, 300)],
                             ids=["F_3^4", "F_3^8", "F_5^4", "F_7^4"])
    def test_pool_agrees(self, monkeypatch, p, k, count):
        # the fields are below the pool's gate (F_3^8: 107 orbits): lower
        # it so the pool runs; serial, pooled and the whole-field twin agree
        import multiprocessing
        ctx = build_field(p, 4 * k)
        d = tower_exponent(p, k, 4)
        seq = scan.direct_cpp_scan(ctx, d, jobs=1)
        forks = []
        real = multiprocessing.get_context

        def recording(method):
            forks.append(method)
            return real(method)

        monkeypatch.setattr(multiprocessing, "get_context", recording)
        monkeypatch.setattr(scan, "POOL_MIN_ORBITS", 1)
        par = scan.direct_cpp_scan(ctx, d, jobs=2)
        assert forks == ["fork"]
        assert par == seq == whole_field_members(ctx, d)
        assert len(seq) == count

    @pytest.mark.parametrize("jobs,chunks", [(1, 64), (2, 16)],
                             ids=["serial", "pooled"])
    def test_progress_once_per_chunk(self, monkeypatch, jobs, chunks):
        # F_3^8: 107 representatives, cut into at most 64 chunks on a
        # serial run and jobs * 8 in a pool
        ctx = build_field(3, 8)
        d = tower_exponent(3, 2, 4)
        reps = []
        scan.orbit_members(ctx, d, lambda r: reps.extend(r) or [0] * len(r))
        assert len(reps) == 107
        monkeypatch.setattr(scan, "POOL_MIN_ORBITS", 1)
        calls = []
        scan.direct_cpp_scan(ctx, d, jobs=jobs,
                             progress=lambda *call: calls.append(call))
        done = [c[0] for c in calls]
        assert all(a < b for a, b in zip(done, done[1:]))
        assert {c[1] for c in calls} == {len(reps)}
        assert done[-1] == len(reps)
        step = -(-len(reps) // chunks)
        assert done == [min(lo + step, len(reps))
                        for lo in range(0, len(reps), step)]

    def test_serial_scan_imports_no_pool(self):
        # multiprocessing is imported on the pooled branch only: F_3^8 has
        # 107 orbits and F_5^8 2044, both below the gate (F_5^8 although
        # 8e8 points in all)
        src = Path(scan.__file__).parents[1]
        code = ("import sys\n"
                "from cppforge import scan\n"
                "from cppforge.field import build_field\n"
                "scan.direct_cpp_scan(build_field(3, 8), 821, jobs=2)\n"
                "scan.direct_cpp_scan(build_field(5, 8), "
                f"{tower_exponent(5, 2, 4)}, jobs=2)\n"
                "print('multiprocessing' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout == "False\n"

    @pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (3, 2), (7, 1), (2, 2)])
    def test_tower_exponent_matches_whole_field(self, p, k):
        ctx = build_field(p, 4 * k)
        d = tower_exponent(p, k, 4)
        assert scan.direct_cpp_scan(ctx, d) == whole_field_members(ctx, d)

    @pytest.mark.parametrize("p,n", [(3, 4), (2, 6), (5, 3), (7, 2)])
    def test_every_exponent_matches_whole_field(self, p, n):
        # e = gcd(d - 1, q - 1) runs from 1 (F_2^6, d = 2) to q - 1 (d = 1)
        ctx = build_field(p, n)
        for d in range(1, ctx.q - 1):
            if math.gcd(d, ctx.q - 1) == 1:
                assert (scan.direct_cpp_scan(ctx, d)
                        == whole_field_members(ctx, d)), d

    def test_generic_backend_refused(self):
        gen = build_field(3, 4, backend="generic")
        with pytest.raises(ValueError, match="cap-exceeded"):
            scan.direct_cpp_scan(gen, 41)


class TestHaScan:
    def test_matches_direct_f81(self, f81):
        assert scan.ha_cpp_scan(f81, 4, 1) == scan.direct_cpp_scan(f81, 41)

    def test_matches_direct_f81_k2(self, f81):
        assert scan.ha_cpp_scan(f81, 2, 2) == scan.direct_cpp_scan(f81, 11)

    def test_matches_direct_f625(self, f625):
        assert scan.ha_cpp_scan(f625, 4, 1) == scan.direct_cpp_scan(f625, 157)

    @pytest.mark.parametrize("p,k,r", [(3, 1, 4), (5, 1, 4), (7, 1, 4),
                                       (13, 1, 4), (3, 2, 4), (5, 2, 4),
                                       (3, 1, 6), (5, 1, 6), (3, 3, 2)])
    def test_matches_whole_field(self, p, k, r):
        ctx = build_field(p, r * k)
        twin = whole_field_ha_members(ctx, r, k)
        assert 0 < len(twin) < ctx.q - 1
        assert scan.ha_cpp_scan(ctx, r, k) == twin

    @pytest.mark.parametrize("p,k,reps", [(3, 2, 107), (5, 2, 2044),
                                          (3, 3, 1717)])
    def test_one_norm_gather_of_the_representatives(self, monkeypatch,
                                                    p, k, reps):
        # one norm_permutes row per orbit class, never one per
        # coefficient, and no lambda rows or Horner evaluation
        ctx = build_field(p, 4 * k)
        sizes = []
        real = SubfieldView.norm_permutes

        def recording(view, coeffs, block):
            sizes.append(len(coeffs))
            return real(view, coeffs, block)

        def refused(*args):
            pytest.fail("the subfield route ran the lambda route")

        monkeypatch.setattr(SubfieldView, "norm_permutes", recording)
        monkeypatch.setattr(SubfieldView, "permutes", refused)
        monkeypatch.setattr(bulk, "lambda_scan", refused)
        scan.ha_cpp_scan(ctx, 4, k)
        assert sizes == [reps]

    @pytest.mark.parametrize("p,k,r", [(11, 1, 6), (2, 5, 4), (3, 2, 6),
                                       (2, 2, 9), (2, 11, 2), (2, 1, 12)])
    def test_norm_permutes_matches_lambda_twin(self, monkeypatch, p, k, r):
        # the norm kernel against lambda_scan + permutes on every class
        # representative and on all of -F_{p^k}^*, whose rows each hold
        # a Z = -1 point (a = -zeta^t) and are all rejected; F_2^22 has
        # 2047 points a row, 64 rows a block, and on F_2 the one point of
        # a = 1 is that zero.  Then again with blocks of 7 values (one
        # row, or more at p^k <= 4), through the whole scan
        ctx = build_field(p, r * k)
        view = ctx.subfield_view(k)
        d = tower_exponent(p, k, r)
        m, e = p ** k - 1, (ctx.q - 1) // (p ** k - 1)
        reps = ctx.exp_table[np.unique(scan._orbit_minima(ctx, d)[1])]
        neg = bulk.mul_scalar(ctx, p - 1, ctx.exp_table[e * np.arange(m)])
        coeffs = np.concatenate([reps, neg])

        def twin(A):
            return view.permutes(bulk.lambda_scan(ctx, r, k, np.asarray(A)))

        want = twin(coeffs)
        assert not want[len(reps):].any() and want.any()
        members = scan.orbit_members(ctx, d, twin)
        assert scan.ha_cpp_scan(ctx, r, k) == members
        for block in (bulk.CHECK_BLOCK, 7):
            monkeypatch.setattr(bulk, "CHECK_BLOCK", block)
            got = view.norm_permutes(coeffs, bulk.CHECK_BLOCK)
            assert got.tolist() == want.tolist(), block
        assert scan.ha_cpp_scan(ctx, r, k) == members

    def test_matches_direct_f3_12_k6(self):
        ctx = build_field(3, 12)
        ha = scan.ha_cpp_scan(ctx, 2, 6)
        assert ha == scan.direct_cpp_scan(ctx, tower_exponent(3, 6, 2))
        assert len(ha) == 728


class TestPermutesBlocks:
    def test_block_size_keeps_coefficient_lists(self, monkeypatch):
        from cppforge import field
        for p, k, count in ((3, 2, 64), (5, 1, 60)):
            ctx = build_field(p, 4 * k)
            whole = scan.ha_cpp_scan(ctx, 4, k)
            # three rows per block
            monkeypatch.setattr(field, "PERMUTES_BLOCK", 3 * p ** k)
            assert scan.ha_cpp_scan(ctx, 4, k) == whole
            monkeypatch.undo()
            assert len(whole) == count


class TestCountCpp:
    def test_both_method_f81(self):
        res = count_cpp(3, 1, 4, method="both")
        assert res["count"] == 38
        assert len(res["elements"]) == 38
        tag_total = sum(res["conditions"].values())
        assert tag_total == 38
        assert "untagged" not in res["conditions"]

    def test_f625_conditions(self):
        res = count_cpp(5, 1, 4, method="direct")
        assert res["count"] == 60
        assert set(res["conditions"]) <= {"r4_p5:1", "r4_p5:2", "r4_p5:3"}

    @pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2)])
    def test_orbit_labels_match_member_labels(self, p, k):
        # count_cpp tags one representative per member orbit; the slow twin
        # tags every member
        res = count_cpp(p, k, 4, method="ha")
        ctx = res["ctx"]
        tagger = r4_tagger(ctx, k)
        assert res["labels"] == {a: tagger(a) or "" for a in res["elements"]}

    def test_r6_no_conditions(self):
        res = count_cpp(3, 1, 6, method="ha")
        assert res["conditions"] == {}
        assert res["count"] > 0


def whole_field_labels(ctx, k, condition):
    # the slow twin of the orbit route: every nonzero a tagged on its own
    return {a: condition(ctx, a, k) or "" for a in range(1, ctx.q)}


def class_representative(ctx, k, a):
    # g^j for the least j in the Frobenius coset of log(a) mod e
    e = (ctx.q - 1) // (ctx.p ** k - 1)
    j = int(ctx.log_table[a]) % e
    least = min(j * ctx.p ** i % e for i in range(ctx.n))
    return int(ctx.exp_table[least])


# (p, k, condition) for each condition that applies on each field
TWIN_CASES = [(3, 1, r4_condition), (3, 1, r4_condition_p3),
              (5, 1, r4_condition_p5), (7, 1, r4_condition),
              (3, 2, r4_condition), (3, 2, r4_condition_p3)]


class TestEqualityCheck:
    def test_f81(self, f81):
        cpps, tagged, untagged = r4_equality_check(
            f81, 1, r4_tagger(f81, 1))
        assert untagged == [] and tagged == 38

    def test_f625(self, f625):
        cpps, tagged, untagged = r4_equality_check(
            f625, 1, r4_tagger(f625, 1))
        assert untagged == [] and tagged == 60

    def test_f3_8_full_equality(self):
        ctx = build_field(3, 8)
        cpps, tagged, untagged = r4_equality_check(
            ctx, 2, r4_tagger(ctx, 2))
        assert untagged == [] and tagged == len(cpps) == 64

    def test_f7_4_full_equality(self):
        # exercises the p = 7 small-field conditions
        ctx = build_field(7, 4)
        cpps, tagged, untagged = r4_equality_check(
            ctx, 1, r4_tagger(ctx, 1))
        assert untagged == [] and tagged == len(cpps) == 300

    def test_f13_4_full_equality(self):
        # exercises the p = 13 small-field condition
        ctx = build_field(13, 4)
        cpps, tagged, untagged = r4_equality_check(
            ctx, 1, r4_tagger(ctx, 1))
        assert untagged == [] and tagged == len(cpps) == 792

    def test_f5_8_full_equality(self):
        ctx = build_field(5, 8)
        cpps, tagged, untagged = r4_equality_check(
            ctx, 2, r4_tagger(ctx, 2))
        assert untagged == [] and tagged == len(cpps) == 1224

    @pytest.mark.parametrize("p,k,condition", TWIN_CASES,
                             ids=[f"F_{p}^{4 * k}-{c.__name__}"
                                  for p, k, c in TWIN_CASES])
    def test_orbit_route_matches_whole_field(self, p, k, condition):
        ctx = build_field(p, 4 * k)
        labels = whole_field_labels(ctx, k, condition)
        cpps, tagged, untagged = r4_equality_check(
            ctx, k, lambda a: condition(ctx, a, k))
        assert tagged == sum(1 for lab in labels.values() if lab)
        assert untagged == [a for a in cpps if not labels[a]] == []
        for a, lab in labels.items():
            assert lab == labels[class_representative(ctx, k, a)], a

    def test_untagged_members_and_count(self, f81):
        # a tagger that misses one orbit: its members come back, and the
        # tagged count falls by the orbit's size
        rep = class_representative(f81, 1, scan.ha_cpp_scan(f81, 4, 1)[0])
        tagger = r4_tagger(f81, 1)
        cpps, tagged, untagged = r4_equality_check(
            f81, 1, lambda a: None if a == rep else tagger(a))
        orbit = [a for a in cpps if class_representative(f81, 1, a) == rep]
        assert untagged == orbit and 0 < len(orbit) < len(cpps)
        assert tagged == len(cpps) - len(orbit)


class TestBothMethodAbort:
    def test_mismatch_names_first_coefficient(self, monkeypatch):
        # a doctored subfield-route result must abort, never emit a report
        good = scan.ha_cpp_scan(build_field(3, 4), 4, 1)
        doctored = [a for a in good if a != good[3]]
        monkeypatch.setattr(scan, "ha_cpp_scan", lambda *a, **k: doctored)
        with pytest.raises(RuntimeError, match=f"mismatch.*{good[3]}"):
            count_cpp(3, 1, 4, method="both")


class TestReports:
    def test_json_stability(self, tmp_path):
        r1 = CppReport(p=3, n=4, modulus=(1, 0, 1, 1, 1), d=41, method="both",
                       count=38, conditions={"r4_general:1": 8},
                       elements=[4, 8], seconds=0.25)
        r2 = CppReport(p=3, n=4, modulus=(1, 0, 1, 1, 1), d=41, method="both",
                       count=38, conditions={"r4_general:1": 8},
                       elements=[8, 4], seconds=0.25)
        assert r1.to_json() == r2.to_json()
        path = tmp_path / "r.json"
        r1.write(path)
        assert path.read_text() == r1.to_json()

    def test_csv(self, tmp_path):
        r = CppReport(p=3, n=4, modulus=(1, 0, 1, 1, 1), d=41, method="ha",
                      count=2, elements=[4, 8], seconds=0.0)
        path = tmp_path / "r.csv"
        r.write(path, tags={4: "r4_general:1"})
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "a,condition"
        assert lines[1] == "4,r4_general:1"
        assert lines[2] == "8,"

    def test_csv_requires_elements(self):
        r = CppReport(p=3, n=4, modulus=(1, 0, 1, 1, 1), d=41, method="ha",
                      count=2, elements=None)
        with pytest.raises(ValueError, match="csv"):
            r.to_csv()

    def test_unknown_extension(self, tmp_path):
        r = CppReport(p=3, n=4, modulus=(1, 0, 1, 1, 1), d=41, method="ha",
                      count=0, elements=[])
        with pytest.raises(ValueError, match="extension"):
            r.write(tmp_path / "r.xml")
