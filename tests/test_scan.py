"""Scan pipelines: direct vs subfield-criterion routes, process pools,
and the full-field condition cross-checks."""

import pytest

from cppforge import scan
from cppforge.field import build_field
from cppforge.report import CppReport


class TestDirectScan:
    def test_f81_count(self, f81):
        elems = scan.direct_cpp_scan(f81, 41)
        assert len(elems) == 38
        assert elems == sorted(elems)

    def test_gcd_blocked_exponent(self, f81):
        # d sharing a factor with q-1 can never be a CPP exponent
        assert scan.direct_cpp_scan(f81, 10) == []

    def test_jobs_partition_agrees(self, f81):
        seq = scan.direct_cpp_scan(f81, 41, jobs=1)
        par = scan.direct_cpp_scan(f81, 41, jobs=2)
        assert seq == par

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
        res = scan.count_cpp(3, 1, 4, method="both", collect=True)
        assert res["count"] == 38
        assert len(res["elements"]) == 38
        tag_total = sum(res["conditions"].values())
        assert tag_total == 38
        assert "untagged" not in res["conditions"]

    def test_f625_conditions(self):
        res = scan.count_cpp(5, 1, 4, method="direct", collect=True)
        assert res["count"] == 60
        assert set(res["conditions"]) <= {"r4_p5:1", "r4_p5:2", "r4_p5:3"}

    def test_r6_no_conditions(self):
        res = scan.count_cpp(3, 1, 6, method="ha")
        assert res["conditions"] == {}
        assert res["count"] > 0


class TestEqualityCheck:
    def test_f81(self, f81):
        cpps, tagged, ok = scan.r4_equality_check(f81, 1)
        assert ok and tagged == 38

    def test_f625(self, f625):
        cpps, tagged, ok = scan.r4_equality_check(f625, 1)
        assert ok and tagged == 60

    def test_f3_8_full_equality(self):
        ctx = build_field(3, 8)
        cpps, tagged, ok = scan.r4_equality_check(ctx, 2)
        assert ok and tagged == len(cpps) == 64

    def test_f7_4_full_equality(self):
        # exercises the p = 7 small-field conditions
        ctx = build_field(7, 4)
        cpps, tagged, ok = scan.r4_equality_check(ctx, 1)
        assert ok and tagged == len(cpps) == 300

    def test_f13_4_full_equality(self):
        # exercises the p = 13 small-field condition
        ctx = build_field(13, 4)
        cpps, tagged, ok = scan.r4_equality_check(ctx, 1)
        assert ok and tagged == len(cpps) == 792

    def test_f5_8_full_equality(self):
        ctx = build_field(5, 8)
        cpps, tagged, ok = scan.r4_equality_check(ctx, 2)
        assert ok and tagged == len(cpps) == 1224

    def test_bulk_tagger_matches_scalar_f625(self, f625):
        # the vectorized p=5 tagger over conditions 1-2 must agree with the
        # scalar conditions on a field where both run
        from cppforge.families import r4_condition_p5
        mask = scan._p5_bulk_tag_mask(f625, 1)
        for a in range(1, 625):
            t = r4_condition_p5(f625, a, 1)
            expect = t is not None and t.condition in ("1", "2")
            assert bool(mask[a - 1]) == expect, a


class TestBothMethodAbort:
    def test_mismatch_names_first_coefficient(self, monkeypatch):
        # a doctored subfield-route result must abort, never emit a report
        good = scan.ha_cpp_scan(build_field(3, 4), 4, 1)
        doctored = [a for a in good if a != good[3]]
        monkeypatch.setattr(scan, "ha_cpp_scan", lambda *a, **k: doctored)
        with pytest.raises(RuntimeError, match=f"mismatch.*{good[3]}"):
            scan.count_cpp(3, 1, 4, method="both")


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
