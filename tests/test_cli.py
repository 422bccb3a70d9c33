"""CLI surface: grammar, reports, exit codes, output determinism."""

import ast
import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

from cppforge import cli, families, niho
from cppforge.cli import main
from cppforge.families import FAMILIES
from cppforge.field import build_field


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestField:
    def test_default(self, capsys):
        code, out, _ = run_cli(capsys, "field", "--p", "3", "--n", "2")
        assert code == 0
        assert "p=3,n=2,mod=1,0,1" in out
        assert "backend table" in out

    def test_explicit_modulus(self, capsys):
        code, out, _ = run_cli(capsys, "field", "--p", "3", "--n", "4",
                               "--mod", "2,2,0,0,1")
        assert code == 0
        assert "mod=2,2,0,0,1" in out

    @pytest.mark.parametrize("p,n,g", [
        (2, 1, 1), (3, 1, 2), (7, 1, 3), (2, 8, 6), (3, 4, 10), (5, 2, 7),
        (2, 22, 2), (3, 13, 3)])
    def test_generator_pinned(self, capsys, p, n, g):
        # the first primitive element in encoding order, from 2 when n = 1
        # (1 in F_2) and from x (encoding p) otherwise
        code, out, _ = run_cli(capsys, "field", "--p", str(p), "--n", str(n))
        assert code == 0
        assert f"generator {g}" in out.splitlines()

    def test_not_prime(self, capsys):
        code, _, err = run_cli(capsys, "field", "--p", "4", "--n", "2")
        assert code == 2
        assert "not-prime" in err

    def test_reducible(self, capsys):
        code, _, err = run_cli(capsys, "field", "--p", "3", "--n", "2",
                               "--mod", "0,0,1")
        assert code == 2
        assert "modulus-reducible" in err

    def test_cap(self, capsys):
        code, _, err = run_cli(capsys, "field", "--p", "3", "--n", "200")
        assert code == 3
        assert "field-too-large" in err


class TestCountCpp:
    def test_both_f81(self, capsys):
        code, out, _ = run_cli(capsys, "count-cpp", "--p", "3", "--k", "1",
                               "--r", "4", "--method", "both", "--jobs", "1")
        assert code == 0
        assert "count 38" in out

    def test_ha_f2_22_count(self, capsys):
        # the largest table field, at TABLE_CAP: 4094 coefficients
        code, out, _ = run_cli(capsys, "count-cpp", "--p", "2", "--k", "11",
                               "--r", "2", "--method", "ha", "--jobs", "1")
        assert code == 0
        assert "count 4094" in out.splitlines()

    # the member-dense tower fields (1110, 1181, 97 and 122 member classes,
    # each of which streams all q values): the direct and subfield routes
    # agree
    @pytest.mark.parametrize("p,k,r,count", [(2, 2, 9, 58479),
                                             (5, 1, 8, 37100),
                                             (2, 3, 7, 13321),
                                             (3, 2, 6, 11376)],
                             ids=["F_2^18", "F_5^8", "F_2^21", "F_3^12"])
    def test_both_member_dense_counts(self, capsys, p, k, r, count):
        code, out, _ = run_cli(capsys, "count-cpp", "--p", str(p), "--k",
                               str(k), "--r", str(r), "--method", "both",
                               "--jobs", "1")
        assert code == 0
        assert f"count {count}" in out.splitlines()

    def test_json_report(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "count-cpp", "--p", "3", "--k", "1",
                             "--r", "4", "--method", "direct", "--jobs", "1",
                             "--list", "--out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["count"] == 38
        assert doc["d"] == "41"
        assert doc["field"] == {"p": 3, "n": 4, "modulus": [1, 0, 1, 1, 1],
                                "provenance": "default-lex"}
        assert len(doc["elements"]) == 38
        assert doc["elements"] == sorted(doc["elements"])
        assert doc["version"]

    def test_report_bytes_stable_modulo_seconds(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        for path in (p1, p2):
            run_cli(capsys, "count-cpp", "--p", "3", "--k", "1", "--r", "4",
                    "--jobs", "1", "--list", "--out", str(path))
        strip = lambda s: re.sub(r'"seconds": [0-9.]+', '"seconds": 0', s)
        assert strip(p1.read_text()) == strip(p2.read_text())

    def test_csv_report(self, capsys, tmp_path):
        path = tmp_path / "report.csv"
        code, _, _ = run_cli(capsys, "count-cpp", "--p", "5", "--k", "1",
                             "--r", "4", "--jobs", "1", "--list",
                             "--out", str(path))
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "a,condition"
        assert len(lines) == 61
        assert all(re.match(r"^\d+,r4_p5:\d$", ln) for ln in lines[1:])

    def test_bad_extension_before_scan(self, capsys, monkeypatch, tmp_path):
        import cppforge.families as families_mod

        def no_scan(*args, **kwargs):
            raise AssertionError("count_cpp called")

        monkeypatch.setattr(families_mod, "count_cpp", no_scan)
        code, out, err = run_cli(capsys, "count-cpp", "--p", "3", "--k", "1",
                                 "--r", "4", "--out", str(tmp_path / "r.xml"))
        assert code == 2
        assert out == ""
        assert "extension" in err
        assert list(tmp_path.iterdir()) == []
        # a directory that takes no new file is refused there too, before
        # the field is built, with its reason and no traceback
        (tmp_path / "file").write_text("")
        for where, why in (("missing/r.json", "No such file or directory"),
                           ("file/r.csv", "Not a directory")):
            path = str(tmp_path / where)
            code, out, err = run_cli(capsys, "count-cpp", "--p", "3", "--k",
                                     "1", "--r", "4", "--list", "--out", path)
            assert (code, out) == (2, "")
            assert err == f"error: report-unwritable: {path!r}: {why}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["file"]

    def test_failed_write_usage_error(self, capsys, tmp_path):
        # a report path that still cannot be written after the scan: its
        # message and exit 2, no traceback
        path = tmp_path / "r.json"
        path.mkdir()
        code, out, err = run_cli(capsys, "count-cpp", "--p", "3", "--k", "1",
                                 "--r", "4", "--out", str(path))
        assert code == 2
        assert "count 38" in out
        assert err == (f"error: report-unwritable: {str(path)!r}: "
                       "Is a directory\n")

    def test_gcd_violation_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "count-cpp", "--p", "3", "--k", "4",
                               "--r", "4", "--jobs", "1")
        assert code == 2
        assert "gcd-violation" in err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_usage_error(self, capsys, monkeypatch, jobs):
        # refused before any field is built, not run serially
        def no_scan(*args, **kwargs):
            raise AssertionError("count_cpp called")

        monkeypatch.setattr(families, "count_cpp", no_scan)
        code, out, err = run_cli(capsys, "count-cpp", "--p", "3", "--k", "1",
                                 "--r", "4", "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert f"no-jobs: --jobs {jobs} < 1" in err

    @pytest.mark.parametrize("k,r", [(-1, 4), (0, 4), (1, -1), (1, 0)])
    def test_k_and_r_below_one_usage_error(self, capsys, k, r):
        code, out, err = run_cli(capsys, "count-cpp", "--p", "3", "--k",
                                 str(k), "--r", str(r), "--jobs", "1")
        assert code == 2
        assert out == ""
        assert "hypothesis-violation: need k >= 1 and r >= 1" in err


# stdout of `verify` for every family id: (argv tail, d, tested, count)
VERIFY_PINNED = [
    (("niho2", "--p", "3", "--k", "2"), 11, 8, None),
    (("p3k2",), 5, 2, None),
    (("r4_general", "--p", "7"), 401, 2400, 300),
    (("r4_general", "--p", "3", "--k", "3"), 20441, 531440, 2860),
    (("r4_p3",), 41, 80, 38),
    (("r4_p3", "--k", "2"), 821, 6560, 64),
    (("r4_p3", "--k", "3"), 20441, 531440, 2860),
    (("r4_p3_beta",), 41, 28, None),
    (("r4_p5",), 157, 624, 60),
    (("r4_p5_vset",), 157, 12, None),
    (("r6_p3",), 365, 24, None),
    (("r6_p5",), 3907, 72, None),
    (("rp_k1", "--p", "5"), 157, 4, None),
    (("rt_k1", "--p", "5", "--t", "2"), 313, 4, None),
    (("multinomial", "--p", "3", "--k", "2", "--r", "5"), None, 12, None),
]


class TestVerify:
    @pytest.mark.parametrize("argv,d,tested,count", VERIFY_PINNED,
                             ids=[" ".join(c[0]) for c in VERIFY_PINNED])
    def test_pinned_stdout(self, capsys, argv, d, tested, count):
        code, out, _ = run_cli(capsys, "verify", "--family", *argv)
        want = [f"family {argv[0]}"]
        if d is not None:
            want.append(f"d {d}")
        want.append(f"tested {tested}")
        if count is not None:
            want.append(f"count {count}")
        want.append("PASS")
        assert code == 0
        assert out.splitlines() == want

    def test_every_family_pinned(self):
        assert {c[0][0] for c in VERIFY_PINNED} == set(FAMILIES)

    def test_readme_lists_every_family(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        para = readme.split("Families for `verify`:")[1].split(".")[0]
        assert re.findall(r"`(\w+)`", para) == list(FAMILIES)

    def test_r4_general_generic_field_is_a_cap(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--family", "r4_general",
                                 "--p", "7", "--k", "2")
        assert code == 3
        assert out == ""
        assert "cap-exceeded" in err

    def test_oracle_on_generic_field_is_a_cap(self, capsys):
        # F_3^14 is past the table cap: the direct oracle exits 3
        code, out, err = run_cli(capsys, "verify", "--family", "p3k2",
                                 "--k", "7")
        assert code == 3
        assert out == ""
        assert "field-too-large" in err

    @pytest.mark.parametrize("argv", [("p3k2", "--k", "7"),
                                      ("niho2", "--p", "3", "--k", "7"),
                                      ("r4_p5_vset", "--k", "3")],
                             ids=" ".join)
    def test_list_family_past_cap_lists_nothing(self, capsys, monkeypatch,
                                                argv):
        # F_3^14 and F_5^12 are past the table cap: exit 3 before the
        # coefficients are listed
        from cppforge.field import FieldCtx

        def listed(*args):
            raise AssertionError("coefficients listed")
        monkeypatch.setattr(FieldCtx, "neg_one_roots", listed)
        monkeypatch.setattr(FieldCtx, "mu_subgroup", listed)
        code, out, err = run_cli(capsys, "verify", "--family", *argv)
        assert code == 3
        assert out == ""
        assert "field-too-large" in err

    # one option per family id that its function does not read
    UNUSED = [("niho2", "--t", "1"), ("p3k2", "--p", "3"),
              ("r4_general", "--r", "4"), ("r4_p3", "--p", "3"),
              ("r4_p3_beta", "--i", "1"), ("r4_p5", "--p", "5"),
              ("r4_p5_vset", "--t", "2"), ("r6_p3", "--preset", "zero"),
              ("r6_p5", "--p", "7"), ("rp_k1", "--t", "3"),
              ("rt_k1", "--k", "2"), ("multinomial", "--i", "2")]

    @pytest.mark.parametrize("family,opt,value", UNUSED,
                             ids=[" ".join(c) for c in UNUSED])
    def test_unused_option_is_usage_error(self, capsys, monkeypatch, family,
                                          opt, value):
        # refused before any field is built, even at the default's value
        import cppforge.families as families_mod

        def no_field(*args, **kwargs):
            raise AssertionError("field built")
        monkeypatch.setattr(families_mod, "build_field", no_field)
        code, out, err = run_cli(capsys, "verify", "--family", family,
                                 opt, value)
        assert code == 2
        assert out == ""
        assert f"unused-option: {opt};" in err

    def test_every_family_has_an_unused_case(self):
        assert [c[0] for c in self.UNUSED] == list(FAMILIES)

    @pytest.mark.parametrize("r,code,msg", [(7, 3, "field-too-large"),
                                            (8, 2, "gcd-violation")])
    def test_multinomial_refused_before_presets(self, capsys, monkeypatch,
                                                r, code, msg):
        # F_3^14 is past the table cap: exit 3 before the presets search;
        # F_3^16 with gcd(p-1, r) = 2: the hypothesis exits 2 first
        import cppforge.families as families_mod

        def no_presets(*args):
            raise AssertionError("presets searched")
        monkeypatch.setattr(families_mod, "multinomial_presets", no_presets)
        got, out, err = run_cli(capsys, "verify", "--family", "multinomial",
                                "--p", "3", "--k", "2", "--r", str(r))
        assert got == code
        assert out == ""
        assert msg in err

    def test_multinomial_hypothesis_on_table_field(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--family", "multinomial",
                                 "--p", "3", "--k", "1", "--r", "4")
        assert code == 2
        assert out == ""
        assert "gcd-violation" in err

    def test_niho(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "niho2",
                               "--p", "3", "--k", "2", "--i", "1")
        assert code == 0
        assert "tested 8" in out and "PASS" in out

    def test_multinomial(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "multinomial",
                               "--p", "3", "--k", "1", "--r", "5",
                               "--preset", "zero")
        assert code == 0
        assert "tested 1" in out and "PASS" in out

    def test_r6(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "r6_p3", "--k", "1")
        assert code == 0
        assert "tested 24" in out and "PASS" in out

    def test_beta(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "r4_p3_beta",
                               "--k", "1")
        assert code == 0
        assert "tested 28" in out

    def test_vset(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "r4_p5_vset",
                               "--k", "1")
        assert code == 0
        assert "tested 12" in out

    def test_hypothesis_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--family", "niho2",
                               "--p", "2", "--k", "2", "--i", "1")
        assert code == 2
        assert "even-characteristic" in err

    @pytest.mark.parametrize("k,msg", [(4, "gcd-violation"),
                                       (2, "k-not-coprime-4")])
    def test_beta_hypotheses_before_field(self, capsys, monkeypatch, k, msg):
        # k = 4 breaks both hypotheses and would need F_3^16 for the root
        # search; the violation is a usage error, found before any field
        import cppforge.families as families_mod
        from cppforge.field import TABLE_CAP
        built = []
        real = families_mod.build_field

        def recording(p, n, *args, **kwargs):
            built.append(p ** n)
            return real(p, n, *args, **kwargs)

        monkeypatch.setattr(families_mod, "build_field", recording)
        code, out, err = run_cli(capsys, "verify", "--family", "r4_p3_beta",
                                 "--k", str(k))
        assert code == 2
        assert out == ""
        assert msg in err
        assert all(q <= TABLE_CAP for q in built)

    @pytest.mark.parametrize("argv", [("r4_general", "--p", "3", "--k", "4"),
                                      ("r4_p3", "--k", "4")])
    def test_r4_scan_hypothesis_before_field(self, capsys, monkeypatch, argv):
        # gcd(5, 3^4 - 1) = 5: a usage error, found before F_3^16 is built
        import cppforge.families as families_mod
        built = []
        monkeypatch.setattr(families_mod, "build_field",
                            lambda p, n, *a, **kw: built.append(p ** n))
        code, out, err = run_cli(capsys, "verify", "--family", *argv)
        assert code == 2
        assert out == ""
        assert "gcd-violation" in err
        assert built == []

    @pytest.mark.parametrize("argv,msg", [
        (("r4_general", "--p", "3", "--k", "-1"), "need k >= 1 and r >= 1"),
        (("r4_p5", "--k", "0"), "need k >= 1 and r >= 1"),
        (("rt_k1", "--p", "7", "--t", "-1"), "need t >= 1"),
        (("rt_k1", "--p", "5", "--t", "0"), "need t >= 1")])
    def test_exponent_parameters_below_one(self, capsys, argv, msg):
        # no polynomial exponent to verify: a usage error, never a PASS
        code, out, err = run_cli(capsys, "verify", "--family", *argv)
        assert code == 2
        assert out == ""
        assert "hypothesis-violation: " + msg in err

    def test_cap_exit_code_follows_the_type(self, capsys, monkeypatch):
        # exit 3 for CapExceeded whatever its text, 2 for any other
        # ValueError even when its text reads like a cap
        from cppforge.field import CapExceeded

        def raising(exc):
            def family():
                raise exc
            return (), family

        monkeypatch.setitem(FAMILIES, "p3k2", raising(CapExceeded("x")))
        assert run_cli(capsys, "verify", "--family", "p3k2")[0] == 3
        cap_text = ValueError("cap-exceeded: subgroup order")
        monkeypatch.setitem(FAMILIES, "p3k2", raising(cap_text))
        assert run_cli(capsys, "verify", "--family", "p3k2")[0] == 2

    def test_counterexample_exit_code(self, capsys, monkeypatch):
        import cppforge.oracle as oracle_mod
        monkeypatch.setattr(oracle_mod, "is_cpp_exponent_pair",
                            lambda *a, **k: False)
        code, out, _ = run_cli(capsys, "verify", "--family", "niho2",
                               "--p", "3", "--k", "1", "--i", "1")
        assert code == 1
        assert "FAIL" in out and "counterexample" in out

    @pytest.mark.parametrize("argv", [
        ("count-cpp", "--p", "3", "--k", "1", "--r", "4", "--method", "ha"),
        ("conjecture", "--id", "1", "--p", "3", "--r", "4", "--kmin", "1",
         "--kmax", "1"),
        ("conjecture", "--id", "1", "--p", "3", "--r", "4", "--kmin", "1",
         "--kmax", "1", "--budget", "3"),
        ("verify", "--family", "r6_p3")])
    def test_broken_invariant_exits_4(self, capsys, monkeypatch, argv):
        # lambda entries outside F_{p^k}, from the bulk rows or the scalar
        # check, and a generated r = 6 coefficient whose h_a is no Dickson
        # polynomial, are internal errors (exit 4), not counterexamples
        import cppforge.bulk as bulk_mod
        import cppforge.families as families_mod
        from cppforge.field import FieldCtx

        if argv[0] == "verify":
            monkeypatch.setattr(families_mod, "is_dickson_of_degree",
                                lambda *a: None)
            broken = "h_a is not a Dickson polynomial"
        else:
            rows = bulk_mod.lambda_scan

            def shifted(ctx, r, k, A):
                return (rows(ctx, r, k, A) + 1) % ctx.q

            monkeypatch.setattr(bulk_mod, "lambda_scan", shifted)
            monkeypatch.setattr(FieldCtx, "in_subfield",
                                lambda self, x, k: False)
            broken = "left the subfield"
        code, out, err = run_cli(capsys, *argv)
        assert code == 4
        assert out == ""
        assert broken in err

    def test_method_mismatch_exits_1(self, capsys, monkeypatch):
        import cppforge.scan as scan_mod
        full = scan_mod.ha_cpp_scan
        monkeypatch.setattr(scan_mod, "ha_cpp_scan",
                            lambda *a, **kw: full(*a, **kw)[1:])
        code, _, err = run_cli(capsys, "count-cpp", "--p", "3", "--k", "1",
                               "--r", "4", "--method", "both")
        assert code == 1
        assert err.startswith("error: method-mismatch")

    def test_only_the_method_mismatch_raises_runtime_error(self):
        # no library code raises a bare RuntimeError: the method mismatch
        # has its own subclass, the one exception main maps to exit 1, and
        # every other failure inside the library is an InternalError
        src = Path(__file__).parents[1] / "src" / "cppforge"
        plain = [(path.name, node.lineno)
                 for path in sorted(src.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Raise) and node.exc is not None
                 and getattr(getattr(node.exc, "func", node.exc), "id",
                             None) == "RuntimeError"]
        assert plain == []
        assert issubclass(families.MethodMismatch, RuntimeError)

    @pytest.mark.parametrize("module,name,exc,argv", [
        ("families", "multinomial_presets", KeyError("zero"),
         ("verify", "--family", "multinomial", "--p", "3", "--k", "2",
          "--r", "5")),
        ("scan", "ha_cpp_scan", RecursionError("deep"),
         ("count-cpp", "--p", "3", "--k", "1", "--r", "4", "--method", "ha"))])
    def test_unmapped_exception_exits_4(self, capsys, monkeypatch, module,
                                        name, exc, argv):
        # an exception main does not map is an internal error (exit 4),
        # never a counterexample's exit 1, even a RuntimeError subclass
        def raising(*args, **kwargs):
            raise exc
        monkeypatch.setattr(f"cppforge.{module}.{name}", raising)
        code, out, err = run_cli(capsys, *argv)
        assert code == 4
        assert out == ""
        assert err.startswith("Traceback")
        assert err.endswith(f"error: internal: {type(exc).__name__}: {exc}\n")

    def test_preset_choices_are_the_family_presets(self):
        # --preset offers exactly the names multinomial_presets returns,
        # in its order, on a field where each preset has a member
        def action(parser, dest):
            return next(a for a in parser._actions if a.dest == dest)
        verify = action(cli.build_parser(), "command").choices["verify"]
        choices = action(verify, "preset").choices
        ctx = build_field(5, 3)
        assert tuple(choices) == tuple(families.multinomial_presets(ctx, 1))
        for name in choices:
            assert list(families.multinomial_presets(ctx, 1, name)) == [name]


# stdout of `conjecture`: the eleven conjecture-2 fields of the acceptance
# grid and four conjecture-1 fields
CONJECTURE_PINNED = [
    (("--id", "2", "--p", "3", "--kmin", "1", "--kmax", "1"),
     "k=1: coefficients=2 failures=0 reformulated_failures=0 pass"),
    (("--id", "2", "--p", "3", "--kmin", "2", "--kmax", "2"),
     "k=2: coefficients=8 failures=0 reformulated_failures=0 pass"),
    (("--id", "2", "--p", "3", "--kmin", "3", "--kmax", "3"),
     "k=3: coefficients=26 failures=0 reformulated_failures=0 pass"),
    (("--id", "2", "--p", "5", "--kmin", "1", "--kmax", "1"),
     "k=1: coefficients=4 failures=0 reformulated_failures=0 pass"),
    (("--id", "2", "--p", "5", "--kmin", "2", "--kmax", "2"),
     "k=2: coefficients=24 failures=0 reformulated_failures=0 pass"),
    (("--id", "2", "--p", "5", "--kmin", "3", "--kmax", "3"),
     "k=3: coefficients=124 failures=0 reformulated_failures=0 pass"),
    (("--id", "2", "--p", "7", "--kmin", "1", "--kmax", "1"),
     "k=1: coefficients=6 failures=0 reformulated_failures=0 pass"),
    (("--id", "2", "--p", "7", "--kmin", "2", "--kmax", "2"),
     "k=2: coefficients=48 failures=0 reformulated_failures=0 pass"),
    (("--id", "2", "--p", "7", "--kmin", "3", "--kmax", "3"),
     "k=3: coefficients=342 failures=0 reformulated_failures=0 pass"),
    (("--id", "2", "--p", "11", "--kmin", "1", "--kmax", "1"),
     "k=1: coefficients=10 failures=0 reformulated_failures=0 pass"),
    (("--id", "2", "--p", "13", "--kmin", "1", "--kmax", "1"),
     "k=1: coefficients=12 failures=0 reformulated_failures=0 pass"),
    (("--id", "1", "--p", "2", "--r", "4", "--kmin", "3", "--kmax", "3"),
     "k=3: witnesses=238 cpp_failures=0 pass"),
    (("--id", "1", "--p", "7", "--r", "4", "--kmin", "1", "--kmax", "1"),
     "k=1: witnesses=180 cpp_failures=0 pass"),
    (("--id", "1", "--p", "3", "--r", "6", "--kmin", "1", "--kmax", "1"),
     "k=1: witnesses=24 cpp_failures=0 pass"),
    (("--id", "1", "--p", "5", "--r", "6", "--kmin", "1", "--kmax", "1"),
     "k=1: witnesses=72 cpp_failures=0 pass"),
]


class TestConjecture:
    @pytest.mark.parametrize("argv,line", CONJECTURE_PINNED,
                             ids=[" ".join(c[0]) for c in CONJECTURE_PINNED])
    def test_pinned_stdout(self, capsys, argv, line):
        code, out, _ = run_cli(capsys, "conjecture", *argv)
        assert code == 0
        assert out == line + "\n"

    def test_id2_p5(self, capsys):
        code, out, _ = run_cli(capsys, "conjecture", "--id", "2", "--p", "5",
                               "--kmin", "1", "--kmax", "2")
        assert code == 0
        assert out.count("pass") == 2

    def test_id1_p3_r4(self, capsys):
        code, out, _ = run_cli(capsys, "conjecture", "--id", "1", "--p", "3",
                               "--r", "4", "--kmin", "1", "--kmax", "1")
        assert code == 0
        assert "witnesses=28" in out

    def test_not_prime(self, capsys):
        code, _, err = run_cli(capsys, "conjecture", "--id", "2", "--p", "9",
                               "--kmin", "1", "--kmax", "1")
        assert code == 2
        assert "not-prime" in err

    @pytest.mark.parametrize("argv,msg", [
        (("--id", "2", "--p", "3", "--kmin", "3", "--kmax", "1"), "empty-range"),
        (("--id", "1", "--p", "3", "--budget", "0"), "empty-budget"),
        (("--id", "1", "--p", "3", "--budget", "-1"), "empty-budget")])
    def test_nothing_to_check_is_usage_error(self, capsys, argv, msg):
        # a run that checks nothing neither verifies nor refutes anything
        code, out, err = run_cli(capsys, "conjecture", *argv)
        assert code == 2
        assert out == ""
        assert msg in err

    ID2_UNUSED = [(("--r", "9"), "--r"), (("--r", "4"), "--r"),
                  (("--budget", "5"), "--budget"),
                  (("--r", "9", "--budget", "5"), "--r --budget")]

    @pytest.mark.parametrize("argv,unused", ID2_UNUSED,
                             ids=["_".join(c[0]) for c in ID2_UNUSED])
    def test_id2_unused_option_is_usage_error(self, capsys, monkeypatch,
                                              argv, unused):
        # conjecture 2 fixes r = p - 1 and checks every coefficient: --r and
        # --budget are refused before any field is built, even at the
        # default's value
        import cppforge.families as families_mod

        def no_field(*args, **kwargs):
            raise AssertionError("field built")
        monkeypatch.setattr(families_mod, "build_field", no_field)
        code, out, err = run_cli(capsys, "conjecture", "--id", "2", "--p", "3",
                                 "--kmin", "1", "--kmax", "2", *argv)
        assert code == 2
        assert out == ""
        assert f"unused-option: {unused}; conjecture 2 reads --p --kmin " \
            "--kmax" in err

    def test_every_k_checked_before_output(self, capsys):
        # k = 2 breaks gcd(r, k) = 1: nothing is printed for k = 1 either
        code, out, err = run_cli(capsys, "conjecture", "--id", "1", "--p", "3",
                                 "--r", "4", "--kmin", "1", "--kmax", "2")
        assert code == 2
        assert out == ""
        assert "hypothesis-violation: gcd(r, k) != 1" in err

    def test_id1_generic_cpp_failure_exits_1(self, capsys, monkeypatch):
        # witnesses of a budgeted search on a generic field are re-checked
        import cppforge.families as families_mod
        from cppforge.field import build_field
        monkeypatch.setattr(families_mod, "build_field",
                            lambda p, n: build_field(p, n, backend="generic"))
        monkeypatch.setattr(families_mod, "ha_pp_check", lambda *args: False)
        code, out, _ = run_cli(capsys, "conjecture", "--id", "1", "--p", "2",
                               "--r", "4", "--kmin", "3", "--kmax", "3",
                               "--budget", "200")
        assert code == 1
        assert out == "k=3: witnesses=11 cpp_failures=11 FAIL\n"

    def test_subfield_view_cap(self, capsys):
        # the view of F_7^5 holds O(7^5) logs; only TABLE_CAP bounds it
        code, out, err = run_cli(capsys, "conjecture", "--id", "2", "--p", "7",
                                 "--kmin", "5", "--kmax", "5")
        assert code == 0
        assert out == ("k=5: coefficients=16806 failures=0 "
                       "reformulated_failures=0 pass\n")
        assert err == ""
        # F_3^14 has 4782969 elements, past TABLE_CAP
        code, out, err = run_cli(capsys, "conjecture", "--id", "2", "--p", "3",
                                 "--kmin", "14", "--kmax", "14")
        assert code == 3
        assert out == ""
        assert "cap-exceeded" in err


class TestWalsh:
    def test_from_d_all(self, capsys):
        code, out, _ = run_cli(capsys, "walsh", "--p", "3", "--k", "1",
                               "--d", "5", "--all")
        assert code == 0
        assert "s 3" in out
        assert out.count("agree=True") == 9
        assert "outside the stated coefficient family" in out  # a = 0 flag

    def test_single_a(self, capsys):
        code, out, _ = run_cli(capsys, "walsh", "--p", "3", "--k", "1",
                               "--s", "3", "--a", "3")
        assert code == 0
        assert "a=3 N=1 walsh=0" in out
        # one N(a) past CHARSUM_CAP, so no cross-check: generic fields up
        # to F_2^32 (65537 points on the unit circle), the table field
        # F_3^12, s past int64, and p^3 > 2**63, where U's digit rows are
        # reduced mod p before the product with conj(a)'s digit matrix
        for argv, line in [
                ("--p 2 --k 16 --s 3 --a 5", "a=5 N=3 walsh=131072"),
                ("--p 3 --k 10 --s 2 --a 5", "a=5 N=3 walsh=118098"),
                ("--p 7 --k 5 --s 3 --a 17", "a=17 N=0 walsh=-16807"),
                ("--p 2 --k 12 --s 3 --a 5", "a=5 N=1 walsh=0"),
                ("--p 3 --k 6 --s 2 --a 7", "a=7 N=1 walsh=0"),
                ("--p 2 --k 16 --s 1152921504606846979 --a 5",
                 "a=5 N=0 walsh=-65536"),
                ("--p 2 --k 16 --s 1000000000000000000000000000003 --a 5",
                 "a=5 N=1 walsh=0"),
                ("--p 3000017 --k 1 --s 3 --a 3000016",
                 "a=3000016 N=4 walsh=9000051")]:
            got = run_cli(capsys, "walsh", *argv.split())
            assert got == (0, line + "\n", ""), argv

    def test_one_root_count_per_coefficient(self, capsys, monkeypatch):
        # --all reads every N(a) off one histogram, with no per-coefficient
        # count; --a counts its one N(a) on the unit circle
        calls = []

        def counted(name, real):
            def wrapper(*args):
                calls.append(name)
                return real(*args)
            return wrapper
        for name in ("count_N", "all_root_counts"):
            monkeypatch.setattr(cli, name, counted(name, getattr(niho, name)))
        code, out, _ = run_cli(capsys, "walsh", "--p", "3", "--k", "1",
                               "--s", "3", "--all")
        assert code == 0
        assert out.count("agree=True") == 9
        assert calls == ["all_root_counts"]
        calls.clear()
        code, out, _ = run_cli(capsys, "walsh", "--p", "3", "--k", "1",
                               "--s", "3", "--a", "3")
        assert code == 0
        assert out.count("agree=True") == 1
        assert calls == ["count_N"]

    def test_all_on_generic_field_is_cap_error(self, capsys):
        # 3^24 coefficients: refused at once, before any line is printed,
        # the `s ... (from d=...)` line included
        d = 2 * (3 ** 12 - 1) + 1
        for which in (("--s", "2"), ("--d", str(d))):
            code, out, err = run_cli(capsys, "walsh", "--p", "3", "--k", "12",
                                     *which, "--all")
            assert code == 3
            assert out == ""
            assert "field-too-large" in err

    def test_all_output_pinned(self, capsys):
        # byte for byte, as the per-line loop printed them: the harness
        # command's 730 lines, F_2^18's 262144 lines over many output
        # blocks (no cross-check), and one --a line
        for argv, lines, digest in [
                (("--p", "3", "--k", "3", "--d", "29", "--all"), 730,
                 "e5951d94a4152223c5ce168a8dd70b823a066c2c2904b83dce0f08f5743013e9"),
                (("--p", "2", "--k", "9", "--s", "3", "--all"), 262144,
                 "ceefe77010a578c0b3c63c079cb5f2771f6bff3cbd66dcfa0aa9e6428f8a665b"),
                (("--p", "3", "--k", "1", "--s", "3", "--a", "3"), 1,
                 "55f2b4fb04b57fdbd2eb6233b3248fc278907a98a6cc00cd13385be323284414")]:
            code, out, _ = run_cli(capsys, "walsh", *argv)
            assert code == 0
            assert out.count("\n") == lines
            assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_doctored_root_counts_disagree_on_their_lines(self, capsys,
                                                          monkeypatch):
        doctored = [0, 5, 364, 728]

        def shifted(nctx, s):
            counts = niho.all_root_counts(nctx, s)
            counts[doctored] += 1
            return counts
        monkeypatch.setattr(cli, "all_root_counts", shifted)
        code, out, _ = run_cli(capsys, "walsh", "--p", "3", "--k", "3",
                               "--s", "2", "--all")
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == 729
        assert [i for i, line in enumerate(lines)
                if line.endswith("agree=False")] == doctored
        assert all(line.endswith("agree=True") for i, line in enumerate(lines)
                   if i not in doctored)

    def test_non_integer_cross_check_prints_none(self, capsys, monkeypatch):
        # unequal C[1], C[2] on p = 3: the sum is no integer
        def uneven(ctx, vals, coeffs):
            C = niho.direct_walsh(ctx, vals, coeffs)
            C[7] += (0, 1, -1)
            return C
        monkeypatch.setattr(cli, "direct_walsh", uneven)
        code, out, _ = run_cli(capsys, "walsh", "--p", "3", "--k", "3",
                               "--s", "2", "--all")
        assert code == 1
        lines = out.splitlines()
        assert lines[7].startswith("a=7 ")
        assert lines[7].endswith(" direct=None agree=False")
        assert sum("agree=False" in line for line in lines) == 1

    def test_a_with_all_is_usage_error(self, capsys):
        # one coefficient or all of them, not both
        with pytest.raises(SystemExit) as exc:
            main(["walsh", "--p", "3", "--k", "1", "--s", "2", "--a", "5",
                  "--all"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "not allowed with argument" in err

    @pytest.mark.parametrize("a", ["100000", "729", "-3"])
    def test_a_outside_field_is_usage_error(self, capsys, a):
        code, out, err = run_cli(capsys, "walsh", "--p", "3", "--k", "3",
                                 "--d", "29", "--a", a)
        assert code == 2
        assert out == ""
        assert "not-an-element" in err


class TestReadme:
    def test_layout_names_every_module(self):
        # the Layout table's first column names each module of the
        # package once, and no module that is gone
        root = Path(__file__).parents[1]
        readme = (root / "README.md").read_text()
        table = readme.split("## Layout", 1)[1].split("\n## ", 1)[0]
        named = {m for row in re.findall(r"^\| ([^|]*)\|", table, flags=re.M)
                 for m in re.findall(r"`cppforge\.(\w+)`", row)}
        modules = {path.stem for path in (root / "src" / "cppforge").glob("*.py")
                   if path.stem != "__init__"}
        assert named == modules

    def test_examples_match_cli(self, capsys):
        # every `$ cppforge ...` example prints the lines the README shows
        # (up to a `...` line, which stands for the rest of the output)
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        examples = re.findall(r"^\$ cppforge (.*)\n((?:(?!```).+\n)*)", readme,
                              flags=re.M)
        assert len(examples) >= 2
        for command, shown in examples:
            shown = shown.splitlines()
            code, out, _ = run_cli(capsys, *shlex.split(command))
            assert code == 0, command
            lines = out.splitlines()
            if "..." in shown:
                shown = shown[:shown.index("...")]
                lines = lines[:len(shown)]
            assert lines == shown, command
