"""CLI surface: grammar, reports, exit codes, output determinism."""

import json
import re

from cppforge.cli import main


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

    def test_gcd_violation_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "count-cpp", "--p", "3", "--k", "4",
                               "--r", "4", "--jobs", "1")
        assert code == 2
        assert "gcd-violation" in err


class TestVerify:
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

    def test_counterexample_exit_code(self, capsys, monkeypatch):
        import cppforge.cli as cli_mod
        monkeypatch.setattr(cli_mod, "is_cpp_exponent_pair",
                            lambda *a, **k: False)
        code, out, _ = run_cli(capsys, "verify", "--family", "niho2",
                               "--p", "3", "--k", "1", "--i", "1")
        assert code == 1
        assert "FAIL" in out and "counterexample" in out


class TestConjecture:
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

    def test_subfield_view_cap(self, capsys):
        # F_7^5 as a subfield would need two 16807x16807 tables
        code, _, err = run_cli(capsys, "conjecture", "--id", "2", "--p", "7",
                               "--kmin", "5", "--kmax", "5")
        assert code == 3
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
