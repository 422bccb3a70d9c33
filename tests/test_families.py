"""Family exponents, membership conditions, generators, and harnesses."""

import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from cppforge import bulk, cli, families, oracle, scan
from cppforge.field import InternalError, build_field
from cppforge.families import (QUARTIC_BETA_POLY,
                               QUARTIC_BETA_IDENTITIES, SEXTIC_BETA_POLY,
                               beta_quartic_all, dickson_witness_search,
                               field_with_root,
                               multinomial_admissible_a, multinomial_map,
                               multinomial_presets, neg_one_map_permutes,
                               niho_exponent, r4_condition, r4_condition_p3,
                               r4_condition_p5, r6_coordinate_table,
                               r6_dickson_coefficient,
                               rt_family_coefficients, scaled_tower_exponent,
                               tower_exponent, verify_neg_one_family)
from cppforge.hadickson import ha_pp_check, is_dickson_of_degree, lambda_coeffs
from cppforge.oracle import is_cpp, is_cpp_exponent_pair
from test_cli import VERIFY_PINNED
from twins import (beta_quartic_coefficient, multinomial_fn,
                   quartic_beta_identities, trace)


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


# the label histograms of the r = 4 conditions over a = 1..q-1; conditions
# evaluate in order, so 1) takes part of 2) (over F_3^4 the closed-form
# membership, 28 elements, is their union)
TAG_HISTOGRAMS = [
    (r4_condition, 3, 1, {"r4_general:1": 8, "r4_general:2": 20,
                          "r4_general:4": 8, "r4_general:5": 2,
                          "untagged": 42}),
    (r4_condition, 3, 2, {"r4_general:3": 64, "untagged": 6496}),
    (r4_condition, 7, 1, {"r4_general:1": 24, "r4_general:2": 156,
                          "r4_general:6": 24, "r4_general:7": 96,
                          "untagged": 2100}),
    (r4_condition, 13, 1, {"r4_general:1": 48, "r4_general:2": 600,
                           "r4_general:8": 144, "untagged": 27768}),
    (r4_condition, 17, 1, {"r4_general:1": 64, "r4_general:2": 1056,
                           "untagged": 82400}),
    (r4_condition_p3, 3, 1, {"r4_p3:2": 28, "r4_p3:4": 8, "r4_p3:5": 2,
                             "untagged": 42}),
    (r4_condition_p3, 3, 2, {"r4_p3:3": 64, "untagged": 6496}),
    (r4_condition_p5, 5, 1, {"r4_p5:1": 8, "r4_p5:2": 36, "r4_p5:3": 16,
                             "untagged": 564}),
]


class TestR4Conditions:
    def test_tags_characterize_cpp_set_f81(self, f81):
        direct = set(scan.direct_cpp_scan(f81, 41))
        tagged = {a for a in range(1, 81) if r4_condition(f81, a, 1)}
        assert tagged == direct
        assert len(direct) == 38

    @pytest.mark.parametrize("condition,p,k,want", [
        pytest.param(fn, p, k, want, id=f"{fn.__name__}-F{p ** (4 * k)}")
        for fn, p, k, want in TAG_HISTOGRAMS])
    def test_tag_histogram(self, condition, p, k, want):
        # every a = 1..q-1; a condition reads a only through its lambda
        # vector, so one a per distinct vector is tagged and counted once
        # for every a sharing that vector
        ctx = build_field(p, 4 * k)
        A = np.arange(1, ctx.q)
        _, first, counts = np.unique(bulk.lambda_scan(ctx, 4, k, A), axis=0,
                                     return_index=True, return_counts=True)
        hist = Counter()
        for a, count in zip(A[first].tolist(), counts.tolist()):
            hist[condition(ctx, a, k) or "untagged"] += count
        assert dict(hist) == want

    def test_p3_one_lambda_vector_per_coefficient(self, monkeypatch):
        # the closed forms and the inherited conditions read one
        # normalized quintic: no coefficient's lambda vector is computed twice
        ctx = build_field(3, 8)
        calls = []

        def counted(ctx, a, r, k):
            calls.append(a)
            return lambda_coeffs(ctx, a, r, k)
        monkeypatch.setattr(families, "lambda_coeffs", counted)
        tags = Counter()
        for a in range(1, ctx.q):
            tags[r4_condition_p3(ctx, a, 2) or "untagged"] += 1
        assert calls == list(range(1, ctx.q))
        assert dict(tags) == {"r4_p3:3": 64, "untagged": 6496}

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

    def test_p5_case3_count(self, f625):
        tags = [r4_condition_p5(f625, a, 1) for a in range(1, 625)]
        assert tags.count("r4_p5:3") == 16

    def test_p3_closed_form_matches_general_conditions(self, f81):
        thm = {a for a in range(1, 81) if r4_condition(f81, a, 1)}
        coro = {a for a in range(1, 81) if r4_condition_p3(f81, a, 1)}
        assert thm == coro

    def test_p3_closed_form_condition1_empty_at_k2(self):
        # k = 2 is not 2 mod 4... it is: k=2: condition 1 requires
        # k = 2 mod 4 and the lambda identities; no element satisfies them
        ctx = build_field(3, 8)
        hits = [a for a in range(1, 6561)
                if r4_condition_p3(ctx, a, 2) == "r4_p3:1"]
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
        assert a in beta_quartic_all(ctx, beta)

    def test_total_distinct_k1(self, beta_field):
        ctx, beta = beta_field
        gen = beta_quartic_all(ctx, beta)
        assert len(gen) == 28
        direct = scan.direct_cpp_scan(ctx, 41)
        assert set(gen) <= set(direct)

    def test_uv_both_zero(self, beta_field):
        # (0, 0) is left out of the grid: it would give a = 0
        ctx, beta = beta_field
        with pytest.raises(ValueError, match="uv-both-zero"):
            beta_quartic_coefficient(ctx, beta, 1, 0, 0)
        assert 0 not in beta_quartic_all(ctx, beta)

    def test_k_not_coprime(self):
        ctx = build_field(3, 8)
        with pytest.raises(ValueError, match="k-not-coprime-4"):
            beta_quartic_all(ctx, 3)
        with pytest.raises(ValueError, match="k-not-coprime-4"):
            beta_quartic_coefficient(ctx, 3, 1, 1, 0)

    @pytest.mark.parametrize("k", [1, 3])
    def test_all_equal_scalar_twin(self, k):
        # the array patterns against one scalar coefficient per
        # (family, u, v), each checked on the hand-expanded identities
        ctx, beta = field_with_root(3, 4 * k, QUARTIC_BETA_POLY)
        sub = ctx.subfield_elements(k)
        want = {beta_quartic_coefficient(ctx, beta, family, u, v)
                for family in (1, 2, 3, 4) for u in sub for v in sub
                if (u, v) != (0, 0)}
        assert beta_quartic_all(ctx, beta) == sorted(want)
        assert len(want) == {1: 28, 3: 2860}[k]

    @pytest.mark.parametrize("n,k", [(4, 1), (12, 3)])
    def test_identities_equal_scalar_twin(self, n, k):
        # both identity tables against the hand-expanded forms, at random
        # coordinates in F_{3^k} (most of them no member) and at zero
        ctx = build_field(3, n)
        rng = np.random.default_rng(n)
        sub = np.asarray(ctx.subfield_elements(k), dtype=np.int64)
        coords = [np.append(rng.choice(sub, 400), 0) for _ in range(4)]
        got = [families._coordinate_poly(ctx, terms, coords)
               for terms in QUARTIC_BETA_IDENTITIES]
        want = [quartic_beta_identities(ctx, [int(c[i]) for c in coords])
                for i in range(401)]
        assert [tuple(int(g[i]) for g in got) for i in range(401)] == want
        assert sum(w != (0, 0) for w in want) > 200

    def test_wrong_pattern_is_internal_error(self, monkeypatch, capsys):
        # family 4 as (u, v, v, -u) breaks the identities: exit 4, never a
        # coefficient list
        wrong = families.QUARTIC_BETA_PATTERNS[:3] + (
            ((1, 0), (0, 1), (0, 1), (-1, 0)),)
        monkeypatch.setattr(families, "QUARTIC_BETA_PATTERNS", wrong)
        ctx, beta = field_with_root(3, 4, QUARTIC_BETA_POLY)
        with pytest.raises(InternalError, match="membership identities"):
            beta_quartic_all(ctx, beta)
        assert cli.main(["verify", "--family", "r4_p3_beta"]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "membership identities" in err


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

    @pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2),
                                     (5, 3), (7, 1), (7, 2), (7, 3), (11, 1),
                                     (13, 1)])
    def test_neg_one_family_matches_all_roots(self, p, k):
        # the slow twin: both checks on every a with a^(p^k-1) = -1
        res = verify_neg_one_family(p, k)
        ctx = build_field(p, (p - 1) * k)
        roots = ctx.neg_one_roots(k)
        assert res["coefficients"] == len(roots)
        assert res["failures"] == [a for a in roots
                                   if not ha_pp_check(ctx, a, p - 1, k)]
        assert res["reformulated_failures"] == [
            a for a, ok in zip(roots, neg_one_map_permutes(ctx, k, roots))
            if not ok]
        assert res["passed"]

    @pytest.mark.parametrize("p,k", [(3, 2), (5, 1), (7, 2)])
    def test_neg_one_family_one_check_per_k(self, p, k, monkeypatch):
        # V = {a : a^(p^k-1) = -1} is one class: one subfield-criterion
        # check on a member of V, one reformulated row
        import cppforge.families as families_mod
        asked, rows = [], []
        monkeypatch.setattr(families_mod, "ha_pp_check",
                            lambda ctx, a, r, k_: asked.append(a) or True)
        real = families_mod.neg_one_map_permutes
        monkeypatch.setattr(
            families_mod, "neg_one_map_permutes",
            lambda ctx, k_, cs: rows.append(cs) or real(ctx, k_, cs))
        verify_neg_one_family(p, k)
        ctx = build_field(p, (p - 1) * k)
        assert len(asked) == 1 and rows == [asked]
        assert asked[0] in ctx.neg_one_roots(k)

    def test_neg_one_family_failure_lists_all_of_v(self, monkeypatch):
        import cppforge.families as families_mod
        ctx = build_field(5, 8)
        roots = list(ctx.neg_one_roots(2))
        monkeypatch.setattr(families_mod, "ha_pp_check", lambda *a: False)
        res = verify_neg_one_family(5, 2)
        assert res["failures"] == roots and res["reformulated_failures"] == []
        assert not res["passed"]
        monkeypatch.undo()
        monkeypatch.setattr(families_mod, "neg_one_map_permutes",
                            lambda ctx_, k, cs: [False] * len(cs))
        res = verify_neg_one_family(5, 2)
        assert res["failures"] == [] and res["reformulated_failures"] == roots
        assert not res["passed"]

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
            if is_dickson_of_degree(ctx, lv, 1) is not None:
                wits.add(a)
        assert gen <= wits

    @pytest.mark.parametrize("p,r,k", [(3, 4, 1), (2, 4, 3), (7, 4, 1)])
    def test_witness_search_checks_one_witness_per_orbit(self, p, r, k,
                                                         monkeypatch):
        # an oracle that rejects the orbit of the first witness: the search
        # asks it once per Frobenius orbit of log(a) mod gcd(d - 1, q - 1),
        # at the representative g^j, and reports every witness of the
        # rejected orbit
        witnesses = dickson_witness_search(p, r, k)["witnesses"]
        ctx = build_field(p, r * k)
        d = tower_exponent(p, k, r)
        e = math.gcd(d - 1, ctx.q - 1)
        # the slow twin: every witness through the oracle
        assert all(is_cpp_exponent_pair(ctx, d, a) for a in witnesses)

        def orbit(a):
            j = int(ctx.log_table[a]) % e
            return min(j * p ** i % e for i in range(ctx.n))

        asked = []

        def rejecting(ctx_, d_, a, seen=None):
            asked.append(a)
            return orbit(a) != orbit(witnesses[0])

        monkeypatch.setattr(oracle, "is_cpp_exponent_pair", rejecting)
        res = dickson_witness_search(p, r, k)
        assert asked == [int(ctx.exp_table[j])
                         for j in sorted(set(map(orbit, witnesses)))]
        assert len(asked) < len(witnesses)
        assert res["cpp_failures"] == [a for a in witnesses
                                       if orbit(a) == orbit(witnesses[0])]
        assert not res["passed"]

    @pytest.mark.parametrize("p,r,k", [(3, 4, 1), (7, 4, 1), (2, 4, 3),
                                       (3, 6, 1), (5, 6, 1)])
    def test_witness_search_matches_whole_field(self, p, r, k, monkeypatch):
        # the slow twin: every nonzero a through the scalar matcher; the
        # search matches once per Frobenius orbit of log(a) mod (q-1)/(p^k-1)
        import cppforge.families as families_mod
        ctx = build_field(p, r * k)
        twin = [a for a in range(1, ctx.q) if is_dickson_of_degree(
            ctx, lambda_coeffs(ctx, a, r, k), k) is not None]
        calls = []

        def counting(*args):
            calls.append(args)
            return is_dickson_of_degree(*args)

        monkeypatch.setattr(families_mod, "is_dickson_of_degree", counting)
        assert dickson_witness_search(p, r, k)["witnesses"] == twin
        e = (ctx.q - 1) // (p ** k - 1)
        orbits = {min(j * p ** i % e for i in range(ctx.n)) for j in range(e)}
        assert len(calls) == len(orbits)

    def test_witness_search_hypotheses(self):
        with pytest.raises(ValueError, match="hypothesis-violation"):
            dickson_witness_search(3, 4, 4)      # gcd(r, k) != 1
        with pytest.raises(ValueError, match="hypothesis-violation"):
            dickson_witness_search(3, 5, 1)      # r+1 = 6 not prime
        with pytest.raises(ValueError, match="hypothesis-violation"):
            dickson_witness_search(3, 2, 1)      # r+1 = 3 = p

    def test_witness_search_budget(self):
        # on a table field --budget M decides the classes of a = 1..M: the
        # scalar matcher on every a <= M, and the full list cut at M
        for p, r, k in [(3, 4, 1), (7, 4, 1), (2, 4, 3)]:
            full = dickson_witness_search(p, r, k)["witnesses"]
            ctx = build_field(p, r * k)
            scalar = [a for a in range(1, ctx.q) if is_dickson_of_degree(
                ctx, lambda_coeffs(ctx, a, r, k), k) is not None]
            assert scalar == full
            for M in (1, 30, 200, ctx.q - 1, full[0], full[-1], ctx.q + 5):
                res = dickson_witness_search(p, r, k, budget=M)
                assert res["witnesses"] == [a for a in scalar if a <= M], M
                assert res["cpp_failures"] == []

    def test_witness_search_generic_rechecks_witnesses(self, monkeypatch):
        # F_2^12 forced onto the generic backend: each budgeted witness
        # goes through gcd(d, q - 1) and ha_pp_check, and a rejected one
        # is a CPP failure
        import cppforge.families as families_mod
        table = dickson_witness_search(2, 4, 3)["witnesses"]
        monkeypatch.setattr(families_mod, "build_field",
                            lambda p, n: build_field(p, n, backend="generic"))
        checked = []

        def recording(ctx, a, r, k):
            assert ctx.backend == "generic"
            checked.append(a)
            return ha_pp_check(ctx, a, r, k)

        monkeypatch.setattr(families_mod, "ha_pp_check", recording)
        res = dickson_witness_search(2, 4, 3, budget=200)
        assert res["witnesses"] == [a for a in table if a <= 200] == checked
        assert res["cpp_failures"] == [] and res["passed"]
        monkeypatch.setattr(families_mod, "ha_pp_check", lambda *args: False)
        res = dickson_witness_search(2, 4, 3, budget=200)
        assert res["cpp_failures"] == res["witnesses"] != []
        assert not res["passed"]

    def test_witness_search_p5_r6(self):
        res = dickson_witness_search(5, 6, 1)
        assert res["passed"] and res["witness_count"] == 72

    def test_witness_search_p3_r10(self):
        # degree-11 Dickson shapes exist over F_3^10
        res = dickson_witness_search(3, 10, 1)
        assert res["passed"] and res["witness_count"] > 0


def verify_lists(monkeypatch, argv):
    """Run `verify --family argv...` in process; return its result and each
    (ctx, d, coefficients, verdicts) it passed through _cpp_verdicts."""
    seen = []
    real = families._cpp_verdicts

    def recording(ctx, d, coeffs):
        out = real(ctx, d, coeffs)
        seen.append((ctx, d, list(coeffs), list(out)))
        return out

    monkeypatch.setattr(families, "_cpp_verdicts", recording)
    opts = cli.build_parser().parse_args(["verify", "--family", *argv])
    return cli.run_family(opts), seen


def class_of(ctx, d, a):
    # the least j in the Frobenius coset of log(a) mod gcd(d - 1, q - 1)
    e = math.gcd(d - 1, ctx.q - 1)
    return min(int(ctx.log_table[a]) * ctx.p ** i % e for i in range(ctx.n))


SCAN_FAMILIES = ("r4_general", "r4_p3", "r4_p5", "multinomial")


class TestOracleChecked:
    @pytest.mark.parametrize(
        "argv", [c[0] for c in VERIFY_PINNED] + [("r4_p3_beta", "--k", "3")],
        ids=" ".join)
    def test_class_verdicts_equal_every_coefficient(self, monkeypatch, argv):
        # the slow twin: every coefficient of every list family through
        # the oracle on its own
        res, seen = verify_lists(monkeypatch, argv)
        assert len(seen) == (argv[0] not in SCAN_FAMILIES)
        for ctx, d, coeffs, verdicts in seen:
            assert len(coeffs) == res["tested"]
            assert verdicts == [is_cpp_exponent_pair(ctx, d, a)
                                for a in coeffs]

    CLASSES = [(("r4_p3_beta", "--k", "3"), 13),
               (("niho2", "--p", "3", "--k", "3"), 1),
               (("niho2", "--p", "7", "--k", "2"), 3), (("rp_k1", "--p", "7"), 1),
               (("r4_p5_vset", "--k", "2"), 3), (("r6_p5",), 4)]

    @pytest.mark.parametrize("argv,classes", CLASSES,
                             ids=[" ".join(c[0]) for c in CLASSES])
    def test_one_oracle_call_per_class(self, monkeypatch, argv, classes):
        calls, arrays = [], []

        def counting(ctx, d, a, seen=None):
            calls.append(a)
            arrays.append(seen)
            return is_cpp_exponent_pair(ctx, d, a, seen)

        monkeypatch.setattr(oracle, "is_cpp_exponent_pair", counting)
        res, ((ctx, d, coeffs, _),) = verify_lists(monkeypatch, argv)
        touched = sorted({class_of(ctx, d, a) for a in coeffs})
        assert len(touched) == classes < len(coeffs)
        assert calls == [int(ctx.exp_table[j]) for j in touched]
        assert res["failures"] == []
        # the classes share one caller-owned occupancy array
        assert arrays[0] is not None
        assert all(seen is arrays[0] for seen in arrays)

    def test_rejected_class_names_its_cases(self, monkeypatch):
        # r = 6 failures are (family index, u) cases: an oracle rejecting
        # the class of the first coefficient fails exactly its cases
        _, ((ctx, d, coeffs, _),) = verify_lists(monkeypatch, ("r6_p5",))
        bad = class_of(ctx, d, coeffs[0])
        monkeypatch.setattr(oracle, "is_cpp_exponent_pair",
                            lambda ctx_, d_, a, seen=None:
                            class_of(ctx, d, a) != bad)
        res, _ = verify_lists(monkeypatch, ("r6_p5",))
        units = [e for e in ctx.subfield_elements(1) if e != 0]
        cases = [(fi, u) for fi in range(len(r6_coordinate_table(5)))
                 for u in units]
        assert res["failures"] == [case for case, a in zip(cases, coeffs)
                                   if class_of(ctx, d, a) == bad] != []


class TestMultinomial:
    def test_p2_bao_form(self):
        # f = x Tr(x) + x^2 + a x over F_64 with the zero preset
        ctx = build_field(2, 6)
        g, v, aa = multinomial_presets(ctx, 2)["zero"]
        assert v == 1
        assert len(aa) == 2
        for a in aa:
            f = multinomial_map(ctx, g, v, a, 2)
            assert is_cpp(ctx, f)
            for x in range(0, 64, 7):
                direct = ctx.add(ctx.add(ctx.mul(x, trace(ctx, x, 2)),
                                         ctx.mul(x, x)), ctx.mul(a, x))
                assert f[x] == direct

    def test_p3_trace_power_form(self):
        # f = x Tr(x)^2 + 2 x^3 + x over F_3^5 with a = 1
        ctx = build_field(3, 5)
        g, v, _ = multinomial_presets(ctx, 1)["zero"]
        f = multinomial_map(ctx, g, v, 1, 1)
        assert is_cpp(ctx, f)
        for x in range(0, 243, 11):
            t = trace(ctx, x, 1)
            direct = ctx.add(ctx.add(ctx.mul(x, ctx.mul(t, t)),
                                     ctx.mul(2, ctx.pow(x, 3))), x)
            assert f[x] == direct

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
        assert is_cpp(ctx, multinomial_map(ctx, g, w1, w1, 2))
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
            for a in multinomial_admissible_a(ctx, k, (0,), 1):
                w = ctx.mul(v, ctx.mul(ctx.add(a, 1), ctx.inv(a)))
                values = [ctx.add(ctx.mul(x, ctx.poly_eval(g, x)),
                                  ctx.mul(w, x)) for x in sub]
                if sorted(values) == list(sub):
                    want.append(a)
            assert multinomial_admissible_a(ctx, k, g, v) == want, (g, v)

    # (g coefficients, v) per preset on the acceptance criterion 11 fields
    # and six more; the monomial on F_3^5 and F_3^7 and the quartic on
    # F_2^6, F_2^9, F_2^10, F_7^2 and F_7^5 admit no a, so they are absent
    PINNED_PRESETS = {
        (2, 2, 3): {"zero": ((0,), 1), "monomial": ((0, 0, 0, 1), 56)},
        (2, 2, 5): {"zero": ((0,), 1), "monomial": ((0, 0, 0, 1), 398)},
        (3, 1, 5): {"zero": ((0,), 1),
                    "dickson-quartic": ((1, 0, 1, 0, 1), 1)},
        (3, 1, 7): {"zero": ((0,), 1),
                    "dickson-quartic": ((1, 0, 1, 0, 1), 1)},
        (3, 2, 5): {"zero": ((0,), 1), "monomial": ((0, 0, 1), 22417),
                    "dickson-quartic": ((2, 0, 0, 0, 1), 1)},
        (2, 3, 3): {"zero": ((0,), 1),
                    "monomial": ((0, 0, 0, 0, 0, 0, 0, 1), 130)},
        (3, 2, 2): {"zero": ((0,), 1), "monomial": ((0, 0, 1), 16),
                    "dickson-quartic": ((2, 0, 0, 0, 1), 1)},
        (5, 1, 3): {"zero": ((0,), 1), "monomial": ((0, 0, 0, 0, 1), 1),
                    "dickson-quartic": ((4, 0, 0, 0, 1), 1)},
        (5, 2, 2): {"zero": ((0,), 1), "monomial": ((0, 0, 0, 0, 1), 2),
                    "dickson-quartic": ((4, 0, 0, 0, 1), 1)},
        (7, 1, 2): {"zero": ((0,), 1), "monomial": ((0, 0, 0, 0, 0, 0, 1), 1)},
        (7, 1, 5): {"zero": ((0,), 1), "monomial": ((0, 0, 0, 0, 0, 0, 1), 1)},
    }

    @pytest.mark.parametrize("p,k,r", sorted(PINNED_PRESETS))
    def test_presets_pinned(self, p, k, r):
        ctx = build_field(p, r * k)
        presets = multinomial_presets(ctx, k)
        got = {name: (g, v) for name, (g, v, _) in presets.items()}
        assert got == self.PINNED_PRESETS[(p, k, r)]
        for name, (g, v, admissible) in presets.items():
            assert admissible, name
            assert admissible == multinomial_admissible_a(ctx, k, g, v)

    @pytest.mark.parametrize("argv", [
        ("--p", "2", "--k", "1", "--r", "3", "--preset", "zero"),
        ("--p", "2", "--k", "1", "--r", "3"),
        ("--p", "11", "--k", "1", "--r", "3", "--preset", "dickson-quartic"),
        ("--p", "3", "--k", "1", "--r", "5", "--preset", "monomial")],
        ids=["F2-zero", "F2-any", "F11-dickson-quartic", "F3-monomial"])
    def test_preset_without_member_is_hypothesis_violation(self, capsys,
                                                           argv):
        # F_2 minus {0, -1} is empty, no quartic base permutes F_11, and
        # the monomial on F_3 admits no a: a fact about the subfield (exit
        # 2), never an internal error or a vacuous PASS
        code = cli.main(["verify", "--family", "multinomial", *argv])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "hypothesis-violation" in err and "F_" in err

    @pytest.mark.parametrize("preset,tested", [(None, 17), ("zero", 9)])
    def test_absent_preset_skipped(self, capsys, preset, tested):
        # F_11: 9 coefficients from zero and 8 from the monomial; the
        # quartic, with no member, is skipped unless asked for
        argv = ["verify", "--family", "multinomial", "--p", "11", "--k", "1",
                "--r", "3"] + (["--preset", preset] if preset else [])
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == \
            f"family multinomial\ntested {tested}\nPASS\n"

    def test_scalar_vector_agreement(self):
        ctx = build_field(3, 5)
        presets = multinomial_presets(ctx, 1)
        for name, (g, v, admissible) in presets.items():
            for a in admissible:
                vals = multinomial_map(ctx, g, v, a, 1)
                fn = multinomial_fn(ctx, g, v, a, 1)
                for x in range(0, 243, 17):
                    assert vals[x] == fn(x), (name, a, x)

    @pytest.mark.parametrize("p,n,k,samples", [
        (2, 6, 2, None), (3, 5, 1, None), (3, 7, 1, None), (3, 10, 2, 2000)])
    def test_value_tables_equal_fn(self, p, n, k, samples):
        # the table through the subfield against the scalar twin, at
        # every point or at sampled ones, for every preset and admissible a
        ctx = build_field(p, n)
        rng = np.random.default_rng(n)
        xs = (range(ctx.q) if samples is None
              else rng.choice(ctx.q, samples, replace=False).tolist())
        maps = 0
        for name, (g, v, admissible) in multinomial_presets(ctx, k).items():
            for a in admissible:
                vals = multinomial_map(ctx, g, v, a, k)
                fn = multinomial_fn(ctx, g, v, a, k)
                assert vals.shape == (ctx.q,)
                assert [int(vals[x]) for x in xs] == [fn(x) for x in xs], \
                    (name, a)
                maps += 1
        assert maps > 0

    def test_verify_shares_one_grid(self, monkeypatch):
        # X, T's subfield position and (p-1) X^p are built once per run
        calls = []
        real = families._multinomial_grid

        def counted(ctx, k):
            calls.append(k)
            return real(ctx, k)
        monkeypatch.setattr(families, "_multinomial_grid", counted)
        opts = SimpleNamespace(family="multinomial", p=3, k=2, r=5)
        res = cli.run_family(opts)
        assert res["tested"] == 12 and res["failures"] == []
        assert calls == [2]

    def test_trace_identity_on_all_points(self):
        ctx = build_field(3, 5)
        g, v, admissible = multinomial_presets(ctx, 1)["dickson-quartic"]
        for a in admissible:
            f = multinomial_map(ctx, g, v, a, 1)
            av = ctx.mul(a, ctx.inv(v))
            for x in range(243):
                t = trace(ctx, x, 1)
                want = ctx.mul(av, ctx.add(ctx.mul(t, ctx.poly_eval(g, t)),
                                           ctx.mul(v, t)))
                assert trace(ctx, int(f[x]), 1) == want

    def test_output_trace_depends_only_on_input_trace(self):
        # equal input traces force equal output traces
        import random as _random
        ctx = build_field(3, 5)
        g, v, _ = multinomial_presets(ctx, 1)["zero"]
        f = multinomial_map(ctx, g, v, 1, 1)
        by_trace = {}
        for x in range(243):
            by_trace.setdefault(trace(ctx, x, 1), []).append(x)
        rng = _random.Random(73)
        for _ in range(1000):
            bucket = by_trace[rng.choice(list(by_trace))]
            x, y = rng.choice(bucket), rng.choice(bucket)
            assert trace(ctx, int(f[x]), 1) == trace(ctx, int(f[y]), 1)

    def test_dropped_term_is_internal_error(self, monkeypatch, capsys):
        # a table without its (p-1) x^p term breaks the trace identity:
        # exit 4, never a verdict
        real = families._multinomial_grid

        def dropped(ctx, k):
            S, X, pos, px = real(ctx, k)
            return S, X, pos, np.zeros_like(px)
        monkeypatch.setattr(families, "_multinomial_grid", dropped)
        ctx = build_field(3, 5)
        g, v, _ = multinomial_presets(ctx, 1)["zero"]
        with pytest.raises(InternalError, match="trace identity"):
            multinomial_map(ctx, g, v, 1, 1)
        assert cli.main(["verify", "--family", "multinomial", "--p", "3",
                         "--k", "1", "--r", "5"]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "trace identity" in err

    def test_trace_identity_checked_at_every_point(self, monkeypatch):
        # one table entry moved off its trace, at any point x0, is caught:
        # Tr(1) = 2 on F_3^5, so f(x0) + 1 breaks the identity at x0 only
        ctx = build_field(3, 5)
        g, v, _ = multinomial_presets(ctx, 1)["dickson-quartic"]
        grid = families._multinomial_grid(ctx, 1)
        S, X, pos, px = grid
        for x0 in range(ctx.q):
            moved = px.copy()
            moved[x0] = ctx.add(int(px[x0]), 1)
            with pytest.raises(InternalError, match="trace identity"):
                multinomial_map(ctx, g, v, 1, 1, (S, X, pos, moved))
        assert is_cpp(ctx, multinomial_map(ctx, g, v, 1, 1, grid))


def test_condition_tag_label(f81):
    # a tagger returns the report's "family:condition" label itself
    assert {r4_condition(f81, a, 1) for a in range(81)} == {
        None, "r4_general:1", "r4_general:2", "r4_general:4", "r4_general:5"}
    assert {r4_condition_p3(f81, a, 1) for a in range(81)} == {
        None, "r4_p3:2", "r4_p3:4", "r4_p3:5"}
