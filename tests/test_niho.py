"""Unit circle, the V-set, root counts N(a), and Walsh values."""

import random
import tracemalloc

import numpy as np
import pytest

from cppforge import bulk
from cppforge.field import CapExceeded, FieldCtx, build_field
from cppforge.niho import (NihoCtx, all_root_counts, count_N, direct_walsh,
                           niho_s_from_d, unit_circle, walsh_value)
from twins import count_N_by_powers, int_value, trace, v_set


@pytest.fixture(scope="module")
def n9(f9):
    return NihoCtx(f9, 1)


def test_odd_degree_rejected(f81):
    NihoCtx(f81, 2)
    with pytest.raises(ValueError, match="odd-degree"):
        NihoCtx(f81, 3)


class TestUnitCircle:
    def test_size_and_membership(self, n9):
        U = unit_circle(n9)
        assert len(U) == 4
        assert 1 in U
        for lam in U:
            assert n9.ctx.pow(lam, 4) == 1
            assert n9.ctx.mul(lam, n9.conj(lam)) == 1

    def test_matches_enumeration(self, n9):
        brute = {x for x in range(1, 9)
                 if n9.ctx.mul(x, n9.conj(x)) == 1}
        assert set(unit_circle(n9)) == brute


class TestVSet:
    def test_f9(self, n9, f9):
        i = f9.element((0, 1))
        assert set(v_set(n9)) == {i, f9.neg(i)}

    def test_sizes(self):
        for p, k in ((3, 2), (5, 2)):
            ctx = build_field(p, 2 * k)
            n = NihoCtx(ctx, k)
            assert len(v_set(n)) == p ** k - 1


class TestCountN:
    def test_count_is_one_on_v(self):
        # p = 3, k <= 3, s derived from d = 3^k + 2: N(a) = 1 for a in V
        for k in (1, 2, 3):
            ctx = build_field(3, 2 * k)
            n = NihoCtx(ctx, k)
            s = niho_s_from_d(3, 2 * k, k, 3 ** k + 2)
            # s must reproduce d' = s(p^k-1)+1 ~ d * 3^(n-1) as exponents
            assert (s * (3 ** k - 1) + 1 - (3 ** k + 2) * 3 ** (2 * k - 1)) \
                % (3 ** (2 * k) - 1) == 0
            for a in v_set(n):
                assert count_N(n, a, s) == 1

    def test_a_zero_by_enumeration(self, n9, f9):
        # the equation at a = 0: lambda^s + lambda^(1-s) = 0 over U
        s = 3
        brute = sum(1 for lam in unit_circle(n9)
                    if f9.add(f9.pow(lam, s % 8), f9.pow(lam, (1 - s) % 8)) == 0)
        assert count_N(n9, 0, s) == brute

    @pytest.mark.parametrize("backend", ["table", "generic"])
    @pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (5, 1), (2, 2), (2, 3),
                                     (7, 1), (5, 2), (13, 1)])
    def test_matches_powering_twin(self, p, k, backend):
        # lambda^s read off the circle in power order, against powering,
        # for every a and s negative, small, past q and past int64
        n = NihoCtx(build_field(p, 2 * k, backend=backend), k)
        q = n.ctx.q
        for s in [*range(-3, 8), q + 5, 3 * q, 2 ** 60 + 3, 10 ** 30 + 3]:
            assert [count_N(n, a, s) for a in range(q)] == \
                [count_N_by_powers(n, a, s) for a in range(q)], s

    @pytest.mark.parametrize("backend", ["table", "generic"])
    def test_blocks_split_the_circle(self, monkeypatch, backend):
        # blocks of 3 rows over the 10 points of F_3^4's unit circle, the
        # last one short, against powering
        n = NihoCtx(build_field(3, 4, backend=backend), 2)
        monkeypatch.setattr(bulk, "CHECK_BLOCK", 8 * 4 * 3)
        for s in (2, -3, 10 ** 30 + 3):
            assert [count_N(n, a, s) for a in range(n.ctx.q)] == \
                [count_N_by_powers(n, a, s) for a in range(n.ctx.q)], s

    @pytest.mark.parametrize("backend", ["table", "generic"])
    def test_digit_rows_only(self, monkeypatch, backend):
        # one array path: the n products of conj(a)'s digit matrix are the
        # only scalar field arithmetic of a count
        ctx = build_field(5, 4, backend=backend)
        n = NihoCtx(ctx, 2)
        calls = {"add": 0, "mul": 0}
        for name in calls:
            def counted(self, x, y, name=name, real=getattr(FieldCtx, name)):
                calls[name] += 1
                return real(self, x, y)
            monkeypatch.setattr(FieldCtx, name, counted)
        for a in (0, 1, 7, ctx.q - 1):
            calls.update(add=0, mul=0)
            count_N(n, a, 3)
            assert calls["add"] == 0 and calls["mul"] <= ctx.n, (a, calls)

    def test_s_one_by_enumeration(self, n9, f9):
        for a in range(9):
            brute = 0
            for lam in unit_circle(n9):
                v = f9.add(f9.add(lam, 1),
                           f9.add(f9.mul(n9.conj(a), lam), a))
                brute += v == 0
            assert count_N(n9, a, 1) == brute


class TestAllRootCounts:
    @pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2),
                                     (7, 1), (2, 2), (2, 3), (2, 4)])
    @pytest.mark.parametrize("s", [2, 3, -1])
    def test_equals_count_N_for_every_a(self, p, k, s):
        # the histogram against its scalar slow twin, a = 0 included
        n = NihoCtx(build_field(p, 2 * k), k)
        N = all_root_counts(n, s)
        assert N.dtype == np.int64 and N.shape == (n.ctx.q,)
        assert N.tolist() == [count_N(n, a, s) for a in range(n.ctx.q)]

    @pytest.mark.parametrize("p,k", [(3, 1), (2, 2), (3, 5), (7, 2), (2, 6)])
    @pytest.mark.parametrize("s", [2, 5, -3])
    def test_each_lambda_names_p_to_the_k_coefficients(self, p, k, s):
        n = NihoCtx(build_field(p, 2 * k), k)
        assert int(all_root_counts(n, s).sum()) == (p ** k + 1) * p ** k

    def test_generic_backend_is_cap_error(self):
        n = NihoCtx(build_field(3, 4, backend="generic"), 2)
        with pytest.raises(CapExceeded, match="field-too-large"):
            all_root_counts(n, 2)

    def test_peak_memory(self):
        # the kernel goes in blocks of about bulk.CHECK_BLOCK points, so
        # one call holds the histogram, not 5.5 int64 arrays of length q
        n = NihoCtx(build_field(3, 12), 6)
        tracemalloc.start()
        try:
            all_root_counts(n, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n.ctx.q * 8


def test_count_N_holds_the_circle_as_int64():
    # the unit circle is one int64 array: with its digit blocks, count_N
    # stays within 24 bytes per point (a tuple of Python ints peaks at 48)
    n = NihoCtx(build_field(1000003, 2), 1)
    m = n.q + 1
    n.ctx.subgroup_generator(m)
    tracemalloc.start()
    try:
        count_N(n, 5, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * m


class TestWalsh:
    def test_formula_equals_direct_f9(self, n9, f9):
        for s in (1, 2, 3, 5):
            d = s * 2 + 1
            xd = bulk.monomial_values(f9, d)
            for a, C in enumerate(direct_walsh(f9, xd, range(9))):
                assert int_value(C) == walsh_value(n9, count_N(n9, a, s))

    def test_formula_equals_direct_f25(self):
        ctx = build_field(5, 2)
        n = NihoCtx(ctx, 1)
        for s in (2, 3):
            d = s * 4 + 1
            xd = bulk.monomial_values(ctx, d)
            for a, C in enumerate(direct_walsh(ctx, xd, range(25))):
                assert int_value(C) == walsh_value(n, count_N(n, a, s))

    def test_zero_on_v(self, n9):
        s = niho_s_from_d(3, 2, 1, 5)
        for a in v_set(n9):
            assert walsh_value(n9, count_N(n9, a, s)) == 0

    def test_trivial_sums(self, f9):
        C = direct_walsh(f9, np.zeros(9, dtype=np.int64), range(9))
        assert int_value(C[0]) == 9
        for a in range(1, 9):
            assert (C[a] == C[a][0]).all()

    @pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (3, 3)])
    def test_rows_match_scalar_traces(self, p, n):
        # the scalar twin: Tr(f(x) + a*x) counted point by point with
        # FieldCtx.trace, for every a, against the rows read off one
        # trace table
        ctx = build_field(p, n)
        rng = random.Random(p * 100 + n)
        vals = [rng.randrange(ctx.q) for _ in range(ctx.q)]
        rows = direct_walsh(ctx, np.array(vals), range(ctx.q))
        assert rows.shape == (ctx.q, p)
        for a in range(ctx.q):
            C = [0] * p
            for x in range(ctx.q):
                C[trace(ctx, ctx.add(vals[x], ctx.mul(a, x)))] += 1
            assert rows[a].tolist() == C, a

    def test_s_recovery_error(self):
        with pytest.raises(ValueError, match="not of the form"):
            niho_s_from_d(3, 4, 2, 7)
