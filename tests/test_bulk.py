"""Vector kernels against the scalar arithmetic they accelerate, and the
log-domain kernels against a slow twin: the same field on the generic
backend, whose add is a digit loop and whose mul a packed convolution, so
it shares no log, exp or Zech table with the table backend."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cppforge import bulk
from cppforge.families import tower_exponent
from cppforge.field import build_field
from cppforge.hadickson import lambda_coeffs
from cppforge.scan import ha_cpp_scan


def _twin(ctx):
    return build_field(ctx.p, ctx.n, ctx.modulus, backend="generic")


@pytest.fixture(scope="module", params=[(3, 4), (5, 2), (2, 6), (7, 2)])
def ctx(request):
    return build_field(*request.param)


def test_add_matches_scalar(ctx):
    X = bulk.elements(ctx)
    Y = np.roll(X, 13)
    out = bulk.add(ctx, X, Y)
    for i in range(0, ctx.q, max(1, ctx.q // 50)):
        assert out[i] == ctx.add(int(X[i]), int(Y[i]))


def test_add_neg_exhaustive_against_twin(ctx):
    twin = _twin(ctx)
    X = np.repeat(bulk.elements(ctx), ctx.q)
    Y = np.tile(bulk.elements(ctx), ctx.q)
    want = [twin.add(int(x), int(y)) for x, y in zip(X, Y)]
    assert bulk.add(ctx, X, Y).tolist() == want
    assert [ctx.add(int(x), int(y)) for x, y in zip(X, Y)] == want
    want = [twin.neg(x) for x in range(ctx.q)]
    assert bulk.neg(ctx, bulk.elements(ctx)).tolist() == want
    assert [ctx.neg(x) for x in range(ctx.q)] == want


TWIN_FIELDS = [(3, 4), (5, 2), (2, 6), (7, 2), (2, 8), (5, 8)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_add_neg_match_twin_property(data):
    ctx = build_field(*data.draw(st.sampled_from(TWIN_FIELDS)))
    twin = _twin(ctx)
    xs = data.draw(st.lists(st.integers(0, ctx.q - 1), min_size=1, max_size=16))
    # y = 0, x and -x reach the zero and Zech-sentinel branches
    ys = [data.draw(st.one_of(st.integers(0, ctx.q - 1),
                              st.sampled_from([0, x, twin.neg(x)])))
          for x in xs]
    X, Y = np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64)
    want = [twin.add(x, y) for x, y in zip(xs, ys)]
    assert [ctx.add(x, y) for x, y in zip(xs, ys)] == want
    assert bulk.add(ctx, X, Y).tolist() == want
    want = [twin.neg(x) for x in xs]
    assert [ctx.neg(x) for x in xs] == want
    assert bulk.neg(ctx, X).tolist() == want


def test_neg_mul_match_scalar(ctx):
    X = bulk.elements(ctx)
    Y = np.roll(X, 5)
    ng = bulk.neg(ctx, X)
    ml = bulk.mul(ctx, X, Y)
    for i in range(0, ctx.q, max(1, ctx.q // 50)):
        assert ng[i] == ctx.neg(int(X[i]))
        assert ml[i] == ctx.mul(int(X[i]), int(Y[i]))


def test_pow_frobenius_trace_match_scalar(ctx):
    X = bulk.elements(ctx)
    for e in (0, 1, 2, ctx.q - 2, ctx.q - 1, ctx.q, 10 ** 30 + 7):
        pc = bulk.pow_const(ctx, X, e)
        for i in range(0, ctx.q, max(1, ctx.q // 20)):
            assert pc[i] == ctx.pow(int(X[i]), e), (e, i)
    fr = bulk.frobenius(ctx, X, 1)
    tr = bulk.trace(ctx, X, 1)
    for i in range(ctx.q):
        assert fr[i] == ctx.frobenius(i, 1)
        assert tr[i] == ctx.trace(i, 1)


def test_poly_eval_all(ctx):
    coeffs = [1, 2 % ctx.q, 0, 1]
    vals = bulk.poly_eval(ctx, coeffs, bulk.elements(ctx))
    for x in range(0, ctx.q, max(1, ctx.q // 40)):
        assert vals[x] == ctx.poly_eval(coeffs, x)


def test_permutation_predicate(ctx):
    X = bulk.elements(ctx)
    assert bulk.values_are_permutation(ctx, X)
    Y = X.copy()
    Y[1] = Y[2]
    assert not bulk.values_are_permutation(ctx, Y)
    # out-of-range values and wrong lengths are not permutations; -1 must
    # not alias the last encoding
    for bad in (-1, ctx.q):
        Y = X.copy()
        Y[-1] = bad
        assert not bulk.values_are_permutation(ctx, Y)
    assert not bulk.values_are_permutation(ctx, X[:-1])
    assert not bulk.values_are_permutation(ctx, np.append(X, 0))


def test_lambda_scan_matches_scalar():
    from cppforge.hadickson import lambda_coeffs
    ctx = build_field(3, 4)
    A, lam = bulk.lambda_scan(ctx, 4, 1)
    for a in range(1, 81, 7):
        lv = lambda_coeffs(ctx, a, 4, 1)
        assert tuple(lam[a - 1]) == lv.entries
    ctx2 = build_field(3, 4)
    A2, lam2 = bulk.lambda_scan(ctx2, 2, 2)
    for a in range(1, 81, 5):
        lv = lambda_coeffs(ctx2, a, 2, 2)
        assert tuple(lam2[a - 1]) == lv.entries


def test_generic_backend_rejected():
    gen = build_field(3, 4, backend="generic")
    with pytest.raises(ValueError, match="field-too-large"):
        bulk.elements(gen)


def _twin_permutes(twin, d, a, xd=None):
    """Occupancy of x -> x^d + a*x, evaluated point by point on the twin."""
    if xd is None:
        xd = [twin.pow(x, d) for x in range(twin.q)]
    vals = {twin.add(v, twin.mul(a, x)) for x, v in enumerate(xd)}
    return len(vals) == twin.q


# d = (p^n - 1)/(p^k - 1) + 1 for (r, k) = (4, 1), (4, 1), (4, 2); on F_p^2
# that exponent has no members, so d = 2p - 1 there
@pytest.mark.parametrize("p,n,d", [(3, 4, 41), (5, 4, 157), (2, 8, 86),
                                   (7, 2, 13), (13, 2, 25)])
def test_binomial_check_every_coefficient_against_twin(p, n, d):
    ctx = build_field(p, n)
    twin = _twin(ctx)
    xd = [twin.pow(x, d) for x in range(twin.q)]
    got = [bulk.binomial_is_permutation(ctx, d, a) for a in range(1, ctx.q)]
    assert got == [_twin_permutes(twin, d, a, xd) for a in range(1, ctx.q)]
    assert any(got) and not all(got)


@pytest.mark.parametrize("p,n,d", [(3, 4, 41), (2, 8, 86)])
def test_binomial_check_blocks_against_twin(monkeypatch, p, n, d):
    # 7 points per block: q - 1 = 80 and 255 both end in a short block
    monkeypatch.setattr(bulk, "CHECK_BLOCK", 7)
    ctx = build_field(p, n)
    twin = _twin(ctx)
    xd = [twin.pow(x, d) for x in range(twin.q)]
    got = [bulk.binomial_is_permutation(ctx, d, a) for a in range(1, ctx.q)]
    assert got == [_twin_permutes(twin, d, a, xd) for a in range(1, ctx.q)]
    assert any(got) and not all(got)


class _DigitTwin:
    """x -> x^d + a*x on every encoding at once, on digit vectors over F_p.

    The twin supplies x^m mod f (m < 2n - 1), so a product is one matmul
    of the digit outer products; a*x and x -> x^p are linear maps, and x^d
    is the product of the (x^(p^j))^(d_j) over the base-p digits d_j of d.
    Checked against the scalar twin at sampled points."""

    BLOCK = 1 << 15

    def __init__(self, twin, d):
        p, n, q = twin.p, twin.n, twin.q
        self.twin = twin
        red = np.array([twin.coeffs(twin.pow(p, m)) for m in range(2 * n - 1)])
        # row i*n + j: digits of x^(i+j) mod f; float64 sums stay exact
        self.conv = red[np.add.outer(np.arange(n), np.arange(n)).ravel()] * 1.0
        frob = np.array([twin.coeffs(twin.pow(p ** i, p)) for i in range(n)])
        self.pw = p ** np.arange(n)
        self.X = np.arange(q)[:, None] // self.pw % p
        e = (d - 1) % (q - 1) + 1 if d else 0      # 0^d = 0 for every d > 0
        xd = np.zeros_like(self.X)
        xd[:, 0] = 1
        xj = self.X                                 # x^(p^j)
        while e:
            e, dj = divmod(e, p)
            for _ in range(dj):
                xd = self.mul(xd, xj)
            xj = xj @ frob % p
        self.xd = xd
        self.samples = range(0, q, q // 97 + 1)
        for x in self.samples:
            assert int(xd[x] @ self.pw) == twin.pow(x, d)

    def mul(self, U, V):
        p, n, B = self.twin.p, self.twin.n, self.BLOCK
        out = np.empty_like(U)
        for lo in range(0, len(U), B):
            uv = U[lo:lo + B, :, None] * V[lo:lo + B, None, :]
            out[lo:lo + B] = (uv.reshape(len(uv), n * n) @ self.conv).astype(np.int64) % p
        return out

    def permutes(self, a):
        twin = self.twin
        times_a = np.array([twin.coeffs(twin.mul(a, int(b))) for b in self.pw])
        ax = self.X @ times_a % twin.p
        for x in self.samples:
            assert int(ax[x] @ self.pw) == twin.mul(a, x)
        vals = (self.xd + ax) % twin.p @ self.pw
        return bool(np.bincount(vals, minlength=twin.q).max() == 1)


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2)])
def test_binomial_check_sampled_against_twin(p, k):
    ctx = build_field(p, 4 * k)
    d = tower_exponent(p, k, 4)
    members = ha_cpp_scan(ctx, 4, k)
    rng = np.random.default_rng(7)
    picks = [int(a) for a in rng.choice(members, 3, replace=False)]
    picks += [int(a) for a in rng.integers(1, ctx.q, 3) if a not in members]
    verdicts = [bulk.binomial_is_permutation(ctx, d, a) for a in picks]
    digits = _DigitTwin(_twin(ctx), d)
    assert verdicts == [digits.permutes(a) for a in picks]
    assert verdicts[:3] == [True] * 3 and not any(verdicts[3:])


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (3, 4), (2, 6)])
def test_binomial_check_edge_exponents_against_twin(p, n):
    ctx = build_field(p, n)
    twin = _twin(ctx)
    N = ctx.q - 1
    for d in (0, 1, 1 + N, N, 5, 5 + 2 ** 100 * N, 2 ** 100 * N):
        for a in range(1, ctx.q):
            assert (bulk.binomial_is_permutation(ctx, d, a) ==
                    _twin_permutes(twin, d, a)), (d, a)


@pytest.mark.parametrize("p,n,r,k", [(3, 4, 4, 1), (3, 4, 2, 2), (2, 6, 3, 2),
                                     (2, 6, 2, 3), (5, 2, 2, 1), (3, 1, 1, 1)])
def test_lambda_scan_blocks_against_twin(monkeypatch, p, n, r, k):
    monkeypatch.setattr(bulk, "LAMBDA_BLOCK", 3)
    ctx = build_field(p, n)
    twin = _twin(ctx)
    A, lam = bulk.lambda_scan(ctx, r, k)
    assert lam.tolist() == [list(lambda_coeffs(twin, int(a), r, k).entries)
                            for a in A]
    A = np.array([0, 5, 0, ctx.q - 1, 5], dtype=np.int64) % ctx.q
    _, lam = bulk.lambda_scan(ctx, r, k, A)
    assert lam.tolist() == [list(lambda_coeffs(twin, int(a), r, k).entries)
                            for a in A]
