"""Vector kernels against the scalar arithmetic they accelerate, and the
log-domain kernels against a slow twin: the same field on the generic
backend, whose add is a digit loop and whose mul a packed convolution, so
it shares no log, exp or Zech table with the table backend."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cppforge import bulk
from cppforge.families import tower_exponent
from cppforge.field import InternalError, build_field
from cppforge.hadickson import ha_pp_check, lambda_coeffs
from cppforge.scan import ha_cpp_scan
from twins import frobenius, trace


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
    assert [ctx.neg(x) for x in range(ctx.q)] == \
        [twin.neg(x) for x in range(ctx.q)]


def test_mul_exhaustive_against_twin(ctx):
    # every pair through bulk.mul and every scalar through mul_scalar
    twin = _twin(ctx)
    X = np.repeat(bulk.elements(ctx), ctx.q)
    Y = np.tile(bulk.elements(ctx), ctx.q)
    want = [twin.mul(int(x), int(y)) for x, y in zip(X, Y)]
    assert bulk.mul(ctx, X, Y).tolist() == want
    assert [ctx.mul(int(x), int(y)) for x, y in zip(X, Y)] == want
    E = bulk.elements(ctx)
    assert [bulk.mul_scalar(ctx, a, E).tolist() for a in range(ctx.q)] == \
        [want[a * ctx.q:(a + 1) * ctx.q] for a in range(ctx.q)]


def _wrap_boundary_pairs(ctx):
    """(x, y) whose exp index lands on N - 1, N or 2N - 2 (the last entry,
    the first wrapped one and the largest sum of two logs), for mul (log x
    + log y) and for add (log x + Z[log y - log x]); then zero operands
    and x = -y."""
    N = ctx.q - 1
    exp, zech = ctx.exp_table.tolist(), ctx.zech_table.tolist()
    at_z = {z: t for t, z in enumerate(zech)}
    mul_pairs, add_pairs = [], []
    for s in (N - 1, N, 2 * N - 2):
        mul_pairs += [(exp[i], exp[s - i]) for i in range(max(0, s - N + 1),
                                                          min(N, s + 1))]
        add_pairs += [(exp[lx], exp[(lx + at_z[s - lx]) % N])
                      for lx in range(N) if s - lx in at_z]
    edges = [(0, 0)] + [(x, 0) for x in range(1, ctx.q)] + \
        [(0, y) for y in range(1, ctx.q)] + \
        [(x, ctx.neg(x)) for x in range(1, ctx.q)]
    return mul_pairs, add_pairs, edges


def test_kernels_at_the_wrap_boundary_against_twin(ctx):
    twin = _twin(ctx)
    N = ctx.q - 1
    mul_pairs, add_pairs, edges = _wrap_boundary_pairs(ctx)
    logs = ctx.log_table.tolist()
    assert {logs[x] + logs[y] for x, y in mul_pairs} == {N - 1, N, 2 * N - 2}
    assert add_pairs                    # Z takes some value below N - 1
    for pairs in (mul_pairs, add_pairs, edges):
        X, Y = (np.array(v, dtype=np.int64) for v in zip(*pairs))
        assert bulk.add(ctx, X, Y).tolist() == \
            [twin.add(x, y) for x, y in pairs] == \
            [ctx.add(x, y) for x, y in pairs]
        assert bulk.mul(ctx, X, Y).tolist() == \
            [twin.mul(x, y) for x, y in pairs] == \
            [ctx.mul(x, y) for x, y in pairs]
    for a, x in mul_pairs:
        assert bulk.mul_scalar(ctx, a, np.array([x, 0])).tolist() == \
            [twin.mul(a, x), 0]


@pytest.mark.parametrize("p,n,r,k", [(3, 4, 2, 2), (2, 6, 3, 2), (5, 2, 2, 1),
                                     (3, 4, 4, 1)])
def test_lambda_scan_rows_with_a_zero_lambda(p, n, r, k):
    ctx = build_field(p, n)
    twin = _twin(ctx)
    want = {a: lambda_coeffs(twin, a, r, k) for a in range(1, ctx.q)}
    # rows with some lambda_j = 0 beside a nonzero one (the zero sentinel
    # meets the Zech add mid-scan), and a = 0 (every lambda zero)
    A = [a for a, lv in want.items() if 0 in lv and any(lv)] + [0]
    want[0] = (0,) * r
    assert len(A) > 1
    lam = bulk.lambda_scan(ctx, r, k, np.array(A, dtype=np.int64))
    assert lam.tolist() == [list(want[a]) for a in A]


TWIN_FIELDS = [(3, 4), (5, 2), (2, 6), (7, 2), (2, 8), (5, 8)]


@pytest.mark.parametrize("p,n", TWIN_FIELDS)
def test_trace_against_scalar_twin(p, n):
    ctx = build_field(p, n)
    X = bulk.elements(ctx)[::max(1, ctx.q // 4000)]
    for k in (k for k in range(1, n + 1) if n % k == 0):
        assert bulk.trace(ctx, X, k).tolist() == \
            [trace(ctx, x, k) for x in X.tolist()], k


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
    assert [ctx.neg(x) for x in xs] == [twin.neg(x) for x in xs]


@pytest.mark.parametrize("p", [7, 65521])
def test_prime_field_kernels_match_scalar(p):
    # F_p runs the Zech and log paths of the extension fields
    ctx = build_field(p, 1)
    X = bulk.elements(ctx)
    Y = np.roll(X, 3)
    assert bulk.add(ctx, X, Y).tolist() == \
        [ctx.add(x, y) for x, y in zip(X.tolist(), Y.tolist())]
    for e in (0, p - 1, 2 * (p - 1)):
        assert bulk.pow_const(ctx, X, e).tolist() == \
            [ctx.pow(x, e) for x in X.tolist()], e


def test_neg_mul_match_scalar(ctx):
    X = bulk.elements(ctx)
    Y = np.roll(X, 5)
    ng = bulk.mul_scalar(ctx, ctx.p - 1, X)      # -x = (-1) x
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
    fr = bulk.pow_const(ctx, X, ctx.p)             # Frobenius x -> x^p
    tr = bulk.trace(ctx, X, 1)
    for i in range(ctx.q):
        assert fr[i] == frobenius(ctx, i, 1)
        assert tr[i] == trace(ctx, i, 1)


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


def test_permutation_predicate_block_split_twin(ctx):
    # the blocks of one value table, cut anywhere (repeated cuts give empty
    # blocks, and one cut always falls in the middle), give the verdict of
    # the whole array; the bad value of each failing case lies past the
    # first block
    q = ctx.q
    rng = np.random.default_rng(q)
    perm = np.append(rng.permutation(q - 1), q - 1)
    cases = [(perm, True), (np.append(perm[:-1], perm[0]), False),
             (perm[:-1], False), (np.append(perm, perm[0]), False)]
    for bad in (-1, q):
        vals = perm.copy()
        vals[-1] = bad      # -1 would alias q - 1, the one missing value
        cases.append((vals, False))
    for vals, want in cases:
        assert bulk.values_are_permutation(ctx, vals) is want
        for _ in range(20):
            cuts = np.sort(np.append(rng.integers(0, len(vals) + 1, 4),
                                     len(vals) // 2))
            blocks = np.split(vals, cuts)
            assert bulk.values_are_permutation(ctx, blocks) is want
            assert bulk.values_are_permutation(ctx, iter(blocks)) is want


class _Pulls:
    """A block stream that counts the blocks and values pulled from it."""

    def __init__(self, blocks):
        self.blocks = iter(blocks)
        self.pulled = self.values = 0

    def __iter__(self):
        return self

    def __next__(self):
        blk = next(self.blocks)
        self.pulled += 1
        self.values += blk.size
        return blk


def _sort_twin(ctx, blocks):
    """The whole-array verdict: the values, sorted, are 0..q-1."""
    vals = np.concatenate([np.ravel(blk) for blk in blocks])
    return len(vals) == ctx.q and bool((np.sort(vals) == np.arange(ctx.q)).all())


def _exit_streams(q):
    """Block streams of every exit of the predicate: (blocks, verdict,
    blocks pulled)."""
    X = np.arange(q)
    a, b = q // 3, 2 * q // 3
    low, mid, top = X[:a], X[a:b], X[b:]
    empty = X[:0]
    streams = [
        # disjoint ascending spans, the permutation (pulls every block)
        ([low, mid, top], True, 3),
        ([top, low, mid], True, 3),
        ([empty, low, empty, mid, top, empty], True, 6),
        # a repeat inside the first block, another after an empty block
        ([np.append(low[:-1], low[0]), mid, top], False, 1),
        ([empty, np.append(low[:-1], low[0]), mid, top], False, 2),
        # a repeat inside a later block whose span is clear of the others
        ([low, np.append(mid[:-1], mid[-2]), top], False, 2),
        # a repeat across two blocks: their spans meet
        ([low, np.append(mid, low[-1]), top[1:]], False, 3),
        ([low, top, np.append(mid[1:], low[0])], False, 3),
        # spans that touch at one value meet
        ([low, np.append(mid[1:], low[-1]), top], False, 3),
        # overlapping spans, the permutation and a value missing
        ([X[::2], X[1::2]], True, 2),
        ([X[::2], np.append(X[3::2], 0)], False, 2),
        # a span counted first, then one that meets it with a repeat, then
        # a span clear of both: only the occupancy array sees the hole
        ([np.array([0, 3]), np.array([3, 1]), X[4:]], False, 3),
        # too few values; q + 1 values, the last block meeting the others
        ([low, mid], False, 2),
        ([low, mid, top, np.array([q - 1])], False, 4),
        ([low, mid, top, empty, np.array([0])], False, 5),
        # -1 or q in a late block
        ([low, mid, np.append(top[:-1], -1)], False, 3),
        ([low, mid, np.append(top[:-1], q)], False, 3),
        ([X[::2], np.append(X[1::2][:-1], q)], False, 2),
    ]
    return streams


def test_permutation_predicate_exit_twin(ctx):
    # each stream against the sort twin, and the blocks pulled: a repeat
    # the counted spans prove stops the stream there; overlapping spans
    # leave the verdict to the occupancy array after the last block
    q = ctx.q
    for blocks, want, pulled in _exit_streams(q):
        assert _sort_twin(ctx, blocks) is want
        stream = _Pulls(blocks)
        assert bulk.values_are_permutation(ctx, stream) is want
        assert stream.pulled == pulled
    # a single array: a repeat, a hole, -1 and q, and the permutation
    rng = np.random.default_rng(q)
    perm = rng.permutation(q)
    for vals in (perm, np.append(perm[:-1], perm[0]), perm[:-1],
                 np.append(perm[:-1], -1), np.append(perm[:-1], q)):
        assert bulk.values_are_permutation(ctx, vals) is _sort_twin(ctx, [vals])


def test_permutation_predicate_reused_array(ctx):
    # one caller-owned array through every exit: a True, a False from the
    # count (a later block's repeat among them), a False from the array
    # after spans met, and one from -1 or q; the verdict is the fresh
    # array's, and the array comes back all False each time
    q = ctx.q
    seen = np.zeros(q, dtype=bool)
    X = np.arange(q)
    singles = [(X, True), (np.append(X[:-1], X[0]), False),
               (np.append(X[:-1], -1), False), (np.append(X[:-1], q), False)]
    for blocks, want, pulled in _exit_streams(q) + [
            ([vals], want, 1) for vals, want in singles]:
        stream = _Pulls(blocks)
        assert bulk.values_are_permutation(ctx, stream, seen) is want
        assert stream.pulled == pulled
        assert not seen.any()
    for vals, want in singles:
        assert bulk.values_are_permutation(ctx, vals, seen) is want
        assert not seen.any()


def test_window_mark_twin():
    # a window marks exactly the cells of its values, and its min, max
    # and size are theirs: lines unsorted, with repeated residues, shorter
    # than P, and windows at the start, inside and at the end of the array
    rng = np.random.default_rng(19)
    for P, length in [(1, 1), (3, 2), (5, 5), (7, 12), (24, 24), (31, 9)]:
        for _ in range(4):
            line = rng.integers(0, P, length)
            if length > 1:
                line[1] = line[0]
            T = int(rng.integers(2, 40))
            for lo, hi in [(0, 1), (0, T), (1, T), (T // 2, T // 2 + 1),
                           (T - 2, T)]:
                win = bulk._Window(line, P, lo, hi)
                vals = np.asarray(win)
                assert vals.shape == (hi - lo, length)
                assert vals.tolist() == [[v + P * j for v in line.tolist()]
                                         for j in range(lo, hi)]
                assert (win.min(), win.max(), win.size) == \
                    (vals.min(), vals.max(), vals.size)
                seen = np.zeros(P * T, dtype=bool)
                win.mark(seen)
                assert np.flatnonzero(seen).tolist() == \
                    np.unique(vals).tolist(), (P, line, lo, hi)


def _window_streams(q):
    """Block streams that mix arrays and windows of P = 4: (blocks,
    verdict, blocks pulled).  Line 0 is X[:P], the windows cover the
    values up to P m, and the array X[P m:] ends the stream."""
    X = np.arange(q)
    P = 4
    m = q // P // 2
    line = np.array([2, 0, 3, 1])
    tail = X[P * m:]
    return [
        # the permutation, one window or two
        ([X[:P], bulk._Window(line, P, 1, m), tail], True, 3),
        ([X[:P], bulk._Window(line, P, 1, 2), bulk._Window(line, P, 2, m),
          tail], True, 4),
        # a window repeats a value of the block before it (P, for the
        # missing P - 1): the spans meet, and the occupancy array decides
        ([np.append(X[:P - 1], P), bulk._Window(line, P, 1, m), tail],
         False, 3),
        # a repeated residue repeats inside the window's own span
        ([X[:P], bulk._Window(np.array([2, 0, 2, 1]), P, 1, m), tail],
         False, 2),
        # a window reaching q
        ([X[:P], bulk._Window(line, P, 1, q // P + 1)], False, 2),
    ]


def test_permutation_predicate_window_streams(ctx):
    # windows among arrays: each verdict is the sort twin's over the
    # materialized values, the blocks pulled are those of arrays, and the
    # caller's occupancy array comes back all False
    q = ctx.q
    seen = np.zeros(q, dtype=bool)
    for blocks, want, pulled in _window_streams(q):
        assert _sort_twin(ctx, [np.asarray(blk) for blk in blocks]) is want
        for array in (None, seen):
            stream = _Pulls(blocks)
            assert bulk.values_are_permutation(ctx, stream, array) is want
            assert stream.pulled == pulled
            assert not seen.any()


def test_permutation_predicate_window_line_out_of_range(ctx):
    # a line entry outside [0, P) would mark another row's cell (P) or
    # wrap to the last column (-1), though every value lies in range:
    # an internal error, raised before the view is scattered
    q = ctx.q
    seen = np.zeros(q, dtype=bool)
    for line in ([0, 1, 2, 4], [-1, 0, 1, 2]):
        win = bulk._Window(np.array(line), 4, 1, 3)
        assert 0 <= win.min() and win.max() < q
        with pytest.raises(InternalError, match="window line"):
            win.mark(seen)
        assert not seen.any()
        stream = _Pulls([np.arange(4), win])
        with pytest.raises(InternalError, match="window line"):
            bulk.values_are_permutation(ctx, stream, seen)
        assert stream.pulled == 2
        assert not seen.any()


def test_lambda_scan_matches_scalar():
    from cppforge.hadickson import ha_pp_check, lambda_coeffs
    ctx = build_field(3, 4)
    lam = bulk.lambda_scan(ctx, 4, 1, np.arange(1, ctx.q))
    for a in range(1, 81, 7):
        lv = lambda_coeffs(ctx, a, 4, 1)
        assert tuple(lam[a - 1]) == lv
    ctx2 = build_field(3, 4)
    lam2 = bulk.lambda_scan(ctx2, 2, 2, np.arange(1, ctx2.q))
    for a in range(1, 81, 5):
        lv = lambda_coeffs(ctx2, a, 2, 2)
        assert tuple(lam2[a - 1]) == lv


def _wide_logs(ctx, count):
    """The encodings g^(N-1), g^(N-2), ... of the count largest logs: there
    a log times a wide factor (an exponent, p^k) passes 2**31."""
    N = ctx.q - 1
    return ctx.exp_table[N - 1 - np.arange(count)].astype(np.int64)


def test_pow_const_wide_logs_match_scalar():
    ctx = build_field(5, 8)
    X = _wide_logs(ctx, 200)
    assert bulk.pow_const(ctx, X, 16277).tolist() == \
        [ctx.pow(int(x), 16277) for x in X]


@pytest.mark.parametrize("p,r,k", [(11, 2, 3), (2, 2, 11)])
def test_lambda_scan_wide_logs_match_scalar(p, r, k):
    ctx = build_field(p, r * k)
    A = _wide_logs(ctx, 64)
    assert bulk.lambda_scan(ctx, r, k, A).tolist() == \
        [list(lambda_coeffs(ctx, int(a), r, k)) for a in A]


def test_kernels_return_int64(ctx):
    # the tables are int32; every kernel widens what it reads from them
    X = bulk.elements(ctx)
    Y = np.roll(X, 13)
    outs = [bulk.add(ctx, X, Y), bulk.mul(ctx, X, Y),
            bulk.mul_scalar(ctx, 2, X), bulk.mul_scalar(ctx, 0, X),
            bulk.pow_const(ctx, X, 7), bulk.pow_const(ctx, X, 0),
            bulk.pow_const(ctx, X, ctx.q - 1), bulk.trace(ctx, X),
            bulk.poly_eval(ctx, [1, 2, 1], X), bulk.monomial_values(ctx, 5),
            bulk.lambda_scan(ctx, ctx.n, 1, X)]
    assert [o.dtype for o in outs] == [np.dtype(np.int64)] * len(outs)


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


# period P = (q - 1)/gcd(d - 1, q - 1) of the Zech index: 2 and 3 split
# each row (40 and 85 points) into blocks; 10, 85 and 17 split the period
# itself into blocks of one or two rows, 85 ending in a short block
@pytest.mark.parametrize("p,n,d", [(3, 4, 41), (2, 8, 86), (3, 4, 9),
                                   (2, 8, 4), (2, 8, 16)])
def test_binomial_check_blocks_against_twin(monkeypatch, p, n, d):
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


def _point_fill(ctx, d, a):
    """The value table of binomial_is_permutation (d, a != 0) filled point
    by point, x = g^i in index order, by the block formula that the
    once-per-period fill replaced."""
    N = ctx.q - 1
    s, la = (d - 1) % N, int(ctx.log_table[a])
    vals = np.empty(ctx.q, dtype=np.int64)
    vals[N] = N
    for lo in range(0, N, bulk.CHECK_BLOCK):
        hi = min(lo + bulk.CHECK_BLOCK, N)
        i = np.arange(lo, hi, dtype=np.int64)
        z = ctx.zech_table[(s * i - la) % N]
        vals[lo:hi] = (i + z) % N
        vals[lo:hi][z < 0] = N
    return vals


@pytest.fixture
def occupancy_calls(monkeypatch):
    """Every value table binomial_is_permutation hands to
    values_are_permutation: the concatenation of its streamed blocks."""
    calls = []
    check = bulk.values_are_permutation

    def recorded(ctx, vals, seen=None):
        # windows and read-only views become arrays as they arrive
        blocks = [np.array(blk).ravel() for blk in
                  ([vals] if isinstance(vals, np.ndarray) else vals)]
        calls.append(np.concatenate(blocks))
        return check(ctx, blocks, seen)

    monkeypatch.setattr(bulk, "values_are_permutation", recorded)
    return calls


def _sentinel_coeffs(ctx, d):
    """Coefficients a whose Zech index hits Z = -1 (x^(d-1) = -a) at i = 0
    and at i = 1, so one row of the table is the zero sentinel."""
    N = ctx.q - 1
    m0 = int(np.flatnonzero(ctx.zech_table < 0)[0])
    return [int(ctx.exp_table[(i * (d - 1) - m0) % N]) for i in (0, 1)]


# d = 1 (period P = 1), d = 2 (gcd(d - 1, q - 1) = 1, P = q - 1), d - 1 the
# least prime factor of q - 1 and the tower exponent (P in between); blocks
# of 7 points split the rows of d = 2 into chunks, one with its Z = -1
# values, and stream d = 3 (P = 40) as one-line windows
@pytest.mark.parametrize("p,n,d,block", [
    pytest.param(p, n, d, bulk.CHECK_BLOCK, id=f"{p}-{n}-{d}")
    for p, n, d in [(3, 4, 41), (5, 4, 157), (2, 8, 86), (7, 2, 13),
                    (13, 2, 25)]] + [(3, 4, 41, 7)])
def test_binomial_check_every_coefficient_against_point_fill(
        monkeypatch, occupancy_calls, p, n, d, block):
    monkeypatch.setattr(bulk, "CHECK_BLOCK", block)
    ctx = build_field(p, n)
    N = ctx.q - 1
    least = next(m for m in range(2, N + 1) if N % m == 0)
    verdicts = set()
    for e in (1, 2, 1 + least, d):
        for a in range(1, ctx.q):
            del occupancy_calls[:]
            got = bulk.binomial_is_permutation(ctx, e, a)
            want = _point_fill(ctx, e, a)
            assert len(occupancy_calls) == 1
            assert (np.sort(occupancy_calls[0]) == np.sort(want)).all(), (e, a)
            assert got == bulk.values_are_permutation(ctx, want), (e, a)
            verdicts.add(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize("p,k", [(5, 2), (3, 3)])
def test_binomial_check_value_table_sampled(occupancy_calls, p, k):
    ctx = build_field(p, 4 * k)
    d = tower_exponent(p, k, 4)
    rng = np.random.default_rng(11)
    picks = [int(a) for a in rng.integers(1, ctx.q, 4)]
    picks += _sentinel_coeffs(ctx, d) + [1, ctx.q - 1]
    for a in picks:
        bulk.binomial_is_permutation(ctx, d, a)
    assert len(occupancy_calls) == len(picks)
    for a, vals in zip(picks, occupancy_calls):
        assert (np.sort(vals) == np.sort(_point_fill(ctx, d, a))).all(), a


def test_binomial_check_one_full_occupancy_per_call(occupancy_calls):
    # the final word is the q-point occupancy, never a test on the P
    # residues c_i mod P (that test is Zieve's criterion itself): a True
    # has seen all q values, and an early False is a repeat among the
    # values streamed so far.  The recorder pulls every block, so each
    # call is a full table here
    ctx = build_field(5, 8)
    d = tower_exponent(5, 2, 4)
    members = ha_cpp_scan(ctx, 4, 2)
    cases = [(d, members[0]), (d, 2), (d, 0), (0, 3),
             (1, 3), (2, 3), (d, _sentinel_coeffs(ctx, d)[0])]
    verdicts = [bulk.binomial_is_permutation(ctx, e, a) for e, a in cases]
    assert verdicts[0] and not any(verdicts[5:])
    assert len(occupancy_calls) == len(cases)
    assert all(len(vals) == ctx.q for vals in occupancy_calls)


@pytest.mark.parametrize("p,k", [(5, 2), (3, 3)])
def test_binomial_check_exit_pulls(p, k):
    # a rejected tower coefficient (two of them with a zero-sentinel row)
    # repeats a value inside the first block: a residue collision repeats
    # that row's first steps, and a sentinel row the zero value; an
    # accepted one pulls every block, all q values
    ctx = build_field(p, 4 * k)
    d = tower_exponent(p, k, 4)
    members = ha_cpp_scan(ctx, 4, k)
    rng = np.random.default_rng(13)
    rejected = [int(a) for a in rng.integers(1, ctx.q, 6) if a not in members]
    rejected += _sentinel_coeffs(ctx, d)
    for a in rejected:
        stream = _Pulls(bulk._binomial_blocks(ctx, d, a))
        assert not bulk.values_are_permutation(ctx, stream), a
        assert stream.pulled == 1, a
    for a in members[:3]:
        stream = _Pulls(bulk._binomial_blocks(ctx, d, int(a)))
        assert bulk.values_are_permutation(ctx, stream), a
        assert stream.values == ctx.q
        assert next(stream, None) is None


def _has_sentinel_row(ctx, d, a):
    """Whether some x^(d-1) = -a (a row of the value table is the zero
    sentinel): log a + log(-1) is a multiple of gcd(d - 1, q - 1)."""
    N = ctx.q - 1
    minus_one = N // 2 if ctx.p % 2 else 0
    return (int(ctx.log_table[a]) + minus_one) % math.gcd(d - 1, N) == 0


# the tower exponents: period P = 24, 26, 10 and 2047
@pytest.mark.parametrize("p,k,r", [(5, 2, 4), (3, 3, 4), (11, 1, 6), (2, 11, 2)])
def test_binomial_check_rejection_costs_its_first_line(p, k, r):
    # line 0, the P residues, is the first block: a rejected coefficient
    # without a zero-sentinel row repeats there and pulls nothing more
    ctx = build_field(p, r * k)
    d = tower_exponent(p, k, r)
    N = ctx.q - 1
    P = N // math.gcd(d - 1, N)
    seen = np.zeros(ctx.q, dtype=bool)
    rng = np.random.default_rng(17)
    rejected = [a for a in map(int, rng.integers(1, ctx.q, 40))
                if not _has_sentinel_row(ctx, d, a)
                and not ha_pp_check(ctx, a, r, k)]
    assert len(rejected) >= 10
    for a in rejected:
        stream = _Pulls(bulk._binomial_blocks(ctx, d, a))
        assert not bulk.values_are_permutation(ctx, stream, seen), a
        assert stream.values <= P + 1, (a, stream.values)
        assert not seen.any()


# blocks of 7 points split the periods of d = 2 and d = 41 on F_3^4
@pytest.mark.parametrize("p,n,d,block", [(3, 4, 41, bulk.CHECK_BLOCK),
                                         (5, 4, 157, bulk.CHECK_BLOCK),
                                         (3, 4, 41, 7)])
def test_binomial_check_reused_array_every_coefficient(monkeypatch, p, n, d,
                                                       block):
    # one array through every coefficient of four exponents (d = 0, the
    # period 1 of d = 1, d = 2 and the tower exponent): the fresh array's
    # verdict each time, and the array all False after it
    monkeypatch.setattr(bulk, "CHECK_BLOCK", block)
    ctx = build_field(p, n)
    seen = np.zeros(ctx.q, dtype=bool)
    verdicts = set()
    for e in (0, 1, 2, d):
        for a in range(1, ctx.q):
            got = bulk.binomial_is_permutation(ctx, e, a, seen)
            assert got == bulk.binomial_is_permutation(ctx, e, a), (e, a)
            assert not seen.any(), (e, a)
            verdicts.add(got)
    assert verdicts == {True, False}


# the tower exponents: period P = 24, 26 and 2047, each below CHECK_BLOCK
@pytest.mark.parametrize("p,k,r", [(5, 2, 4), (3, 3, 4), (2, 11, 2)])
def test_binomial_blocks_ascend(p, k, r):
    # each block lies above the last, so the predicate counts every span
    # and its occupancy scatters stay in one window of the array
    ctx = build_field(p, r * k)
    d = tower_exponent(p, k, r)
    members = ha_cpp_scan(ctx, r, k)
    # a rejection without a zero-sentinel row: -a is no (d - 1)-th power,
    # its log (log a + log(-1)) not a multiple of gcd(d - 1, q - 1)
    N = ctx.q - 1
    minus_one = N // 2 if p % 2 else 0
    rejected = next(a for a in range(2, ctx.q) if a not in members and
                    (int(ctx.log_table[a]) + minus_one) % math.gcd(d - 1, N))
    for a in (int(members[0]), int(members[-1]), rejected):
        top, values = -1, 0
        for blk in bulk._binomial_blocks(ctx, d, a):
            assert blk.min() > top, a
            top = blk.max()
            values += blk.size
        assert top == ctx.q - 1 and values == ctx.q


# the tower exponents: periods 24, 8, 10 and 2047, at the default
# CHECK_BLOCK and at P // 3 (P > CHECK_BLOCK: chunks of rows, one-line
# windows); sentinel: a coefficient with a Z = -1 row, else a member
@pytest.mark.parametrize("p,k,r,sentinel", [(5, 2, 4, True), (3, 2, 4, True),
                                            (11, 1, 6, True),
                                            (2, 11, 2, False)])
def test_binomial_blocks_form(monkeypatch, p, k, r, sentinel):
    # every line after line 0 is a _Window over its chunk's line 0; the
    # arrays are each chunk's line 0, the T zero values of a Z = -1 row
    # and the x = 0 value
    ctx = build_field(p, r * k)
    d = tower_exponent(p, k, r)
    N = ctx.q - 1
    P = N // math.gcd(d - 1, N)
    a = (_sentinel_coeffs(ctx, d)[0] if sentinel
         else int(ha_cpp_scan(ctx, r, k)[0]))
    for block in (bulk.CHECK_BLOCK, P // 3):
        monkeypatch.setattr(bulk, "CHECK_BLOCK", block)
        *blocks, last = bulk._binomial_blocks(ctx, d, a)
        assert type(last) is np.ndarray and last.tolist() == [N]
        lines, zeros, windows = [], [], 0
        for blk in blocks:
            if isinstance(blk, bulk._Window):
                assert blk.line is lines[-1] and blk.P == P
                assert blk.hi - blk.lo <= max(1, block // P)
                windows += 1
            elif blk.size and blk.min() == N:
                zeros.append(blk.size)
            else:
                assert type(blk) is np.ndarray and blk.max() < P
                lines.append(blk)
        assert len(lines) == -(-P // block) and windows >= len(lines)
        assert sum(map(len, lines)) == P - sentinel
        assert zeros == [N // P] * sentinel
        assert sum(blk.size for blk in blocks) == N


# d - 1 = (2^16 - 1)/(2^8 - 1), the tower shape (period 255), d = 3,
# gcd(d - 1, q - 1) = 1 (period q - 1), and d = 4 (period 21845 > 1024,
# one-line windows of 21845 cells); small blocks make any full-size
# temporary stand out
@pytest.mark.parametrize("d", [258, 3, 4])
def test_binomial_check_peak_memory(monkeypatch, d):
    monkeypatch.setattr(bulk, "CHECK_BLOCK", 1 << 10)
    ctx = build_field(2, 16)
    bulk.binomial_is_permutation(ctx, d, 7)          # lazy tables
    tracemalloc.start()
    try:
        bulk.binomial_is_permutation(ctx, d, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # seen (1 byte a point), plus a chunk's line, a window's rows and a
    # few temporaries
    assert peak < ctx.q + 64 * bulk.CHECK_BLOCK


@pytest.mark.parametrize("p,n,r,k", [(3, 4, 4, 1), (3, 4, 2, 2), (2, 6, 3, 2),
                                     (2, 6, 2, 3), (5, 2, 2, 1), (3, 1, 1, 1)])
def test_lambda_scan_blocks_against_twin(monkeypatch, p, n, r, k):
    monkeypatch.setattr(bulk, "LAMBDA_BLOCK", 3)
    ctx = build_field(p, n)
    twin = _twin(ctx)
    A = np.arange(1, ctx.q)
    lam = bulk.lambda_scan(ctx, r, k, A)
    assert lam.tolist() == [list(lambda_coeffs(twin, int(a), r, k))
                            for a in A]
    A = np.array([0, 5, 0, ctx.q - 1, 5], dtype=np.int64) % ctx.q
    lam = bulk.lambda_scan(ctx, r, k, A)
    assert lam.tolist() == [list(lambda_coeffs(twin, int(a), r, k))
                            for a in A]
