"""Vectorized kernels over arrays of element encodings (table backend only).

Every function takes a FieldCtx whose log/exp/Zech tables exist and
operates on int64 numpy arrays of encodings, returning int64.  Inside a
kernel the work may run on discrete logs instead (products as sums of
logs, sums through the Zech table, -1 standing for zero), converting back
to encodings on output.  The tables are int32, and NumPy keeps int32
through a product with a Python int, wrapping silently: so logs are read
through `_logs` and encodings through `_exp`, both int64, and no int32
array leaves the tables through a kernel.  The one exception is the
second operand of add and mul, whose int32 logs meet only int64 logs
(a sum, a difference, a copy), which NumPy widens: it saves 4 of their
8 bytes per element.
The exp and Zech tables hold exactly q - 1 = N entries (the build checks
it), so a sum or difference of logs gathers from them with
take(..., mode="wrap") and no % N: wrap mode reads the index mod N.
It steps by N, so only indices within a few periods of [0, N) go to it;
a log times a wide factor is still reduced by % N first.  The zero
sentinel -1 would wrap to N - 1, so every kernel masks it explicitly,
and log_table (q entries, -1 at zero) is never gathered by wrap.  Logs a
kernel returns are reduced to [0, N) by one conditional subtract.
These are the hot loops behind the exhaustive scans; each has a scalar
counterpart on FieldCtx that the test suite cross-checks against.
"""

import math

import numpy as np

from .field import InternalError, zp_is_irreducible

LAMBDA_BLOCK = 1 << 18      # coefficients per block in lambda_scan
CHECK_BLOCK = 1 << 17       # points per block: occupancy checks, niho's root counts


def elements(ctx):
    # sized from the log table (q entries): a generic field refuses here
    return np.arange(len(ctx.log_table), dtype=np.int64)


def _log_add(ctx, LX, LY):
    """log(x + y) from logs in [-1, N) through the Zech table, -1 standing
    for zero, written into LX (int64) and returned; LY may be int32 and
    broadcasts to LX."""
    N = ctx.q - 1
    # in place: the difference is freed once the Zech entries are read,
    # and z's int32 buffer then holds the conditional subtract
    z = ctx.zech_table.take(LY - LX, mode="wrap")
    np.copyto(z, 0, where=LY < 0)           # x + 0 = x
    x_zero, sum_zero = LX < 0, z < 0        # 0 + y = y, x + y = 0
    LX += z
    LX -= np.multiply(LX >= N, N, out=z)    # [0, 2N) back to [0, N)
    LX[sum_zero] = -1
    np.copyto(LX, LY, where=x_zero)
    return LX


def _logs(ctx, X):
    """int64 logs of encodings, -1 for zero."""
    return ctx.log_table[X].astype(np.int64)


def _exp(ctx, L, zero):
    """int64 encodings of logs (any within a few periods of [0, N)),
    zero where the mask zero holds."""
    # the int64 scalar makes where's result int64 in its one pass
    return np.where(zero, np.int64(0), ctx.exp_table.take(L, mode="wrap"))


def add(ctx, X, Y):
    """X + Y element-wise; Y broadcasts to X's shape (the sum is written
    into the logs of X)."""
    L = _log_add(ctx, _logs(ctx, X), ctx.log_table[Y])
    return _exp(ctx, L, L < 0)


def mul(ctx, X, Y):
    return _exp(ctx, _logs(ctx, X) + ctx.log_table[Y], (X == 0) | (Y == 0))


def mul_scalar(ctx, a, X):
    if a == 0:
        return np.zeros_like(X)
    return _exp(ctx, _logs(ctx, X) + int(ctx.log_table[a]), X == 0)


def pow_const(ctx, X, e):
    """X**e element-wise for one wide exponent e >= 0."""
    N = ctx.q - 1
    if e == 0:                  # 0^0 = 1, which the logs cannot give
        return np.ones_like(X)
    return _exp(ctx, _logs(ctx, X) * (e % N) % N, X == 0)


def trace(ctx, X, k=1):
    """Tr onto F_{p^k} of every entry of X, on logs: Frobenius^k multiplies
    a log by p^k mod N, each conjugate is Zech-added into the sum in
    place, and one exp ends it.  Zero runs as one (log 0) and is masked
    at that exp."""
    if ctx.n % k:
        raise ValueError(f"k-not-divisor: {k} does not divide {ctx.n}")
    N, pk = ctx.q - 1, ctx.p ** k
    cur = _logs(ctx, X)
    zero = cur < 0
    cur[zero] = 0
    acc = cur.copy()
    for _ in range(ctx.n // k - 1):
        cur *= pk                           # below N p^k < 2**63
        cur %= N
        _log_add(ctx, acc, cur)
    return _exp(ctx, acc, zero | (acc < 0))


def poly_eval(ctx, coeffs, X):
    """Values of a coefficient sequence (ascending degrees) at every point
    of X, by Horner."""
    acc = np.zeros_like(X)
    for c in reversed(list(coeffs)):
        acc = mul(ctx, acc, X)
        if c:
            acc = add(ctx, acc, np.full_like(X, c))
    return acc


def find_root(ctx, coeffs):
    """The root of a subfield polynomial with the least encoding (only
    F_{p^m} is searched for a monic irreducible over F_p of degree m | n)."""
    for c in coeffs:
        if not 0 <= c < ctx.q:
            raise ValueError(f"coefficient {c} is not a valid encoding")
    m = len(coeffs) - 1
    sub = (0 < m < ctx.n and ctx.n % m == 0 and coeffs[-1] == 1
           and max(coeffs) < ctx.p and zp_is_irreducible(ctx.p, list(coeffs)))
    X = np.array(ctx.subfield_elements(m)) if sub else elements(ctx)
    roots = X[poly_eval(ctx, coeffs, X) == 0]
    if roots.size == 0:
        raise ValueError("no-root-found")
    return int(roots[0])


def monomial_values(ctx, d):
    """x^d over the whole field."""
    return pow_const(ctx, elements(ctx), d)


class _Window:
    """The values line[i] + P j for lo <= j < hi, a block with no index
    array: lines lo..hi - 1 of a check whose lines are line 0 plus P j.

    Each value is its own cell of seen[P lo:P hi] read as hi - lo rows of
    P: row j - lo, column line[i].  np.asarray gives the values, shaped
    (hi - lo, len(line))."""

    __slots__ = ("line", "P", "lo", "hi", "size")

    def __init__(self, line, P, lo, hi):
        self.line, self.P, self.lo, self.hi = line, P, lo, hi
        self.size = len(line) * (hi - lo)

    def min(self):
        return int(self.line.min()) + self.P * self.lo

    def max(self):
        return int(self.line.max()) + self.P * (self.hi - 1)

    def mark(self, seen):
        """seen[v] = True for every value v: one row of P cells is marked
        from the line, doubled into hi - lo rows and ORed into
        seen[P lo:P hi] in one contiguous pass."""
        P, lo, hi = self.P, self.lo, self.hi
        # a column outside [0, P) would write another row's cell, or wrap
        if self.line.min() < 0 or self.line.max() >= P:
            raise InternalError(f"a window line leaves [0, {P})")
        rows = np.zeros(P * (hi - lo), dtype=bool)
        rows[self.line] = True
        done = P
        while done < rows.size:
            rows[done:2 * done] = rows[:min(done, rows.size - done)]
            done *= 2
        cells = seen[P * lo:P * hi]
        cells |= rows

    def __array__(self, dtype=None, copy=None):
        # numpy casts to dtype itself; the values are always a new array
        return self.line + self.P * np.arange(self.lo, self.hi)[:, None]


def values_are_permutation(ctx, vals, seen=None):
    """True iff the values (one array, or an iterable of its blocks) hit
    every encoding exactly once: each block is range-checked and scattered
    into one q-entry occupancy array, and there must be q values in all.

    A block is an array, whose values index the occupancy array, or a
    _Window, the values line[i] + P j for a range of j, which marks them
    through rows of P cells of the array with no index array.  Both are
    range-checked, counted and cleared alike.

    True is returned only after all q values have been seen.  While each
    block's span [min, max] lies wholly above or below the spans of the
    blocks before it, the occupied entries in its span count its distinct
    values exactly; fewer distinct values than values so far prove a
    repeat, and the rest of the stream is left unread.  The first block
    whose span meets the earlier ones' ends the counting, and the
    occupancy array alone decides.

    seen, if given, is the occupancy array: q bools, all False, owned by
    the caller so that a scan allocates it once.  It comes back all False
    on every return: the hull of the spans written, that of the block
    that ended the stream included, is cleared."""
    q = len(ctx.log_table)      # a generic field refuses before the q bytes
    fresh = seen is None
    if fresh:
        seen = np.zeros(q, dtype=bool)
    total, hit = 0, 0       # hit: distinct values, None once spans meet
    lo, hi = q, -1          # the hull of the spans so far
    try:
        for blk in [vals] if isinstance(vals, np.ndarray) else vals:
            if not blk.size:
                continue
            bmin, bmax = int(blk.min()), int(blk.max())
            if bmin < 0 or bmax >= q:
                return False
            if isinstance(blk, _Window):
                blk.mark(seen)
            else:
                seen[blk] = True
            total += blk.size
            clear = bmax < lo or bmin > hi
            lo, hi = min(lo, bmin), max(hi, bmax)
            if hit is not None and clear:
                hit += int(np.count_nonzero(seen[bmin:bmax + 1]))
                if hit < total:
                    return False
            else:
                hit = None
        return total == q and (hit == q if hit is not None else bool(seen.all()))
    finally:
        if not fresh:
            seen[lo:hi + 1] = False


def binomial_is_permutation(ctx, d, a, seen=None):
    """Bijectivity of x -> x^d + a*x, the inner check of every direct scan.

    On discrete logs: for x = g^i, x^d + a x = a x (1 + x^(d-1)/a) has log
    log a + i + Z[(d-1) i - log a].  Dropping the constant log a, the map
    is a bijection iff the values i + Z[...] mod q - 1, with q - 1 standing
    for zero (also the value at x = 0), hit each of 0..q-1 once.

    The Zech index has period P = (q-1)/gcd(d-1, q-1) in i, so Z is
    gathered once per period: with c_i = i + Z[...] for i < P, the value
    at x = g^(i + P t) is c_i + P t mod q - 1, and row i, run from its
    least value, is c_i mod P + P j for j < T = (q-1)/P; a Z = -1 row is
    q - 1 on all T steps.  All q values stream into values_are_permutation
    (seen: the caller's occupancy array, if any), the x = 0 value last.
    Each chunk of at most CHECK_BLOCK rows streams the T values of its
    Z = -1 row, if any, then its line 0, the residues c_i mod P, as
    arrays, then its other lines as _Windows of at most
    max(1, CHECK_BLOCK // P) lines.  With P <= CHECK_BLOCK and no Z = -1
    row the blocks ascend.  True always sees all q values; an early False
    is a proven repeat (or a value out of range) among the values
    streamed so far, never a test on the residues c_i mod P.
    """
    return values_are_permutation(ctx, _binomial_blocks(ctx, d, a), seen)


def _binomial_blocks(ctx, d, a):
    """The values of binomial_is_permutation, block by block."""
    if d == 0 or a == 0:
        # 0^0 = 1 breaks x^d = x * x^(d-1), and a = 0 has no log
        for lo in range(0, ctx.q, CHECK_BLOCK):
            X = np.arange(lo, min(lo + CHECK_BLOCK, ctx.q), dtype=np.int64)
            yield add(ctx, pow_const(ctx, X, d), mul_scalar(ctx, a, X))
        return
    N = ctx.q - 1
    s, la = (d - 1) % N, int(ctx.log_table[a])
    P = N // math.gcd(s, N)
    T = N // P
    height, width = min(P, CHECK_BLOCK), min(T, max(1, CHECK_BLOCK // P))
    for lo in range(0, P, height):
        i = np.arange(lo, min(lo + height, P), dtype=np.intp)
        z = ctx.zech_table[(s * i - la) % N]
        sentinel = z < 0
        if sentinel.any():
            # the T zero values of a Z = -1 row: a repeat inside the
            # block, or of the x = 0 value when T = 1 (a read-only view,
            # no T-entry array)
            yield np.broadcast_to(np.intp(N), T * int(sentinel.sum()))
            i, z = i[~sentinel], z[~sentinel]
        # (c_i + P t) mod N is least, c_i mod P, at t = -floor(c_i / P)
        # mod T; from there row i is c_i mod P + P j for j < T, below N.
        # Line j, the chunk's rows at step j, is line 0 plus P j, so a
        # residue collision repeats inside line 0: it goes first, alone
        line = (i + z) % P
        yield line
        for j in range(1, T, width):
            yield _Window(line, P, j, min(j + width, T))
    yield np.array([N], dtype=np.intp)              # the value at x = 0


def lambda_scan(ctx, r, k, A):
    """Conjugate elementary symmetric vectors for a batch of coefficients.

    For each a in A computes (lambda_1, ..., lambda_r) of the r
    Frobenius^k-conjugates of a.  Returns lam of shape (len(A), r) holding
    encodings.
    The products and sums run on discrete logs (Zech addition) in blocks
    of at most LAMBDA_BLOCK coefficients.
    """
    if ctx.n != r * k:
        raise ValueError(f"degree-mismatch: need n == r*k, got {ctx.n} != {r}*{k}")
    N = ctx.q - 1
    frob = ctx.p ** k % N
    out = np.empty((len(A), r), dtype=np.int64)
    for lo in range(0, len(A), LAMBDA_BLOCK):
        c = _logs(ctx, A[lo:lo + LAMBDA_BLOCK])
        lam = [np.full_like(c, -1) for _ in range(r)]
        for m in range(r):
            if m:
                c = np.where(c < 0, -1, c * frob % N)
            # lambda_j is zero for j > m until the (m+1)-th conjugate
            for j in range(min(m, r - 1), 0, -1):
                prod = lam[j - 1] + c
                prod -= N * (prod >= N)
                prod[(lam[j - 1] < 0) | (c < 0)] = -1
                lam[j] = _log_add(ctx, lam[j], prod)
            lam[0] = _log_add(ctx, lam[0], c)
        for j in range(r):
            out[lo:lo + LAMBDA_BLOCK, j] = _exp(ctx, lam[j], lam[j] < 0)
    return out
