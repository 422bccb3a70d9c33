"""Finite fields F_{p^n} with exact arithmetic on base-p integer encodings.

An element of F_{p^n} = Z_p[x]/(modulus) is the integer sum(c_i * p**i)
of its coefficient vector (c_0, ..., c_{n-1}).  Zero is 0, one is 1, and
the residue class of x has encoding p.

Two backends share one API.  Fields with at most 2**22 elements get
discrete log/exp tables over a primitive element g and a Zech table
Z[i] = log(1 + g^i) ("table"), so addition runs on logs too:
x + y = g^(log x + Z[log y - log x]); the exp table is filled by
doubling on encodings through lookup tables (`FieldCtx._powers`), whose
one `digit_map` is squared at each step, the log table by `np.put`, and
half of the Zech table from the other half by Z[N - i] = Z[i] - i mod N,
N = q - 1 (Huber 1990).
All three tables are int32, 12 bytes per element (48 MiB at TABLE_CAP):
encodings and logs stay below 2**22.  NumPy keeps int32 through a
product with a Python int and wraps silently, so a reader widens a
table read to int64 before it meets a wide factor.  The exp and Zech
tables hold exactly q - 1 entries and the log table q, which the build
checks: a gather by mode="wrap" (bulk) reads exp and Zech mod q - 1.
Scalar table arithmetic (add, mul, pow, subgroup_generator) reads
read-only memoryviews of the three tables, which share their memory and
give Python ints, not numpy scalars; like mode="wrap", a Python index in
[-(q - 1), q - 1) reads exp or Zech at its residue mod q - 1.
Larger fields use generic polynomial arithmetic ("generic"): addition
digit by digit, multiplication by packed-integer convolution, which is
also the module's one product modulo a polynomial: zp_is_irreducible
runs it modulo each candidate modulus.  Any read of a generic field's
tables raises the one CapExceeded (`_NoTable`), so a table reader needs
no backend check, only a table read before any q-sized allocation.  On
both backends the inverse of x is x^(q-2).  Exponents may be arbitrarily wide Python ints;
they are reduced mod p^n - 1 before exponentiation of a nonzero base.
Construction refuses p^n - 1 >= 2**127.

FieldCtx instances are immutable after construction; the subgroup
generators, subfield lists and subfield views they hand out are memoized
per context with functools.cache, so contexts are safe to share across
workers.
"""

from __future__ import annotations

import functools
import math

import numpy as np

FIELD_CAP = 1 << 127        # require p^n - 1 < 2**127
TABLE_CAP = 1 << 22         # log/exp tables up to this field size
PERMUTES_BLOCK = 1 << 20    # values per block in SubfieldView.permutes
EXP_BLOCK = 1 << 16         # rows per doubling step in FieldCtx._powers


class CapExceeded(ValueError):
    """A request past one of the size caps above (the CLI's exit code 3)."""


class HypothesisViolation(ValueError):
    """Parameters outside the hypotheses of a theorem or family (a usage
    error: the CLI's exit code 2)."""


class InternalError(RuntimeError):
    """A broken invariant of the library itself, never a counterexample
    (the CLI's exit code 4)."""


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond machine-word primes."""
    if m < 2:
        return False
    for sp in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if m % sp == 0:
            return m == sp
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def factorize(m: int) -> dict:
    """Prime factorization by trial division (fine for subgroup orders)."""
    out = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


# ----------------------------------------------------------------------
# polynomials over Z_p as coefficient lists (construction-time helpers)

def _zp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _zp_gcd(a, b, p):
    a, b = a[:], b[:]
    while b:
        inv_lead = pow(b[-1], p - 2, p)
        while len(a) >= len(b) and a:
            c = a[-1] * inv_lead % p
            shift = len(a) - len(b)
            for j in range(len(b)):
                a[shift + j] = (a[shift + j] - c * b[j]) % p
            _zp_trim(a)
        a, b = b, a
    return a


def zp_is_irreducible(p: int, coeffs) -> bool:
    """Irreducibility over Z_p by gcd with x^(p^i) - x for i <= deg/2.
    The powers x^(p^i) mod f come from FieldCtx's generic (packed)
    product, which needs f monic only; the ring never leaves here."""
    f = [c % p for c in coeffs]
    deg = len(f) - 1
    if deg < 1 or f[-1] != 1:
        raise ValueError("not-monic: irreducibility test needs a monic polynomial")
    ring = FieldCtx(p, deg, f, "generic")
    t = p                                           # x
    for _ in range(deg // 2):
        t = ring.pow(t, p)                          # p < p^deg - 1: no reduction
        diff = list(ring.coeffs(t))
        diff[1] = (diff[1] - 1) % p
        if len(_zp_gcd(f, _zp_trim(diff), p)) > 1:
            return False
    return True


def lex_least_irreducible(p: int, n: int) -> tuple:
    """First monic irreducible of degree n over Z_p in lexicographic
    order of the coefficient vector (c_0, ..., c_{n-1})."""
    if n == 1:
        # x, where the search below would give x + 1: `field --n 1` prints it
        return (0, 1)
    # a zero constant term means a root at 0, so lex search starts at
    # (1, 0, ..., 0); c_0 stays nonzero from there on
    coeffs = [1] + [0] * (n - 1)
    while True:
        if zp_is_irreducible(p, coeffs + [1]):
            return tuple(coeffs) + (1,)
        # lexicographic odometer: c_0 most significant
        i = n - 1
        while i >= 0:
            coeffs[i] += 1
            if coeffs[i] < p:
                break
            coeffs[i] = 0
            i -= 1
        if i < 0:
            raise InternalError(f"no irreducible of degree {n} over Z_{p}")


def _plus_one(e, p):
    """Encoding of 1 + e for an encoding e (an int or an integer array):
    adding 1 changes digit 0 only, wrapping p - 1 to 0 without a carry.
    For p = 2 digit 0 is bit 0, and that is e ^ 1."""
    if p == 2:
        return e ^ 1
    return e + 1 - p * (e % p == p - 1)


def _holding(v):
    """The narrowest of uint8, int16, int32 and int64 holding 0..v, else
    object; any two of them promote to the wider, never to a float."""
    return next((t for t in (np.uint8, np.int16, np.int32, np.int64)
                 if v <= np.iinfo(t).max), object)


# ----------------------------------------------------------------------

class SubfieldView:
    """Log-domain evaluation on the subfield F_{p^k} inside an ambient field.

    Callers pass ambient encodings of subfield elements; `logs` maps them
    to discrete logs to a generator zeta of F_{p^k}^*, the one place a
    subfield encoding is converted.  On table fields zeta = g^c with
    c = (q - 1)/(p^k - 1), so x != 0 has the log log_table[x] / c and lies
    in F_{p^k} iff c divides log_table[x]: nothing is listed.  Generic
    fields list F_{p^k}^* once through mu_subgroup, into one dict from
    encoding to log.

    Evaluation runs at the nonzero points zeta^t only: x * m(x) sends 0
    to 0.  Everything comes from the Zech logarithms Z[e] = log(1 + zeta^e)
    (Huber, IEEE Trans. IT 36(4), 1990): on table fields one gather
    Z[e] = zech_table[c e] / c from the ambient Zech table, on generic
    fields the log of zeta^e with digit 0 raised by one.  So the view
    holds O(p^k) state however large the ambient field is.

    With m = p^k - 1, zero is the log 3m as a value and -5m as a
    coefficient.  Then acc * x is one add, and acc + c = c (1 + acc/c) is
    u = log acc - log c, a gather from `_zech`, an add of log c and a
    gather from `_reduce`.  The ranges of u keep the four cases apart:
    both nonzero in (-m, 2m), where `_zech` holds Z (3m when
    1 + zeta^u = 0; negative u reads the last m entries); a zero acc in
    (2m, 4m), where it holds 0 so c comes back; a zero c in [5m, 9m),
    where it holds u so acc comes back.  `_reduce` takes the sums, below
    2m or in [3m, 4m) for zero, back to [0, m) or 3m.
    """

    def __init__(self, ctx, k):
        order = ctx.p ** k
        if order > TABLE_CAP:
            raise CapExceeded(f"cap-exceeded: a subfield view of F_{ctx.p}^{k} "
                              f"has {order} elements; views are capped at "
                              f"{TABLE_CAP} elements like the log tables")
        self.ctx = ctx
        self.k = k
        self.order = order
        m = order - 1
        if ctx.backend == "table":
            self._c = (ctx.q - 1) // m
            zech = ctx.zech_table[np.arange(0, ctx.q - 1, self._c)] // self._c
        else:
            powers = ctx.mu_subgroup(m)             # zeta^e for e < m
            self._log = dict(zip(powers, range(m)))
            self._log[0] = -5 * m
            zech = self.logs([_plus_one(z, ctx.p) for z in powers])
        zech[zech < 0] = 3 * m                      # where 1 + zeta^e = 0
        self._zech_m = zech

    # the Horner tables, 14m int32 entries in all, are built by the first
    # evaluation: a view that only runs norm_permutes never holds them
    @functools.cached_property
    def _zech(self):
        m, zech = self.order - 1, self._zech_m
        return np.concatenate([zech, zech, np.zeros(3 * m, np.int32),
                               np.arange(5 * m, 9 * m, dtype=np.int32), zech])

    @functools.cached_property
    def _reduce(self):
        m = self.order - 1
        return np.concatenate([np.arange(m, dtype=np.int32)] * 2 +
                              [np.full(2 * m, 3 * m, np.int32)])

    def logs(self, encs):
        """The zeta-logs of an array of subfield encodings (any shape) as
        int32, zero giving -5m.  An entry outside F_{p^k} breaks an
        invariant of the caller."""
        m = self.order - 1
        if self.ctx.backend == "table":
            L = self.ctx.log_table[np.asarray(encs, dtype=np.int64)]
            # zero: -5m once divided; int32 holds -5(q - 1), as
            # 5 TABLE_CAP < 2**31
            L[L < 0] = -5 * m * self._c
            # one pass: L // c in place, and whether c left a remainder
            # (the int-to-bool cast is x != 0) as one byte per entry
            rem = np.empty(L.shape, dtype=bool)
            np.divmod(L, self._c, out=(L, rem), casting="unsafe")
            if not rem.any():
                return L
        else:
            # generic encodings can pass int64: map them before any conversion
            arr = np.asarray(encs, dtype=object)
            out = [self._log.get(x) for x in arr.flat]
            if None not in out:
                return np.array(out, dtype=np.int32).reshape(arr.shape)
        raise InternalError(f"an entry left the subfield F_{self.ctx.p}^{self.k}")

    def eval_poly_rows(self, log_rows):
        """Logs of x^D + rows[:,0] x^(D-1) + ... + rows[:,D-1] at every
        nonzero point zeta^t at once, coefficients given as logs (see
        `logs`).  Returns a (U, p^k - 1) array, column t for zeta^t, 3m
        for zero."""
        c = np.asarray(log_rows)
        t = np.arange(self.order - 1, dtype=np.int32)
        acc = np.zeros((len(c), len(t)), dtype=np.int32)
        for j in range(c.shape[1]):
            cj = c[:, j, None]
            acc += t
            acc -= cj
            np.take(self._zech, acc, out=acc, mode="wrap")
            acc += cj
            np.take(self._reduce, acc, out=acc, mode="wrap")
        return acc

    def norm_permutes(self, coeffs, block):
        """Row-wise: whether h_a(x) = x N(a + x) permutes F_{p^k}, for each
        ambient encoding a != 0 in coeffs (an integer array or list,
        indexed as it is), N the norm onto F_{p^k}; by
        Zieve's criterion x^(c+1) + ax permutes F_q iff it does.

        N(y) = y^c, so at x = zeta^t = g^(c t) the value has the zeta-log
        (t + log a + Z[c t - log a]) mod m, one ambient Zech gather, and
        is zero (3m) where Z = -1, that is where a = -zeta^t.  Dropping the
        constant log a (dividing by N(a)) keeps the verdict.  The Zech
        index lies in (-(q - 1), q - 1), which take(mode="wrap") reads with
        no % pass.  Rows go in blocks of at most `block` values (one row
        at least).  Table fields only: the first statement reads the log
        table, so a generic field refuses with the cap error."""
        la = self.ctx.log_table[coeffs]
        if (la < 0).any():
            raise ValueError("zero-coefficient: need a != 0")
        m = self.order - 1
        # int32 throughout: c t < q - 1, and t + Z < q - 1 + m < 2**31
        t = np.arange(m, dtype=np.int32)
        ct = self._c * t
        step = max(1, block // m)
        out = np.empty(len(la), dtype=bool)
        for lo in range(0, len(la), step):
            z = ct - la[lo:lo + step, None]
            self.ctx.zech_table.take(z, out=z, mode="wrap")
            zero = z < 0
            z += t
            np.remainder(z, m, out=z)
            np.copyto(z, 3 * m, where=zero)
            out[lo:lo + step] = self.rows_are_permutations(z)
        return out

    def rows_are_permutations(self, logs):
        """Row-wise bijectivity onto F_{p^k}^* of a (U, p^k - 1) array of
        logs at the nonzero points; a zero value (3m) never matches."""
        return (np.sort(logs, axis=1) ==
                np.arange(self.order - 1, dtype=logs.dtype)).all(axis=1)

    def permutes(self, coeff_rows):
        """Row-wise: whether x * m(x) permutes F_{p^k}, where row i holds
        the encodings of the coefficients of the monic
        m(x) = x^D + row[0] x^(D-1) + ... + row[D-1].  Rows are evaluated
        in blocks of at most PERMUTES_BLOCK values."""
        rows = self.logs(coeff_rows)
        t = np.arange(self.order - 1, dtype=np.int32)
        step = max(1, PERMUTES_BLOCK // self.order)
        out = np.empty(len(rows), dtype=bool)
        for lo in range(0, len(rows), step):
            logs = self.eval_poly_rows(rows[lo:lo + step])
            logs += t                                       # x * m(x)
            np.take(self._reduce, logs, out=logs, mode="wrap")
            out[lo:lo + step] = self.rows_are_permutations(logs)
        return out


class _NoTable:
    """A generic field's exp, log and Zech tables: an index, the length,
    iteration, a take or use as a numpy array raises the one CapExceeded.
    (A __getattr__ hook would slow every attribute read of every field.)"""

    def __init__(self, ctx):
        self.message = (f"field-too-large: F_{ctx.p}^{ctx.n} has no log "
                        "tables (cap-exceeded: they are built for fields of "
                        f"at most 2**{TABLE_CAP.bit_length() - 1} elements)")

    def _refuse(self, *args, **kwargs):
        raise CapExceeded(self.message)

    __getitem__ = __len__ = __iter__ = __array__ = take = _refuse


class FieldCtx:
    """Arithmetic context for F_{p^n}; see the module docstring for the
    element encoding.  Use build_field() rather than this constructor: a
    generic context is arithmetic modulo any monic polynomial (the ring
    of zp_is_irreducible), and only build_field makes fields."""

    def __init__(self, p, n, modulus, backend):
        self.p = p
        self.n = n
        self.q = p ** n
        self.modulus = tuple(int(c) % p for c in modulus)
        self.backend = backend
        self._pn = [p ** i for i in range(n + 1)]
        self._setup_packed()
        self.generator = None
        if backend == "table":
            self._build_tables()
        else:
            self.exp_table = self.log_table = self.zech_table = _NoTable(self)

    # -- construction internals ------------------------------------------

    def _setup_packed(self):
        n, p = self.n, self.p
        # limb wide enough for convolution coefficients plus reduction carries
        self._limb = max((n * n * p ** 3).bit_length() + 2, 8)
        self._limb_mask = (1 << self._limb) - 1
        self._low_mask = (1 << (self._limb * n)) - 1
        neg_tail = [(-c) % p for c in self.modulus[:n]]
        rows = [self._pack_enc(self.element(neg_tail))]     # x^n mod modulus
        for _ in range(n - 2):
            nxt = rows[-1] << self._limb
            top = (nxt >> (self._limb * n)) & self._limb_mask
            nxt &= self._low_mask
            if top:                 # else nxt is a shifted normalized row
                nxt = self._pnormalize(nxt + top * rows[0])
            rows.append(nxt)
        self._redrows = rows

    def _pack_enc(self, x):
        p, w = self.p, self._limb
        acc, shift = 0, 0
        while x:
            x, d = divmod(x, p)
            acc |= d << shift
            shift += w
        return acc

    def _pnormalize(self, P):
        p, w, M = self.p, self._limb, self._limb_mask
        acc, shift = 0, 0
        while P:
            acc |= ((P & M) % p) << shift
            P >>= w
            shift += w
        return acc

    def _enc_from_packed(self, P):
        p, w, M = self.p, self._limb, self._limb_mask
        acc, mult = 0, 1
        while P:
            acc += ((P & M) % p) * mult
            P >>= w
            mult *= p
        return acc

    def _reduce_packed(self, P):
        # fold limbs n..2n-2 back through the modulus relations
        low = P & self._low_mask
        hi = P >> (self._limb * self.n)
        M = self._limb_mask
        t = 0
        while hi:
            c = hi & M
            if c:
                low += c * self._redrows[t]
            hi >>= self._limb
            t += 1
        return low

    def _mul_packed(self, A, B):
        return self._pnormalize(self._reduce_packed(A * B))

    def _mul_generic(self, x, y):
        if x == 0 or y == 0:
            return 0
        return self._enc_from_packed(
            self._mul_packed(self._pack_enc(x), self._pack_enc(y)))

    def _pow_generic(self, x, e):
        if e == 0:
            return 1
        A = self._pack_enc(x)
        R = None
        while e:
            if e & 1:
                R = A if R is None else self._mul_packed(R, A)
            e >>= 1
            if e:
                A = self._mul_packed(A, A)
        return self._enc_from_packed(R)

    def _build_tables(self):
        p, q = self.p, self.q
        N = q - 1
        g = self._element_of_order(N)
        E = self._powers(g, N)
        # int32 tables filled in EXP_BLOCK slices, so no full-size
        # temporary (and no q-length int64 array) is made
        B = min(EXP_BLOCK, N)
        log = np.full(q, -1, dtype=np.int32)
        for lo in range(0, N, B):
            hi = min(lo + B, N)
            np.put(log, E[lo:hi], np.arange(lo, hi, dtype=np.int32))
        if np.count_nonzero(log >= 0) != N or log[0] != -1:
            raise InternalError("generator order check failed while building tables")
        # Z[i] = log(1 + g^i), -1 where g^i = -1 (i = 0 for p = 2, else
        # i = N/2), gathered for i < H only
        zech = np.empty(N, dtype=np.int32)
        H = N // 2 + 1
        if p == 2:
            # _plus_one as e ^ 1 into one reused index row, gathered
            # straight into zech: no block-sized temporary
            one = np.empty(B, dtype=np.intp)
            for lo in range(0, H, B):
                e = E[lo:min(lo + B, H)]
                np.bitwise_xor(e, 1, out=one[:len(e)])
                np.take(log, one[:len(e)], out=zech[lo:lo + len(e)],
                        mode="wrap")
        else:
            for lo in range(0, H, B):
                hi = min(lo + B, H)
                zech[lo:hi] = log[_plus_one(E[lo:hi], p)]
        # the rest from 1 + g^(-i) = g^(-i) (1 + g^i) (Huber 1990):
        # Z[N - i] = Z[i] - i mod N for 1 <= i <= N - H, one sequential
        # pass written through zech[::-1].  There Z[i] >= 0, so Z[i] - i
        # lies in (-N, N), and its sign bit (>> 31) masks the + N
        rev = zech[::-1]
        ramp = np.arange(B, dtype=np.int32)
        t, u = np.empty((2, B), dtype=np.int32)
        for lo in range(1, N - H + 1, B):
            m = min(B, N - H + 1 - lo)
            np.subtract(zech[lo:lo + m], ramp[:m], out=t[:m])
            t[:m] -= lo                                 # Z[i] - i
            np.right_shift(t[:m], 31, out=u[:m])
            u[:m] &= N
            t[:m] += u[:m]
            rev[lo - 1:lo - 1 + m] = t[:m]
        # wrap-mode gathers and the scalar negative indices read exp and
        # Zech mod q - 1 only at these lengths
        if len(E) != N or len(zech) != N or len(log) != q:
            raise InternalError(f"table lengths exp {len(E)}, Zech {len(zech)}, "
                                f"log {len(log)}: need {N}, {N} and {q}")
        self.generator = g
        self.exp_table = E
        self.log_table = log
        self.zech_table = zech
        self._exp, self._log, self._zech = (memoryview(t).toreadonly()
                                            for t in (E, log, zech))

    # -- encodings ---------------------------------------------------------

    def element(self, coeffs) -> int:
        """Encoding of a coefficient vector (c_0, ..., c_{n-1})."""
        cs = list(coeffs)
        if len(cs) != self.n:
            raise ValueError(f"coefficient vector must have length {self.n}")
        return sum((c % self.p) * self._pn[i] for i, c in enumerate(cs))

    def coeffs(self, x: int) -> tuple:
        """Coefficient vector of an encoding."""
        out = []
        for _ in range(self.n):
            x, d = divmod(x, self.p)
            out.append(d)
        return tuple(out)

    def scalar(self, m: int) -> int:
        """Image of the integer m in the prime subfield."""
        return m % self.p

    def spec_string(self) -> str:
        return f"p={self.p},n={self.n},mod=" + ",".join(str(c) for c in self.modulus)

    def __repr__(self):
        return f"FieldCtx(p={self.p}, n={self.n}, backend={self.backend!r})"

    # -- arithmetic ---------------------------------------------------------

    def add(self, x, y):
        p = self.p
        if self.backend == "table":
            # x + y = x (1 + y/x) = g^(log x + Z[log y - log x])
            if x == 0 or y == 0:
                return x + y
            N, log = self.q - 1, self._log
            lx = log[x]
            z = self._zech[log[y] - lx]             # index in (-N, N)
            return 0 if z < 0 else self._exp[lx + z - N]    # in [-N, N)
        out, mult = 0, 1
        while x or y:
            x, dx = divmod(x, p)
            y, dy = divmod(y, p)
            out += ((dx + dy) % p) * mult
            mult *= p
        return out

    def neg(self, x):
        return self.mul(x, self.p - 1)          # p - 1 encodes -1

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        if self.backend == "table":
            if x == 0 or y == 0:
                return 0
            N, log = self.q - 1, self._log
            return self._exp[log[x] + log[y] - N]           # in [-N, N)
        return self._mul_generic(x, y)

    def inv(self, x):
        """x^(q-2), the inverse of a nonzero x."""
        if x == 0:
            raise ZeroDivisionError("divide-by-zero: inverse of 0")
        return self.pow(x, self.q - 2)

    def pow(self, x, e):
        """x**e with e reduced mod p^n - 1 for x != 0; 0**0 == 1."""
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        if x == 0:
            return 1 if e == 0 else 0
        N = self.q - 1
        e %= N
        if self.backend == "table":
            return self._exp[self._log[x] * e % N]
        return self._pow_generic(x, e)

    def in_subfield(self, x, k) -> bool:
        return self.pow(x, self.p ** k) == x

    # -- multiplicative subgroups and subfields ------------------------------

    @functools.cache
    def subgroup_generator(self, s):
        """A deterministic element of exact multiplicative order s (s | q-1)."""
        N = self.q - 1
        if N % s:
            raise ValueError(f"s-not-divisor: {s} does not divide q-1")
        if s == 1:
            return 1
        if self.backend == "table":
            return self._exp[N // s]
        if s > 1 << 26:
            raise CapExceeded(f"subgroup order {s} too large to certify")
        return self._element_of_order(s)

    def _element_of_order(self, s):
        """The first c^((q-1)/s) of order s over c in encoding order: the
        table generator (s = q-1) and generic subgroup_generator."""
        if s == 1:
            return 1
        N, primes = self.q - 1, list(factorize(s))
        # a constant's (N/s)-th power has order s / gcd(s, N / (p-1)): unless
        # that is s (n = 1, never s = N with n > 1), start at x (encoding p)
        start = 2 if math.gcd(s, N // (self.p - 1)) == 1 else self.p
        for c in range(start, min(self.q, start + (1 << 20))):
            z = self._pow_generic(c, N // s)
            if z != 1 and all(self._pow_generic(z, s // ell) != 1
                              for ell in primes):
                return z
        raise InternalError(f"no element of order {s} (modulus reducible?)")

    def _powers(self, ratio, count):
        """Encodings of ratio^i for i < count, ratio nonzero, by doubling:
        once rows [0, f) are listed, rows [f, 2f) are those rows times
        s = ratio^f, computed on at most EXP_BLOCK rows at a time.
        Multiplying by s is F_p-linear on digits: its matrix M_s (row j
        the digits of s x^j, `digit_map`) is built once, for ratio, and
        squared mod p after each step, since y s^2 = (y M_s) M_s; the
        backend picks the form of the step from M_s.  Table fields step
        on the encodings themselves (`_encoding_steps`), kept as int32
        rows: each step computes one block and stores it back, on F_2^n
        as one XOR of two half-table gathers in int32, for odd p through
        spread digits in int64.
        Generic fields step on a digit matrix D: rows [f, 2f) of D are
        D[:f] @ M_s mod p.  Their encodings can be too wide for the table
        step (F_7^18 needs 72 bits), so the matrix is their only path;
        narrowest dtypes and a Horner pass over D's columns (no block
        casts) keep D the one large array, freed on return; their
        encodings are int64, object past 2**63."""
        p, n = self.p, self.n
        if self.backend == "table":
            rows = np.zeros(count, dtype=np.int32)
            rows[0] = 1
            steps = self._encoding_steps()
        else:
            rows = np.zeros((count, n), dtype=_holding(p - 1))
            rows[0, 0] = 1
            steps = self._matrix_step
        # M multiplies digit rows by ratio^filled
        M, filled = self.digit_map(ratio, _holding(n * (p - 1) ** 2)), 1
        while filled < count:
            times = steps(M)
            cnt = min(filled, count - filled)
            for lo in range(0, cnt, EXP_BLOCK):
                hi = min(lo + EXP_BLOCK, cnt)
                rows[filled + lo:filled + hi] = times(rows[lo:hi])
            filled += cnt
            M = M @ M % p
        if self.backend == "table":
            return rows
        E = np.zeros(count, dtype=np.int64 if self.q <= 1 << 63 else object)
        for j in reversed(range(n)):
            E *= p
            E += rows[:, j]
        return E

    def digit_map(self, s, dtype):
        """The matrix of multiplication by s on digit vectors, as a numpy
        array of the given dtype: row j holds the digits of s x^j."""
        return np.array([self.coeffs(self._mul_generic(s, self._pn[j]))
                         for j in range(self.n)], dtype=dtype)

    def _matrix_step(self, M):
        """Multiplication by the digit map M on rows of digits."""
        p = self.p

        def times(D):
            P = D @ M
            P %= p
            return P
        return times

    def _encoding_steps(self):
        """M_s -> multiplication by s on blocks of at most EXP_BLOCK
        int32 encodings of this table field, by lookup tables (the method
        of Four Russians, Arlazarov et al. 1970).  n = 1 multiplies mod p.
        Otherwise E = lo + p^c hi with c = ceil(n/2), and s E is the sum of
        two table entries, the images of lo and of p^c hi; the tables hold
        p^c and p^(n-c) entries, at most 24649 (F_157^3) on a table field
        with n >= 2.
        For p = 2 an encoding is the bit vector of its coefficients, so the
        sum is an XOR: s E = t_lo[E & (2^c - 1)] ^ t_hi[E >> c], each table
        built from the images s x^j of its bits (the rows of M_s read as
        encodings) by XOR doubling, and the step runs in int32.
        For odd p images are stored spread: digit j in bits [bj, bj + b),
        b the bit length of 2(p - 1), so the two entries add with no carry
        between digits (n b <= 44 bits on table fields), in int64.  Chunk
        tables of at most 2^12 entries take the sum back to base p, mod p.
        Every block reuses the same scratch rows (three int64 for odd p;
        one index row and two int32 for p = 2), so a step allocates nothing
        block-sized (each fresh block would be page-faulted anew); its
        result lives in them until the next call."""
        p, n = self.p, self.n
        if n == 1:
            # the general form's tables would hold p entries each, several
            # times the whole build's peak memory on F_65521
            return lambda M: lambda E: E.astype(np.int64) * int(M[0, 0]) % p
        c = (n + 1) // 2
        if p == 2:
            # an intp index row: np.take would copy an int32 one to intp
            idx = np.empty(min(EXP_BLOCK, self.q), dtype=np.intp)
            out, u = np.empty((2, len(idx)), dtype=np.int32)

            def half(images):
                # entry i is the XOR of the images of the bits of i
                tab = np.zeros(1, dtype=np.int32)
                for im in images:
                    tab = np.concatenate([tab, tab ^ im])
                return tab

            def xor_steps(M):
                # the rows of M as encodings: Python ints keep tab int32
                images = (M @ (1 << np.arange(n))).tolist()
                t_lo, t_hi = half(images[:c]), half(images[c:])

                def times(E):
                    o, v, i = out[:len(E)], u[:len(E)], idx[:len(E)]
                    np.bitwise_and(E, (1 << c) - 1, out=i)
                    np.take(t_lo, i, out=o, mode="wrap")
                    np.right_shift(E, c, out=i)
                    np.take(t_hi, i, out=v, mode="wrap")
                    o ^= v
                    return o
                return times
            return xor_steps
        pc = p ** c
        b = (2 * (p - 1)).bit_length()
        lows = np.arange(pc, dtype=np.int64)
        digits = np.stack([lows // p ** j % p for j in range(c)], axis=1)
        spread = np.int64(1) << b * np.arange(n, dtype=np.int64)
        width = max(1, 12 // b)                 # digits per chunk table
        chunks = []
        for j0 in range(0, n, width):
            w = min(width, n - j0)
            v = np.arange(1 << b * w, dtype=np.int64)
            back = sum((v >> b * j & (1 << b) - 1) % p * p ** (j0 + j)
                       for j in range(w))
            chunks.append((b * j0, (1 << b * w) - 1, back))

        # the sum S, the scratch t and out, reused by every block
        scratch = np.empty((3, min(EXP_BLOCK, self.q)), dtype=np.int64)

        def steps(M):
            t_lo = digits @ M[:c] % p @ spread
            t_hi = digits[:p ** (n - c), :n - c] @ M[c:] % p @ spread

            def times(E):
                # // and - are cheaper than np.divmod's %
                S, t, out = scratch[:, :len(E)]
                np.floor_divide(E, pc, out=t)                   # hi
                np.multiply(t, pc, out=S)
                np.subtract(E, S, out=S)                        # lo
                np.take(t_lo, S, out=S, mode="wrap")
                S += np.take(t_hi, t, out=t, mode="wrap")
                out.fill(0)
                for shift, mask, back in chunks:
                    np.right_shift(S, shift, out=t)
                    t &= mask
                    out += np.take(back, t, out=t, mode="wrap")
                return out
            return times
        return steps

    def progression(self, ratio, count):
        """The encodings of ratio^i for i < count, ratio nonzero, as one
        int64 array (object past 2**63): a log gather on table fields,
        else `_powers`."""
        if self.backend == "table":
            logs = np.arange(count, dtype=np.int64) * int(self.log_table[ratio])
            return self.exp_table[logs % (self.q - 1)].astype(np.int64)
        return self._powers(ratio, count)

    def mu_subgroup(self, s):
        """The s-th roots of unity, listed as powers of a fixed generator."""
        return tuple(self.progression(self.subgroup_generator(s), s).tolist())

    @functools.cache
    def subfield_elements(self, k):
        """The p^k elements fixed by Frobenius^k, ascending by encoding."""
        if self.n % k:
            raise ValueError(f"k-not-divisor: {k} does not divide {self.n}")
        return tuple(sorted((0,) + self.mu_subgroup(self.p ** k - 1)))

    @functools.cache
    def subfield_view(self, k) -> SubfieldView:
        return SubfieldView(self, k)

    def neg_one_roots(self, k):
        """All a with a^(p^k - 1) == -1, ascending (empty when unsolvable).

        For p = 2 this is the literal solution set, i.e. of a^(p^k-1) = 1."""
        if self.n % k:
            raise ValueError(f"k-not-divisor: {k} does not divide {self.n}")
        m = self.p ** k - 1
        if self.p == 2:
            return tuple(sorted(self.mu_subgroup(m)))
        if (self.q - 1) % (2 * m):
            return ()
        # zeta^j with zeta of order 2m: (zeta^j)^m = -1 iff j is odd
        return tuple(sorted(self.mu_subgroup(2 * m)[1::2]))

    # -- residues and polynomials -------------------------------------------

    def residue_test(self, x, k, power):
        """True iff x is a square / fourth power inside F_{p^k}."""
        m = {"square": 2, "fourth": 4}.get(power, power)
        if m not in (2, 4):
            raise ValueError(f"unknown residue power {power!r}")
        if self.n % k:
            raise ValueError(f"k-not-divisor: {k} does not divide {self.n}")
        if x == 0:
            raise ValueError("zero-input: residue test is for nonzero elements")
        if not self.in_subfield(x, k):
            raise ValueError(f"not-in-subfield: {x} not fixed by Frobenius^{k}")
        sub_order = self.p ** k - 1
        g = math.gcd(m, sub_order)
        return self.pow(x, sub_order // g) == 1

    def poly_eval(self, coeffs, x):
        """Horner evaluation of a coefficient sequence (ascending degrees)."""
        acc = 0
        for c in reversed(list(coeffs)):
            acc = self.add(self.mul(acc, x), c)
        return acc


# ----------------------------------------------------------------------

_FIELD_CACHE = {}


def build_field(p: int, n: int, modulus=None, backend="auto") -> FieldCtx:
    """Construct (and memoize on the resolved modulus and backend) F_{p^n}.

    modulus: optional ascending coefficient sequence (c_0, ..., c_{n-1}, 1);
    when omitted the lexicographically least monic irreducible is used.
    backend: "auto" picks table for p^n <= 2**22, generic above; "table" /
    "generic" force one (table still requires the size cap).
    """
    if not is_prime(p):
        raise ValueError(f"not-prime: {p}")
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    q = p ** n
    if q - 1 >= FIELD_CAP:
        raise CapExceeded("field-too-large: p^n - 1 must stay below 2**127")
    raw_key = (p, n, tuple(modulus) if modulus is not None else None, backend)
    got = _FIELD_CACHE.get(raw_key)
    if got is not None:
        return got
    if modulus is not None:
        mod = tuple(int(c) % p for c in modulus)
        if len(mod) != n + 1 or mod[-1] != 1:
            raise ValueError("modulus-degree-mismatch: need monic degree "
                             f"{n} as (c_0, ..., c_{n-1}, 1)")
        if not zp_is_irreducible(p, list(mod)):
            raise ValueError("modulus-reducible")
    else:
        mod = lex_least_irreducible(p, n)
    if backend == "auto":
        backend = "table" if q <= TABLE_CAP else "generic"
    elif backend == "table" and q > TABLE_CAP:
        raise CapExceeded("field-too-large: table backend capped at "
                          f"2**{TABLE_CAP.bit_length() - 1} elements")
    elif backend not in ("table", "generic"):
        raise ValueError(f"unknown backend {backend!r}")
    # one context per resolved (modulus, backend), whatever the spelling
    key = (p, n, mod, backend)
    ctx = _FIELD_CACHE.get(key)
    if ctx is None:
        ctx = _FIELD_CACHE[key] = FieldCtx(p, n, mod, backend)
    _FIELD_CACHE[raw_key] = ctx
    return ctx
