"""Finite fields F_{p^n} with exact arithmetic on base-p integer encodings.

An element of F_{p^n} = Z_p[x]/(modulus) is the integer sum(c_i * p**i)
of its coefficient vector (c_0, ..., c_{n-1}).  Zero is 0, one is 1, and
the residue class of x has encoding p.

Two backends share one API.  Fields with at most 2**22 elements get
discrete log/exp tables over a primitive element ("table"); larger
fields use generic polynomial arithmetic ("generic"): multiplication by
packed-integer convolution, inversion by extended Euclid.  Exponents may
be arbitrarily wide Python ints; they are reduced mod p^n - 1 before
exponentiation of a nonzero base.  Construction refuses p^n - 1 >= 2**127.

FieldCtx instances are immutable after construction apart from internal
memo dictionaries, so they are safe to share across workers.
"""

from __future__ import annotations

import math

import numpy as np

FIELD_CAP = 1 << 127        # require p^n - 1 < 2**127
TABLE_CAP = 1 << 22         # log/exp tables up to this field size
VIEW_CAP = 1 << 13          # SubfieldView order: both int32 tables <= 512 MiB
PERMUTES_BLOCK = 1 << 24    # values per block in SubfieldView.permutes


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


def _zp_mulmod(a, b, f, p):
    # a*b mod f, f monic
    n = len(f) - 1
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(len(prod) - 1, n - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(n):
                prod[i - n + j] = (prod[i - n + j] - c * f[j]) % p
    return _zp_trim(prod[:n] if len(prod) > n else prod)


def _zp_powmod(a, e, f, p):
    result = [1]
    base = a[:]
    while e:
        if e & 1:
            result = _zp_mulmod(result, base, f, p)
        e >>= 1
        if e:
            base = _zp_mulmod(base, base, f, p)
    return result


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
    """Irreducibility over Z_p by gcd with x^(p^i) - x for i <= deg/2."""
    f = [c % p for c in coeffs]
    deg = len(f) - 1
    if deg < 1 or f[-1] != 1:
        raise ValueError("not-monic: irreducibility test needs a monic polynomial")
    if deg == 1:
        return True
    if f[0] == 0:
        return False
    t = [0, 1]
    for _ in range(deg // 2):
        t = _zp_powmod(t, p, f, p)
        diff = t[:] + [0] * (2 - len(t))
        diff[1] = (diff[1] - 1) % p
        g = _zp_gcd(f, _zp_trim(diff), p)
        if len(g) > 1:
            return False
    return True


def lex_least_irreducible(p: int, n: int) -> tuple:
    """First monic irreducible of degree n over Z_p in lexicographic
    order of the coefficient vector (c_0, ..., c_{n-1})."""
    if n == 1:
        return (0, 1)
    # a zero constant term means a root at 0, so lex search starts at
    # (1, 0, ..., 0); c_0 stays nonzero from there on
    coeffs = [1] + [0] * (n - 1)
    while True:
        if coeffs[0] != 0 and zp_is_irreducible(p, coeffs + [1]):
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
            raise RuntimeError(f"no irreducible of degree {n} over Z_{p}")


# ----------------------------------------------------------------------

class SubfieldView:
    """Index-domain tables for the subfield F_{p^k} inside an ambient field.

    Subfield elements stay ambient encodings in `elems` (ascending, so
    index 0 is the zero element); arithmetic on indices runs through small
    numpy tables, which keeps h_a evaluations cheap even when the ambient
    field is far too large to enumerate.  The tables come from the Zech
    logarithms Z[e] = log(1 + zeta^e) of a generator zeta of F_{p^k}^*
    (Huber, IEEE Trans. IT 36(4), 1990): p^k - 1 scalar additions, then
    x + y = x (1 + y/x) fills the addition table in numpy.
    """

    def __init__(self, ctx, k):
        order = ctx.p ** k
        if order > VIEW_CAP:
            raise ValueError(f"cap-exceeded: a subfield view of F_{ctx.p}^{k} "
                             f"needs two {order}x{order} tables; views are "
                             f"capped at {VIEW_CAP} elements")
        self.ctx = ctx
        self.k = k
        self.order = order
        self.elems = ctx.subfield_elements(k)
        self.index = {e: i for i, e in enumerate(self.elems)}
        m = order - 1
        powers = ctx.mu_subgroup(m)             # zeta^e for e < m
        sexp = np.array([self.index[z] for z in powers], dtype=np.int64)
        slog = np.full(order, -1, dtype=np.int64)
        slog[sexp] = np.arange(m)
        # Z[e] = -1 where 1 + zeta^e = 0, since slog[0] = -1
        zech = slog[[self.index[ctx.add(1, z)] for z in powers]]
        lg = slog[1:]
        mul = np.zeros((order, order), dtype=np.int32)
        add = np.empty((order, order), dtype=np.int32)
        add[0] = add[:, 0] = np.arange(order)
        for i in range(1, order):
            li = slog[i]
            mul[i, 1:] = sexp[(lg + li) % m]
            z = zech[(lg - li) % m]
            add[i, 1:] = np.where(z < 0, 0, sexp[(z + li) % m])
        self.mul_table, self.add_table = mul, add
        lneg = slog[self.index[ctx.neg(1)]]      # log(-1)
        neg = np.zeros(order, dtype=np.int32)
        neg[1:] = sexp[(lg + lneg) % m]
        self.neg_table = neg

    def idx(self, enc):
        try:
            return self.index[enc]
        except KeyError:
            raise ValueError(f"not-in-subfield: encoding {enc} is not fixed by "
                             f"Frobenius^{self.k}") from None

    def eval_poly_rows(self, coeff_rows):
        """Values of x^D + rows[:,0] x^(D-1) + ... + rows[:,D-1] on every
        subfield point at once; coefficients and results are indices.
        Returns a (U, order) array."""
        X = np.arange(self.order, dtype=np.int32)[None, :]
        rows = np.asarray(coeff_rows, dtype=np.int32)
        acc = self.add_table[X, rows[:, 0][:, None]]
        for j in range(1, rows.shape[1]):
            acc = self.add_table[self.mul_table[acc, X], rows[:, j][:, None]]
        return acc

    def rows_are_permutations(self, values):
        """Row-wise bijectivity of a (U, order) index-value array."""
        return (np.sort(values, axis=1) ==
                np.arange(self.order, dtype=values.dtype)).all(axis=1)

    def permutes(self, coeff_rows):
        """Row-wise: whether x * m(x) permutes F_{p^k}, where row i holds
        the index-domain coefficients of the monic
        m(x) = x^D + row[0] x^(D-1) + ... + row[D-1].  Rows are evaluated
        in blocks of at most PERMUTES_BLOCK values."""
        rows = np.asarray(coeff_rows, dtype=np.int32)
        X = np.arange(self.order, dtype=np.int32)
        step = max(1, PERMUTES_BLOCK // self.order)
        out = np.empty(len(rows), dtype=bool)
        for lo in range(0, len(rows), step):
            vals = self.mul_table[self.eval_poly_rows(rows[lo:lo + step]), X]
            out[lo:lo + step] = self.rows_are_permutations(vals)
        return out


class FieldCtx:
    """Arithmetic context for F_{p^n}; see the module docstring for the
    element encoding.  Use build_field() rather than this constructor."""

    def __init__(self, p, n, modulus, backend):
        self.p = p
        self.n = n
        self.q = p ** n
        self.modulus = tuple(int(c) % p for c in modulus)
        self.backend = backend
        self._pn = [p ** i for i in range(n + 1)]
        self._setup_packed()
        self._setup_add()
        self.generator = None
        self.exp_table = None
        self.log_table = None
        if backend == "table":
            self._build_tables()
        # memo caches (append-only; safe to share under the GIL)
        self._subfields = {}
        self._views = {}
        self._subgens = {}
        self._monomial_cache = {}

    # -- construction internals ------------------------------------------

    def _setup_packed(self):
        n, p = self.n, self.p
        # limb wide enough for convolution coefficients plus reduction carries
        self._limb = max((n * n * p ** 3).bit_length() + 2, 8)
        self._limb_mask = (1 << self._limb) - 1
        self._low_mask = (1 << (self._limb * n)) - 1
        neg_tail = [(-c) % p for c in self.modulus[:n]]
        rows = [self._pack_digits(neg_tail)]      # x^n mod modulus
        for _ in range(n - 2):
            nxt = rows[-1] << self._limb
            top = (nxt >> (self._limb * n)) & self._limb_mask
            nxt &= self._low_mask
            if top:
                nxt += top * rows[0]
            rows.append(self._pnormalize(nxt))
        self._redrows = rows

    def _setup_add(self):
        p, n = self.p, self.n
        self._chunk = None
        if n == 1 or p > 2048:
            return
        c = 1
        while p ** (c + 1) <= 1024 and c + 1 <= n:
            c += 1
        C = p ** c
        vals = np.arange(C)
        digs = np.empty((C, c), dtype=np.int64)
        v = vals.copy()
        for i in range(c):
            digs[:, i] = v % p
            v //= p
        pw = p ** np.arange(c)
        self._addt = ((((digs[:, None, :] + digs[None, :, :]) % p) * pw)
                      .sum(axis=2).astype(np.int64))
        self._negt = ((((-digs) % p) * pw).sum(axis=1)).astype(np.int64)
        self._chunk = C

    def _pack_digits(self, digits):
        acc = 0
        for d in reversed(digits):
            acc = (acc << self._limb) | d
        return acc

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
        if self.n == 1:
            return x * y % self.p
        return self._enc_from_packed(
            self._mul_packed(self._pack_enc(x), self._pack_enc(y)))

    def _pow_generic(self, x, e):
        if e == 0:
            return 1
        if x == 0:
            return 0
        if self.n == 1:
            return pow(x, e, self.p)
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
        p, n, q = self.p, self.n, self.q
        N = q - 1
        if N == 1:
            self.generator = 1
            self.exp_table = np.array([1], dtype=np.int64)
            self.log_table = np.array([-1, 0], dtype=np.int64)
            return
        fac = factorize(N)
        g = None
        for cand in range(2, q):
            if all(self._pow_generic(cand, N // ell) != 1 for ell in fac):
                g = cand
                break
        if g is None:
            raise RuntimeError("no primitive element found (modulus not irreducible?)")
        # powers of g, filled in doubling blocks of a digit matrix
        D = np.zeros((N, n), dtype=np.int64)
        D[0, 0] = 1
        D[1] = self.coeffs(g)
        filled = 2
        pw = np.array(self._pn[:n], dtype=np.int64)
        while filled < N:
            s = self._mul_generic(int(D[filled - 1] @ pw), g)      # g^filled
            Mt = np.array([self.coeffs(self._mul_generic(s, self._pn[j]))
                           for j in range(n)], dtype=np.int64)     # row j = s*x^j
            cnt = min(filled, N - filled)
            D[filled:filled + cnt] = (D[:cnt] @ Mt) % p
            filled += cnt
        E = (D @ pw).astype(np.int64)
        log = np.full(q, -1, dtype=np.int64)
        log[E] = np.arange(N, dtype=np.int64)
        if int((log >= 0).sum()) != N or log[0] != -1:
            raise RuntimeError("generator order check failed while building tables")
        self.generator = g
        self.exp_table = E
        self.log_table = log

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

    def elements(self):
        """All encodings, ascending (table backend only)."""
        if self.backend != "table":
            raise ValueError("field-too-large: cannot enumerate a generic-backend field")
        return range(self.q)

    def spec_string(self) -> str:
        return f"p={self.p},n={self.n},mod=" + ",".join(str(c) for c in self.modulus)

    def __repr__(self):
        return f"FieldCtx(p={self.p}, n={self.n}, backend={self.backend!r})"

    # -- arithmetic ---------------------------------------------------------

    def add(self, x, y):
        p = self.p
        if self.n == 1:
            return (x + y) % p
        C = self._chunk
        if C is None:
            out, mult = 0, 1
            while x or y:
                x, dx = divmod(x, p)
                y, dy = divmod(y, p)
                out += ((dx + dy) % p) * mult
                mult *= p
            return out
        t = self._addt
        out, mult = 0, 1
        while x or y:
            out += int(t[x % C, y % C]) * mult
            x //= C
            y //= C
            mult *= C
        return out

    def neg(self, x):
        p = self.p
        if self.n == 1:
            return (-x) % p
        C = self._chunk
        if C is None:
            out, mult = 0, 1
            while x:
                x, d = divmod(x, p)
                out += ((-d) % p) * mult
                mult *= p
            return out
        t = self._negt
        out, mult = 0, 1
        while x:
            out += int(t[x % C]) * mult
            x //= C
            mult *= C
        return out

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        if self.backend == "table":
            if x == 0 or y == 0:
                return 0
            N = self.q - 1
            return int(self.exp_table[
                (int(self.log_table[x]) + int(self.log_table[y])) % N])
        return self._mul_generic(x, y)

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("divide-by-zero: inverse of 0")
        if self.backend == "table":
            N = self.q - 1
            return int(self.exp_table[(N - int(self.log_table[x])) % N])
        if self.n == 1:
            return pow(x, self.p - 2, self.p)
        # extended Euclid on coefficient lists
        p = self.p
        r0, r1 = list(self.modulus), _zp_trim(list(self.coeffs(x)))
        s0, s1 = [], [1]
        while r1:
            inv_lead = pow(r1[-1], p - 2, p)
            quo = [0] * (max(len(r0) - len(r1), 0) + 1)
            r = r0[:]
            while len(r) >= len(r1) and r:
                c = r[-1] * inv_lead % p
                shift = len(r) - len(r1)
                quo[shift] = c
                for j in range(len(r1)):
                    r[shift + j] = (r[shift + j] - c * r1[j]) % p
                _zp_trim(r)
            qs = [0] * (len(quo) + len(s1) - 1) if s1 else []
            for i, qi in enumerate(quo):
                if qi:
                    for j, sj in enumerate(s1):
                        qs[i + j] = (qs[i + j] + qi * sj) % p
            s = [((s0[i] if i < len(s0) else 0) - (qs[i] if i < len(qs) else 0)) % p
                 for i in range(max(len(s0), len(qs)))]
            r0, r1 = r1, r
            s0, s1 = s1, _zp_trim(s)
        c = pow(r0[0], p - 2, p)       # r0 is a nonzero constant
        out = [v * c % p for v in s0]
        out += [0] * (self.n - len(out))
        return self.element(out[:self.n])

    def pow(self, x, e):
        """x**e with e reduced mod p^n - 1 for x != 0; 0**0 == 1."""
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        if x == 0:
            return 1 if e == 0 else 0
        N = self.q - 1
        e %= N
        if self.backend == "table":
            if N == 1:
                return 1
            return int(self.exp_table[(int(self.log_table[x]) * e) % N])
        return self._pow_generic(x, e)

    def frobenius(self, x, j):
        """x^(p^j) for 0 <= j < n."""
        if not 0 <= j < self.n:
            raise ValueError(f"frobenius power {j} outside [0, {self.n})")
        return self.pow(x, self._pn[j])

    def trace(self, x, k=1):
        """Tr from F_{p^n} onto F_{p^k}: sum of x^(p^(i*k)) for i < n/k."""
        if self.n % k:
            raise ValueError(f"k-not-divisor: {k} does not divide {self.n}")
        acc = x
        cur = x
        for _ in range(self.n // k - 1):
            cur = self.pow(cur, self._pn[k])
            acc = self.add(acc, cur)
        return acc

    def in_subfield(self, x, k) -> bool:
        return self.pow(x, self.p ** k) == x

    # -- multiplicative subgroups and subfields ------------------------------

    def subgroup_generator(self, s):
        """A deterministic element of exact multiplicative order s (s | q-1)."""
        N = self.q - 1
        if N % s:
            raise ValueError(f"s-not-divisor: {s} does not divide q-1")
        if s == 1:
            return 1
        got = self._subgens.get(s)
        if got is not None:
            return got
        if self.backend == "table":
            y = int(self.exp_table[N // s])
        else:
            if s > 1 << 26:
                raise ValueError(f"subgroup order {s} too large to certify")
            primes = list(factorize(s))
            cofactor = N // s
            y = None
            for cand in range(2, 1 << 20):
                z = self.pow(cand, cofactor)
                if z != 1 and all(self.pow(z, s // ell) != 1 for ell in primes):
                    y = z
                    break
            if y is None:
                raise RuntimeError(f"no element of order {s} found")
        self._subgens[s] = y
        return y

    def mu_subgroup(self, s):
        """The s-th roots of unity, listed as powers of a fixed generator."""
        g = self.subgroup_generator(s)
        out = [1]
        cur = 1
        for _ in range(s - 1):
            cur = self.mul(cur, g)
            out.append(cur)
        return tuple(out)

    def subfield_elements(self, k):
        """The p^k elements fixed by Frobenius^k, ascending by encoding."""
        if self.n % k:
            raise ValueError(f"k-not-divisor: {k} does not divide {self.n}")
        got = self._subfields.get(k)
        if got is not None:
            return got
        m = self.p ** k - 1
        elems = tuple(sorted((0,) + self.mu_subgroup(m)))
        self._subfields[k] = elems
        return elems

    def subfield_view(self, k) -> SubfieldView:
        got = self._views.get(k)
        if got is None:
            got = self._views[k] = SubfieldView(self, k)
        return got

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
        y = self.subgroup_generator(2 * m)
        y2 = self.mul(y, y)
        out = []
        cur = y
        for _ in range(m):
            out.append(cur)
            cur = self.mul(cur, y2)
        return tuple(sorted(out))

    # -- residues, irreducibility, roots -------------------------------------

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

    def is_irreducible(self, coeffs, k=1):
        """Irreducibility over the subfield F_{p^k} of a monic polynomial
        whose coefficients (ambient encodings) are fixed by Frobenius^k."""
        if self.n % k:
            raise ValueError(f"k-not-divisor: {k} does not divide {self.n}")
        cs = list(coeffs)
        deg = len(cs) - 1
        if deg < 1 or cs[-1] != 1:
            raise ValueError("not-monic: expected a monic coefficient sequence")
        for c in cs:
            if not self.in_subfield(c, k):
                raise ValueError(f"not-in-subfield: coefficient {c}")
        if deg == 1:
            return True
        qk = self.p ** k
        t = [0, 1]
        for _ in range(deg // 2):
            t = self._poly_powmod(t, qk, cs)
            diff = t[:] + [0] * max(0, 2 - len(t))
            diff[1] = self.sub(diff[1], 1)
            while diff and diff[-1] == 0:
                diff.pop()
            if len(self._poly_gcd(cs, diff)) > 1:
                return False
        return True

    def _poly_mulmod(self, a, b, f):
        if not a or not b:
            return []
        prod = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] = self.add(prod[i + j], self.mul(ai, bj))
        n = len(f) - 1
        for i in range(len(prod) - 1, n - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(n):
                    prod[i - n + j] = self.sub(prod[i - n + j], self.mul(c, f[j]))
        out = prod[:n]
        while out and out[-1] == 0:
            out.pop()
        return out

    def _poly_powmod(self, a, e, f):
        result = [1]
        base = a[:]
        while e:
            if e & 1:
                result = self._poly_mulmod(result, base, f)
            e >>= 1
            if e:
                base = self._poly_mulmod(base, base, f)
        return result

    def _poly_gcd(self, a, b):
        a, b = list(a), list(b)
        while b:
            inv_lead = self.inv(b[-1])
            while len(a) >= len(b) and a:
                c = self.mul(a[-1], inv_lead)
                shift = len(a) - len(b)
                for j in range(len(b)):
                    a[shift + j] = self.sub(a[shift + j], self.mul(c, b[j]))
                while a and a[-1] == 0:
                    a.pop()
            a, b = b, a
        return a

    def find_root(self, coeffs, k=1):
        """The root of a subfield polynomial with the least encoding."""
        if self.backend != "table":
            raise ValueError("field-too-large: root search needs an enumerable field")
        for c in coeffs:
            if not 0 <= c < self.q:
                raise ValueError(f"coefficient {c} is not a valid encoding")
        from . import bulk
        vals = bulk.poly_eval_all(self, list(coeffs))
        roots = np.flatnonzero(vals == 0)
        if roots.size == 0:
            raise ValueError("no-root-found")
        return int(roots[0])


# ----------------------------------------------------------------------

_FIELD_CACHE = {}


def build_field(p: int, n: int, modulus=None, backend="auto") -> FieldCtx:
    """Construct (and memoize) F_{p^n}.

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
        raise ValueError("field-too-large: p^n - 1 must stay below 2**127")
    key = (p, n, tuple(modulus) if modulus is not None else None, backend)
    got = _FIELD_CACHE.get(key)
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
        raise ValueError("field-too-large: table backend capped at 2**22 elements")
    elif backend not in ("table", "generic"):
        raise ValueError(f"unknown backend {backend!r}")
    ctx = FieldCtx(p, n, mod, backend)
    _FIELD_CACHE[key] = ctx
    return ctx


def parse_field_spec(spec: str):
    """Parse "p=<int>,n=<int>[,mod=c0,c1,...,cn]" into build_field arguments."""
    parts = spec.split(",")
    p = n = None
    mod = None
    i = 0
    while i < len(parts):
        tok = parts[i]
        if tok.startswith("p="):
            p = int(tok[2:])
        elif tok.startswith("n="):
            n = int(tok[2:])
        elif tok.startswith("mod="):
            mod = [int(tok[4:])]
            i += 1
            while i < len(parts):
                mod.append(int(parts[i]))
                i += 1
            break
        else:
            raise ValueError(f"bad field spec token {tok!r}")
        i += 1
    if p is None or n is None:
        raise ValueError("field spec needs p= and n=")
    return p, n, mod
