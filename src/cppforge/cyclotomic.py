"""Exact integers in Z[w], w a primitive p-th root of unity.

A value sum(c_j * w^j) is stored as a length-p integer vector reduced to
the canonical form with c_{p-1} == 0, using 1 + w + ... + w^(p-1) == 0.
All arithmetic is integer-exact; nothing here ever touches floats.
"""

from __future__ import annotations


class CycInt:
    """Element of Z[w] as a canonical length-p count vector."""

    __slots__ = ("p", "counts")

    def __init__(self, p, counts=None):
        self.p = p
        if counts is None:
            counts = (0,) * p
        else:
            counts = tuple(int(c) for c in counts)
            if len(counts) != p:
                raise ValueError(f"need {p} coefficients, got {len(counts)}")
            t = counts[p - 1]
            if t:
                counts = tuple(c - t for c in counts)
        self.counts = counts

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.counts)

    def as_int(self):
        """The rational-integer value, or None if not rational."""
        if any(self.counts[1:]):
            return None
        return self.counts[0]

    def conj(self) -> "CycInt":
        """Complex conjugation w -> w^(p-1)."""
        p = self.p
        return CycInt(p, tuple(self.counts[(-j) % p] for j in range(p)))

    def __add__(self, other):
        self._check(other)
        return CycInt(self.p, tuple(a + b for a, b in zip(self.counts, other.counts)))

    def __sub__(self, other):
        self._check(other)
        return CycInt(self.p, tuple(a - b for a, b in zip(self.counts, other.counts)))

    def __neg__(self):
        return CycInt(self.p, tuple(-a for a in self.counts))

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.p, tuple(a * other for a in self.counts))
        self._check(other)
        p = self.p
        out = [0] * p
        for i, a in enumerate(self.counts):
            if a:
                for j, b in enumerate(other.counts):
                    if b:
                        out[(i + j) % p] += a * b
        return CycInt(p, out)

    __rmul__ = __mul__

    def norm2(self) -> int:
        """Squared modulus, an exact rational integer."""
        v = (self * self.conj()).as_int()
        if v is None:
            raise ArithmeticError("norm is not a rational integer")
        return v

    def _check(self, other):
        if not isinstance(other, CycInt) or other.p != self.p:
            raise TypeError("mixed cyclotomic orders")

    def __eq__(self, other):
        if isinstance(other, int):
            return self.as_int() == other
        return isinstance(other, CycInt) and self.p == other.p \
            and self.counts == other.counts

    def __hash__(self):
        return hash((self.p, self.counts))

    def __repr__(self):
        return f"CycInt(p={self.p}, {self.counts})"
