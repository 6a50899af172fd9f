"""Elementary number-theoretic helpers shared across the package.

Everything here is exact: sieves, divisor functions, Jacobi/Kronecker
symbols, fundamental discriminants, and a small real quadratic extension
type used for Hecke eigenvalues whose characteristic polynomial does not
split over Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


def primes_up_to(n: int) -> list[int]:
    """All primes <= n via a byte sieve."""
    if n < 2:
        return []
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            start = p * p
            sieve[start :: p] = b"\x00" * ((n - start) // p + 1)
    return [i for i, v in enumerate(sieve) if v]


@lru_cache(maxsize=4096)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, e), ...), by trial division."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                out.append((p, e))
        f += 6
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n >= 1."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**j for d in divs for j in range(e + 1)]
    return sorted(divs)


def moebius(n: int) -> int:
    if n == 1:
        return 1
    mu = 1
    for _, e in factorize(n):
        if e > 1:
            return 0
        mu = -mu
    return mu


def sigma1(n: int) -> int:
    """Sum of positive divisors of n."""
    s = 1
    for p, e in factorize(n):
        s *= (p ** (e + 1) - 1) // (p - 1)
    return s


def sigma1_table(n_max: int) -> list[int]:
    """sigma1(n) for 0 <= n <= n_max (index 0 unused, set to 0), by sieve."""
    table = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        for m in range(d, n_max + 1, d):
            table[m] += d
    return table


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def squarefree_part(n: int) -> int:
    """The squarefree d with |n| = d * square; sign of n preserved."""
    if n == 0:
        raise ValueError("0 has no squarefree part")
    sign = 1 if n > 0 else -1
    d = 1
    for p, e in factorize(abs(n)):
        if e % 2:
            d *= p
    return sign * d


def jacobi_symbol(a: int, n: int, extended: bool = False) -> int:
    """Jacobi symbol (a|n) for odd positive n; Kronecker symbol if extended.

    The extended (Kronecker) convention defines (a|2) = 0, 1, -1 for a even,
    a = +-1 mod 8, a = +-3 mod 8, handles n <= 0 via (a|-1) = sign conventions,
    and (a|0) = 1 iff a = +-1.
    """
    if not extended:
        if n <= 0 or n % 2 == 0:
            raise ValueError("jacobi_symbol needs odd positive n (use extended=True)")
        return _jacobi_core(a, n)
    return _kronecker(a, n)


def _jacobi_core(a: int, n: int) -> int:
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _kronecker(a: int, n: int) -> int:
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    e = 0
    while n % 2 == 0:
        n //= 2
        e += 1
    if e:
        if a % 2 == 0:
            return 0
        if e % 2 and abs(a) % 8 in (3, 5):
            sign = -sign
    return sign * _jacobi_core(a, n)


def kronecker_symbol(a: int, n: int) -> int:
    return jacobi_symbol(a, n, extended=True)


def is_fundamental_discriminant(D: int) -> bool:
    """True for D = 1 and discriminants of quadratic fields."""
    if D == 1:
        return True
    if D == 0:
        return False
    if D % 4 == 1:
        return D == squarefree_part(D)
    if D % 4 == 0:
        m = D // 4
        return m == squarefree_part(m) and m % 4 in (2, 3)
    return False


def fundamental_discriminants(limit: int, sign: int) -> list[int]:
    """Fundamental discriminants D with sign*D > 0 and |D| <= limit (D=1 included for +)."""
    out = []
    for m in range(1, limit + 1):
        D = sign * m
        if is_fundamental_discriminant(D):
            out.append(D)
    return out


def half_integer(value) -> Fraction:
    """Coerce '13/2', (13, 2), Fraction, or float to an exact half-integer."""
    if isinstance(value, str):
        num, _, den = value.partition("/")
        k = Fraction(int(num), int(den)) if den else Fraction(int(num))
    elif isinstance(value, tuple):
        k = Fraction(value[0], value[1])
    else:
        k = Fraction(value)
    if (2 * k).denominator != 1:
        raise ValueError(f"not a half-integer: {value!r}")
    return k


# ---------------------------------------------------------------------------
# Real quadratic extension Q(sqrt(d)), d > 1 squarefree.  Just enough exact
# arithmetic for eigenvalue systems of 2-dimensional Hecke matrices.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadExt:
    """a + b*sqrt(d) with a, b rational and d > 1 squarefree."""

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))

    def _coerce(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            if other.d != self.d and other.b != 0 and self.b != 0:
                raise ValueError("mixing different quadratic fields")
            d = self.d if self.b != 0 or other.b == 0 else other.d
            return QuadExt(other.a, other.b, d)
        if isinstance(other, (int, Fraction)):
            return QuadExt(Fraction(other), Fraction(0), self.d)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExt(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExt(self.a * o.a + self.b * o.b * self.d, self.a * o.b + self.b * o.a, self.d)

    __rmul__ = __mul__

    def conj(self) -> "QuadExt":
        return QuadExt(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        return self.a * self.a - self.b * self.b * self.d

    def inverse(self) -> "QuadExt":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero norm element")
        return QuadExt(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = QuadExt(Fraction(1), Fraction(0), self.d)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadExt):
            if self.b == 0 and other.b == 0:
                return self.a == other.a
            return self.d == other.d and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __repr__(self):
        if self.b == 0:
            return f"{self.a}"
        return f"({self.a} + {self.b}*sqrt({self.d}))"
