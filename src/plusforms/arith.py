"""Elementary number-theoretic helpers shared across the package.

Everything here is exact: sieves, divisor functions, Jacobi/Kronecker
symbols, fundamental discriminants, and the one scalar type for Hecke
eigenvalues that are not rational: an element of a real number field
Q[y]/(m), y sent to a fixed real root of m, with a correctly rounded float.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
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


def sigma_table(power: int, n_max: int) -> list[int]:
    """sigma_power(n) = sum_{d | n} d^power for 0 <= n <= n_max (index 0
    unused, set to 0), by sieve."""
    table = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        dp = d**power
        for m in range(d, n_max + 1, d):
            table[m] += dp
    return table


def sqrt_mod_prime_power(a: int, p: int, e: int) -> tuple[int, ...]:
    """The square roots of a modulo p^e, for an odd prime p not dividing a:
    () if a is not a square mod p, else (y, p^e - y) with y < p^e / 2.

    Tonelli-Shanks finds the root mod p; Newton (Hensel) steps then double
    its p-adic precision until it holds mod p^e (2y is a unit, so the lift
    of each root mod p is unique).
    """
    if p % 2 == 0 or a % p == 0:
        raise ValueError("sqrt_mod_prime_power needs an odd prime p not dividing a")
    if pow(a, (p - 1) // 2, p) != 1:
        return ()
    odd, s = p - 1, 0
    while odd % 2 == 0:
        odd //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:
        z += 1
    c, y, t = pow(z, odd, p), pow(a, (odd + 1) // 2, p), pow(a, odd, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        y, c = y * b % p, b * b % p
        t, s = t * c % p, i
    q = p**e
    while (y * y - a) % q:
        y = (y - (y * y - a) * pow(2 * y, -1, q)) % q
    y = min(y, q - y)
    return (y, q - y)


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


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd positive n."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("jacobi_symbol needs odd positive n (kronecker_symbol takes any n)")
    return _jacobi_core(a, n)


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


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n): (a|2) = 0, 1, -1 for a even, a = +-1 mod 8,
    a = +-3 mod 8; (a|-1) = -1 for a < 0, else 1; (a|0) = 1 iff a = +-1."""
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
    elif isinstance(value, Fraction):
        k = value
    else:
        k = Fraction(value)
    if k.denominator > 2:
        raise ValueError(f"not a half-integer: {value!r}")
    return k


def plus_sign(k) -> int:
    """(-1)^(k-1/2), the parity of the Kohnen plus space at the half-integral
    weight k."""
    return -1 if int(half_integer(k) - Fraction(1, 2)) % 2 else 1


def admissible(k, n: int) -> bool:
    """n is an index of the plus space at weight k: (-1)^(k-1/2) n = 0, 1 mod 4."""
    return plus_sign(k) * n % 4 in (0, 1)


# ---------------------------------------------------------------------------
# Real number fields Q[y]/(m), y sent to one real root of m: the one exact
# scalar type for Hecke eigenvalues.  Polynomials are lists [c_0, ..., c_n].
# ---------------------------------------------------------------------------


def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a, b) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_divmod(a, b) -> tuple[list, list]:
    """(q, r) with a = q b + r and r trimmed of degree < deg b (b[-1] != 0)."""
    r, n = list(a), len(b) - 1
    q = [Fraction(0)] * max(len(r) - n, 0)
    for i in range(len(r) - 1 - n, -1, -1):
        q[i] = c = r[i + n] / b[-1]
        for j, bj in enumerate(b):
            r[i + j] -= c * bj
    return q, _trim(r[:n])


def _sturm_chain(m) -> list[list]:
    """m, m' and the negated Euclidean remainders; the last is a multiple of
    gcd(m, m')."""
    chain = [list(m), [i * c for i, c in enumerate(m)][1:]]
    while len(chain[-1]) > 1:
        r = _poly_divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append([-c for c in r])
    return chain


def _sign_changes(values) -> int:
    signs = [v > 0 for v in values if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def is_squarefree_poly(p) -> bool:
    """True when gcd(p, p') is a nonzero constant: no repeated root."""
    return len(_sturm_chain(p)[-1]) == 1


def real_roots(m) -> list:
    """The roots of a monic squarefree m over Q, descending, as exact scalars;
    complex roots raise ValueError.

    Degree 1, or degree 2 with a square discriminant: Fractions.  Other
    degree 2: elements of the one field Q(sqrt d), m = y^2 - d with d
    squarefree and y -> +sqrt(d).  Degree 3 or more: y in Q[y]/(m), one field
    per root.  Nothing is factored over Q, so such an m must be irreducible.
    """
    m = [Fraction(c) for c in m]
    n = len(m) - 1
    chain = _sturm_chain(m)
    at_minus_inf = [p[-1] * (-1) ** (len(p) - 1) for p in chain]
    if _sign_changes(at_minus_inf) - _sign_changes([p[-1] for p in chain]) != n:
        raise ValueError("complex eigenvalues cannot occur for these operators")
    if n == 1:
        return [-m[0]]
    if n > 2:
        return [NumberField(tuple(m), i)([0, 1]) for i in range(n)]
    disc = m[1] * m[1] - 4 * m[0]
    d = squarefree_part(disc.numerator * disc.denominator)
    square = disc / d
    s = Fraction(math.isqrt(square.numerator), math.isqrt(square.denominator)) / 2
    y = NumberField((Fraction(-d), Fraction(0), Fraction(1)), 0)([0, 1]) if d > 1 else 1
    return [-m[1] / 2 + s * y, -m[1] / 2 - s * y]


@dataclass(frozen=True)
class NumberField:
    """Q[y]/(m), m monic and squarefree with only real roots, y sent to the
    index-th largest root (index 0 is the largest).

    Elements whose coordinates above the constant one all vanish are plain
    Fractions.  m must be irreducible for this to be a field; a reducible m
    surfaces as a nonzero element with no inverse.
    """

    modulus: tuple  # (m_0, ..., m_n), m_n = 1
    index: int
    _root: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def degree(self) -> int:
        return len(self.modulus) - 1

    def __call__(self, coords):
        """sum coords[i] y^i reduced mod m; a Fraction when it is rational."""
        m, n = self.modulus, len(self.modulus) - 1
        c = [x if isinstance(x, Fraction) else Fraction(x) for x in coords]
        for i in range(len(c) - 1, n - 1, -1):
            for j in range(n):
                c[i - n + j] -= c[i] * m[j]
        c = tuple(c[:n]) + (Fraction(0),) * (n - len(c))
        return FieldElement(self, c) if any(c[1:]) else c[0]

    def coords(self, x) -> tuple:
        """Power-basis coordinates of a Fraction, an int or an element."""
        if not isinstance(x, FieldElement):
            return (Fraction(x),) + (Fraction(0),) * (self.degree - 1)
        if x.field != self:
            raise ValueError("mixing elements of different number fields")
        return x.coords

    def _bracket(self, bits: int) -> tuple[int, int]:
        """(N, b) with b >= bits and the root in (N / 2^b, (N + 1) / 2^b],
        kept here: bisection on the sign of the modulus at the midpoint from
        the interval _isolate gives, every sign by Horner on integers."""
        st = self._root
        if "n" not in st:
            st.update(self._isolate())
        modulus, n, b = st["modulus"], st["n"], st["b"]
        while b < bits:
            n, b = 2 * n, b + 1
            sign = _sign_at(modulus, n + 1, b)
            if sign == 0:
                raise ValueError(f"the modulus has the rational root {Fraction(n + 1, 1 << b)}")
            n += sign == st["sign"]  # the sign of the left end: the root lies above
        st.update(n=n, b=b)
        return n, b

    def _isolate(self) -> dict:
        """The modulus on integers, n and b with the root the only one in
        (n / 2^b, (n + 1) / 2^b], and the modulus's sign at n / 2^b: bisection
        on Sturm's count of the roots above the midpoint, from the Cauchy
        bound, until one root is left and the width is 1 / 2^b."""
        bound = 1 << (int(max(abs(c) for c in self.modulus)) + 1).bit_length()
        chain = [[int(c * d) for c in p] for p in _sturm_chain(self.modulus)
                 for d in [math.lcm(*(c.denominator for c in p))]]
        at_inf = _sign_changes([p[-1] for p in chain])

        def above(x: int, b: int) -> int:  # the roots above x / 2^b
            values = [_sign_at(p, x, b) for p in chain]
            if values[0] == 0:
                raise ValueError(f"the modulus has the rational root {Fraction(x, 1 << b)}")
            return _sign_changes(values) - at_inf

        lo, hi, b = -bound, bound, 0
        v_lo, v_hi = above(lo, 0), above(hi, 0)
        while v_lo - v_hi > 1 or hi - lo > 1:
            if hi - lo == 1:
                lo, hi, b = 2 * lo, 2 * hi, b + 1
            mid = (lo + hi) // 2
            v = above(mid, b)
            if v > self.index:
                lo, v_lo = mid, v
            else:
                hi, v_hi = mid, v
        return {"modulus": chain[0], "n": lo, "b": b, "sign": _sign_at(chain[0], lo, b)}

    def embed(self, rows, den: int, lo: int, hi: int) -> list[float]:
        """sum_t rows[t][i] r^t / den at the root r, correctly rounded, for
        i = lo..hi-1 and integer rows (one per power-basis coordinate): the
        value at the bracket's left end N / 2^b (from the held N^t 2^(b(n-1-t)))
        plus or minus the width times a derivative bound encloses the true
        value; a bracket to more bits is taken until both ends round alike."""
        levels = self._root.setdefault("levels", {})
        n, out = self.degree, []
        for i in range(lo, hi):
            a = [row[i] for row in rows]
            for bits in (64, 256, 1024, 4096):
                if bits not in levels:
                    r, b = self._bracket(bits)
                    s, mag = 1 << b, abs(r) + 1
                    levels[bits] = ([r**t * s ** (n - 1 - t) for t in range(n)],
                                    [t * mag ** (t - 1) * s ** (n - 1 - t) if t else 0
                                     for t in range(n)], s ** (n - 1))
                powers, slopes, scale = levels[bits]
                q = den * scale
                val = sum(c * p for c, p in zip(a, powers))
                err = sum(abs(c) * e for c, e in zip(a, slopes))
                if (val - err) / q == (val + err) / q:
                    break
            out.append(val / q)
        return out


def _sign_at(p: list[int], num: int, b: int) -> int:
    """The sign of the integer polynomial p at num / 2^b, by Horner on
    2^(b deg p) p(num / 2^b)."""
    acc, d = p[-1], len(p) - 1
    for i in range(d - 1, -1, -1):
        acc = acc * num + (p[i] << (b * (d - i)))
    return (acc > 0) - (acc < 0)


class FieldElement:
    """sum coords[i] y^i in a NumberField, some coords[i] with i >= 1 nonzero."""

    __slots__ = ("field", "coords")

    def __init__(self, field: NumberField, coords: tuple):
        self.field, self.coords = field, coords

    def __add__(self, other):
        if not isinstance(other, (FieldElement, int, Fraction)):
            return NotImplemented
        return self.field([a + b for a, b in zip(self.coords, self.field.coords(other))])

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, (FieldElement, int, Fraction)):
            return NotImplemented
        return self.field(_poly_mul(self.field.coords(other), self.coords))

    __rmul__ = __mul__

    def inverse(self):
        """1/x by the extended Euclidean algorithm on (m, x)."""
        r0, r1 = list(self.field.modulus), _trim(list(self.coords))
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            qs = _poly_mul(q, s1)
            s0, s1 = s1, [a - b for a, b in itertools.zip_longest(s0, qs, fillvalue=0)]
            r0, r1 = r1, r
        if not r1:
            raise ZeroDivisionError(f"no inverse: the modulus {self.field.modulus} is reducible")
        return self.field([c / r1[0] for c in s1])

    def __truediv__(self, other):
        return self * (other.inverse() if isinstance(other, FieldElement) else 1 / Fraction(other))

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other):
        return (isinstance(other, FieldElement) and self.field == other.field
                and self.coords == other.coords)

    def __hash__(self):
        return hash((self.field, self.coords))

    def __float__(self) -> float:
        den = math.lcm(*(c.denominator for c in self.coords))
        return self.field.embed([[c.numerator * (den // c.denominator)] for c in self.coords],
                                den, 0, 1)[0]

    def __repr__(self):
        m = self.field.modulus
        name = f"sqrt({-m[0]})" if len(m) == 3 and m[1] == 0 and self.field.index == 0 else "y"
        terms = [f"{c}*{name}" + (f"^{i}" if i > 1 else "")
                 for i, c in enumerate(self.coords) if i and c]
        return "(" + " + ".join([str(self.coords[0])] + terms) + ")"
