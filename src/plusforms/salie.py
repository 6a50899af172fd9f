"""Salie-type character sums and plus-space Poincare coefficients.

H_c(n, m) is a finite exponential sum over units delta mod 4c twisted by
(4c|delta) and a quartic unit power; the plus-space Poincare series has
Fourier coefficients

  g_{k,m}(n) = (2/3) [ delta_{m,n} + (-1)^floor((k+1/2)/2) pi sqrt(2)
               (n/m)^((k-1)/2) sum_{c>=1} H_c(n, m) J_{k-1}(pi sqrt(nm)/c) ],

and summing |fhat_j(m)|^2 over an orthonormal basis of the plus space gives
6 (4 pi m)^(k-1) / Gamma(k-1) * g_{k,m}(m).  Truncation of the c-sum is
certified through the trivial bound |H_c| <= 2 and the small-argument
Bessel bound once k - 1 >= 2 (pi sqrt(nm)/c)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import half_integer, jacobi_symbol, kronecker_symbol
from .numerics import (
    NEG_INF,
    CertifiedValue,
    LogScaled,
    bessel_j_half,
    gamma_half,
    logsumexp,
    unit_power,
)

HALF = Fraction(1, 2)


def _sign_unit(k: Fraction) -> int:
    return -1 if int(k - HALF) % 2 else 1


def admissible(k, n: int) -> bool:
    """(-1)^(k-1/2) n = 0, 1 mod 4."""
    return (_sign_unit(half_integer(k)) * n) % 4 in (0, 1)


@dataclass(frozen=True)
class SalieParams:
    c: int
    n: int
    m: int
    k: Fraction

    def __post_init__(self):
        if self.c < 1 or self.n < 1 or self.m < 1:
            raise ValueError("c, n, m must be positive")
        if not admissible(self.k, self.n) or not admissible(self.k, self.m):
            raise ValueError("n, m must satisfy the plus-space congruence")


def salie_h(p: SalieParams) -> complex:
    """H_c(n, m): prefactor (1 - (-1)^(k-1/2) i)(1 + (4|c)) / (4c) times the
    twisted unit sum over delta mod 4c.

    (4|c) is the Kronecker symbol: 1 for odd c, 0 for even c, so odd c get
    weight 2 and even c weight 1.  This normalization is the one pinned down
    by the exact plus-space eigenform ratios (see the spectral tests).
    """
    c, n, m, k = p.c, p.n, p.m, half_integer(p.k)
    chi4 = kronecker_symbol(4, c)
    sgn = _sign_unit(k)
    pref = (1 - sgn * 1j) * (1 + chi4) / (4 * c)
    minus4_pow = {1: 1.0 + 0.0j, -1: unit_power(-1, k)}
    total = 0.0j
    mod = 4 * c
    units = [d for d in range(1, mod, 2) if math.gcd(d, mod) == 1]
    inverses = _batch_inverse(units, mod)
    for delta, dinv in zip(units, inverses):
        chi = jacobi_symbol(mod, delta)
        if chi == 0:
            continue
        eps = minus4_pow[jacobi_symbol(-4, delta)]
        angle = 2.0 * math.pi * ((n * delta + m * dinv) % mod) / mod
        total += chi * eps * complex(math.cos(angle), math.sin(angle))
    return pref * total


def _batch_inverse(values: list[int], mod: int) -> list[int]:
    """Inverses mod `mod` of a list of units, with a single modular inversion."""
    if not values:
        return []
    prefix = [1] * (len(values) + 1)
    for i, v in enumerate(values):
        prefix[i + 1] = prefix[i] * v % mod
    inv_all = pow(prefix[-1], -1, mod)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = prefix[i] * inv_all % mod
        inv_all = inv_all * values[i] % mod
    return out


def salie_h_raw(c: int, n: int, m: int, k) -> complex:
    return salie_h(SalieParams(c, n, m, half_integer(k)))


@dataclass(frozen=True)
class PoincareCoeff:
    k: Fraction
    m: int
    n: int
    value: CertifiedValue
    c_max: int
    tail_bound: float


def _bessel_tail_log(k: float, x_at_c1: float, c_from: int) -> float:
    """log bound on sum_{c >= c_from} 2 |J_{k-1}(x_at_c1 / c)|, assuming the
    small-argument regime k-1 >= 2 (x_at_c1/c_from)^2 holds from c_from on.

    |J_rho(x)| <= e^(1/8) (x/2)^rho / Gamma(rho+1) there, and the c-sum is
    bounded by the integral of c^(-(k-1)).
    """
    rho = k - 1.0
    head = math.log(2.0) + 0.125 + rho * math.log(x_at_c1 / 2.0) - math.lgamma(rho + 1.0)
    # sum_{c>=c0} c^(-rho) <= c0^(-rho) + integral_{c0}^inf t^(-rho) dt
    c0 = float(c_from)
    tail_sum = logsumexp(
        [-rho * math.log(c0), -(rho - 1.0) * math.log(c0) - math.log(rho - 1.0)]
    )
    return head + tail_sum


def poincare_coeff(k, m: int, n: int, tol: float = 1e-10, c_cap: int = 10**6) -> PoincareCoeff:
    """g_{k,m}(n) with a certified truncation of the c-sum.

    The c-sum is evaluated exactly (in doubles) up to c_max, which starts at
    the edge of the small-argument Bessel regime and grows until the
    certified tail drops below tol (absolute, on g).
    """
    k = half_integer(k)
    kf = float(k)
    if not admissible(k, n) or not admissible(k, m):
        raise ValueError("n, m must satisfy the plus-space congruence")
    x1 = math.pi * math.sqrt(n * m)
    sign = (-1) ** int((k + HALF) / 2)
    pref_log = (
        math.log(math.pi) + 0.5 * math.log(2.0) + (kf - 1.0) / 2.0 * (math.log(n) - math.log(m))
    )
    # start where the small-argument bound applies: k-1 >= 2 (x1/c)^2
    c_regime = max(1, math.ceil(x1 / math.sqrt((kf - 1.0) / 2.0)))
    c_max = c_regime
    while True:
        tail_log = _bessel_tail_log(kf, x1, c_max + 1) + pref_log + math.log(2.0 / 3.0)
        if tail_log < math.log(tol):
            break
        if c_max > c_cap:
            raise RuntimeError(
                f"poincare_coeff: cannot certify tail below {tol} within c <= {c_cap}"
            )
        c_max = max(c_max + 8, int(c_max * 1.3))
    total = 0.0j
    bessel_err_logs = []
    for c in range(1, c_max + 1):
        h = _salie_cached(c, n, m, k)
        if h == 0:
            continue
        j = bessel_j_half(k - 1, x1 / c)
        if j.value.logm < -700.0:
            # far-underflow terms are inside the certified tail already
            continue
        total += h * j.value.to_float()
        if j.err_log > NEG_INF:
            bessel_err_logs.append(j.err_log + math.log(2.0))
    series = sign * math.pi * math.sqrt(2.0) * (n / m) ** ((kf - 1.0) / 2.0) * total
    value = (2.0 / 3.0) * ((1.0 if m == n else 0.0) + series.real)
    imag = (2.0 / 3.0) * series.imag
    err_logs = [tail_log]
    if bessel_err_logs:
        err_logs.append(pref_log + math.log(2.0 / 3.0) + logsumexp(bessel_err_logs))
    if imag != 0.0:
        err_logs.append(math.log(abs(imag)))
    err_log = logsumexp(err_logs)
    return PoincareCoeff(
        k, m, n, CertifiedValue(LogScaled.from_float(value), err_log), c_max, math.exp(tail_log)
    )


_H_CACHE: dict = {}


def _salie_cached(c: int, n: int, m: int, k: Fraction) -> complex:
    key = (c, n, m, k)
    if key not in _H_CACHE:
        if len(_H_CACHE) > 200000:
            _H_CACHE.clear()
        _H_CACHE[key] = salie_h_raw(c, n, m, k)
    return _H_CACHE[key]


def spectral_average(k, m: int, rel_tol: float = 1e-8) -> CertifiedValue:
    """sum_j |fhat_j(m)|^2 over an orthonormal basis of S_k^+(Gamma_0(4)):

        6 (4 pi m)^(k-1) / Gamma(k-1) * g_{k,m}(m).

    Log-scaled.  Because g_{k,m}(m) can be small through cancellation, the
    truncation runs twice: a first pass estimates |g|, a second pass certifies
    the absolute tail below rel_tol * |g| / 2.
    """
    k = half_integer(k)
    kf = float(k)
    g = poincare_coeff(k, m, m, tol=1e-7)
    gv = abs(g.value.to_float())
    if gv > 0 and 1e-7 > 0.5 * rel_tol * gv:
        g = poincare_coeff(k, m, m, tol=max(0.5 * rel_tol * gv, 1e-15))
    pref_log = (
        math.log(6.0)
        + (kf - 1.0) * math.log(4.0 * math.pi * m)
        - gamma_half(k - 1).value.logm
    )
    val = g.value.value * LogScaled.exp_of(pref_log)
    err_log = g.value.err_log + pref_log if g.value.err_log > NEG_INF else NEG_INF
    return CertifiedValue(val, err_log)


def bessel_correction_factor(k, tol: float = 1e-10) -> float:
    """The bracket [1 + sign * pi sqrt(2) * sum_c H_c(1,1) J_{k-1}(pi/c)] / 1.

    Equals (3/2) g_{k,1}(1); tends to 1 as k grows.
    """
    g = poincare_coeff(k, 1, 1, tol=tol)
    return 1.5 * g.value.to_float()
