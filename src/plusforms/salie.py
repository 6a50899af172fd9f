"""Salie-type character sums and plus-space Poincare coefficients.

H_c(n, m) is Kohnen's twisted Kloosterman sum (Math. Ann. 271, 1985), an
exponential sum over the units delta mod 4c twisted by (4c|delta) and a
quartic unit power.  `salie_h` evaluates it in closed form: a product of
local sums over 2^(s+2) and each p^e exactly dividing the odd part of c,
the odd ones prime to nm by square roots of nm mod p^e (Iwaniec, Topics in
Classical Automorphic Forms, 1997), the others exactly in cyclotomic
integers.  So the work per c is a few short local sums, not the 4c units,
and a vanishing H_c is an exact 0.  The plus-space Poincare series has
Fourier coefficients

  g_{k,m}(n) = (2/3) [ delta_{m,n} + (-1)^floor((k+1/2)/2) pi sqrt(2)
               (n/m)^((k-1)/2) sum_{c>=1} H_c(n, m) J_{k-1}(pi sqrt(nm)/c) ],

and summing |fhat_j(m)|^2 over an orthonormal basis of the plus space gives
6 (4 pi m)^(k-1) / Gamma(k-1) * g_{k,m}(m).  Truncation of the c-sum is
certified through the trivial bound |H_c| <= 2 and the small-argument
Bessel bound once k - 1 >= 2 (pi sqrt(nm)/c)^2.  A c-sum checks its inputs
once; each c calls the unchecked integer core of salie_h, _salie_h, with
the c-sum's tables of 2-adic unit inverses, and numerics._bessel_core.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import (
    admissible,
    factorize,
    half_integer,
    jacobi_symbol,
    plus_sign,
    sqrt_mod_prime_power,
)
from .numerics import (
    LN2,
    NEG_INF,
    CertifiedValue,
    LogScaled,
    _bessel_core,
    logsumexp,
)

HALF = Fraction(1, 2)
LOG_REL_ERR = math.log(1e-12)  # relative error of each _bessel_core value


def salie_h(c: int, n: int, m: int, k) -> complex:
    """H_c(n, m) = (1 - (-1)^(k-1/2) i)(1 + (4|c)) / (4c) times

        sum_{delta mod 4c, unit} (4c|delta) eps(delta) e((n delta + m delta^-1) / 4c),

    eps(delta) = 1 for delta = 1 mod 4 and (-1)^k = e(k/2) for delta = 3 mod 4.
    (4|c) is the Kronecker symbol: odd c get weight 2, even c weight 1, the
    normalisation pinned down by the exact plus-space eigenform ratios (see
    the spectral tests).  c must be positive and n, m plus-space indices of
    weight k; _salie_h is the unchecked core.

    No unit is summed over 4c.  With 4c = Q R, Q = 2^(s+2), R odd, quadratic
    reciprocity turns (4c|delta) into (2|delta)^s (-1)^((R-1)/2 (delta-1)/2)
    (delta|R), and 1/(4c) = u/Q + sum t_p/p^e (CRT over Q and each p^e || R)
    makes the sum a product of local sums.  An odd factor with p not dividing
    its twisted A B is a Salie sum (e odd) or a Kloosterman sum (e even) in
    closed form, a short sum over the square roots of A B mod p^e; the 2-adic
    factor and any odd factor with p | A B are summed over their local units
    in exact cyclotomic integers.  A vanishing local factor, hence H_c, is an exact 0.
    """
    k = half_integer(k)
    if c < 1:
        raise ValueError("c must be positive")
    _check_indices(k, n, m)
    return _salie_h(c, n, m, plus_sign(k), {})


def _check_indices(k: Fraction, n: int, m: int) -> None:
    """Raise ValueError unless n and m are positive plus-space indices at k."""
    if n < 1 or m < 1:
        raise ValueError("n, m must be positive")
    if not admissible(k, n) or not admissible(k, m):
        raise ValueError("n, m must satisfy the plus-space congruence")


def _salie_h(c: int, n: int, m: int, sgn: int, inverses: dict) -> complex:
    """salie_h, unchecked, at sgn = (-1)^(k-1/2); inverses[s] holds the odd
    x^-1 mod 2^(s+2), x ascending, and a missing s is added."""
    s = (c & -c).bit_length() - 1
    r = c >> s
    q2 = 4 << s
    u = pow(r, -1, q2)
    if s not in inverses:
        inverses[s] = [pow(x, -1, q2) for x in range(1, q2, 2)]
    total = _two_adic_sum(q2, s, r, sgn, n * u % q2, m * u % q2, inverses[s])
    for prime, e in factorize(r):
        if not total:
            break
        q = prime**e
        t = pow(4 * c // q, -1, q)
        total *= _odd_local_sum(prime, e, n * t % q, m * t % q)
    if not total:
        return 0j
    return (1 - sgn * 1j) * (2 if s == 0 else 1) / (4 * c) * total


def _cyclotomic_value(coeffs: list[int], q: int) -> complex:
    """sum_j coeffs[j] e(j/q); exactly 0j when every coefficient is 0."""
    return sum((x * cmath.exp(2j * math.pi * j / q) for j, x in enumerate(coeffs) if x), 0j)


def _two_adic_sum(q: int, s: int, r: int, sgn: int, a: int, b: int, inverses) -> complex:
    """sum over odd x mod q = 2^(s+2) of (2|x)^s (-1)^((r-1)/2 (x-1)/2) eps(x)
    e((a x + b x^-1)/q), eps(x) = sgn i for x = 3 mod 4, the x^-1 in inverses.

    Each term is +-e(j/q) (i = e(1/4) is a q-th root of unity), and the
    e(j/q) with j < q/2 are a Z-basis of Z[e(1/q)], so the sum is kept as
    integer coordinates in that basis and is zero exactly when they all are.
    """
    half = q // 2
    coeffs = [0] * half
    twist3 = sgn * (-1 if r % 4 == 3 else 1)
    for x, x_inv in zip(range(1, q, 2), inverses):
        sign = -1 if s % 2 and x % 8 in (3, 5) else 1
        j = (a * x + b * x_inv) % q
        if x % 4 == 3:
            sign *= twist3
            j = (j + q // 4) % q
        if j >= half:
            coeffs[j - half] -= sign
        else:
            coeffs[j] += sign
    return _cyclotomic_value(coeffs, q)


def _odd_local_sum(p: int, e: int, a: int, b: int) -> complex:
    """sum over units x mod q = p^e of (x|p)^e e((a x + b x^-1)/q), p odd.

    If p does not divide a b, the closed form over the roots y^2 = a b mod q:
    eps_q sqrt(q) (b|p) sum_y e(2y/q) for e odd (eps_q = 1 or i as q = 1 or
    3 mod 4), sqrt(q) sum_y e(2y/q) for e even, and 0 with no root.
    Otherwise the sum is taken over the units as integer coordinates on the
    e(j/q), which vanish in Z[e(1/q)] exactly when they are periodic mod
    p^(e-1) (the q-th cyclotomic polynomial is sum_i X^(i p^(e-1))).
    """
    q = p**e
    if a % p and b % p:
        roots = sqrt_mod_prime_power(a * b, p, e)
        if not roots:
            return 0j
        y = roots[0]
        value = 2.0 * math.sqrt(q) * math.cos(4.0 * math.pi * y / q)
        if e % 2 == 0:
            return complex(value)
        value *= jacobi_symbol(b, p)
        return complex(value) if q % 4 == 1 else complex(0.0, value)
    chi = [-1] * p
    for x in range(1, p):
        chi[x * x % p] = 1
    coeffs = [0] * q
    for x in range(1, q):
        if x % p:
            coeffs[(a * x + b * pow(x, -1, q)) % q] += chi[x % p] if e % 2 else 1
    period = q // p
    if all(coeffs[j] == coeffs[j % period] for j in range(period, q)):
        return 0j
    return _cyclotomic_value(coeffs, q)


@dataclass(frozen=True)
class PoincareCoeff:
    k: Fraction
    m: int
    n: int
    value: CertifiedValue
    c_max: int
    tail_bound: float
    imag_residual: float  # (2/3) |Im| of the c-sum; 0 in exact arithmetic, not in the error


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


def poincare_coeff(k, m: int, n: int, tol: float = 1e-10) -> PoincareCoeff:
    """g_{k,m}(n) with a certified truncation of the c-sum.

    The c-sum is evaluated exactly (in doubles) up to c_max, which starts at
    the edge of the small-argument Bessel regime and grows until the
    certified tail drops below tol (absolute, on g); past c = 10^6, an error.
    """
    return _poincare_sum(k, m, n)(tol)


def _poincare_sum(k, m: int, n: int):
    """The c-sum of g_{k,m}(n) as one running sum: the returned function
    certifies it to an absolute tol, as poincare_coeff does.  A tighter tol
    adds only the c past the last c_max, in the same order, so each result
    equals poincare_coeff at that tol bit for bit.  k, n, m are checked once."""
    k = half_integer(k)
    kf = float(k)
    if k.denominator != 2 or k < 2:
        raise ValueError(f"the Poincare c-sum needs a half-integral weight k >= 5/2, not {k}")
    _check_indices(k, n, m)
    sgn, n_j, rho = plus_sign(k), int(k - 3 * HALF), float(k - 1)  # J order k-1 = n_j + 1/2
    x1 = math.pi * math.sqrt(n * m)
    sign = (-1) ** int((k + HALF) / 2)
    pref_log = (
        math.log(math.pi) + 0.5 * math.log(2.0) + (kf - 1.0) / 2.0 * (math.log(n) - math.log(m))
    )
    # start where the small-argument bound applies: k-1 >= 2 (x1/c)^2
    c_max = max(1, math.ceil(x1 / math.sqrt((kf - 1.0) / 2.0)))
    c_done, total, bessel_err_logs, inverses = 0, 0.0j, [], {}

    def certify(tol: float) -> PoincareCoeff:
        nonlocal c_max, c_done, total
        if not tol > 0:
            raise ValueError(f"tol must be positive, not {tol}")
        while True:
            tail_log = _bessel_tail_log(kf, x1, c_max + 1) + pref_log + math.log(2.0 / 3.0)
            if tail_log < math.log(tol):
                break
            if c_max > 10**6:
                raise RuntimeError(
                    f"poincare_coeff: cannot certify tail below {tol} within c <= 10^6"
                )
            c_max = max(c_max + 8, int(c_max * 1.3))
        for c in range(c_done + 1, c_max + 1):
            h = _salie_h(c, n, m, sgn, inverses)
            if h == 0:
                continue
            j = _bessel_core(n_j, rho, x1 / c)
            if j is None or j[1] < -700.0:
                # far-underflow terms are inside the certified tail already
                continue
            total += h * (j[0] * math.exp(j[1]))
            bessel_err_logs.append(j[1] + LOG_REL_ERR + LN2)  # |H_c| <= 2
        c_done = c_max
        series = sign * math.pi * math.sqrt(2.0) * (n / m) ** ((kf - 1.0) / 2.0) * total
        value = (2.0 / 3.0) * ((1.0 if m == n else 0.0) + series.real)
        imag = (2.0 / 3.0) * series.imag
        err_logs = [tail_log]
        if bessel_err_logs:
            err_logs.append(pref_log + math.log(2.0 / 3.0) + logsumexp(bessel_err_logs))
        err_log = logsumexp(err_logs)
        return PoincareCoeff(
            k, m, n, CertifiedValue(LogScaled.from_float(value), err_log), c_max,
            math.exp(tail_log), abs(imag),
        )

    return certify


def spectral_average(k, m: int, rel_tol: float = 1e-8) -> CertifiedValue:
    """sum_j |fhat_j(m)|^2 over an orthonormal basis of S_k^+(Gamma_0(4)):

        6 (4 pi m)^(k-1) / Gamma(k-1) * g_{k,m}(m).

    Log-scaled.  Because g_{k,m}(m) can be small through cancellation, the
    c-sum is certified in two steps of one running sum: to 1e-7 absolute,
    which estimates |g|, then, extended past that c_max only where needed,
    to an absolute tail below rel_tol * |g| / 2.
    """
    if not rel_tol > 0:
        raise ValueError(f"rel_tol must be positive, not {rel_tol}")
    k = half_integer(k)
    kf = float(k)
    certify = _poincare_sum(k, m, m)
    g = certify(1e-7)
    gv = abs(g.value.to_float())
    if gv > 0 and 1e-7 > 0.5 * rel_tol * gv:
        g = certify(max(0.5 * rel_tol * gv, 1e-15))
    pref_log = (
        math.log(6.0)
        + (kf - 1.0) * math.log(4.0 * math.pi * m)
        - math.lgamma(kf - 1.0)
    )
    val = g.value.value * LogScaled.exp_of(pref_log)
    err_log = g.value.err_log + pref_log if g.value.err_log > NEG_INF else NEG_INF
    return CertifiedValue(val, err_log)


def bessel_correction_factor(k) -> float:
    """The bracket [1 + sign * pi sqrt(2) * sum_c H_c(1,1) J_{k-1}(pi/c)] / 1.

    Equals (3/2) g_{k,1}(1), certified to 1e-10; tends to 1 as k grows.
    """
    g = poincare_coeff(k, 1, 1, tol=1e-10)
    return 1.5 * g.value.to_float()
