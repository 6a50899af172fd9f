"""Independent reference computations the production paths are tested against.

Everything here deliberately takes a different route from the library:
60-digit ascending series for Bessel J, the Eisenstein-polynomial route to
the discriminant coefficients (the library builds them from eta powers),
a plain double loop for series products (no packing, no FFT), q-expansions
as dicts of Fractions multiplied term by term with their own precision and
parameter bookkeeping (the library works on integer numerators over a
common denominator), the frame generators written out coefficient by
coefficient, 40-digit term-by-term series values (the library sums float64
terms in blocks, shifted by the largest one), naive fraction Gaussian
elimination and Gauss-Jordan reduction (the library back-substitutes on
integer rows, one denominator per row), the Faddeev-LeVerrier charpoly in
Fractions (the library divides integer traces exactly), Salie sums by
direct summation over the units mod 4c (in doubles and in 40-digit
arithmetic; the library factors them into local sums with square roots mod
prime powers), and a quadrature-based
completed-L-value with a different smoothing than the production
incomplete-gamma sums, mpmath's incomplete gamma (the library sums the finite
series of an integer or half-integer order), Petersson Gram matrices by
quadrature over the whole domain (the library sums the strips y >= 1 by
Parseval), the plus-space monomials one at a time by
binary powers (the library builds a weight's monomials from shared power
chains), basis forms summed from their monomials as Python ints (the
library combines them in residue space before one CRT per form), the
spectral average as two fresh c-sums (the library extends one running sum),
the Poincare c-sum with the checked salie_h and bessel_j_half per term
(the library checks once per sum and calls unchecked cores; bessel_j_half
lives here, the checked form of numerics._bessel_core), the Miller and theta
ladder walks each written out in full (the library runs both through one
intpoly.descending_walk), the
twisted AFE coefficients from exact scalars (the library reads each form's
float view), the theta multiplier as the quotient of two direct theta sums (the library
uses Shimura's closed form),
the plus-space T(p^2) matrix and the level-1 T(p) from Fraction
q-expansions checked coefficient by coefficient (the library reads the
integer basis rows and the Miller rows), and
level-1 eigenform coefficients summed from the Miller rows index by index in
exact scalars (the library combines integer rows once per field coordinate
and makes each scalar on read).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np


def bessel_series(rho, x, dps: int = 60):
    """J_rho(x) by the ascending series in dps-digit arithmetic."""
    with mp.workdps(dps):
        rho = mp.mpf(rho.numerator) / rho.denominator if isinstance(rho, Fraction) else mp.mpf(rho)
        x = mp.mpf(x)
        q = x * x / 4
        term = mp.mpf(1) / mp.gamma(rho + 1)
        total = term
        j = 0
        while True:
            j += 1
            term *= -q / (j * (rho + j))
            total += term
            if abs(term) < mp.mpf(10) ** (-dps + 2) * abs(total) or j > 500:
                break
        return (x / 2) ** rho * total


def bessel_j_half(rho, x: float, rel_err: float = 1e-12):
    """J_rho(x) for half-integer rho >= 1/2 as a CertifiedValue of relative
    error rel_err: numerics._bessel_core after the checks, the checked
    reference for that unchecked core."""
    from plusforms.arith import half_integer
    from plusforms.numerics import NEG_INF, CertifiedValue, LogScaled, _bessel_core

    rho = half_integer(rho)
    if x <= 0:
        raise ValueError("bessel_j_half needs x > 0")
    n = int(rho - Fraction(1, 2))
    if n < 0:
        raise ValueError("bessel_j_half needs rho >= 1/2")
    v = _bessel_core(n, float(rho), x)
    if v is None:
        return CertifiedValue(LogScaled.zero(), NEG_INF)
    return CertifiedValue(LogScaled(*v), v[1] + math.log(rel_err))


def delta_by_eisenstein(prec: int) -> list[Fraction]:
    """Coefficients of (E4^3 - E6^2)/1728, direct polynomial arithmetic."""

    def eis(power: int, mult: int) -> list[Fraction]:
        out = [Fraction(0)] * (prec + 1)
        out[0] = Fraction(1)
        for d in range(1, prec + 1):
            dp = d**power
            for m in range(d, prec + 1, d):
                out[m] += mult * dp
        return out

    def mul(a, b):
        out = [Fraction(0)] * (prec + 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j in range(0, prec + 1 - i):
                if b[j]:
                    out[i + j] += ai * b[j]
        return out

    e4 = eis(3, 240)
    e6 = eis(5, -504)
    e4_3 = mul(mul(e4, e4), e4)
    e6_2 = mul(e6, e6)
    return [(a - b) / 1728 for a, b in zip(e4_3, e6_2)]


def series_mul_reference(a: list[int], b: list[int], prec: int) -> list[int]:
    """Coefficients 0..min(prec, len(a) + len(b) - 2) of the product a*b, by
    the plain double loop on Python ints."""
    n = min(prec, len(a) + len(b) - 2)
    out = [0] * (n + 1)
    for i in range(min(len(a), n + 1)):
        for j in range(min(len(b), n + 1 - i)):
            out[i + j] += a[i] * b[j]
    return out


def qexp_mul_reference(x, y):
    """Product of two QExpansions by the double loop over their Fraction dicts.

    Weights add, widths combine by lcm and parameters add mod 1, the integer
    part moving into the index.  The result stops before the first exponent
    that a term beyond either operand's precision could reach.
    """
    from plusforms.qexp import QExpansion

    n1, n2 = x.width, y.width
    width = n1 * n2 // math.gcd(n1, n2)
    shift_param = x.param * (width // n1) + y.param * (width // n2)
    carry = int(shift_param)
    param = shift_param - carry
    e_min = min((x.prec + 1 + x.param) / n1, (y.prec + 1 + y.param) / n2)
    prec = math.ceil(e_min * width - param) - 1
    out: dict[int, Fraction] = {}
    for m1, a1 in sorted(x.coeffs.items()):
        for m2, a2 in sorted(y.coeffs.items()):
            m = m1 * (width // n1) + m2 * (width // n2) + carry
            if m > prec:
                break
            out[m] = out.get(m, Fraction(0)) + a1 * a2
    out = {m: v for m, v in out.items() if v != 0}
    return QExpansion(x.weight + y.weight, width, param, prec, out)


def qexp_pow_reference(q, e: int):
    """q^e by binary powering with qexp_mul_reference; q^0 is 1 at weight 0."""
    from plusforms.qexp import QExpansion

    if e == 0:
        return QExpansion(Fraction(0), 1, Fraction(0), q.prec, {0: Fraction(1)})
    result = None
    base = q
    while e:
        if e & 1:
            result = base if result is None else qexp_mul_reference(result, base)
        e >>= 1
        if e:
            base = qexp_mul_reference(base, base)
    return result


def qexp_sum_reference(terms, prec: int | None = None):
    """sum c * q over (c, q) pairs on one grid, to the smallest precision
    (and at most prec)."""
    from plusforms.qexp import QExpansion

    q0 = terms[0][1]
    if any((q.weight, q.width, q.param) != (q0.weight, q0.width, q0.param) for _, q in terms):
        raise ValueError("terms live on different grids")
    top = min([q.prec for _, q in terms] + ([] if prec is None else [prec]))
    out: dict[int, Fraction] = {}
    for c, q in terms:
        for m, v in q.coeffs.items():
            if m <= top:
                out[m] = out.get(m, Fraction(0)) + Fraction(c) * v
    out = {m: v for m, v in out.items() if v != 0}
    return QExpansion(q0.weight, q0.width, q0.param, top, out)


def _sigma1(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


def theta_reference(prec: int):
    """Theta = 1 + 2 sum q^(n^2); also its Fricke image (Theta is invariant)."""
    from plusforms.qexp import QExpansion

    coeffs = {n * n: Fraction(2) for n in range(1, math.isqrt(prec) + 1)}
    coeffs[0] = Fraction(1)
    return QExpansion(Fraction(1, 2), 1, Fraction(0), prec, coeffs)


def theta_v_reference(prec: int):
    """Theta under the V frame: e(1/8) * 2 sum_{j odd > 0} e(j^2 z / 4), as
    (series with index m at exponent m + 1/4, unit phase)."""
    from plusforms.qexp import QExpansion

    coeffs = {}
    j = 1
    while (j * j - 1) // 4 <= prec:
        coeffs[(j * j - 1) // 4] = Fraction(2)
        j += 2
    phase = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
    return QExpansion(Fraction(1, 2), 1, Fraction(1, 4), prec, coeffs), phase


def g_reference(prec: int):
    """G = sum_{n odd} sigma_1(n) q^n by trial division."""
    from plusforms.qexp import QExpansion

    coeffs = {n: Fraction(_sigma1(n)) for n in range(1, prec + 1, 2)}
    return QExpansion(Fraction(2), 1, Fraction(0), prec, coeffs)


def g_w_reference(prec: int):
    """G under the Fricke frame: Theta^4/16 - G."""
    th4 = qexp_pow_reference(theta_reference(prec), 4)
    return qexp_sum_reference([(Fraction(1, 16), th4), (-1, g_reference(prec))])


def g_v_reference(prec: int):
    """G under the V frame: -1/16 at q^0, -sigma(n)/2 for odd n and
    3 sigma(n/2) - 3 sigma(n)/2 for even n."""
    from plusforms.qexp import QExpansion

    coeffs = {0: Fraction(-1, 16)}
    for n in range(1, prec + 1):
        if n % 2:
            coeffs[n] = Fraction(-_sigma1(n), 2)
        else:
            coeffs[n] = 3 * _sigma1(n // 2) - Fraction(3 * _sigma1(n), 2)
    return QExpansion(Fraction(2), 1, Fraction(0), prec, coeffs)


@lru_cache(maxsize=None)
def _generator_power(frame: str, gen: str, e: int, prec: int):
    """(Theta or G in the frame)^e; cached because monomials share powers."""
    if gen == "theta":
        q = theta_v_reference(prec)[0] if frame == "V4" else theta_reference(prec)
    else:
        q = {"I": g_reference, "W4": g_w_reference, "V4": g_v_reference}[frame](prec)
    return qexp_pow_reference(q, e)


def monomial_reference(a: int, b: int, prec: int, frame: str):
    """Theta^a G^b in frame 'I', 'W4' or 'V4' by Fraction-dict products, as
    (series to index prec, unit phase)."""
    if frame not in ("I", "W4", "V4"):
        raise ValueError(f"unknown frame {frame!r}")
    q = _generator_power(frame, "theta", a, prec)
    if b:
        q = qexp_mul_reference(q, _generator_power(frame, "g", b, prec))
    phase = theta_v_reference(0)[1] ** a if frame == "V4" else complex(1.0)
    return qexp_sum_reference([(1, q)], prec), phase


def monomial_int_reference(a: int, b: int, prec: int, frame: str) -> tuple[tuple[int, ...], int]:
    """Theta^a G^b in frame 'I', 'W4' or 'V4' to index prec, as (integer
    numerators, common denominator), one monomial at a time by binary powers
    of Theta and of G and one product.  The library builds every monomial of
    a weight together from two shared power chains and must match this.

    In the V frame index m stands for the exponent m + (a mod 4)/4: the
    factor q^(a/4) of (Theta|V)^a moves floor(a/4) into the index.
    """
    from plusforms import intpoly
    from plusforms.qexp import _g16_frame_v, _g16_frame_w, _theta_v_core

    if frame == "I":
        theta, g, den = intpoly.theta_int(prec), intpoly.sigma_odd_int(prec), 1
    elif frame == "W4":
        theta, g, den = intpoly.theta_int(prec), _g16_frame_w(prec), 16**b
    elif frame == "V4":
        theta, g, den = _theta_v_core(prec), _g16_frame_v(prec), 16**b
    else:
        raise ValueError(f"unknown frame {frame!r}")
    series = _binary_power(theta, a, prec)
    if frame == "V4":  # times 2^a q^(a // 4)
        series = ([0] * (a // 4) + [2**a * c for c in series])[: prec + 1]
    if b:
        series = intpoly.poly_mul_trunc(series, _binary_power(g, b, prec), prec)
    return tuple(series), den


def _binary_power(a, e: int, prec: int) -> list[int]:
    """a^e truncated to index prec, by binary powering with single products."""
    from plusforms import intpoly

    result, base = [1], list(a[: prec + 1])
    while e:
        if e & 1:
            result = intpoly.poly_mul_trunc(result, base, prec)
        e >>= 1
        if e:
            base = intpoly.poly_mul_trunc(base, base, prec)
    return result


def monomial_int(a: int, b: int, prec: int, frame: str) -> tuple[tuple[int, ...], int]:
    """Theta^a G^b in frame 'I', 'W4' or 'V4' to index prec, as (integer
    numerators, common denominator), read from the library's rows of the
    full space M_k held in qexp._spaces (the identity combinations of its
    weight), possibly to a higher precision.  This is the library's own
    ladder, not an oracle: the tests compare it with monomial_int_reference.

    In the V frame index m stands for the exponent m + (a mod 4)/4: the
    factor q^(a/4) of (Theta|V)^a moves floor(a/4) into the index, and the
    phase sign (-1)^b that those rows carry (see qexp._combination_map) is
    undone, leaving the phase e(a/8)."""
    from plusforms.qexp import _spaces

    series, den = _spaces.get((Fraction(a + 4 * b, 2), "full M"), 0).get(frame, prec)[b]
    if frame == "V4" and b % 2:
        return tuple(-c for c in series[: prec + 1]), den
    return series[: prec + 1], den


def form_rows_reference(basis, i: int, frame: str, prec: int) -> tuple[list[int], int]:
    """Basis form i of a SpaceBasis in frame 'I', 'W4' or 'V4' to index prec,
    as (integer numerators, common denominator): every monomial as Python
    ints from the library's ladder (monomial_int), then their sum with the
    basis vector's coefficients over the lcm of the coefficient
    denominators.  The library combines the monomials in residue space at
    the end of one chain, with one CRT per form.

    In the V frame the phase e(a/8) of Theta^a G^b is -e(r/8) when a - r is
    4 mod 8, so that monomial's coefficient changes sign."""
    r = int(2 * basis.weight)
    rows, coeffs = [], []
    for (a, b), c in zip(basis.monomials, rational_vector(basis.vectors[i])):
        if c == 0:
            continue
        series, den = monomial_int(a, b, prec, frame)
        if frame == "V4" and (a - r) % 8:
            c = -c
        rows.append(series)
        coeffs.append(Fraction(c) / den)
    den = math.lcm(*(c.denominator for c in coeffs))
    num = [0] * (prec + 1)
    for row, c in zip(rows, coeffs):
        mult = int(c * den)
        for m, y in enumerate(row[: prec + 1]):
            num[m] += mult * y
    return num, den


def integer_row(row) -> list[int]:
    """A row of rationals times the lcm of its denominators, as ints: the
    input format of the library's exact linear algebra.  Scaling a row
    changes none of rank, kernel or reduced form."""
    den = math.lcm(*(Fraction(x).denominator for x in row))
    return [int(x * den) for x in row]


def rational_vector(vector) -> list[Fraction]:
    """A basis vector of a SpaceBasis, held as (integer numerators,
    denominator), as Fractions."""
    nums, den = vector
    return [Fraction(c, den) for c in nums]


def eigenform_coefficients_reference(f, n_max: int) -> list:
    """fhat(0..n_max) of a HalfIntegralForm: its vector over the monomials
    (sum_i c_i basis.vectors[i]), every monomial from the library's ladder,
    and one integer sum over a common denominator per power-basis
    coordinate of the scalars."""
    from plusforms.arith import FieldElement

    vectors = [rational_vector(v) for v in f.basis.vectors]
    mono = [sum((c * v[j] for c, v in zip(f.vector, vectors)), start=Fraction(0))
            for j in range(len(f.basis.monomials))]
    number_field = next((v.field for v in mono if isinstance(v, FieldElement)), None)
    degree = 1 if number_field is None else number_field.degree
    coords = [(v,) if number_field is None else number_field.coords(v) for v in mono]
    rows = [monomial_int(a, b, n_max, "I")[0] for a, b in f.basis.monomials]
    parts = []
    for t in range(degree):
        den = math.lcm(*(c[t].denominator for c in coords))
        num = [0] * (n_max + 1)
        for row, c in zip(rows, coords):
            mult = int(c[t] * den)
            for m, y in enumerate(row[: n_max + 1]):
                num[m] += mult * y
        parts.append((num, den))
    if number_field is None:
        return [Fraction(x, parts[0][1]) for x in parts[0][0]]
    return [number_field([Fraction(num[n], den) for num, den in parts]) for n in range(n_max + 1)]


def level1_coefficients_reference(F, n_max: int) -> list:
    """Fhat(0..n_max) of an IntegralForm: sum_j vector[j] * (Miller row j)
    at each index, every product and sum in exact scalar arithmetic."""
    from plusforms.hecke import _miller

    rows = _miller.get(F.weight, n_max)
    return [sum((c * row[n] for c, row in zip(F.vector, rows)), start=Fraction(0))
            for n in range(n_max + 1)]


def hecke_integral_reference(F, w: int, p: int):
    """Classical T(p) on level 1: a(n) -> a(pn) + p^(w-1) a(n/p), on a
    QExpansion of Fractions coefficient by coefficient."""
    from plusforms.qexp import PrecisionError, QExpansion

    out_prec = F.prec // p
    if out_prec < 1 and any(F.coeffs.values()):
        raise PrecisionError(f"T({p}) needs input precision >= {p}")
    coeffs: dict[int, Fraction] = {}
    pw = Fraction(p) ** (w - 1)
    for n in range(0, out_prec + 1):
        v = F.coeff(p * n)
        if n % p == 0:
            v = v + pw * F.coeff(n // p)
        if v != 0:
            coeffs[n] = v
    return QExpansion(F.weight, F.width, F.param, out_prec, coeffs)


def hecke_plus_reference(f, k, p: int):
    """Kohnen plus-space T(p^2), p odd prime, at the coefficient level, on a
    QExpansion of Fractions coefficient by coefficient:

    a(n) -> a(p^2 n) + ((-1)^(k-1/2) n | p) p^(k-3/2) a(n) + p^(2k-2) a(n/p^2).
    """
    from plusforms.arith import half_integer, kronecker_symbol
    from plusforms.qexp import PrecisionError, QExpansion

    k = half_integer(k)
    if p == 2 or p % 2 == 0:
        raise ValueError("plus-space T(p^2) implemented for odd p only")
    sign = -1 if int(k - Fraction(1, 2)) % 2 else 1
    e_mid = int(k - Fraction(3, 2))
    e_top = int(2 * k - 2)
    out_prec = f.prec // (p * p)
    if out_prec < 1 and any(f.coeffs.values()):
        raise PrecisionError(f"T({p}^2) needs input precision >= {p * p}")
    coeffs: dict[int, Fraction] = {}
    for n in range(0, out_prec + 1):
        v = f.coeff(p * p * n)
        chi = kronecker_symbol(sign * n, p)
        if chi:
            v = v + chi * Fraction(p) ** e_mid * f.coeff(n)
        if n % (p * p) == 0:
            v = v + Fraction(p) ** e_top * f.coeff(n // (p * p))
        if v != 0:
            coeffs[n] = v
    return QExpansion(f.weight, f.width, f.param, out_prec, coeffs)


def _pivot_indices_reference(basis) -> list[int]:
    pivots = []
    for q in basis.forms:
        lead = min(m for m, v in q.coeffs.items() if v != 0)
        pivots.append(lead)
    return pivots


def hecke_matrix_plus_reference(basis, p: int) -> list[list[Fraction]]:
    """Exact matrix of T(p^2) on an echelonized plus-space basis, from the
    basis forms as QExpansions of Fractions: hecke_plus_reference of each
    form, its coordinates at the pivots, and the residual check against the
    basis forms index by index up to the Sturm index (or less, when the
    forms are too short for that).  The library works on the forms' integer
    rows and checks on integers."""
    from plusforms.qexp import PrecisionError

    d = basis.dimension
    pivots = _pivot_indices_reference(basis)
    need = p * p * max(pivots)
    if basis.forms[0].prec < need:
        raise PrecisionError(f"T({p}^2) matrix needs basis precision >= {need}")
    cols = []
    for i in range(d):
        tf = hecke_plus_reference(basis.forms[i], basis.weight, p)
        coords = [tf.coeff(piv) for piv in pivots]
        # consistency: the image must be the found combination
        residual_idx = [
            n for n in range(0, min(tf.prec, basis.sturm) + 1) if n not in pivots
        ]
        for n in residual_idx:
            expect = sum(coords[j] * basis.forms[j].coeff(n) for j in range(d))
            if expect != tf.coeff(n):
                raise RuntimeError(
                    f"T({p}^2) image leaves the plus space at index {n}: "
                    "basis or operator is wrong"
                )
        cols.append(coords)
    return [[cols[i][j] for i in range(d)] for j in range(d)]


def upper_gamma_q_reference(s, x: float, dps: int = 40):
    """Regularized upper incomplete gamma Q(s, x) in dps-digit arithmetic, by
    mpmath's general routine (the library sums the finite series of an
    integer or half-integer order in float64)."""
    with mp.workdps(dps):
        return mp.gammainc(mp.mpf(s), x, mp.inf, regularized=True)


def series_eval_reference(q, z: complex, dps: int = 40):
    """sum_m a(m) e((m + param) z / width) for a QExpansion q, term by term
    in dps-digit complex arithmetic.  No scaling is needed: mpmath exponents
    do not underflow, so this is exact where float64 terms vanish."""
    with mp.workdps(dps):
        z = mp.mpc(z.real, z.imag)
        param = mp.mpf(q.param.numerator) / q.param.denominator
        total = mp.mpc(0)
        for m, a in sorted(q.coeffs.items()):
            a = Fraction(a)
            t = (m + param) / q.width
            total += mp.mpf(a.numerator) / a.denominator * mp.exp(2 * mp.pi * mp.j * t * z)
        return total


def gauss_jordan_reference(rows) -> list[list[Fraction]]:
    """The nonzero rows of the reduced echelon form, with unit pivots, by
    plain fraction Gauss-Jordan elimination."""
    rows = [[Fraction(x) for x in r] for r in rows]
    if not rows:
        return []
    rank = 0
    ncols = len(rows[0])
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][c]
        rows[rank] = [a / pv for a in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rows[:rank]


def naive_rank(rows) -> int:
    """Rank by plain fraction Gaussian elimination."""
    return len(gauss_jordan_reference(rows))


def charpoly_reference(matrix: list[list[Fraction]]) -> list[Fraction]:
    """Characteristic polynomial det(xI - M) via Faddeev-LeVerrier.

    Returns coefficients [c_0, ..., c_n] with c_n = 1, exact rationals.
    The library runs the same recursion on integer matrices with exact
    integer division.
    """
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    mk = ident
    for k in range(1, n + 1):
        mk = _mat_mul(m, mk)
        ck = -_trace(mk) / k
        coeffs[n - k] = ck
        if k < n:
            mk = [[mk[i][j] + (ck if i == j else 0) for j in range(n)] for i in range(n)]
    return coeffs


def _mat_mul(a, b):
    n = len(a)
    p = len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(p)] for i in range(n)]


def _trace(m):
    return sum(m[i][i] for i in range(len(m)))


def salie_unit_sum(c: int, n, m, k: Fraction):
    """H_c(n, m) by the O(c) double-precision sum over the units delta mod 4c:
    prefactor (1 - (-1)^(k-1/2) i)(1 + (4|c)) / (4c) times the sum of
    (4c|delta) (-1)^k[delta = 3 mod 4] e((n delta + m delta^-1) / 4c).

    n and m may be integer arrays, broadcast together, so that one table of
    units, inverses and characters serves a whole grid of indices; scalars
    give a complex."""
    from plusforms.arith import half_integer, jacobi_symbol, kronecker_symbol

    k = half_integer(k)
    n, m = np.asarray(n), np.asarray(m)
    chi4 = kronecker_symbol(4, c)
    sgn = -1 if int(k - Fraction(1, 2)) % 2 else 1
    pref = (1 - sgn * 1j) * (1 + chi4) / (4 * c)
    # (-1)^k on the principal branch, arg(-1) = +pi
    minus4_pow = {1: 1.0 + 0.0j, -1: complex(math.cos(math.pi * k), math.sin(math.pi * k))}
    mod = 4 * c
    units = [d for d in range(1, mod, 2) if math.gcd(d, mod) == 1]
    inverses = np.array(_batch_inverse(units, mod))
    weights = np.array([jacobi_symbol(mod, d) * minus4_pow[jacobi_symbol(-4, d)] for d in units])
    angle = 2.0 * np.pi * ((n[..., None] * np.array(units) + m[..., None] * inverses) % mod) / mod
    out = pref * (weights * (np.cos(angle) + 1j * np.sin(angle))).sum(axis=-1)
    return complex(out) if out.ndim == 0 else out


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


def salie_direct(c: int, n: int, m: int, k: Fraction, dps: int = 40):
    """H_c(n, m) by direct summation over units mod 4c in mpmath arithmetic."""
    from plusforms.arith import jacobi_symbol, kronecker_symbol

    with mp.workdps(dps):
        mod = 4 * c
        sgn = -1 if int(k - Fraction(1, 2)) % 2 else 1
        chi4 = kronecker_symbol(4, c)
        pref = (1 - sgn * mp.mpc(0, 1)) * (1 + chi4) / (4 * c)
        kf = mp.mpf(k.numerator) / k.denominator
        total = mp.mpc(0)
        for delta in range(1, mod):
            if math.gcd(delta, mod) != 1:
                continue
            dinv = pow(delta, -1, mod)
            chi = jacobi_symbol(mod, delta)
            eps = mp.e ** (mp.mpc(0, 1) * mp.pi * kf) if jacobi_symbol(-4, delta) == -1 else mp.mpf(1)
            total += chi * eps * mp.e ** (2j * mp.pi * mp.mpf((n * delta + m * dinv) % mod) / mod)
        return complex(pref * total)


def central_value_quadrature(F, D: int, dps: int = 30) -> float:
    """Lambda-integral route to L(F, chi_D, 1/2): numerical Mellin integral
    of the twisted theta-like sum, with the root number solved from two
    breakpoints.  Completely independent of the incomplete-gamma machinery.
    """
    from plusforms.arith import kronecker_symbol

    w = F.weight
    with mp.workdps(dps):
        a = mp.mpf(w - 1) / 2
        qc = mp.mpf(abs(D)) / (2 * mp.pi)
        coeffs = {}

        def G(v):
            total = mp.mpf(0)
            n = 0
            while True:
                n += 1
                if n not in coeffs:
                    chi = kronecker_symbol(D, n)
                    coeffs[n] = chi * mp.mpf(str(float(F.coeff(n)))) / mp.mpf(n) ** a if chi else mp.mpf(0)
                b = coeffs[n]
                if b:
                    term = b * (n / qc) ** a * mp.e ** (-n * v / qc)
                    total += term
                if n > 8 and n * v / qc > dps * 2.4 + 8:
                    break
            return v**a * total

        def half_integral(x):
            # int_x^infinity G(v) v^(-1/2) dv
            return mp.quad(lambda v: G(v) / mp.sqrt(v), [x, x + 2, x + 10, x + 40, x + 160])

        x1, x2 = mp.mpf("0.8"), mp.mpf("1.3")
        a1, a2 = half_integral(x1), half_integral(x2)
        b1, b2 = half_integral(1 / x1), half_integral(1 / x2)
        eps = (a1 - a2) / (b2 - b1)
        eps = 1 if eps > 0 else -1
        lam = a1 + eps * b1
        return float(lam / (mp.sqrt(qc) * mp.gamma(a + mp.mpf(1) / 2)))


@lru_cache(maxsize=None)
def _real_roots_reference(modulus: tuple, prec: int):
    """The real roots of a monic rational polynomial, descending, by mpmath
    polyroots at prec bits."""
    with mp.workprec(prec):
        coeffs = [mp.mpf(c.numerator) / c.denominator for c in reversed(modulus)]
        roots = mp.polyroots(coeffs, maxsteps=400, extraprec=prec)
        return sorted((mp.re(r) for r in roots), reverse=True)


def embedding_reference(x, prec: int = 448):
    """An exact scalar (Fraction or number-field element) at its field's root,
    from an mpmath polyroots root and a prec-bit sum."""
    with mp.workprec(prec):
        if isinstance(x, Fraction):
            return mp.mpf(x.numerator) / x.denominator
        r = _real_roots_reference(x.field.modulus, prec)[x.field.index]
        return mp.fsum(mp.mpf(c.numerator) / c.denominator * r**i for i, c in enumerate(x.coords))


def eval_reduced_reference(q, zs):
    """FrameSeries.eval_reduced term by term: every (point, term) pair gets
    its own real and complex exponential, in blocks of _EVAL_BLOCK points.
    The library computes each factor once per distinct y and per distinct x
    and must agree with this bit for bit."""
    from plusforms.numerics import NEG_INF
    from plusforms.supnorm import _EVAL_BLOCK

    zs = np.asarray(zs, dtype=complex)
    flat = zs.reshape(-1)
    reduced = np.zeros(flat.shape, dtype=complex)
    log_scale = np.full(flat.shape, NEG_INF)
    t, logs, signs = q.t, q.logs, q.signs
    if t.size:
        rate, freq = 2.0 * math.pi * t, 2j * math.pi * t
        for lo in range(0, flat.size, _EVAL_BLOCK):
            z = flat[lo:lo + _EVAL_BLOCK, None]
            logterm = logs - rate * z.imag
            m0 = np.max(logterm, axis=1, keepdims=True)
            terms = signs * np.exp(logterm - m0) * np.exp(freq * z.real)
            reduced[lo:lo + _EVAL_BLOCK] = np.sum(terms, axis=1)
            log_scale[lo:lo + _EVAL_BLOCK] = m0[:, 0]
    return reduced.reshape(zs.shape), log_scale.reshape(zs.shape)


def float_series_reference(q, log_scale: float = 0.0):
    """The FrameSeries of an exact QExpansion by way of an exact scalar per
    term: log|a| by log_abs_fraction of a Fraction and log|float(a)| of a
    number-field element, the sign of float(a).  The library makes the same
    arrays from integer rows (qexp.FloatView) without the scalars, bit for
    bit."""
    from plusforms.numerics import log_abs_fraction
    from plusforms.supnorm import FrameSeries

    terms = sorted((m, v) for m, v in q.coeffs.items() if v != 0)
    ms = np.array([m for m, _ in terms], dtype=np.float64)
    logs = np.array([log_abs_fraction(v) if isinstance(v, (int, Fraction))
                     else math.log(abs(float(v))) for _, v in terms], dtype=np.float64)
    signs = np.array([1.0 if float(v) > 0 else -1.0 for _, v in terms])
    return FrameSeries((ms + float(q.param)) / q.width, logs, signs, q.prec, q.param, q.width,
                       log_scale)


def plus_frames_reference(form, prec: int) -> dict:
    """label -> (exact QExpansion, log scale) of the three frames of a plus
    eigenform from its exact coefficients: fhat(n) in the identity frame,
    fhat(4m) in the Fricke frame and (-1)^m fhat(4m + a0) in the V frame,
    a0 = (-1)^(k-1/2) mod 4, both scaled by 2^(1/2 - k)."""
    from plusforms.arith import plus_sign
    from plusforms.qexp import QExpansion

    k = form.k
    coeffs = form.coefficients_upto(prec)
    log_half_pow = (0.5 - float(k)) * math.log(2.0)
    a0 = 2 - plus_sign(k)
    w_prec, v_prec = prec // 4, (prec - a0) // 4
    return {
        "I": (QExpansion(k, 1, Fraction(0), prec, {n: c for n, c in enumerate(coeffs) if c}), 0.0),
        "W4": (QExpansion(k, 1, Fraction(0), w_prec,
                          {m: c for m in range(w_prec + 1) if (c := coeffs[4 * m])}), log_half_pow),
        "V4": (QExpansion(k, 1, Fraction(a0, 4), v_prec, {
            m: c * (-1) ** m for m in range(v_prec + 1) if (c := coeffs[4 * m + a0])}),
            log_half_pow),
    }


def basis_frame_series(basis, i: int, frame: str, prec: int):
    """(exact expansion, phase) of basis form i in frame 'I', 'W4' or 'V4',
    from its integer rows: in the V frame the exponent offset (r mod 4)/4 and
    the phase e(r/8), r = 2k."""
    from plusforms.qexp import from_int_series

    row, den = basis.int_rows(frame, prec)[i]
    if frame == "V4":
        r = int(2 * basis.weight)
        phase = complex(math.cos(math.pi * r / 4), math.sin(math.pi * r / 4))
        return from_int_series(basis.weight, row, prec, den, param=Fraction(r % 4, 4)), phase
    return from_int_series(basis.weight, row, prec, den), complex(1.0)


def bracket_reference(modulus, index: int, levels) -> list[tuple[int, int]]:
    """(N, b) with the index-th largest root of modulus in (N / 2^b, (N + 1)
    / 2^b] at b = each level in turn, by bisection on Sturm's count of the
    roots above the midpoint P / 2^b alone, each chain polynomial cleared of
    denominators and its sign read from sum_i c_i P^i 2^(b(d-i))."""
    from plusforms.arith import _sign_changes, _sturm_chain

    chain = []
    for p in _sturm_chain([Fraction(c) for c in modulus]):
        den = math.lcm(*(c.denominator for c in p))
        chain.append([int(c * den) for c in p])
    at_inf = _sign_changes([p[-1] for p in chain])
    bound = 1 << (int(max(abs(Fraction(c)) for c in modulus)) + 1).bit_length()
    lo, width = Fraction(-bound), Fraction(2 * bound)
    out = []
    for bits in levels:
        while width.denominator < 1 << bits:
            width /= 2
            b = width.denominator.bit_length() - 1
            mid = int((lo + width) * (1 << b))
            values = [sum(c * mid**i << (b * (len(p) - 1 - i)) for i, c in enumerate(p))
                      for p in chain]
            if _sign_changes(values) - at_inf > index:
                lo += width
        b = width.denominator.bit_length() - 1
        out.append((int(lo * (1 << b)), b))
    return out


def theta_reference_value(z: complex, mat=(1, 0, 0, 1)) -> complex:
    """Theta(gamma z) = 1 + 2 sum e(n^2 gamma z) by direct summation.  gamma z
    is taken exactly from the float z, as (R + i y det(gamma)) / N over one
    integer N, and each phase n^2 R / N is reduced mod 1 in integers: near
    the real line n^2 reaches 10^4, where a float phase would lose 1e-12."""
    a, b, c, d = mat
    x, y = Fraction(z.real), Fraction(z.imag)
    if y <= 0:
        raise ValueError("theta_reference_value needs Im z > 0")
    den = math.lcm(x.denominator, y.denominator)
    xi, yi = int(x * den), int(y * den)
    cd = c * xi + d * den
    r = (a * xi + b * den) * cd + a * c * yi * yi
    n = cd * cd + c * c * yi * yi
    im = yi * den * (a * d - b * c) / n
    total = 1.0 + 0.0j
    for m in range(1, math.ceil(math.sqrt(40.0 / (2.0 * math.pi * im))) + 3):
        total += 2.0 * cmath.exp(2.0 * math.pi * (1j * (m * m * r % n) / n - m * m * im))
    return total


def kernel_term_reference(mat, z: complex, w: complex, k) -> complex:
    """j_Theta(gamma, z)^(-2k) ((gamma z - conj w)/(2i))^(-k) with j_Theta
    the quotient Theta(gamma z) / Theta(z) of direct sums, raised to the odd
    integer 2k; the library uses the closed form (c/d) eps_d^(-1) (cz+d)^(1/2)."""
    a, b, c, d = mat
    gz = (a * z + b) / (c * z + d)
    jt = theta_reference_value(z, mat) / theta_reference_value(z)
    return jt ** -int(2 * k) * cmath.exp(-float(k) * cmath.log((gz - w.conjugate()) / 2j))


def u_exact_reference(mat, l: int, zq: tuple[Fraction, Fraction],
                      wq: tuple[Fraction, Fraction]) -> Fraction:
    """u(gamma z, w) exactly in Fractions, for rational z = zq and w = wq; the
    library settles borderline memberships with the same quantity in integers
    over one common denominator (supnorm._exact_judge)."""
    a, b, c, d = (Fraction(t) for t in mat)
    xz, yz = zq
    xw, yw = wq
    # N = a z + b - (c z + d) conj(w); |N|^2 = 4 l yz yw (u + 1)
    re = a * xz + b - (c * xz + d) * xw - c * yz * yw
    im = a * yz - c * (yz * xw - xz * yw) + d * yw
    n2 = re * re + im * im
    return n2 / (4 * l * yz * yw) - 1


def iter_gl_reference(l: int, z: complex, delta: float, w: complex | None = None,
                      modc: int = 4):
    """The lattice enumerator one matrix at a time, yielding (matrix, u): a
    Python loop over c, d and the residue class of a mod c/gcd(c, d) found
    by a modular inverse, with u in float64 and borderline memberships
    |u - delta| < 1e-9 settled exactly.  The library builds the same
    candidates as int64 arrays and must match this in order and in u bits."""
    from plusforms.arith import divisors
    from plusforms.supnorm import _float_to_fraction

    if w is None:
        w = z
    if l < 1 or delta < 0:
        raise ValueError("need l >= 1 and delta >= 0")
    xz, yz = z.real, z.imag
    xw, yw = w.real, w.imag
    zq = (_float_to_fraction(xz), _float_to_fraction(yz))
    wq = (_float_to_fraction(xw), _float_to_fraction(yw))
    r_max = 1.0 + 2.0 * delta + 2.0 * math.sqrt(delta * delta + delta) + 1e-12
    big_r = 4.0 * l * yz * yw * (1.0 + delta)  # |N|^2 bound
    eps = 1e-9

    def check(a, b, c, d):
        re = a * xz + b - (c * xz + d) * xw - c * yz * yw
        im = a * yz - c * (yz * xw - xz * yw) + d * yw
        n2 = re * re + im * im
        u = n2 / (4.0 * l * yz * yw) - 1.0
        if u > delta + eps:
            return None
        if abs(u - delta) < eps:
            ue = u_exact_reference((a, b, c, d), l, zq, wq)
            if ue > _float_to_fraction(delta):
                return None
            u = float(ue)
        return u

    # c = 0 layer: a d = l
    for dd in divisors(l):
        for sgn in (1, -1):
            a = sgn * (l // dd)
            d = sgn * dd
            im = a * yz + d * yw
            rad = big_r - im * im
            if rad < -1e-12:
                continue
            rad = math.sqrt(max(rad, 0.0))
            # |a xz + b - d xw| <= rad
            blo = math.ceil(d * xw - a * xz - rad - 1e-9)
            bhi = math.floor(d * xw - a * xz + rad + 1e-9)
            for b in range(blo, bhi + 1):
                u = check(a, b, 0, d)
                if u is not None:
                    yield (a, b, 0, d), u

    c_abs_max = math.floor(math.sqrt(l * r_max / (yw * yz)) + 1e-9)
    im_shift = yz * xw - xz * yw
    im_bound = math.sqrt(big_r)
    for c in range(modc, c_abs_max + 1, modc):
        for c_sgn in (1, -1):
            cc = c * c_sgn
            # |c z + d|^2 in [l yz/(yw r_max), l yz r_max / yw]
            hi2 = l * yz * r_max / yw - cc * cc * yz * yz
            if hi2 < 0:
                continue
            lo2 = l * yz / (yw * r_max) - cc * cc * yz * yz
            dhi = math.floor(-cc * xz + math.sqrt(hi2) + 1e-9)
            dlo = math.ceil(-cc * xz - math.sqrt(hi2) - 1e-9)
            for d in range(dlo, dhi + 1):
                t2 = (cc * xz + d) ** 2 + cc * cc * yz * yz
                if lo2 > 0 and t2 < l * yz / (yw * r_max) - 1e-9:
                    continue
                g = math.gcd(abs(cc), abs(d)) if d else abs(cc)
                if l % g:
                    continue
                cg = abs(cc) // g
                # a d = l mod c: a = (l/g) * inv(d/g) mod (c/g)
                if cg == 1:
                    a0, step = 0, 1
                else:
                    try:
                        inv = pow((d // g) % cg, -1, cg)
                    except ValueError:
                        continue
                    a0 = ((l // g) * inv) % cg
                    step = cg
                # imag-part window: |a yz - c im_shift + d yw| <= im_bound
                base = -cc * im_shift + d * yw
                alo = (-im_bound - base) / yz
                ahi = (im_bound - base) / yz
                first = a0 + step * math.ceil((alo - a0) / step - 1e-12)
                a = first
                while a <= ahi + 1e-9:
                    ai = round(a)
                    num = ai * d - l
                    if num % cc == 0:
                        b = num // cc
                        u = check(ai, b, cc, d)
                        if u is not None:
                            yield (ai, b, cc, d), u
                    a += step


def cap_nodes_reference(order: int):
    """Gauss nodes and weights on the cap of the standard domain below y = 1,
    built point by point: x outer (weights doubled for x -> -x), y inner."""
    from plusforms.lfunctions import _gauss_nodes

    pts, wts = [], []
    xs, wx = _gauss_nodes(0.0, 0.5, order)
    for x, wgt in zip(xs, wx):
        ys, wy = _gauss_nodes(math.sqrt(1.0 - x * x), 1.0, order)
        pts.extend(x + 1j * ys)
        wts.extend(2.0 * wgt * wy)
    return np.array(pts), np.array(wts)


def domain_nodes_reference(order: int, y_cap: float = 64.0):
    """The cap nodes, then the strips [2^j, 2^(j+1)] up to y_cap, point by
    point with y outer and x inner."""
    from plusforms.lfunctions import _gauss_nodes

    pts, wts = (list(v) for v in cap_nodes_reference(order))
    lo = 1.0
    while lo < y_cap:
        hi = min(2 * lo, y_cap)
        ys, wy = _gauss_nodes(lo, hi, order)
        xs, wx = _gauss_nodes(-0.5, 0.5, order)
        for y, wgy in zip(ys, wy):
            for x, wgx in zip(xs, wx):
                pts.append(complex(x, y))
                wts.append(wgx * wgy)
        lo = hi
    return np.array(pts), np.array(wts)


def petersson_gram_reference(evals, y_cap: float = 64.0):
    """(Gram matrix, error) by 2-d Gauss quadrature over the whole standard
    domain up to y_cap, point by point in domain_nodes_reference, under each
    of the six piece maps separately (the library sums the strips y >= 1 by
    Parseval and integrates only the cap, the four Fricke translates in one
    call).  Orders 18 and 26; the error is their largest difference."""
    pieces = [("I", 1.0, 0.0)] + [("W4", 0.25, float(j)) for j in range(4)] + [("V4", 1.0, 0.0)]
    k = float(evals[0].k)
    n = len(evals)

    def assemble(order):
        g = np.zeros((n, n), dtype=complex)
        zs, wts = domain_nodes_reference(order, y_cap)
        measure = wts / zs.imag**2
        for label, scale, shift in pieces:
            vals = np.stack([ev.eval_frame_complex(label, scale * (zs + shift)) for ev in evals])
            pref = (scale * zs.imag) ** k * measure
            g += np.einsum("ip,jp,p->ij", vals, np.conjugate(vals), pref)
        return g / 6.0

    g1, g2 = assemble(18), assemble(26)
    return np.real(g2), float(np.max(np.abs(g2 - g1)))


def spectral_average_two_pass(k, m: int, rel_tol: float = 1e-8):
    """spectral_average as two fresh c-sums: poincare_coeff at 1e-7 to
    estimate |g|, then, where that is too loose, again from c = 1 at the
    tighter tol.  The library extends one running sum past the first c_max
    and must agree with this bit for bit."""
    from plusforms.arith import half_integer
    from plusforms.numerics import NEG_INF, CertifiedValue, LogScaled
    from plusforms.salie import poincare_coeff

    k = half_integer(k)
    kf = float(k)
    g = poincare_coeff(k, m, m, tol=1e-7)
    gv = abs(g.value.to_float())
    if gv > 0 and 1e-7 > 0.5 * rel_tol * gv:
        g = poincare_coeff(k, m, m, tol=max(0.5 * rel_tol * gv, 1e-15))
    pref_log = (
        math.log(6.0)
        + (kf - 1.0) * math.log(4.0 * math.pi * m)
        - math.lgamma(kf - 1.0)
    )
    val = g.value.value * LogScaled.exp_of(pref_log)
    err_log = g.value.err_log + pref_log if g.value.err_log > NEG_INF else NEG_INF
    return CertifiedValue(val, err_log)


def poincare_sum_reference(k, m: int, n: int, c_cap: int = 10**6):
    """The c-sum of g_{k,m}(n) with a checked call per term: salie_h and
    bessel_j_half's CertifiedValue for each c (the library checks
    k, n and m once per sum and calls unchecked integer and float cores).
    Returns a function certifying one running sum to an absolute tol, like
    salie._poincare_sum, which must agree with it bit for bit."""
    from plusforms.arith import admissible, half_integer
    from plusforms.numerics import NEG_INF, CertifiedValue, LogScaled, logsumexp
    from plusforms.salie import PoincareCoeff, _bessel_tail_log, salie_h

    HALF = Fraction(1, 2)
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
    c_max = max(1, math.ceil(x1 / math.sqrt((kf - 1.0) / 2.0)))
    c_done, total, bessel_err_logs = 0, 0.0j, []

    def certify(tol: float) -> PoincareCoeff:
        nonlocal c_max, c_done, total
        while True:
            tail_log = _bessel_tail_log(kf, x1, c_max + 1) + pref_log + math.log(2.0 / 3.0)
            if tail_log < math.log(tol):
                break
            if c_max > c_cap:
                raise RuntimeError(
                    f"poincare_coeff: cannot certify tail below {tol} within c <= {c_cap}"
                )
            c_max = max(c_max + 8, int(c_max * 1.3))
        for c in range(c_done + 1, c_max + 1):
            h = salie_h(c, n, m, k)
            if h == 0:
                continue
            j = bessel_j_half(k - 1, x1 / c)
            if j.value.logm < -700.0:
                # far-underflow terms are inside the certified tail already
                continue
            total += h * j.value.to_float()
            if j.err_log > NEG_INF:
                bessel_err_logs.append(j.err_log + math.log(2.0))
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


def twisted_coeffs_reference(F, D: int, n_max: int) -> np.ndarray:
    """b(n) = chi_D(n) Fhat(n) / n^((w-1)/2) for n = 1..n_max, each Fhat(n)
    made as an exact scalar and converted by float() (the library reads the
    form's float view, made from integer rows)."""
    from plusforms.arith import kronecker_symbol

    a = (F.weight - 1) / 2.0
    chi_d = [kronecker_symbol(D, r) for r in range(abs(D))]
    out = np.zeros(n_max + 1)
    for n in range(1, n_max + 1):
        chi = chi_d[n % abs(D)]
        if chi == 0:
            continue
        out[n] = chi * float(F.coeff(n)) / n**a
    return out


def ladder_walk_reference(r: int, inputs, mul, wanted):
    """(b, Theta^(r - 4b) G^b) for each b in wanted, b descending, from
    inputs = (Theta, G), r >= 1: the ladder walk written out in full, making
    the same products as qexp._walk_ladder (which hands its powers of G and
    Theta^4 to intpoly.descending_walk)."""
    theta, g = inputs
    top, hi, lo = r // 4, max(wanted), min(wanted)
    gpow = [None, g]
    for _ in range(2, hi + 1):
        gpow.append(mul(gpow[-1], g))
    theta2 = mul(theta, theta) if top or r % 4 >= 2 else None
    theta4 = mul(theta2, theta2) if top else None
    tpow = (None, theta, theta2)[r % 4] if r % 4 < 3 else mul(theta2, theta)
    for b in range(top, lo - 1, -1):
        if b < top:
            tpow = theta4 if tpow is None else mul(tpow, theta4)
        if b not in wanted:
            continue
        if not b:
            yield b, tpow
        elif tpow is None:
            yield b, gpow[b]
        else:
            yield b, mul(gpow[b], tpow)


def miller_walk_reference(w: int, inputs, mul, wanted):
    """(i, (Delta/q)^i E4^(alpha + 3(d - i)) E6^beta) for each i in wanted, a
    nonempty subset of 0..d, d = dim S_w, i descending: the Miller walk
    written out in full, making the same products as qexp._walk_miller.  It
    reads E4 when alpha > 0 or some i < d is wanted, and makes Delta/q only
    when some i >= 1 is."""
    from plusforms.hecke import _miller_shape

    d, alpha, beta = _miller_shape(w)
    eta3, *eisenstein = inputs
    e4 = eisenstein[0] if alpha or d > min(wanted) else None
    cpow = [None]
    if max(wanted) >= 1:
        core = mul(eta3, eta3)
        core = mul(core, core)
        core = mul(core, core)
        cpow.append(core)
    for _ in range(2, max(wanted) + 1):
        cpow.append(mul(cpow[-1], core))
    epart = eisenstein[-1] if beta else None
    for _ in range(alpha):
        epart = e4 if epart is None else mul(epart, e4)
    e12 = mul(mul(e4, e4), e4) if d > min(wanted) else None
    for i in range(d, min(wanted) - 1, -1):
        if i < d:
            epart = e12 if epart is None else mul(epart, e12)
        if i in wanted:
            yield i, cpow[i] if epart is None else epart if i == 0 else mul(cpow[i], epart)
