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
elimination, Salie sums by direct summation over the units mod 4c (in
doubles and in 40-digit arithmetic; the library factors them into local
sums with square roots mod prime powers), and a quadrature-based
completed-L-value with a different smoothing than the production
incomplete-gamma sums.
"""

from __future__ import annotations

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


def naive_rank(rows) -> int:
    """Rank by plain fraction Gaussian elimination."""
    rows = [[Fraction(x) for x in r] for r in rows]
    if not rows:
        return 0
    rank = 0
    ncols = len(rows[0])
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][c]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c] / pv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def salie_unit_sum(c: int, n, m, k: Fraction):
    """H_c(n, m) by the O(c) double-precision sum over the units delta mod 4c:
    prefactor (1 - (-1)^(k-1/2) i)(1 + (4|c)) / (4c) times the sum of
    (4c|delta) (-1)^k[delta = 3 mod 4] e((n delta + m delta^-1) / 4c).

    n and m may be integer arrays, broadcast together, so that one table of
    units, inverses and characters serves a whole grid of indices; scalars
    give a complex."""
    from plusforms.arith import half_integer, jacobi_symbol, kronecker_symbol
    from plusforms.numerics import unit_power

    k = half_integer(k)
    n, m = np.asarray(n), np.asarray(m)
    chi4 = kronecker_symbol(4, c)
    sgn = -1 if int(k - Fraction(1, 2)) % 2 else 1
    pref = (1 - sgn * 1j) * (1 + chi4) / (4 * c)
    minus4_pow = {1: 1.0 + 0.0j, -1: unit_power(-1, k)}
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
    """QExpansion.eval_reduced term by term: every (point, term) pair gets its
    own real and complex exponential, in blocks of _EVAL_BLOCK points.  The
    library computes each factor once per distinct y and per distinct x and
    must agree with this bit for bit."""
    from plusforms.numerics import NEG_INF
    from plusforms.qexp import _EVAL_BLOCK

    zs = np.asarray(zs, dtype=complex)
    flat = zs.reshape(-1)
    reduced = np.zeros(flat.shape, dtype=complex)
    log_scale = np.full(flat.shape, NEG_INF)
    t, logs, signs = q._arrays()
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


def iter_gl_reference(l: int, z: complex, delta: float, w: complex | None = None,
                      modc: int = 4):
    """The lattice enumerator one matrix at a time, yielding (matrix, u): a
    Python loop over c, d and the residue class of a mod c/gcd(c, d) found
    by a modular inverse, with u in float64 and borderline memberships
    |u - delta| < 1e-9 settled exactly.  The library builds the same
    candidates as int64 arrays and must match this in order and in u bits."""
    from plusforms.arith import divisors
    from plusforms.supnorm import _float_to_fraction, _u_exact

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
            ue = _u_exact((a, b, c, d), l, zq, wq)
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
