"""Sup-norm evaluation, lattice-point counting and the amplified kernel bound.

Evaluation of the invariant y^(k/2) |(f|ki)(z)| in the three frames that
cover a fundamental domain of Gamma_0(4) (identity, Fricke, and the frame
moving the cusp 1/2) at single points or whole arrays of points.  Each frame
is a FrameSeries sliced from one float view (qexp.FloatView), and
`FrameSeries.eval_reduced` is the one place where a truncated series is
summed at points: the evaluators, the scan, the Petersson quadratures and
the Bergman kernel's spectral side all evaluate through it.  Also:
grid+golden-section sup-norm scans (one array call per frame for the grid),
enumeration of

    G_l(4) = { integer 2x2 gamma : det gamma = l, c = 0 mod 4 }

inside hyperbolic balls u(gamma z, w) <= delta (as int64 arrays, by
`gl_arrays`), the four counting classes,
Bergman kernel partial sums with the theta multiplier in closed form,
the amplifier weights y_l, and the weight-aspect scaling
experiment for the spectral average of |fhat_j(1)|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .arith import admissible, divisors, half_integer, kronecker_symbol, plus_sign, primes_up_to
from .numerics import NEG_INF, LogScaled
from .qexp import FloatView, PrecisionError, SpaceBasis
from .salie import spectral_average, bessel_correction_factor

SQRT3_OVER_8 = math.sqrt(3.0) / 8.0

FRAME_LABELS = ("I", "W4", "V4")


# points per block in FrameSeries.eval_reduced: bounds its work arrays at
# 256 x (number of terms) complex entries
_EVAL_BLOCK = 256


@dataclass
class FrameSeries:
    """A truncated series e^log_scale sum_{m <= prec} a(m) e((m + param) z /
    width) with real a(m), held as floats over its nonzero terms: t = (m +
    param) / width ascending, log|a(m)| and the sign of a(m)."""

    t: np.ndarray
    logs: np.ndarray
    signs: np.ndarray
    prec: int
    param: Fraction = Fraction(0)
    width: int = 1
    log_scale: float = 0.0

    @staticmethod
    def of_terms(ms, logs, signs, prec: int, param=Fraction(0), log_scale: float = 0.0):
        """The series of the terms m in ms with log|a(m)| and sign logs and
        signs (arrays beside ms); the terms of sign 0 are dropped."""
        keep = np.asarray(signs) != 0
        return FrameSeries(np.asarray(ms, dtype=np.float64)[keep] + float(param),
                           np.asarray(logs, dtype=np.float64)[keep],
                           np.asarray(signs, dtype=np.float64)[keep], prec, param,
                           log_scale=log_scale)

    def eval_reduced(self, zs, upto: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Series values at zs, a point or an array of points of any shape, as
        (reduced, log_scale) arrays of that shape: value = reduced * e^log_scale
        * e^self.log_scale.  With upto, only the terms of index m <= upto are
        summed (a prefix of the sorted term arrays, with the same factor
        tables and tiles), and the values are those of the series truncated
        there, bit for bit.

        Each point is shifted by its own largest log term, so a value whose
        terms all underflow float64 (large y) is still found.  A term is
        sign * e^(log|a| - 2 pi t y - shift(y)) times e^(2 pi i t x): the real
        factor is computed once per distinct y and the phase once per distinct
        x.  The points are cut into tiles of at most _EVAL_BLOCK distinct y by
        _EVAL_BLOCK distinct x, which bounds both factor tables; within a tile,
        blocks of _EVAL_BLOCK points gather their (points, terms) products and
        sum each row.  A tensor grid of points costs about one exp per row and
        one per column, and every value equals the term-by-term sum bit for bit.
        A single point (with terms to sum) runs the same operations on the
        1-d term rows and returns numpy scalars.
        """
        t, logs, signs = self.t, self.logs, self.signs
        if upto is not None:
            n = np.searchsorted(t, (upto + float(self.param)) / self.width, side="right")
            t, logs, signs = t[:n], logs[:n], signs[:n]
        rate, freq = 2.0 * math.pi * t, 2j * math.pi * t
        if t.size and np.ndim(zs) == 0:
            z = complex(zs)
            logterm = logs - rate * z.imag
            m0 = np.max(logterm)
            return np.sum(signs * np.exp(logterm - m0) * np.exp(freq * z.real)), m0
        zs = np.asarray(zs, dtype=complex)
        flat = zs.reshape(-1)
        reduced = np.zeros(flat.shape, dtype=complex)
        log_scale = np.full(flat.shape, NEG_INF)
        if t.size and flat.size:
            for pts, ys, iy, xs, ix in _tiles(flat):
                logterm = logs - rate * ys[:, None]
                m0 = np.max(logterm, axis=1, keepdims=True)
                real = signs * np.exp(logterm - m0)
                phase = np.exp(freq * xs[:, None])
                for lo in range(0, pts.size, _EVAL_BLOCK):
                    r, x = iy[lo:lo + _EVAL_BLOCK], ix[lo:lo + _EVAL_BLOCK]
                    reduced[pts[lo:lo + _EVAL_BLOCK]] = np.sum(real[r] * phase[x], axis=1)
                    log_scale[pts[lo:lo + _EVAL_BLOCK]] = m0[r, 0]
        return reduced.reshape(zs.shape), log_scale.reshape(zs.shape)


def _distinct(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values of v and the index of each entry among them."""
    if v.size == 1:
        return v, np.zeros(1, dtype=np.intp)
    return np.unique(v, return_inverse=True)


def _tiles(flat: np.ndarray):
    """Cut the points flat into tiles of at most _EVAL_BLOCK distinct y by at
    most _EVAL_BLOCK distinct x, yielding (indices into flat, the tile's
    distinct y, each point's index among them, likewise for x).

    A band holds _EVAL_BLOCK consecutive distinct y; the distinct x of each
    band are numbered in order and cut into runs of _EVAL_BLOCK.  A tensor
    grid with few columns is one tile per band, and scattered points make
    about one tile per _EVAL_BLOCK points.
    """
    ys, iy = _distinct(flat.imag)
    xs, ix = _distinct(flat.real)
    if ys.size <= _EVAL_BLOCK and xs.size <= _EVAL_BLOCK:
        yield np.arange(flat.size), ys, iy, xs, ix
        return
    band = iy // _EVAL_BLOCK
    pairs, ip = np.unique(band * xs.size + ix, return_inverse=True)
    pair_band = pairs // xs.size
    rank = np.arange(pairs.size) - np.searchsorted(pair_band, pair_band)
    tile = band * (xs.size // _EVAL_BLOCK + 1) + rank[ip] // _EVAL_BLOCK
    order = np.argsort(tile, kind="stable")
    for pts in np.split(order, np.flatnonzero(np.diff(tile[order])) + 1):
        uy, ry = np.unique(iy[pts], return_inverse=True)
        ux, rx = np.unique(ix[pts], return_inverse=True)
        yield pts, ys[uy], ry, xs[ux], rx


def _guard_index(k, width: int, y: float) -> int:
    """The last index the truncation guard sums at height y: 3x the peak
    index k*width/(4 pi y) plus 40 sqrt(k)."""
    kf = float(k)
    peak = kf * width / (4.0 * math.pi * y)
    return math.ceil(3.0 * peak + 40.0 * math.sqrt(kf))


def plus_form_precision(k) -> int:
    """The default coefficient precision of a plus form scanned down to
    y = sqrt(3)/8: 900, or from 49/2 on the least precision at which all three
    frames of FormEvaluator.from_plus_form store the index the guard asks for
    there (the Fricke frame keeps prec // 4 terms, the V frame
    (prec - a0) // 4)."""
    k = half_integer(k)
    return max(900, 4 * _guard_index(k, 1, SQRT3_OVER_8) + 2 - plus_sign(k))


@dataclass
class FormEvaluator:
    """Evaluates y^(k/2) |(f|ki)(z)| in each frame, overflow-safe.

    Truncation is guarded: at points of least height y, evaluation sums
    exactly the terms up to index 3x the peak index k*width/(4 pi y) plus
    40 sqrt(k), and eval_frame demands that many be stored.
    """

    k: Fraction
    frames: dict[str, FrameSeries]

    @staticmethod
    def from_plus_form(form, prec: int = 677) -> "FormEvaluator":
        """The three frames of a plus-space eigenform from the float view of
        its coefficients to index prec, by default 677 = 4 * 13^2 + 1 (exact
        transfer: the Fricke frame sees fhat(4m), the V frame (-1)^m
        fhat(4m + a0), a0 = (-1)^(k-1/2) mod 4)."""
        k, a0 = form.k, 2 - plus_sign(form.k)  # m = (-1)^(k-1/2) mod 4 is 1 or 3
        logs, signs = (np.array(v) for v in form.view(prec).terms(prec))
        half_pow = (0.5 - float(k)) * math.log(2.0)
        w, v = np.arange(prec // 4 + 1), np.arange((prec - a0) // 4 + 1)
        return FormEvaluator(k, {
            "I": FrameSeries.of_terms(np.arange(prec + 1), logs, signs, prec),
            "W4": FrameSeries.of_terms(w, logs[4 * w], signs[4 * w], prec // 4, log_scale=half_pow),
            "V4": FrameSeries.of_terms(v, logs[4 * v + a0], signs[4 * v + a0] * (1 - 2 * (v % 2)),
                                       (prec - a0) // 4, Fraction(a0, 4), half_pow)})

    @staticmethod
    def from_basis_element(basis: SpaceBasis, i: int, prec: int) -> "FormEvaluator":
        """Frame expansions of a (not necessarily plus) basis form, from its
        integer rows to index prec (SpaceBasis.int_rows)."""
        frames = {}
        for label in FRAME_LABELS:
            row, den = basis.int_rows(label, prec)[i]
            param = Fraction(int(2 * basis.weight) % 4 if label == "V4" else 0, 4)
            frames[label] = FrameSeries.of_terms(
                range(prec + 1), *FloatView([row[: prec + 1]], den).terms(prec), prec, param)
        return FormEvaluator(basis.weight, frames)

    def required_precision(self, label: str, y: float) -> int:
        return _guard_index(self.k, self.frames[label].width, y)

    def _eval_guarded(self, label: str, z, y_min: float, check: bool):
        """eval_reduced of the frame's series at z, summed up to the index the
        guard asks for at y_min, the lowest point of z (all stored terms if
        fewer); with check, fewer raise PrecisionError."""
        series = self.frames[label]
        need = self.required_precision(label, y_min)
        if check and series.prec < need:
            raise PrecisionError(
                f"frame {label} at y={y_min:.4g} needs coefficient index {need},"
                f" stored {series.prec}"
            )
        return series.eval_reduced(z, upto=need)

    def eval_frame(self, label: str, z, check: bool = True) -> LogScaled:
        """y^(k/2) |(f|ki)(z)| as a LogScaled value.  For an array of points
        its sign and logm are arrays of the same shape; a single point takes
        the same operations on scalars."""
        fs = self.frames[label]
        one = np.ndim(z) == 0
        y = z.imag if one else np.imag(z)
        reduced, m0 = self._eval_guarded(label, z, y if one else float(np.min(y)), check)
        r = np.hypot(reduced.real, reduced.imag)
        shift = 0.5 * float(self.k) * np.log(y) + fs.log_scale
        if one:
            return LogScaled(int(r > 0.0), float(m0 + (np.log(r) if r > 0.0 else NEG_INF) + shift))
        with np.errstate(divide="ignore"):
            logm = m0 + np.log(r) + shift
        return LogScaled(np.where(r > 0.0, 1, 0), logm)

    def eval_frame_complex(self, label: str, z):
        """Raw series value (f|ki)(z) (no y-power), for kernel work; an array
        of the shape of z for an array of points."""
        fs = self.frames[label]
        reduced, logf = self._eval_guarded(label, z, float(np.min(np.imag(z))), check=False)
        return reduced * np.exp(logf + fs.log_scale)

    # -- evaluation anywhere on the upper half plane -------------------------

    def eval_invariant(self, z: complex) -> LogScaled:
        """The Gamma_0(4)-invariant y^(k/2)|f(z)| at an arbitrary point.

        Reduces z to the standard fundamental domain, identifies the coset of
        the reducing matrix by its bottom row mod 4, and evaluates through
        the frame that sees that cusp.
        """
        mat, w = sl2_reduce(z)
        c, d = mat[2] % 4, mat[3] % 4
        if c == 0:
            return self.eval_frame("I", w)
        if c == 2:
            return self.eval_frame("V4", w)
        j = (d * pow(c, -1, 4)) % 4
        return self.eval_frame("W4", (w + j) / 4.0)


def sl2_reduce(z: complex) -> tuple[tuple[int, int, int, int], complex]:
    """(gamma, w) with z = gamma w and w in the standard fundamental domain."""
    a, b, c, d = 1, 0, 0, 1  # z = gamma w, updated as w changes
    w = z
    for _ in range(10000):
        shift = math.floor(w.real + 0.5)
        if shift:
            w = w - shift
            a, b = a, b + a * shift
            c, d = c, d + c * shift
        if abs(w) < 1.0 - 1e-15:
            w = -1.0 / w
            a, b = b, -a
            c, d = d, -c
        else:
            break
    return (a, b, c, d), w


# ---------------------------------------------------------------------------
# Sup-norm scan
# ---------------------------------------------------------------------------


@dataclass
class ScanResult:
    sup: LogScaled
    frame: str
    x: float
    y: float
    per_frame: dict[str, tuple[LogScaled, float, float]]
    boundary: bool = False
    near_cusp: bool = False  # argmax has y >= k^(1/4): the expansion regime


def supnorm_scan(
    ev: FormEvaluator,
    nx: int = 24,
    ny: int = 48,
    refine_rounds: int = 3,
) -> ScanResult:
    """max over the three frames of sup_{y >= y_min} y^(k/2)|(f|ki)(z)|,
    y_min = sqrt(3)/8, searched up to y_max = 12 k / pi.

    Coarse grid (log-spaced in y), evaluated in one call per frame, then
    coordinate-wise golden-section refinement around the first best grid
    point of each frame in y-then-x order.
    """
    kf = float(ev.k)
    y_min, y_max = SQRT3_OVER_8, 12.0 * kf / math.pi
    ys = np.exp(np.linspace(math.log(y_min), math.log(y_max), ny))
    xs = np.linspace(0.0, 1.0, nx, endpoint=False)
    grid = xs + 1j * ys[:, None]  # row i is y = ys[i]
    per_frame = {}
    for label in FRAME_LABELS:
        vals = ev.eval_frame(label, grid)
        iy, ix = np.unravel_index(np.argmax(vals.logm), grid.shape)
        v = LogScaled(int(vals.sign[iy, ix]), float(vals.logm[iy, ix]))
        x, y = float(xs[ix]), float(ys[iy])
        dx = xs[1] - xs[0]
        for _ in range(refine_rounds):
            x, v = _golden(lambda t: ev.eval_frame(label, complex(t, y)), x - dx, x + dx, v, x)
            ylo = max(y_min, y / (ys[1] / ys[0]))
            yhi = min(y_max, y * (ys[1] / ys[0]))
            y, v = _golden(lambda t: ev.eval_frame(label, complex(x, t)), ylo, yhi, v, y)
            dx /= 4.0
        per_frame[label] = (v, x, y)
    label = max(per_frame, key=lambda L: per_frame[L][0])
    v, x, y = per_frame[label]
    boundary = abs(y - y_min) < 1e-9 or abs(y - y_max) < 1e-9
    return ScanResult(v, label, x, y, per_frame, boundary, y >= kf**0.25)


def _golden(fn, lo: float, hi: float, v0: LogScaled, x0: float):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(28):  # the bracket shrinks to 0.618^28 < 2e-6 of its width
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
    xm = (a + b) / 2.0
    vm = fn(xm)
    if vm > v0:
        return xm, vm
    return x0, v0


# ---------------------------------------------------------------------------
# Point-pair invariants and lattice enumeration
# ---------------------------------------------------------------------------


def u_invariant(z: complex, w: complex) -> float:
    """u(z, w) = |z - w|^2 / (4 Im z Im w)."""
    return abs(z - w) ** 2 / (4.0 * z.imag * w.imag)


def apply_matrix(mat, z: complex) -> complex:
    a, b, c, d = mat
    return (a * z + b) / (c * z + d)


def _float_to_fraction(x: float) -> Fraction:
    return Fraction(x).limit_denominator(10**12)


def _exact_judge(l: int, z: complex, w: complex, delta: float):
    """Exact membership of borderline rows: z, w, delta as fractions
    (_float_to_fraction), the coordinates over one denominator D, so D^2 N,
    N = a z + b - (c z + d) conj(w), is integral and u <= delta compares
    integers.  Returns (a, b, c, d) -> u rounded to float, or None if u > delta."""
    xz, yz, xw, yw = (_float_to_fraction(t) for t in (z.real, z.imag, w.real, w.imag))
    dq = _float_to_fraction(delta)
    den = math.lcm(xz.denominator, yz.denominator, xw.denominator, yw.denominator)
    xz, yz, xw, yw = (int(t * den) for t in (xz, yz, xw, yw))
    norm = 4 * l * yz * yw * den * den  # D^4 |N|^2 at u = 0
    bound = norm * (dq.numerator + dq.denominator)

    def judge(a: int, b: int, c: int, d: int) -> float | None:
        re = (a * xz - d * xw + b * den) * den - c * (xz * xw + yz * yw)
        im = (a * yz + d * yw) * den - c * (yz * xw - xz * yw)
        n2 = re * re + im * im
        return None if n2 * dq.denominator > bound else (n2 - norm) / norm

    return judge


def enumerate_gl(l: int, z: complex, delta: float,
                 w: complex | None = None) -> list[tuple[int, int, int, int]]:
    """All gamma in G_l(4) with u(gamma z, w) <= delta (w defaults to z), as
    sorted (a, b, c, d) tuples; see gl_arrays for the enumeration."""
    mats, _u = gl_arrays(l, z, delta, w=w)
    return sorted(map(tuple, mats.tolist()))


# candidates per block of gl_arrays: bounds its int64 work arrays
_LATTICE_BLOCK = 1 << 12


def gl_arrays(l: int, z: complex, delta: float,
              w: complex | None = None) -> tuple[np.ndarray, np.ndarray]:
    """All gamma in G_l(4) with u(gamma z, w) <= delta (w defaults to z), as an
    (n, 4) int64 array of rows (a, b, c, d) and the float u of each row.

    The c = 0 layer comes first: a d = l over the divisors d of l, ascending,
    sign + then -, each with b ascending in its window.  Then c = 4, -4, 8,
    -8, ... up to the bound that u <= delta puts on |c|, each with d
    ascending in the window of |c z + d|^2, all (c, d) pairs in one array.
    The a with c | a d - l form one class mod |c| / gcd(c, d), or none
    (_congruence_classes).  With b = (a d - l) / c, N = a z + b - (c z + d)
    conj(w) is linear in a, so |N|^2 <= 4 l yz yw (1 + delta + 2e-9) is an
    interval of a (_interval); its members of the class, a ascending, are
    the candidates, in blocks of about _LATTICE_BLOCK.  u is computed in
    float64, and the memberships with |u - delta| < 1e-9 are settled in
    integers (_exact_judge, built at the first such row).  A non-finite z, w
    or delta, a z or w off the upper half-plane, or an l or delta whose
    windows reach entries of 2^30, raises ValueError.
    """
    if w is None:
        w = z
    if not all(map(math.isfinite, (z.real, z.imag, w.real, w.imag, delta))):
        raise ValueError("z, w and delta must be finite")
    if l < 1 or delta < 0:
        raise ValueError("need l >= 1 and delta >= 0")
    if not (z.imag > 0 and w.imag > 0):
        raise ValueError("z and w must lie in the upper half-plane")
    xz, yz = z.real, z.imag
    xw, yw = w.real, w.imag
    r_max = 1.0 + 2.0 * delta + 2.0 * math.sqrt(delta * delta + delta) + 1e-12
    big_r = 4.0 * l * yz * yw * (1.0 + delta)  # |N|^2 bound
    c_bound = math.sqrt(l * r_max / (yw * yz))
    im_shift = yz * xw - xz * yw
    im_bound = math.sqrt(big_r)
    d_bound = c_bound * abs(xz) + math.sqrt(l * yz * r_max / yw) + 1.0
    a_bound = (im_bound + c_bound * abs(im_shift) + d_bound * yw) / yz + 2.0
    b_bound = l * (abs(xz) + abs(xw)) + im_bound + 1.0
    # entries below 2^30 keep a d - l and (a + d)^2 inside int64
    if not max(l, c_bound, d_bound, a_bound, b_bound) < 2.0**30:
        raise ValueError(f"l = {l}, delta = {delta}: matrix entries could overflow int64")

    norm = 4.0 * l * yz * yw
    r_cut = norm * (1.0 + delta + 2e-9)  # |N|^2 bound of the candidates
    mats, us = [np.zeros((0, 4), dtype=np.int64)], [np.zeros(0)]
    judge = None

    def take(a, b, c, d):
        """Keep the rows (a, b, c, d) with u(gamma z, w) <= delta."""
        nonlocal judge
        re = a * xz + b - (c * xz + d) * xw - c * yz * yw
        im = a * yz - c * (yz * xw - xz * yw) + d * yw
        u = (re * re + im * im) / norm - 1.0
        keep = ~(u > delta + 1e-9)
        for j in np.flatnonzero(keep & (np.abs(u - delta) < 1e-9)).tolist():
            judge = judge or _exact_judge(l, z, w, delta)
            ue = judge(int(a[j]), int(b[j]), int(c[j]), int(d[j]))
            if ue is None:
                keep[j] = False
            else:
                u[j] = ue
        mats.append(np.stack([a, b, c, d], 1)[keep])
        us.append(u[keep])

    # c = 0: a d = l, N = a xz + b - d xw + i (a yz + d yw) linear in b
    d = np.array([sgn * t for t in divisors(l) for sgn in (1, -1)], dtype=np.int64)
    a = l // d
    i, b = _ranges(*_interval(d * xw - a * xz, r_cut - (a * yz + d * yw) ** 2))
    take(a[i], b, np.zeros_like(b), d[i])

    # c = 4, -4, 8, -8, ...: d in the window |c z + d|^2 <= l yz r_max / yw
    c = np.arange(4, math.floor(c_bound + 1e-9) + 1, 4, dtype=np.int64)
    c = np.stack([c, -c], 1).ravel()
    i, d = _ranges(*_interval(-c * xz, l * yz * r_max / yw - c * c * yz * yz))
    a0, step = _congruence_classes(np.abs(c[i]), d, l)
    has = a0 >= 0
    c, d, a0, step = c[i][has], d[has], a0[has], step[has]
    # b = (a d - l) / c makes N = p a + q + i (yz a + s) linear in a
    p = xz + d / c
    q = -l / c - (c * xz + d) * xw - c * yz * yw
    s = -c * im_shift + d * yw
    sq = p * p + yz * yz
    alo, ahi = _interval(-(p * q + yz * s) / sq, (r_cut * sq - (p * s - q * yz) ** 2) / sq**2)
    # a = a0 + j step over [alo, ahi]
    for i, j in _blocks(-((a0 - alo) // step), (ahi - a0) // step):
        a, ci, di = a0[i] + step[i] * j, c[i], d[i]
        take(a, (a * di - l) // ci, ci, di)

    return np.concatenate(mats), np.concatenate(us)


def _interval(centre: np.ndarray, half_sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The integers (lo, hi) of [centre - h, centre + h], h = sqrt(half_sq),
    widened by 1e-7 (1 + |centre| + h) against rounding; empty (hi < lo)
    where half_sq < 0."""
    half = np.sqrt(np.maximum(half_sq, 0.0))
    slack = 1e-7 * (1.0 + np.abs(centre) + half)
    lo = np.ceil(centre - half - slack).astype(np.int64)
    return lo, np.where(half_sq < 0, lo - 1, np.floor(centre + half + slack).astype(np.int64))


def _congruence_classes(c: np.ndarray, d: np.ndarray, l: int) -> tuple[np.ndarray, np.ndarray]:
    """(a0, step) with c | a d - l exactly when a = a0 mod step, step =
    c / gcd(c, d) and 0 <= a0 < step, for each c > 0 and d; a0 = -1 where no
    a solves it.  Extended Euclid on (c, d mod c), keeping r = s d mod c, on
    every pair at once until each remainder is 0."""
    r0, r1 = c.copy(), d % c
    s0, s1 = np.zeros_like(c), np.ones_like(c)
    live = np.flatnonzero(r1)
    while live.size:
        qt = r0[live] // r1[live]
        r0[live], r1[live] = r1[live], r0[live] - qt * r1[live]
        s0[live], s1[live] = s1[live], s0[live] - qt * s1[live]
        live = live[r1[live] != 0]
    # r0 = g = gcd(c, d) = s0 d mod c: a = s0 l / g mod c / g when g | l
    step = c // r0
    return np.where(l % r0 == 0, (s0 % step) * ((l // r0) % step) % step, -1), step


def _ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, x) int64 arrays running over lo[i] <= x <= hi[i], i then x
    ascending."""
    counts = np.maximum(hi - lo + 1, 0)
    i = np.repeat(np.arange(lo.size), counts)
    return i, lo[i] + np.arange(i.size) - (np.cumsum(counts) - counts)[i]


def _blocks(lo: np.ndarray, hi: np.ndarray):
    """_ranges(lo, hi) in blocks of about _LATTICE_BLOCK pairs (one i at
    least)."""
    ends = np.cumsum(np.maximum(hi - lo + 1, 0))
    i = 0
    while i < lo.size:
        start = ends[i - 1] if i else 0
        j = max(i + 1, int(np.searchsorted(ends, start + _LATTICE_BLOCK, side="right")))
        k, x = _ranges(lo[i:j], hi[i:j])
        yield k + i, x
        i = j


def enumerate_box(l: int, z: complex, delta: float,
                  box: int | None = None) -> list[tuple[int, int, int, int]]:
    """Exhaustive reference enumerator over an analysis-derived entry box.

    Iterates all (a, d, c = 0 mod 4) in the box, solving for b (by the
    determinant when c != 0, over the box when c = 0); exact membership for
    borderline u.  Slow; the oracle the fast enumerator is tested against.
    """
    xz, yz = z.real, z.imag
    r_max = 1.0 + 2.0 * delta + 2.0 * math.sqrt(delta * delta + delta) + 1e-9
    if box is None:
        cb = math.sqrt(l * r_max) / yz
        db = abs(xz) * cb + math.sqrt(l * r_max)
        tb = 2.0 * math.sqrt(l * (1.0 + delta))
        bb = (
            2.0 * yz * math.sqrt(l * (1.0 + delta))
            + (abs(xz) + abs(z) ** 2 / yz) * (tb + db) * 2
        )
        box_c, box_d, box_a, box_b = (
            math.floor(cb + 1),
            math.floor(db + 1),
            math.floor(tb + db + 1),
            math.floor(bb + 1),
        )
    else:
        box_c = box_d = box_a = box_b = box
    out = []
    judge = None
    eps = 1e-9
    for c in range(-(box_c // 4) * 4, box_c + 1, 4):
        for d in range(-box_d, box_d + 1):
            for a in range(-box_a, box_a + 1):
                if c == 0:
                    if d == 0 or a * d != l:
                        continue
                    brange = range(-box_b, box_b + 1)
                else:
                    num = a * d - l
                    if num % c:
                        continue
                    brange = (num // c,)
                for b in brange:
                    gz = ((a * z + b) / (c * z + d))
                    if gz.imag <= 0:
                        continue
                    u = u_invariant(gz, z)
                    if u > delta + eps:
                        continue
                    if abs(u - delta) < eps:
                        judge = judge or _exact_judge(l, z, z, delta)
                        if judge(a, b, c, d) is None:
                            continue
                    out.append((a, b, c, d))
    return sorted(out)


@dataclass
class CountRecord:
    """The four matrix counts at (z, l, delta), with witnesses.

    The defining classes can overlap (and do not partition M in general):
    each count follows its own literal condition.
    """

    z: complex
    l: int
    delta: float
    M: int
    M_star: int
    M_u: int
    M_p: int
    witnesses: list[tuple[int, int, int, int]] = field(default_factory=list)


def count_matrices(z: complex, l: int, delta: float, keep_witnesses: bool = True) -> CountRecord:
    """The four counts at (z, l, delta), taken on the arrays of gl_arrays;
    the witnesses are enumerate_gl's sorted list."""
    mats, _u = gl_arrays(l, z, delta)
    a, _b, c, d = mats.T
    parabolic = (a + d) ** 2 == 4 * l
    return CountRecord(
        z, l, delta, len(mats),
        int(np.count_nonzero((c != 0) & ~parabolic)),
        int(np.count_nonzero((c == 0) & (a != d))),
        int(np.count_nonzero(parabolic)),
        sorted(map(tuple, mats.tolist())) if keep_witnesses else [],
    )


# ---------------------------------------------------------------------------
# Bergman kernel
# ---------------------------------------------------------------------------


def _kernel_terms(mats: np.ndarray, z: complex, w: complex, k) -> np.ndarray:
    """j_Theta(gamma, z)^(-2k) ((gamma z - conj w)/(2i))^(-k) for each row
    (a, b, c, d) of mats, with the theta multiplier in closed form
    j_Theta(gamma, z) = (c/d) eps_d^(-1) (c z + d)^(1/2): Shimura's symbol
    (c/d), eps_d = 1 or i for d = 1 or 3 mod 4, and the principal root.
    Since 2k is odd, the term is (c/d) eps_d^(2k) exp(-k (Log(c z + d) +
    Log(base))) with principal logarithms, so no branch is merged."""
    kf = float(k)
    a, b, c, d = mats.T.astype(np.float64)
    czd = c * z + d
    base = ((a * z + b) / czd - w.conjugate()) / 2j
    chi = np.array([kronecker_symbol(ci, di) for ci, di in mats[:, 2:].tolist()], dtype=np.float64)
    eps = np.where(mats[:, 3] % 4 == 3, 1j ** (int(2 * k) % 4), 1.0)
    return chi * eps * np.exp(-kf * (np.log(czd) + np.log(base)))


def bergman_partial(z: complex, w: complex, k, tol: float = 1e-4) -> tuple[complex, float]:
    """Truncated group-side Bergman kernel

        3(k-1)/(4 pi) sum_{gamma in G_1(4), u(gamma z, w) <= u_cut}
            j_Theta(gamma, z)^(-2k) ((gamma z - conj w)/(2i))^(-k),

    u_cut = max(24, 2 tol^(-2/k)), with the theta multiplier in closed form
    (_kernel_terms).  Returns (value, heuristic error estimate: twice the
    absolute sum of the terms with u > u_cut / 2).
    """
    k = half_integer(k)
    kf = float(k)
    u_cut = max(24.0, (1.0 / tol) ** (2.0 / kf) * 2.0)
    pref = 3.0 * (kf - 1.0) / (4.0 * math.pi)
    mats, us = gl_arrays(1, z, u_cut, w=w)
    terms = _kernel_terms(mats, z, w, k)
    shell = float(np.abs(terms[us > 0.5 * u_cut]).sum())
    return complex(pref * terms.sum()), pref * (shell + 1e-300) * 2.0


def bergman_spectral(z: complex, w: complex, evaluators: list[FormEvaluator],
                     gram: list[list[float]]) -> complex:
    """Spectral side sum_j conj(f_j(w)) f_j(z) from a basis with Gram matrix."""
    g = np.array(gram, dtype=np.float64)
    ginv = np.linalg.inv(g)
    vz, vw = np.array([ev.eval_frame_complex("I", np.array([z, w])) for ev in evaluators]).T
    return complex(np.conjugate(vw) @ ginv @ vz)


# ---------------------------------------------------------------------------
# Amplifier
# ---------------------------------------------------------------------------


@dataclass
class AmplifierSpec:
    lam: float
    kind: str  # 'M1' (squares) or 'M2' (fourth powers)
    primes: list[int]
    x: dict[int, int]  # m -> sign in {-1, +1}
    y: dict[int, int]  # l -> integer weight y_l


def amplifier_build(lam: float, kind: str, a_values: dict[int, float]) -> AmplifierSpec:
    """Amplifier with x_m = sign(A_1(m)) over m = p^2 (M1) or p^4 (M2),
    primes p in [lam, 2 lam), p != 2; y_l by the exact double-loop."""
    if kind not in ("M1", "M2"):
        raise ValueError("kind must be 'M1' or 'M2'")
    e = 2 if kind == "M1" else 4
    primes = [p for p in primes_up_to(math.ceil(2 * lam)) if lam <= p < 2 * lam and p != 2]
    if not primes:
        raise ValueError(f"no odd primes in [{lam}, {2 * lam})")
    ms = [p**e for p in primes]
    x = {}
    for m in ms:
        av = a_values.get(m, 1.0)
        x[m] = 1 if av >= 0 else -1
    y: dict[int, int] = {}
    for m1 in ms:
        for m2 in ms:
            g = math.gcd(m1, m2)
            for d in divisors(g):
                if d * d > g or g % (d * d):
                    continue
                l = m1 * m2 // d**4
                y[l] = y.get(l, 0) + x[m1] * x[m2]
    return AmplifierSpec(lam, kind, primes, x, {l: v for l, v in y.items() if v != 0})


def amplified_rhs(z: complex, k, spec: AmplifierSpec,
                  known: dict[int, float] | None = None) -> tuple[LogScaled, dict[int, float]]:
    """Geometric side of the amplified inequality at the point z:

        3(k-1)/(4 pi) sum_l |y_l| l^(-1/2) sum_{gamma in G_l(4), u <= u_cut}
            (1 + u(gamma z, z))^(-k/2),

    u_cut = 20 log(k) / k.  Dropping u > u_cut only lowers the (positive)
    right side, so the truncated value stays a valid lower bound for
    inequality checks.  known holds terms of l already summed at the same
    z, k and y_l (a per_l of an earlier call); they are not enumerated again.
    """
    k = half_integer(k)
    kf = float(k)
    u_cut = 20.0 * math.log(kf) / kf
    pref = 3.0 * (kf - 1.0) / (4.0 * math.pi)
    known = known or {}
    per_l: dict[int, float] = {}
    total = 0.0
    for l in sorted(spec.y):
        if l in known:
            contrib = known[l]
        else:
            s = float(np.sum((1.0 + gl_arrays(l, z, u_cut)[1]) ** (-kf / 2)))
            contrib = pref * abs(spec.y[l]) * s / math.sqrt(l)
        per_l[l] = contrib
        total += contrib
    return LogScaled.from_float(total), per_l


def restrict_amplifier(spec: AmplifierSpec, l_max: int | None) -> AmplifierSpec:
    if l_max is None:
        return spec
    return AmplifierSpec(
        spec.lam, spec.kind, spec.primes, spec.x,
        {l: v for l, v in spec.y.items() if l <= l_max},
    )


def amplifier_inequality(form, lam: float, kind: str, sup_phi_sq: float,
                         z: complex, k) -> dict:
    """Checks the pointwise amplified bound at z:

        (sum_m |A_1(m)|)^2 * y^k |f_1(z)|^2   <=   geometric side,

    for an L2-normalised eigenform (sup_phi_sq = the normalised y^k|f|^2 at
    z).  The right side is a sum of positive terms, so it is evaluated under
    escalating determinant caps, each reusing the terms of the caps before;
    the first cap that already dominates the left side settles the inequality
    (a truncated right side can only be smaller than the true one).
    """
    k = half_integer(k)
    a_vals = {}
    probe = amplifier_build(lam, kind, {})
    for p in probe.primes:
        m = p**2 if kind == "M1" else p**4
        a_vals[m] = form.normalized_eigenvalue(m).to_float()
    spec = amplifier_build(lam, kind, a_vals)
    amp_sum = sum(abs(v) for v in a_vals.values())
    lhs = amp_sum**2 * sup_phi_sq
    caps = [1, int((2 * lam) ** 2), int((2 * lam) ** 4), None]
    rhs_val = 0.0
    used_cap = None
    per_l: dict[int, float] = {}
    for cap in caps:
        sub = restrict_amplifier(spec, cap)
        rhs, per_l = amplified_rhs(z, k, sub, known=per_l)
        rhs_val = rhs.to_float()
        used_cap = cap
        if rhs_val >= lhs:
            break
    return {
        "k": k,
        "kind": kind,
        "lambda": lam,
        "lhs": lhs,
        "rhs": rhs_val,
        "l_cap": used_cap,
        "amplifier_sum": amp_sum,
        "per_l": per_l,
        "ok": lhs <= rhs_val * (1.0 + 1e-6),
    }


def eq_sup_terms(k, lam: float, y: float) -> dict[str, float]:
    """The four structural terms 1/L, y k^-1/2, L^2 k^-1/2, L^6 k^-1."""
    kf = float(half_integer(k))
    return {
        "term1": 1.0 / lam,
        "term2": y / math.sqrt(kf),
        "term3": lam**2 / math.sqrt(kf),
        "term4": lam**6 / kf,
    }


# ---------------------------------------------------------------------------
# Weight-aspect scaling experiment
# ---------------------------------------------------------------------------


def scaling_experiment(k_list) -> dict:
    """Fits the growth of S(k) = (k/4pi)^k e^-k sum_j |fhat_j(1)|^2 in log k.

    Returns the fitted slope (theory: 3/2), per-weight values, and the
    bracket correction factors (which must approach 1 for k >= 21).

    Index 1 is an admissible plus-space index only when (-1)^(k-1/2) = +1;
    the other weights carry no fhat_j(1) at all and are skipped (the sweep
    still spans the full range through every second weight).
    """
    rows = []
    for k in k_list:
        k = half_integer(k)
        kf = float(k)
        if not admissible(k, 1):
            continue
        sa = spectral_average(k, 1, rel_tol=1e-8)
        log_s = kf * (math.log(kf) - math.log(4.0 * math.pi)) - kf + sa.value.logm
        rows.append(
            {
                "k": k,
                "log_k": math.log(kf),
                "log_S": log_s,
                "spectral_average_log": sa.value.logm,
                "bessel_correction": bessel_correction_factor(k),
            }
        )
    if len(rows) < 2:
        return {"slope": float("nan"), "intercept": float("nan"), "rows": rows}
    xs = np.array([r["log_k"] for r in rows])
    ys = np.array([r["log_S"] for r in rows])
    slope, intercept = np.polyfit(xs, ys, 1)
    return {"slope": float(slope), "intercept": float(intercept), "rows": rows}
