"""Sup-norm evaluation, lattice-point counting and the amplified kernel bound.

Evaluation of the invariant y^(k/2) |(f|ki)(z)| in the three frames that
cover a fundamental domain of Gamma_0(4) (identity, Fricke, and the frame
moving the cusp 1/2) at single points or whole arrays of points, through
`QExpansion.eval_reduced`; grid+golden-section sup-norm scans (one array
call per frame for the grid), enumeration of

    G_l(4) = { integer 2x2 gamma : det gamma = l, c = 0 mod 4 }

inside hyperbolic balls u(gamma z, w) <= delta (as int64 arrays, by
`gl_arrays`), the four counting classes,
Bergman kernel partial sums with the theta multiplier evaluated as a
quotient, the amplifier weights y_l, and the weight-aspect scaling
experiment for the spectral average of |fhat_j(1)|^2.
"""

from __future__ import annotations

import math
import cmath
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .arith import half_integer, divisors, primes_up_to
from .numerics import LogScaled
from .qexp import HALF, PrecisionError, QExpansion, SpaceBasis
from .salie import spectral_average, bessel_correction_factor

SQRT3_OVER_8 = math.sqrt(3.0) / 8.0

FRAME_LABELS = ("I", "W4", "V4")


@dataclass(frozen=True)
class CuspFrame:
    """One of the three evaluation frames, with the target cusp's data."""

    label: str
    cusp: str
    width: int
    parameter: Fraction

    @staticmethod
    def for_weight(label: str, k) -> "CuspFrame":
        k = half_integer(k)
        sign = -1 if int(k - HALF) % 2 else 1
        if label == "I":
            return CuspFrame("I", "infinity", 1, Fraction(0))
        if label == "W4":
            return CuspFrame("W4", "0", 4, Fraction(0))
        if label == "V4":
            return CuspFrame("V4", "1/2", 1, Fraction(1, 2) - Fraction(sign, 4))
        raise ValueError(f"unknown frame {label!r}")


@dataclass
class FrameSeries:
    series: QExpansion
    log_scale: float  # |actual series| = |stored series| * e^log_scale


@dataclass
class FormEvaluator:
    """Evaluates y^(k/2) |(f|ki)(z)| in each frame, overflow-safe.

    log_norm shifts every value (use -log sqrt<f,f> for an L2-normalised
    form).  Truncation is guarded: evaluation demands stored precision at
    least 3x the peak index k*width/(4 pi y) plus 40 sqrt(k).
    """

    k: Fraction
    frames: dict[str, FrameSeries]
    log_norm: float = 0.0

    @staticmethod
    def from_plus_form(form, prec: int | None = None) -> "FormEvaluator":
        """Build the three frame expansions of a plus-space eigenform from
        its coefficients (exact transfer: the Fricke frame sees fhat(4m), the
        V frame sees fhat(m) on m = (-1)^(k-1/2) mod 4 with alternating signs
        folded into the rational series)."""
        k = form.k
        basis_prec = form.basis.forms[0].prec
        prec = basis_prec if prec is None else prec
        if prec > basis_prec:
            coeffs = form.coefficients_upto(prec)
        else:
            coeffs = [form.coeff(n) for n in range(prec + 1)]
        sign = form.basis.sign_unit()
        log_half_pow = (0.5 - float(k)) * math.log(2.0)

        series_i = QExpansion(
            k, 1, Fraction(0), prec,
            {n: c for n, c in enumerate(coeffs) if c != 0},
        )
        w_prec = prec // 4
        series_w = QExpansion(
            k, 1, Fraction(0), w_prec,
            {m: coeffs[4 * m] for m in range(w_prec + 1) if coeffs[4 * m] != 0},
        )
        a0 = 1 if sign == 1 else 3
        v_prec = (prec - a0) // 4
        coeffs_v = {}
        for mp in range(v_prec + 1):
            c = coeffs[4 * mp + a0]
            if c != 0:
                coeffs_v[mp] = c * (-1) ** mp
        series_v = QExpansion(k, 1, Fraction(a0, 4), v_prec, coeffs_v)
        return FormEvaluator(
            k,
            {
                "I": FrameSeries(series_i, 0.0),
                "W4": FrameSeries(series_w, log_half_pow),
                "V4": FrameSeries(series_v, log_half_pow),
            },
        )

    @staticmethod
    def from_basis_element(basis: SpaceBasis, i: int, prec: int) -> "FormEvaluator":
        """Exact frame expansions of a (not necessarily plus) basis form."""
        frames = {}
        for label in FRAME_LABELS:
            q, _phase = basis.frame_series(i, label, prec)
            frames[label] = FrameSeries(q, 0.0)
        return FormEvaluator(basis.weight, frames)

    def required_precision(self, label: str, y: float) -> int:
        kf = float(self.k)
        fs = self.frames[label]
        width = fs.series.width
        peak = kf * width / (4.0 * math.pi * y)
        return math.ceil(3.0 * peak + 40.0 * math.sqrt(kf))

    def eval_frame(self, label: str, z, check: bool = True) -> LogScaled:
        """y^(k/2) |(f|ki)(z)| as a LogScaled value.  For an array of points
        its sign and logm are arrays of the same shape."""
        fs = self.frames[label]
        y = np.imag(z)
        if check:
            y_min = float(np.min(y))
            need = self.required_precision(label, y_min)
            if fs.series.prec < need:
                raise PrecisionError(
                    f"frame {label} at y={y_min:.4g} needs coefficient index {need},"
                    f" stored {fs.series.prec}"
                )
        reduced, m0 = fs.series.eval_reduced(z)
        r = np.hypot(reduced.real, reduced.imag)
        shift = 0.5 * float(self.k) * np.log(y) + fs.log_scale + self.log_norm
        with np.errstate(divide="ignore"):
            logm = m0 + np.log(r) + shift
        sign = np.where(r > 0.0, 1, 0)
        if np.ndim(z) == 0:
            return LogScaled(int(sign), float(logm))
        return LogScaled(sign, logm)

    def eval_frame_complex(self, label: str, z):
        """Raw series value (f|ki)(z) (no y-power), for kernel work; an array
        of the shape of z for an array of points."""
        fs = self.frames[label]
        reduced, logf = fs.series.eval_reduced(z)
        return reduced * np.exp(logf + fs.log_scale + self.log_norm)

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


def eval_at_cusp(form, frame: str | CuspFrame, z: complex,
                 prec: int | None = None) -> LogScaled:
    """y^(k/2) |(f|ki)(z)| for a plus-space eigenform in the given frame.

    Convenience wrapper over FormEvaluator for one-off evaluations; build the
    evaluator directly when evaluating many points.
    """
    label = frame.label if isinstance(frame, CuspFrame) else frame
    ev = FormEvaluator.from_plus_form(form, prec)
    return ev.eval_frame(label, z)


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
    y_min: float = SQRT3_OVER_8,
    y_max: float | None = None,
    nx: int = 24,
    ny: int = 48,
    refine_rounds: int = 3,
) -> ScanResult:
    """max over the three frames of sup_{y >= y_min} y^(k/2)|(f|ki)(z)|.

    Coarse grid (log-spaced in y), evaluated in one call per frame, then
    coordinate-wise golden-section refinement around the first best grid
    point of each frame in y-then-x order.
    """
    kf = float(ev.k)
    if y_max is None:
        y_max = 12.0 * kf / math.pi
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


def _golden(fn, lo: float, hi: float, v0: LogScaled, x0: float, iters: int = 28):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
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


def d_gamma(mat, l: int, z: complex) -> float:
    """d_gamma(z) = |gamma z - conj(z)| |j(gamma, z)| / (2 y sqrt(l))."""
    a, b, c, d = mat
    j = c * z + d
    gz = (a * z + b) / j
    return abs(gz - z.conjugate()) * abs(j) / (2.0 * z.imag * math.sqrt(l))


def _u_exact(mat, l: int, zq: tuple[Fraction, Fraction], wq: tuple[Fraction, Fraction]) -> Fraction:
    """u(gamma z, w) exactly, for rational z, w (borderline membership)."""
    a, b, c, d = (Fraction(t) for t in mat)
    xz, yz = zq
    xw, yw = wq
    # N = a z + b - (c z + d) conj(w); |N|^2 = 4 l yz yw (u + 1)
    re = a * xz + b - (c * xz + d) * xw - c * yz * yw
    im = a * yz - c * (yz * xw - xz * yw) + d * yw
    n2 = re * re + im * im
    return n2 / (4 * l * yz * yw) - 1


def _float_to_fraction(x: float) -> Fraction:
    return Fraction(x).limit_denominator(10**12)


def enumerate_gl(l: int, z: complex, delta: float, w: complex | None = None,
                 modc: int = 4) -> list[tuple[int, int, int, int]]:
    """All gamma in G_l(4) with u(gamma z, w) <= delta (w defaults to z), as
    sorted (a, b, c, d) tuples; see gl_arrays for the enumeration."""
    mats, _u = gl_arrays(l, z, delta, w=w, modc=modc)
    return sorted(map(tuple, mats.tolist()))


def iter_gl(l: int, z: complex, delta: float, w: complex | None = None, modc: int = 4):
    """Generator over the rows of gl_arrays, yielding (matrix tuple, u) in its order."""
    mats, us = gl_arrays(l, z, delta, w=w, modc=modc)
    for mat, u in zip(mats.tolist(), us.tolist()):
        yield tuple(mat), u


# candidate (a, d) pairs per block of gl_arrays: bounds its int64 work arrays
_LATTICE_BLOCK = 1 << 14


def gl_arrays(l: int, z: complex, delta: float, w: complex | None = None,
              modc: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """All gamma in G_l(4) with u(gamma z, w) <= delta (w defaults to z), as an
    (n, 4) int64 array of rows (a, b, c, d) and the float u of each row.

    The c = 0 layer comes first: a d = l over the divisors d of l, ascending,
    sign + then -, each with b ascending in its window.  Then c = modc, -modc,
    2 modc, -2 modc, ... up to the bound that u <= delta puts on |c|; for each
    c, every d in the window of |c z + d|^2 and every a in the window of the
    imaginary part of a z + b - (c z + d) conj(w) are taken as int64 arrays,
    in blocks of at most _LATTICE_BLOCK pairs, d then a ascending, and kept
    where c divides a d - l.  u is computed in float64, and the memberships
    with |u - delta| < 1e-9 are settled in exact rational arithmetic.  An l
    or delta whose windows reach entries of 2^30 raises ValueError.
    """
    if w is None:
        w = z
    if l < 1 or delta < 0:
        raise ValueError("need l >= 1 and delta >= 0")
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

    zq = (_float_to_fraction(xz), _float_to_fraction(yz))
    wq = (_float_to_fraction(xw), _float_to_fraction(yw))
    dq = _float_to_fraction(delta)
    norm = 4.0 * l * yz * yw
    eps = 1e-9
    mats, us = [np.zeros((0, 4), dtype=np.int64)], [np.zeros(0)]

    def take(a, b, c, d):
        """Keep the rows (a, b, c, d) with u(gamma z, w) <= delta."""
        re = a * xz + b - (c * xz + d) * xw - c * yz * yw
        im = a * yz - c * (yz * xw - xz * yw) + d * yw
        u = (re * re + im * im) / norm - 1.0
        keep = ~(u > delta + eps)
        for j in np.flatnonzero(keep & (np.abs(u - delta) < eps)).tolist():
            ue = _u_exact((int(a[j]), int(b[j]), int(c[j]), int(d[j])), l, zq, wq)
            if ue > dq:
                keep[j] = False
            else:
                u[j] = float(ue)
        mats.append(np.stack([a, b, c, d], 1)[keep])
        us.append(u[keep])

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
            b = np.arange(blo, bhi + 1, dtype=np.int64)
            take(np.full_like(b, a), b, np.zeros_like(b), np.full_like(b, d))

    for c in range(modc, math.floor(c_bound + 1e-9) + 1, modc):
        # |c z + d|^2 in [l yz/(yw r_max), l yz r_max / yw]
        hi2 = l * yz * r_max / yw - c * c * yz * yz
        if hi2 < 0:
            continue
        lo2 = l * yz / (yw * r_max) - c * c * yz * yz
        # the d window of c, then that of -c, as one array
        d = [np.arange(math.ceil(-cc * xz - math.sqrt(hi2) - 1e-9),
                       math.floor(-cc * xz + math.sqrt(hi2) + 1e-9) + 1, dtype=np.int64)
             for cc in (c, -c)]
        cc = np.repeat(np.array([c, -c]), [d[0].size, d[1].size])
        d = np.concatenate(d)
        if lo2 > 0:
            t2 = (cc * xz + d) ** 2 + cc * cc * yz * yz
            keep = ~(t2 < l * yz / (yw * r_max) - 1e-9)
            cc, d = cc[keep], d[keep]
        # imag-part window: |a yz - c im_shift + d yw| <= im_bound
        base = -cc * im_shift + d * yw
        alo = (-im_bound - base) / yz
        ahi = (im_bound - base) / yz
        for i, a in _window_pairs(np.floor(alo).astype(np.int64) - 1,
                                  np.floor(ahi + 1e-9).astype(np.int64)):
            ci, di = cc[i], d[i]
            num = a * di - l
            keep = num % ci == 0
            i, a, ci, di, num = i[keep], a[keep], ci[keep], di[keep], num[keep]
            # the a of (c, d) run over a residue class mod step, from its first
            # member at or above alo (less 1e-12 steps): the same float test
            step = abs(ci) // np.gcd(ci, di)
            a0 = a % step
            keep = (a - a0) // step >= (alo[i] - a0) / step - 1e-12
            a, ci, di, num = a[keep], ci[keep], di[keep], num[keep]
            take(a, num // ci, ci, di)

    return np.concatenate(mats), np.concatenate(us)


def _window_pairs(lo: np.ndarray, hi: np.ndarray):
    """(i, a) int64 arrays running over lo[i] <= a <= hi[i], i then a
    ascending, in blocks of about _LATTICE_BLOCK pairs (one i at least)."""
    counts = np.maximum(hi - lo + 1, 0)
    ends = np.cumsum(counts)
    i = 0
    while i < lo.size:
        start = ends[i] - counts[i]
        j = max(i + 1, int(np.searchsorted(ends, start + _LATTICE_BLOCK, side="right")))
        n = counts[i:j]
        idx = np.repeat(np.arange(i, j), n)
        yield idx, lo[idx] + np.arange(idx.size) - (ends[idx] - counts[idx] - start)
        i = j


def enumerate_box(l: int, z: complex, delta: float, box: int | None = None,
                  modc: int = 4) -> list[tuple[int, int, int, int]]:
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
    zq = (_float_to_fraction(xz), _float_to_fraction(yz))
    eps = 1e-9
    cstart = -(box_c // modc) * modc
    for c in range(cstart, box_c + 1, modc):
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
                        if _u_exact((a, b, c, d), l, zq, zq) > _float_to_fraction(delta):
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


def theta_value(z: complex, tol: float = 1e-16) -> complex:
    """Theta(z) = 1 + 2 sum e(n^2 z), direct sum (converges for any y > 0)."""
    y = z.imag
    if y <= 0:
        raise ValueError("theta_value needs Im z > 0")
    n_max = math.ceil(math.sqrt(max(40.0, -math.log(tol)) / (2.0 * math.pi * y))) + 2
    total = 1.0 + 0.0j
    for n in range(1, n_max + 1):
        total += 2.0 * cmath.exp(2j * math.pi * n * n * z)
    return total


def theta_multiplier(mat, z: complex) -> complex:
    """j_Theta(gamma, z) = Theta(gamma z)/Theta(z) for gamma in Gamma_0(4).

    Raises if |Theta(z)| is too small for a stable quotient.
    """
    return theta_value(apply_matrix(mat, z)) / _theta_denominator(z)


def _theta_denominator(z: complex) -> complex:
    """Theta(z), raising if it is too small for a stable quotient."""
    tz = theta_value(z)
    if abs(tz) < 1e-6:
        raise ArithmeticError("theta quotient unstable: |Theta(z)| < 1e-6")
    return tz


def bergman_partial(z: complex, w: complex, k, u_cut: float | None = None,
                    tol: float = 1e-4) -> tuple[complex, float]:
    """Truncated group-side Bergman kernel

        3(k-1)/(4 pi) sum_{gamma in G_1(4), u(gamma z, w) <= u_cut}
            j_Theta(gamma, z)^(-2k) ((gamma z - conj w)/(2i))^(-k).

    The multiplier is the theta quotient raised to the odd integer 2k (no
    branch ambiguity); the remaining power uses the principal branch, whose
    base has positive real part.  Returns (value, heuristic error estimate
    from the outermost shell's decay).
    """
    k = half_integer(k)
    kf = float(k)
    two_k = int(2 * k)
    if u_cut is None:
        u_cut = max(24.0, (1.0 / tol) ** (2.0 / kf) * 2.0)
    pref = 3.0 * (kf - 1.0) / (4.0 * math.pi)
    total = 0.0j
    shell = 0.0
    mats, us = gl_arrays(1, z, u_cut, w=w)
    tz = _theta_denominator(z) if len(mats) else None
    for mat, u in zip(mats.tolist(), us.tolist()):
        gz = apply_matrix(mat, z)
        jt = theta_value(gz) / tz
        base = (gz - w.conjugate()) / 2j
        term = jt ** (-two_k) * cmath.exp(-kf * cmath.log(base))
        total += term
        if u > 0.5 * u_cut:
            shell += abs(term)
    err = pref * (shell + 1e-300) * 2.0
    return pref * total, err


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
                  u_cut: float | None = None) -> tuple[LogScaled, dict[int, float]]:
    """Geometric side of the amplified inequality at the point z:

        3(k-1)/(4 pi) sum_l |y_l| l^(-1/2) sum_{gamma in G_l(4), u <= u_cut}
            (1 + u(gamma z, z))^(-k/2).

    Dropping u > u_cut only lowers the (positive) right side, so the
    truncated value stays a valid lower bound for inequality checks.
    """
    k = half_integer(k)
    kf = float(k)
    if u_cut is None:
        u_cut = 20.0 * math.log(kf) / kf
    pref = 3.0 * (kf - 1.0) / (4.0 * math.pi)
    per_l: dict[int, float] = {}
    total = 0.0
    for l in sorted(spec.y):
        yl = abs(spec.y[l])
        s = 0.0
        for u in gl_arrays(l, z, u_cut)[1].tolist():
            s += (1.0 + u) ** (-kf / 2.0)
        contrib = pref * yl * s / math.sqrt(l)
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
    escalating determinant caps; the first cap that already dominates the
    left side settles the inequality (a truncated right side can only be
    smaller than the true one).
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
        rhs, per_l = amplified_rhs(z, k, sub)
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


def scaling_experiment(k_list, rel_tol: float = 1e-8) -> dict:
    """Fits the growth of S(k) = (k/4pi)^k e^-k sum_j |fhat_j(1)|^2 in log k.

    Returns the fitted slope (theory: 3/2), per-weight values, and the
    bracket correction factors (which must approach 1 for k >= 21).

    Index 1 is an admissible plus-space index only when (-1)^(k-1/2) = +1;
    the other weights carry no fhat_j(1) at all and are skipped (the sweep
    still spans the full range through every second weight).
    """
    from .salie import admissible

    rows = []
    for k in k_list:
        k = half_integer(k)
        kf = float(k)
        if not admissible(k, 1):
            continue
        sa = spectral_average(k, 1, rel_tol=rel_tol)
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


def per_form_sup_report(k_list, prec: int = 900) -> dict:
    """Observational: fits log max_j sup y^(k/2)|f_j(z)| (L2-normalised forms)
    against log k, for comparison with the 3/7 and 1/4 reference slopes.

    Heavier than the spectral route (needs eigenforms, scans and quadrature
    norms per weight), so meant for short sweeps.
    """
    from .hecke import dim_cusp_level1, eigenbasis_plus
    from .lfunctions import petersson_norm_f

    rows = []
    for k in k_list:
        k = half_integer(k)
        if dim_cusp_level1(int(2 * k - 1)) == 0:
            continue
        best = None
        for f in eigenbasis_plus(k, prec=prec):
            f.coefficients_upto(prec)
            ev = FormEvaluator.from_plus_form(f, prec)
            res = supnorm_scan(ev, nx=16, ny=32, refine_rounds=2)
            nf = petersson_norm_f(f, "quadrature", prec=prec)
            log_sup = res.sup.logm - 0.5 * nf.value.logm
            if best is None or log_sup > best:
                best = log_sup
        rows.append({"k": k, "log_k": math.log(float(k)), "log_sup": best})
    if len(rows) < 2:
        return {"slope": float("nan"), "rows": rows,
                "reference_slopes": (3.0 / 7.0, 0.25)}
    xs = np.array([r["log_k"] for r in rows])
    ys = np.array([r["log_sup"] for r in rows])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return {"slope": slope, "rows": rows, "reference_slopes": (3.0 / 7.0, 0.25)}
