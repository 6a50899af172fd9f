"""Exact q-expansion spaces on Gamma_0(4) at half-integral weight.

Every exact series is a list of integer numerators over one common
denominator.  Series are built and combined with the integer products of
`intpoly`; a QExpansion only stores the result,
sum_m a(m) e((m + param) z / width) with rational a(m) and a weight tag,
and evaluates it.  It does no arithmetic, and `from_int_series` is where
its Fractions are made.

`QExpansion.eval_reduced` is the one place where a truncated series is
summed at points: whole arrays of points in fixed-size blocks, each point
shifted by its largest log term so that nothing overflows or underflows,
with one exponential per distinct y and one per distinct x.
The frame evaluators, the sup-norm scan, the Petersson quadratures and the
Bergman kernel's spectral side all evaluate through it.

The spaces M_k(Gamma_0(4)) are spanned by monomials Theta^a G^b where Theta
is the standard theta series (weight 1/2) and G = sum_{n odd} sigma_1(n) q^n
is a weight-2 holomorphic form on Gamma_0(4).  Expansions at the cusps 0 and
1/2 are exact as well.  Both generators have explicit Fricke and V-frame
series, derived from the theta transformation law and the quasi-modularity
of E_2: Theta is Fricke-invariant and 16 G|W = Theta^4 - 16 G, while
Theta|V = 2 e(1/8) q^(1/4) sum_{t >= 0} q^(t(t+1)) and 16 G|V is an integer
series.  So every monomial is an integer series over 16^b in all three
frames.

Cusp and plus-space conditions are imposed by exact row reduction, giving
exact rational bases of S_k, M_k^+ and the Kohnen plus space S_k^+.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import intpoly
from .arith import half_integer, sigma1_table
from .linalg import rref_exact
from .numerics import NEG_INF, log_abs_fraction


class PrecisionError(Exception):
    """A computation needed series coefficients beyond the stored precision."""


# points per block in QExpansion.eval_reduced: bounds its work arrays at
# 256 x (number of terms) complex entries
_EVAL_BLOCK = 256


# ---------------------------------------------------------------------------
# QExpansion
# ---------------------------------------------------------------------------


@dataclass
class QExpansion:
    """Truncated Fourier series sum a(m) e((m+param) z / width), exact coefficients."""

    weight: Fraction
    width: int
    param: Fraction
    prec: int
    coeffs: dict[int, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        self.weight = Fraction(self.weight)
        self.param = Fraction(self.param)
        if not (0 <= self.param < 1):
            raise ValueError("cusp parameter must lie in [0, 1)")
        if any(m < 0 or m > self.prec for m in self.coeffs):
            raise ValueError("stored index outside [0, precision]")

    def coeff(self, m: int) -> Fraction:
        if m > self.prec:
            raise PrecisionError(f"coefficient {m} beyond stored precision {self.prec}")
        return self.coeffs.get(m, Fraction(0))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.coeffs.values())

    # -- evaluation ---------------------------------------------------------

    def _arrays(self):
        """(t, log|a|, sign a) over the nonzero terms, t = (m + param) / width."""
        cached = getattr(self, "_eval_arrays", None)
        if cached is not None:
            return cached
        ms = np.array(sorted(m for m, v in self.coeffs.items() if v != 0), dtype=np.float64)
        logs = np.array(
            [log_abs_fraction(self.coeffs[int(m)]) for m in ms], dtype=np.float64
        )
        signs = np.array([1.0 if float(self.coeffs[int(m)]) > 0 else -1.0 for m in ms])
        self._eval_arrays = ((ms + float(self.param)) / self.width, logs, signs)
        return self._eval_arrays

    def eval_reduced(self, zs) -> tuple[np.ndarray, np.ndarray]:
        """Series values at zs, a point or an array of points of any shape, as
        (reduced, log_scale) arrays of that shape: value = reduced * e^log_scale.

        Each point is shifted by its own largest log term, so a value whose
        terms all underflow float64 (large y) is still found.  A term is
        sign * e^(log|a| - 2 pi t y - shift(y)) times e^(2 pi i t x): the real
        factor is computed once per distinct y and the phase once per distinct
        x.  The points are cut into tiles of at most _EVAL_BLOCK distinct y by
        _EVAL_BLOCK distinct x, which bounds both factor tables; within a tile,
        blocks of _EVAL_BLOCK points gather their (points, terms) products and
        sum each row.  A tensor grid of points costs about one exp per row and
        one per column, and every value equals the term-by-term sum bit for bit.
        """
        zs = np.asarray(zs, dtype=complex)
        flat = zs.reshape(-1)
        reduced = np.zeros(flat.shape, dtype=complex)
        log_scale = np.full(flat.shape, NEG_INF)
        t, logs, signs = self._arrays()
        if t.size and flat.size:
            rate, freq = 2.0 * math.pi * t, 2j * math.pi * t
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

    def tail_log(self, y: float, growth: float) -> float:
        """log bound on the dropped tail, assuming |a(m)| <= C (m+1)^growth.

        C is fitted from the stored coefficients; the tail past the stored
        precision is summed by the geometric bound.
        """
        if not self.coeffs:
            return NEG_INF
        c_log = max(
            log_abs_fraction(v) - growth * math.log(m + 1)
            for m, v in self.coeffs.items()
            if v != 0
        )
        rate = 2.0 * math.pi * y / self.width
        m1 = self.prec + 1
        first = c_log + growth * math.log(m1 + 1) - rate * (m1 + float(self.param))
        ratio = growth * math.log1p(1.0 / (m1 + 1)) - rate
        if ratio >= -1e-9:
            return math.inf
        return first - math.log(-math.expm1(ratio))


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


def zero_expansion(weight, prec: int, width: int = 1, param=Fraction(0)) -> QExpansion:
    return QExpansion(Fraction(weight), width, Fraction(param), prec, {})


def from_int_series(weight, series, prec: int, den: int = 1, width: int = 1,
                    param=Fraction(0)) -> QExpansion:
    coeffs = {
        m: Fraction(c, den) for m, c in enumerate(series[: prec + 1]) if c != 0
    }
    return QExpansion(Fraction(weight), width, Fraction(param), prec, coeffs)


def combine_int_rows(rows, coeffs, n: int) -> tuple[list[int], int]:
    """sum_j coeffs[j] * rows[j] on indices 0..n-1, for integer rows and
    rational coeffs, as (integer numerators, common denominator).

    The denominator is the lcm of the coefficients' denominators.
    """
    den = 1
    for c in coeffs:
        den = math.lcm(den, c.denominator)
    num = [0] * n
    for row, c in zip(rows, coeffs):
        if c == 0:
            continue
        mult = int(c * den)
        for m, y in enumerate(row[:n]):
            if y:
                num[m] += mult * y
    return num, den


# ---------------------------------------------------------------------------
# Generators and their cusp expansions
# ---------------------------------------------------------------------------

HALF = Fraction(1, 2)
# Theta|V = V_PHASE * 2 q^(1/4) sum_{t >= 0} q^(t(t+1)), V_PHASE = e^(i pi/4)
_V_PHASE = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))


def theta_series(prec: int) -> QExpansion:
    """Theta(z) = sum_{n in Z} e(n^2 z): weight 1/2, width 1, parameter 0."""
    if prec < 0:
        raise ValueError("precision must be >= 0")
    return from_int_series(HALF, list(intpoly.theta_int(prec)), prec)


def weight2_generator(prec: int) -> QExpansion:
    """G(z) = sum_{n >= 1 odd} sigma_1(n) q^n, weight 2 on Gamma_0(4).

    Equals (-E_2(z) + 3E_2(2z) - 2E_2(4z))/24; holomorphy at the cusps is
    explicit from the frame expansions below.  Verified numerically against
    the weight-2 transformation law in the test suite.
    """
    if prec < 1:
        raise ValueError("precision must be >= 1")
    return from_int_series(Fraction(2), list(intpoly.sigma_odd_int(prec)), prec)


def _g16_frame_w(prec: int) -> list[int]:
    """16 G|W = Theta^4 - 16 G."""
    th4 = intpoly.poly_pow_trunc(list(intpoly.theta_int(prec)), 4, prec)
    return [t - 16 * g for t, g in zip(th4, intpoly.sigma_odd_int(prec))]


def _g16_frame_v(prec: int) -> list[int]:
    """16 G|V: -1 at q^0, -8 sigma(n) for odd n, 48 sigma(n/2) - 24 sigma(n) for even n."""
    sig = sigma1_table(prec)
    return [-1] + [
        -8 * sig[n] if n % 2 else 48 * sig[n // 2] - 24 * sig[n] for n in range(1, prec + 1)
    ]


def _theta_v_core(prec: int) -> list[int]:
    """sum_{t >= 0} q^(t(t+1)), so that Theta|V = 2 e(1/8) q^(1/4) times it."""
    out = [0] * (prec + 1)
    t = 0
    while t * (t + 1) <= prec:
        out[t * (t + 1)] = 1
        t += 1
    return out


def weight2_generator_frame_w(prec: int) -> QExpansion:
    """G under the Fricke frame: Theta^4/16 - G, exact."""
    return from_int_series(Fraction(2), _g16_frame_w(prec), prec, den=16)


def weight2_generator_frame_v(prec: int) -> QExpansion:
    """G under the V-frame: (E_2(z) - 3E_2(2z) + E_2(z + 1/2)/2) / 24, exact.

    Coefficients: -1/16 at q^0; -sigma(n)/2 for odd n; 3 sigma(n/2) - 3
    sigma(n)/2 for even n.
    """
    return from_int_series(Fraction(2), _g16_frame_v(prec), prec, den=16)


# ---------------------------------------------------------------------------
# Monomial spans and cusp/plus bases
# ---------------------------------------------------------------------------


def sturm_index(k) -> int:
    """Coefficient range used for all exact linear algebra at weight k."""
    return math.ceil(float(half_integer(k))) + 10


def weight_monomials(k) -> list[tuple[int, int]]:
    """All (a, b) with Theta^a G^b of weight k = a/2 + 2b, a, b >= 0."""
    k = half_integer(k)
    r = int(2 * k)
    if r < 0:
        return []
    out = []
    b = 0
    while 4 * b <= r:
        a = r - 4 * b
        out.append((a, b))
        b += 1
    return out


@lru_cache(maxsize=None)
def _monomial_int(a: int, b: int, prec: int, frame: str) -> tuple[tuple[int, ...], int]:
    """Theta^a G^b in frame 'I', 'W4' or 'V4' to index prec, as (integer
    numerators, common denominator).

    In the V frame index m stands for the exponent m + (a mod 4)/4: the
    factor q^(a/4) of (Theta|V)^a moves floor(a/4) into the index.
    """
    if frame == "I":
        theta, g, den = intpoly.theta_int(prec), intpoly.sigma_odd_int(prec), 1
    elif frame == "W4":
        theta, g, den = intpoly.theta_int(prec), _g16_frame_w(prec), 16**b
    elif frame == "V4":
        theta, g, den = _theta_v_core(prec), _g16_frame_v(prec), 16**b
    else:
        raise ValueError(f"unknown frame {frame!r}")
    series = intpoly.poly_pow_trunc(list(theta), a, prec)
    if frame == "V4":
        series = intpoly.poly_scale_shift(series, 2**a, a // 4, prec)
    if b:
        gb = intpoly.poly_pow_trunc(list(g), b, prec)
        series = intpoly.poly_mul_trunc(series, gb, prec)
    return tuple(series), den


def monomial_expansion(a: int, b: int, prec: int, frame: str = "I") -> tuple[QExpansion, complex]:
    """Exact expansion of Theta^a G^b in the given frame, with its unit phase."""
    series, den = _monomial_int(a, b, prec, frame)
    weight = Fraction(a, 2) + 2 * b
    if frame == "V4":
        return from_int_series(weight, series, prec, den, param=Fraction(a % 4, 4)), _V_PHASE**a
    return from_int_series(weight, series, prec, den), complex(1.0)


@dataclass
class SpaceBasis:
    """Exact basis of a space of forms at one weight.

    kind is one of 'full M', 'full S', 'plus M', 'plus S'.  Each basis form
    is stored both as a QExpansion and as an exact coefficient vector over
    the generating monomials Theta^a G^b, which is what makes exact cusp
    expansions and lazy high-precision coefficients possible.
    """

    weight: Fraction
    kind: str
    sturm: int
    monomials: list[tuple[int, int]]
    vectors: list[list[Fraction]]
    forms: list[QExpansion]

    @property
    def dimension(self) -> int:
        return len(self.forms)

    def sign_unit(self) -> int:
        """(-1)^(k - 1/2): the plus-space parity of this weight."""
        return -1 if int(self.weight - HALF) % 2 else 1

    def admissible(self, n: int) -> bool:
        """n is an allowed plus-space index: (-1)^(k-1/2) n = 0, 1 mod 4."""
        return (self.sign_unit() * n) % 4 in (0, 1)

    def frame_series(self, i: int, frame: str, prec: int) -> tuple[QExpansion, complex]:
        """Exact expansion of basis form i in frame 'I', 'W4' or 'V4'."""
        r = int(2 * self.weight)
        rows, coeffs = [], []
        for (a, b), c in zip(self.monomials, self.vectors[i]):
            if c == 0:
                continue
            series, den = _monomial_int(a, b, prec, frame)
            if frame == "V4" and (a - r) % 8:
                # the phase e^(i a pi/4) of the monomial is -e^(i r pi/4)
                c = -c
            rows.append(series)
            coeffs.append(c / den)
        if not rows:
            return zero_expansion(self.weight, prec), complex(1.0)
        num, den = combine_int_rows(rows, coeffs, prec + 1)
        if frame == "V4":
            phase = complex(math.cos(math.pi * r / 4), math.sin(math.pi * r / 4))
            return from_int_series(self.weight, num, prec, den, param=Fraction(r % 4, 4)), phase
        return from_int_series(self.weight, num, prec, den), complex(1.0)

    def to_json(self) -> str:
        payload = {
            "weight_num": self.weight.numerator,
            "weight_den": self.weight.denominator,
            "kind": self.kind,
            "sturm": self.sturm,
            "forms": [
                sorted(
                    [m, v.numerator, v.denominator] for m, v in f.coeffs.items()
                )
                for f in self.forms
            ],
        }
        return json.dumps(payload, indent=1)


def monomial_span(k, prec: int) -> SpaceBasis:
    """Span of the weight-k monomials: the full space M_k(Gamma_0(4))."""
    k = half_integer(k)
    monos = weight_monomials(k)
    forms = []
    vectors = []
    for idx, (a, b) in enumerate(monos):
        q, _ = monomial_expansion(a, b, prec, "I")
        forms.append(q)
        vec = [Fraction(0)] * len(monos)
        vec[idx] = Fraction(1)
        vectors.append(vec)
    return SpaceBasis(k, "full M", sturm_index(k), monos, vectors, forms)


def space_basis(k, prec: int, kind: str) -> SpaceBasis:
    """Exact basis of the requested subspace of M_k(Gamma_0(4)).

    Conditions imposed by exact row reduction on the monomial span:
      'full M': none.
      'full S': a(0) = 0 and vanishing constant term of the Fricke expansion
                (the V-frame expansion has positive exponents automatically).
      'plus M': a(n) = 0 for all n <= sturm with (-1)^(k-1/2) n = 2, 3 mod 4.
      'plus S': both.
    """
    k = half_integer(k)
    st = sturm_index(k)
    if prec < st:
        raise PrecisionError(f"precision {prec} below the Sturm index {st}")
    monos = weight_monomials(k)
    if not monos:
        return SpaceBasis(k, kind, st, [], [], [])
    if kind == "full M":
        return monomial_span(k, prec)
    rows = [_monomial_int(a, b, prec, "I")[0] for a, b in monos]
    sign = -1 if int(k - HALF) % 2 else 1

    conditions: list[list] = []
    if kind in ("full S", "plus S"):
        conditions.append([row[0] for row in rows])
        conditions.append([Fraction(1, 16**b) for (_, b) in monos])  # Fricke constant
    if kind in ("plus M", "plus S"):
        for n in range(1, st + 1):
            if (sign * n) % 4 in (2, 3):
                conditions.append([row[n] for row in rows])

    if conditions:
        _, _, kernel = rref_exact(conditions)
    else:
        kernel = [[Fraction(int(i == j)) for j in range(len(monos))] for i in range(len(monos))]

    vectors = _echelonize(kernel, rows, st)
    forms = []
    for vec in vectors:
        num, den = combine_int_rows(rows, vec, prec + 1)
        forms.append(from_int_series(k, num, prec, den))
    return SpaceBasis(k, kind, st, monos, vectors, forms)


def _echelonize(
    kernel: list[list[Fraction]], rows: list[tuple[int, ...]], st: int
) -> list[list[Fraction]]:
    """Echelonize kernel combinations of the monomial rows by their
    q-expansions up to the Sturm index."""
    if not kernel:
        return []
    ncoe = st + 1
    mat = []
    for vec in kernel:
        num, den = combine_int_rows(rows, vec, ncoe)
        mat.append([Fraction(x, den) for x in num] + list(vec))
    _, red, _ = rref_exact(mat)
    out = []
    for row in red:
        if all(v == 0 for v in row[:ncoe]):
            continue  # dependent combination: zero form
        out.append([Fraction(v) for v in row[ncoe:]])
    return out


def cusp_plus_basis(k, prec: int | None = None, expected_dim: int | None = None) -> SpaceBasis:
    """Exact basis of the Kohnen plus space S_k^+(Gamma_0(4)).

    When expected_dim is given (from an independent dimension computation)
    a mismatch aborts with a diagnostic instead of silently proceeding.
    """
    k = half_integer(k)
    if k < Fraction(5, 2):
        raise ValueError("cusp_plus_basis needs k >= 5/2")
    st = sturm_index(k)
    prec = st if prec is None else max(prec, st)
    basis = space_basis(k, prec, "plus S")
    if expected_dim is not None and basis.dimension != expected_dim:
        raise RuntimeError(
            f"plus-space dimension mismatch at k={k}: monomial construction"
            f" gives {basis.dimension}, independent target is {expected_dim};"
            " the monomial span is incomplete or the conditions are wrong"
        )
    return basis
