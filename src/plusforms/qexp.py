"""Exact q-expansion spaces on Gamma_0(4) at half-integral weight.

A QExpansion is a truncated series  sum_m a(m) e((m + param) z / width)
with exact rational coefficients, tagged with its weight.  The spaces
M_k(Gamma_0(4)) are spanned by monomials Theta^a G^b where Theta is the
standard theta series (weight 1/2) and G = sum_{n odd} sigma_1(n) q^n is a
weight-2 holomorphic form on Gamma_0(4).  Expansions at the cusps 0 and 1/2
are exact as well: both generators have explicit Fricke and V-frame series
(derived from the theta transformation law and the quasi-modularity of E_2),
so every monomial does too.

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
from .arith import half_integer
from .linalg import rref_exact
from .numerics import NEG_INF, LogScaled, log_abs_fraction


class PrecisionError(Exception):
    """A computation needed series coefficients beyond the stored precision."""


def scalar_log_abs(v) -> float:
    """log|v| for Fraction/int (exact-path) or quadratic-field scalars."""
    if isinstance(v, (Fraction, int)):
        return log_abs_fraction(v)
    f = float(v)
    return math.log(abs(f)) if f != 0.0 else NEG_INF


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

    def exponent(self, m: int) -> Fraction:
        """The exponent (m + param)/width multiplying e(z)."""
        return (m + self.param) / self.width

    def copy_truncated(self, prec: int) -> "QExpansion":
        return QExpansion(
            self.weight,
            self.width,
            self.param,
            min(prec, self.prec),
            {m: v for m, v in self.coeffs.items() if m <= prec},
        )

    def scale(self, c) -> "QExpansion":
        c = Fraction(c)
        return QExpansion(
            self.weight, self.width, self.param, self.prec,
            {m: c * v for m, v in self.coeffs.items() if c * v != 0},
        )

    def __add__(self, other: "QExpansion") -> "QExpansion":
        if (self.weight, self.width, self.param) != (other.weight, other.width, other.param):
            raise ValueError("can only add expansions on the same grid and weight")
        prec = min(self.prec, other.prec)
        out: dict[int, Fraction] = {}
        for m in set(self.coeffs) | set(other.coeffs):
            if m <= prec:
                v = self.coeffs.get(m, Fraction(0)) + other.coeffs.get(m, Fraction(0))
                if v != 0:
                    out[m] = v
        return QExpansion(self.weight, self.width, self.param, prec, out)

    def __sub__(self, other: "QExpansion") -> "QExpansion":
        return self + other.scale(-1)

    def __mul__(self, other: "QExpansion") -> "QExpansion":
        """Product; weights add, widths combine by lcm, parameters add mod 1.

        The result is truncated so that no reported coefficient could be
        affected by terms beyond either operand's precision.
        """
        n1, n2 = self.width, other.width
        width = n1 * n2 // math.gcd(n1, n2)
        shift_param = self.param * (width // n1) + other.param * (width // n2)
        carry = int(shift_param)  # integer part moves into the index
        param = shift_param - carry
        # first unknown exponent of each factor bounds the trusted range
        e1 = (self.prec + 1 + self.param) / n1
        e2 = (other.prec + 1 + other.param) / n2
        e_min = min(e1, e2)
        prec = math.ceil(e_min * width - param) - 1
        out: dict[int, Fraction] = {}
        items1 = sorted(self.coeffs.items())
        items2 = sorted(other.coeffs.items())
        f1 = width // n1
        f2 = width // n2
        for m1, a1 in items1:
            if a1 == 0:
                continue
            base = m1 * f1 + carry
            for m2, a2 in items2:
                m = base + m2 * f2
                if m > prec:
                    break
                if a2 == 0:
                    continue
                out[m] = out.get(m, Fraction(0)) + a1 * a2
        out = {m: v for m, v in out.items() if v != 0}
        return QExpansion(self.weight + other.weight, width, param, prec, out)

    def pow(self, e: int) -> "QExpansion":
        if e < 0:
            raise ValueError("negative powers not supported")
        if e == 0:
            return QExpansion(Fraction(0), 1, Fraction(0), self.prec, {0: Fraction(1)})
        result = None
        base = self
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- evaluation ---------------------------------------------------------

    def _arrays(self):
        cached = getattr(self, "_eval_arrays", None)
        if cached is not None:
            return cached
        ms = np.array(sorted(m for m, v in self.coeffs.items() if v != 0), dtype=np.float64)
        logs = np.array(
            [scalar_log_abs(self.coeffs[int(m)]) for m in ms], dtype=np.float64
        )
        signs = np.array([1.0 if float(self.coeffs[int(m)]) > 0 else -1.0 for m in ms])
        self._eval_arrays = (ms, logs, signs)
        return self._eval_arrays

    def eval_reduced(self, z: complex) -> tuple[complex, float]:
        """Series value as (reduced complex, log scale): value = reduced * e^scale."""
        if not self.coeffs:
            return 0.0j, NEG_INF
        ms, logs, signs = self._arrays()
        x, y = z.real, z.imag
        t = (ms + float(self.param)) / self.width
        logterm = logs - 2.0 * math.pi * t * y
        m0 = float(np.max(logterm))
        reduced = np.sum(
            signs * np.exp(logterm - m0) * np.exp(2j * math.pi * t * x)
        )
        return complex(reduced), m0

    def eval_abs_log(self, z: complex) -> LogScaled:
        """log-scaled |series value| at z."""
        reduced, m0 = self.eval_reduced(z)
        r = abs(reduced)
        if r == 0.0:
            return LogScaled.zero()
        return LogScaled(1, m0 + math.log(r))

    def tail_log(self, y: float, growth: float) -> float:
        """log bound on the dropped tail, assuming |a(m)| <= C (m+1)^growth.

        C is fitted from the stored coefficients; the tail past the stored
        precision is summed by the geometric bound.
        """
        if not self.coeffs:
            return NEG_INF
        c_log = max(
            scalar_log_abs(v) - growth * math.log(m + 1)
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


def zero_expansion(weight, prec: int, width: int = 1, param=Fraction(0)) -> QExpansion:
    return QExpansion(Fraction(weight), width, Fraction(param), prec, {})


def from_int_series(weight, series, prec: int, den: int = 1, width: int = 1,
                    param=Fraction(0)) -> QExpansion:
    coeffs = {
        m: Fraction(c, den) for m, c in enumerate(series[: prec + 1]) if c != 0
    }
    return QExpansion(Fraction(weight), width, Fraction(param), prec, coeffs)


# ---------------------------------------------------------------------------
# Generators and their cusp expansions
# ---------------------------------------------------------------------------

HALF = Fraction(1, 2)


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


def theta_frame_w(prec: int) -> QExpansion:
    """Theta under the Fricke frame: Theta is invariant."""
    return theta_series(prec)


def theta_frame_v(prec: int) -> tuple[QExpansion, complex]:
    """Theta under the V-frame: e^(i pi/4) * 2 sum_{j odd > 0} e(j^2 z / 4).

    Returned as (rational series on the quarter-integer grid, unit phase).
    Index m of the series means exponent (m + 1/4): j^2 = 4m + 1.
    """
    coeffs: dict[int, Fraction] = {}
    j = 1
    while (j * j - 1) // 4 <= prec:
        coeffs[(j * j - 1) // 4] = Fraction(2)
        j += 2
    q = QExpansion(HALF, 1, Fraction(1, 4), prec, coeffs)
    return q, complex(math.cos(math.pi / 4), math.sin(math.pi / 4))


def weight2_generator_frame_w(prec: int) -> QExpansion:
    """G under the Fricke frame: Theta^4/16 - G, exact."""
    th4 = theta_series(prec).pow(4).scale(Fraction(1, 16))
    return th4 - weight2_generator(prec)


def weight2_generator_frame_v(prec: int) -> QExpansion:
    """G under the V-frame: (E_2(z) - 3E_2(2z) + E_2(z + 1/2)/2) / 24, exact.

    Coefficients: -1/16 at q^0; -sigma(n)/2 for odd n; 3 sigma(n/2) - 3
    sigma(n)/2 for even n.
    """
    sig = [0] + [0] * prec
    for d in range(1, prec + 1):
        for m in range(d, prec + 1, d):
            sig[m] += d
    coeffs = {0: Fraction(-1, 16)}
    for n in range(1, prec + 1):
        if n % 2:
            v = Fraction(-sig[n], 2)
        else:
            v = Fraction(-3 * sig[n], 2) + 3 * sig[n // 2]
        if v != 0:
            coeffs[n] = v
    return QExpansion(Fraction(2), 1, Fraction(0), prec, coeffs)


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
def _monomial_cached(a: int, b: int, prec: int, frame: str):
    """Exact expansion of Theta^a G^b in the given frame ('I', 'W4', 'V4')."""
    if frame == "I":
        th = intpoly.theta_int(prec)
        g = intpoly.sigma_odd_int(prec)
        series = intpoly.poly_pow_trunc(list(th), a, prec) if a else [1]
        if b:
            gb = intpoly.poly_pow_trunc(list(g), b, prec)
            series = intpoly.poly_mul_trunc(series, gb, prec)
        q = from_int_series(Fraction(a, 2) + 2 * b, series, prec)
        return q, complex(1.0)
    if frame == "W4":
        th = theta_series(prec)
        q = th.pow(a) if a else zero_expansion(0, prec) + from_int_series(0, [1], prec)
        if b:
            q = q * weight2_generator_frame_w(prec).pow(b)
        return q.copy_truncated(prec), complex(1.0)
    if frame == "V4":
        tv, phase = theta_frame_v(prec)
        q = tv.pow(a)
        if b:
            q = q * weight2_generator_frame_v(prec).pow(b)
        return q.copy_truncated(min(prec, q.prec)), phase**a
    raise ValueError(f"unknown frame {frame!r}")


def monomial_expansion(a: int, b: int, prec: int, frame: str = "I") -> tuple[QExpansion, complex]:
    q, phase = _monomial_cached(a, b, prec, frame)
    return q, phase


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
        combo = None
        phase_common = None
        for (a, b), c in zip(self.monomials, self.vectors[i]):
            if c == 0:
                continue
            q, phase = monomial_expansion(a, b, prec, frame)
            if frame == "V4":
                # phases e^(i a pi/4) agree up to sign across monomials
                sign = 1 if (a - r) % 8 == 0 else -1
                if phase_common is None:
                    phase_common = complex(math.cos(math.pi * r / 4), math.sin(math.pi * r / 4))
                q = q.scale(c * sign)
            else:
                phase_common = phase
                q = q.scale(c)
            combo = q if combo is None else combo + q
        if combo is None:
            combo = zero_expansion(self.weight, prec)
            phase_common = complex(1.0)
        return combo, phase_common

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


@lru_cache(maxsize=None)
def _monomial_int(a: int, b: int, prec: int) -> tuple[int, ...]:
    """Integer coefficient list of Theta^a G^b to the given precision."""
    th = list(intpoly.theta_int(prec))
    series = intpoly.poly_pow_trunc(th, a, prec) if a else [1]
    if b:
        gb = intpoly.poly_pow_trunc(list(intpoly.sigma_odd_int(prec)), b, prec)
        series = intpoly.poly_mul_trunc(series, gb, prec)
    return tuple(series)


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
    mono_forms = [monomial_expansion(a, b, prec, "I")[0] for a, b in monos]
    sign = -1 if int(k - HALF) % 2 else 1

    conditions: list[list[Fraction]] = []
    if kind in ("full S", "plus S"):
        conditions.append([q.coeff(0) for q in mono_forms])
        conditions.append([Fraction(1, 16**b) for (_, b) in monos])  # Fricke constant
    if kind in ("plus M", "plus S"):
        for n in range(1, st + 1):
            if (sign * n) % 4 in (2, 3):
                conditions.append([q.coeff(n) for q in mono_forms])
    if kind == "full M":
        return monomial_span(k, prec)

    if conditions:
        _, _, kernel = rref_exact(conditions)
    else:
        kernel = [[Fraction(int(i == j)) for j in range(len(monos))] for i in range(len(monos))]

    vectors = _echelonize(kernel, mono_forms, st)
    forms = []
    for vec in vectors:
        combo = None
        for c, q in zip(vec, mono_forms):
            if c == 0:
                continue
            term = q.scale(c)
            combo = term if combo is None else combo + term
        forms.append(combo if combo is not None else zero_expansion(k, prec))
    return SpaceBasis(k, kind, st, monos, vectors, forms)


def _echelonize(
    kernel: list[list[Fraction]], mono_forms: list[QExpansion], st: int
) -> list[list[Fraction]]:
    """Echelonize kernel combinations by their q-expansions up to the Sturm index."""
    if not kernel:
        return []
    rows = []
    for vec in kernel:
        coeffs = [
            sum(c * q.coeff(n) for c, q in zip(vec, mono_forms)) for n in range(st + 1)
        ]
        rows.append(coeffs + list(vec))
    _, red, _ = rref_exact(rows)
    ncoe = st + 1
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
