"""Overflow-safe scalar numerics.

Log-domain scalars (sign + log magnitude), certified values carrying a
truncation-error bound, half-integer order Bessel J by closed forms and
normalized downward recurrence (an unchecked float core for sums that check
their inputs once), and the exponential sum
S(alpha, beta, kappa) = sum_{m+kappa>0} (m+kappa)^alpha e^(-beta(m+kappa)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

NEG_INF = float("-inf")
LN2 = math.log(2.0)


def log_abs_int(n: int) -> float:
    """log|n| that survives integers far beyond float range."""
    if n == 0:
        return NEG_INF
    n = abs(n)
    bits = n.bit_length()
    if bits <= 900:
        return math.log(n)
    shift = bits - 64
    return math.log(n >> shift) + shift * LN2


def log_abs_fraction(x: int | Fraction) -> float:
    """log|x| of an int or a Fraction, from its numerator and denominator
    (no float overflow)."""
    return log_abs_int(x.numerator) - log_abs_int(x.denominator)


def logsumexp(logs: list[float]) -> float:
    """log(sum exp(l)) for a list of log magnitudes (all terms positive)."""
    m = max(logs, default=NEG_INF)
    if m == NEG_INF:
        return NEG_INF
    return m + math.log(sum(math.exp(v - m) for v in logs))


@dataclass(frozen=True)
class LogScaled:
    """sign * exp(logm); sign == 0 means exactly zero (logm ignored)."""

    sign: int
    logm: float

    @staticmethod
    def zero() -> "LogScaled":
        return LogScaled(0, NEG_INF)

    @staticmethod
    def from_float(x: float) -> "LogScaled":
        if x == 0.0:
            return LogScaled.zero()
        return LogScaled(1 if x > 0 else -1, math.log(abs(x)))

    @staticmethod
    def exp_of(logm: float) -> "LogScaled":
        return LogScaled(1, logm)

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        try:
            return self.sign * math.exp(self.logm)
        except OverflowError:
            return self.sign * math.inf

    __float__ = to_float

    @staticmethod
    def lift(other) -> "LogScaled":
        """other as a LogScaled: an int or a Fraction with its exact log, any
        other scalar through float()."""
        if isinstance(other, LogScaled):
            return other
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return LogScaled.zero()
            return LogScaled(1 if other > 0 else -1, log_abs_fraction(other))
        return LogScaled.from_float(float(other))

    def __mul__(self, other):
        other = LogScaled.lift(other)
        if self.sign == 0 or other.sign == 0:
            return LogScaled.zero()
        return LogScaled(self.sign * other.sign, self.logm + other.logm)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = LogScaled.lift(other)
        if other.sign == 0:
            raise ZeroDivisionError
        if self.sign == 0:
            return LogScaled.zero()
        return LogScaled(self.sign * other.sign, self.logm - other.logm)

    def __neg__(self):
        return LogScaled(-self.sign, self.logm)

    def __add__(self, other):
        other = LogScaled.lift(other)
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        big, small = (self, other) if self.logm >= other.logm else (other, self)
        diff = small.logm - big.logm  # <= 0
        if self.sign == other.sign:
            return LogScaled(big.sign, big.logm + math.log1p(math.exp(diff)))
        t = math.exp(diff)
        if t == 1.0:
            return LogScaled.zero()
        return LogScaled(big.sign, big.logm + math.log1p(-t))

    def __sub__(self, other):
        return self + (-LogScaled.lift(other))

    def __lt__(self, other):
        return (self - other).sign < 0

    def __le__(self, other):
        return (self - other).sign <= 0

    def __gt__(self, other):
        return (self - other).sign > 0

    def __ge__(self, other):
        return (self - other).sign >= 0

    def __repr__(self):
        if self.sign == 0:
            return "LogScaled(0)"
        return f"LogScaled({'+' if self.sign > 0 else '-'}exp({self.logm:.6g}))"


@dataclass(frozen=True)
class CertifiedValue:
    """A numeric value with a rigorous bound on its absolute truncation error.

    The error bound is kept in log form so that values spanning hundreds of
    orders of magnitude keep meaningful relative error information.
    """

    value: LogScaled
    err_log: float  # log of the absolute error bound; -inf for exact

    @property
    def err(self) -> float:
        if self.err_log == NEG_INF:
            return 0.0
        try:
            return math.exp(self.err_log)
        except OverflowError:
            return math.inf

    def rel_err(self) -> float:
        if self.value.sign == 0:
            return math.inf if self.err_log > NEG_INF else 0.0
        if self.err_log == NEG_INF:
            return 0.0
        return math.exp(self.err_log - self.value.logm)

    def to_float(self) -> float:
        return self.value.to_float()

    def __mul__(self, other):
        """First-order error propagation under multiplication."""
        if isinstance(other, CertifiedValue):
            v = self.value * other.value
            logs = []
            if self.err_log > NEG_INF and other.value.sign != 0:
                logs.append(self.err_log + other.value.logm)
            if other.err_log > NEG_INF and self.value.sign != 0:
                logs.append(other.err_log + self.value.logm)
            if self.err_log > NEG_INF and other.err_log > NEG_INF:
                logs.append(self.err_log + other.err_log)
            return CertifiedValue(v, logsumexp(logs) if logs else NEG_INF)
        scale = LogScaled.lift(other)
        e = self.err_log + scale.logm if self.err_log > NEG_INF and scale.sign != 0 else NEG_INF
        return CertifiedValue(self.value * scale, e)

    def as_dict(self) -> dict:
        return {
            "log_value": self.value.logm if self.value.sign != 0 else None,
            "sign": self.value.sign,
            "err": self.err,
        }


# ---------------------------------------------------------------------------
# Bessel J of half-integer order
# ---------------------------------------------------------------------------


def _closed_pair(x: float) -> tuple[float, float]:
    """(J_{1/2}(x), J_{3/2}(x)) from the trigonometric closed forms."""
    pre = math.sqrt(2.0 / (math.pi * x))
    s, c = math.sin(x), math.cos(x)
    return pre * s, pre * (s / x - c)


def _bessel_core(n: int, rho: float, x: float) -> tuple[int, float] | None:
    """(sign, log|J_rho(x)|), or None for 0, at rho = n + 1/2 >= 1/2 and x > 0,
    unchecked.  Closed forms handle rho in {1/2, 3/2}.  For x > 2*rho the
    upward recurrence is stable and used directly; otherwise a normalized
    downward (Miller) recurrence with periodic log rescaling avoids the
    catastrophic instability of upward recursion in the regime rho >> x."""
    if n > 1 and x <= 0.5:
        # ascending series; leading term dominates (term ratio < 1/24), no cancellation
        return _ascending_series(rho, x)
    if n > 1 and x <= 2.0 * rho:
        return _miller_downward(n, x)
    # closed forms, then for x > 2 rho (|J_m| stays O(1)) the safe upward recurrence
    prev, cur = _closed_pair(x)
    for m in range(1, n):
        prev, cur = cur, ((2 * m + 1) / x) * cur - prev
    v = prev if n == 0 else cur
    return (1 if v > 0 else -1, math.log(abs(v))) if v != 0.0 else None


def _ascending_series(rho: float, x: float) -> tuple[int, float] | None:
    """(x/2)^rho/Gamma(rho+1) * sum_j (-x^2/4)^j / (j! (rho+1)_j), log-scaled prefactor."""
    q = x * x / 4.0
    term = 1.0
    total = 1.0
    for j in range(1, 60):
        term *= -q / (j * (rho + j))
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    pref_log = rho * math.log(x / 2.0) - math.lgamma(rho + 1.0)
    if total == 0.0:
        return None
    return 1 if total > 0 else -1, pref_log + math.log(abs(total))


def _miller_downward(n: int, x: float) -> tuple[int, float] | None:
    """Normalized downward recurrence for J_{n+1/2}(x), log-rescaled."""
    start = max(n, int(x / 2) + 1) + 45 + int(math.sqrt(34.0 * x))
    fp = 0.0  # F_{m+1}
    fc = 1e-270  # F_m seed at m = start
    log_scale = 0.0
    at_n = None  # (value, log_scale when recorded)
    for m in range(start, 0, -1):
        fp, fc = fc, ((2 * m + 1) / x) * fc - fp
        # fc now approximates c * J_{(m-1)+1/2}
        if m - 1 == n:
            at_n = (fc, log_scale)
        if m % 16 == 0:
            mag = max(abs(fc), abs(fp))
            if mag > 1e200:
                fc /= mag
                fp /= mag
                log_scale += math.log(mag)
    f_half, f_3half = fc, fp  # indices 1/2 and 3/2 after the loop
    j0, j1 = _closed_pair(x)
    # normalize against whichever closed form is larger (they never vanish together)
    if abs(j0) >= abs(j1) and f_half != 0.0:
        ref_exact, ref_rec = j0, f_half
    else:
        ref_exact, ref_rec = j1, f_3half
    val, scale_at_n = at_n
    if val == 0.0:
        return None
    logm = (
        math.log(abs(val))
        + scale_at_n
        - (math.log(abs(ref_rec)) + log_scale)
        + math.log(abs(ref_exact))
    )
    sign = (1 if val > 0 else -1) * (1 if ref_rec * ref_exact > 0 else -1)
    return sign, logm


# ---------------------------------------------------------------------------
# The sum S(alpha, beta, kappa)
# ---------------------------------------------------------------------------


def s_sum(alpha: float, beta: float, kappa: float, rel_tol: float = 1e-14) -> CertifiedValue:
    """sum over integers m with m + kappa > 0 of (m+kappa)^alpha e^(-beta(m+kappa)).

    Terms are accumulated in the log domain.  Truncation happens once the
    term ratio r = ((t+1)/t)^alpha e^(-beta) certifies a geometric tail below
    rel_tol times the partial sum.
    """
    if alpha < 0 or beta <= 0 or kappa <= 0:
        raise ValueError("s_sum needs alpha >= 0 and beta, kappa > 0")
    m0 = math.floor(-kappa) + 1
    t = m0 + kappa
    if t <= 0:  # kappa integral: floor(-kappa) = -kappa
        t += 1.0
    peak = alpha / beta
    logs = []
    tail_log = NEG_INF
    while True:
        logs.append(alpha * math.log(t) - beta * t)
        t += 1.0
        if t > peak:
            ratio = alpha * math.log1p(1.0 / t) - beta
            if ratio < -1e-12:
                next_log = alpha * math.log(t) - beta * t
                tail_log = next_log - math.log(-math.expm1(ratio))
                if tail_log < logsumexp(logs) + math.log(rel_tol):
                    break
        if t > peak + 1e7:
            raise RuntimeError("s_sum failed to certify truncation")
    total = logsumexp(logs)
    return CertifiedValue(LogScaled(1, total), tail_log)


def s_sum_upper_bound_log(alpha: float, beta: float) -> float:
    """log of beta^(-alpha-1) Gamma(alpha+1) + beta^(-alpha) alpha^alpha e^(-alpha)."""
    a = (-alpha - 1) * math.log(beta) + math.lgamma(alpha + 1.0)
    b = -alpha * math.log(beta) + alpha * math.log(alpha) - alpha
    return logsumexp([a, b])
