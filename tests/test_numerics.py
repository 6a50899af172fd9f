import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plusforms.numerics import (
    CertifiedValue,
    LogScaled,
    _bessel_core,
    s_sum,
    s_sum_upper_bound_log,
)

from oracles import bessel_j_half, bessel_series

HALF = Fraction(1, 2)


# -- LogScaled ---------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-600, max_value=600))
def test_logscaled_roundtrip_600_orders(log10x):
    x = LogScaled(1, log10x * math.log(10.0))
    back = LogScaled.from_float(x.to_float()) if abs(log10x) < 300 else x
    assert back.sign == 1
    assert abs(back.logm - x.logm) <= 1e-14 * max(1.0, abs(x.logm))


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=-1e6, max_value=1e6).filter(lambda v: abs(v) > 1e-6),
    st.floats(min_value=-1e6, max_value=1e6).filter(lambda v: abs(v) > 1e-6),
)
def test_logscaled_field_ops(a, b):
    la, lb = LogScaled.from_float(a), LogScaled.from_float(b)
    assert (la * lb).to_float() == pytest.approx(a * b, rel=1e-12)
    assert (la + lb).to_float() == pytest.approx(a + b, rel=1e-9, abs=1e-9 * (abs(a) + abs(b)))
    assert (la - lb).to_float() == pytest.approx(a - b, rel=1e-9, abs=1e-9 * (abs(a) + abs(b)))


def test_certified_value():
    v = CertifiedValue(LogScaled.from_float(2.0), math.log(1e-10))
    assert v.err == pytest.approx(1e-10)
    assert v.rel_err() == pytest.approx(5e-11)
    w = v * 3
    assert w.to_float() == pytest.approx(6.0)
    assert w.err == pytest.approx(3e-10)
    d = v.as_dict()
    assert set(d) == {"log_value", "sign", "err"}
    assert d["sign"] == 1 and d["log_value"] == pytest.approx(math.log(2.0))


# -- Bessel ------------------------------------------------------------------


def test_bessel_half_closed_form():
    v = bessel_j_half(HALF, math.pi / 2)
    assert v.to_float() == pytest.approx(2.0 / math.pi, rel=1e-14)


def test_bessel_three_half_vs_series():
    v = bessel_j_half(Fraction(3, 2), 1.0)
    ref = float(bessel_series(Fraction(3, 2), 1.0))
    assert v.to_float() == pytest.approx(ref, rel=1e-12)


def test_bessel_small_argument_magnitude():
    rho = Fraction(99, 2)
    v = bessel_j_half(rho, 1.0)
    bound = 0.125 + float(rho) * math.log(0.5) - math.lgamma(float(rho) + 1.0)
    assert v.value.logm <= bound + 1e-9


def test_bessel_200_point_grid_against_series_oracle():
    rng = random.Random(7)
    worst = 0.0
    for _ in range(200):
        n = rng.randint(0, 99)
        rho = Fraction(2 * n + 1, 2)
        x = 10 ** rng.uniform(-4, math.log10(50.0))
        mine = bessel_j_half(rho, x)
        with mp.workdps(60):
            ref = bessel_series(rho, x)
            if ref == 0:
                continue
            rel = abs((mp.mpf(mine.value.sign) * mp.e**mp.mpf(mine.value.logm) - ref) / ref)
        worst = max(worst, float(rel))
    assert worst < 1e-12


@pytest.mark.parametrize("rho, xs", [
    (HALF, [1e-3, 0.4, 1.0, 7.5, 300.0]),  # closed form
    (Fraction(3, 2), [1e-3, 0.4, 1.0, 7.5, 300.0]),  # closed form
    (Fraction(11, 2), [1e-4, 0.01, 0.3, 0.5]),  # ascending series, x <= 0.5
    (Fraction(59, 2), [1e-6, 0.25, 0.5]),  # ascending series
    (Fraction(11, 2), [11.0 + 1e-9, 12.0, 40.0, 1e3]),  # upward recurrence, x > 2 rho
    (Fraction(59, 2), [60.0, 75.0, 500.0]),  # upward recurrence
    (Fraction(11, 2), [0.5 + 1e-9, 1.0, 5.0, 11.0]),  # Miller recurrence
    (Fraction(59, 2), [0.6, 3.0, 30.0, 59.0]),  # Miller recurrence
    (Fraction(199, 2), [0.75, 10.0, 150.0]),  # Miller recurrence
])
def test_bessel_core_matches_bessel_j_half(rho, xs):
    """The unchecked core gives bessel_j_half's sign and log magnitude bit
    for bit in each of the four regimes, and bessel_j_half's error is the
    core's log magnitude plus log(rel_err)."""
    n = int(rho - HALF)
    for x in xs:
        core = _bessel_core(n, float(rho), x)
        v = bessel_j_half(rho, x)
        assert core is not None and core[0] == v.value.sign, x
        assert core[1].hex() == v.value.logm.hex(), x
        assert v.err_log.hex() == (core[1] + math.log(1e-12)).hex(), x


# -- the exponential sum -----------------------------------------------------


def test_s_sum_geometric_example():
    v = s_sum(0.0, 1.0, 1.0)
    assert v.to_float() == pytest.approx(1.0 / (math.e - 1.0), rel=1e-12)


def test_s_sum_certified_error_is_honest():
    # refining the truncation never moves the value by more than the bound
    for alpha, beta, kappa in ((3.0, 0.7, 1.0), (12.5, 2.0, 0.25), (30.0, 6.0, 5.0)):
        coarse = s_sum(alpha, beta, kappa, rel_tol=1e-6)
        fine = s_sum(alpha, beta, kappa, rel_tol=1e-15)
        moved = abs(coarse.to_float() - fine.to_float())
        assert moved <= coarse.err * (1 + 1e-9)


def test_s_sum_upper_bound_lemma_grid():
    rng = random.Random(17)
    for _ in range(100):
        alpha = 10 ** rng.uniform(-1, 1.4)
        beta = 10 ** rng.uniform(-1.3, 1.0)
        kappa = 10 ** rng.uniform(-1, 1.3)
        val = s_sum(alpha, beta, kappa)
        assert val.value.logm <= s_sum_upper_bound_log(alpha, beta) + 1e-12


def test_exp_decay_lemma_grid():
    # kappa^a e^(-b kappa) <= a^a b^-a e^-a e^(-b kappa/2) for kappa >= 6a/b
    rng = random.Random(23)
    for _ in range(100):
        alpha = 10 ** rng.uniform(-1, 1.2)
        beta = 10 ** rng.uniform(-1, 1.0)
        kappa = 6.0 * alpha / beta * rng.uniform(1.0, 4.0)
        lhs = alpha * math.log(kappa) - beta * kappa
        rhs = alpha * (math.log(alpha) - math.log(beta) - 1.0) - beta * kappa / 2.0
        assert lhs <= rhs + 1e-12
