from fractions import Fraction

import numpy as np
import pytest

from plusforms.arith import admissible
from plusforms.salie import (
    bessel_correction_factor,
    poincare_coeff,
    salie_h,
    spectral_average,
    _poincare_sum,
)

from oracles import (
    poincare_sum_reference,
    salie_direct,
    salie_unit_sum,
    spectral_average_two_pass,
)


def test_admissibility():
    assert admissible("13/2", 1) and admissible("13/2", 4)
    assert not admissible("13/2", 2) and not admissible("13/2", 3)
    assert admissible("15/2", 3) and not admissible("15/2", 1)
    with pytest.raises(ValueError):
        salie_h(1, 2, 1, Fraction(13, 2))


def test_salie_h_names_its_bad_input():
    """salie_h checks c, then n and m with the named errors of the c-sum."""
    for c, n, m in ((0, 1, 1), (-2, 1, 1)):
        with pytest.raises(ValueError, match="c must be positive"):
            salie_h(c, n, m, "13/2")
    for n, m in ((0, 1), (1, 0), (-3, 1)):
        with pytest.raises(ValueError, match="n, m must be positive"):
            salie_h(1, n, m, "13/2")
    for n, m in ((2, 1), (1, 3)):
        with pytest.raises(ValueError, match="plus-space congruence"):
            salie_h(1, n, m, "13/2")


def test_salie_h_1_1_1():
    """H_1(1,1) = -1 at k = 13/2: the delta in {1,3} sum evaluates by hand to
    (1-i)/2 * (-1 - i) = -1."""
    v = salie_h(1, 1, 1, "13/2")
    assert v == pytest.approx(-1.0 + 0j, abs=1e-13)


def test_salie_against_direct_oracle():
    for c, n, m, k in ((1, 1, 1, "13/2"), (2, 1, 1, "13/2"), (3, 4, 4, "13/2"),
                       (5, 1, 5, "13/2"), (4, 3, 3, "15/2"), (7, 4, 8, "17/2")):
        mine = salie_h(c, n, m, k)
        from plusforms.arith import half_integer

        ref = salie_direct(c, n, m, half_integer(k))
        assert mine == pytest.approx(ref, abs=1e-12)


@pytest.mark.parametrize("k", ["13/2", "15/2", "17/2", "19/2", "61/2"])
def test_salie_closed_form_against_unit_sum_grid(k):
    """Every c < 400 (2^s to 256, p^e with p | nm, Tonelli-Shanks primes
    p = 1 mod 8, 9, 25, 27, 49, 121, 125, 343) and every (n, m) over the first
    8 admissible indices: the closed form matches the unit sum to 1e-12, and
    is an exact 0 wherever the unit sum is below 1e-12."""
    idx = [n for n in range(1, 40) if admissible(k, n)][:8]
    grid = np.array(idx)
    for c in range(1, 400):
        ref = salie_unit_sum(c, grid[:, None], grid[None, :], Fraction(k))
        for i, n in enumerate(idx):
            for j, m in enumerate(idx):
                h = salie_h(c, n, m, k)
                assert abs(h - ref[i, j]) < 1e-12, (c, n, m)
                if abs(ref[i, j]) < 1e-12:
                    assert h == 0, (c, n, m)


def test_salie_closed_form_against_direct_oracle_sparse():
    """A sparse subset of the grid, including the prime powers, against the
    40-digit unit sum."""
    for k in ("13/2", "15/2"):
        idx = [n for n in range(1, 40) if admissible(k, n)][:8]
        for c in (8, 9, 25, 27, 49, 64, 73, 97, 121, 125, 256, 343, 360):
            for n, m in ((idx[0], idx[1]), (idx[2], idx[2]), (idx[3], idx[7])):
                ref = salie_direct(c, n, m, Fraction(k))
                h = salie_h(c, n, m, k)
                assert abs(h - ref) < 1e-12, (k, c, n, m)
                assert (h == 0) == (abs(ref) < 1e-12), (k, c, n, m)


def test_salie_even_c_prefactor_weight():
    # even c carries prefactor weight 1 (the (4|c) symbol vanishes);
    # odd c, including c = 3 mod 4, carries weight 2 and does contribute.
    # H_2(1, 1) vanishes at 13/2 (the 40-digit unit sum is 1e-42): its 2-adic
    # sum cancels exactly, so c = 4 shows that even c contribute
    assert salie_h(3, 1, 1, "13/2") != 0
    assert salie_h(2, 1, 1, "13/2") == 0
    assert salie_h(4, 1, 1, "13/2") != 0


def test_poincare_delta_limit():
    """For k large and n = m the Bessel tail vanishes: g -> 2/3."""
    g = poincare_coeff("61/2", 1, 1, tol=1e-12)
    assert g.value.to_float() == pytest.approx(2.0 / 3.0, rel=1e-10)
    g = poincare_coeff("13/2", 1, 1, tol=1e-12)
    assert abs(g.value.to_float() - 2.0 / 3.0) > 0.02  # small k is not degenerate


def test_poincare_reality():
    for m in (1, 4, 5):
        g = poincare_coeff("13/2", m, m, tol=1e-10)
        # H_c(m, m) is real: the imaginary residual of the c-sum is rounding,
        # kept out of the certified error and below it
        assert g.value.value.sign != 0
        assert g.value.err < 1e-9
        assert g.imag_residual < g.value.err


def test_poincare_truncation_honesty():
    """Refining the truncation moves the value by less than the reported bound."""
    for (k, m) in (("13/2", 1), ("13/2", 9), ("17/2", 4)):
        g = poincare_coeff(k, m, m, tol=1e-6)
        g_fine = poincare_coeff(k, m, m, tol=1e-13)
        assert abs(g.value.to_float() - g_fine.value.to_float()) <= g.value.err + 1e-15


def test_poincare_offdiagonal_ratio(eigenform_13_2):
    """g(m, n)/g(n, n)-style consistency against exact coefficients: the
    coefficients of the index-m Poincare series are proportional to
    conj(fhat(m)) fhat(n) in a one-dimensional space."""
    f = eigenform_13_2
    g_11_4 = poincare_coeff("13/2", 1, 4, tol=1e-10)  # index m=1, coefficient n=4
    g_11_1 = poincare_coeff("13/2", 1, 1, tol=1e-10)
    ratio = g_11_4.value.to_float() / g_11_1.value.to_float()
    expect = float(f.coeff(4)) / float(f.coeff(1))
    assert ratio == pytest.approx(expect, rel=1e-7)


def test_spectral_average_positivity_and_ratios(eigenform_13_2):
    f = eigenform_13_2
    s1 = spectral_average("13/2", 1, rel_tol=1e-7)
    assert s1.value.sign == 1
    for m in (4, 5, 9):
        sm = spectral_average("13/2", m, rel_tol=1e-7)
        assert sm.value.sign == 1
        ratio = (sm.value / s1.value).to_float()
        assert ratio == pytest.approx(float(f.coeff(m)) ** 2, rel=1e-6)


def test_norm_consistency_across_m(eigenform_13_2):
    """<f,f> inferred as fhat(m)^2 / spectral_average(m) is m-independent."""
    f = eigenform_13_2
    values = []
    m = 1
    while len(values) < 10:
        if admissible("13/2", m) and float(f.coeff(m)) != 0:
            sa = spectral_average("13/2", m, rel_tol=1e-7)
            values.append(float(f.coeff(m)) ** 2 / sa.to_float())
        m += 1
    mid = sorted(values)[len(values) // 2]
    assert all(abs(v - mid) / mid < 1e-5 for v in values)


def _certified_bits(cv) -> tuple:
    return cv.value.sign, float(cv.value.logm).hex(), float(cv.err_log).hex()


def _poincare_bits(g) -> tuple:
    return (g.k, g.m, g.n, g.c_max, _certified_bits(g.value), g.tail_bound.hex(),
            g.imag_residual.hex())


@pytest.mark.parametrize("k", ["13/2", "21/2", "29/2"])
def test_spectral_average_one_running_sum_matches_two_pass_oracle(k):
    """Extending one c-sum past its first c_max gives the two fresh sums of
    the two-pass oracle bit for bit, value and error, and each step of the
    running sum is poincare_coeff at its tol."""
    ms = [m for m in range(1, 22) if admissible(k, m)]
    assert len(ms) == 11
    for m in ms:
        for rel_tol in (1e-7, 1e-8):
            got = spectral_average(k, m, rel_tol=rel_tol)
            assert _certified_bits(got) == _certified_bits(
                spectral_average_two_pass(k, m, rel_tol=rel_tol)), (m, rel_tol)
        certify = _poincare_sum(k, m, m)
        for tol in (1e-7, 1e-9):
            assert _poincare_bits(certify(tol)) == _poincare_bits(
                poincare_coeff(k, m, m, tol=tol)), (m, tol)


def test_bessel_correction_factor_large_k():
    assert bessel_correction_factor("45/2") == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("k", ["13/2", "15/2", "21/2", "25/2", "61/2"])
def test_poincare_sum_matches_per_term_reference(k):
    """The c-sum with its checks made once and unchecked cores per c equals
    the per-term-object oracle bit for bit: value, error, c_max, tail bound
    and imaginary residual, for diagonal and off-diagonal (n, m) in both
    orders, as one running sum certified at 1e-7 and then at 1e-9."""
    ms = [m for m in range(1, 22) if admissible(k, m)]
    pairs = [(m, m) for m in ms] + [(ms[0], ms[1]), (ms[1], ms[0]), (ms[2], ms[-1])]
    for m, n in pairs:
        mine, ref = _poincare_sum(k, m, n), poincare_sum_reference(k, m, n)
        for tol in (1e-7, 1e-9):
            assert _poincare_bits(mine(tol)) == _poincare_bits(ref(tol)), (m, n, tol)


@pytest.mark.parametrize("k", [6, "6", "3/2", "1/2", "-1/2"])
def test_poincare_rejects_weights_without_a_c_sum(k):
    """An integral weight, or a half-integral one below 5/2, is named; the
    indices are not blamed."""
    with pytest.raises(ValueError, match="half-integral weight k >= 5/2"):
        poincare_coeff(k, 1, 1)
    with pytest.raises(ValueError, match="half-integral weight k >= 5/2"):
        spectral_average(k, 1)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_poincare_rejects_nonpositive_tol(tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        poincare_coeff("13/2", 1, 1, tol=tol)
    certify = _poincare_sum("13/2", 1, 1)
    with pytest.raises(ValueError, match="tol must be positive"):
        certify(tol)


@pytest.mark.parametrize("rel_tol", [0.0, -1e-8, float("nan")])
def test_spectral_average_rejects_nonpositive_rel_tol(rel_tol):
    with pytest.raises(ValueError, match="rel_tol must be positive"):
        spectral_average("13/2", 1, rel_tol=rel_tol)


def test_poincare_rejects_nonpositive_index():
    for m, n in ((0, 1), (1, 0), (-3, 1)):
        with pytest.raises(ValueError, match="n, m must be positive"):
            poincare_coeff("13/2", m, n)
