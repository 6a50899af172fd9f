import math
from fractions import Fraction

import numpy as np
import pytest

from plusforms.hecke import eigenforms_level1
from plusforms.lfunctions import (
    _cap_nodes,
    _domain_nodes,
    alpha_recovery,
    central_value,
    coefficient_bound_report,
    kohnen_zagier_check,
    lower_bound_rhs,
    norm_identity_rhs,
    petersson_gram,
    petersson_norm_f,
    results_table_csv,
    root_number,
    sym2_at_1,
)
from plusforms.supnorm import FormEvaluator

from oracles import cap_nodes_reference, central_value_quadrature, domain_nodes_reference

KNOWN_NORM_DELTA = 1.0353620568043209223e-6  # independent 30-digit quadrature


def test_central_value_against_quadrature_oracle(delta_form):
    mine = central_value(delta_form, 1, target_err=1e-9)
    ref = central_value_quadrature(delta_form, 1)
    assert mine.to_float() == pytest.approx(ref, rel=1e-8)


def test_central_value_twisted_oracle(delta_form):
    mine = central_value(delta_form, 5, target_err=1e-9)
    ref = central_value_quadrature(delta_form, 5)
    assert mine.to_float() == pytest.approx(ref, rel=1e-8)


def test_functional_equation_residual(delta_form):
    # the solve itself enforces the residual; target 1e-8 over the test set
    for D in (1, 5, 8, 12, 13, 17, 21, 24):
        v = central_value(delta_form, D, target_err=1e-8)
        assert v.value.sign > 0 or v.to_float() >= 0  # reported, not asserted sign


def test_root_number_solved(delta_form):
    assert root_number(delta_form, 1) == 1
    assert root_number(delta_form, 5) == 1


def test_central_value_rejects_non_fundamental(delta_form):
    with pytest.raises(ValueError):
        central_value(delta_form, 9)


def test_b1_is_one(delta_form):
    from plusforms.lfunctions import _twisted_coeffs

    b = _twisted_coeffs(delta_form, 5, 10)
    assert b[1] == 1.0


def test_sym2_partial_product_monotone_error(delta_form):
    vals = []
    for P in (12500, 25000, 50000, 100000):
        v = sym2_at_1(delta_form, prime_limit=P)
        vals.append((P, v.to_float(), v.err))
    # doubling P keeps each value within the coarser claimed error
    final = vals[-1][1]
    for P, v, err in vals[:-1]:
        assert abs(v - final) <= err
    # error estimates shrink monotonically
    errs = [e for _, _, e in vals]
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_alpha_recovery(delta_form):
    a1, a2 = alpha_recovery(delta_form, 2)
    assert a1 + a2 == pytest.approx(-24, rel=1e-12)
    assert a1 * a2 == pytest.approx(2**11, rel=1e-12)


def test_petersson_norm_delta_vs_known(norm_delta):
    assert norm_delta.to_float() == pytest.approx(KNOWN_NORM_DELTA, rel=1e-12)


def test_quadrature_nodes_match_pointwise_reference():
    """The broadcast node builders give the point-by-point nodes and weights,
    in the same order, bit for bit."""
    def same(got, ref):
        return all(g.dtype == r.dtype and g.tobytes() == r.tobytes() for g, r in zip(got, ref))

    for order in (18, 24, 26, 36):
        assert same(_cap_nodes(order), cap_nodes_reference(order)), order
    for order, y_cap in ((18, 64.0), (26, 64.0), (7, 5.0), (5, 1.0)):
        assert same(_domain_nodes(order, y_cap), domain_nodes_reference(order, y_cap)), order
    assert np.all(_domain_nodes(18, 64.0)[0].imag > 0)


def test_norm_identity_triangle(delta_form, norm_delta):
    s2 = sym2_at_1(delta_form, prime_limit=100000)
    rhs = norm_identity_rhs(12, s2)
    rel = abs(rhs.to_float() - norm_delta.to_float()) / norm_delta.to_float()
    assert rel < 1e-3


def test_norm_f_methods_agree(eigenform_13_2, norm_f_13_2):
    spec = petersson_norm_f(eigenform_13_2, "spectral")
    rel = abs(norm_f_13_2.to_float() - spec.to_float()) / spec.to_float()
    assert rel < 1e-3


def test_norm_scaling_bilinearity(eigenform_13_2):
    """Scaling f -> 2f quadruples the norm (checked through the evaluator)."""
    ev = FormEvaluator.from_plus_form(eigenform_13_2, 400)
    g1, _ = petersson_gram([ev])
    ev2 = FormEvaluator.from_plus_form(eigenform_13_2, 400)
    ev2.log_norm = math.log(2.0)
    g2, _ = petersson_gram([ev2])
    assert g2[0, 0] == pytest.approx(4.0 * g1[0, 0], rel=1e-12)
    assert g1[0, 0] > 0


def test_kohnen_zagier_discrepancies(eigenform_13_2, delta_form, norm_f_13_2, norm_delta):
    for D in (1, 5):
        lv = central_value(delta_form, D)
        r = kohnen_zagier_check(eigenform_13_2, delta_form, D, norm_f_13_2, norm_delta, lv)
        assert not r.get("skipped")
        assert r["discrepancy"] < 1e-3


def test_kohnen_zagier_skips_zero_coefficient(eigenform_13_2, delta_form, norm_f_13_2, norm_delta):
    # fhat(21) = 0 for this form (21 = 1 mod 4 admissible, coefficient zero)
    f = eigenform_13_2
    zero_m = None
    for m in range(1, 200):
        if f.basis.admissible(m) and float(f.coeff(m)) == 0.0:
            zero_m = m
            break
    if zero_m is None:
        pytest.skip("no vanishing admissible coefficient below 200")
    from plusforms.arith import is_fundamental_discriminant

    if not is_fundamental_discriminant(zero_m):
        pytest.skip("vanishing coefficient is not at a fundamental discriminant")
    lv = central_value(delta_form, zero_m)
    r = kohnen_zagier_check(eigenform_13_2, delta_form, zero_m, norm_f_13_2, norm_delta, lv)
    assert r.get("skipped")


def test_coefficient_bound_report(eigenform_13_2):
    rep = coefficient_bound_report(eigenform_13_2, d_limit=200)
    assert rep["points"] > 20
    # observed squared-envelope exponent should be a mild power (beta-like)
    assert -1.5 < rep["beta_observed"] < 1.5


def test_coefficient_growth_k_sweep():
    from plusforms.lfunctions import coefficient_growth_k_sweep

    rep = coefficient_growth_k_sweep([Fraction(n, 2) for n in (13, 17, 21, 25)], m=1)
    assert rep["points"] >= 3
    assert math.isfinite(rep["alpha_observed"])
    assert -2.0 < rep["alpha_observed"] < 3.0


def test_lower_bound_rhs(delta_form):
    lv = central_value(delta_form, 1)
    v = lower_bound_rhs(delta_form, 1, "13/2", lv)
    expect = 6.5**0.25 * math.sqrt(lv.to_float())
    assert v.to_float() == pytest.approx(expect, rel=1e-12)


def test_lower_bound_argmax_report(delta_form):
    best = None
    for D in (1, 5, 8, 12, 13, 17, 21, 24, 28, 29, 33):
        lv = central_value(delta_form, D)
        v = lower_bound_rhs(delta_form, D, "13/2", lv).to_float()
        if best is None or v > best[1]:
            best = (D, v)
    assert best is not None and best[1] > 0


def test_lower_bound_vs_measured_sup(delta_form, scan_13_2, norm_f_13_2):
    """The measured normalised sup exceeds a fitted multiple of
    k^(1/4) max_D L(F, chi_D, 1/2)^(1/2) |D|^(-1/2): both sides reported, the
    ratio recorded as the fitted constant (observational pipeline check)."""
    measured = math.exp(scan_13_2.sup.logm - 0.5 * norm_f_13_2.value.logm)
    best = 0.0
    for D in (1, 5, 8, 12, 13, 17, 21, 24):
        lv = central_value(delta_form, D)
        best = max(best, lower_bound_rhs(delta_form, D, "13/2", lv).to_float())
    fitted_c = measured / best
    assert best > 0 and fitted_c > 0
    # the unconditional lower bound direction: measured >= c * rhs with some
    # positive constant; desk-scale c lands well above machine noise
    assert fitted_c > 1e-3


def test_sym2_k_sweep_bracket(delta_form):
    """L(sym^2 F, 1) across the sweep stays within [0.1, 10] (desk-scale proxy
    for the k^(+-eps) bounds).  The weights stop at w = 34, the last whose
    Hecke fields have degree at most 2.  Eigenforms are exact at every weight
    through 60 as well; the list is bounded by the cost of the Euler product
    to 20000 primes per form, not by the eigenvectors."""
    from plusforms.hecke import eigenforms_level1

    lo, hi = math.inf, 0.0
    for w in (12, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34):
        for F in eigenforms_level1(w, prec=20000):
            v = sym2_at_1(F, prime_limit=20000).to_float()
            lo, hi = min(lo, v), max(hi, v)
    assert 0.1 <= lo <= hi <= 10.0


def test_fourier_coefficient_lower_inequality(eigenform_13_2, norm_f_13_2, scan_13_2):
    """y^(k/2) |fhat(|D|)| <= e^(2 pi |D| y) sup, at y = k/(4 pi |D|), for the
    L2-normalised form."""
    f = eigenform_13_2
    k = 6.5
    sup_log = scan_13_2.sup.logm - 0.5 * norm_f_13_2.value.logm
    for D in (1, 5, 8, 13):
        c = abs(float(f.coeff(D))) / math.sqrt(norm_f_13_2.to_float())
        if c == 0:
            continue
        y = k / (4 * math.pi * D)
        lhs = 0.5 * k * math.log(y) + math.log(c)
        rhs = 2 * math.pi * D * y + sup_log
        assert lhs <= rhs + 1e-9


def test_results_table_csv_columns():
    rows = [
        dict(k="13/2", D=1, L_central=0.79, L_err=1e-9, sym2=0.63, norm_F=1e-6,
             norm_f=1e-5, kz_discrepancy=1e-14)
    ]
    text = results_table_csv(rows)
    header = text.splitlines()[0]
    assert header == "k,D,L_central,L_err,sym2,norm_F,norm_f,kz_discrepancy"
