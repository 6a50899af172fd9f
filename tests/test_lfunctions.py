import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from plusforms.arith import admissible, fundamental_discriminants, kronecker_symbol
from plusforms.hecke import eigenbasis_plus, eigenforms_level1
from plusforms.lfunctions import (
    _PIECES,
    _cap_nodes,
    _strip_gram,
    _twisted_coeffs,
    central_value,
    kohnen_zagier_check,
    norm_identity_rhs,
    petersson_gram,
    petersson_norm_f,
    petersson_norm_integral,
    root_number,
    sym2_at_1,
    upper_gamma_q,
)
from plusforms.qexp import FloatView, QExpansion, space_basis
from plusforms.supnorm import FormEvaluator

from oracles import (
    cap_nodes_reference,
    central_value_quadrature,
    domain_nodes_reference,
    float_series_reference,
    petersson_gram_reference,
    twisted_coeffs_reference,
    upper_gamma_q_reference,
)

KNOWN_NORM_DELTA = 1.0353620568043209223e-6  # independent 30-digit quadrature


def test_upper_gamma_q_against_mpmath():
    # every integer order the AFE (w/2) and the level-1 Parseval strip
    # (w - 1) use through w = 62, and every half-integer order 1/2 .. 61/2 of
    # the plus-space strips (k - 1), on x from 1e-3 to 800; below 1e-290 only
    # an absolute check, since float64 loses relative precision in the
    # subnormal range
    xs = np.geomspace(1e-3, 800.0, 97)
    for s in list(range(1, 62)) + [h / 2 for h in range(1, 62, 2)]:
        got = upper_gamma_q(s, xs)
        assert got.shape == xs.shape
        for x, q in zip(xs.tolist(), got.tolist()):
            ref = upper_gamma_q_reference(s, x)
            if ref > 1e-290:
                assert abs(q - ref) <= 2e-13 * ref, (s, x)
            else:
                assert abs(q - ref) <= 1e-300, (s, x)
    assert isinstance(upper_gamma_q(3, 2.0), float)
    assert isinstance(upper_gamma_q(2.5, 2.0), float)
    assert upper_gamma_q(1, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-15)
    assert upper_gamma_q(0.5, 2.0) == pytest.approx(math.erfc(math.sqrt(2.0)), rel=1e-15)
    for s in (2.25, 0, -0.5):
        with pytest.raises(ValueError):
            upper_gamma_q(s, 1.0)


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


def test_twisted_coeffs_read_chi_from_one_period():
    """chi_D read from one period of |D| equals kronecker_symbol(D, n) for
    every fundamental |D| <= 400 and n <= 3|D| (weight 1 makes b(n) = chi_D(n)
    for coefficients 1)."""

    class Ones:
        weight = 1

        @staticmethod
        def view(n):
            return FloatView([[1] * (n + 1)], 1)

    for D in fundamental_discriminants(400, 1) + fundamental_discriminants(400, -1):
        b = _twisted_coeffs(Ones, D, 3 * abs(D))
        assert b.tolist() == [0.0] + [float(kronecker_symbol(D, n))
                                      for n in range(1, 3 * abs(D) + 1)], D


@pytest.mark.parametrize("w", [12, 18, 24])
def test_central_value_equals_solve_on_exact_scalar_coeffs(w, monkeypatch):
    """central_value and root_number read the float view of the form's
    coefficients; a solve whose coefficients are float(Fhat(n)) of exact
    scalars gives the same value, error and root number bit for bit."""
    discs = (1, 5, 8, 12, 13, -3, -4, -7, -8, -15, 17, -20, 21, -23)
    forms = eigenforms_level1(w, 1500)
    got = [[(central_value(F, D), root_number(F, D)) for D in discs] for F in forms]
    monkeypatch.setattr("plusforms.lfunctions._twisted_coeffs", twisted_coeffs_reference)
    ref = [[(central_value(F, D), root_number(F, D)) for D in discs] for F in forms]
    bits = lambda rows: [[(v.value.sign, v.value.logm.hex(), v.err_log.hex(), eps)
                          for v, eps in row] for row in rows]
    assert bits(got) == bits(ref)


def test_gram_of_no_forms_is_empty():
    gram, err = petersson_gram([])
    assert gram.shape == (0, 0) and err == 0.0


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


def test_petersson_norm_delta_vs_known(norm_delta):
    assert norm_delta.to_float() == pytest.approx(KNOWN_NORM_DELTA, rel=1e-12)


def test_quadrature_nodes_match_pointwise_reference():
    """The broadcast node builders give the point-by-point nodes and weights,
    in the same order, bit for bit."""
    def same(got, ref):
        return all(g.dtype == r.dtype and g.tobytes() == r.tobytes() for g, r in zip(got, ref))

    for order in (18, 24, 26, 36):
        assert same(_cap_nodes(order), cap_nodes_reference(order)), order
        assert np.all(_cap_nodes(order)[0].imag > 0)


def _gram_cases():
    """(evaluators, label) for the plus eigenforms at 13/2, 17/2, 21/2 and
    29/2 (precision 900) and the 'full S' bases at 13/2 and 21/2."""
    for k in ("13/2", "17/2", "21/2", "29/2"):
        evs = []
        for f in eigenbasis_plus(k, prec=900):
            f.coefficients_upto(900)
            evs.append(FormEvaluator.from_plus_form(f, 900))
        yield evs, f"plus {k}"
    for k, prec in (("13/2", 200), ("21/2", 400)):
        basis = space_basis(k, prec, "full S")
        yield [FormEvaluator.from_basis_element(basis, i, prec)
               for i in range(basis.dimension)], f"full S {k}"


def test_gram_matches_full_domain_quadrature():
    """Parseval strips plus a quadrature cap give the Gram matrix of 2-d
    quadrature over the whole domain to 1e-13 of its largest entry, and an
    error estimate (orders 18 against 26 on the cap) below that."""
    for evs, name in _gram_cases():
        got, err = petersson_gram(evs)
        ref, _ = petersson_gram_reference(evs)
        top = np.max(np.abs(ref))
        assert np.max(np.abs(got - ref)) <= 1e-13 * top, name
        assert 0.0 <= err <= 1e-13 * top, name


def test_fricke_translates_in_one_call_match_four_calls(evaluator_13_2):
    """The four Fricke translates of the cap nodes, evaluated in one call,
    give the values of four separate calls bit for bit (they share every y,
    so the guard index and the real-factor table are the same)."""
    basis = space_basis("21/2", 400, "full S")
    evs = [evaluator_13_2] + [FormEvaluator.from_basis_element(basis, i, 400)
                              for i in range(basis.dimension)]
    label, scale, shifts = _PIECES[1]
    assert label == "W4" and len(shifts) == 4
    for order in (18, 26):
        zs, _ = _cap_nodes(order)
        for ev in evs:
            batched = ev.eval_frame_complex(label, np.concatenate([scale * (zs + s) for s in shifts]))
            single = np.concatenate([ev.eval_frame_complex(label, scale * (zs + s)) for s in shifts])
            assert batched.tobytes() == single.tobytes(), order


def test_strip_rejects_nonzero_constant_term():
    """A nonzero constant term makes the Petersson integral diverge: a named
    ValueError, from the strip and from a Gram matrix of non-cusp forms."""
    q = QExpansion(Fraction(13, 2), 1, 0, 5, {0: Fraction(1), 1: Fraction(3)})
    with pytest.raises(ValueError, match="frame W4 has a nonzero constant term"):
        _strip_gram("W4", [float_series_reference(q)], 6.5, 0.25)
    cusp = QExpansion(Fraction(13, 2), 1, 0, 5, {1: Fraction(3)})
    assert _strip_gram("I", [float_series_reference(cusp)], 6.5, 1.0)[0, 0] > 0
    basis = space_basis("13/2", 200, "plus M")
    evs = [FormEvaluator.from_basis_element(basis, i, 200) for i in range(basis.dimension)]
    with pytest.raises(ValueError, match="nonzero constant term"):
        petersson_gram(evs)


def test_strip_matches_exact_parseval_sum():
    """The strip of two series, summed in floats in the log domain, against
    the same Parseval sum of incomplete gammas in 40-digit arithmetic, with
    the second series scaled by e^3 through its log scale."""
    a = QExpansion(Fraction(21, 2), 1, Fraction(1, 4), 40,
                   {m: Fraction((-1) ** m * (m + 1) ** 3, 7) for m in range(41)})
    b = QExpansion(Fraction(21, 2), 1, Fraction(1, 4), 40,
                   {m: Fraction(m * m - 5, 3) for m in range(0, 41, 2)})
    got = _strip_gram("V4", [float_series_reference(a), float_series_reference(b, 3.0)], 10.5, 1.0)
    with mp.workdps(40):
        ref = [[mp.mpf(0)] * 2 for _ in range(2)]
        for m in range(41):
            r = 4 * mp.pi * (m + mp.mpf(1) / 4)
            w = mp.gammainc(mp.mpf(19) / 2, r, mp.inf) / r ** (mp.mpf(19) / 2)
            c = [mp.mpf(q.coeff(m).numerator) / q.coeff(m).denominator for q in (a, b)]
            c[1] *= mp.exp(3)
            for i in range(2):
                for j in range(2):
                    ref[i][j] += c[i] * c[j] * w
        for i in range(2):
            for j in range(2):
                assert abs(got[i, j] - float(ref[i][j])) <= 1e-14 * abs(float(ref[i][j])), (i, j)


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
    """Scaling f -> 2f quadruples the norm (checked through the evaluator,
    every frame series scaled by 2)."""
    ev = FormEvaluator.from_plus_form(eigenform_13_2, 400)
    g1, _ = petersson_gram([ev])
    ev2 = FormEvaluator.from_plus_form(eigenform_13_2, 400)
    for fs in ev2.frames.values():
        fs.log_scale += math.log(2.0)
    g2, _ = petersson_gram([ev2])
    assert g2[0, 0] == pytest.approx(4.0 * g1[0, 0], rel=1e-12)
    assert g1[0, 0] > 0


def test_kohnen_zagier_discrepancies(eigenform_13_2, delta_form, norm_f_13_2, norm_delta):
    for D in (1, 5):
        lv = central_value(delta_form, D)
        r = kohnen_zagier_check(eigenform_13_2, delta_form, D, norm_f_13_2, norm_delta, lv)
        assert not r.get("skipped")
        assert r["discrepancy"] < 1e-3


@pytest.mark.parametrize("kstr, D", [("13/2", -3), ("13/2", -4), ("13/2", -8),
                                     ("19/2", 1), ("19/2", 5)])
def test_kohnen_zagier_rejects_discriminant_of_wrong_sign(kstr, D):
    """The identity holds only for (-1)^(k-1/2) D > 0; any other D is an
    error, not a skipped row."""
    f = eigenbasis_plus(kstr)[0]
    with pytest.raises(ValueError, match=r"discriminant sign must satisfy \(-1\)\^\(k-1/2\) D > 0"):
        kohnen_zagier_check(f, f.shimura_partner, D, None, None, None)


def test_kohnen_zagier_skips_zero_coefficient(eigenform_13_2, delta_form, norm_f_13_2, norm_delta):
    # fhat(21) = 0 for this form (21 = 1 mod 4 admissible, coefficient zero)
    f = eigenform_13_2
    zero_m = None
    for m in range(1, 200):
        if admissible(f.k, m) and float(f.coeff(m)) == 0.0:
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


def test_lower_bound_vs_measured_sup(delta_form, scan_13_2, norm_f_13_2):
    """The measured normalised sup exceeds a fitted multiple of
    k^(1/4) max_D L(F, chi_D, 1/2)^(1/2) |D|^(-1/2): both sides reported, the
    ratio recorded as the fitted constant (observational pipeline check)."""
    measured = math.exp(scan_13_2.sup.logm - 0.5 * norm_f_13_2.value.logm)
    best = 0.0
    for D in (1, 5, 8, 12, 13, 17, 21, 24):
        lv = central_value(delta_form, D).to_float()
        best = max(best, 6.5**0.25 * math.sqrt(max(lv, 0.0)) / math.sqrt(D))
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


def test_float_readers_make_no_exact_scalar(monkeypatch):
    """At 25/2, whose Hecke field is quadratic, the central values, sym^2,
    <F,F>, the quadrature <f,f> and the identity check read every
    coefficient from the forms' float views: no exact scalar is made
    (hecke._scalar) and none is floated (FieldElement.__float__)."""
    from plusforms import hecke
    from plusforms.arith import FieldElement

    f = eigenbasis_plus("25/2")[0]
    F = f.shimura_partner
    F.coefficients_upto(2000)
    assert isinstance(f.eigen_table[3], FieldElement)
    calls = []
    scalar, to_float = hecke._scalar, FieldElement.__float__
    monkeypatch.setattr(hecke, "_scalar", lambda *a: calls.append("_scalar") or scalar(*a))
    monkeypatch.setattr(FieldElement, "__float__",
                        lambda x: calls.append("__float__") or to_float(x))
    norm_f = petersson_norm_f(f, "quadrature", prec=700)
    norm_F = petersson_norm_integral(F)
    sym2_at_1(F, prime_limit=2000)
    for D in (1, 5, 8):
        kohnen_zagier_check(f, F, D, norm_f, norm_F, central_value(F, D))
    assert calls == []
