import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import iter_gl_reference
from plusforms.arith import jacobi_symbol
from plusforms.lfunctions import petersson_gram
from plusforms.qexp import PrecisionError, space_basis
from plusforms.supnorm import (
    SQRT3_OVER_8,
    AmplifierSpec,
    CuspFrame,
    FormEvaluator,
    amplified_rhs,
    amplifier_build,
    amplifier_inequality,
    apply_matrix,
    bergman_partial,
    bergman_spectral,
    count_matrices,
    d_gamma,
    enumerate_box,
    enumerate_gl,
    eq_sup_terms,
    gl_arrays,
    iter_gl,
    sl2_reduce,
    supnorm_scan,
    theta_multiplier,
    theta_value,
    u_invariant,
)


# -- frames and evaluation -------------------------------------------------------


def test_cusp_frame_data():
    f0 = CuspFrame.for_weight("W4", "13/2")
    assert f0.cusp == "0" and f0.width == 4 and f0.parameter == 0
    fh = CuspFrame.for_weight("V4", "13/2")
    assert fh.width == 1 and fh.parameter == Fraction(1, 4)
    fh = CuspFrame.for_weight("V4", "15/2")
    assert fh.parameter == Fraction(3, 4)
    fi = CuspFrame.for_weight("I", "13/2")
    assert fi.width == 1 and fi.parameter == 0


def test_lemma_transfer_exact_w_frame(eigenform_13_2):
    """The exact Fricke expansion equals (2|2k) 2^(1/2-k) sum fhat(4m) e(mz),
    coefficient by coefficient, as rational numbers."""
    f = eigenform_13_2
    basis = f.basis
    w4, _phase = basis.frame_series(0, "W4", 200)
    eps = jacobi_symbol(2, 13)
    pref = Fraction(eps, 2**6)
    for m in range(0, 50):
        assert w4.coeff(m) == pref * f.coeff(4 * m)


def test_lemma_transfer_exact_v_frame(eigenform_13_2):
    """The exact V-frame expansion matches i^(m/2) (2|2k) 2^(1/2-k) fhat(m)
    on m = 1 mod 4 (as complex numbers, phases included)."""
    f = eigenform_13_2
    basis = f.basis
    v4, phase = basis.frame_series(0, "V4", 200)
    eps = jacobi_symbol(2, 13)
    for mp_idx in range(0, 40):
        m = 4 * mp_idx + 1
        lemma = (
            complex(math.cos(math.pi * m / 4), math.sin(math.pi * m / 4))
            * eps
            * 2.0**-6
            * float(f.coeff(m))
        )
        mine = phase * float(v4.coeff(mp_idx))
        assert mine == pytest.approx(lemma, abs=1e-9 * (1 + abs(lemma)))


def test_v_frame_support_filter(eigenform_13_2):
    """Only m = 1 mod 4 appear in the V-frame series at k = 13/2."""
    v4, _ = eigenform_13_2.basis.frame_series(0, "V4", 200)
    assert v4.param == Fraction(1, 4)  # exponents (4m'+1)/4
    ev = FormEvaluator.from_plus_form(eigenform_13_2, 400)
    assert ev.frames["V4"].series.param == Fraction(1, 4)


def test_frame_automorphy_consistency(evaluator_13_2):
    """(Im Wz)^(k/2)|f(Wz)| = y^(k/2)|(f|W)(z)| and the V analogue."""
    rng = random.Random(31)
    ev = evaluator_13_2
    for _ in range(10):
        r = rng.uniform(0.45, 0.6)
        th = rng.uniform(1.2, 1.9)
        z = complex(r * math.cos(th), r * math.sin(th))
        wz = -1.0 / (4.0 * z)
        lhs = ev.eval_frame("I", wz)
        rhs = ev.eval_frame("W4", z)
        assert abs((lhs - rhs).to_float()) / rhs.to_float() < 1e-6
    for _ in range(10):
        y = rng.uniform(0.4, 0.7)
        z = complex(-0.5 + rng.uniform(-0.02, 0.02), y)
        vz = z / (2 * z + 1)
        if vz.imag < 0.3:
            continue
        lhs = ev.eval_frame("I", vz)
        rhs = ev.eval_frame("V4", z)
        assert abs((lhs - rhs).to_float()) / rhs.to_float() < 1e-6


def test_w_involution(evaluator_13_2):
    """Applying the Fricke frame twice returns identity-frame values."""
    rng = random.Random(32)
    ev = evaluator_13_2
    for _ in range(8):
        r = rng.uniform(0.45, 0.6)
        th = rng.uniform(1.2, 1.9)
        z = complex(r * math.cos(th), r * math.sin(th))
        wz = -1.0 / (4.0 * z)
        lhs = ev.eval_frame("W4", wz)
        rhs = ev.eval_frame("I", z)
        assert abs((lhs - rhs).to_float()) / rhs.to_float() < 1e-8


def test_eval_precision_guard(eigenform_13_2):
    ev = FormEvaluator.from_plus_form(eigenform_13_2, 60)
    with pytest.raises(PrecisionError):
        ev.eval_frame("I", complex(0.1, 0.05))


def test_eval_truncation_honesty(eigenform_13_2):
    """Doubling the stored precision does not move values beyond the tail."""
    f = eigenform_13_2
    ev1 = FormEvaluator.from_plus_form(f, 420)
    ev2 = FormEvaluator.from_plus_form(f, 840)
    rng = random.Random(33)
    for _ in range(6):
        z = complex(rng.uniform(0, 1), rng.uniform(0.3, 2.0))
        for label in ("I", "W4", "V4"):
            v1 = ev1.eval_frame(label, z, check=False)
            v2 = ev2.eval_frame(label, z, check=False)
            tail = ev1.frames[label].series.tail_log(z.imag, 6.5 / 2 + 1.0)
            if v1.sign == 0:
                continue
            moved = abs((v1 - v2).to_float())
            allowed = math.exp(tail + 0.5 * 6.5 * math.log(z.imag) + ev1.frames[label].log_scale)
            assert moved <= allowed + 1e-12 * v2.to_float()


def test_zero_form_evaluates_to_zero():
    basis = space_basis("13/2", 60, "plus S")
    ev = FormEvaluator.from_basis_element(basis, 0, 60)
    ev.frames["I"].series.coeffs.clear()
    ev.frames["I"].series._eval_arrays = None  # QExpansion's term cache
    assert ev.eval_frame("I", complex(0.3, 1.0), check=False).sign == 0
    grid = ev.eval_frame("I", np.array([0.3 + 1.0j, 0.1 + 2.0j]), check=False)
    assert list(grid.sign) == [0, 0] and np.all(grid.logm == -math.inf)


# -- scan --------------------------------------------------------------------------


def test_scan_fixture_and_stability(evaluator_13_2, scan_13_2):
    res = scan_13_2
    assert SQRT3_OVER_8 <= res.y <= 12 * 6.5 / math.pi
    assert res.near_cusp == (res.y >= 6.5**0.25)
    dense = supnorm_scan(evaluator_13_2, nx=32, ny=64, refine_rounds=2)
    rel = abs((dense.sup - res.sup).to_float()) / dense.sup.to_float()
    assert rel < 1e-3  # doubling the grid moves the sup by under 0.1%


def test_scan_lower_bound_unit_norm(scan_13_2, norm_f_13_2):
    """sup of y^k |f|^2 >= 3/pi for an L2-normalised form (volume bound)."""
    sup_phi_sq = (scan_13_2.sup * scan_13_2.sup / norm_f_13_2.value).to_float()
    assert sup_phi_sq >= 3.0 / math.pi * (1 - 1e-9)


# -- invariants, enumeration, counting ----------------------------------------------


def test_u_invariant_examples():
    assert u_invariant(1j, 1j) == 0
    assert u_invariant(2j, 1j) == pytest.approx(1.0 / 8.0)
    assert d_gamma((1, 0, 0, 1), 1, 0.3 + 2.1j) == pytest.approx(1.0)


def test_d_gamma_identity_random():
    rng = random.Random(51)
    checked = 0
    while checked < 10000:
        a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
        det = a * d - b * c
        if det <= 0:
            continue
        z = complex(rng.uniform(-1, 1), rng.uniform(0.3, 3.0))
        u = u_invariant(apply_matrix((a, b, c, d), z), z)
        dg = d_gamma((a, b, c, d), det, z)
        assert dg * dg == pytest.approx(u + 1.0, abs=1e-9 * (1 + u))
        checked += 1


def test_enumerate_identity_ball():
    mats = enumerate_gl(1, 1j, 0.0)
    assert mats == [(-1, 0, 0, -1), (1, 0, 0, 1)]


def test_enumerate_box_oracle_small():
    for l, z, delta in ((1, 1j, 1.0), (4, 0.3 + 2j, 2.0), (9, 5j, 10.0)):
        assert enumerate_gl(l, z, delta) == enumerate_box(l, z, delta)


def test_upper_triangular_layer():
    """c = 0 layer of the l = 9, z = 5i ball against direct enumeration."""
    mats = [m for m in enumerate_gl(9, 5j, 10.0) if m[2] == 0]
    direct = []
    z = 5j
    for a, d in ((1, 9), (3, 3), (9, 1), (-1, -9), (-3, -3), (-9, -1)):
        for b in range(-200, 201):
            gz = (a * z + b) / d
            if u_invariant(gz, z) <= 10.0:
                direct.append((a, b, 0, d))
    assert sorted(mats) == sorted(direct)


def _assert_reference_enumeration(l, z, delta, w=None):
    """gl_arrays and iter_gl give iter_gl_reference's matrices in its order,
    with the same u bits."""
    ref = list(iter_gl_reference(l, z, delta, w=w))
    mats, us = gl_arrays(l, z, delta, w=w)
    assert mats.dtype == np.int64 and mats.shape == (len(ref), 4)
    assert [tuple(m) for m in mats.tolist()] == [m for m, _u in ref]
    assert [u.hex() for u in us.tolist()] == [u.hex() for _m, u in ref]
    assert [(m, u.hex()) for m, u in iter_gl(l, z, delta, w=w)] == [(m, u.hex()) for m, u in ref]
    return ref


@pytest.mark.parametrize("z", [1j, 0.3 + 2.5j])
@pytest.mark.parametrize("delta", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("l", [1, 4, 9, 36, 144])
def test_gl_arrays_match_reference(l, delta, z):
    _assert_reference_enumeration(l, z, delta)


def test_gl_arrays_match_reference_w_not_z():
    for l, z, delta, w in ((1, 0.1 + 0.9j, 24.0, 0.3 + 1.2j), (9, 0.2 + 1.5j, 5.0, -0.3 + 0.8j)):
        assert _assert_reference_enumeration(l, z, delta, w)


def test_gl_arrays_borderline_exact(monkeypatch):
    """delta set to an attained exact u: the membership is settled by
    _u_exact against delta as a fraction, in both enumerators alike.  The
    matrix stays in when that fraction is at least its u, else it drops."""
    import plusforms.supnorm as sn

    calls = []
    exact = sn._u_exact
    monkeypatch.setattr(sn, "_u_exact", lambda *args: calls.append(args) or exact(*args))
    ref = _assert_reference_enumeration(1, 1j, 0.25)
    assert ((1, 1, 0, 1), 0.25) in ref and calls
    z = 0.3 + 2.5j
    zq = (sn._float_to_fraction(z.real), sn._float_to_fraction(z.imag))
    seen = set()
    for mat in (m for m in enumerate_gl(9, z, 5.0) if m[2] != 0):
        ue = exact(mat, 9, zq, zq)
        kept = sn._float_to_fraction(float(ue)) >= ue
        if kept in seen:
            continue
        seen.add(kept)
        calls.clear()
        ref = _assert_reference_enumeration(9, z, float(ue))
        assert calls and (mat in [m for m, _u in ref]) == kept
    assert seen == {True, False}


def test_gl_arrays_rejects_int64_overflow():
    with pytest.raises(ValueError):
        gl_arrays(10**18, 1j, 1.0)
    with pytest.raises(ValueError):
        count_matrices(1j, 4, 1e30, keep_witnesses=False)


def test_count_monotone_in_delta():
    counts = [count_matrices(1j, 9, dl, keep_witnesses=False).M for dl in (0.1, 1.0, 5.0, 10.0)]
    assert all(x <= y for x, y in zip(counts, counts[1:]))


def test_count_classes_literal_definitions():
    rec = count_matrices(0.3 + 2j, 9, 5.0)
    m_star = sum(1 for (a, b, c, d) in rec.witnesses if c != 0 and (a + d) ** 2 != 36)
    m_u = sum(1 for (a, b, c, d) in rec.witnesses if c == 0 and a != d)
    m_p = sum(1 for (a, b, c, d) in rec.witnesses if (a + d) ** 2 == 36)
    assert (rec.M_star, rec.M_u, rec.M_p) == (m_star, m_u, m_p)
    assert rec.M == len(rec.witnesses)


# -- kernel -------------------------------------------------------------------------


def test_theta_multiplier_modulus():
    rng = random.Random(61)
    for mat in ((1, 1, 0, 1), (1, 0, 4, 1), (5, -1, 16, -3), (3, -1, 4, -1)):
        a, b, c, d = mat
        for _ in range(5):
            z = complex(rng.uniform(-1, 1), rng.uniform(0.2, 2.0))
            jt = theta_multiplier(mat, z)
            assert abs(jt) == pytest.approx(abs(c * z + d) ** 0.5, rel=1e-10)


def test_theta_quotient_instability_reported():
    # theta decays like a theta_4-value approaching the real line at x = 1/2;
    # quotients at such points must be refused
    z0 = complex(0.5, 0.008)
    assert abs(theta_value(z0)) < 1e-6
    with pytest.raises(ArithmeticError):
        theta_multiplier((1, 1, 0, 1), z0)


def test_bergman_partial_matches_per_matrix_theta_quotient():
    """Theta(z) once per call gives the same sum as the quotient per matrix."""
    z, w, k = 0.1 + 0.9j, 0.3 + 1.2j, Fraction(13, 2)
    u_cut = max(24.0, (1.0 / 1e-4) ** (2.0 / 6.5) * 2.0)
    total = 0.0j
    for mat, _u in iter_gl_reference(1, z, u_cut, w=w):
        base = (apply_matrix(mat, z) - w.conjugate()) / 2j
        total += theta_multiplier(mat, z) ** -13 * cmath.exp(-6.5 * cmath.log(base))
    value, _err = bergman_partial(z, w, k, tol=1e-4)
    assert value == 3.0 * 5.5 / (4.0 * math.pi) * total


def test_bergman_hermitian_and_diagonal():
    z, w = 0.2 + 0.8j, -0.1 + 0.6j
    gzw, _ = bergman_partial(z, w, "13/2", tol=1e-4)
    gwz, _ = bergman_partial(w, z, "13/2", tol=1e-4)
    assert gzw == pytest.approx(gwz.conjugate(), rel=1e-10)
    gzz, _ = bergman_partial(z, z, "13/2", tol=1e-4)
    assert abs(gzz.imag) < 1e-10 * abs(gzz)
    assert gzz.real > 0


def test_bergman_spectral_vs_geometric():
    basis = space_basis("13/2", 400, "full S")
    evs = [FormEvaluator.from_basis_element(basis, i, 400) for i in range(basis.dimension)]
    gram, _ = petersson_gram(evs)
    rng = random.Random(71)
    for _ in range(3):
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.5, 1.2))
        w = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.5, 1.2))
        geo, _err = bergman_partial(z, w, "13/2", tol=1e-5)
        spec = bergman_spectral(z, w, evs, gram.tolist())
        assert abs(geo - spec) / abs(spec) < 1e-3


# -- amplifier -----------------------------------------------------------------------


def test_amplifier_build_examples():
    spec = amplifier_build(10.0, "M1", {})
    assert spec.primes == [11, 13, 17, 19]
    assert spec.y[1] == 4
    # ordered pairs (m1, m2) and (m2, m1) both contribute x_m1 x_m2
    assert spec.y[121 * 169] in (-2, 2)
    with pytest.raises(ValueError):
        amplifier_build(1.3, "M1", {})  # k^(1/7) at desk scale: no primes


def test_amplifier_weights_reproduce_squared_sum(eigenform_13_2):
    """(sum_m x_m A(m))^2 = sum_l y_l A(l): the identity that defines y_l,
    checked with the exact normalised eigenvalues of the weight-13/2 form."""
    f = eigenform_13_2
    for kind, e in (("M1", 2), ("M2", 4)):
        probe = amplifier_build(3.0, kind, {})
        a_vals = {p**e: f.normalized_eigenvalue(p**e).to_float() for p in probe.primes}
        spec = amplifier_build(3.0, kind, a_vals)
        lhs = sum(spec.x[m] * a_vals[m] for m in a_vals) ** 2
        rhs = sum(v * f.normalized_eigenvalue(l).to_float() for l, v in spec.y.items())
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_amplifier_y_table_against_double_loop():
    """y_l from the module equals a direct double loop with the d^4 rule."""
    for kind, e in (("M1", 2), ("M2", 4)):
        spec = amplifier_build(3.0, kind, {9: -1.0, 81: -1.0, 25: 1.0, 625: 1.0})
        ms = [p**e for p in spec.primes]
        direct = {}
        for m1 in ms:
            for m2 in ms:
                g = math.gcd(m1, m2)
                d = 1
                while d * d <= g:
                    if g % (d * d) == 0:
                        l = m1 * m2 // d**4
                        direct[l] = direct.get(l, 0) + spec.x[m1] * spec.x[m2]
                    d += 1
        direct = {l: v for l, v in direct.items() if v != 0}
        assert spec.y == direct


def test_amplifier_m2_contains_p8():
    spec = amplifier_build(3.0, "M2", {})
    assert 3**8 in spec.y  # (m1, m2) = (81, 81), d = 1


def test_amplified_rhs_l1_reduces_to_kernel_count():
    """With the trivial weight table the right side is the diagonal sum."""
    spec = AmplifierSpec(3.0, "M1", [3], {9: 1}, {1: 1})
    z = complex(0.3, 1.1)
    k = Fraction(13, 2)
    rhs, per_l = amplified_rhs(z, k, spec, u_cut=2.0)
    direct = sum((1 + u) ** -3.25 for _m, u in iter_gl(1, z, 2.0))
    pref = 3 * 5.5 / (4 * math.pi)
    assert rhs.to_float() == pytest.approx(pref * direct, rel=1e-12)
    assert per_l[1] == pytest.approx(pref * direct, rel=1e-12)


def test_amplifier_inequality_pointwise(eigenform_13_2, scan_13_2, norm_f_13_2):
    sup_phi_sq = (scan_13_2.sup * scan_13_2.sup / norm_f_13_2.value).to_float()
    z = complex(scan_13_2.x, scan_13_2.y)
    for kind in ("M1", "M2"):
        for lam in (3.0, 5.0):
            rec = amplifier_inequality(eigenform_13_2, lam, kind, sup_phi_sq, z, "13/2")
            assert rec["ok"], rec


def test_amplifier_positivity_z_sample(eigenform_13_2, norm_f_13_2, evaluator_13_2):
    """Right side dominates the left at a spread of sample points, for both
    Lambda values in scope (Lambda = k^(1/7) < 3 at desk scale has no odd
    primes in range and is rejected by construction)."""
    rng = random.Random(81)
    f = eigenform_13_2
    count = 0
    for _ in range(50):
        z = complex(rng.uniform(0, 1), math.exp(rng.uniform(math.log(0.4), math.log(8.0))))
        phi = evaluator_13_2.eval_frame("I", z, check=False)
        phi_sq = (phi * phi / norm_f_13_2.value).to_float()
        for lam in (3.0, 5.0):
            rec = amplifier_inequality(f, lam, "M1", phi_sq, z, "13/2")
            assert rec["ok"], (z, lam, rec)
        count += 1
    assert count == 50
    with pytest.raises(ValueError):
        amplifier_build(6.5 ** (1.0 / 7.0), "M1", {})


def test_basis_element_invariance_random_orbit():
    """For each basis element, 5 random group elements and 5 random points
    with y >= 0.3: the invariant value agrees along the orbit to 1e-8."""
    rng = random.Random(83)
    gens = ((1, 1, 0, 1), (1, 0, 4, 1))

    def random_gamma():
        m = (1, 0, 0, 1)
        for _ in range(rng.randint(2, 6)):
            g = gens[rng.randint(0, 1)]
            if rng.random() < 0.5:
                g = (g[3], -g[1], -g[2], g[0])  # inverse
            m = (
                m[0] * g[0] + m[1] * g[2],
                m[0] * g[1] + m[1] * g[3],
                m[2] * g[0] + m[3] * g[2],
                m[2] * g[1] + m[3] * g[3],
            )
        return m

    for kstr in ("13/2", "17/2"):
        basis = space_basis(kstr, 700, "plus S")
        for i in range(basis.dimension):
            ev = FormEvaluator.from_basis_element(basis, i, 700)
            for _ in range(5):
                z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.3, 2.5))
                v0 = ev.eval_invariant(z)
                for _ in range(5):
                    g = random_gamma()
                    assert g[2] % 4 == 0
                    v1 = ev.eval_invariant(apply_matrix(g, z))
                    assert abs((v1 - v0).to_float()) / v0.to_float() < 1e-8


def test_three_frame_covering_spot_check():
    """100 random orbits: the reduction lands in one of the three frame strips
    with imaginary part >= sqrt(3)/8 (the covering behind the scan region)."""
    rng = random.Random(85)
    for _ in range(100):
        z = complex(rng.uniform(-2, 2), math.exp(rng.uniform(math.log(0.05), math.log(5.0))))
        mat, w = sl2_reduce(z)
        c, d = mat[2] % 4, mat[3] % 4
        if c == 0 or c == 2:
            arg = w
        else:
            j = (d * pow(c, -1, 4)) % 4
            arg = (w + j) / 4.0
        assert arg.imag >= SQRT3_OVER_8 - 1e-12


def test_eval_at_cusp_wrapper(eigenform_13_2):
    from plusforms.supnorm import eval_at_cusp

    v = eval_at_cusp(eigenform_13_2, "V4", complex(0.5, 2.0), prec=700)
    ev = FormEvaluator.from_plus_form(eigenform_13_2, 700)
    assert v.logm == ev.eval_frame("V4", complex(0.5, 2.0)).logm
    frame = CuspFrame.for_weight("W4", "13/2")
    v2 = eval_at_cusp(eigenform_13_2, frame, complex(0.2, 1.0), prec=700)
    assert v2.sign != 0


def test_per_form_sup_report():
    """Observational per-form sup growth against the reference slopes."""
    from plusforms.supnorm import per_form_sup_report

    rep = per_form_sup_report([Fraction(n, 2) for n in (13, 17, 19, 21)], prec=700)
    assert len(rep["rows"]) == 4
    assert math.isfinite(rep["slope"])
    assert rep["reference_slopes"] == (3.0 / 7.0, 0.25)
    # growth is mild: between flat and the trivial-bound regime
    assert -0.5 < rep["slope"] < 1.5


def test_eq_sup_terms():
    t = eq_sup_terms("13/2", 2.0, 1.5)
    assert t["term1"] == 0.5
    assert t["term2"] == pytest.approx(1.5 / math.sqrt(6.5))
    assert t["term3"] == pytest.approx(4.0 / math.sqrt(6.5))
    assert t["term4"] == pytest.approx(64.0 / 6.5)


# -- reduction ------------------------------------------------------------------------


def test_sl2_reduce():
    rng = random.Random(91)
    for _ in range(50):
        z = complex(rng.uniform(-3, 3), math.exp(rng.uniform(math.log(0.05), math.log(4.0))))
        mat, w = sl2_reduce(z)
        a, b, c, d = mat
        assert a * d - b * c == 1
        assert abs(w.real) <= 0.5 + 1e-12 and abs(w) >= 1 - 1e-12
        assert apply_matrix(mat, w) == pytest.approx(z, abs=1e-9)
