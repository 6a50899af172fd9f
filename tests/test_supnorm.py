import math
import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    basis_frame_series,
    domain_nodes_reference,
    iter_gl_reference,
    kernel_term_reference,
    plus_frames_reference,
    theta_reference_value,
    u_exact_reference,
)
from plusforms.arith import jacobi_symbol
from plusforms.lfunctions import petersson_gram
from plusforms.numerics import log_abs_fraction
from plusforms.qexp import FloatView, PrecisionError, QExpansion, space_basis
from plusforms.supnorm import (
    SQRT3_OVER_8,
    AmplifierSpec,
    FormEvaluator,
    FrameSeries,
    amplified_rhs,
    amplifier_build,
    amplifier_inequality,
    apply_matrix,
    bergman_partial,
    bergman_spectral,
    count_matrices,
    enumerate_box,
    enumerate_gl,
    eq_sup_terms,
    gl_arrays,
    plus_form_precision,
    sl2_reduce,
    supnorm_scan,
    _kernel_terms,
    u_invariant,
)


# -- frames and evaluation -------------------------------------------------------


def test_cusp_frame_data():
    """The frame series of a plus form: width 1 everywhere, parameter 0 in
    the identity and Fricke frames, and in the V frame the parameter
    1/2 - (-1)^(k-1/2)/4 of the cusp 1/2 (1/4 at 13/2, 3/4 at 19/2)."""
    from plusforms.hecke import eigenbasis_plus

    for kstr, v_param in (("13/2", Fraction(1, 4)), ("19/2", Fraction(3, 4))):
        frames = FormEvaluator.from_plus_form(eigenbasis_plus(kstr)[0], 100).frames
        assert {label: (fs.width, fs.param) for label, fs in frames.items()} == {
            "I": (1, 0), "W4": (1, 0), "V4": (1, v_param)}


def test_frames_and_scan_make_no_exact_scalar(monkeypatch):
    """from_plus_form and supnorm_scan at 41/2, whose Hecke fields are cubic,
    read every coefficient from the forms' float views: no exact scalar is
    made (hecke._scalar) and none is floated (FieldElement.__float__)."""
    from plusforms import hecke
    from plusforms.arith import FieldElement

    forms = hecke.eigenbasis_plus("41/2")
    assert all(isinstance(f.eigen_table[3], FieldElement) for f in forms)
    calls = []
    scalar, to_float = hecke._scalar, FieldElement.__float__
    monkeypatch.setattr(hecke, "_scalar", lambda *a: calls.append("_scalar") or scalar(*a))
    monkeypatch.setattr(FieldElement, "__float__",
                        lambda x: calls.append("__float__") or to_float(x))
    for f in forms:
        supnorm_scan(FormEvaluator.from_plus_form(f, plus_form_precision("41/2")))
    assert calls == []


def test_lemma_transfer_exact_w_frame(eigenform_13_2):
    """The exact Fricke expansion equals (2|2k) 2^(1/2-k) sum fhat(4m) e(mz),
    coefficient by coefficient, as rational numbers."""
    f = eigenform_13_2
    basis = f.basis
    w4, _phase = basis_frame_series(basis, 0, "W4", 200)
    eps = jacobi_symbol(2, 13)
    pref = Fraction(eps, 2**6)
    for m in range(0, 50):
        assert w4.coeff(m) == pref * f.coeff(4 * m)


def test_lemma_transfer_exact_v_frame(eigenform_13_2):
    """The exact V-frame expansion matches i^(m/2) (2|2k) 2^(1/2-k) fhat(m)
    on m = 1 mod 4 (as complex numbers, phases included)."""
    f = eigenform_13_2
    basis = f.basis
    v4, phase = basis_frame_series(basis, 0, "V4", 200)
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
    v4, _ = basis_frame_series(eigenform_13_2.basis, 0, "V4", 200)
    assert v4.param == Fraction(1, 4)  # exponents (4m'+1)/4
    ev = FormEvaluator.from_plus_form(eigenform_13_2, 400)
    assert ev.frames["V4"].param == Fraction(1, 4)


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


def _tail_log(q: QExpansion, y: float, growth: float) -> float:
    """log bound on the tail of q past its precision at height y, assuming
    |a(m)| <= C (m+1)^growth with C fitted from the stored coefficients;
    the terms decay geometrically once the ratio bound is below 1."""
    c_log = max(log_abs_fraction(v) - growth * math.log(m + 1) for m, v in q.coeffs.items() if v)
    rate = 2.0 * math.pi * y / q.width
    m1 = q.prec + 1
    first = c_log + growth * math.log(m1 + 1) - rate * (m1 + float(q.param))
    ratio = growth * math.log1p(1.0 / (m1 + 1)) - rate
    if ratio >= -1e-9:
        return math.inf
    return first - math.log(-math.expm1(ratio))


def test_eval_truncation_honesty(eigenform_13_2):
    """Doubling the stored precision does not move values beyond the tail."""
    f = eigenform_13_2
    ev1 = FormEvaluator.from_plus_form(f, 420)
    ev2 = FormEvaluator.from_plus_form(f, 840)
    exact = plus_frames_reference(f, 420)
    rng = random.Random(33)
    for _ in range(6):
        z = complex(rng.uniform(0, 1), rng.uniform(0.3, 2.0))
        for label in ("I", "W4", "V4"):
            v1 = ev1.eval_frame(label, z, check=False)
            v2 = ev2.eval_frame(label, z, check=False)
            tail = _tail_log(exact[label][0], z.imag, 6.5 / 2 + 1.0)
            if v1.sign == 0:
                continue
            moved = abs((v1 - v2).to_float())
            allowed = math.exp(tail + 0.5 * 6.5 * math.log(z.imag) + ev1.frames[label].log_scale)
            assert moved <= allowed + 1e-12 * v2.to_float()


# every weight 13/2..61/2 with a plus form: S_15/2^+ is 0, as S_14(SL2(Z)) is
_GUARD_WEIGHTS = [f"{num}/2" for num in range(13, 62, 2) if num != 15]


@pytest.mark.parametrize("k", _GUARD_WEIGHTS)
def test_guarded_truncation_matches_full_series(k):
    """Summing only the terms the precision guard asks for moves no frame
    value by more than 1e-13 of the largest value in its point set: the scan
    grid in every frame (y^(k/2)|f|, as the scan reads it) and, at both
    quadrature orders, the six Gram pieces of the cap nodes and of the
    whole-domain nodes, and the four Fricke translates of the cap nodes
    together (raw values, as the Gram matrix reads them)."""
    from plusforms.hecke import eigenbasis_plus
    from plusforms.lfunctions import _PIECES, _cap_nodes

    f = eigenbasis_plus(k, prec=900)[0]
    f.coefficients_upto(900)
    ev = FormEvaluator.from_plus_form(f, 900)
    kf = float(ev.k)
    ys = np.exp(np.linspace(math.log(SQRT3_OVER_8), math.log(12.0 * kf / math.pi), 48))
    grid = np.linspace(0.0, 1.0, 24, endpoint=False) + 1j * ys[:, None]
    for label in ("I", "W4", "V4"):
        got = ev.eval_frame(label, grid, check=False)
        reduced, m0 = ev.frames[label].eval_reduced(grid)
        with np.errstate(divide="ignore"):
            full = m0 + np.log(np.abs(reduced)) + 0.5 * kf * np.log(grid.imag)
        full += ev.frames[label].log_scale
        top = np.max(full)
        assert np.max(np.abs(np.exp(got.logm - top) - np.exp(full - top))) <= 1e-13, (k, label)
    for order in (18, 26):
        for zs in (_cap_nodes(order)[0], domain_nodes_reference(order, 64.0)[0]):
            for label, scale, shifts in _PIECES:
                pieces = [scale * (zs + shift) for shift in shifts]
                if len(shifts) > 1:
                    pieces.append(np.concatenate(pieces))
                for pts in pieces:
                    got = ev.eval_frame_complex(label, pts)
                    reduced, logf = ev.frames[label].eval_reduced(pts)
                    full = reduced * np.exp(logf + ev.frames[label].log_scale)
                    assert np.max(np.abs(got - full)) <= 1e-13 * np.max(np.abs(full)), (
                        k, order, label, pts.size)


def test_guarded_truncation_within_tail_bound(eigenform_13_2, evaluator_13_2):
    """The terms the guard drops move no value by more than the tail bound of
    the series cut at the guard index."""
    ev = evaluator_13_2
    exact = plus_frames_reference(eigenform_13_2, 900)
    rng = random.Random(34)
    for _ in range(6):
        z = complex(rng.uniform(0, 1), rng.uniform(0.3, 2.0))
        for label in ("I", "W4", "V4"):
            fs, q = ev.frames[label], exact[label][0]
            need = ev.required_precision(label, z.imag)
            assert need < fs.prec
            cut = QExpansion(q.weight, q.width, q.param, need,
                             {m: c for m, c in q.coeffs.items() if m <= need})
            reduced, m0 = fs.eval_reduced(z)
            full = abs(complex(reduced)) * math.exp(m0 + 0.5 * 6.5 * math.log(z.imag) + fs.log_scale)
            moved = abs(ev.eval_frame(label, z).to_float() - full)
            tail = _tail_log(cut, z.imag, 6.5 / 2 + 1.0)
            assert moved <= math.exp(tail + 0.5 * 6.5 * math.log(z.imag) + fs.log_scale) + 1e-12 * full


def test_zero_form_evaluates_to_zero():
    basis = space_basis("13/2", 60, "plus S")
    ev = FormEvaluator.from_basis_element(basis, 0, 60)
    ev.frames["I"] = FrameSeries.of_terms([], [], [], 60)
    assert ev.eval_frame("I", complex(0.3, 1.0), check=False).sign == 0
    grid = ev.eval_frame("I", np.array([0.3 + 1.0j, 0.1 + 2.0j]), check=False)
    assert list(grid.sign) == [0, 0] and np.all(grid.logm == -math.inf)


def _guard_edge(ev, label):
    """The least float height at which the frame's guard still finds every
    index it needs stored (bisection down to adjacent floats)."""
    def stored(y):
        return ev.required_precision(label, y) <= ev.frames[label].prec

    lo, hi = 1e-3, 10.0
    assert not stored(lo) and stored(hi)
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if stored(mid) else (mid, hi)
    return hi


def test_one_point_route_matches_array_route(evaluator_13_2):
    """eval_frame and eval_reduced at a single point take the scalar route;
    its values equal those of the same point as a one-element array, and as
    a member of a larger array, bit for bit, in every frame, at random
    points and at the guard edge (where one step lower raises in both)."""
    ev = evaluator_13_2
    rng = random.Random(90)
    pts = [complex(rng.uniform(-1.0, 1.0),
                   math.exp(rng.uniform(math.log(SQRT3_OVER_8), math.log(40.0))))
           for _ in range(200)]
    for label in ("I", "W4", "V4"):
        series = ev.frames[label]
        edge = _guard_edge(ev, label)
        below = complex(0.3, np.nextafter(edge, 0.0))
        for route in (lambda z: z, lambda z: np.array([z])):
            with pytest.raises(PrecisionError):
                ev.eval_frame(label, route(below))
        edge_pts = [complex(x, edge) for x in (0.0, 0.3, -0.45)]
        bulk = ev.eval_frame(label, np.array(pts + edge_pts))
        for i, z in enumerate(pts + edge_pts):
            one, arr = ev.eval_frame(label, z), ev.eval_frame(label, np.array([z]))
            assert one.sign == arr.sign[0] == bulk.sign[i], (label, z)
            assert float(one.logm).hex() == float(arr.logm[0]).hex() \
                == float(bulk.logm[i]).hex(), (label, z)
            upto = rng.randrange(series.prec + 1)
            r1, s1 = series.eval_reduced(z, upto=upto)
            ra, sa = series.eval_reduced(np.array([z]), upto=upto)
            assert float(s1).hex() == float(sa[0]).hex()
            assert float(r1.real).hex() == float(ra[0].real).hex()
            assert float(r1.imag).hex() == float(ra[0].imag).hex()


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


def _d_gamma(mat, l: int, z: complex) -> float:
    """d_gamma(z) = |gamma z - conj(z)| |j(gamma, z)| / (2 y sqrt(l))."""
    a, b, c, d = mat
    j = c * z + d
    gz = (a * z + b) / j
    return abs(gz - z.conjugate()) * abs(j) / (2.0 * z.imag * math.sqrt(l))


def test_u_invariant_examples():
    assert u_invariant(1j, 1j) == 0
    assert u_invariant(2j, 1j) == pytest.approx(1.0 / 8.0)
    assert _d_gamma((1, 0, 0, 1), 1, 0.3 + 2.1j) == pytest.approx(1.0)


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
        dg = _d_gamma((a, b, c, d), det, z)
        assert dg * dg == pytest.approx(u + 1.0, abs=1e-9 * (1 + u))
        checked += 1


def test_enumerate_identity_ball():
    mats = enumerate_gl(1, 1j, 0.0)
    assert mats == [(-1, 0, 0, -1), (1, 0, 0, 1)]


def test_gl_arrays_reject_points_off_the_upper_half_plane():
    for z, w in ((0.3 - 2j, None), (0.3 + 0j, None), (0.3 + 2j, 0.1 - 1j), (0.3 + 2j, 0.5 + 0j)):
        with pytest.raises(ValueError, match="upper half-plane"):
            gl_arrays(1, z, 1.0, w=w)


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
    """gl_arrays gives iter_gl_reference's matrices in its order, with the
    same u bits."""
    ref = list(iter_gl_reference(l, z, delta, w=w))
    mats, us = gl_arrays(l, z, delta, w=w)
    assert mats.dtype == np.int64 and mats.shape == (len(ref), 4)
    assert [tuple(m) for m in mats.tolist()] == [m for m, _u in ref]
    assert [u.hex() for u in us.tolist()] == [u.hex() for _m, u in ref]
    return ref


@pytest.mark.parametrize("z", [1j, 0.3 + 2.5j, 0.4 + 1j])  # 0.4 + i: a counts-workload point
@pytest.mark.parametrize("delta", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("l", [1, 4, 9, 36, 144])
def test_gl_arrays_match_reference(l, delta, z):
    _assert_reference_enumeration(l, z, delta)


def test_gl_arrays_match_reference_w_not_z():
    u_cut_9_2 = max(24.0, (1.0 / 1e-7) ** (2.0 / 4.5) * 2.0)  # bergman_partial, 9/2, tol 1e-7
    for l, z, delta, w in ((1, 0.1 + 0.9j, 24.0, 0.3 + 1.2j), (9, 0.2 + 1.5j, 5.0, -0.3 + 0.8j),
                           (1, 0.1 + 0.9j, u_cut_9_2, -0.2 + 0.7j)):
        assert _assert_reference_enumeration(l, z, delta, w)


def test_gl_arrays_borderline_exact(monkeypatch):
    """delta set to an attained exact u: the membership is settled exactly
    against delta as a fraction, in both enumerators alike, and the
    library's integer test (_exact_judge, built only when a row is
    borderline) agrees with the Fraction oracle on every matrix.  The matrix
    stays in when that fraction is at least its u, else it drops."""
    import plusforms.supnorm as sn

    calls = []
    build = sn._exact_judge
    monkeypatch.setattr(sn, "_exact_judge", lambda *args: calls.append(args) or build(*args))
    gl_arrays(1, 1j, 0.3)
    assert not calls  # no row is borderline
    ref = _assert_reference_enumeration(1, 1j, 0.25)
    assert ((1, 1, 0, 1), 0.25) in ref and len(calls) == 1
    _assert_judge_matches_oracle(1, 1j, 1j, 0.25, [m for m, _u in ref] + [(1, 2, 0, 1)])
    z = 0.3 + 2.5j
    zq = (sn._float_to_fraction(z.real), sn._float_to_fraction(z.imag))
    seen = set()
    for mat in (m for m in enumerate_gl(9, z, 5.0) if m[2] != 0):
        ue = u_exact_reference(mat, 9, zq, zq)
        kept = sn._float_to_fraction(float(ue)) >= ue
        if kept in seen:
            continue
        seen.add(kept)
        calls.clear()
        ref = _assert_reference_enumeration(9, z, float(ue))
        assert calls and (mat in [m for m, _u in ref]) == kept
        _assert_judge_matches_oracle(9, z, z, float(ue), enumerate_gl(9, z, 5.0))
    assert seen == {True, False}


def _assert_judge_matches_oracle(l, z, w, delta, mats):
    """_exact_judge gives the Fraction oracle's u, rounded, exactly on the
    matrices whose u is at most delta as a fraction, and None on the rest."""
    import plusforms.supnorm as sn

    judge = sn._exact_judge(l, z, w, delta)
    zq, wq = ((sn._float_to_fraction(t.real), sn._float_to_fraction(t.imag)) for t in (z, w))
    dq = sn._float_to_fraction(delta)
    for mat in mats:
        ue = u_exact_reference(mat, l, zq, wq)
        got = judge(*mat)
        assert (got is None) == (ue > dq), mat
        assert got is None or got.hex() == float(ue).hex(), mat


def test_gl_arrays_reject_non_finite_input():
    """A NaN or infinite delta, z or w is a named ValueError, not an error
    of the rational conversion or the overflow guard."""
    nan, inf = float("nan"), float("inf")
    for z, delta, w in ((0.3 + 2j, nan, None), (0.3 + 2j, inf, None),
                        (complex(nan, 2.0), 1.0, None), (complex(0.3, inf), 1.0, None),
                        (0.3 + 2j, 1.0, complex(0.1, nan)), (0.3 + 2j, 1.0, complex(inf, 1.0))):
        with pytest.raises(ValueError, match="z, w and delta must be finite"):
            gl_arrays(4, z, delta, w=w)


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
    """|Theta(gamma z) / Theta(z)| = |c z + d|^(1/2) on Gamma_0(4)."""
    rng = random.Random(61)
    for mat in ((1, 1, 0, 1), (1, 0, 4, 1), (5, -1, 16, -3), (3, -1, 4, -1)):
        a, b, c, d = mat
        for _ in range(5):
            z = complex(rng.uniform(-1, 1), rng.uniform(0.2, 2.0))
            jt = theta_reference_value(z, mat) / theta_reference_value(z)
            assert abs(jt) == pytest.approx(abs(c * z + d) ** 0.5, rel=1e-10)


@pytest.mark.parametrize("k", ["9/2", "13/2", "29/2", "61/2"])
def test_closed_form_multiplier_matches_theta_quotient(k):
    """On every matrix bergman_partial sums for kernel-check's five pairs,
    the closed-form term equals the theta-quotient term to 1e-12; the
    matrices include c < 0, d < 0 and d = 3 mod 4."""
    kf = float(Fraction(k))
    u_cut = max(24.0, (1.0 / 1e-5) ** (2.0 / kf) * 2.0)
    rng = random.Random(20)
    rows = []
    for _ in range(5):
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.5, 1.3))
        w = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.5, 1.3))
        mats, _u = gl_arrays(1, z, u_cut, w=w)
        terms = _kernel_terms(mats, z, w, Fraction(k))
        for mat, term in zip(mats.tolist(), terms.tolist()):
            ref = kernel_term_reference(mat, z, w, Fraction(k))
            assert abs(term - ref) <= 1e-12 * abs(ref), (mat, term, ref)
        rows.extend(mats.tolist())
    assert any(c < 0 for _a, _b, c, _d in rows)
    assert any(d < 0 for _a, _b, _c, d in rows)
    assert any(d % 4 == 3 for _a, _b, _c, d in rows)


def test_bergman_partial_matches_per_matrix_theta_quotient():
    """The closed-form sum equals the theta-quotient sum over the reference
    enumeration."""
    z, w, k = 0.1 + 0.9j, 0.3 + 1.2j, Fraction(13, 2)
    u_cut = max(24.0, (1.0 / 1e-4) ** (2.0 / 6.5) * 2.0)
    total = sum(kernel_term_reference(mat, z, w, k)
                for mat, _u in iter_gl_reference(1, z, u_cut, w=w))
    value, _err = bergman_partial(z, w, k, tol=1e-4)
    assert value == pytest.approx(3.0 * 5.5 / (4.0 * math.pi) * total, rel=1e-12)


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
    rhs, per_l = amplified_rhs(z, k, spec)
    u_cut = 20 * math.log(6.5) / 6.5
    direct = sum((1 + u) ** -3.25 for u in gl_arrays(1, z, u_cut)[1].tolist())
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


def test_amplifier_inequality_enumerates_each_l_once(eigenform_13_2, monkeypatch):
    """The escalating caps reuse the sums of the smaller caps: each l is
    enumerated once, and the last cap's terms and total equal a direct
    amplified_rhs over the whole amplifier."""
    import plusforms.supnorm as sn

    z = complex(0.3, 1.1)
    spec = amplifier_build(3.0, "M1", {
        m: eigenform_13_2.normalized_eigenvalue(m).to_float() for m in (9, 25)})
    rhs, per_l = amplified_rhs(z, "13/2", spec)
    seen = []
    enumerate_ball = sn.gl_arrays
    monkeypatch.setattr(sn, "gl_arrays", lambda l, *args, **kw: seen.append(l)
                        or enumerate_ball(l, *args, **kw))
    rec = amplifier_inequality(eigenform_13_2, 3.0, "M1", 1e6, z, "13/2")
    assert rec["l_cap"] is None and not rec["ok"]  # every cap was evaluated
    assert sorted(seen) == sorted(set(seen)) == sorted(rec["per_l"])
    assert rec["per_l"] == per_l and rec["rhs"] == rhs.to_float()


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


@pytest.mark.parametrize("kstr", ["13/2", "17/2"])
def test_eval_at_cusp_default_precision_is_677(kstr):
    """Without prec the evaluator holds the coefficients to index 677,
    however far the basis rows are built; at y = 0.02 frame I needs index
    180, past the rows the eigenbasis holds at 13/2."""
    from plusforms.hecke import eigenbasis_plus

    f = eigenbasis_plus(kstr)[0]
    default, at_677 = FormEvaluator.from_plus_form(f), FormEvaluator.from_plus_form(f, 677)
    assert default.frames["I"].prec == 677
    for label, z in (("I", complex(0.1, 0.02)), ("W4", complex(-0.2, 0.05)),
                     ("V4", complex(0.4, 0.05))):
        got, want = default.eval_frame(label, z), at_677.eval_frame(label, z)
        assert (got.sign, got.logm) == (want.sign, want.logm)


def test_plus_form_precision_meets_every_frame_guard():
    """At every weight 5/2..61/2 the default precision is 900 or the least
    at which the three frames of from_plus_form store the index the guard
    asks for at y = sqrt(3)/8; it rises above 900 from 49/2 on."""
    from types import SimpleNamespace

    def frames_at(k, prec):
        form = SimpleNamespace(k=k, view=lambda n: FloatView([[0] * (n + 1)], 1))
        ev = FormEvaluator.from_plus_form(form, prec)
        return all(ev.frames[label].prec >= ev.required_precision(label, SQRT3_OVER_8)
                   for label in ("I", "W4", "V4"))

    for num in range(5, 63, 2):
        k = Fraction(num, 2)
        prec = plus_form_precision(k)
        assert frames_at(k, prec)
        assert (prec > 900) == (num >= 49)
        assert prec == 900 or not frames_at(k, prec - 1)


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
