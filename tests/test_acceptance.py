"""Acceptance suite: one test per criterion, each at its stated tolerance.

Each test prints a single PASS/FAIL line through the shared recorder (also
echoed in the terminal summary).  Tolerances are pinned here and nowhere
else; no criterion is weakened at runtime.
"""

import math
import random
from fractions import Fraction

from conftest import record_criterion

from plusforms.arith import admissible, fundamental_discriminants, plus_sign
from plusforms.hecke import (
    dim_cusp_level1,
    eigenbasis_plus,
    multiplicativity_check,
    verify_sqrcoeff,
)
from plusforms.lfunctions import (
    central_value,
    kohnen_zagier_check,
    norm_identity_rhs,
    petersson_gram,
    petersson_norm_f,
    sym2_at_1,
)
from plusforms.numerics import s_sum, s_sum_upper_bound_log
from plusforms.qexp import cusp_plus_basis, space_basis
from plusforms.salie import spectral_average
from plusforms.supnorm import (
    FormEvaluator,
    amplifier_inequality,
    bergman_partial,
    bergman_spectral,
    count_matrices,
    enumerate_box,
    enumerate_gl,
    scaling_experiment,
    supnorm_scan,
)

from oracles import bessel_j_half


def test_criterion_01_dimension_identity():
    """dim S_k^+(Gamma_0(4)) = dim S_(2k-1)(SL_2(Z)), exactly, 5/2 <= k <= 41/2."""
    mismatches = []
    for num in range(5, 42, 2):
        k = Fraction(num, 2)
        got = cusp_plus_basis(k).dimension
        want = dim_cusp_level1(num - 1)
        if got != want:
            mismatches.append((str(k), got, want))
    passed = not mismatches
    record_criterion(1, "dimension identity over 5/2 <= k <= 41/2", passed,
                     f"19 weights, exact{'' if passed else ': ' + repr(mismatches)}")
    assert passed, mismatches


def test_criterion_02_shimura_coefficient_relation():
    """fhat(n^2|D|) relation, exact, all eigenforms k <= 33/2, |D| <= 24, n <= 30."""
    n_max, d_limit = 30, 24
    failures = []
    checked = 0
    for num in range(5, 34, 2):
        k = Fraction(num, 2)
        if dim_cusp_level1(num - 1) == 0:
            continue
        forms = eigenbasis_plus(k)
        discs = fundamental_discriminants(d_limit, plus_sign(k))
        for i, f in enumerate(forms):
            f.coefficients_upto(n_max * n_max * d_limit)
            for D in discs:
                r = verify_sqrcoeff(f, D, n_max)
                checked += 1
                if not r["ok"]:
                    failures.append((str(k), i, D, r["first_failure"]))
    passed = not failures
    record_criterion(2, "square-index coefficient relation (exact)", passed,
                     f"{checked} (form, D) pairs, n <= {n_max}"
                     + ("" if passed else f": {failures[:3]}"))
    assert passed, failures


def test_criterion_03_hecke_multiplicativity():
    """lambda multiplicativity, m, n in {1,3,5,9,15}, all eigenforms k <= 25/2.

    Rational and quadratic eigenvalue systems are both exact here, so the
    interval width is identically zero (stated bound: 1e-15)."""
    pairs = [(m, n) for m in (1, 3, 5, 9, 15) for n in (1, 3, 5, 9, 15)]
    failures = []
    checked = 0
    for num in range(5, 26, 2):
        k = Fraction(num, 2)
        if dim_cusp_level1(num - 1) == 0:
            continue
        for i, f in enumerate(eigenbasis_plus(k)):
            for m, n in pairs:
                if not multiplicativity_check(f, m, n)["ok"]:
                    failures.append((str(k), i, m, n))
                checked += 1
    passed = not failures
    record_criterion(3, "Hecke eigenvalue multiplicativity (exact)", passed,
                     f"{checked} identities, interval width 0 < 1e-15")
    assert passed, failures


def test_criterion_04_spectral_identity_ratios(eigenform_13_2):
    """spectral_average(m)/spectral_average(1) vs |fhat(m)/fhat(1)|^2 at k=13/2,
    10 admissible m, rel err < 1e-6, certified truncation."""
    f = eigenform_13_2
    s1 = spectral_average("13/2", 1, rel_tol=1e-7)
    ms = []
    m = 2
    while len(ms) < 10:
        if admissible(f.k, m) and float(f.coeff(m)) != 0:
            ms.append(m)
        m += 1
    worst = 0.0
    for m in ms:
        sm = spectral_average("13/2", m, rel_tol=1e-7)
        ratio = (sm.value / s1.value).to_float()
        exact = float(f.coeff(m)) ** 2 / float(f.coeff(1)) ** 2
        worst = max(worst, abs(ratio - exact) / exact)
    passed = worst < 1e-6
    record_criterion(4, "spectral average matches exact eigenform ratios", passed,
                     f"10 indices m <= {ms[-1]}, worst rel err {worst:.2e} < 1e-6")
    assert passed, worst


def test_criterion_05_kohnen_zagier(eigenform_13_2, delta_form, norm_f_13_2, norm_delta):
    """both sides of the coefficient-square identity agree to rel 1e-3 at
    k = 13/2 for D in {1, 5, 8, 12, 13, 17} (skip rule for zero coefficients)."""
    results = []
    worst = 0.0
    for D in (1, 5, 8, 12, 13, 17):
        lv = central_value(delta_form, D, target_err=1e-9)
        r = kohnen_zagier_check(eigenform_13_2, delta_form, D, norm_f_13_2,
                                norm_delta, lv)
        if r.get("skipped"):
            results.append((D, "skipped"))
            continue
        # |log LHS - log RHS| < 1e-3 certifies relative agreement below 1e-3
        results.append((D, r["discrepancy"]))
        worst = max(worst, r["discrepancy"])
    passed = worst < 1e-3
    record_criterion(5, "coefficient-square vs central-value identity", passed,
                     f"D in (1,5,8,12,13,17), worst log-discrepancy {worst:.2e} < 1e-3")
    assert passed, results


def test_criterion_06_norm_consistency_triangle(eigenform_13_2, delta_form,
                                                norm_f_13_2, norm_delta):
    """quadrature <F,F> vs Gamma(2k-1)/(2^(4k-3) pi^(2k)) L(sym2,1), rel < 1e-3;
    quadrature <f,f> vs the spectral route, rel < 1e-3."""
    s2 = sym2_at_1(delta_form, prime_limit=100000)
    rhs = norm_identity_rhs(12, s2)
    rel_big = abs(rhs.to_float() - norm_delta.to_float()) / norm_delta.to_float()
    spec_norm = petersson_norm_f(eigenform_13_2, "spectral")
    rel_small = abs(norm_f_13_2.to_float() - spec_norm.to_float()) / spec_norm.to_float()
    passed = rel_big < 1e-3 and rel_small < 1e-3
    record_criterion(6, "Petersson norm consistency triangle", passed,
                     f"<F,F> routes rel {rel_big:.2e}, <f,f> routes rel {rel_small:.2e}, both < 1e-3")
    assert passed, (rel_big, rel_small)


def test_criterion_07_cusp_expansion_consistency():
    """frame automorphy at 10 random points for k in {13/2, 17/2, 21/2} to
    rel 1e-6; Fricke involution to 1e-8."""
    rng = random.Random(101)
    worst_auto = 0.0
    worst_invol = 0.0
    for kstr in ("13/2", "17/2", "21/2"):
        f = eigenbasis_plus(kstr)[0]
        f.coefficients_upto(900)
        ev = FormEvaluator.from_plus_form(f, 900)
        pts = 0
        while pts < 10:
            r = rng.uniform(0.45, 0.62)
            th = rng.uniform(1.1, 2.0)
            z = complex(r * math.cos(th), r * math.sin(th))
            wz = -1.0 / (4.0 * z)
            lhs = ev.eval_frame("I", wz)
            rhs = ev.eval_frame("W4", z)
            worst_auto = max(worst_auto, abs((lhs - rhs).to_float()) / rhs.to_float())
            invol_lhs = ev.eval_frame("W4", wz)
            invol_rhs = ev.eval_frame("I", z)
            worst_invol = max(
                worst_invol, abs((invol_lhs - invol_rhs).to_float()) / invol_rhs.to_float()
            )
            # V-frame consistency at a nearby admissible point
            zv = complex(-0.5 + rng.uniform(-0.02, 0.02), rng.uniform(0.42, 0.7))
            vz = zv / (2 * zv + 1)
            if vz.imag >= 0.3:
                worst_auto = max(
                    worst_auto,
                    abs((ev.eval_frame("I", vz) - ev.eval_frame("V4", zv)).to_float())
                    / ev.eval_frame("V4", zv).to_float(),
                )
            pts += 1
    passed = worst_auto < 1e-6 and worst_invol < 1e-8
    record_criterion(7, "cusp-frame automorphy and Fricke involution", passed,
                     f"worst automorphy rel {worst_auto:.2e} < 1e-6, "
                     f"involution rel {worst_invol:.2e} < 1e-8")
    assert passed, (worst_auto, worst_invol)


def test_criterion_08_kernel_identity():
    """spectral vs group-sum kernel at k = 13/2, 5 random pairs, y >= 0.5,
    rel err < 1e-3."""
    basis = space_basis("13/2", 400, "full S")
    evs = [FormEvaluator.from_basis_element(basis, i, 400) for i in range(basis.dimension)]
    gram, _ = petersson_gram(evs)
    rng = random.Random(103)
    worst = 0.0
    for _ in range(5):
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.5, 1.25))
        w = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.5, 1.25))
        geo, _err = bergman_partial(z, w, "13/2", tol=1e-5)
        spec = bergman_spectral(z, w, evs, gram.tolist())
        worst = max(worst, abs(geo - spec) / abs(spec))
    passed = worst < 1e-3
    record_criterion(8, "reproducing-kernel identity (spectral vs group sum)", passed,
                     f"5 point pairs, worst rel err {worst:.2e} < 1e-3")
    assert passed, worst


def test_criterion_09_counting_oracle_and_shapes():
    """fast ball enumerator == exhaustive box enumerator, exactly, on the full
    grid; count-shape ratios reported (no hard threshold)."""
    zs = (1j, 5j, 0.3 + 2j)
    mismatches = []
    for l in (1, 9, 25, 81):
        for delta in (0.1, 1.0, 10.0):
            for z in zs:
                fast = enumerate_gl(l, z, delta)
                brute = enumerate_box(l, z, delta)
                if fast != brute:
                    mismatches.append((l, delta, z, len(fast), len(brute)))
    # shape reports (observational)
    gen_ratios, up_ratios = [], []
    for z in zs:
        y = z.imag
        for delta in (0.1, 1.0, 10.0):
            for L in (25, 81):
                msum = sum(
                    count_matrices(z, l, delta, keep_witnesses=False).M_star
                    for l in (1, 4, 9, 16, 25, 36, 49, 64, 81)
                    if l <= L
                )
                shape = L**0.5 / y + L * delta**0.5 + L**1.5 * delta
                gen_ratios.append(msum / shape)
            for l in (9, 81):
                rec = count_matrices(z, l, delta, keep_witnesses=False)
                shape = 1.0 + l**0.5 * delta**0.5 * y
                up_ratios.append(max(rec.M_u, rec.M_p) / shape)
    passed = not mismatches
    record_criterion(9, "counting oracle equivalence + shape ratios", passed,
                     f"36 grid points exact; generic-shape ratio max {max(gen_ratios):.2f}, "
                     f"triangular/parabolic max {max(up_ratios):.2f} (report only)")
    assert passed, mismatches


def test_criterion_10_lower_bound_scaling():
    """slope of log[(k/4pi)^k e^-k sum |fhat_j(1)|^2] vs log k in [1.3, 1.7];
    bracket corrections within [0.9, 1.1] for k >= 21."""
    ks = [Fraction(n, 2) for n in range(13, 62, 2)]
    rep = scaling_experiment(ks)
    slope = rep["slope"]
    bad_corr = [
        (str(r["k"]), r["bessel_correction"])
        for r in rep["rows"]
        if float(r["k"]) >= 21 and not (0.9 <= r["bessel_correction"] <= 1.1)
    ]
    passed = 1.3 <= slope <= 1.7 and not bad_corr
    record_criterion(10, "weight-aspect lower-bound scaling", passed,
                     f"slope {slope:.4f} in [1.3, 1.7]; corrections within "
                     f"[0.9, 1.1] for k >= 21" + ("" if not bad_corr else f": {bad_corr}"))
    assert passed, (slope, bad_corr)


def test_criterion_11_amplified_inequality():
    """LHS <= RHS (1 + 1e-6) at the scan argmax, all eigenforms k <= 25/2,
    Lambda in {3, 5}, both amplifier families."""
    failures = []
    checked = 0
    for num in range(5, 26, 2):
        k = Fraction(num, 2)
        if dim_cusp_level1(num - 1) == 0:
            continue
        forms = eigenbasis_plus(k, prec=900)
        for i, f in enumerate(forms):
            f.coefficients_upto(900)
            ev = FormEvaluator.from_plus_form(f, 900)
            res = supnorm_scan(ev, nx=16, ny=32, refine_rounds=2)
            nf = petersson_norm_f(f, "quadrature", prec=900)
            sup_phi_sq = (res.sup * res.sup / nf.value).to_float()
            z = complex(res.x, res.y)
            for kind in ("M1", "M2"):
                for lam in (3.0, 5.0):
                    rec = amplifier_inequality(f, lam, kind, sup_phi_sq, z, k)
                    checked += 1
                    if not rec["ok"]:
                        failures.append((str(k), i, kind, lam, rec["lhs"], rec["rhs"]))
    passed = not failures
    record_criterion(11, "amplified pointwise inequality at the argmax", passed,
                     f"{checked} (form, family, Lambda) cases, literal LHS <= RHS(1+1e-6)")
    assert passed, failures


def test_criterion_12_analytic_lemma_grids():
    """the two exponential-sum bounds and the small-argument Bessel bound hold
    at every sampled grid point (>= 100 samples each)."""
    rng = random.Random(107)
    s_viol = 0
    for _ in range(120):
        alpha = 10 ** rng.uniform(-1, 1.4)
        beta = 10 ** rng.uniform(-1.3, 1.0)
        kappa = 10 ** rng.uniform(-1, 1.3)
        val = s_sum(alpha, beta, kappa)
        if val.value.logm > s_sum_upper_bound_log(alpha, beta) + 1e-12:
            s_viol += 1
    decay_viol = 0
    for _ in range(120):
        alpha = 10 ** rng.uniform(-1, 1.2)
        beta = 10 ** rng.uniform(-1, 1.0)
        kappa = 6.0 * alpha / beta * rng.uniform(1.0, 4.0)
        lhs = alpha * math.log(kappa) - beta * kappa
        rhs = alpha * (math.log(alpha) - math.log(beta) - 1.0) - beta * kappa / 2.0
        if lhs > rhs + 1e-12:
            decay_viol += 1
    bessel_worst = 0.0
    for _ in range(120):
        x = rng.uniform(0.05, 7.0)
        nmin = max(0, math.ceil(2 * x * x - 0.5))
        n = rng.randint(nmin, 99)
        rho = Fraction(2 * n + 1, 2)
        j = bessel_j_half(rho, x)
        ratio_log = j.value.logm + math.lgamma(float(rho) + 1) - float(rho) * math.log(x / 2)
        bessel_worst = max(bessel_worst, math.exp(ratio_log))
    passed = s_viol == 0 and decay_viol == 0 and bessel_worst <= 2.0
    record_criterion(12, "analytic lemma inequalities on sampled grids", passed,
                     f"120 samples each: sum-bound viol {s_viol}, decay viol {decay_viol}, "
                     f"Bessel ratio max {bessel_worst:.3f} <= 2")
    assert passed, (s_viol, decay_viol, bessel_worst)
