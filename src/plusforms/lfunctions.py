"""Central L-values, symmetric-square values, and Petersson norms.

central_value computes L(F, chi_D, 1/2) (analytic normalization, even
weight w = 2k-1, level 1 twisted by a real primitive character of conductor
|D|) through a smoothed approximate functional equation with incomplete-
gamma weights.  The root number is not taken from a formula: the completed
value Lambda(1/2) = A(x) + eps A(1/x) must be independent of the smoothing
split x, so two values of x determine eps and a third certifies it.

sym2_at_1 evaluates L(sym^2 F, 1) as a truncated Euler product over p <= P
with alpha_p + conj = Fhat(p), alpha conj = p^(2k-2); the reported tail is a
heuristic (validated by doubling P), since on the edge of the critical
strip no Deligne-only certificate converges.

The root number is the eps of that same solve (root_number).

Petersson norms: <F,F> over the modular surface by Parseval in the strip
y >= 1 plus quadrature over the cap; <f,f> = (1/6) * integral over a
fundamental domain of Gamma_0(4) assembled from six translates of the
standard domain, each evaluated through the frame that sees its cusp.
Every series value on the quadrature nodes comes from one array call of
QExpansion.eval_reduced (directly for the cap of <F,F>, through
FormEvaluator.eval_frame_complex for the Gram matrix).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc

from .arith import half_integer, is_fundamental_discriminant, kronecker_symbol, primes_up_to
from .numerics import CertifiedValue, LogScaled, log_abs_fraction, logsumexp
from .qexp import QExpansion
from .salie import spectral_average
from .supnorm import FormEvaluator

SQRT3_OVER_2 = math.sqrt(3.0) / 2.0


# ---------------------------------------------------------------------------
# Approximate functional equation
# ---------------------------------------------------------------------------


def _twisted_coeffs(F, D: int, n_max: int) -> np.ndarray:
    """b(n) = chi_D(n) Fhat(n) / n^((w-1)/2) for n = 1..n_max."""
    a = (F.weight - 1) / 2.0
    out = np.zeros(n_max + 1)
    for n in range(1, n_max + 1):
        chi = kronecker_symbol(D, n)
        if chi == 0:
            continue
        out[n] = chi * float(F.coeff(n)) / n**a
    return out


def _afe_tail_log(a: float, qc: float, x_min: float, n_from: int) -> float:
    """log bound on sum_{n >= n_from} 2 Q(a+1/2, n x_min / qc), where Q is the
    regularized upper incomplete gamma.  Valid once the first argument is
    past 2(a+1/2): Q(s,t) <= 2 t^(s-1) e^-t / Gamma(s) there, and the terms
    decay at least geometrically with ratio e^(-x_min/(2 qc))."""
    s = a + 0.5
    t0 = n_from * x_min / qc
    if t0 < 2.0 * s + 2.0:
        return math.inf
    first = math.log(4.0) + (s - 1.0) * math.log(t0) - t0 - math.lgamma(s)
    ratio = (s - 1.0) * math.log1p(1.0 / n_from) - x_min / qc
    if ratio > -1e-12:
        return math.inf
    return first - math.log(-math.expm1(ratio))


def central_value(F, D: int, target_err: float = 1e-9) -> CertifiedValue:
    """L(F, (D|.), 1/2) by the smoothed approximate functional equation.

    Raises if the root-number solve is inconsistent (|eps| far from 1 or the
    residual across smoothing parameters exceeds target_err * scale).
    """
    value, _eps, err_log = _afe_solve(F, D, target_err)
    return CertifiedValue(LogScaled.from_float(value), err_log)


def root_number(F, D: int) -> int:
    """The sign of the functional equation (+1 or -1), as solved and
    certified by central_value."""
    return _afe_solve(F, D)[1]


def _afe_solve(F, D: int, target_err: float = 1e-9) -> tuple[float, int, float]:
    """(central value, root number, log error bound) from the smoothed
    approximate functional equation at the splits x in xs and 1/x."""
    if not is_fundamental_discriminant(D):
        raise ValueError(f"{D} is not a fundamental discriminant")
    w = F.weight
    a = (w - 1) / 2.0
    q = abs(D)
    qc = q / (2.0 * math.pi)
    xs = (1.0, 1.5, 1.2)
    x_min = min(min(xs), min(1.0 / x for x in xs))

    # choose N: at least the conventional ~3 q sqrt(w) terms, then certify
    n_terms = max(16, math.ceil(3.0 * q * math.sqrt(w)))
    while _afe_tail_log(a, qc, x_min, n_terms + 1) > math.log(target_err) - 3.0:
        n_terms = int(n_terms * 1.4) + 8
        if n_terms > 5 * 10**6:
            raise RuntimeError("approximate functional equation will not converge")
    tail_log = _afe_tail_log(a, qc, x_min, n_terms + 1)

    b = _twisted_coeffs(F, D, n_terms)
    ns = np.arange(1, n_terms + 1, dtype=np.float64)
    bn = b[1:] / np.sqrt(ns)

    def A(x: float) -> float:
        return float(np.sum(bn * gammaincc(a + 0.5, ns * x / qc)))

    a_vals = {}
    for x in xs:
        a_vals[x] = A(x)
        a_vals[1.0 / x] = A(1.0 / x)

    num = a_vals[xs[0]] - a_vals[xs[1]]
    den = a_vals[1.0 / xs[1]] - a_vals[1.0 / xs[0]]
    scale = max(abs(a_vals[x]) for x in a_vals) + 1e-300
    if abs(den) < 1e-9 * scale:
        # degenerate solve: decide eps by consistency of the two candidates
        eps = _eps_by_consistency(a_vals, xs, scale, target_err)
    else:
        eps_raw = num / den
        if abs(eps_raw - 1.0) < 0.1:
            eps = 1
        elif abs(eps_raw + 1.0) < 0.1:
            eps = -1
        else:
            raise RuntimeError(
                f"root number solve inconsistent: raw eps = {eps_raw:.6g}"
            )
    candidates = [a_vals[x] + eps * a_vals[1.0 / x] for x in xs]
    residual = max(candidates) - min(candidates)
    if residual > target_err * max(1.0, scale):
        raise RuntimeError(
            f"functional equation residual {residual:.3g} exceeds target"
        )
    err_log = logsumexp([tail_log, math.log(residual + 1e-300)])
    return candidates[0], eps, err_log


def _eps_by_consistency(a_vals, xs, scale, target_err):
    best = None
    for eps in (1, -1):
        cand = [a_vals[x] + eps * a_vals[1.0 / x] for x in xs]
        spread = max(cand) - min(cand)
        if best is None or spread < best[1]:
            best = (eps, spread)
    if best[1] > 10 * target_err * max(1.0, scale):
        raise RuntimeError("root number undetermined: both signs inconsistent")
    return best[0]


# ---------------------------------------------------------------------------
# Symmetric square at the edge
# ---------------------------------------------------------------------------


def sym2_at_1(F, prime_limit: int = 10**5) -> CertifiedValue:
    """L(sym^2 F, 1) as an Euler product over p <= prime_limit.

    Each local factor at s = 1 is (1 - (lam_p^2 - 2)/p + 1/p^2)^-1 (1 - 1/p)^-1
    with lam_p = Fhat(p) p^(-(w-1)/2).  The error field is a heuristic tail
    estimate c / (sqrt(P) log P); the doubling test in the suite backs it.
    """
    a = (F.weight - 1) / 2.0
    log_l = 0.0
    for p in primes_up_to(prime_limit):
        lam = float(F.coeff(p)) / p**a
        den = (1.0 - (lam * lam - 2.0) / p + 1.0 / (p * p)) * (1.0 - 1.0 / p)
        log_l -= math.log(den)
    tail = 8.0 / (math.sqrt(prime_limit) * math.log(prime_limit))
    value = LogScaled(1, log_l)
    return CertifiedValue(value, value.logm + math.log(tail))


def alpha_recovery(F, p: int) -> tuple[complex, complex]:
    """alpha_p, conj(alpha_p) with sum Fhat(p) and product p^(w-1)."""
    ap = float(F.coeff(p))
    disc = ap * ap - 4.0 * p ** (F.weight - 1)
    s = complex(disc) ** 0.5
    return (ap + s) / 2.0, (ap - s) / 2.0


# ---------------------------------------------------------------------------
# Petersson norms
# ---------------------------------------------------------------------------


def _gauss_nodes(a: float, b: float, n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def _cap_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss nodes and weights on the cap of the standard fundamental
    domain below y = 1, on x in [0, 1/2] with weights doubled for the
    reflection x -> -x.  x is outermost so the inner bound sqrt(1 - x^2)
    stays smooth; y outermost would put a square-root singularity at y = 1
    and stall the quadrature."""
    xs, wx = _gauss_nodes(0.0, 0.5, order)
    ys, wy = _gauss_nodes(np.sqrt(1.0 - xs * xs)[:, None], 1.0, order)
    return (xs[:, None] + 1j * ys).ravel(), (2.0 * wx[:, None] * wy).ravel()


def _domain_nodes(order: int, y_cap: float) -> tuple[np.ndarray, np.ndarray]:
    """(points, weights) covering the standard fundamental domain: the cap
    below y = 1, then strips [2^j, 2^(j+1)] up to y_cap, each a tensor grid
    with y outer and x inner."""
    edges = [1.0]
    while edges[-1] < y_cap:
        edges.append(min(2 * edges[-1], y_cap))
    ys, wy = _gauss_nodes(np.array(edges[:-1])[:, None], np.array(edges[1:])[:, None], order)
    xs, wx = _gauss_nodes(-0.5, 0.5, order)
    cap_pts, cap_wts = _cap_nodes(order)
    pts = xs + 1j * ys.reshape(-1, 1)
    wts = wx * wy.reshape(-1, 1)
    return np.concatenate([cap_pts, pts.ravel()]), np.concatenate([cap_wts, wts.ravel()])


def petersson_norm_integral(F, rtol: float = 1e-8) -> CertifiedValue:
    """<F,F> = int_{F_SL2} |F|^2 y^(w-2) dx dy for an integral-weight form.

    Strip y >= 1 by Parseval (exact incomplete-gamma terms), cap by tensor
    Gauss quadrature at two orders (difference -> error estimate).
    """
    w = F.weight
    strip_logs = []
    n = 1
    while True:
        cn = float(F.coeff(n))
        if cn != 0.0:
            t = 4.0 * math.pi * n
            qreg = gammaincc(w - 1, t)
            if qreg <= 0:
                break
            strip_logs.append(
                2.0 * math.log(abs(cn)) - (w - 1) * math.log(t) + math.lgamma(w - 1) + math.log(qreg)
            )
            if strip_logs[-1] < max(strip_logs) - 60.0:
                break
        n += 1
        if n > F.precision:
            break
    strip = math.exp(logsumexp(strip_logs))
    n_coef = min(F.precision, 80)
    series = QExpansion(w, 1, 0, n_coef, {n: F.coeff(n) for n in range(1, n_coef + 1)})

    def cap_integral(order: int) -> float:
        zs, wts = _cap_nodes(order)
        reduced, log_scale = series.eval_reduced(zs)
        abs_sq = np.abs(reduced) ** 2 * np.exp(2.0 * log_scale)
        return float(np.sum(wts * zs.imag ** (w - 2.0) * abs_sq))

    c1, c2 = cap_integral(24), cap_integral(36)
    value = strip + c2
    err = abs(c2 - c1) + rtol * value
    return CertifiedValue(LogScaled.from_float(value), math.log(err + 1e-300))


# the six translates of the standard domain tiling a Gamma_0(4) domain:
# (frame label, affine map w -> argument, log of Im-scale)
_PIECES = (
    ("I", 1.0, 0.0),
    ("W4", 0.25, 0.0),
    ("W4", 0.25, 1.0),
    ("W4", 0.25, 2.0),
    ("W4", 0.25, 3.0),
    ("V4", 1.0, 0.0),
)


def petersson_gram(evals: list[FormEvaluator], y_cap: float = 64.0) -> tuple[np.ndarray, float]:
    """Gram matrix <f_i, f_j> = (1/6) int over a Gamma_0(4) domain.

    The domain is the union of six translates gamma_i F_SL2; on each the
    invariant integrand is evaluated through the frame seeing gamma_i's
    cusp:  (Im w)^k f fbar at the identity and V frames, (Im w / 4)^k at the
    four Fricke translates (w+j)/4, j = 0..3.
    """
    k = float(evals[0].k)
    n = len(evals)

    def assemble(order: int) -> np.ndarray:
        g = np.zeros((n, n), dtype=complex)
        zs, wts = _domain_nodes(order, y_cap)
        measure = wts / zs.imag**2
        for label, scale, shift in _PIECES:
            vals = np.stack([ev.eval_frame_complex(label, scale * (zs + shift)) for ev in evals])
            pref = (scale * zs.imag) ** k * measure
            g += np.einsum("ip,jp,p->ij", vals, np.conjugate(vals), pref)
        return g / 6.0

    g1 = assemble(18)
    g2 = assemble(26)
    err = float(np.max(np.abs(g2 - g1)))
    return np.real(g2), err


def petersson_norm_f(form, method: str = "quadrature", prec: int = 700) -> CertifiedValue:
    """<f,f>_{Gamma_0(4)} for a plus-space form: 2-d quadrature over the
    explicit domain, or (dim-1 spectral route) |fhat(m)|^2 / spectral sum."""
    if method == "quadrature":
        ev = FormEvaluator.from_plus_form(form, prec)
        g, err = petersson_gram([ev])
        val = float(g[0, 0])
        return CertifiedValue(LogScaled.from_float(val), math.log(err + 1e-300))
    if method == "spectral":
        basis = form.basis
        if basis.dimension != 1:
            raise ValueError("spectral norm route needs a one-dimensional space")
        m = min(mm for mm, v in basis.forms[0].coeffs.items() if v != 0)
        sa = spectral_average(form.k, m, rel_tol=1e-8)
        num = LogScaled.from_float(float(form.coeff(m)) ** 2)
        val = num / sa.value
        err_log = val.logm + math.log(max(sa.rel_err(), 1e-15))
        return CertifiedValue(val, err_log)
    raise ValueError("method must be 'quadrature' or 'spectral'")


# ---------------------------------------------------------------------------
# The coefficient-to-central-value identity and reports
# ---------------------------------------------------------------------------


@dataclass
class NormData:
    norm_F: CertifiedValue
    l_sym2_1: CertifiedValue
    norm_f: CertifiedValue


def norm_identity_rhs(w: int, sym2: CertifiedValue) -> LogScaled:
    """Gamma(2k-1)/(2^(4k-3) pi^(2k)) L(sym^2 F, 1), with w = 2k-1."""
    k = (w + 1) / 2.0
    log_pref = math.lgamma(w) - (4.0 * k - 3.0) * math.log(2.0) - 2.0 * k * math.log(math.pi)
    return sym2.value * LogScaled.exp_of(log_pref)


def kohnen_zagier_check(f, F, D: int, norm_f: CertifiedValue,
                        norm_F: CertifiedValue, l_central: CertifiedValue) -> dict:
    """Discrepancy |log LHS - log RHS| of

        |fhat(|D|)|^2 / <f,f> = Gamma(k-1/2)/pi^(k-1/2) |D|^(k-1)
                                 L(F,(D|.),1/2) / <F,F>.

    Returns {'skipped': True} when fhat(|D|) = 0.
    """
    k = float(f.k)
    c = f.coeff(abs(D))
    if float(c) == 0.0:
        return {"skipped": True, "D": D}
    lhs_log = 2.0 * log_abs_fraction(c) - norm_f.value.logm
    if l_central.value.sign <= 0:
        return {"skipped": True, "D": D, "reason": "nonpositive central value"}
    rhs_log = (
        math.lgamma(k - 0.5)
        - (k - 0.5) * math.log(math.pi)
        + (k - 1.0) * math.log(abs(D))
        + l_central.value.logm
        - norm_F.value.logm
    )
    return {
        "skipped": False,
        "D": D,
        "lhs_log": lhs_log,
        "rhs_log": rhs_log,
        "discrepancy": abs(lhs_log - rhs_log),
    }


def coefficient_bound_report(f, alpha_beta=(1.0 / 3.0, 1.0 / 3.0),
                             d_limit: int = 200) -> dict:
    """Observed growth of |fhat(|D|)| against the reference envelope

        (4 pi)^(k/2) / Gamma(k)^(1/2) * |D|^((k-1)/2),

    fitted over fundamental |D| <= d_limit; observational only."""
    k = float(f.k)
    sign = f.basis.sign_unit()
    f.coefficients_upto(d_limit)
    base_log = 0.5 * (k * math.log(4.0 * math.pi) - math.lgamma(k))
    xs, ys = [], []
    for m in range(1, d_limit + 1):
        D = sign * m
        if not is_fundamental_discriminant(D):
            continue
        c = f.coeff(m)
        if float(c) == 0.0:
            continue
        ratio_log = log_abs_fraction(c) - base_log - (k - 1.0) / 2.0 * math.log(m)
        xs.append(math.log(m))
        ys.append(2.0 * ratio_log)  # squared-envelope exponent
    slope, intercept = np.polyfit(np.array(xs), np.array(ys), 1)
    alpha, beta = alpha_beta
    return {
        "beta_observed": float(slope),
        "beta_reference": beta,
        "intercept": float(intercept),
        "points": len(xs),
    }


def coefficient_growth_k_sweep(k_list, m: int = 1, prec: int = 700) -> dict:
    """Observed growth in k of |fhat(m)| Gamma(k)^(1/2) / (4 pi)^(k/2) for
    L2-normalised eigenforms, at a fixed index m; observational."""
    from .hecke import dim_cusp_level1, eigenbasis_plus

    xs, ys = [], []
    for k in k_list:
        k = half_integer(k)
        kf = float(k)
        if dim_cusp_level1(int(2 * k - 1)) == 0:
            continue
        for f in eigenbasis_plus(k, prec=prec):
            if not f.basis.admissible(m) or float(f.coeff(m)) == 0.0:
                continue
            nf = petersson_norm_f(f, "quadrature", prec=prec)
            ratio_log = (
                log_abs_fraction(f.coeff(m))
                - 0.5 * nf.value.logm
                + 0.5 * math.lgamma(kf)
                - 0.5 * kf * math.log(4.0 * math.pi)
                - (kf - 1.0) / 2.0 * math.log(m)
            )
            xs.append(math.log(kf))
            ys.append(2.0 * ratio_log)
    if len(xs) < 2:
        return {"alpha_observed": float("nan"), "points": len(xs)}
    slope = float(np.polyfit(np.array(xs), np.array(ys), 1)[0])
    return {"alpha_observed": slope, "points": len(xs)}


def lower_bound_rhs(F, D: int, k, l_value: CertifiedValue | None = None) -> LogScaled:
    """k^(1/4) L(F,(D|.),1/2)^(1/2) |D|^(-1/2), log-scaled."""
    kf = float(half_integer(k))
    lv = l_value if l_value is not None else central_value(F, D)
    if lv.value.sign <= 0:
        return LogScaled.zero()
    return LogScaled.exp_of(
        0.25 * math.log(kf) + 0.5 * lv.value.logm - 0.5 * math.log(abs(D))
    )


def results_table_csv(rows: list[dict]) -> str:
    """CSV with the columns k, D, L_central, L_err, sym2, norm_F, norm_f,
    kz_discrepancy (comma separated, '.' decimal, header always present)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["k", "D", "L_central", "L_err", "sym2", "norm_F", "norm_f", "kz_discrepancy"]
    )
    for r in rows:
        writer.writerow(
            [
                r["k"],
                r["D"],
                repr(r["L_central"]),
                repr(r["L_err"]),
                repr(r["sym2"]),
                repr(r["norm_F"]),
                repr(r["norm_f"]),
                repr(r["kz_discrepancy"]),
            ]
        )
    return buf.getvalue()
