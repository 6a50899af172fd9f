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

Petersson products: <F,F> over the modular surface; <f_i,f_j> = (1/6) *
integral over a Gamma_0(4) domain made of six translates of the standard
domain, each seen through the frame of its cusp.  Above y = 1 a frame's
translates cover one period, summed exactly by Parseval (_strip_gram, every
stored term); the cap below y = 1 is Gauss quadrature at two orders, their
difference the error estimate, with one array call per frame and form.

Every coefficient read here is a float of the form's one float view
(_RowForm.view), made from its rows without an exact scalar.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .arith import is_fundamental_discriminant, kronecker_symbol, plus_sign, primes_up_to
from .numerics import CertifiedValue, LogScaled, logsumexp
from .salie import spectral_average
from .supnorm import FormEvaluator, FrameSeries


# ---------------------------------------------------------------------------
# Approximate functional equation
# ---------------------------------------------------------------------------


def upper_gamma_q(s, x):
    """Regularized upper incomplete gamma Q(s, x) = Gamma(s, x) / Gamma(s) for
    an order s = n or n + 1/2 >= 1/2 (n an integer) and x > 0, a float or an
    array of them: e^-x sum_{j < n} x^j / j! for s = n, and erfc(sqrt x) +
    e^-x sum_{j < n} x^(j+1/2) / Gamma(j + 3/2) for s = n + 1/2, each term as
    exp((j + f) log x - x - lgamma(j + f + 1)), f = s - n.  Every term is
    positive, so nothing cancels.
    """
    n, f = divmod(float(s), 1.0)
    if f not in (0.0, 0.5) or s < 0.5:
        raise ValueError(f"upper_gamma_q needs an order n or n + 1/2 >= 1/2, not {s}")
    x = np.asarray(x, dtype=np.float64)
    log_x = np.log(x)
    out = np.vectorize(math.erfc, otypes=[np.float64])(np.sqrt(x)) if f else np.zeros_like(x)
    for j in range(int(n)):
        out += np.exp((j + f) * log_x - x - math.lgamma(j + f + 1))
    return out if out.ndim else float(out)


def _twisted_coeffs(F, D: int, n_max: int) -> np.ndarray:
    """b(n) = chi_D(n) Fhat(n) / n^((w-1)/2) for n = 1..n_max.  D is
    fundamental, so chi_D has period |D| and is read from one period; Fhat(n)
    is read from the form's float view."""
    a = (F.weight - 1) / 2.0
    chi_d = [kronecker_symbol(D, r) for r in range(abs(D))]
    coeffs = F.view(n_max).floats(n_max)
    out = np.zeros(n_max + 1)
    for n in range(1, n_max + 1):
        chi = chi_d[n % abs(D)]
        if chi == 0:
            continue
        out[n] = chi * coeffs[n] / n**a
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
        return float(np.sum(bn * upper_gamma_q(a + 0.5, ns * x / qc)))

    # each distinct split once: x = 1 is its own inverse
    a_vals = {x: A(x) for x in dict.fromkeys(v for x in xs for v in (x, 1.0 / x))}

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
    if prime_limit < 2:
        raise ValueError("prime_limit must be at least 2")
    a = (F.weight - 1) / 2.0
    floats = F.view(prime_limit).floats(prime_limit)
    log_l = 0.0
    for p in primes_up_to(prime_limit):
        lam = floats[p] / p**a
        den = (1.0 - (lam * lam - 2.0) / p + 1.0 / (p * p)) * (1.0 - 1.0 / p)
        log_l -= math.log(den)
    tail = 8.0 / (math.sqrt(prime_limit) * math.log(prime_limit))
    value = LogScaled(1, log_l)
    return CertifiedValue(value, value.logm + math.log(tail))


# ---------------------------------------------------------------------------
# Petersson norms
# ---------------------------------------------------------------------------


def _gauss_nodes(a: float, b: float, n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


@lru_cache(maxsize=8)
def _cap_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss nodes and weights on the cap of the standard fundamental
    domain below y = 1, on x in [0, 1/2] with weights doubled for the
    reflection x -> -x.  x is outermost so the inner bound sqrt(1 - x^2)
    stays smooth; y outermost would put a square-root singularity at y = 1
    and stall the quadrature.  Cached per order, as read-only arrays."""
    xs, wx = _gauss_nodes(0.0, 0.5, order)
    ys, wy = _gauss_nodes(np.sqrt(1.0 - xs * xs)[:, None], 1.0, order)
    nodes = ((xs[:, None] + 1j * ys).ravel(), (2.0 * wx[:, None] * wy).ravel())
    for a in nodes:
        a.setflags(write=False)
    return nodes


def _strip_gram(label: str, series: list[FrameSeries], k: float, y0: float):
    """int y^k f_i conj(f_j) dx dy / y^2 over one period and y >= y0 for
    f_i = series[i] (with its log scale s_i), series of one frame (width 1,
    real coefficients), by Parseval: sum_m a_i(m) a_j(m) e^(s_i + s_j)
    Gamma(k-1, 4 pi t_m y0) / (4 pi t_m)^(k-1) over every stored term.
    Rows are taken in the log domain, each shifted by its largest term; the
    shifts return as one diagonal scaling, since e^(shift_i + shift_j) per
    entry is not of Gram form and the ill-conditioned 'full S' Gram at 49/2
    turns its rounding into 1e-4 in the Bergman kernel.  A nonzero term at
    t = 0 diverges: ValueError."""
    t = np.sort(np.concatenate([fs.t for fs in series]))
    t = t[np.diff(t, prepend=-np.inf) > 0]  # np.unique would import numpy.ma (1 MB)
    if t.size and t[0] <= 0.0:
        raise ValueError(f"frame {label} has a nonzero constant term:"
                         " the Petersson integral diverges")
    rate = 4.0 * math.pi * t
    with np.errstate(divide="ignore"):
        half = 0.5 * (math.lgamma(k - 1.0) + np.log(upper_gamma_q(k - 1.0, rate * y0))
                      - (k - 1.0) * np.log(rate))
    rows = np.zeros((len(series), t.size))
    shifts = np.zeros(len(series))
    for i, fs in enumerate(series):
        cols = np.searchsorted(t, fs.t)
        logterm = fs.logs + half[cols]
        top = np.max(logterm, initial=-np.inf)
        rows[i, cols] = fs.signs * np.exp(logterm - top)
        shifts[i] = top + fs.log_scale
    scale = np.exp(shifts)
    return rows @ rows.T * np.outer(scale, scale)


def petersson_norm_integral(F) -> CertifiedValue:
    """<F,F> = int_{F_SL2} |F|^2 y^(w-2) dx dy for an integral-weight form
    from its first 80 coefficients (its float view): strip y >= 1 by
    _strip_gram, cap by Gauss quadrature at two orders (difference -> error
    estimate)."""
    w = F.weight
    n_coef = min(F.precision, 80)
    logs, signs = F.view(n_coef).terms(n_coef)
    series = FrameSeries.of_terms(range(1, n_coef + 1), logs[1:], signs[1:], n_coef)
    strip = float(_strip_gram("I", [series], w, 1.0)[0, 0])

    def cap_integral(order: int) -> float:
        zs, wts = _cap_nodes(order)
        reduced, log_scale = series.eval_reduced(zs)
        abs_sq = np.abs(reduced) ** 2 * np.exp(2.0 * log_scale)
        return float(np.sum(wts * zs.imag ** (w - 2.0) * abs_sq))

    c1, c2 = cap_integral(24), cap_integral(36)
    return CertifiedValue(LogScaled.from_float(strip + c2), math.log(abs(c2 - c1) + 1e-300))


# the six translates of the standard domain tiling a Gamma_0(4) domain, by
# the frame that sees their cusp: (frame label, scale, shifts) for the maps
# w -> scale (w + shift).  A frame's translates of the strip y >= 1 cover
# one period of width 1 above y = scale.
_PIECES = (
    ("I", 1.0, (0.0,)),
    ("W4", 0.25, (0.0, 1.0, 2.0, 3.0)),
    ("V4", 1.0, (0.0,)),
)


def petersson_gram(evals: list[FormEvaluator]) -> tuple[np.ndarray, float]:
    """Gram matrix <f_i, f_j> = (1/6) int over a Gamma_0(4) domain.

    The domain is the union of six translates gamma_i F_SL2; on each the
    invariant integrand is evaluated through the frame seeing gamma_i's
    cusp:  (Im w)^k f fbar at the identity and V frames, (Im w / 4)^k at the
    four Fricke translates (w+j)/4, j = 0..3.  Above y = 1 each frame's part
    is exact (_strip_gram); the cap is quadrature at orders 18 and 26, and
    their largest difference is the error.  No evaluators give a 0 x 0
    matrix with error 0.
    """
    if not evals:
        return np.zeros((0, 0)), 0.0
    k = float(evals[0].k)
    strip = sum(_strip_gram(label, [ev.frames[label] for ev in evals], k, scale)
                for label, scale, _ in _PIECES)

    def cap(order: int) -> np.ndarray:
        g = np.zeros((len(evals),) * 2, dtype=complex)
        zs, wts = _cap_nodes(order)
        measure = wts / zs.imag**2
        for label, scale, shifts in _PIECES:
            pts = np.concatenate([scale * (zs + shift) for shift in shifts])
            vals = np.stack([ev.eval_frame_complex(label, pts) for ev in evals])
            pref = (scale * zs.imag) ** k * measure
            for piece in np.split(vals, len(shifts), axis=1):
                g += np.einsum("ip,jp,p->ij", piece, np.conjugate(piece), pref)
        return g / 6.0

    c1, c2 = cap(18), cap(26)
    return np.real(c2) + strip / 6.0, float(np.max(np.abs(c2 - c1)))


def petersson_norm_f(form, method: str = "quadrature", prec: int = 700) -> CertifiedValue:
    """<f,f>_{Gamma_0(4)} for a plus-space form: the 1 x 1 petersson_gram
    (Parseval strips and a quadrature cap), or (dim-1 spectral route)
    |fhat(m)|^2 / spectral sum."""
    if method == "quadrature":
        ev = FormEvaluator.from_plus_form(form, prec)
        g, err = petersson_gram([ev])
        val = float(g[0, 0])
        return CertifiedValue(LogScaled.from_float(val), math.log(err + 1e-300))
    if method == "spectral":
        basis = form.basis
        if basis.dimension != 1:
            raise ValueError("spectral norm route needs a one-dimensional space")
        m = basis.pivots()[0]
        sa = spectral_average(form.k, m, rel_tol=1e-8)
        num = LogScaled.from_float(form.view(m).floats(m)[m] ** 2)
        val = num / sa.value
        err_log = val.logm + math.log(max(sa.rel_err(), 1e-15))
        return CertifiedValue(val, err_log)
    raise ValueError("method must be 'quadrature' or 'spectral'")


# ---------------------------------------------------------------------------
# The coefficient-to-central-value identity
# ---------------------------------------------------------------------------


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

    Returns {'skipped': True} when fhat(|D|) = 0; raises ValueError unless
    (-1)^(k-1/2) D > 0, the sign for which the identity holds.
    """
    if plus_sign(f.k) * D <= 0:
        raise ValueError("discriminant sign must satisfy (-1)^(k-1/2) D > 0")
    k = float(f.k)
    logs, signs = f.view(abs(D)).terms(abs(D))
    if signs[abs(D)] == 0:
        return {"skipped": True, "D": D}
    lhs_log = 2.0 * logs[abs(D)] - norm_f.value.logm
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
