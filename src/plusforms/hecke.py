"""Hecke theory on both sides of the Shimura correspondence.

Level-1 integral weight: Victor Miller echelon bases of S_w(SL(2,Z)) built
from E4, E6 and the discriminant form, classical T(p), exact eigenforms
(rational or real-quadratic; numeric beyond that).

Half-integral weight: the coefficient action of T(p^2) on the Kohnen plus
space, simultaneous eigenbases, the pairing lambda(p^2) = Fhat(p) with the
integral partner, exact verification of the square-index coefficient
relation fhat(n^2 |D|) = fhat(|D|) sum_{d|n} mu(d) (D|d) d^(k-3/2) Fhat(n/d),
and the eigenvalue multiplicativity
lambda(m^2) lambda(n^2) = sum_{d|(m,n)} d^(2k-2) lambda(m^2 n^2 / d^4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import intpoly
from .arith import (
    QuadExt,
    divisors,
    factorize,
    half_integer,
    is_fundamental_discriminant,
    kronecker_symbol,
    moebius,
    squarefree_part,
)
from .linalg import charpoly_exact
from .numerics import LogScaled, log_abs_fraction
from .qexp import (
    HALF,
    PrecisionError,
    QExpansion,
    SpaceBasis,
    _monomial_int,
    combine_int_rows,
    cusp_plus_basis,
    from_int_series,
    sturm_index,
)

# ---------------------------------------------------------------------------
# Level-1 integral weight
# ---------------------------------------------------------------------------


def dim_cusp_level1(w: int) -> int:
    """dim S_w(SL(2,Z)) for even w >= 0."""
    if w < 12 or w % 2:
        return 0
    return w // 12 - (1 if w % 12 == 2 else 0)


@lru_cache(maxsize=None)
def _miller_int(w: int, prec: int) -> tuple[tuple[int, ...], ...]:
    d = dim_cusp_level1(w)
    if d == 0:
        return ()
    e4 = list(intpoly.eisenstein_int(4, prec))
    e6 = list(intpoly.eisenstein_int(6, prec))
    delta = list(intpoly.delta_int(prec))
    rows = []
    for i in range(1, d + 1):
        rem = w - 12 * i
        if rem % 4 == 0:
            alpha, beta = rem // 4, 0
        else:
            alpha, beta = (rem - 6) // 4, 1
        series = intpoly.poly_pow_trunc(delta, i, prec)
        if alpha:
            series = intpoly.poly_mul_trunc(series, intpoly.poly_pow_trunc(e4, alpha, prec), prec)
        if beta:
            series = intpoly.poly_mul_trunc(series, e6, prec)
        rows.append(series)
    # echelonize to leading terms q^1, ..., q^d (integer row operations)
    for i in range(d):
        piv = rows[i][i + 1]
        assert piv == 1 or piv != 0
        for j in range(d):
            if j != i and rows[j][i + 1] != 0:
                f = Fraction(rows[j][i + 1], piv)
                rows[j] = [a - f * b for a, b in zip(rows[j], rows[i])]
    out = []
    for i in range(d):
        piv = rows[i][i + 1]
        row = [Fraction(a, 1) / piv for a in rows[i]]
        assert all(r.denominator == 1 for r in row)
        out.append(tuple(int(r) for r in row))
    return tuple(out)


def miller_basis(w: int, prec: int) -> list[QExpansion]:
    """Echelon basis of S_w(SL(2,Z)) with integer coefficients, leading q^i."""
    if w < 12 or w % 2:
        return []
    return [from_int_series(Fraction(w), list(row), prec) for row in _miller_int(w, prec)]


def hecke_integral(F: QExpansion, w: int, p: int) -> QExpansion:
    """Classical T(p) on level 1: a(n) -> a(pn) + p^(w-1) a(n/p)."""
    out_prec = F.prec // p
    if out_prec < 1 and not F.is_zero():
        raise PrecisionError(f"T({p}) needs input precision >= {p}")
    coeffs: dict[int, Fraction] = {}
    pw = Fraction(p) ** (w - 1)
    for n in range(0, out_prec + 1):
        v = F.coeff(p * n)
        if n % p == 0:
            v = v + pw * F.coeff(n // p)
        if v != 0:
            coeffs[n] = v
    return QExpansion(F.weight, F.width, F.param, out_prec, coeffs)


def _quad_roots(B: Fraction, C: Fraction):
    """Roots of x^2 + Bx + C, as Fractions if split, else conjugate QuadExt pair."""
    disc = B * B - 4 * C
    if disc < 0:
        raise ValueError("complex eigenvalues cannot occur for these operators")
    num = disc.numerator * disc.denominator  # disc = num / den^2 form
    d0 = squarefree_part(num) if num != 0 else 1
    s2 = disc / d0
    rs = _sqrt_fraction(s2)
    if d0 == 1:
        return (-B + rs) / 2, (-B - rs) / 2
    half_b = -B / 2
    half_s = rs / 2
    return (
        QuadExt(half_b, half_s, d0),
        QuadExt(half_b, -half_s, d0),
    )


def _sqrt_fraction(x: Fraction) -> Fraction:
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn != x.numerator or rd * rd != x.denominator:
        raise ValueError(f"{x} is not a rational square")
    return Fraction(rn, rd)


def _generic_kernel_vector(mat):
    """One kernel vector of a singular square matrix over Fraction/QuadExt."""
    n = len(mat)
    m = [row[:] for row in mat]
    pivots = {}
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, n):
            if not _is_zero(m[i][c]):
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(n):
            if i != r and not _is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots[c] = r
        r += 1
    free = [c for c in range(n) if c not in pivots]
    if not free:
        raise ValueError("matrix is nonsingular, no kernel")
    fc = free[0]
    vec = [Fraction(0)] * n
    vec[fc] = Fraction(1)
    for c, row in pivots.items():
        vec[c] = -m[row][fc]
    return vec


def _is_zero(x) -> bool:
    if isinstance(x, QuadExt):
        return x.a == 0 and x.b == 0
    return x == 0


@dataclass
class IntegralForm:
    """Arithmetically normalised Hecke eigenform on SL(2,Z), Fhat(1) = 1."""

    weight: int
    coeffs: list  # scalars (Fraction or QuadExt), index = n, up to precision
    charpoly: list[Fraction]  # of T(2) on the ambient space
    field_disc: int | None  # None: rational; else squarefree d of Q(sqrt d)

    @property
    def precision(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int):
        """Fhat(n); extends multiplicatively past the stored range."""
        if n <= self.precision:
            return self.coeffs[n]
        value = Fraction(1)
        for p, e in factorize(n):
            value = value * self._prime_power(p, e)
        return value

    def _prime_power(self, p: int, e: int):
        if p > self.precision:
            raise PrecisionError(f"need Fhat({p}) beyond stored precision")
        prev, cur = Fraction(1), self.coeffs[p]
        pw = Fraction(p) ** (self.weight - 1)
        for _ in range(e - 1):
            prev, cur = cur, self.coeffs[p] * cur - pw * prev
        return cur

    def eigenvalue(self, p: int):
        return self.coeff(p)

    def deligne_ok(self, p: int, tol: float = 1e-12) -> bool:
        return abs(float(self.coeff(p))) <= 2.0 * p ** ((self.weight - 1) / 2.0) * (1 + tol)


def eigenforms_level1(w: int, prec: int) -> list[IntegralForm]:
    """Hecke eigenforms of S_w(SL(2,Z)), exactly when the Hecke field has
    degree <= 2 over Q; higher-degree systems raise (charpoly is still exact
    via hecke_matrix_level1)."""
    d = dim_cusp_level1(w)
    if d == 0:
        return []
    need = max(prec, 2 * d + 2)
    basis = _miller_int(w, need)
    mat = hecke_matrix_level1(w, 2)
    cp = charpoly_exact(mat)
    lams = _eigenvalues_from_charpoly(cp)
    out = []
    for lam in lams:
        if d == 1:
            vec = [Fraction(1)]
        else:
            m = [[mat[i][j] - (lam if i == j else 0) for j in range(d)] for i in range(d)]
            vec = _generic_kernel_vector(m)
        # arithmetic normalization: coefficient at q^1 equals vec[0]
        v0 = vec[0]
        if _is_zero(v0):
            raise RuntimeError("eigenvector has vanishing leading coefficient")
        vec = [v / v0 for v in vec]
        coeffs = _combine_int_rows(basis, vec, need)
        disc = lam.d if isinstance(lam, QuadExt) else None
        out.append(IntegralForm(w, coeffs, cp, disc))
    return out


def _eigenvalues_from_charpoly(cp: list[Fraction]):
    """Roots of an exact monic charpoly: rational and quadratic factors only."""
    deg = len(cp) - 1
    if deg == 1:
        return [-cp[0]]
    if deg == 2:
        r = _quad_roots(cp[1], cp[0])
        return list(r)
    # peel off integer roots numerically, then verify exactly
    import numpy as np

    poly = [float(c) for c in reversed(cp)]
    roots = np.roots(poly)
    remaining = cp
    found = []
    for r in roots:
        cand = Fraction(round(float(r.real)))
        if _poly_eval(remaining, cand) == 0:
            found.append(cand)
            remaining = _poly_divide_linear(remaining, cand)
            if len(remaining) - 1 == 2:
                found.extend(_quad_roots(remaining[1], remaining[0]))
                return found
    if len(remaining) - 1 <= 0:
        return found
    raise NotImplementedError(
        f"Hecke field of degree {len(remaining) - 1} > 2; exact eigenvectors unsupported"
    )


def _poly_eval(cp: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(cp):
        acc = acc * x + c
    return acc


def _poly_divide_linear(cp: list[Fraction], root: Fraction) -> list[Fraction]:
    """cp / (x - root), exact (root must be a root)."""
    deg = len(cp) - 1
    out = [Fraction(0)] * deg
    acc = Fraction(0)
    for i in range(deg - 1, -1, -1):
        acc = cp[i + 1] + acc * root
        out[i] = acc
    return out


def _combine_exact(rows, vec, n: int):
    """sum_j vec[j] * rows[j] on indices 0..n-1 for integer rows and Fraction
    or QuadExt scalars, as (rational parts, sqrt(d) parts, d).  The last two
    are None when every scalar is rational."""
    d0 = next((v.d for v in vec if isinstance(v, QuadExt)), None)

    def part(coeffs):
        num, den = combine_int_rows(rows, coeffs, n)
        return [Fraction(x, den) for x in num]

    ra = part([v.a if isinstance(v, QuadExt) else Fraction(v) for v in vec])
    if d0 is None:
        return ra, None, None
    return ra, part([v.b if isinstance(v, QuadExt) else Fraction(0) for v in vec]), d0


def _combine_int_rows(basis_rows, vec, prec: int):
    """Coefficients 0..prec of sum_j vec[j] * basis_rows[j]; all QuadExt when
    any scalar is."""
    ra, rb, d0 = _combine_exact(basis_rows, vec, prec + 1)
    if d0 is None:
        return ra
    return [QuadExt(a, b, d0) for a, b in zip(ra, rb)]


def hecke_matrix_level1(w: int, p: int) -> list[list[Fraction]]:
    """Exact matrix of T(p) on the Miller echelon basis of S_w."""
    d = dim_cusp_level1(w)
    if d == 0:
        return []
    prec = p * d + 1
    basis = miller_basis(w, prec)
    mat = []
    for i in range(d):
        tf = hecke_integral(basis[i], w, p)
        mat.append([tf.coeff(j) for j in range(1, d + 1)])
    return [[mat[i][j] for i in range(d)] for j in range(d)]  # columns are images


# ---------------------------------------------------------------------------
# Half-integral weight plus space
# ---------------------------------------------------------------------------


def hecke_plus(f: QExpansion, k, p: int) -> QExpansion:
    """Kohnen plus-space T(p^2), p odd prime, at the coefficient level:

    a(n) -> a(p^2 n) + ((-1)^(k-1/2) n | p) p^(k-3/2) a(n) + p^(2k-2) a(n/p^2).
    """
    k = half_integer(k)
    if p == 2 or p % 2 == 0:
        raise ValueError("plus-space T(p^2) implemented for odd p only")
    sign = -1 if int(k - HALF) % 2 else 1
    e_mid = int(k - Fraction(3, 2))
    e_top = int(2 * k - 2)
    out_prec = f.prec // (p * p)
    if out_prec < 1 and not f.is_zero():
        raise PrecisionError(f"T({p}^2) needs input precision >= {p * p}")
    coeffs: dict[int, Fraction] = {}
    for n in range(0, out_prec + 1):
        v = f.coeff(p * p * n)
        chi = kronecker_symbol(sign * n, p)
        if chi:
            v = v + chi * Fraction(p) ** e_mid * f.coeff(n)
        if n % (p * p) == 0:
            v = v + Fraction(p) ** e_top * f.coeff(n // (p * p))
        if v != 0:
            coeffs[n] = v
    return QExpansion(f.weight, f.width, f.param, out_prec, coeffs)


def _pivot_indices(basis: SpaceBasis) -> list[int]:
    pivots = []
    for q in basis.forms:
        lead = min(m for m, v in q.coeffs.items() if v != 0)
        pivots.append(lead)
    return pivots


def hecke_matrix_plus(basis: SpaceBasis, p: int) -> list[list[Fraction]]:
    """Exact matrix of T(p^2) on an echelonized plus-space basis."""
    d = basis.dimension
    pivots = _pivot_indices(basis)
    need = p * p * max(pivots)
    if basis.forms[0].prec < need:
        raise PrecisionError(f"T({p}^2) matrix needs basis precision >= {need}")
    cols = []
    for i in range(d):
        tf = hecke_plus(basis.forms[i], basis.weight, p)
        coords = [tf.coeff(piv) for piv in pivots]
        # consistency: the image must be the found combination
        residual_idx = [
            n for n in range(0, min(tf.prec, basis.sturm) + 1) if n not in pivots
        ]
        for n in residual_idx:
            expect = sum(coords[j] * basis.forms[j].coeff(n) for j in range(d))
            if expect != tf.coeff(n):
                raise RuntimeError(
                    f"T({p}^2) image leaves the plus space at index {n}: "
                    "basis or operator is wrong"
                )
        cols.append(coords)
    return [[cols[i][j] for i in range(d)] for j in range(d)]


@dataclass
class HalfIntegralForm:
    """Hecke eigenform in S_k^+(Gamma_0(4)), leading admissible coefficient 1."""

    k: Fraction
    basis: SpaceBasis
    vector: list  # scalars over basis.forms
    charpoly: list[Fraction]
    field_disc: int | None
    shimura_partner: IntegralForm | None = None
    eigen_table: dict = field(default_factory=dict)  # p -> lambda(p^2), scalars
    _coeff_cache: dict = field(default_factory=dict, repr=False)
    _cached_upto: int = -1
    petersson_norm: object = None  # CertifiedValue, filled by callers that need it

    def coeff(self, n: int):
        """fhat(n), exact scalar; uses fast integer series for large n."""
        if n in self._coeff_cache:
            return self._coeff_cache[n]
        if n <= self.basis.forms[0].prec:
            val = sum(
                (c * self.basis.forms[i].coeff(n) for i, c in enumerate(self.vector)),
                start=Fraction(0),
            )
        else:
            self.coefficients_upto(n)
            val = self._coeff_cache[n]
        self._coeff_cache[n] = val
        return val

    def coefficients_upto(self, n_max: int):
        """All fhat(0..n_max) in one pass (fast integer-series combination)."""
        if n_max <= self._cached_upto:
            return [self._coeff_cache[n] for n in range(n_max + 1)]
        mono_vec = self._monomial_vector()
        series = _combine_monomials(self.basis, mono_vec, n_max)
        for n, v in enumerate(series):
            self._coeff_cache[n] = v
        self._cached_upto = n_max
        return series

    def _monomial_vector(self):
        acc = None
        for c, bvec in zip(self.vector, self.basis.vectors):
            term = [c * bv for bv in bvec]
            acc = term if acc is None else [a + t for a, t in zip(acc, term)]
        return acc

    def eigenvalue(self, l: int):
        """lambda(l) for l an odd square, from the stored prime table and
        the Hecke recursion lambda(p^(2j+2)) = lambda(p^2) lambda(p^(2j))
        - p^(2k-2) lambda(p^(2j-2))."""
        if l == 1:
            return Fraction(1)
        root = math.isqrt(l)
        if root * root != l or l % 2 == 0:
            raise ValueError("eigenvalues live on odd squares")
        value = Fraction(1)
        for p, e in factorize(root):
            value = value * self._prime_power_lambda(p, e)
        return value

    def _prime_power_lambda(self, p: int, e: int):
        if p not in self.eigen_table:
            self.eigen_table[p] = self._extract_eigenvalue(p)
        lam = self.eigen_table[p]
        prev, cur = Fraction(1), lam
        pw = Fraction(p) ** int(2 * self.k - 2)
        for _ in range(e - 1):
            prev, cur = cur, lam * cur - pw * prev
        return cur

    def _extract_eigenvalue(self, p: int):
        """lambda(p^2) read off from the coefficient action at the pivot."""
        pivots = _pivot_indices(self.basis)
        n0 = min(
            piv for piv, c in zip(pivots, self.vector) if not _is_zero(c)
        )
        sign = self.basis.sign_unit()
        e_mid = int(self.k - Fraction(3, 2))
        e_top = int(2 * self.k - 2)
        c0 = self.coeff(n0)
        v = self.coeff(p * p * n0)
        chi = kronecker_symbol(sign * n0, p)
        if chi:
            v = v + chi * Fraction(p) ** e_mid * c0
        if n0 % (p * p) == 0:
            v = v + Fraction(p) ** e_top * self.coeff(n0 // (p * p))
        return v / c0

    def normalized_eigenvalue(self, m: int) -> LogScaled:
        """A(m) = lambda(m) m^(-(k-1)/2) as a log-scaled real."""
        lam = self.eigenvalue(m)
        f = float(lam)
        if f == 0.0:
            return LogScaled.zero()
        return LogScaled(
            1 if f > 0 else -1,
            log_abs_fraction(lam) - float(self.k - 1) / 2.0 * math.log(m),
        )


def _combine_monomials(basis: SpaceBasis, mono_vec, n_max: int):
    """Exact coefficients of sum_j mono_vec[j] * Theta^a G^b up to n_max;
    QuadExt only where the sqrt(d) part is nonzero."""
    used = [(mono, v) for mono, v in zip(basis.monomials, mono_vec) if v != 0]
    rows = [_monomial_int(a, b, n_max, "I")[0] for (a, b), _ in used]
    ra, rb, d0 = _combine_exact(rows, [v for _, v in used], n_max + 1)
    if d0 is None:
        return ra
    return [QuadExt(a, b, d0) if b != 0 else a for a, b in zip(ra, rb)]


SEPARATING_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
PAIRING_PRIMES = (3, 5, 7, 11, 13)


def eigenbasis_plus(k, prec: int | None = None, pair: bool = True) -> list[HalfIntegralForm]:
    """Simultaneous T(p^2) eigenbasis of S_k^+, paired with level-1 partners.

    Eigen-systems are separated with T(9) and, if needed, further odd primes
    up to 47; failure to separate aborts.  Pairing matches lambda(p^2) with
    Fhat(p) for the first five odd primes, exactly for rational and
    quadratic systems.
    """
    k = half_integer(k)
    w = int(2 * k - 1)
    target_dim = dim_cusp_level1(w)
    pair_need = (PAIRING_PRIMES[-1] ** 2) * 4 + 1
    basis = cusp_plus_basis(k, max(prec or 0, pair_need), expected_dim=target_dim)
    d = basis.dimension
    if d == 0:
        return []
    mat = hecke_matrix_plus(basis, 3)
    cp = charpoly_exact(mat)
    lams = _eigenvalues_from_charpoly(cp)
    if len(set(map(str, lams))) != len(lams):
        raise RuntimeError("T(9) does not separate; refinement not implemented "
                           "for the desk-scale weights this package targets")
    forms = []
    for lam in lams:
        if d == 1:
            vec = [Fraction(1)]
        else:
            m = [[mat[i][j] - (lam if i == j else 0) for j in range(d)] for i in range(d)]
            vec = _generic_kernel_vector(m)
        pivots = _pivot_indices(basis)
        lead_positions = [i for i, c in enumerate(vec) if not _is_zero(c)]
        lead = min(lead_positions, key=lambda i: pivots[i])
        vec = [v / vec[lead] for v in vec]
        f = HalfIntegralForm(
            k=k,
            basis=basis,
            vector=vec,
            charpoly=cp,
            field_disc=lam.d if isinstance(lam, QuadExt) else None,
        )
        f.eigen_table[3] = lam
        forms.append(f)
    if pair:
        partners = eigenforms_level1(w, prec=64)
        for f in forms:
            f.shimura_partner = _match_partner(f, partners)
    return forms


def _match_partner(f: HalfIntegralForm, partners: list[IntegralForm]) -> IntegralForm:
    for F in partners:
        if all(f.eigenvalue(p * p) == F.coeff(p) for p in PAIRING_PRIMES):
            return F
    raise RuntimeError(
        f"no level-1 partner matches the eigenvalue system at k={f.k}"
    )


# ---------------------------------------------------------------------------
# Exact identities
# ---------------------------------------------------------------------------


def verify_sqrcoeff(f: HalfIntegralForm, D: int, n_max: int) -> dict:
    """Exact check of fhat(n^2 |D|) = fhat(|D|) sum_{d|n} mu(d)(D|d) d^(k-3/2) Fhat(n/d).

    Returns {'ok': bool, 'first_failure': n or None, 'checked': count}.
    """
    k = f.k
    sign = f.basis.sign_unit()
    if not is_fundamental_discriminant(D):
        raise ValueError(f"{D} is not a fundamental discriminant")
    if sign * D <= 0:
        raise ValueError(f"discriminant sign must satisfy (-1)^(k-1/2) D > 0")
    F = f.shimura_partner
    if F is None:
        raise ValueError("form has no Shimura partner attached")
    e_mid = int(k - Fraction(3, 2))
    f.coefficients_upto(n_max * n_max * abs(D))
    base = f.coeff(abs(D))
    first_fail = None
    for n in range(1, n_max + 1):
        rhs = Fraction(0)
        for d in divisors(n):
            mu = moebius(d)
            if mu == 0:
                continue
            chi = kronecker_symbol(D, d)
            if chi == 0:
                continue
            rhs = rhs + mu * chi * Fraction(d) ** e_mid * F.coeff(n // d)
        lhs = f.coeff(n * n * abs(D))
        if lhs != base * rhs:
            first_fail = n
            break
    return {"ok": first_fail is None, "first_failure": first_fail, "checked": n_max}


def multiplicativity_check(f: HalfIntegralForm, m: int, n: int) -> dict:
    """Exact check of lambda(m^2) lambda(n^2) = sum_{d|(m,n)} d^(2k-2) lambda(m^2 n^2/d^4).

    m, n odd.  The weight of d is the even integer 2k-2 = w-1; this is what
    the Hecke algebra's own composition forces (and what tau-arithmetic
    confirms: tau(3)^2 - tau(9) = 3^11 at w = 12).
    """
    if m % 2 == 0 or n % 2 == 0:
        raise ValueError("multiplicativity check expects odd m, n")
    e = int(2 * f.k - 2)
    lhs = f.eigenvalue(m * m) * f.eigenvalue(n * n)
    rhs = Fraction(0)
    g = math.gcd(m, n)
    for d in divisors(g):
        rhs = rhs + Fraction(d) ** e * f.eigenvalue((m * n // (d * d)) ** 2)
    return {"ok": lhs == rhs, "lhs": lhs, "rhs": rhs}


def shimura_charpolys_match(k) -> bool:
    """Exact certificate: charpoly of T(9) on S_k^+ equals that of T(3) on S_{2k-1}."""
    k = half_integer(k)
    w = int(2 * k - 1)
    d = dim_cusp_level1(w)
    basis = cusp_plus_basis(k, prec=9 * (sturm_index(k) + 1))
    if basis.dimension != d:
        return False
    if d == 0:
        return True
    cp_plus = charpoly_exact(hecke_matrix_plus(basis, 3))
    cp_int = charpoly_exact(hecke_matrix_level1(w, 3))
    return cp_plus == cp_int
