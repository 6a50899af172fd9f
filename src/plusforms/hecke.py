"""Hecke theory on both sides of the Shimura correspondence.

Level-1 integral weight: Victor Miller echelon bases of S_w(SL(2,Z)) built
from E4, E6 and the discriminant form, classical T(p), exact eigenforms.
The monomials Delta^i E4^alpha E6^beta of a weight are one product chain,
qexp._walk_miller (which also makes the level-1 factors of the plus-space
rows), run by intpoly.chain_products, whose integer map is the
echelon step that linalg.rref_exact finds on the monomials to index d; the
rows are held per weight at the largest precision asked for
(qexp._Prefixes), and T(p) acts on them as integers.

Eigenvalues are exact at every degree: rational, in Q(sqrt(d)), or y in
Q[y]/(charpoly) with y sent to one real root (arith.NumberField).  Both
sides are diagonalised by T(3) on S_{2k-1} and T(9) on S_k^+, whose
charpolys agree, so a plus form and its partner share one field.  Both
matrices are integer rows over one denominator (1 for T(3)); the T(9)
matrix, its charpoly and the eigenvectors are held once per plus space.
An eigenform on either side keeps its coefficients one way (_RowForm): it
combines the basis rows that the eigenforms of its weight share (the
Miller rows, or the plus-space basis rows) into one integer row per field
coordinate over one denominator, and makes each scalar when it is read;
the same rows hold its one float view (qexp.FloatView), which every float
reader takes.

Half-integral weight: T(p^2) on the Kohnen plus space as one integer kernel
on the held basis rows (built by qexp from Kohnen's generators times Miller
monomials in q^4; a T(p^2) matrix is checked to the Sturm index), simultaneous
eigenbases, the pairing lambda(p^2) = Fhat(p) with the integral partner,
exact verification of the square-index coefficient relation
fhat(n^2 |D|) = fhat(|D|) sum_{d|n} mu(d) (D|d) d^(k-3/2) Fhat(n/d),
and the eigenvalue multiplicativity
lambda(m^2) lambda(n^2) = sum_{d|(m,n)} d^(2k-2) lambda(m^2 n^2 / d^4).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from . import intpoly
from .arith import (
    FieldElement,
    divisors,
    factorize,
    half_integer,
    is_fundamental_discriminant,
    is_squarefree_poly,
    kronecker_symbol,
    moebius,
    plus_sign,
    real_roots,
)
from .linalg import charpoly_exact, rref_exact
from .numerics import LogScaled
from .qexp import (FloatView, PrecisionError, SpaceBasis, _identity, _miller_shape, _Prefixes,
                   _walk_miller, combine_int_rows, cusp_plus_basis, dim_cusp_level1)

# ---------------------------------------------------------------------------
# Level-1 integral weight
# ---------------------------------------------------------------------------


def _miller_inputs(w: int, prec: int) -> list:
    """The inputs of _walk_miller to index prec: the core of eta^3, then E4
    if the weight uses it, then E6 if it does."""
    d, alpha, beta = _miller_shape(w)
    inputs = [intpoly.eta3_int(prec)]
    if alpha or d > 1:
        inputs.append(intpoly.eisenstein_int(4, prec))
    if beta:
        inputs.append(intpoly.eisenstein_int(6, prec))
    return inputs


def _miller_rows(w: int, prec: int) -> tuple[tuple[int, ...], ...]:
    """The Miller echelon rows of S_w to index prec: row i is q^(i+1) + ...
    and no other row touches its pivot.  The echelon step is found by
    rref_exact on the monomials to index d, where every pivot is 1 and every
    step integer, and applied as the map of one chain_products run."""
    d = dim_cusp_level1(w)
    keys = range(1, d + 1)
    walk = partial(_walk_miller, w)
    identity = _identity(d)
    low = intpoly.chain_products(walk, _miller_inputs(w, d), d, keys, identity, keys)
    # the map beside each row; the rows are echelon with unit pivots already
    _, reduced, _ = rref_exact([row + unit for row, unit in zip(low, identity)])
    assert [row[i + 1] for i, row in enumerate(reduced)] == [1] * d
    matrix = [row[d + 1 :] for row in reduced]
    out = intpoly.chain_products(walk, _miller_inputs(w, prec), prec, keys, matrix, keys)
    return tuple(tuple(row) for row in out)


# the Miller rows built so far, one per weight
_miller = _Prefixes(_miller_rows)


class _RowForm:
    """An eigenform sum_j vector[j] * (basis row j), held as one integer row
    per power-basis coordinate of its scalars over one denominator, combined
    from the basis rows as far as those are held, in its float view
    (qexp.FloatView); a scalar is made when it is first read.  A
    subclass (a dataclass with a field vector) gives _basis_rows(n), the
    (integer row, denominator) of each basis form to index n or beyond."""

    def __post_init__(self):
        self._coeff_cache: dict = {}  # n -> coefficient, made on first read
        self._cached_upto = -1  # the index the coordinate rows reach
        # the coordinate rows and their floats; floats past the rows (which
        # only IntegralForm.view leaves short) are those of coeff
        self._view = FloatView([()], 1, past=self.coeff)

    def coeff(self, n: int):
        """Coefficient n, exact scalar, read from the coordinate rows (built
        to n if they reach less)."""
        view = self.view(n)
        if n not in self._coeff_cache:
            self._coeff_cache[n] = _scalar(view.field, view.rows, view.den, n)
        return self._coeff_cache[n]

    def coefficients_upto(self, n_max: int) -> Coefficients:
        """Coefficients 0..n_max as a read-only sequence whose scalars are
        made as they are read.  The basis rows are built to n_max if they are
        held to less, then combined once per field coordinate
        (qexp.combine_int_rows)."""
        if n_max > self._cached_upto:
            rows = self._basis_rows(n_max)
            ints, n = [row for row, _ in rows], len(rows[0][0])
            vec = [c / den for c, (_, den) in zip(self.vector, rows)]
            number_field = next((v.field for v in vec if isinstance(v, FieldElement)), None)
            coords = [(v,) if number_field is None else number_field.coords(v) for v in vec]
            rows, den = combine_int_rows(ints, list(zip(*coords)), n)
            self._view.rows, self._view.den, self._view.field = rows, den, number_field
            self._cached_upto = n - 1
        return Coefficients(self, n_max + 1)

    def view(self, n: int) -> FloatView:
        """The coordinate rows and their floats (view(n).floats(n),
        view(n).terms(n)), the rows built to n if they reach less."""
        if n > self._cached_upto:
            self.coefficients_upto(n)
        return self._view


def _power_recursion(lam, pw, e: int):
    """x_e from x_0 = 1, x_1 = lam and x_(j+1) = lam x_j - pw x_(j-1): a
    Hecke eigenvalue at p^e on level 1 (lam = Fhat(p), pw = p^(w-1)), or at
    p^(2e) on the plus space (lam = lambda(p^2), pw = p^(2k-2))."""
    prev, cur = Fraction(1), lam
    for _ in range(e - 1):
        prev, cur = cur, lam * cur - pw * prev
    return cur


@dataclass
class IntegralForm(_RowForm):
    """Arithmetically normalised Hecke eigenform on SL(2,Z), Fhat(1) = 1,
    held as coordinate rows over the Miller basis of its weight (_RowForm)."""

    weight: int
    vector: list  # scalars over the Miller basis rows
    charpoly: list[Fraction]  # of T(3) on the ambient space

    def _basis_rows(self, n: int) -> list:
        # cut at n: a partner read to 64 combines no more, though the store
        # may hold the Miller rows to 10^5 for another caller
        return [(row[: n + 1], 1) for row in _miller.get(self.weight, n)]

    @property
    def precision(self) -> int:
        """The index the coordinate rows reach: the largest n_max asked of
        coefficients_upto."""
        return self._cached_upto

    def view(self, n: int) -> FloatView:
        """The coordinate rows and their floats, not built further: past the
        rows its floats are those of coeff, which extends multiplicatively."""
        return self._view

    def coeff(self, n: int):
        """Fhat(n); extends multiplicatively past the rows, which it does not
        build further."""
        if n <= self._cached_upto:
            return super().coeff(n)
        value = Fraction(1)
        for p, e in factorize(n):
            if p > self._cached_upto:
                raise PrecisionError(f"need Fhat({p}) beyond stored precision")
            value = value * _power_recursion(super().coeff(p), Fraction(p) ** (self.weight - 1), e)
        return value


def eigenforms_level1(w: int, prec: int) -> list[IntegralForm]:
    """Hecke eigenforms of S_w(SL(2,Z)), exact at every degree, by descending
    T(3) eigenvalue, their rows combined to prec at least; Fhat(3) = y when
    the Hecke field has degree 3 or more."""
    d = dim_cusp_level1(w)
    if d == 0:
        return []
    mat, _, cp = _t3.get(w, 0)
    out = []
    for _, vec in _eigenvectors(mat, cp, "T(3)"):
        # arithmetic normalization: coefficient at q^1 equals vec[0]
        if vec[0] == 0:
            raise RuntimeError("eigenvector has vanishing leading coefficient")
        inv = 1 / vec[0]
        F = IntegralForm(w, [v * inv for v in vec], cp)
        F.coefficients_upto(max(prec, 2 * d + 2))
        out.append(F)
    return out


def _eigenvectors(mat, cp, name: str, den: int = 1) -> list[tuple]:
    """(lambda, eigenvector) for each root lambda of the charpoly cp of
    M = mat / den, by descending lambda; cp must be squarefree (the operator
    separates the eigenforms) with only real roots.  The vector is a nonzero
    column of q(M), q = cp / (x - lambda), since (M - lambda) q(M) = cp(M) =
    0, by Horner on the integer matrix mat: den^(d-1) q(M)."""
    if not is_squarefree_poly(cp):
        raise RuntimeError(f"{name} does not separate; refinement not implemented "
                           "for the desk-scale weights this package targets")
    d = len(mat)
    out = []
    for lam in real_roots(cp):
        q = [Fraction(1)]  # q_(d-1), ..., q_0 by synthetic division
        for c in cp[-2:0:-1]:
            q.append(c + lam * q[-1])
        q = [c * den**s for s, c in enumerate(q)]
        for j in range(d):  # column j by Horner: vec <- mat vec + q_s den^s e_j
            vec = [Fraction(int(i == j)) for i in range(d)]
            for c in q[1:]:
                vec = [sum((a * v for a, v in zip(row, vec)), start=c if i == j else Fraction(0))
                       for i, row in enumerate(mat)]
            if any(v != 0 for v in vec):
                break
        out.append((lam, vec))
    return out


def _scalar(number_field, rows, den: int, t: int):
    """Coefficient t of coordinate rows over den (see _RowForm)."""
    if number_field is None:
        return Fraction(rows[0][t], den)
    return number_field([Fraction(row[t], den) for row in rows])


def hecke_matrix_level1(w: int, p: int) -> list[list[int]]:
    """Integer matrix of T(p) on the Miller echelon basis of S_w: column i
    holds a(pn) + p^(w-1) a(n/p) at n = 1..d for basis row i, its coordinates
    on the echelon basis, whose rows are integral with unit pivots."""
    d = dim_cusp_level1(w)
    if d == 0:
        return []
    pw = p ** (w - 1)
    rows = _miller.get(w, p * d)
    return [[row[p * n] + (pw * row[n // p] if n % p == 0 else 0) for row in rows]
            for n in range(1, d + 1)]


def _with_charpoly(mat: list[list[int]], den: int = 1) -> tuple:
    """(mat, den, charpoly of mat / den): c_i of mat's over den^(n - i)."""
    cp = charpoly_exact(mat)
    return mat, den, [c if den == 1 else Fraction(c, den ** (len(mat) - i))
                      for i, c in enumerate(cp)]


# (matrix, 1, charpoly) of T(3) on S_w, one per weight; the precision plays no part
_t3 = _Prefixes(lambda w, _prec: _with_charpoly(hecke_matrix_level1(w, 3)))


# ---------------------------------------------------------------------------
# Half-integral weight plus space
# ---------------------------------------------------------------------------


def _t_p2(k, p: int):
    """The integer kernel of the Kohnen plus-space T(p^2) at weight k >= 3/2:
    image(r, n) = r[p^2 n] + ((-1)^(k-1/2) n | p) p^(k-3/2) r[n]
    + p^(2k-2) r[n/p^2] for a row r of integer numerators, the image over the
    row's own denominator.  Raises ValueError unless p is an odd prime."""
    k = half_integer(k)
    if p < 3 or factorize(p) != ((p, 1),) or k < Fraction(3, 2):
        raise ValueError(f"plus-space T(p^2) needs an odd prime p and k >= 3/2,"
                         f" got p={p!r}, k={k}")
    sign = plus_sign(k)
    mid, top, pp = p ** int(k - Fraction(3, 2)), p ** int(2 * k - 2), p * p

    def image(row, n: int) -> int:
        v = row[pp * n]
        chi = kronecker_symbol(sign * n, p)
        if chi:
            v += chi * mid * row[n]
        if n % pp == 0:
            v += top * row[n // pp]
        return v

    return image


def hecke_matrix_plus(basis: SpaceBasis, p: int) -> tuple[list[list[int]], int]:
    """Exact matrix of T(p^2) on an echelonized plus-space basis as an integer
    matrix over one reduced denominator (([], 1) on the zero space): column
    i is the image of basis form i at the pivots, by _t_p2 on the basis rows
    read to p^2 (sturm + 1) (SpaceBasis.int_rows).
    At every other index up to the Sturm index the image must be the
    combination those coordinates give, checked on integers cross-multiplied
    by the rows' denominators; else RuntimeError."""
    image = _t_p2(basis.weight, p)
    if not basis.dimension:
        return [], 1
    st, pivots = basis.sturm, basis.pivots()
    rows = basis.int_rows("I", p * p * (st + 1))
    lcm = math.lcm(*(den for _, den in rows))
    scaled = [[c * (lcm // den) for c in row[: st + 1]] for row, den in rows]
    cols = []
    for row, den in rows:
        t = [image(row, n) for n in range(st + 1)]
        coords = [t[piv] for piv in pivots]
        for n in range(st + 1):
            if n not in pivots and t[n] * lcm != sum(c * s[n] for c, s in zip(coords, scaled)):
                raise RuntimeError(
                    f"T({p}^2) image leaves the plus space at index {n}: "
                    "basis or operator is wrong"
                )
        cols.append([c * (lcm // den) for c in coords])
    g = math.gcd(lcm, *(c for col in cols for c in col))
    return [[c // g for c in row] for row in zip(*cols)], lcm // g


@dataclass
class HalfIntegralForm(_RowForm):
    """Hecke eigenform in S_k^+(Gamma_0(4)), leading admissible coefficient 1,
    held as coordinate rows over the plus-space basis rows that the
    eigenforms of its weight share (SpaceBasis.int_rows, see _RowForm);
    coeff(n) builds the rows to n if they reach less."""

    k: Fraction
    basis: SpaceBasis
    vector: list  # scalars over the basis forms
    charpoly: list[Fraction]
    shimura_partner: IntegralForm | None = None
    eigen_table: dict = field(default_factory=dict)  # p -> lambda(p^2), scalars

    def _basis_rows(self, n: int) -> tuple:
        return self.basis.int_rows("I", n)

    def _lead_index(self) -> int:
        """n0, the least pivot of the basis where this form's vector is
        nonzero: its first nonzero coefficient, fhat(n0) = 1."""
        return min(piv for piv, c in zip(self.basis.pivots(), self.vector) if c != 0)

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
            if p not in self.eigen_table:
                self.eigen_table[p] = self._extract_eigenvalue(p)
            value = value * _power_recursion(self.eigen_table[p],
                                             Fraction(p) ** int(2 * self.k - 2), e)
        return value

    def _extract_eigenvalue(self, p: int):
        """lambda(p^2) read off from the coefficient action at n0: _t_p2 on
        each coordinate row, over fhat(n0)."""
        n0 = self._lead_index()
        image = _t_p2(self.k, p)
        view = self.view(p * p * n0)
        value = _scalar(view.field, [(image(row, n0),) for row in view.rows], view.den, 0)
        return value / self.coeff(n0)

    def normalized_eigenvalue(self, m: int) -> LogScaled:
        """A(m) = lambda(m) m^(-(k-1)/2) as a log-scaled real."""
        pw = LogScaled.exp_of(-float(self.k - 1) / 2.0 * math.log(m))
        return LogScaled.lift(self.eigenvalue(m)) * pw


class Coefficients(Sequence):
    """Coefficients 0..n - 1 of an eigenform on either side (_RowForm),
    read-only: supports len, index, slice and iteration, and makes each
    scalar when it is read (form.coeff)."""

    def __init__(self, form: _RowForm, n: int):
        self._form = form
        self._len = n

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._form.coeff(n) for n in range(*i.indices(self._len))]
        n = operator.index(i)
        if n < 0:
            n += self._len
        if not 0 <= n < self._len:
            raise IndexError("coefficient index out of range")
        return self._form.coeff(n)

    def __iter__(self):
        return map(self._form.coeff, range(self._len))


PAIRING_PRIMES = (3, 5, 7, 11, 13)


def eigenbasis_plus(k, prec: int | None = None) -> list[HalfIntegralForm]:
    """Simultaneous T(p^2) eigenbasis of S_k^+, paired with level-1 partners;
    the basis rows are built to prec if given.

    Eigen-systems are separated by T(9): its exact charpoly must be
    squarefree, else this aborts.  Forms come by descending lambda(9), with
    exact scalars at every degree (lambda(9) = y in Q[y]/(charpoly) from
    degree 3 on).  Pairing matches lambda(p^2) with Fhat(p) exactly for the
    first five odd primes; lambda(p^2) is read at p^2 n0 (see
    HalfIntegralForm._lead_index), so the rows are built once, to 13^2 times
    the largest n0, before any is read.
    """
    k = half_integer(k)
    w = int(2 * k - 1)
    target_dim = dim_cusp_level1(w)
    basis = cusp_plus_basis(k, prec, expected_dim=target_dim)
    if basis.dimension == 0:
        return []
    cp, systems = basis.cached("eigenforms", lambda: _eigensystems(basis))
    forms = []
    for lam, vec in systems:
        f = HalfIntegralForm(k=k, basis=basis, vector=vec, charpoly=cp)
        f.eigen_table[3] = lam
        forms.append(f)
    basis.int_rows("I", PAIRING_PRIMES[-1] ** 2 * max(f._lead_index() for f in forms))
    partners = eigenforms_level1(w, prec=64)
    for f in forms:
        f.shimura_partner = _match_partner(f, partners)
    return forms


def _t9(basis: SpaceBasis) -> tuple:
    """(integer matrix, denominator, charpoly) of T(9) on a plus-space basis,
    once per space (SpaceBasis.cached); the rows are read to 9 (sturm + 1)."""
    return basis.cached("T(9)", lambda: _with_charpoly(*hecke_matrix_plus(basis, 3)))


def _eigensystems(basis: SpaceBasis) -> tuple:
    """(charpoly of T(9), [(lambda(9), vector over the basis forms)] by
    descending lambda(9)) on a plus-space basis: see eigenbasis_plus."""
    mat, den, cp = _t9(basis)
    pivots = basis.pivots()
    systems = []
    for lam, vec in _eigenvectors(mat, cp, "T(9)", den):
        lead = min((i for i, c in enumerate(vec) if c != 0), key=lambda i: pivots[i])
        inv = 1 / vec[lead]
        systems.append((lam, [v * inv for v in vec]))
    return cp, systems


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
    if not is_fundamental_discriminant(D):
        raise ValueError(f"{D} is not a fundamental discriminant")
    if plus_sign(k) * D <= 0:
        raise ValueError("discriminant sign must satisfy (-1)^(k-1/2) D > 0")
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
    basis = cusp_plus_basis(k)
    if basis.dimension != d:
        return False
    if d == 0:
        return True
    return _t9(basis)[2] == _t3.get(w, 0)[2]
