import math
from fractions import Fraction

import pytest

from plusforms.arith import FieldElement, fundamental_discriminants, plus_sign, primes_up_to
from plusforms import intpoly
from plusforms.hecke import (
    IntegralForm,
    _eigenvectors,
    _miller,
    _miller_shape,
    _t_p2,
    dim_cusp_level1,
    eigenbasis_plus,
    eigenforms_level1,
    hecke_matrix_level1,
    hecke_matrix_plus,
    multiplicativity_check,
    shimura_charpolys_match,
    verify_sqrcoeff,
)
from plusforms.linalg import charpoly_exact
from plusforms.qexp import PrecisionError, cusp_plus_basis, from_int_series, sturm_index

from oracles import (
    delta_by_eisenstein,
    embedding_reference,
    hecke_integral_reference,
    hecke_matrix_plus_reference,
    series_mul_reference,
)


# -- Miller basis --------------------------------------------------------------


def _miller_basis(w: int, prec: int):
    """The Miller rows of S_w to index prec as QExpansions."""
    return [from_int_series(w, row, prec) for row in _miller.get(w, prec)]


def test_miller_w12_against_eisenstein_oracle():
    rows = _miller.get(12, 12)
    assert len(rows) == 1
    oracle = delta_by_eisenstein(12)
    for n in range(13):
        assert rows[0][n] == oracle[n]
    assert [rows[0][n] for n in (1, 2, 3, 4)] == [1, -24, 252, -1472]


def test_miller_w14_empty():
    assert dim_cusp_level1(14) == 0
    assert eigenforms_level1(14, 10) == [] and hecke_matrix_level1(14, 2) == []


def test_miller_w24_echelon():
    rows = _miller.get(24, 12)
    assert len(rows) == 2
    assert rows[0][1] == 1 and rows[0][2] == 0
    assert rows[1][1] == 0 and rows[1][2] == 1


def _miller_reference(w, prec, powers):
    """The Miller echelon rows of S_w to index prec: each monomial
    Delta^i E4^alpha E6^beta by single double-loop products of powers built
    the same way (memoized in powers), then echelonized."""

    def power(name, e):
        if (name, e) not in powers:
            if e == 1:
                base = {"E4": intpoly.eisenstein_int(4, prec),
                        "E6": intpoly.eisenstein_int(6, prec)}.get(name)
                if name == "Delta":
                    e3 = intpoly.eta3_int(prec)
                    e6 = series_mul_reference(e3, e3, prec)
                    e12 = series_mul_reference(e6, e6, prec)
                    base = [0] + series_mul_reference(e12, e12, prec)[:prec]
                powers[name, e] = list(base)
            else:
                powers[name, e] = series_mul_reference(power(name, e - 1), power(name, 1), prec)
        return powers[name, e]

    d, alpha, beta = _miller_shape(w)
    rows = []
    for i in range(1, d + 1):
        row = power("Delta", i)
        for name, e in (("E4", alpha + 3 * (d - i)), ("E6", beta)):
            if e:
                row = series_mul_reference(row, power(name, e), prec)
        rows.append(row)
    for i in range(d):
        for j in range(d):
            if j != i and rows[j][i + 1]:
                f = rows[j][i + 1]
                rows[j] = [a - f * b for a, b in zip(rows[j], rows[i])]
    return [tuple(row) for row in rows]


def test_miller_rows_match_one_at_a_time_products(monkeypatch):
    """At prec 700, a residue-route precision, every Miller basis w <= 60
    equals the one-at-a-time double-loop products echelonized; a smaller
    precision is then served as a prefix of the rows held at 700."""
    runs = []
    residues = intpoly._chain_residues

    def spy(*args):
        runs.append(args[3])  # the transform length
        return residues(*args)

    monkeypatch.setattr(intpoly, "_chain_residues", spy)
    prec, powers = 700, {}
    _miller.cache_clear()
    for w in range(12, 62, 2):
        rows = _miller.get(w, prec)
        assert [row[: prec + 1] for row in rows] == _miller_reference(w, prec, powers), w
        assert [row[:65] for row in _miller.get(w, 64)] == [row[:65] for row in rows]
        assert _miller._held[w][0] == prec
    assert runs and set(runs) == {intpoly._transform_size(prec)}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_hecke_matrix_level1_matches_qexpansion_route(p):
    """T(p) on the held integer rows equals hecke_integral_reference applied
    to the Miller basis as QExpansions, for every w <= 60."""
    for w in range(12, 62, 2):
        d = dim_cusp_level1(w)
        images = [hecke_integral_reference(f, w, p) for f in _miller_basis(w, p * d + 1)]
        assert hecke_matrix_level1(w, p) == [[t.coeff(n) for t in images] for n in range(1, d + 1)]


def test_dimension_formula():
    dims = {12: 1, 14: 0, 16: 1, 22: 1, 24: 2, 26: 1, 36: 3, 38: 2, 40: 3}
    for w, d in dims.items():
        assert dim_cusp_level1(w) == d


# -- integral Hecke ------------------------------------------------------------


def test_hecke_integral_eigenvalue_w12():
    """Delta is a T(2) eigenform with eigenvalue tau(2) = -24: on the held
    rows and through the Fraction reference alike."""
    assert hecke_matrix_level1(12, 2) == [[-24]]
    delta = _miller_basis(12, 24)[0]
    t2 = hecke_integral_reference(delta, 12, 2)
    assert t2.coeff(1) / delta.coeff(1) == -24
    for n in range(1, 12):
        assert t2.coeff(n) == -24 * delta.coeff(n)


def test_hecke_integral_zero_and_precision():
    """The Fraction reference maps the zero series to zero and refuses an
    input too short for one output coefficient."""
    from plusforms.qexp import QExpansion

    z = QExpansion(Fraction(12), 1, Fraction(0), 10)
    assert not any(hecke_integral_reference(z, 12, 5).coeffs.values())
    delta = _miller_basis(12, 4)[0]
    with pytest.raises(PrecisionError):
        hecke_integral_reference(delta, 12, 7)


def test_w24_charpoly_integer_irrational_eigenvalues():
    cp = charpoly_exact(hecke_matrix_level1(24, 2))
    assert cp == [Fraction(-20468736), Fraction(-1080), Fraction(1)]
    forms = eigenforms_level1(24, 30)
    vals = sorted(float(F.coeff(2)) for F in forms)
    disc = 1080 * 1080 + 4 * 20468736
    lo = (1080 - math.sqrt(disc)) / 2
    hi = (1080 + math.sqrt(disc)) / 2
    assert vals[0] == pytest.approx(lo) and vals[1] == pytest.approx(hi)
    for F in forms:
        assert isinstance(F.coeff(2), FieldElement)
        assert F.coeff(1) == 1


def test_hecke_multiplicativity_integral():
    F = eigenforms_level1(12, prec=200)[0]
    for p, n in ((2, 6), (3, 10), (5, 5)):
        assert F.coeff(p) * F.coeff(n) == F.coeff(p * n) + (
            Fraction(p) ** 11 * F.coeff(n // p) if n % p == 0 else 0
        )


def test_deligne_bound():
    """|Fhat(p)| <= 2 p^((w-1)/2) for every prime p < 100."""
    for w in (12, 16, 24):
        for F in eigenforms_level1(w, prec=120):
            for p in primes_up_to(100):
                assert abs(float(F.coeff(p))) <= 2.0 * p ** ((w - 1) / 2.0) * (1 + 1e-12)


@pytest.mark.parametrize("w, degree", [(12, 1), (24, 2), (36, 3)])
def test_level1_coefficients_match_eager_combination(w, degree):
    """Level-1 eigenform coefficients read from the coordinate rows equal
    sum_j vector[j] * (Miller row j) summed index by index in exact scalars,
    at Hecke field degrees 1, 2 and 3.  Past the rows a coefficient extends
    multiplicatively, and a prime beyond them raises PrecisionError."""
    from oracles import level1_coefficients_reference

    forms = eigenforms_level1(w, 300)
    assert len(forms) == degree
    for F in forms:
        assert F.precision == 300
        a2 = F.coeff(2)
        assert (degree == 1) == isinstance(a2, Fraction)
        assert degree == 1 or a2.field.degree == degree
        ref = level1_coefficients_reference(F, 300)
        assert list(F.coefficients_upto(300)) == ref
        p = next(q for q in primes_up_to(2 * F.precision + 2) if q > F.precision)
        two = 2 ** F.precision.bit_length()  # the least power of 2 past the rows
        assert F.coeff(3 * two) == F.coeff(3) * (
            F.coeff(2) * F.coeff(two // 2) - Fraction(2) ** (w - 1) * F.coeff(two // 4))
        with pytest.raises(PrecisionError):
            F.coeff(p)
        with pytest.raises(PrecisionError):
            F.coeff(2 * p)


def _float_bits(xs) -> list[str]:
    return [float(x).hex() for x in xs]


@pytest.mark.parametrize("w, degree", [(12, 1), (24, 2), (36, 3)])
def test_level1_float_coeffs_equal_float_of_each_coefficient(w, degree):
    """view(n).floats(n) is float(coeff(i)) for i = 0..n, bit for bit, at
    Hecke field degrees 1, 2 and 3, read to 700 and then extended to 2000;
    past the rows it extends multiplicatively as coeff does."""
    forms = eigenforms_level1(w, 2000)
    assert len(forms) == degree
    for F in forms:
        small = F.view(700).floats(700)
        assert _float_bits(small) == _float_bits(F.coeff(i) for i in range(701))
        full = F.view(2000).floats(2000)
        assert full[:701] == small and len(full) == 2001
        assert _float_bits(full) == _float_bits(F.coeff(i) for i in range(2001))
    G = eigenforms_level1(w, 300)[0]
    past = next(q for q in primes_up_to(400) if q > 300) - 1  # every prime <= past is in the rows
    assert _float_bits(G.view(past).floats(past)) == \
        _float_bits(G.coeff(i) for i in range(past + 1))
    with pytest.raises(PrecisionError):
        G.view(past + 1).floats(past + 1)


@pytest.mark.parametrize("kstr", ["13/2", "25/2"])
def test_plus_float_coeffs_equal_float_of_each_coefficient(kstr):
    """The same for the plus-space eigenforms, whose rows are built to n when
    view(n) asks past them."""
    for f in eigenbasis_plus(kstr):
        small = f.view(300).floats(300)
        assert _float_bits(small) == _float_bits(f.coeff(i) for i in range(301))
        full = f.view(2000).floats(2000)
        assert full[:301] == small and len(full) == 2001
        assert _float_bits(full) == _float_bits(f.coeff(i) for i in range(2001))


@pytest.mark.parametrize("kstr", ["13/2", "25/2"])
def test_grown_partner_equals_level1_form(kstr):
    """The partner that the pairing attaches, grown with coefficients_upto,
    equals at every index the level-1 eigenform with the same eigenvalues
    built to that precision."""
    w = int(2 * Fraction(kstr) - 1)
    level1 = eigenforms_level1(w, 2000)
    for f in eigenbasis_plus(kstr):
        F = f.shimura_partner
        grown = F.coefficients_upto(2000)
        assert F.precision == 2000
        G = next(G for G in level1 if all(G.coeff(p) == f.eigenvalue(p * p) for p in (3, 5, 7)))
        assert list(grown) == list(G.coefficients_upto(2000))


# -- plus-space Hecke ----------------------------------------------------------


def test_hecke_plus_eigenvalue_13_2(eigenform_13_2):
    basis = eigenform_13_2.basis
    mat = hecke_matrix_plus(basis, 3)
    assert mat == ([[252]], 1)
    assert eigenform_13_2.eigenvalue(9) == 252  # = tau(3)


def test_hecke_plus_zero_and_character_term():
    """The T(p^2) kernel maps a zero row to zero, and its middle character
    term vanishes when p | n but p^2 does not divide n."""
    image = _t_p2("13/2", 3)
    assert not any(image([0] * 181, n) for n in range(21))
    (row, _den), = cusp_plus_basis("13/2", 120).int_rows("I", 120)
    n = 12  # 3 | 12, 9 does not divide 12
    assert image(row, n) == row[9 * n]  # only the a(p^2 n) term survives


def _rational(matrix_den):
    """hecke_matrix_plus's integer matrix over its denominator, as Fractions;
    the denominator is the reduced one."""
    mat, den = matrix_den
    assert math.gcd(den, *(c for row in mat for c in row)) == 1
    return [[Fraction(c, den) for c in row] for row in mat]


@pytest.mark.parametrize("p", [3, 5])
def test_hecke_matrix_plus_matches_fraction_oracle(p):
    """The T(p^2) matrix on the integer rows equals the Fraction route (each
    form's q-expansion through hecke_plus_reference, coordinates and a
    residual check coefficient by coefficient) at every weight 5/2..61/2;
    on the zero space it is ([], 1)."""
    for num in range(5, 62, 2):
        k = Fraction(num, 2)
        basis = cusp_plus_basis(k, p * p * (sturm_index(k) + 1))
        if basis.dimension == 0:
            assert hecke_matrix_plus(basis, p) == ([], 1)
        else:
            assert _rational(hecke_matrix_plus(basis, p)) == hecke_matrix_plus_reference(
                basis, p), k


@pytest.mark.parametrize("p", [1, 2, 4, 9, 15, -3, 0])
def test_hecke_plus_rejects_p_that_is_not_an_odd_prime(p):
    basis = cusp_plus_basis("13/2")
    with pytest.raises(ValueError, match="odd prime"):
        hecke_matrix_plus(basis, p)
    with pytest.raises(ValueError, match="odd prime"):
        _t_p2("13/2", p)
    with pytest.raises(ValueError, match="odd prime"):
        hecke_matrix_plus(cusp_plus_basis("5/2"), p)


def test_hecke_matrix_plus_of_zero_space_is_empty():
    assert hecke_matrix_plus(cusp_plus_basis("5/2"), 3) == ([], 1)
    assert hecke_matrix_plus(cusp_plus_basis("7/2", 400), 5) == ([], 1)


@pytest.mark.parametrize("kstr, p", [("13/2", 3), ("13/2", 5), ("25/2", 3), ("25/2", 5)])
def test_hecke_matrix_plus_checks_to_the_sturm_index(kstr, p):
    """One integer changed in a held basis row at p^2 n, for n <= sturm not a
    pivot, moves the image at n off the plus space: RuntimeError, also from
    a basis asked for at a precision too short to hold p^2 n."""
    basis = cusp_plus_basis(kstr, 40)
    st, pivots = basis.sturm, basis.pivots()
    assert _rational(hecke_matrix_plus(basis, p)) == hecke_matrix_plus_reference(
        cusp_plus_basis(kstr, p * p * (st + 1)), p)
    n = max(m for m in range(1, st + 1) if m not in pivots)
    held = basis._rows._held
    entry = held["I"]
    prec, rows = entry
    assert prec >= p * p * (st + 1)
    row, den = rows[-1]
    bad = list(row)
    bad[p * p * n] += 1
    held["I"] = (prec, rows[:-1] + ((tuple(bad), den),))
    try:
        with pytest.raises(RuntimeError, match=f"index {n}:"):
            hecke_matrix_plus(basis, p)
    finally:
        held["I"] = entry
    assert _rational(hecke_matrix_plus(basis, p)) == hecke_matrix_plus_reference(
        cusp_plus_basis(kstr, p * p * (st + 1)), p)


# the weights up to 39/2 with a Hecke eigenbasis of dimension 1 or 2
PAIRING_WEIGHTS = [Fraction(num, 2) for num in range(5, 40, 2)
                   if dim_cusp_level1(num - 1) in (1, 2)]


def test_pairing_walks_at_most_two_rows_past_the_sturm_index(monkeypatch):
    """On empty caches, shimura_charpolys_match and then eigenbasis_plus walk
    the frame-I rows of a weight once to the Sturm index (the monomials),
    once to 9 (sturm + 1) for T(9), and once more, to 13^2 n0, only where
    that reaches further (n0 the form's least pivot with a nonzero
    coordinate).  The rows of the generator spaces that the plus-space rows
    read have weights of their own and are not counted."""
    from plusforms import qexp

    builds = []
    build = qexp._FormRows._build_rows

    def spy(rows, frame, prec):
        if frame == "I" and rows.r == int(2 * k):
            builds.append(prec)
        return build(rows, frame, prec)

    monkeypatch.setattr(qexp._FormRows, "_build_rows", spy)
    assert len(PAIRING_WEIGHTS) == 12
    for k in PAIRING_WEIGHTS:
        qexp._spaces.cache_clear()
        builds.clear()
        assert shimura_charpolys_match(k)
        forms = eigenbasis_plus(k)
        st = sturm_index(k)
        pair = 13 * 13 * max(f._lead_index() for f in forms)
        assert builds == [st, 9 * (st + 1)] + ([pair] if pair > 9 * (st + 1) else []), k


def test_eigenbasis_pairing_13_2(eigenform_13_2):
    F = eigenform_13_2.shimura_partner
    assert F.coeff(2) == -24 and F.coeff(3) == 252
    assert isinstance(eigenform_13_2.eigenvalue(9), Fraction)


def test_eigenbasis_empty_5_2():
    assert eigenbasis_plus("5/2") == []


def test_eigenbasis_25_2_conjugate_pair():
    forms = eigenbasis_plus("25/2")
    assert len(forms) == 2
    l1, l2 = (f.eigenvalue(9) for f in forms)
    cp = forms[0].charpoly
    assert isinstance(l1, FieldElement) and isinstance(l2, FieldElement)
    assert l1 + l2 == -cp[1] and l1 * l2 == cp[0]  # Vieta
    lam = forms[0].eigenvalue(9)
    # exact root of the exact characteristic polynomial
    assert lam * lam + cp[1] * lam + cp[0] == 0
    for f in forms:
        assert f.shimura_partner is not None
        assert f.eigenvalue(9) == f.shimura_partner.coeff(3)


def test_one_inverse_per_eigenform(monkeypatch):
    """Each eigenvector is normalised by one inverse of its leading
    coordinate, multiplied into every coordinate: eigenbasis_plus, on empty
    stores, inverts 2d field elements at the cubic and quintic Hecke fields
    of 41/2 and 61/2, one per eigenform on each side of the pairing."""
    from plusforms import hecke, qexp

    calls = []
    inverse = FieldElement.inverse

    def counted(x):
        calls.append(x)
        return inverse(x)

    monkeypatch.setattr(FieldElement, "inverse", counted)
    for kstr, d in (("41/2", 3), ("61/2", 5)):
        qexp._spaces.cache_clear()
        hecke._t3.cache_clear()
        calls.clear()
        assert len(eigenbasis_plus(kstr)) == d
        assert len(calls) == 2 * d, kstr


def test_shimura_charpoly_certificates_sweep():
    for num in range(5, 42, 2):
        assert shimura_charpolys_match(Fraction(num, 2))


def test_eigenvalue_match_up_to_50(eigenform_13_2):
    F = eigenform_13_2.shimura_partner
    eigenform_13_2.coefficients_upto(47 * 47 + 1)
    for p in primes_up_to(50):
        if p == 2:
            continue
        assert eigenform_13_2.eigenvalue(p * p) == F.coeff(p)


# -- the square-index coefficient relation --------------------------------------


def test_sqrcoeff_identity_n2_combination(eigenform_13_2):
    """fhat(4) = fhat(1) (Fhat(2) - 2^5): the worked d = 2 term."""
    f = eigenform_13_2
    F = f.shimura_partner
    assert f.coeff(4) == f.coeff(1) * (F.coeff(2) - 2**5)
    assert f.coeff(4) == -56


def test_sqrcoeff_trivial_and_range(eigenform_13_2):
    r = verify_sqrcoeff(eigenform_13_2, 1, 1)
    assert r["ok"]
    r = verify_sqrcoeff(eigenform_13_2, 1, 50)
    assert r["ok"] and r["first_failure"] is None


def test_sqrcoeff_rejects_bad_discriminant(eigenform_13_2):
    with pytest.raises(ValueError):
        verify_sqrcoeff(eigenform_13_2, 2, 5)
    with pytest.raises(ValueError):
        verify_sqrcoeff(eigenform_13_2, -3, 5)  # wrong sign for this weight


# -- eigenvalue multiplicativity -------------------------------------------------


def test_multiplicativity_examples(eigenform_13_2):
    f = eigenform_13_2
    assert multiplicativity_check(f, 1, 9)["ok"]  # m = 1 identity
    assert multiplicativity_check(f, 3, 5)["ok"]  # coprime
    r = multiplicativity_check(f, 3, 3)
    assert r["ok"]
    # the p-power case is the tau relation tau(3)^2 = tau(9) + 3^11
    assert f.eigenvalue(81) == 252 * 252 - 3**11


def test_multiplicativity_quadratic_field():
    forms = eigenbasis_plus("25/2")
    for f in forms:
        for m, n in ((3, 3), (3, 15), (5, 9), (15, 15)):
            assert multiplicativity_check(f, m, n)["ok"]


# -- exact scalars of every degree ----------------------------------------------


def test_miller_rows_are_integer_echelon():
    for w in range(12, 62, 2):
        rows = _miller.get(w, 200)
        assert len(rows) == dim_cusp_level1(w)
        for i, row in enumerate(rows):
            assert all(type(a) is int for a in row)
            assert [row[j + 1] for j in range(len(rows))] == [int(i == j) for j in range(len(rows))]


def test_separation_and_real_roots_are_checked():
    def mat_cp(rows):
        return rows, charpoly_exact(rows)

    repeated = mat_cp([[1, 0, 0], [0, 1, 0], [0, 0, -2]])  # (x - 1)^2 (x + 2)
    with pytest.raises(RuntimeError, match=r"T\(9\) does not separate"):
        _eigenvectors(*repeated, "T(9)")
    rotation = mat_cp([[0, -1], [1, 0]])  # x^2 + 1
    with pytest.raises(ValueError, match="complex eigenvalues"):
        _eigenvectors(*rotation, "T(9)")


@pytest.mark.parametrize("k", ["25/2", "29/2", "37/2", "61/2"])
def test_embedding_correctly_rounded(k):
    """float() of every fhat(1..1000) is the correctly rounded value of the
    exact coefficient at the field's root (oracle: mpmath polyroots)."""
    for f in eigenbasis_plus(k):
        for c in f.coefficients_upto(1000)[1:]:
            ref = embedding_reference(c)
            assert abs(float(c) - ref) <= 2.3e-16 * abs(ref)


def test_exact_identities_through_61_2():
    for num in range(37, 62, 2):
        k = Fraction(num, 2)
        forms = eigenbasis_plus(k)
        assert len(forms) == dim_cusp_level1(num - 1)
        sign = plus_sign(k)
        for f in forms:
            lam = f.eigenvalue(9)
            value = 0
            for c in reversed(f.charpoly):
                value = value * lam + c
            assert value == 0
            assert f.shimura_partner.coeff(3) == lam
            for D in fundamental_discriminants(13, sign):
                assert verify_sqrcoeff(f, D, 6)["ok"]
            for m, n in ((3, 3), (3, 5), (9, 3), (5, 5)):
                assert multiplicativity_check(f, m, n)["ok"]


@pytest.mark.parametrize("kstr, n_max", [("13/2", 2500), ("29/2", 2500), ("37/2", 800)])
def test_coefficients_from_shared_rows(kstr, n_max):
    """Eigenform coefficients combined from the basis rows the eigenforms of
    a weight share equal the monomials summed per field coordinate as Python
    ints; the sequence returned makes its scalars on read and behaves as a
    read-only list.  A second call of eigenbasis_plus reuses the eigenvectors and the
    basis rows held for the weight."""
    from oracles import eigenform_coefficients_reference

    forms = eigenbasis_plus(kstr)
    for f in forms:
        ref = eigenform_coefficients_reference(f, n_max)
        seq = f.coefficients_upto(n_max)
        assert len(f._coeff_cache) < 200  # nothing made in advance
        assert len(seq) == n_max + 1
        assert seq[7] == ref[7] and seq[-1] == ref[-1] and seq[n_max - 3] == ref[n_max - 3]
        assert seq[5:400:7] == ref[5:400:7] and seq[-5:] == ref[-5:]
        assert list(seq) == ref
        assert [f.coeff(n) for n in range(0, n_max + 1, 97)] == ref[::97]
        with pytest.raises(IndexError):
            seq[n_max + 1]
        with pytest.raises(TypeError):
            seq[3] = 0
    again = eigenbasis_plus(kstr)
    assert all(g.vector is f.vector for f, g in zip(forms, again))
    assert again[0].basis.int_rows("I", n_max) is forms[0].basis.int_rows("I", n_max)
