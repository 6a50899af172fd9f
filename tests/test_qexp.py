import math
import random
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    eval_reduced_reference,
    g_v_reference,
    g_w_reference,
    monomial_reference,
    qexp_mul_reference,
    qexp_sum_reference,
    series_eval_reference,
)
from plusforms.hecke import dim_cusp_level1
from plusforms.qexp import (
    PrecisionError,
    QExpansion,
    cusp_plus_basis,
    monomial_expansion,
    monomial_span,
    space_basis,
    sturm_index,
    theta_series,
    weight2_generator,
    weight2_generator_frame_v,
    weight2_generator_frame_w,
    weight_monomials,
    zero_expansion,
)

HALF = Fraction(1, 2)


# -- theta and the weight-2 generator ----------------------------------------


def test_theta_series_examples():
    t = theta_series(9)
    assert t.coeff(0) == 1 and t.coeff(1) == 2 and t.coeff(4) == 2 and t.coeff(9) == 2
    assert t.coeff(2) == 0 and t.coeff(3) == 0
    assert theta_series(0).coeff(0) == 1
    assert t.weight == HALF and t.width == 1 and t.param == 0


# frozen fixture: sum of sigma_1 over odd n (checked by automorphy below)
G_FIXTURE = {1: 1, 3: 4, 5: 6, 7: 8, 9: 13, 11: 12, 13: 14, 15: 24, 17: 18, 19: 20}


def test_weight2_generator_fixture_table():
    g = weight2_generator(20)
    for n in range(0, 21):
        assert g.coeff(n) == G_FIXTURE.get(n, 0)


def _eval_series(q: QExpansion, z: complex) -> complex:
    reduced, scale = q.eval_reduced(z)
    return complex(reduced) * math.exp(float(scale))


def test_weight2_generator_automorphy_numerically():
    """G transforms with weight 2 under generators of Gamma_0(4)."""
    g = weight2_generator(400)
    rng = random.Random(41)
    gens = ((1, 1, 0, 1), (1, 0, 4, 1), (3, -1, 4, -1), (5, -1, 16, -3))
    for _ in range(10):
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.45, 1.2))
        vz = _eval_series(g, z)
        for a, b, c, d in gens:
            assert a * d - b * c == 1 and c % 4 == 0
            gz = (a * z + b) / (c * z + d)
            if gz.imag < 0.4:
                continue
            vgz = _eval_series(g, gz)
            assert vgz == pytest.approx((c * z + d) ** 2 * vz, rel=1e-8)


def test_weight2_generator_fricke_partner_automorphy():
    """(G|W)(z) = -(2z+0)... : the Fricke image equals Theta^4/16 - G and
    satisfies (G|W)(z) = (-1/(4 z^2)) G(-1/(4z)) numerically."""
    g = weight2_generator(400)
    gw = weight2_generator_frame_w(400)
    rng = random.Random(42)
    for _ in range(8):
        z = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.5, 1.0))
        lhs = _eval_series(gw, z)
        w = -1.0 / (4.0 * z)
        rhs = -1.0 / (4.0 * z * z) * _eval_series(g, w)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_weight2_generator_v_partner_automorphy():
    """(G|V)(z) = -(2z+1)^-2 G(z/(2z+1)) matches the derived exact series."""
    g = weight2_generator(400)
    gv = weight2_generator_frame_v(400)
    assert gv.coeff(0) == Fraction(-1, 16)
    assert gv.coeff(1) == Fraction(-1, 2)
    assert gv.coeff(2) == Fraction(-3, 2)
    rng = random.Random(43)
    for _ in range(8):
        z = complex(rng.uniform(-0.2, 0.2), rng.uniform(0.6, 1.1))
        lhs = _eval_series(gv, z)
        w = z / (2 * z + 1)
        if w.imag < 0.25:
            continue
        rhs = -((2 * z + 1) ** -2) * _eval_series(g, w)
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_rank_two_at_weight_two():
    basis = monomial_span(2, 30)
    assert basis.dimension == 2  # Theta^4 and G are independent
    from plusforms.linalg import rref_exact

    rows = [[f.coeff(n) for n in range(10)] for f in basis.forms]
    rank, _, _ = rref_exact(rows)
    assert rank == 2


# -- evaluation -------------------------------------------------------------------


def _eval_points(label: str, n: int, seed: int) -> np.ndarray:
    """n random points, y log-uniform over the scan range of k = 13/2; the I
    frame also gets points near y = 130, where every term underflows float64."""
    rng = random.Random(seed)
    pts = [complex(rng.uniform(0.0, 1.0), math.exp(rng.uniform(math.log(0.22), math.log(25.0))))
           for _ in range(n)]
    if label == "I":
        pts[-4:] = [complex(rng.uniform(0.0, 1.0), rng.uniform(128.0, 132.0)) for _ in range(4)]
    return np.array(pts)


@pytest.mark.parametrize("label", ["I", "W4", "V4"])
def test_eval_reduced_matches_mpmath_oracle(evaluator_13_2, label):
    q = evaluator_13_2.frames[label].series
    zs = _eval_points(label, 24, 71).reshape(4, 6)
    reduced, scale = q.eval_reduced(zs)
    assert reduced.shape == scale.shape == zs.shape
    for z, r, s in zip(zs.flat, reduced.flat, scale.flat):
        ref = series_eval_reference(q, complex(z))
        with mp.workdps(40):
            got = mp.mpc(complex(r)) * mp.exp(float(s))
            assert abs(got - ref) <= 1e-12 * abs(ref), (label, z)
    if label == "I":
        # e^scale bounds every term: at y ~ 130 all of them underflow
        assert np.all(scale.flat[-4:] < math.log(np.finfo(float).smallest_subnormal))


def test_eval_reduced_grid_equals_points(evaluator_13_2):
    for label in ("I", "W4", "V4"):
        q = evaluator_13_2.frames[label].series
        zs = _eval_points(label, 300, 72).reshape(12, 25)  # two blocks of points
        reduced, scale = q.eval_reduced(zs)
        for idx in np.ndindex(zs.shape):
            r, s = q.eval_reduced(zs[idx])
            assert r.shape == s.shape == ()
            assert r == reduced[idx] and s == scale[idx]


def test_eval_reduced_empty_series():
    q = zero_expansion(Fraction(13, 2), 10)
    zs = np.array([[0.1 + 1j, 0.2 + 2j, 0.3 + 0.5j]])
    reduced, scale = q.eval_reduced(zs)
    assert reduced.shape == scale.shape == zs.shape
    assert np.all(reduced == 0) and np.all(scale == -math.inf)


def _same_bits(got, ref) -> bool:
    return all(g.shape == r.shape and g.dtype == r.dtype and g.tobytes() == r.tobytes()
               for g, r in zip(got, ref))


def _reference_point_sets() -> dict:
    """The point arrays the library evaluates in bulk: the default scan grid
    of k = 13/2, the six Gram piece maps of the order-18 and order-26 domain
    nodes, and the cap nodes at orders 24 and 36."""
    from plusforms.lfunctions import _PIECES, _cap_nodes, _domain_nodes
    from plusforms.supnorm import SQRT3_OVER_8

    ys = np.exp(np.linspace(math.log(SQRT3_OVER_8), math.log(12.0 * 6.5 / math.pi), 48))
    xs = np.linspace(0.0, 1.0, 24, endpoint=False)
    sets = {"scan grid": xs + 1j * ys[:, None]}
    for order in (18, 26):
        zs, _ = _domain_nodes(order, 64.0)
        for j, (_label, scale, shift) in enumerate(_PIECES):
            sets[f"Gram order {order} piece {j}"] = scale * (zs + shift)
    for order in (24, 36):
        sets[f"cap order {order}"] = _cap_nodes(order)[0]
    return sets


@pytest.mark.parametrize("label", ["I", "W4", "V4"])
def test_eval_reduced_bits_match_reference(evaluator_13_2, label):
    """One exp per distinct y and per distinct x gives the term-by-term sums
    bit for bit, on every bulk point set and on scattered and single points."""
    q = evaluator_13_2.frames[label].series
    sets = _reference_point_sets()
    sets["50 scattered"] = _eval_points(label, 50, 73)
    sets["one scalar point"] = complex(0.3, 1.1)
    for name, zs in sets.items():
        assert _same_bits(q.eval_reduced(zs), eval_reduced_reference(q, zs)), (label, name)


def test_eval_reduced_empty_series_matches_reference():
    q = zero_expansion(Fraction(13, 2), 10)
    for zs in (_reference_point_sets()["scan grid"], complex(0.1, 1.0), np.zeros(0, complex)):
        assert _same_bits(q.eval_reduced(zs), eval_reduced_reference(q, zs))


# -- monomials and spaces ------------------------------------------------------


def test_monomial_enumeration():
    assert weight_monomials("5/2") == [(5, 0), (1, 1)]
    assert weight_monomials("1/2") == [(1, 0)]
    assert [a for a, _b in weight_monomials("13/2")] == [13, 9, 5, 1]
    assert weight_monomials(Fraction(-1, 2)) == []


def test_cusp_plus_basis_dimensions():
    assert cusp_plus_basis("13/2").dimension == 1
    assert cusp_plus_basis("5/2").dimension == 0
    assert cusp_plus_basis("25/2").dimension == 2


def test_cusp_plus_basis_precision_guard():
    with pytest.raises(PrecisionError):
        space_basis("13/2", 5, "plus S")
    with pytest.raises(ValueError):
        cusp_plus_basis("3/2")


def test_plus_condition_recheck():
    """Every flagged coefficient of every basis element vanishes exactly."""
    for kstr in ("13/2", "15/2", "19/2", "25/2"):
        basis = cusp_plus_basis(kstr, 80)
        sign = basis.sign_unit()
        for f in basis.forms:
            for n in range(0, f.prec + 1):
                if (sign * n) % 4 in (2, 3):
                    assert f.coeff(n) == 0


def test_dimension_identity_wide():
    for num in (5, 9, 15, 21, 29, 37):
        k = Fraction(num, 2)
        assert cusp_plus_basis(k).dimension == dim_cusp_level1(num - 1)


def test_export_json_format():
    import json

    basis = cusp_plus_basis("13/2", 40)
    payload = json.loads(basis.to_json())
    assert payload["weight_num"] == 13 and payload["weight_den"] == 2
    assert payload["kind"] == "plus S" and payload["sturm"] == basis.sturm
    assert payload["forms"][0][0] == [1, 1, 1]  # index 1, coefficient 1/1


# -- the reference QExpansion algebra of tests/oracles.py ----------------------


def _random_qexp(rng, weight, width, param, prec):
    coeffs = {}
    for m in range(prec + 1):
        if rng.random() < 0.5:
            v = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            if v:
                coeffs[m] = v
    return QExpansion(Fraction(weight), width, Fraction(param), prec, coeffs)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_multiplication_commutative_associative(seed):
    rng = random.Random(seed)
    a = _random_qexp(rng, HALF, 1, 0, rng.randint(3, 8))
    b = _random_qexp(rng, 2, 1, 0, rng.randint(3, 8))
    c = _random_qexp(rng, HALF, 1, Fraction(1, 4), rng.randint(3, 8))
    ab, ba = qexp_mul_reference(a, b), qexp_mul_reference(b, a)
    assert ab.coeffs == ba.coeffs and ab.prec == ba.prec
    lhs = qexp_mul_reference(qexp_mul_reference(a, b), c)
    rhs = qexp_mul_reference(a, qexp_mul_reference(b, c))
    common = min(lhs.prec, rhs.prec)
    for m in range(common + 1):
        assert lhs.coeff(m) == rhs.coeff(m)
    assert lhs.weight == rhs.weight == a.weight + b.weight + c.weight


def test_multiplication_never_reports_beyond_precision():
    a = QExpansion(HALF, 1, Fraction(0), 3, {0: Fraction(1), 3: Fraction(1)})
    b = QExpansion(HALF, 1, Fraction(0), 9, {0: Fraction(1), 9: Fraction(1)})
    prod = qexp_mul_reference(a, b)
    assert prod.prec == 3  # the first unknown index of a caps the result
    assert max(prod.coeffs) <= 3


def test_parameter_carry():
    # (1/4) + (3/4) exponents carry into the integer index
    a = QExpansion(HALF, 1, Fraction(1, 4), 4, {0: Fraction(1)})
    b = QExpansion(HALF, 1, Fraction(3, 4), 4, {0: Fraction(2)})
    prod = qexp_mul_reference(a, b)
    assert prod.param == 0
    assert prod.coeff(1) == 2  # e(z/4) * e(3z/4) = e(z)


# -- integer frame series against the Fraction-dict oracle ----------------------

FRAMES = ("I", "W4", "V4")


@lru_cache(maxsize=None)
def _reference_monomial(a, b, prec, frame):
    return monomial_reference(a, b, prec, frame)


def _assert_same_expansion(q, ref):
    assert q.coeffs == ref.coeffs
    assert (q.prec, q.param, q.weight, q.width) == (ref.prec, ref.param, ref.weight, ref.width)


def test_frame_generators_match_fraction_oracle():
    for prec in (1, 7, 200):
        _assert_same_expansion(weight2_generator_frame_w(prec), g_w_reference(prec))
        _assert_same_expansion(weight2_generator_frame_v(prec), g_v_reference(prec))


# At prec 7 and 3 the V-frame index offset floor(a/4) takes a large share of
# the stored range, and for a >= 16 all of it.
@pytest.mark.parametrize("num", range(5, 27, 2))
def test_monomial_expansion_matches_fraction_oracle(num):
    k = Fraction(num, 2)
    for prec in (sturm_index(k), 200, 7, 3):
        for a, b in weight_monomials(k):
            for frame in FRAMES:
                q, phase = monomial_expansion(a, b, prec, frame)
                ref, ref_phase = _reference_monomial(a, b, prec, frame)
                _assert_same_expansion(q, ref)
                assert phase == ref_phase


@pytest.mark.parametrize("kstr", ["13/2", "25/2"])
@pytest.mark.parametrize("kind", ["full S", "plus S"])
def test_frame_series_matches_fraction_oracle(kstr, kind):
    basis = space_basis(kstr, 200, kind)
    r = int(2 * basis.weight)
    assert basis.dimension > 0
    for i in range(basis.dimension):
        for prec in (basis.sturm, 200):
            for frame in FRAMES:
                terms = []
                for (a, b), c in zip(basis.monomials, basis.vectors[i]):
                    if c != 0:
                        ref, ref_phase = _reference_monomial(a, b, prec, frame)
                        # V frame: the phase e^(i a pi/4) is +-e^(i r pi/4)
                        sign = -1 if frame == "V4" and (a - r) % 8 else 1
                        terms.append((sign * c, ref))
                q, phase = basis.frame_series(i, frame, prec)
                expected = qexp_sum_reference(terms)
                _assert_same_expansion(q, expected)
                assert phase == pytest.approx(sign * ref_phase, abs=1e-15)
                if frame == "I" and prec == 200:
                    _assert_same_expansion(basis.forms[i], expected)
