import functools
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
    basis_frame_series,
    delta_by_eisenstein,
    domain_nodes_reference,
    eval_reduced_reference,
    float_series_reference,
    form_rows_reference,
    g_v_reference,
    g_w_reference,
    integer_row,
    monomial_int,
    monomial_int_reference,
    monomial_reference,
    plus_frames_reference,
    qexp_mul_reference,
    qexp_sum_reference,
    rational_vector,
    series_eval_reference,
    series_mul_reference,
)
from plusforms import intpoly, qexp
from plusforms.arith import plus_sign
from plusforms.hecke import _miller_shape, dim_cusp_level1
from plusforms.qexp import (
    PrecisionError,
    QExpansion,
    _g16_frame_v,
    _g16_frame_w,
    cusp_plus_basis,
    from_int_series,
    space_basis,
    sturm_index,
    weight_monomials,
)

HALF = Fraction(1, 2)


# -- theta and the weight-2 generator ----------------------------------------


def theta_series(prec: int) -> QExpansion:
    """Theta(z) = sum_{n in Z} e(n^2 z): weight 1/2, width 1, parameter 0."""
    return from_int_series(HALF, intpoly.theta_int(prec), prec)


def weight2_generator(prec: int) -> QExpansion:
    """G = sum_{n >= 1 odd} sigma_1(n) q^n, weight 2 on Gamma_0(4)."""
    return from_int_series(2, intpoly.sigma_odd_int(prec), prec)


def weight2_generator_frame_w(prec: int) -> QExpansion:
    """G under the Fricke frame: Theta^4/16 - G, from the integer series
    behind every W4 row."""
    return from_int_series(2, _g16_frame_w(prec), prec, den=16)


def weight2_generator_frame_v(prec: int) -> QExpansion:
    """G under the V frame, (E_2(z) - 3E_2(2z) + E_2(z + 1/2)/2) / 24, from
    the integer series behind every V4 row: -1/16 at q^0, -sigma(n)/2 for
    odd n, 3 sigma(n/2) - 3 sigma(n)/2 for even n."""
    return from_int_series(2, _g16_frame_v(prec), prec, den=16)


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
    reduced, scale = float_series_reference(q).eval_reduced(z)
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
    basis = space_basis(2, 30, "full M")
    assert basis.dimension == 2  # Theta^4 and G are independent
    from plusforms.linalg import rref_exact

    rows = [[f.coeff(n) for n in range(10)] for f in basis.forms]
    rank, _, _ = rref_exact([integer_row(row) for row in rows])
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
def test_eval_reduced_matches_mpmath_oracle(eigenform_13_2, evaluator_13_2, label):
    q = evaluator_13_2.frames[label]
    exact = plus_frames_reference(eigenform_13_2, 900)[label][0]
    zs = _eval_points(label, 24, 71).reshape(4, 6)
    reduced, scale = q.eval_reduced(zs)
    assert reduced.shape == scale.shape == zs.shape
    for z, r, s in zip(zs.flat, reduced.flat, scale.flat):
        ref = series_eval_reference(exact, complex(z))
        with mp.workdps(40):
            got = mp.mpc(complex(r)) * mp.exp(float(s))
            assert abs(got - ref) <= 1e-12 * abs(ref), (label, z)
    if label == "I":
        # e^scale bounds every term: at y ~ 130 all of them underflow
        assert np.all(scale.flat[-4:] < math.log(np.finfo(float).smallest_subnormal))


def test_eval_reduced_grid_equals_points(evaluator_13_2):
    for label in ("I", "W4", "V4"):
        q = evaluator_13_2.frames[label]
        zs = _eval_points(label, 300, 72).reshape(12, 25)  # two blocks of points
        reduced, scale = q.eval_reduced(zs)
        for idx in np.ndindex(zs.shape):
            r, s = q.eval_reduced(zs[idx])
            assert r.shape == s.shape == ()
            assert r == reduced[idx] and s == scale[idx]


def test_eval_reduced_empty_series():
    q = float_series_reference(QExpansion(Fraction(13, 2), 1, Fraction(0), 10))
    zs = np.array([[0.1 + 1j, 0.2 + 2j, 0.3 + 0.5j]])
    reduced, scale = q.eval_reduced(zs)
    assert reduced.shape == scale.shape == zs.shape
    assert np.all(reduced == 0) and np.all(scale == -math.inf)


def _same_bits(got, ref) -> bool:
    return all(g.shape == r.shape and g.dtype == r.dtype and g.tobytes() == r.tobytes()
               for g, r in zip(got, ref))


def _reference_point_sets() -> dict:
    """The point arrays the library evaluates in bulk: the default scan grid
    of k = 13/2, the order-18 and order-26 cap nodes under each of the six
    Gram piece maps and the four Fricke translates concatenated (as the
    Gram matrix evaluates them), the six maps of the whole-domain nodes of
    the quadrature oracle, and the cap nodes at orders 24 and 36."""
    from plusforms.lfunctions import _PIECES, _cap_nodes
    from plusforms.supnorm import SQRT3_OVER_8

    ys = np.exp(np.linspace(math.log(SQRT3_OVER_8), math.log(12.0 * 6.5 / math.pi), 48))
    xs = np.linspace(0.0, 1.0, 24, endpoint=False)
    sets = {"scan grid": xs + 1j * ys[:, None]}
    for order in (18, 26):
        cap, _ = _cap_nodes(order)
        domain, _ = domain_nodes_reference(order, 64.0)
        for label, scale, shifts in _PIECES:
            for shift in shifts:
                sets[f"Gram cap order {order} {label} + {shift}"] = scale * (cap + shift)
                sets[f"Gram domain order {order} {label} + {shift}"] = scale * (domain + shift)
            if len(shifts) > 1:
                sets[f"Gram cap order {order} {label} translates"] = np.concatenate(
                    [scale * (cap + shift) for shift in shifts])
    for order in (24, 36):
        sets[f"cap order {order}"] = _cap_nodes(order)[0]
    return sets


@pytest.mark.parametrize("label", ["I", "W4", "V4"])
def test_eval_reduced_bits_match_reference(evaluator_13_2, label):
    """One exp per distinct y and per distinct x gives the term-by-term sums
    bit for bit, on every bulk point set and on scattered and single points."""
    q = evaluator_13_2.frames[label]
    sets = _reference_point_sets()
    sets["50 scattered"] = _eval_points(label, 50, 73)
    sets["one scalar point"] = complex(0.3, 1.1)
    for name, zs in sets.items():
        assert _same_bits(q.eval_reduced(zs), eval_reduced_reference(q, zs)), (label, name)


@pytest.mark.parametrize("label", ["I", "W4", "V4"])
def test_eval_reduced_upto_matches_truncated_reference(eigenform_13_2, evaluator_13_2, label):
    """Summing the terms up to index n gives the term-by-term sums of the
    series truncated at n bit for bit: n below the first term, inside the
    series, at its precision and beyond, on every bulk point set."""
    q = evaluator_13_2.frames[label]
    exact, log_scale = plus_frames_reference(eigenform_13_2, 900)[label]
    first = min(exact.coeffs)
    for n in (first - 1, first, 110, q.prec // 2, q.prec, q.prec + 40):
        cut = float_series_reference(QExpansion(
            exact.weight, exact.width, exact.param, exact.prec,
            {m: c for m, c in exact.coeffs.items() if m <= n}), log_scale)
        for name, zs in _reference_point_sets().items():
            assert _same_bits(q.eval_reduced(zs, upto=n), eval_reduced_reference(cut, zs)), \
                (label, n, name)


def test_eval_reduced_empty_series_matches_reference():
    q = float_series_reference(QExpansion(Fraction(13, 2), 1, Fraction(0), 10))
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


def test_space_basis_rejects_unknown_kinds():
    """A kind other than the four raises a ValueError that names them, and
    no space is solved or stored under it."""
    qexp._spaces.cache_clear()
    for kind in ("plus s", "cusp", ""):
        with pytest.raises(ValueError, match="'full M', 'full S', 'plus M' or 'plus S'"):
            space_basis("13/2", 20, kind)
    assert not qexp._spaces._held


def test_plus_condition_recheck():
    """Every flagged coefficient of every basis element vanishes exactly."""
    for kstr in ("13/2", "15/2", "19/2", "25/2"):
        basis = cusp_plus_basis(kstr, 80)
        sign = plus_sign(kstr)
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
    """Each monomial Theta^a G^b read from the held full-space rows, made a
    QExpansion (in the V frame with the exponent offset (a mod 4)/4), equals
    the Fraction-dict product of the frame generators."""
    k = Fraction(num, 2)
    for prec in (sturm_index(k), 200, 7, 3):
        for a, b in weight_monomials(k):
            for frame in FRAMES:
                series, den = monomial_int(a, b, prec, frame)
                param = Fraction(a % 4, 4) if frame == "V4" else 0
                q = from_int_series(k, series, prec, den, param=param)
                _assert_same_expansion(q, _reference_monomial(a, b, prec, frame)[0])


def _check_ladder(k, precs):
    """Every monomial of weight k, read from the rows of the full space held
    in qexp._spaces (one ladder chain per frame), equals the one-at-a-time
    reference, in all three frames, requested cold (one middle monomial
    first, on an empty store) and then warm (b descending)."""
    monos = weight_monomials(k)
    qexp._spaces.cache_clear()
    for prec in precs:
        for frame in FRAMES:
            a, b = monos[len(monos) // 2]
            assert monomial_int(a, b, prec, frame) == monomial_int_reference(a, b, prec, frame)
            for a, b in reversed(monos):
                assert monomial_int(a, b, prec, frame) == monomial_int_reference(a, b, prec, frame)


@pytest.mark.parametrize("num", range(5, 62, 2))
def test_monomial_ladder_matches_reference(num):
    k = Fraction(num, 2)
    st = sturm_index(k)
    _check_ladder(k, (st, 9 * (st + 1)))


# at prec 1200 the ladder's transforms are 4096 long, so its primes run in
# chunks of two, and a product of the integer route is multimodular
@pytest.mark.parametrize("kstr", ["21/2", "29/2"])
def test_monomial_ladder_matches_reference_multimodular(kstr):
    _check_ladder(Fraction(kstr), (1200,))


def _identity(r):
    """The identity combinations of the weight-r/2 monomials, as (integer
    numerators, denominator)."""
    return [([int(i == j) for j in range(r // 4 + 1)], 1) for i in range(r // 4 + 1)]


def _ladder_bit_bounds(r, prec, frame):
    """chain_bits of the rows of the full space of weight r/2, the ladder
    with the identity combinations' map at its end: per b, the majorant's
    bound on the bits of the integer numerators of Theta^(r-4b) G^b."""
    matrix, shifts, _ = qexp._combination_map(r, _identity(r), frame)
    walk = functools.partial(qexp._walk_ladder, r)
    generators = qexp._frame_generators(prec, frame)
    return intpoly.chain_bits(walk, generators, prec, range(r // 4 + 1), matrix, shifts)


@pytest.mark.parametrize("num", range(5, 62, 2))
def test_ladder_majorant_bounds_every_monomial(num):
    """The float majorant bounds the bits of every monomial, so the primes it
    picks suffice; in frame I, where no coefficient cancels, it is tight to 2
    bits, so a loose bound cannot silently cost primes.  The monomials are
    checked against the one-at-a-time oracle by the ladder tests above."""
    k = Fraction(num, 2)
    st = sturm_index(k)
    for prec in (st, 9 * (st + 1)):
        for frame in FRAMES:
            bounds = _ladder_bit_bounds(num, prec, frame)
            for a, b in weight_monomials(k):
                series, _ = monomial_int(a, b, prec, frame)
                actual = max(c.bit_length() for c in series)
                bound = bounds[b]
                assert bound >= actual, (num, prec, frame, b)
                if frame == "I":
                    assert bound <= actual + 2, (num, prec, frame, b)


def test_product_free_weights_take_no_chain(monkeypatch):
    """At weights 0 and 1/2 the one monomial, 1 or Theta, is mapped without
    a chain: no chain_products call, and the rows of combinations of it
    equal the one-at-a-time oracle in every frame, at integer-route and
    residue-route precisions."""
    calls = []
    monkeypatch.setattr(intpoly, "chain_products", lambda *args: calls.append(args))
    for prec in (10, 127, 128, 5400):
        for frame in FRAMES:
            for r in (0, 1):
                series, den = monomial_int_reference(r, 0, prec, frame)
                series += (0,) * (prec + 1 - len(series))  # the reference's 1 is (1,)
                rows = qexp._combined_rows(r, [([1], 1), ([3], 2)], prec, frame)
                assert rows == ((series, den), (tuple(3 * c for c in series), 2 * den)), (r, prec)
    assert calls == []


def test_ladder_cache_serves_prefixes():
    """After prec P, a smaller precision p is served from the rows of the
    full space held at P: equal to a fresh build at p, with the V-frame phase
    sign of odd b undone, and one store entry, its rows held per frame."""
    qexp._spaces.cache_clear()
    r, big = 29, 400
    k = Fraction(r, 2)
    for frame in FRAMES:
        monomial_int(1, 7, big, frame)
    for small in (3, sturm_index(k), 121, big):
        for frame in FRAMES:
            fresh = qexp._combined_rows(r, _identity(r), small, frame)
            for a, b in weight_monomials(k):
                row, den = fresh[b]
                sign = -1 if frame == "V4" and b % 2 else 1
                assert monomial_int(a, b, small, frame) == (tuple(sign * c for c in row), den)
    assert list(qexp._spaces._held) == [(k, "full M")]
    held = qexp._spaces.get((k, "full M"), 0)._held
    assert {frame: prec for frame, (prec, _) in held.items()} == dict.fromkeys(FRAMES, big)
    monomial_int(1, 7, big + 1, "I")
    assert held["I"][0] == big + 1


def test_ladder_falls_back_to_integer_products(monkeypatch):
    """With every rounding check failing, the ladder comes from the integer
    route and still equals the one-at-a-time oracle; with the checks as
    shipped, frame I makes no integer product at all."""
    products = []
    mul = intpoly.poly_mul_trunc

    def spy(a, b, prec):
        products.append(prec)
        return mul(a, b, prec)

    monkeypatch.setattr(intpoly, "poly_mul_trunc", spy)
    r, prec = 21, 1200
    monos = weight_monomials(Fraction(r, 2))
    qexp._spaces.cache_clear()
    monomial_int(*monos[0], prec, "I")
    assert products == []
    monkeypatch.setattr(intpoly, "_ROUNDING_SLACK", 0.0)
    for frame in FRAMES:
        qexp._spaces.cache_clear()
        products.clear()
        ladder = [monomial_int(a, b, prec, frame) for a, b in monos]
        assert products
        for (a, b), got in zip(monos, ladder):
            assert got == monomial_int_reference(a, b, prec, frame)
    qexp._spaces.cache_clear()


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
                for (a, b), c in zip(basis.monomials, rational_vector(basis.vectors[i])):
                    if c != 0:
                        ref, ref_phase = _reference_monomial(a, b, prec, frame)
                        # V frame: the phase e^(i a pi/4) is +-e^(i r pi/4)
                        sign = -1 if frame == "V4" and (a - r) % 8 else 1
                        terms.append((sign * c, ref))
                q, phase = basis_frame_series(basis, i, frame, prec)
                expected = qexp_sum_reference(terms)
                _assert_same_expansion(q, expected)
                assert phase == pytest.approx(sign * ref_phase, abs=1e-15)
                if frame == "I" and prec == 200:
                    _assert_same_expansion(basis.forms[i], expected)


# -- plus-space and cusp bases held once per weight and kind -------------------

KINDS = ("plus S", "full S")


def _as_lists(rows):
    return [(list(row), den) for row, den in rows]


def _check_rows_against_route(k, precs):
    """The forms of every basis at weight k, built in every frame at every
    precision as one chain with the combination map at its end, equal the
    monomials summed as Python ints, rows and denominators alike; and the
    combined majorant bounds the bits of every row."""
    r = int(2 * k)
    for kind in KINDS:
        basis = space_basis(k, sturm_index(k), kind)
        for frame in FRAMES:
            for prec in precs:
                rows = qexp._combined_rows(r, basis.vectors, prec, frame)
                assert _as_lists(rows) == [
                    form_rows_reference(basis, i, frame, prec) for i in range(basis.dimension)
                ], (kind, frame, prec)
                matrix, shifts, _ = qexp._combination_map(r, basis.vectors, frame)
                bounds = intpoly.chain_bits(functools.partial(qexp._walk_ladder, r),
                                            qexp._frame_generators(prec, frame), prec,
                                            range(r // 4 + 1), matrix, shifts)
                for bound, (row, _) in zip(bounds, rows):
                    assert bound >= max(c.bit_length() for c in row), (kind, frame, prec)


@pytest.mark.parametrize("num", range(5, 62, 2))
def test_basis_rows_match_monomial_route(num):
    k = Fraction(num, 2)
    st = sturm_index(k)
    # the Sturm-index rows come from the echelon form of the reduction
    qexp._spaces.cache_clear()
    for kind in KINDS:
        basis = space_basis(k, st, kind)
        held = basis.int_rows("I", st)
        assert _as_lists(held) == [form_rows_reference(basis, i, "I", st)
                                   for i in range(basis.dimension)]
    _check_rows_against_route(k, (677, 9 * (st + 1), st))


@pytest.mark.parametrize("kstr", ["21/2", "29/2"])
def test_basis_rows_match_monomial_route_multimodular(kstr):
    _check_rows_against_route(Fraction(kstr), (5400,))
    qexp._spaces.cache_clear()


# the weights whose plus-space rows come from Kohnen's structure: every
# half-integral weight from 9/2 on but 11/2, a generator weight
KOHNEN_WEIGHTS = [9] + list(range(13, 62, 2))


def _check_kohnen_rows(num, precs):
    """The frame-I rows of both plus kinds at weight num/2, built at each
    precision from Kohnen's structure, equal the monomial ladder's
    (_combined_rows), numerators and denominators bit for bit."""
    k = Fraction(num, 2)
    qexp._spaces.cache_clear()
    for kind in ("plus M", "plus S"):
        basis = space_basis(k, sturm_index(k), kind)
        assert basis._rows.kohnen == bool(basis.dimension), kind
        for prec in precs:
            got = basis._rows._build_rows("I", prec)
            assert got == qexp._combined_rows(num, basis.vectors, prec, "I"), (kind, prec)


@pytest.mark.parametrize("num", KOHNEN_WEIGHTS)
def test_kohnen_rows_match_monomial_ladder(num):
    cutoff = intpoly._CHAIN_RESIDUE_PREC
    _check_kohnen_rows(num, (cutoff - 1, cutoff, 300))


@pytest.mark.parametrize("num", [21, 29])
def test_kohnen_rows_match_monomial_ladder_multimodular(num):
    _check_kohnen_rows(num, (5400,))
    qexp._spaces.cache_clear()


@pytest.mark.parametrize("vector", [[0, 0], [1, 0]])
def test_kohnen_keys_are_checked(monkeypatch, vector):
    """With the H_(5/2) row replaced by 0 (the keys lose rank) or by Theta^5
    (not a plus form, so the keys miss the basis), the coordinate solve
    raises its named RuntimeError, which gives the weight."""
    qexp._spaces.cache_clear()
    k = Fraction(29, 2)
    basis = space_basis(k, sturm_index(k), "plus S")
    monkeypatch.setitem(qexp._spaces._held, (Fraction(5, 2), "plus M"),
                        (0, qexp._FormRows(5, [(vector, 1)])))
    with pytest.raises(RuntimeError, match=r"Kohnen generators at k=29/2"):
        basis.int_rows("I", 300)
    qexp._spaces.cache_clear()


@lru_cache(maxsize=None)
def _miller_monomial_reference(w, i, prec):
    """Delta^i E4^(alpha + 3(d - i)) E6^beta to index prec (see
    qexp._miller_shape), a product at a time by the plain double loop, with
    Delta = (E4^3 - E6^2)/1728 from the Eisenstein-polynomial oracle."""
    d, alpha, beta = _miller_shape(w)
    delta = [int(c) for c in delta_by_eisenstein(prec)]
    factors = ([delta] * i + [intpoly.eisenstein_int(4, prec)] * (alpha + 3 * (d - i))
               + [intpoly.eisenstein_int(6, prec)] * beta)
    out = [1] + [0] * prec
    for f in factors:
        out = series_mul_reference(out, list(f), prec)
    return out


@pytest.mark.parametrize("num", [21, 29, 61])
def test_kohnen_level1_inputs_are_miller_monomials(monkeypatch, num):
    """The level-1 factors of the Kohnen keys (s, i), one chain to prec // 4
    on integers (prec 300) and on residues (prec 1200), are the Miller
    monomials i of M_w, w = (r - s)/2, times q^i: Delta^i
    E4^(alpha + 3(d - i)) E6^beta, built from plain double-loop products."""
    made = []
    chain = intpoly.chain_products

    def spy(walk, inputs, prec, keys, *rest):
        out = chain(walk, inputs, prec, keys, *rest)
        if walk is qexp._walk_level1:
            made.append((list(keys), out))
        return out

    monkeypatch.setattr(intpoly, "chain_products", spy)
    for prec in (300, 1200):
        qexp._spaces.cache_clear()
        made.clear()
        space_basis(Fraction(num, 2), prec, "plus S")
        ((keys, rows),) = made
        assert keys == [((num - s) // 2, i) for s, i in qexp._kohnen_keys(num)]
        for (w, i), row in zip(keys, rows):
            assert row == _miller_monomial_reference(w, i, prec // 4), (w, i, prec)
    qexp._spaces.cache_clear()


def test_plus_rows_make_one_product_per_key(monkeypatch):
    """The plus-space rows take one product per key and chunk of primes: 2,
    3 and 6 keys at 21/2, 29/2 and 61/2 (dim M_(2k-1)), and at 29/2 in frame
    I each residue chunk of the chain makes 3 products."""
    assert [len(qexp._kohnen_keys(r)) for r in (21, 29, 61)] == [2, 3, 6]
    for r in KOHNEN_WEIGHTS:
        assert len(qexp._kohnen_keys(r)) == dim_cusp_level1(r - 1) + 1
    products = []
    walk = qexp._walk_kohnen

    def spy(gens, inputs, mul, wanted):
        made = []

        def counted(x, y):
            made.append(1)
            return mul(x, y)

        yield from walk(gens, inputs, counted, wanted)
        if isinstance(inputs[0], intpoly._Term) and inputs[0].values.dtype == np.int32:
            products.append(len(made))

    monkeypatch.setattr(qexp, "_walk_kohnen", spy)
    qexp._spaces.cache_clear()
    k = Fraction(29, 2)
    space_basis(k, 1200, "plus S")
    assert len(products) > 1 and set(products) == {3}
    qexp._spaces.cache_clear()


def test_held_space_serves_every_precision(monkeypatch):
    """space_basis reduces once per weight and kind; it then serves P, a
    smaller p (a prefix) and a larger p (rebuilt and held), every frame equal
    to a fresh build."""
    reductions = []
    rref = qexp.rref_exact

    def counted(rows):
        reductions.append(len(rows))
        return rref(rows)

    monkeypatch.setattr(qexp, "rref_exact", counted)
    qexp._spaces.cache_clear()
    k = Fraction(29, 2)
    r = int(2 * k)
    for kind in KINDS:
        for prec in (400, 121, 700):
            basis = space_basis(k, prec, kind)
            fresh = qexp._combined_rows(r, basis.vectors, prec, "I")
            assert [f.coeffs for f in basis.forms] == [
                qexp.from_int_series(k, row, prec, den).coeffs for row, den in fresh]
            for frame in FRAMES:
                fresh = qexp._combined_rows(r, basis.vectors, prec, frame)
                for i, (row, den) in enumerate(fresh):
                    q, _ = basis_frame_series(basis, i, frame, prec)
                    assert q.coeffs == qexp.from_int_series(k, row, prec, den).coeffs
        # the kernel of the conditions, then the echelon form; for the plus
        # space also its one solve for the coordinates on Kohnen's keys, and
        # the kernel and echelon form of each of its two generator spaces
        # (Theta and H_(5/2), 'plus M'), on first use: nothing after
        assert len(reductions) == (2 + 1 + 2 * 2 if kind == "plus S" else 2)
        held = basis._rows._held
        assert {frame: prec for frame, (prec, _) in held.items()} == dict.fromkeys(FRAMES, 700)
        reductions.clear()


def test_combined_rows_fall_back_to_integer_products(monkeypatch):
    """With every rounding check failing, the combined rows come from the
    integer route and still equal the monomials summed as Python ints; with
    the checks as shipped, no frame makes an integer product at all."""
    products = []
    mul = intpoly.poly_mul_trunc

    def spy(a, b, prec):
        products.append(prec)
        return mul(a, b, prec)

    monkeypatch.setattr(intpoly, "poly_mul_trunc", spy)
    k, prec = Fraction(25, 2), 700
    basis = space_basis(k, sturm_index(k), "full S")
    for slack in (intpoly._ROUNDING_SLACK, 0.0):
        monkeypatch.setattr(intpoly, "_ROUNDING_SLACK", slack)
        for frame in FRAMES:
            products.clear()
            rows = qexp._combined_rows(25, basis.vectors, prec, frame)
            assert bool(products) == (slack == 0.0), (frame, slack)
            assert _as_lists(rows) == [form_rows_reference(basis, i, frame, prec)
                                       for i in range(basis.dimension)]


def test_short_chains_walk_on_integers(monkeypatch):
    """Below the precision _CHAIN_RESIDUE_PREC a ladder is walked on
    integers, from it on residues; both sides give the one-at-a-time
    monomials."""
    residue_runs = []
    run = intpoly._chain_residues

    def spy(*args):
        residue_runs.append(args[3])  # the transform length
        return run(*args)

    monkeypatch.setattr(intpoly, "_chain_residues", spy)
    cutoff = intpoly._CHAIN_RESIDUE_PREC
    r = 29
    for prec in (cutoff - 1, cutoff):
        size = intpoly._transform_size(prec)
        for frame in FRAMES:
            qexp._spaces.cache_clear()
            residue_runs.clear()
            monos = weight_monomials(Fraction(r, 2))
            ladder = [monomial_int(a, b, prec, frame) for a, b in monos]
            assert residue_runs == ([] if prec < cutoff else [size]), (prec, frame)
            for (a, b), got in zip(monos, ladder):
                assert got == monomial_int_reference(a, b, prec, frame)
    assert cutoff == 128


def test_space_basis_from_threads():
    """Four threads asking for bases at mixed precisions, on empty caches, get
    the forms of a sequential build."""
    import sys
    import threading

    jobs = [(kstr, prec, kind) for kstr in ("21/2", "25/2") for kind in KINDS
            for prec in (60, 300, 150, 700)]
    expected = {job: [f.coeffs for f in space_basis(*job).forms] for job in jobs}
    qexp._spaces.cache_clear()
    got, errors = {}, []

    def work(offset):
        try:
            for job in jobs[offset:] + jobs[:offset]:
                got[job, offset] = [f.coeffs for f in space_basis(*job).forms]
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(4 * t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    assert all(got[job, t] == expected[job] for job in jobs for t in range(0, 16, 4))
