"""The exact series engine: schoolbook, Kronecker and multimodular products
against the plain double loop, on each side of every length crossover."""

import random

import pytest

from plusforms import intpoly

from oracles import series_mul_reference

SCHOOL = intpoly._SCHOOLBOOK_CUTOFF
MULTI = intpoly._MULTIMODULAR_CUTOFF


@pytest.fixture
def paths(monkeypatch):
    """Names of the product paths taken, in call order."""
    taken = []
    for name in ("_mul_schoolbook", "_mul_kronecker", "_mul_multimodular"):
        inner = getattr(intpoly, name)

        def spy(*args, _inner=inner, _name=name):
            taken.append(_name)
            return _inner(*args)

        monkeypatch.setattr(intpoly, name, spy)
    return taken


def _series(rng, length, bits, signed):
    lo = -(1 << bits) + 1 if signed else 0
    return [rng.randint(lo, (1 << bits) - 1) for _ in range(length)]


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize(
    "la, lb, path",
    [
        (SCHOOL, SCHOOL, "_mul_schoolbook"),
        (SCHOOL, SCHOOL + 1, "_mul_kronecker"),
        # well inside the Kronecker range, between the two crossovers
        (160, 161, "_mul_kronecker"),
        (MULTI - 1, MULTI + 40, "_mul_kronecker"),
        (MULTI, MULTI + 40, "_mul_multimodular"),
    ],
)
def test_product_on_each_side_of_crossovers(paths, la, lb, path, signed):
    rng = random.Random(la * 7 + lb + signed)
    a = _series(rng, la, 40, signed)
    b = _series(rng, lb, 25, signed)
    prec = la + lb
    assert intpoly.poly_mul_trunc(a, b, prec) == series_mul_reference(a, b, prec)
    assert paths == [path]


# 160 lies well inside the Kronecker range
@pytest.mark.parametrize("length", [SCHOOL, 160, MULTI - 1, MULTI + 3])
def test_square_of_same_list(length, monkeypatch):
    convolve = intpoly._convolve
    squares = []

    def spy(xa, xb, size, n):
        squares.append(xb is xa)
        return convolve(xa, xb, size, n)

    monkeypatch.setattr(intpoly, "_convolve", spy)
    rng = random.Random(length)
    a = _series(rng, length, 60, signed=True)
    prec = 2 * length
    assert intpoly.poly_mul_trunc(a, a, prec) == series_mul_reference(a, a, prec)
    # the multimodular path transforms each residue vector once
    assert all(squares) and bool(squares) == (length >= MULTI)
    assert intpoly.poly_pow_trunc(a, 3, prec) == series_mul_reference(
        series_mul_reference(a, a, prec), a, prec
    )


def test_prec_shorter_than_both_operands(paths):
    rng = random.Random(11)
    a = _series(rng, MULTI + 500, 30, signed=True)
    b = _series(rng, MULTI + 300, 30, signed=False)
    prec = MULTI + 100
    out = intpoly.poly_mul_trunc(a, b, prec)
    assert len(out) == prec + 1
    assert out == series_mul_reference(a[: prec + 1], b[: prec + 1], prec)
    assert paths == ["_mul_multimodular"]


@pytest.mark.parametrize("length", [SCHOOL + 40, 200, MULTI])
def test_zero_operand(length):
    rng = random.Random(3)
    a = _series(rng, length, 20, signed=True)
    zero = [0] * length
    assert intpoly.poly_mul_trunc(a, zero, 2 * length) == [0] * (2 * length - 1)
    assert intpoly.poly_mul_trunc(zero, zero, length) == [0] * (length + 1)


def test_huge_coefficients_need_many_primes(paths):
    rng = random.Random(2000)
    a = _series(rng, MULTI, 2000, signed=True)
    b = _series(rng, MULTI, 2100, signed=True)
    prec = MULTI + 50
    size = 1 << (2 * MULTI - 2).bit_length()
    primes = intpoly._crt_primes(size, MULTI, MULTI, intpoly._product_bits(a, b))
    assert len(primes) > 250
    assert intpoly.poly_mul_trunc(a, b, prec) == series_mul_reference(a, b, prec)
    assert paths == ["_mul_multimodular"]


@pytest.mark.parametrize("exp", range(10, 25))
def test_chosen_primes_keep_fft_error_below_half(exp):
    size = 1 << exp
    la = lb = size // 2
    primes = intpoly._crt_primes(size, la, lb, 400)
    assert primes is not None and all(p < 1 << 14 for p in primes)
    assert intpoly._fft_error_bound(size, la, lb, primes[0]) < 0.5
    modulus = 1
    for p in primes:
        modulus *= p
    assert modulus > 1 << 400


def test_delta_above_crossover_matches_eta_powers():
    prec = MULTI + 100
    e3 = intpoly.eta3_int(prec)
    e6 = series_mul_reference(e3, e3, prec)
    e12 = series_mul_reference(e6, e6, prec)
    e24 = series_mul_reference(e12, e12, prec)
    assert list(intpoly.delta_int(prec)) == [0] + e24[:prec]
    assert intpoly.delta_int(prec)[1:5] == (1, -24, 252, -1472)


def test_failed_rounding_check_falls_back_to_exact_product(paths, monkeypatch):
    convolve = intpoly._convolve
    calls = []

    def perturbed(*args):
        out = convolve(*args)
        calls.append(1)
        if len(calls) == 2:
            out[len(out) // 2] += 0.3  # rounds correctly, but fails the 1/4 check
        return out

    monkeypatch.setattr(intpoly, "_convolve", perturbed)
    rng = random.Random(5)
    a = _series(rng, MULTI + 10, 50, signed=True)
    b = _series(rng, MULTI + 20, 50, signed=True)
    prec = 2 * MULTI
    assert intpoly.poly_mul_trunc(a, b, prec) == series_mul_reference(a, b, prec)
    assert paths == ["_mul_multimodular", "_mul_kronecker"]
    assert len(calls) == 2
