"""The exact series engine: Kronecker products, the one walk of the package's
chains, and chains of products on residues, against the plain double loop,
on each side of the residue cutoff."""

import itertools
import math
import random

import numpy as np
import pytest

from plusforms import hecke, intpoly, qexp
from plusforms.arith import divisors, primes_up_to

from oracles import ladder_walk_reference, miller_walk_reference, series_mul_reference

# operands this long make a one-product chain whose transforms run in chunks
# of two primes
LONG = 1000


@pytest.fixture
def paths(monkeypatch):
    """Names of the integer product paths taken, in call order."""
    taken = []
    inner = intpoly._mul_kronecker

    def spy(*args):
        taken.append("_mul_kronecker")
        return inner(*args)

    monkeypatch.setattr(intpoly, "_mul_kronecker", spy)
    return taken


@pytest.fixture
def residue_runs(monkeypatch):
    """Per residue pass of a chain, whether it returned rows."""
    runs = []
    inner = intpoly._chain_residues

    def spy(*args):
        out = inner(*args)
        runs.append(out is not None)
        return out

    monkeypatch.setattr(intpoly, "_chain_residues", spy)
    return runs


def _series(rng, length, bits, signed):
    lo = -(1 << bits) + 1 if signed else 0
    return [rng.randint(lo, (1 << bits) - 1) for _ in range(length)]


def _one_product(a, b, prec):
    """a * b to index prec as a chain of one product (a square when b is a)."""
    inputs = [a[: prec + 1]] if b is a else [a[: prec + 1], b[: prec + 1]]
    walk = lambda xs, mul, wanted: [(0, mul(xs[0], xs[-1]))]  # noqa: E731
    return intpoly.chain_products(walk, inputs, prec, [0], [[1]], [0])[0]


def _padded(series, prec):
    return series + [0] * (prec + 1 - len(series))


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize(
    "la, lb, path",
    [
        # Kronecker substitution serves short operands and long ones alike
        (24, 24, "_mul_kronecker"),
        (24, 25, "_mul_kronecker"),
        (160, 161, "_mul_kronecker"),
        (999, 1040, "_mul_kronecker"),
    ],
)
def test_product_on_each_side_of_crossovers(paths, la, lb, path, signed):
    """Every operand length takes one product on the one integer path."""
    rng = random.Random(la * 7 + lb + signed)
    a = _series(rng, la, 40, signed)
    b = _series(rng, lb, 25, signed)
    prec = la + lb
    assert intpoly.poly_mul_trunc(a, b, prec) == series_mul_reference(a, b, prec)
    assert paths == [path]


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("la, lb", [(31, 32), (32, 32), (63, 64), (64, 64), (LONG, LONG + 40)])
def test_one_product_chain_on_each_side_of_residue_cutoff(paths, residue_runs, la, lb, signed):
    """A chain of one product runs on integers below the precision
    _CHAIN_RESIDUE_PREC (128) and on residues from it, making no integer
    product there."""
    rng = random.Random(la * 7 + lb + signed)
    a = _series(rng, la, 40, signed)
    b = _series(rng, lb, 25, signed)
    prec = la + lb
    assert _one_product(a, b, prec) == _padded(series_mul_reference(a, b, prec), prec)
    on_residues = prec >= intpoly._CHAIN_RESIDUE_PREC
    assert on_residues == (prec >= 128)
    assert residue_runs == ([True] if on_residues else [])
    assert paths == ([] if on_residues else ["_mul_kronecker"])


# a one-product chain of length 24 runs on integers, and one of any of the
# last three lengths on residues
@pytest.mark.parametrize("length", [24, 160, 999, 1003])
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
    square = series_mul_reference(a, a, prec)
    assert intpoly.poly_mul_trunc(a, a, prec) == square
    assert squares == []
    assert _one_product(a, a, prec) == _padded(square, prec)
    # the majorant and each residue chunk transform the one operand once
    on_residues = prec >= intpoly._CHAIN_RESIDUE_PREC
    assert all(squares) and bool(squares) == on_residues == (length > 24)
    cube = intpoly.chain_products(
        lambda xs, mul, wanted: [(0, mul(mul(xs[0], xs[0]), xs[0]))], [a], prec, [0], [[1]], [0]
    )[0]
    assert cube == _padded(series_mul_reference(square, a, prec), prec)


def test_prec_shorter_than_both_operands(paths, residue_runs):
    rng = random.Random(11)
    a = _series(rng, LONG + 500, 30, signed=True)
    b = _series(rng, LONG + 300, 30, signed=False)
    prec = LONG + 100
    expected = series_mul_reference(a[: prec + 1], b[: prec + 1], prec)
    out = intpoly.poly_mul_trunc(a, b, prec)
    assert len(out) == prec + 1
    assert out == expected
    assert paths == ["_mul_kronecker"]
    assert _one_product(a, b, prec) == expected
    assert residue_runs == [True] and paths == ["_mul_kronecker"]


@pytest.mark.parametrize("length", [64, 200, LONG])
def test_zero_operand(length):
    rng = random.Random(3)
    a = _series(rng, length, 20, signed=True)
    zero = [0] * length
    assert intpoly.poly_mul_trunc(a, zero, 2 * length) == [0] * (2 * length - 1)
    assert intpoly.poly_mul_trunc(zero, zero, length) == [0] * (length + 1)
    assert _one_product(a, zero, 2 * length) == [0] * (2 * length + 1)
    assert _one_product(zero, zero, length) == [0] * (length + 1)


def test_huge_coefficients_need_many_primes(paths, residue_runs):
    """Inputs of 2000 bits and more, past float range, get a majorant all the
    same, and the one product runs on residues modulo primes whose product
    exceeds twice the bound."""
    rng = random.Random(2000)
    a = _series(rng, LONG, 2000, signed=True)
    b = _series(rng, LONG, 2100, signed=True)
    prec = LONG + 50
    walk = lambda xs, mul, wanted: [(0, mul(xs[0], xs[1]))]  # noqa: E731
    bits = intpoly.chain_bits(walk, [a, b], prec, [0], [[1]], [0])
    size = intpoly._transform_size(prec)
    primes = intpoly._crt_primes(size, prec + 1, prec + 1, bits[0] + 1)
    assert math.prod(primes) > 1 << (bits[0] + 1)
    assert _one_product(a, b, prec) == series_mul_reference(a, b, prec)
    assert residue_runs == [True] and paths == []


@pytest.mark.parametrize("exp", range(10, 25))
def test_chosen_primes_keep_fft_error_below_half(exp):
    """At the lengths 2^exp and 3 2^(exp - 1), the chosen primes keep
    Percival's bound below 1/2 and meet every exactness premise of the
    residue engine that depends on the primes alone; together they exceed
    2^400."""
    for size in (1 << exp, 3 << (exp - 1)):
        la = lb = size // 2
        primes = intpoly._crt_primes(size, la, lb, 400)
        assert primes is not None
        p, h = primes[0], primes[0] // 2
        assert intpoly._fft_error_bound(size, la, lb, p) < 0.5
        assert min(la, lb) * h * h < 1 << 52  # the convolution values
        assert len(primes) * p * h < 1 << 52  # the CRT's weights @ digits
        assert 2 * h * p < 1 << 52  # the CRT's (block - done) inv
        assert (1 << 33) * p < 1 << 63  # the int64 limbs of _from_mixed_radix times q
        assert math.prod(primes) > 1 << 400


@pytest.mark.parametrize("signs", ["equal", "random"])
@pytest.mark.parametrize("size", sorted(f << e for e in range(7, 16) for f in (1, 3)
                                         if 384 <= f << e <= 49152))
def test_worst_case_residues_round_to_exact_convolution(size, signs):
    """Operands of the most coefficients a length holds, every entry
    +-(p - 1)/2 with p the largest prime chosen there: the float convolution
    lies within _fft_error_bound of the exact one and rounds to it."""
    n = (size + 1) // 2
    assert intpoly._transform_size(n - 1) == size
    p = intpoly._crt_primes(size, n, n, 1)[0]
    h = (p - 1) // 2
    rng = random.Random(size)
    x, y = ([h if signs == "equal" or rng.random() < 0.5 else -h for _ in range(n)]
            for _ in range(2))
    exact = np.array(intpoly.poly_mul_trunc(x, y, n - 1))
    conv = intpoly._convolve(intpoly._Term(np.array(x)), intpoly._Term(np.array(y)), size, n)
    assert np.abs(conv - exact).max() < intpoly._fft_error_bound(size, n, n, p)
    assert np.array_equal(np.rint(conv), exact)


def _two_steps(xs, mul, wanted):
    ab = mul(xs[0], xs[1])
    yield "ab", ab
    yield "abc", mul(ab, xs[2])


# 2 prec + 1 = 3 2^m - 1, the longest product a length 3 2^m holds, and
# 3 2^m + 1, the shortest that takes the next length 2^(m + 2)
@pytest.mark.parametrize("prec, size", [(191, 384), (192, 512), (383, 768), (384, 1024),
                                        (1535, 3072), (1536, 4096)])
def test_chains_at_radix_three_boundaries_match_integer_route(residue_runs, prec, size):
    """One-product and two-step chains at each side of a length 3 2^m run on
    residues and equal the products on integers."""
    assert intpoly._transform_size(prec) == size
    rng = random.Random(prec)
    a, b, c = (_series(rng, prec + 1, bits, signed=True) for bits in (60, 45, 30))
    ab = intpoly.poly_mul_trunc(a, b, prec)
    abc = intpoly.poly_mul_trunc(ab, c, prec)
    assert _one_product(a, b, prec) == ab
    # rows ab and 3 ab - 2 q abc
    rows = intpoly.chain_products(_two_steps, [a, b, c], prec, ["ab", "abc"],
                                  [[1, 0], [3, -2]], [0, 1])
    assert rows == [ab, [3 * u - 2 * v for u, v in zip(ab, [0] + abc[:prec])]]
    assert residue_runs == [True, True]


def test_primes_of_each_row_are_a_prefix_of_one_list(monkeypatch):
    """Sieved from nothing, in windows extended on demand, the primes chosen
    for any bits are the least prefix of one list, the odd primes below the
    cap, largest first; _chain_residues gives each row such a prefix."""
    monkeypatch.setattr(intpoly, "_SIEVED", {})
    size = 12288
    n = (size + 1) // 2
    cap = intpoly._prime_cap(size, n, n)
    below = tuple(reversed(primes_up_to(cap - 1)[1:]))
    chosen = {bits: intpoly._crt_primes(size, n, n, bits)
              for bits in (1, 17, 18, 300, 20000, 5000, 2)}
    full = chosen[20000]
    assert intpoly._SIEVED[cap][0] < cap - (1 << 12)  # more than the first window
    for bits, primes in chosen.items():
        assert primes == below[: len(primes)] == full[: len(primes)]
        assert math.prod(primes) >= 1 << bits > math.prod(primes[:-1])


def test_too_many_keys_for_exact_sums_walk_on_integers(residue_runs):
    """A map with so many keys that the float sums of the map could leave
    2^52 sends the chain to integers, exactly."""
    prec = 200
    size = intpoly._transform_size(prec)
    h = intpoly._crt_primes(size, prec + 1, prec + 1, 1)[0] // 2
    keys = range((1 << 52) // (h * h) + 1)
    row = [5] + [0] * (len(keys) - 1)
    a = _series(random.Random(7), prec + 1, 30, signed=True)
    walk = lambda xs, mul, wanted: [(0, mul(xs[0], xs[0]))]  # noqa: E731
    (out,) = intpoly.chain_products(walk, [a], prec, keys, [row], [0] * len(keys))
    assert out == [5 * c for c in intpoly.poly_mul_trunc(a, a, prec)]
    assert residue_runs == [False]


def test_delta_above_crossover_matches_eta_powers(residue_runs):
    """The w = 12 Miller row, Delta = q (q^(-1/8) eta^3)^8, built on residues,
    equals the eta powers multiplied by the plain double loop."""
    prec = LONG + 100
    e3 = intpoly.eta3_int(prec)
    e6 = series_mul_reference(e3, e3, prec)
    e12 = series_mul_reference(e6, e6, prec)
    e24 = series_mul_reference(e12, e12, prec)
    (delta,) = hecke._miller_rows(12, prec)
    assert list(delta) == [0] + e24[:prec]
    assert delta[1:5] == (1, -24, 252, -1472)
    assert residue_runs == [True]


def test_failed_rounding_check_falls_back_to_exact_product(paths, monkeypatch):
    """The first residue convolution (the second transform pass, after the
    majorant's) fails the 1/4 check, so the chain runs again on integers."""
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
    a = _series(rng, LONG + 10, 50, signed=True)
    b = _series(rng, LONG + 20, 50, signed=True)
    prec = 2 * LONG
    assert _one_product(a, b, prec) == series_mul_reference(a, b, prec)
    assert paths == ["_mul_kronecker"]
    assert len(calls) == 2


def _counting(products: list, prec: int):
    """poly_mul_trunc to index prec, noting each call in products."""
    def mul(x, y):
        products.append(1)
        return intpoly.poly_mul_trunc(x, y, prec)
    return mul


def _subsets(items):
    """Every nonempty subset of items."""
    items = list(items)
    return [set(c) for n in range(1, len(items) + 1) for c in itertools.combinations(items, n)]


@pytest.mark.parametrize("top", range(5))
def test_descending_walk_against_powers(top):
    """For every nonempty wanted subset of 0..top, i = 0 included, with head
    and step each given or None (None standing for 1; a walk that takes a
    step needs one), the walk yields base^i head step^(top - i) for each i in
    wanted, i descending, as powers built by poly_mul_trunc give it.  It
    makes one product per power of base past the first, one per step (but
    for a first step from a None head, which takes step itself) and one per
    value of i > 0 with a head part."""
    prec = 40
    rng = random.Random(top)
    base, head, step = (_series(rng, 12, 6, signed=True) for _ in range(3))

    def times(*factors):
        out = [1]
        for x in factors:
            out = intpoly.poly_mul_trunc(out, x, prec)
        return out

    for h, s in itertools.product((head, None), (step, None)):
        for wanted in _subsets(range(top + 1)):
            lo, hi = min(wanted), max(wanted)
            if s is None and lo < top:
                continue
            products = []
            mul = _counting(products, prec)
            got = list(intpoly.descending_walk(base, h, s, top, wanted, mul))
            assert [i for i, _ in got] == sorted(wanted, reverse=True)
            for i, value in got:
                expected = times(*[base] * i, *[h] * (h is not None), *[s] * (top - i))
                assert _padded(list(value or [1]), prec) == _padded(expected, prec), (i, wanted)
            steps = top - lo - (h is None and top > lo)
            values = sum(i > 0 and not (h is None and i == top) for i in wanted)
            assert len(products) == max(hi - 1, 0) + steps + values, (h, s, wanted)


@pytest.mark.parametrize("top, wanted", [(3, {0, 1, 2, 3}), (4, {0, 2, 4}), (2, {2})])
def test_descending_walk_transforms_each_operand_once(monkeypatch, top, wanted):
    """Over one residue chunk of a descending_walk chain, np.fft.rfft runs
    once per distinct operand of its products: the powers of base, the
    head parts and step each keep their transform for every later
    product."""
    rng = random.Random(top)
    prec = 300
    size, n = intpoly._transform_size(prec), prec + 1
    primes = intpoly._crt_primes(size, n, n, 64)[:2]
    base, head, step = (
        intpoly._Term(intpoly._residues(*intpoly._limb_matrix(_series(rng, n, 20, True)),
                                        primes).astype(np.int32))
        for _ in range(3))
    transforms, operands = [], []  # the operands held, so that no id is reused
    rfft = np.fft.rfft

    def counted(*args, **kwargs):
        transforms.append(1)
        return rfft(*args, **kwargs)

    def mul(x, y):
        operands.extend((x, y))
        return intpoly._residue_mul(x, y, primes, size, n)

    monkeypatch.setattr(np.fft, "rfft", counted)
    values = list(intpoly.descending_walk(base, head, step, top, wanted, mul))
    assert [i for i, _ in values] == sorted(wanted, reverse=True)
    assert len(transforms) == len({id(x) for x in operands}) > 0


@pytest.mark.parametrize("prec", [40, 127, 128, 300])
def test_inputs_in_q_to_a_stride(residue_runs, prec):
    """An input in q^t (strides) gives the rows of the same input spread to
    q, on integers and on residues alike."""
    rng = random.Random(prec)
    a = _series(rng, prec + 1, 30, True)
    b = _series(rng, prec // 4 + 1, 30, True)
    c = _series(rng, prec // 3 + 1, 10, False)
    spread_b = [b[m // 4] if m % 4 == 0 else 0 for m in range(prec + 1)]
    spread_c = [c[m // 3] if m % 3 == 0 else 0 for m in range(prec + 1)]

    def walk(xs, mul, wanted):
        yield "ab", mul(xs[1], xs[0])
        yield "bc", mul(xs[1], xs[2])

    matrix, keys = [[1, 0], [3, -2], [0, 1]], ["ab", "bc"]
    got = intpoly.chain_products(walk, [a, b, c], prec, keys, matrix, [0, 0], [1, 4, 3])
    ab = series_mul_reference(spread_b, a, prec)
    bc = series_mul_reference(spread_b, spread_c, prec)
    assert got == [ab, [3 * x - 2 * y for x, y in zip(ab, bc)], _padded(bc, prec)]
    assert residue_runs == ([True] if prec >= intpoly._CHAIN_RESIDUE_PREC else [])


def _symbolic(products: list):
    """A product of labelled series that notes each (left, right) operand pair
    and returns the label of the product, operands in order."""
    def mul(x, y):
        products.append((x, y))
        return f"({x}*{y})"
    return mul


@pytest.mark.parametrize("r", range(1, 62))
def test_ladder_walk_makes_the_written_out_products(r):
    """The ladder (its Theta prelude, then the shared walk) makes the products
    of the walk written out in full, each with its operands on the same sides
    (so each transform is still taken once), and yields the same monomials,
    for every wanted set of up to 5 rungs and a few wider ones."""
    top = r // 4
    sets = _subsets(range(top + 1)) if top < 5 else [
        set(range(top + 1)), {top}, {0}, {0, top}, set(range(0, top + 1, 2))]
    for wanted in sets:
        mine, written = [], []
        got = list(qexp._walk_ladder(r, ("T", "G"), _symbolic(mine), wanted))
        ref = list(ladder_walk_reference(r, ("T", "G"), _symbolic(written), wanted))
        assert got == ref and sorted(mine) == sorted(written), wanted


@pytest.mark.parametrize(
    "w", [4, 6, 8, 10, 14] + [w for w in range(12, 61, 2) if qexp.dim_cusp_level1(w)])
def test_miller_walk_makes_the_written_out_products(w):
    """The Miller walk (squarings and Eisenstein head, then the shared walk)
    makes the products of the walk written out in full, operands on the same
    sides, and yields the same monomials: for every wanted set of 1..d that
    holds d, on hecke's inputs (_miller_inputs), and for every wanted set of
    0..d that holds 0, on the inputs (eta3, E4, E6) of the Kohnen level-1
    factors, at the weights with d = 0 too."""
    d = qexp.dim_cusp_level1(w)
    miller = [f"x{j}" for j in range(len(hecke._miller_inputs(w, 0)))]
    cases = [(miller, {d} | rest) for rest in [set()] + _subsets(range(1, d))] if d else []
    cases += [(["x0", "x1", "x2"], {0} | rest) for rest in [set()] + _subsets(range(1, d + 1))]
    for inputs, wanted in cases:
        mine, written = [], []
        got = list(qexp._walk_miller(w, inputs, _symbolic(mine), wanted))
        ref = list(miller_walk_reference(w, inputs, _symbolic(written), wanted))
        assert got == ref and sorted(mine) == sorted(written), wanted


def test_generators_from_divisor_sums():
    """The weight-2 generator is sigma1 on odd indices; E4 and E6 are
    1 + 240 sigma3 and 1 - 504 sigma5."""
    assert intpoly.sigma_odd_int(60) == tuple(
        sum(divisors(n)) if n % 2 else 0 for n in range(61))
    assert intpoly.eisenstein_int(4, 5) == (1, 240, 2160, 6720, 17520, 30240)
    assert intpoly.eisenstein_int(6, 5) == (1, -504, -16632, -122976, -532728, -1575504)
    for w, mult in ((4, 240), (6, -504)):
        assert intpoly.eisenstein_int(w, 60) == (1,) + tuple(
            mult * sum(d ** (w - 1) for d in divisors(n)) for n in range(1, 61))
    with pytest.raises(ValueError):
        intpoly.eisenstein_int(8, 5)
