"""Dense integer power series with fast exact truncated multiplication.

Series are plain lists of Python ints, index = exponent of q.  Every product
of the package is a step of a chain (chain_products): a walk that builds
series from its inputs by products alone, ended by an integer matrix applied
to its results.  From precision _CHAIN_RESIDUE_PREC a chain stays in residue
space from its inputs to the rows of that map: a float majorant pass first
bounds the bits of every row, one prime list serves the whole chain, each
chunk of primes walks the chain on int32 residue rows with the transforms of
reused operands kept and applies the map to the residues, and each row is
rebuilt by one CRT (Garner's, vectorised over the coefficients) from the
primes its own bound needs.  Memory is bounded by _CHUNK_BYTES of transform
work per chunk.

Shorter chains, and a chain whose rounding check fails, are walked on
integers with poly_mul_trunc, which takes every product by Kronecker
substitution: each coefficient is stored with a bias of half a slot in a
fixed number of bytes, the two packed integers are multiplied once by CPython
(one squaring when both operands are the same list) and the slots are read
back with the bias removed, so signed series need no splitting into positive
and negative parts.

The Miller monomials (qexp._walk_miller, run by hecke and qexp) and the
theta ladder of qexp are one walk, descending_walk, after a few products.

Residue arithmetic is exact by construction.  The primes multiply to more
than twice the majorant's bound on every coefficient, so the balanced CRT
value is the coefficient itself.  Transforms have length 2^m or 3 2^m, the
shorter that holds the product.  The primes lie below the largest power of
two at which Percival's bound on the error of an FFT convolution (Math.
Comp. 72 (2003), Theorem 5.1), applied to the residue vectors, stays below
1/2; they are sieved on first use, in windows just below that cap.  Every
rounded convolution must moreover lie within 1/4 of an integer.  A chain
with a convolution that fails this check is walked again on integers, its
map applied to the integers.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache, partial

import numpy as np

from .arith import primes_up_to, sigma_table

# precision from which a chain of products runs on residues; shorter chains
# (to index 127, such as the Miller rows at 64) are faster on integers
_CHAIN_RESIDUE_PREC = 128

# per prime cap, (lo, primes): every odd prime in [lo, cap), largest first
_SIEVED: dict[int, tuple[int, tuple[int, ...]]] = {}
_EPS = 2.0**-53
# rounding error allowed on a convolution value before the product is redone
_ROUNDING_SLACK = 0.25
# bytes of transform work per chunk of primes.  One prime's product at
# transform length size takes two spectra, their product and the inverse
# transform, about 8 * size bytes each, so a chunk holds _CHUNK_BYTES //
# (32 * size) primes (at least one) and its work arrays stay near this size
# at every length
_CHUNK_BYTES = 1 << 18


def poly_mul_trunc(a: list[int], b: list[int], prec: int) -> list[int]:
    """Product of integer series truncated to indices <= prec, by Kronecker
    substitution (a squaring when b is a)."""
    if not a or not b or prec < 0:
        return []
    square = a is b
    a = a[: prec + 1]
    return _mul_kronecker(a, a if square else b[: prec + 1], prec)


def _coeff_bits(coeffs: list[int]) -> int:
    return max(map(int.bit_length, coeffs))


def _product_bits(a: list[int], b: list[int]) -> int:
    """Bits that hold every product coefficient with its sign:
    |c_n| <= min(la, lb) * max|a| * max|b| < 2^(bits - 1)."""
    return _coeff_bits(a) + _coeff_bits(b) + min(len(a), len(b)).bit_length() + 1


def _biased_bytes(coeffs: list[int], width: int) -> bytes:
    """Each coefficient plus 2^(8*width - 1), as `width` little-endian bytes."""
    half = 1 << (8 * width - 1)
    return b"".join([(c + half).to_bytes(width, "little") for c in coeffs])


def _bias(width: int, count: int) -> int:
    """The integer whose `count` slots of `width` bytes each hold half a slot."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _mul_kronecker(a: list[int], b: list[int], prec: int) -> list[int]:
    """Multiply signed series through one product of packed big integers."""
    width = (_product_bits(a, b) + 7) // 8  # bytes per packed coefficient
    pa = _pack(a, width)
    pb = pa if b is a else _pack(b, width)  # pa * pa takes CPython's squaring path
    return _unpack(pa * pb, width, min(prec, len(a) + len(b) - 2))


def _pack(coeffs: list[int], width: int) -> int:
    """sum_i c_i 2^(8 width i), from slots that hold c_i plus half a slot."""
    return int.from_bytes(_biased_bytes(coeffs, width), "little") - _bias(width, len(coeffs))


def _unpack(value: int, width: int, n: int) -> list[int]:
    """Coefficients 0..n of a packed value whose coefficients all lie within
    half a slot of zero."""
    # each slot of value + bias holds c_i plus half a slot, in [0, 2^(8 width)),
    # so the low n + 1 slots read back without carries
    low = (value + _bias(width, n + 1)) & ((1 << (8 * width * (n + 1))) - 1)
    raw = low.to_bytes(width * (n + 1), "little")
    half = 1 << (8 * width - 1)
    return [int.from_bytes(raw[i * width : (i + 1) * width], "little") - half for i in range(n + 1)]


# ---------------------------------------------------------------------------
# Residue arithmetic
# ---------------------------------------------------------------------------


def _fft_error_factor(size: int) -> float:
    """Percival's relative error factor for an FFT convolution of length size,
    2^m or 3 2^m.

    The convolution of x and y computed in float64 differs from the exact one
    by less than |x|_2 |y|_2 times this factor.  A length 2^m takes m radix-2
    levels.  A length 3 2^m takes m of them and one radix-3 stage, counted as
    two levels: each of its outputs x0 + w x1 + w^2 x2 takes two twiddle
    products and two additions, the rounding of two radix-2 levels, and it
    scales the norm by sqrt(3), less than the factor 2 of two levels.  One
    level is added for the pass that packs a real transform into a complex
    one, and the twiddle factors are taken accurate to one unit in the last
    place."""
    # m + 1 for 2^m, m + 3 for 3 2^m
    levels = size.bit_length() + (size & (size - 1) != 0)
    beta = _EPS
    return math.expm1(
        3 * levels * math.log1p(_EPS)
        + (3 * levels + 1) * math.log1p(_EPS * math.sqrt(5))
        + 3 * levels * math.log1p(beta)
    )


def _fft_error_bound(size: int, la: int, lb: int, p: int) -> float:
    """Bound on the float error of one convolution of balanced residues mod p."""
    h = (p - 1) // 2
    return math.sqrt(la * lb) * h * h * _fft_error_factor(size)


def _prime_cap(size: int, la: int, lb: int) -> int:
    """The largest power of two 2^c at which the FFT error bound at this
    length is below 1/2.  Every odd prime p < 2^c has (p - 1)/2 < 2^(c - 1),
    so its bound is below 1/2 too."""
    cap = 2
    while _fft_error_bound(size, la, lb, 2 * cap) < 0.5:
        cap *= 2
    return cap


def _crt_primes(size: int, la: int, lb: int, bits: int) -> tuple[int, ...] | None:
    """Largest odd primes below _prime_cap whose product exceeds 2^bits, as a
    prefix of one list per cap; None if there are not enough.

    With p < 2^c and h = (p - 1)/2, the error bound below 1/2 gives
    sqrt(la lb) h^2 < 2^49 (the factor exceeds 14 eps), so the convolution
    values, below min(la, lb) h^2, and the CRT's (block - done) inv, below
    p^2, stay below 2^52, and p stays below 2^26.  The count of primes is
    capped so that the CRT's weights @ digits, below count p h < count
    2^(2c - 1), stays below 2^52 too."""
    cap = _prime_cap(size, la, lb)
    most = (1 << 52) // (cap * cap // 2)
    chosen = []
    modulus = 1
    for p in _primes_below(cap):
        if len(chosen) == most:
            return None
        chosen.append(p)
        modulus *= p
        if modulus.bit_length() > bits:
            return tuple(chosen)
    return None


def _primes_below(cap: int):
    """The odd primes below cap, largest first: those held for cap, then
    windows sieved further down, the first 4096 numbers wide and each later
    one as wide as all before it, added to the held ones as they are found."""
    lo, held = _SIEVED.get(cap, (cap, ()))
    yield from held
    while lo > 3:
        start = max(3, lo - max(cap - lo, 1 << 12))
        window = _sieve_window(start, lo)
        lo, held = start, held + window
        _SIEVED[cap] = (lo, held)
        yield from window


def _sieve_window(lo: int, hi: int) -> tuple[int, ...]:
    """The primes in [lo, hi), largest first, for lo >= 3."""
    composite = np.zeros(hi - lo, dtype=bool)
    for q in primes_up_to(math.isqrt(hi - 1)):
        composite[max(q * q, -(-lo // q) * q) - lo :: q] = True
    return tuple(int(p) + lo for p in np.flatnonzero(~composite)[::-1])


def _limb_matrix(coeffs) -> tuple[np.ndarray, int]:
    """The biased coefficients as rows of 16-bit little-endian limbs, and the
    bias they carry."""
    width = 2 * ((_coeff_bits(coeffs) + 16) // 16)  # bytes, with room for the sign
    raw = np.frombuffer(_biased_bytes(coeffs, width), dtype="<u2")
    return raw.reshape(len(coeffs), width // 2), 1 << (8 * width - 1)


def _residues(limbs: np.ndarray, bias: int, primes: tuple[int, ...]) -> np.ndarray:
    """Balanced residues, in (-p/2, p/2), of the rows of a limb matrix: one
    float64 row per prime p of the chunk."""
    weights = np.array(
        [[pow(1 << 16, j, p) for p in primes] for j in range(limbs.shape[1])], dtype=np.float64
    )
    offsets = np.array([bias % p for p in primes], dtype=np.float64)
    # every partial sum is an integer below limbs 2^16 p, which _chain_residues
    # keeps below 2^52, so the float sums are exact
    return _balanced_mod((limbs @ weights - offsets).T, _column(primes))


def _column(primes: tuple[int, ...]) -> np.ndarray:
    return np.array(primes, dtype=np.float64)[:, None]


def _balanced_mod(x: np.ndarray, p) -> np.ndarray:
    """x mod p in [-(p - 1)/2, (p - 1)/2], exactly, for odd primes p (a scalar
    or a column, one per row) and integer-valued x below 2^52 in absolute
    value: x/p is then within 1/(2p) of its true value, which is never within
    1/(2p) of a half-integer."""
    return x - p * np.rint(x / p)


class _RoundingFailure(ArithmeticError):
    """A residue convolution lay _ROUNDING_SLACK or more from every integer."""


class _Term:
    """One series of a chain run: its values (a majorant vector, or balanced
    residues as one int32 row per prime of a chunk), the power of two that
    scales a majorant, and its transform once a product has taken it."""

    __slots__ = ("values", "exp", "spectrum")

    def __init__(self, values: np.ndarray, exp: int = 0):
        self.values = values
        self.exp = exp
        self.spectrum = None


def _convolve(x: _Term, y: _Term, size: int, n: int) -> np.ndarray:
    """Float convolution of the values of two terms (rows of them, for
    residues), entries 0..n - 1, by real FFTs of the given length.  The
    transform of each operand is kept on it for its next product (so a
    square takes one transform)."""
    for term in (y, x):
        if term.spectrum is None:
            term.spectrum = np.fft.rfft(term.values, size)
    return np.fft.irfft(x.spectrum * y.spectrum, size)[..., :n]


def _chain_residues(walk, inputs, n: int, size: int, keys, matrix, shifts, bits,
                    strides) -> list | None:
    """Rows of the map of chain_products to index n - 1 from balanced
    residues and CRT, by transforms of length size, for inputs in q^stride
    of at most n coefficients in q and rows whose coefficients have at most
    bits[i] bits; None when there are not enough primes, the float sums of
    the inputs' residues or of the map could leave 2^52, or a convolution
    fails the rounding check."""
    primes = _crt_primes(size, n, n, max(bits) + 1)
    if primes is None:
        return None
    limbs = [_limb_matrix(s) for s in inputs]
    # the map adds at most one term of at most h^2 per key to each sum, and
    # _residues one below 2^16 p per limb: both sums must stay below 2^52
    p, h = primes[0], primes[0] // 2
    if len(keys) * h * h >= 1 << 52 or max(m.shape[1] for m, _ in limbs) * p << 16 >= 1 << 52:
        return None
    # primes each row needs for its sign and bits (a prefix of primes); the
    # rows sit side by side in one residue matrix, fewest primes first, each
    # filling its rows
    counts = [len(_crt_primes(size, n, n, need + 1)) for need in bits]
    order = sorted(range(len(matrix)), key=counts.__getitem__)
    column = {i: pos * n for pos, i in enumerate(order)}
    rows = np.empty((len(primes), len(order) * n), dtype=np.int32)
    index = {key: j for j, key in enumerate(keys)}
    step = max(1, _CHUNK_BYTES // (32 * size))
    for lo in range(0, len(primes), step):
        chunk = primes[lo : lo + step]
        live = [i for i in order if counts[i] > lo]
        # the map modulo each prime of the chunk, balanced: (prime, row, key)
        coeffs = _balanced_mod(
            np.array([[[c % p for c in matrix[i]] for i in live] for p in chunk], dtype=np.float64),
            _column(chunk)[:, :, None],
        )
        # the live rows each key enters
        targets = {key: [pos for pos, i in enumerate(live) if matrix[i][j]]
                   for j, key in enumerate(keys)}
        wanted = [key for key in keys if targets[key]]
        acc = np.zeros((len(chunk), len(live), n))
        xs = [_Term(_spread(_residues(*m, chunk).astype(np.int32), t, n))
              for m, t in zip(limbs, strides)]
        mul = partial(_residue_mul, primes=chunk, size=size, n=n)
        try:
            for key, x in walk(xs, mul, wanted) if wanted else ():
                j = index[key]
                s = shifts[j]
                for pos in targets[key]:
                    # each term is at most h^2 and len(keys) h^2 < 2^52, so
                    # the float sums stay exact
                    acc[:, pos, s:] += coeffs[:, pos, j, None] * x.values[:, : max(n - s, 0)]
        except _RoundingFailure:
            return None
        acc = _balanced_mod(acc, _column(chunk)[:, :, None]).astype(np.int32)
        for pos, i in enumerate(live):
            k = min(len(chunk), counts[i] - lo)
            rows[lo : lo + k, column[i] : column[i] + n] = acc[:k, pos]
    del limbs, xs  # free the input limbs and kept transforms before the CRT
    out = {}
    for count, group in itertools.groupby(order, key=counts.__getitem__):
        # one reconstruction for all the rows that need the same primes
        group = list(group)
        start = column[group[0]]
        values = _crt(rows[:count, start : start + len(group) * n], primes[:count])
        out.update((i, values[pos * n : (pos + 1) * n]) for pos, i in enumerate(group))
    return [out[i] for i in range(len(matrix))]


def _residue_mul(x: _Term, y: _Term, primes, size: int, n: int) -> _Term:
    """x * y to index n - 1 modulo each prime of the chunk, as int32 balanced
    residues; raises _RoundingFailure when a convolution fails the rounding
    check."""
    conv = _convolve(x, y, size, n)
    rounded = np.rint(conv)
    if np.abs(conv - rounded).max() >= _ROUNDING_SLACK:
        raise _RoundingFailure
    return _Term(_balanced_mod(rounded, _column(primes)).astype(np.int32))


def _crt(rows: np.ndarray, primes: tuple[int, ...]) -> list[int]:
    """The integers of least absolute value with the given balanced residues,
    one row per prime: Garner's mixed-radix digits, vectorised over the
    columns, then _from_mixed_radix, in blocks of columns whose digits take
    about _CHUNK_BYTES."""
    steps = []
    for i, p in enumerate(primes):
        # radix weights p_0 ... p_(j-1) mod p of the digits found so far
        weights = []
        radix = 1
        for q in primes[:i]:
            weights.append(radix)
            radix = radix * q % p
        steps.append((p, np.array(weights, dtype=np.float64), pow(radix, -1, p)))
    width = max(1, _CHUNK_BYTES // (8 * len(primes)))
    out = []
    for lo in range(0, rows.shape[1], width):
        block = rows[:, lo : lo + width]
        digits = np.empty(block.shape)
        for i, (p, weights, inv) in enumerate(steps):
            # weights @ digits and (block - done) inv stay below 2^52, as
            # _crt_primes bounds the primes and their count
            done = _balanced_mod(weights @ digits[:i], p)
            digits[i] = _balanced_mod((block[i] - done) * inv, p)
        out += _from_mixed_radix(digits, primes)
    return out


def _from_mixed_radix(digits: np.ndarray, primes: tuple[int, ...]) -> list[int]:
    """Python ints d_0 + p_0 (d_1 + p_1 (d_2 + ...)) from balanced digit vectors.

    Horner's rule runs on 32-bit limbs modulo 2^(32 L), one row per limb; the
    balanced value is below 2^(32 L - 1) in absolute value, so the limbs are its
    two's complement.  Each limb, with the carry it takes, stays below 2^33 in
    absolute value, and each q below 2^26 (see _crt_primes), so the int64
    products stay below 2^59."""
    nlimbs = (math.prod(primes).bit_length() + 31) // 32
    acc = np.zeros((nlimbs, digits.shape[1]), dtype=np.int64)
    for q, v in zip(reversed(primes), digits[::-1]):
        acc *= q
        acc[0] += v.astype(np.int64)
        carry = acc >> 32
        acc &= 0xFFFFFFFF
        acc[1:] += carry[:-1]
    for i in range(nlimbs - 1):
        acc[i + 1] += acc[i] >> 32
    # with every carry moved up, the cast keeps each limb modulo 2^32
    raw = acc.astype("<u4").T.tobytes()
    width = 4 * nlimbs
    return [
        int.from_bytes(raw[i : i + width], "little", signed=True)
        for i in range(0, len(raw), width)
    ]


# ---------------------------------------------------------------------------
# Product chains
# ---------------------------------------------------------------------------
#
# A chain is a generator walk(inputs, mul, wanted) that builds series from its
# input series by products mul(x, y) alone and yields (key, series) for every
# key in wanted.  chain_products returns an integer matrix times its results.
# From precision _CHAIN_RESIDUE_PREC it runs the chain twice: on
# float majorants, which bound the bits of every row of the map, then on
# balanced residues modulo enough primes for those bits, each chunk of primes
# in one batched transform, with the map applied to each chunk's residues.
# Shorter chains, and a chain whose rounding check fails, run on integers
# through poly_mul_trunc, with the map applied to the integer results.


def descending_walk(base, head, step, top: int, wanted, mul):
    """Yield (i, base^i head step^(top - i)) for each i in wanted, a nonempty
    subset of 0..top, i descending, from products mul(x, y) of any kind of
    series.  A head or value None stands for 1; step may be None when
    min(wanted) = top.

    One product makes each power base^2 .. base^max(wanted), each step of the
    head part head step^(top - i) (a first step from a None head is step
    itself), and each value that is neither.  Each power is the left operand
    of the next power and of its value, and each head part the right operand
    of its value and the left of the next step; so a product that keeps the
    transforms of both operands transforms each distinct operand once.
    """
    pows = [None, base]
    for _ in range(2, max(wanted) + 1):
        pows.append(mul(pows[-1], base))
    for i in range(top, min(wanted) - 1, -1):
        if i < top:
            head = step if head is None else mul(head, step)
        if i in wanted:
            yield i, pows[i] if head is None else head if i == 0 else mul(pows[i], head)
            pows[i] = None


def chain_products(walk, inputs, prec: int, keys, matrix, shifts,
                   strides=None) -> list[list[int]]:
    """Rows of matrix times the series of a chain walk(inputs, mul, wanted),
    exact to index prec, as lists of prec + 1 ints; input i is an integer
    series in q^strides[i] (q if strides is None) of at most
    prec // strides[i] + 1 coefficients, each spread at its own length.

    Row i is sum_j matrix[i][j] q^shifts[j] S_j, where S_j is the series of
    keys[j] and matrix holds integers.  On residues, the primes multiply to
    more than twice chain_bits' bound on every row, so each row is the
    balanced CRT value of its residues (Percival's bound keeps each
    convolution within 1/2 of the exact one, and every one is checked to lie
    within 1/4 of an integer); each row is rebuilt once, from only the primes
    its own bound needs.  If a check fails, the chain runs again on
    integers."""
    keys = list(keys)
    used = [key for j, key in enumerate(keys) if any(row[j] for row in matrix)]
    if not used:
        return [[0] * (prec + 1) for _ in matrix]
    strides = strides or [1] * len(inputs)
    out = None
    if prec >= _CHAIN_RESIDUE_PREC:
        bits = chain_bits(walk, inputs, prec, keys, matrix, shifts, strides)
        out = _chain_residues(walk, inputs, prec + 1, _transform_size(prec), keys, matrix,
                              shifts, bits, strides)
    if out is None:
        inputs = [s if t == 1 else list(_spread(np.array(s, dtype=object), t, prec + 1))
                  for s, t in zip(inputs, strides)]
        series = dict(walk(inputs, lambda x, y: poly_mul_trunc(x, y, prec), used))
        out = [_map_row([series.get(key) for key in keys], row, shifts, prec + 1) for row in matrix]
    return out


def chain_bits(walk, inputs, prec: int, keys, matrix, shifts, strides=None) -> list[int]:
    """For every row of the map of chain_products, a bound on the bit length
    of each coefficient of its series: the chain walked on float majorants of
    |input| (spread to its stride), each product a float convolution plus
    Percival's bound on its error, then the map applied to the majorants as
    sum_j |matrix[i][j]| m_j."""
    keys = list(keys)
    used = [key for j, key in enumerate(keys) if any(row[j] for row in matrix)]
    mul = partial(_majorant_mul, size=_transform_size(prec), n=prec + 1)
    terms = [_Term(_spread(m.values, t, prec + 1), m.exp)
             for m, t in zip(map(_majorant, inputs), strides or [1] * len(inputs))]
    majorants = dict(walk(terms, mul, used)) if used else {}
    return _map_bits([majorants.get(key) for key in keys], matrix, shifts)


def _spread(values: np.ndarray, stride: int, n: int) -> np.ndarray:
    """Rows in q^stride along the last axis as rows in q to index n - 1."""
    if stride == 1:
        return values
    out = np.zeros(values.shape[:-1] + (n,), dtype=values.dtype)
    out[..., ::stride][..., : values.shape[-1]] = values
    return out


def _map_row(series: list, row: list[int], shifts: list[int], n: int) -> list[int]:
    """sum_j row[j] q^shifts[j] series[j] to index n - 1, on integers."""
    out = [0] * n
    for s, c, x in zip(shifts, row, series):
        if c:
            for m, y in enumerate(x[: max(n - s, 0)], s):
                if y:
                    out[m] += c * y
    return out


def _map_bits(majorants: list, matrix, shifts) -> list[int]:
    """Per row of matrix, a bound on the bits of every coefficient of
    sum_j matrix[i][j] q^shifts[j] S_j from majorants 2^e_j v_j of |S_j|.

    A row with one term takes e_j + ceil(log2 |c|).  Otherwise each |c| 2^e_j
    is rounded up to a float times 2^-E, E the largest of its bit lengths,
    and the rows' majorants are summed coefficientwise in float64, padded for
    the rounding of each product and sum and for underflow."""
    out = []
    for row in matrix:
        terms = [(abs(c), majorants[j], s) for j, (c, s) in enumerate(zip(row, shifts)) if c]
        if not terms:
            out.append(0)
            continue
        if len(terms) == 1:
            c, m, _ = terms[0]
            out.append(max(m.exp + (c - 1).bit_length(), 0))
            continue
        top = max(c.bit_length() + m.exp for c, m, _ in terms)
        total = np.zeros(len(terms[0][1].values))
        for c, m, s in terms:
            cut = max(c.bit_length() - 53, 0)
            head = (c >> cut) + (1 if cut else 0)  # c <= head 2^cut
            factor = max(math.ldexp(head, cut + m.exp - top), 2.0**-1000)
            total[s:] += factor * m.values[: max(total.size - s, 0)]
        total = (total + len(terms) * 2.0**-1000) * (1 + len(terms) * 2.0**-50)
        out.append(max(_normalised(total, top).exp, 0))
    return out


def _transform_size(prec: int) -> int:
    """The least 2^m or 3 2^m >= 2 prec + 1: the cyclic length at which a
    product of two series of prec + 1 terms has no wraparound below index
    prec + 1."""
    power = 1 << (2 * prec).bit_length()  # the least 2^m > 2 prec
    return 3 * power // 4 if 3 * power // 4 > 2 * prec else power


def _majorant(series) -> _Term:
    """A term (v, e) with |series| <= 2^e v entrywise; see _normalised.
    Coefficients of more than 1000 bits are first cut to |c| / 2^cut + 1,
    cut leaving 1000 bits, so that they convert to floats."""
    cut = max(_coeff_bits(series) - 1000, 0)
    if cut:
        series = [(abs(c) >> cut) + 1 for c in series]
    vec = np.abs(np.array(series, dtype=np.float64))
    # the conversion rounds to nearest, exactly below 2^53: step up the rest
    return _normalised(np.where(vec < 2.0**53, vec, np.nextafter(vec, np.inf)), cut)


def _normalised(vec: np.ndarray, exp: int) -> _Term:
    """A term (v, e) with 2^e v >= 2^exp vec entrywise and max v in [1/2, 1),
    or (vec, 0) for a zero vector.  Entries below 2^-900 of the largest are
    raised to it first, so the power-of-two scaling rounds none of them down."""
    top = float(vec.max())
    if top == 0:
        return _Term(vec)
    shift = math.frexp(top)[1]
    return _Term(np.ldexp(np.maximum(vec, top * 2.0**-900), -shift), exp + shift)


def _majorant_mul(x: _Term, y: _Term, size: int, n: int) -> _Term:
    """A majorant of the truncated product of two series from majorants of
    the factors: the float convolution of the vectors, plus Percival's bound
    |x|_2 |y|_2 times _fft_error_factor on its error, padded for the rounding
    of the norms and of the sum itself."""
    conv = _convolve(x, y, size, n)
    err = math.sqrt((x.values @ x.values) * (y.values @ y.values)) * _fft_error_factor(size)
    err = (err + float(conv.max()) * 2.0**-50) * (1 + size * 2.0**-50)
    return _normalised(conv + err, x.exp + y.exp)


# ---------------------------------------------------------------------------
# Specific series
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def theta_int(prec: int) -> tuple[int, ...]:
    """Theta(z) = 1 + 2 sum_{n>=1} q^(n^2), coefficients up to prec."""
    out = [0] * (prec + 1)
    out[0] = 1
    n = 1
    while n * n <= prec:
        out[n * n] = 2
        n += 1
    return tuple(out)


@lru_cache(maxsize=64)
def sigma_odd_int(prec: int) -> tuple[int, ...]:
    """G = sum over odd n >= 1 of sigma1(n) q^n, the weight-2 generator of
    M_*(Gamma_0(4)) beside Theta.  It equals (-E_2(z) + 3 E_2(2z) - 2 E_2(4z))/24;
    its holomorphy at the cusps is explicit from its Fricke and V-frame
    series (qexp._g16_frame_w, qexp._g16_frame_v)."""
    return tuple(s if n % 2 else 0 for n, s in enumerate(sigma_table(1, prec)))


def eta3_int(prec: int) -> list[int]:
    """q^(-1/8) eta(z)^3 = sum_{j>=0} (-1)^j (2j+1) q^(j(j+1)/2)."""
    out = [0] * (prec + 1)
    j = 0
    while j * (j + 1) // 2 <= prec:
        out[j * (j + 1) // 2] = (-1) ** j * (2 * j + 1)
        j += 1
    return out


@lru_cache(maxsize=32)
def eisenstein_int(weight: int, prec: int) -> tuple[int, ...]:
    """E4 = 1 + 240 sum sigma3(n) q^n or E6 = 1 - 504 sum sigma5(n) q^n,
    coefficients up to prec."""
    if weight not in (4, 6):
        raise ValueError("only E4 and E6 are provided")
    mult = 240 if weight == 4 else -504
    return (1,) + tuple(mult * s for s in sigma_table(weight - 1, prec)[1:])
