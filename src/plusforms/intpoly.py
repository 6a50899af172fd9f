"""Dense integer power series with fast exact truncated multiplication.

Series are plain lists of Python ints, index = exponent of q.  A product
takes one of three exact paths, chosen by operand length alone:

* short operands: the schoolbook double loop;
* mid-size operands: Kronecker substitution.  Each coefficient is stored with
  a bias of half a slot in a fixed number of bytes, the two packed integers
  are multiplied once by CPython (one squaring when both operands are the same
  list) and the slots are read back with the bias removed, so signed series
  need no splitting into positive and negative parts;
* long operands: multimodular convolution.  Both operands are reduced modulo
  primes below 2^14, each pair of residue vectors is convolved with a float64
  real FFT, and the coefficients 0..prec are rebuilt by Garner's CRT on
  balanced residues, vectorised over the coefficients.

The multimodular path is exact by construction.  Every coefficient of the
product obeys |c_n| <= min(la, lb) * max|a| * max|b|, and the primes used
multiply to more than twice that bound, so the balanced CRT value is c_n
itself.  For a transform of length N = 2^m the prime size is capped so that
Percival's bound on the error of an FFT convolution (Math. Comp. 72 (2003),
Theorem 5.1), applied to the residue vectors, stays below 1/2; every rounded
convolution must moreover lie within 1/4 of an integer, and a product that
fails this check is recomputed by Kronecker substitution.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .arith import primes_up_to

_SCHOOLBOOK_CUTOFF = 160
# shorter-operand length from which the multimodular path beats Kronecker
# substitution on CPython ints
_MULTIMODULAR_CUTOFF = 1000

# odd primes below 2^14, largest first
_PRIMES = tuple(reversed(primes_up_to((1 << 14) - 1)[1:]))
_EPS = 2.0**-53
# rounding error allowed on a convolution value before the product is redone
_ROUNDING_SLACK = 0.25


def poly_mul_trunc(a: list[int], b: list[int], prec: int) -> list[int]:
    """Product of integer series truncated to indices <= prec."""
    square = a is b
    la = min(len(a), prec + 1)
    lb = min(len(b), prec + 1)
    if la == 0 or lb == 0:
        return []
    a = a[:la]
    b = a if square else b[:lb]
    if la * lb <= _SCHOOLBOOK_CUTOFF * _SCHOOLBOOK_CUTOFF:
        return _mul_schoolbook(a, b, prec)
    if min(la, lb) >= _MULTIMODULAR_CUTOFF:
        out = _mul_multimodular(a, b, prec)
        if out is not None:
            return out
    return _mul_kronecker(a, b, prec)


def _mul_schoolbook(a: list[int], b: list[int], prec: int) -> list[int]:
    n = min(prec, len(a) + len(b) - 2)
    out = [0] * (n + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > n:
            continue
        jmax = min(len(b) - 1, n - i)
        for j in range(jmax + 1):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


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
# Multimodular convolution
# ---------------------------------------------------------------------------


def _fft_error_factor(size: int) -> float:
    """Percival's relative error factor for an FFT convolution of length size.

    The convolution of x and y computed in float64 differs from the exact one
    by less than |x|_2 |y|_2 times this factor.  One level is added to log2(size)
    for the pass that packs a real transform into a complex one, and the
    twiddle factors are taken accurate to one unit in the last place."""
    levels = size.bit_length()  # log2(size) + 1 for a power of two
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


def _crt_primes(size: int, la: int, lb: int, bits: int) -> tuple[int, ...] | None:
    """Largest primes below 2^14 whose FFT error bound at this length is below
    1/2 and whose product exceeds 2^bits; None if there are not enough."""
    chosen = []
    modulus = 1
    for p in _PRIMES:
        if not chosen and _fft_error_bound(size, la, lb, p) >= 0.5:
            continue
        chosen.append(p)
        modulus *= p
        if modulus.bit_length() > bits:
            return tuple(chosen)
    return None


def _limb_matrix(coeffs: list[int]) -> tuple[np.ndarray, int]:
    """The biased coefficients as rows of 16-bit little-endian limbs, and the
    bias they carry."""
    width = 2 * ((_coeff_bits(coeffs) + 16) // 16)  # bytes, with room for the sign
    raw = np.frombuffer(_biased_bytes(coeffs, width), dtype="<u2")
    return raw.reshape(len(coeffs), width // 2), 1 << (8 * width - 1)


def _residues(limbs: np.ndarray, bias: int, p: int) -> np.ndarray:
    """Balanced residues mod p, in (-p/2, p/2), of the rows of a limb matrix."""
    weights = np.array([pow(1 << 16, j, p) for j in range(limbs.shape[1])], dtype=np.float64)
    # every partial sum is an integer below 2^52, so the float sum is exact
    return _balanced_mod(limbs @ weights - bias % p, p)


def _balanced_mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in [-(p - 1)/2, (p - 1)/2], exactly, for an odd prime p and
    integer-valued x below 2^52 in absolute value: x/p is then within 1/(2p)
    of its true value, which is never within 1/(2p) of a half-integer."""
    return x - p * np.rint(x / p)


def _convolve(xa: np.ndarray, xb: np.ndarray, size: int, n: int) -> np.ndarray:
    """Float convolution of two residue vectors, entries 0..n, by real FFT of
    the given length (one forward transform when xb is xa)."""
    fa = np.fft.rfft(xa, size)
    fb = fa if xb is xa else np.fft.rfft(xb, size)
    return np.fft.irfft(fa * fb, size)[: n + 1]


def _mul_multimodular(a: list[int], b: list[int], prec: int) -> list[int] | None:
    """Exact product by multimodular FFT convolution and CRT, or None when a
    convolution fails the rounding check."""
    la, lb = len(a), len(b)
    n = min(prec, la + lb - 2)
    size = 1 << (la + lb - 2).bit_length()  # power of two >= la + lb - 1
    primes = _crt_primes(size, la, lb, _product_bits(a, b))
    if primes is None:
        return None
    # the limb matrices of the operands are freed before the reconstruction
    digits = _garner_digits(a, b, n, size, primes)
    return None if digits is None else _from_mixed_radix(digits, primes)


def _garner_digits(
    a: list[int], b: list[int], n: int, size: int, primes: tuple[int, ...]
) -> np.ndarray | None:
    """Balanced mixed-radix digits of the coefficients 0..n of a*b, one row
    per prime, or None when a convolution fails the rounding check."""
    ma, bias_a = _limb_matrix(a)
    mb, bias_b = (ma, bias_a) if b is a else _limb_matrix(b)
    digits = np.empty((len(primes), n + 1))
    for i, p in enumerate(primes):
        xa = _residues(ma, bias_a, p)
        xb = xa if b is a else _residues(mb, bias_b, p)
        conv = _convolve(xa, xb, size, n)
        rounded = np.rint(conv)
        if np.abs(conv - rounded).max() >= _ROUNDING_SLACK:
            return None
        # radix weights p_0 ... p_(j-1) mod p of the digits found so far
        weights = []
        radix = 1
        for q in primes[:i]:
            weights.append(radix)
            radix = radix * q % p
        inv = pow(radix, -1, p)
        done = _balanced_mod(np.array(weights, dtype=np.float64) @ digits[:i], p)
        digits[i] = _balanced_mod((_balanced_mod(rounded, p) - done) * inv, p)
    return digits


def _from_mixed_radix(digits: np.ndarray, primes: tuple[int, ...]) -> list[int]:
    """Python ints d_0 + p_0 (d_1 + p_1 (d_2 + ...)) from balanced digit vectors.

    Horner's rule runs on 32-bit limbs modulo 2^(32 L), one row per limb; the
    balanced value is below 2^(32 L - 1) in absolute value, so the limbs are its
    two's complement."""
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


def poly_pow_trunc(a: list[int], e: int, prec: int) -> list[int]:
    """a(q)^e truncated, by binary powering."""
    if e == 0:
        return [1]
    result = None
    base = a[: prec + 1]
    while e:
        if e & 1:
            result = base[:] if result is None else poly_mul_trunc(result, base, prec)
        e >>= 1
        if e:
            base = poly_mul_trunc(base, base, prec)
    return result


def poly_scale_shift(a: list[int], scale: int, shift: int, prec: int) -> list[int]:
    """scale * q^shift * a(q), truncated."""
    out = [0] * min(prec + 1, shift + len(a))
    for i, c in enumerate(a):
        j = i + shift
        if j > prec:
            break
        out[j] = scale * c
    return out


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
    """sum over odd n >= 1 of sigma1(n) q^n, the weight-2 generator."""
    out = [0] * (prec + 1)
    for d in range(1, prec + 1, 2):
        for m in range(d, prec + 1, 2 * d):
            out[m] += d
    return tuple(out)


def eta3_int(prec: int) -> list[int]:
    """q^(-1/8) eta(z)^3 = sum_{j>=0} (-1)^j (2j+1) q^(j(j+1)/2)."""
    out = [0] * (prec + 1)
    j = 0
    while j * (j + 1) // 2 <= prec:
        out[j * (j + 1) // 2] = (-1) ** j * (2 * j + 1)
        j += 1
    return out


@lru_cache(maxsize=8)
def delta_int(prec: int) -> tuple[int, ...]:
    """Ramanujan tau coefficients: Delta = q prod (1-q^n)^24 up to index prec."""
    e3 = eta3_int(prec)
    e6 = poly_mul_trunc(e3, e3, prec)
    e12 = poly_mul_trunc(e6, e6, prec)
    e24 = poly_mul_trunc(e12, e12, prec)
    return tuple(poly_scale_shift(e24, 1, 1, prec))


@lru_cache(maxsize=32)
def eisenstein_int(weight: int, prec: int) -> tuple[int, ...]:
    """Normalized E4 or E6 times its denominator: returns integer series of
    240*sigma3 / -504*sigma5 style, i.e. E_w itself (constant term 1)."""
    if weight == 4:
        mult, power = 240, 3
    elif weight == 6:
        mult, power = -504, 5
    else:
        raise ValueError("only E4 and E6 are provided")
    out = [0] * (prec + 1)
    out[0] = 1
    for d in range(1, prec + 1):
        dp = d**power
        for m in range(d, prec + 1, d):
            out[m] += mult * dp
    return tuple(out)
