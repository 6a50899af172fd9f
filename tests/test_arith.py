import math
from fractions import Fraction

import pytest

from plusforms.arith import (
    FieldElement,
    NumberField,
    admissible,
    divisors,
    fundamental_discriminants,
    half_integer,
    is_fundamental_discriminant,
    jacobi_symbol,
    kronecker_symbol,
    moebius,
    plus_sign,
    primes_up_to,
    sigma_table,
    sqrt_mod_prime_power,
    squarefree_part,
)


def test_primes_sieve():
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_jacobi_against_squares_oracle():
    # (a|p) = 1 iff a is a nonzero square mod p, for odd primes p
    for p in (3, 5, 7, 11, 13, 23):
        squares = {(x * x) % p for x in range(1, p)}
        for a in range(1, p):
            expected = 1 if a in squares else -1
            assert jacobi_symbol(a, p) == expected
    assert jacobi_symbol(2, 7) == 1
    assert all(jacobi_symbol(a, 1) == 1 for a in range(-5, 6))


def test_kronecker_extensions():
    assert kronecker_symbol(-4, 3) == -1
    assert kronecker_symbol(-4, 1) == 1
    assert kronecker_symbol(4, 6) == 0
    assert kronecker_symbol(4, 9) == 1
    with pytest.raises(ValueError):
        jacobi_symbol(3, 4)  # even modulus: kronecker_symbol's domain


def test_divisor_functions():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert moebius(30) == -1 and moebius(12) == 0
    assert squarefree_part(72) == 2 and squarefree_part(-45) == -5


def test_sigma_table_against_divisor_sums():
    for power in range(6):
        table = sigma_table(power, 200)
        assert table == [0] + [sum(d**power for d in divisors(n)) for n in range(1, 201)]
    assert sigma_table(1, 0) == [0]


def test_fundamental_discriminants():
    assert is_fundamental_discriminant(1)
    assert is_fundamental_discriminant(5) and is_fundamental_discriminant(8)
    assert not is_fundamental_discriminant(2) and not is_fundamental_discriminant(9)
    assert fundamental_discriminants(24, 1) == [1, 5, 8, 12, 13, 17, 21, 24]
    assert fundamental_discriminants(15, -1) == [-3, -4, -7, -8, -11, -15]


def test_half_integer_parsing():
    assert half_integer("13/2") == Fraction(13, 2)
    assert half_integer((5, 2)) == Fraction(5, 2)
    with pytest.raises(ValueError):
        half_integer("1/3")


@pytest.mark.parametrize("num", range(5, 63, 2))
def test_plus_sign_and_admissible_match_definitions(num):
    """plus_sign(k) = (-1)^(k-1/2) = e^(i pi (k-1/2)), and n is admissible
    exactly when (-1)^(k-1/2) n = 0 or 1 mod 4, for k = num/2 given as a
    string, a Fraction and a tuple."""
    sign = round(math.cos(math.pi * (num - 1) / 2))
    for k in (f"{num}/2", Fraction(num, 2), (num, 2)):
        assert plus_sign(k) == sign
        for n in range(-12, 41):
            assert admissible(k, n) == ((sign * n) % 4 in (0, 1)), (k, n)


def test_quadext_field_arithmetic():
    q5 = NumberField((Fraction(-5), Fraction(0), Fraction(1)), 0)  # Q(sqrt 5)
    x = q5([1, 2])  # 1 + 2 sqrt 5
    y = q5([3, -1])
    assert isinstance(x, FieldElement) and str(x) == "(1 + 2*sqrt(5))"
    assert x * y == q5([-7, 5])
    assert (x / y) * y == x
    assert float(x) == pytest.approx(1 + 2 * math.sqrt(5))
    assert q5([2, 0]) == 2 and isinstance(q5([2, 0]), Fraction)
    assert x + q5([0, -2]) == 1 and isinstance(x + q5([0, -2]), Fraction)
    # y^3 - 3y - 1, y -> its largest root 2 cos(pi/9)
    cubic = NumberField((Fraction(-1), Fraction(-3), Fraction(0), Fraction(1)), 0)
    r = 2 * math.cos(math.pi / 9)
    x, y = cubic([1, 2]), cubic([3, -1, 1])
    assert str(x) == "(1 + 2*y)"
    assert x * y == cubic([5, 11, -1])  # y^3 = 3y + 1
    assert (x / y) * y == x
    assert float(x) == pytest.approx(1 + 2 * r)
    assert float(x * y) == pytest.approx((1 + 2 * r) * (3 - r + r * r))
    t = cubic([0, 1])
    assert t * t * t - 3 * t == 1 and isinstance(t * t * t - 3 * t, Fraction)
    with pytest.raises(ValueError):
        t + NumberField(cubic.modulus, 1)([0, 1])  # another root, another field


@pytest.mark.parametrize("kstr", ["41/2", "61/2"])
def test_bracket_matches_sturm_only_bisection(kstr):
    """_bracket, which leaves Sturm's count for the sign of the modulus once
    its interval holds the one root, gives the (N, b) of bisection on the
    count alone at 64, 256, 1024 and 4096 bits, for the Hecke field of every
    eigenform at the weight."""
    from oracles import bracket_reference
    from plusforms.hecke import eigenbasis_plus

    levels = (64, 256, 1024, 4096)
    for f in eigenbasis_plus(kstr):
        field = f.eigen_table[3].field
        fresh = NumberField(field.modulus, field.index)
        assert [fresh._bracket(b) for b in levels] == \
            bracket_reference(field.modulus, field.index, levels), field


def test_bracket_names_a_rational_root():
    """A modulus with a rational root raises a named ValueError when the
    bisection meets it: y(y - 1) while the count runs (at 0), y^2 - 4 after
    the interval holds one root (at 2)."""
    for modulus, root in (((0, -1, 1), "0"), ((-4, 0, 1), "2")):
        with pytest.raises(ValueError, match=f"rational root {root}$"):
            NumberField(tuple(map(Fraction, modulus)), 0)._bracket(64)


def test_sqrt_mod_prime_power_against_squares_table():
    # every unit residue mod p^e, p = 3 mod 4, 1 mod 4 and 1 mod 8 (the
    # Tonelli-Shanks loop), e up to 4: exactly the roots a table of squares has
    for p, e_max in ((3, 5), (5, 4), (7, 3), (11, 2), (17, 2), (41, 2), (73, 1), (97, 1), (113, 1)):
        for e in range(1, e_max + 1):
            q = p**e
            roots = {}
            for y in range(q):
                roots.setdefault(y * y % q, []).append(y)
            for a in range(1, q):
                if a % p:
                    assert sqrt_mod_prime_power(a, p, e) == tuple(roots.get(a, ())), (a, p, e)
    # a and p^e far past any table
    p, y = 1_000_000_007, 123_456_789
    q = p**3
    assert sqrt_mod_prime_power(y * y % q, p, 3) == (y, q - y)
    with pytest.raises(ValueError):
        sqrt_mod_prime_power(9, 3, 2)
    with pytest.raises(ValueError):
        sqrt_mod_prime_power(3, 2, 2)
