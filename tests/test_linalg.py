import random
from fractions import Fraction

from plusforms.linalg import charpoly_exact, rref_exact

from oracles import gauss_jordan_reference, naive_rank


def test_identity_matrix():
    rank, _red, kernel = rref_exact([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert rank == 3 and kernel == []


def test_repeated_row():
    rank, _red, kernel = rref_exact([[2, -4], [2, -4]])
    assert rank == 1
    assert len(kernel) == 1
    v = kernel[0]
    assert 2 * v[0] - 4 * v[1] == 0 and v != [0, 0]


def test_random_rank_against_naive_oracle():
    rng = random.Random(13)
    for _ in range(40):
        rows = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(8)]
            for _ in range(5)
        ]
        rank, _red, kernel = rref_exact(rows)
        assert rank == naive_rank(rows)
        assert rank + len(kernel) == 8
        for vec in kernel:
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) == 0


def test_reduced_rows_match_gauss_jordan_oracle():
    """The reduced echelon rows equal plain Fraction Gauss-Jordan on the
    random matrices above, and on rank-deficient ones (products of random
    5 x 3 and 3 x 8 factors, with a zero and a repeated row)."""
    rng = random.Random(13)
    for _ in range(40):
        rows = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(8)]
            for _ in range(5)
        ]
        assert rref_exact(rows)[1] == gauss_jordan_reference(rows)
    for _ in range(20):
        left = [[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(3)] for _ in range(5)]
        right = [[rng.randint(-5, 5) for _ in range(8)] for _ in range(3)]
        rows = [[sum(a * right[t][j] for t, a in enumerate(row)) for j in range(8)] for row in left]
        rows += [[0] * 8, rows[0]]
        rank, red, _ = rref_exact(rows)
        assert red == gauss_jordan_reference(rows) and rank == len(red)


def test_charpoly_small():
    cp = charpoly_exact([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]])
    assert cp == [Fraction(5), Fraction(-5), Fraction(1)]  # x^2 - 5x + 5
    cp3 = charpoly_exact(
        [[Fraction(1), 0, 0], [0, Fraction(2), 0], [0, 0, Fraction(3)]]
    )
    assert cp3 == [Fraction(-6), Fraction(11), Fraction(-6), Fraction(1)]
