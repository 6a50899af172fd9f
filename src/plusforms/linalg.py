"""Exact linear algebra over Q: fraction-free row reduction and char polys."""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def rref_exact(rows: list[list]) -> tuple[int, list[list[Fraction]], list[list[Fraction]]]:
    """Fraction-free (Bareiss-style) reduction of a rational matrix.

    Returns (rank, reduced rows in echelon form with unit pivots, kernel
    basis).  The elimination itself runs on integer rows obtained by clearing
    denominators, with the Bareiss exact-division step keeping entry growth
    polynomial.  The back substitution also runs on integer rows, one
    denominator per row, and Fractions are made only for the rows returned.
    """
    if not rows:
        return 0, [], []
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("rref_exact needs a rectangular input")
    mat = [_clear_denominators([Fraction(x) for x in row]) for row in rows]

    pivots: list[int] = []
    prev_pivot = 1
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pc = mat[r][c]
        for i in range(r + 1, len(mat)):
            ic = mat[i][c]
            row = mat[i]
            top = mat[r]
            # Sylvester identity makes this division exact (Bareiss step)
            for j in range(c, ncols):
                row[j] = (pc * row[j] - ic * top[j]) // prev_pivot
        prev_pivot = pc
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    rank = r

    # back substitution to fully reduced echelon form with unit pivots, on
    # integer rows: row i stands for nums[i] / nums[i][pivots[i]]
    nums = mat[:rank]
    for i in range(rank - 1, -1, -1):
        for i2 in range(i + 1, rank):
            f = nums[i][pivots[i2]]
            if f:
                pv = nums[i2][pivots[i2]]
                nums[i] = [pv * a - f * b for a, b in zip(nums[i], nums[i2])]
        g = gcd(*nums[i])
        nums[i] = [a // g for a in nums[i]]
    reduced = [[Fraction(a, row[c]) for a in row] for row, c in zip(nums, pivots)]

    free_cols = [c for c in range(ncols) if c not in pivots]
    kernel = []
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -reduced[i][fc]
        kernel.append(vec)
    return rank, reduced, kernel


def _clear_denominators(row: list[Fraction]) -> list[int]:
    den = 1
    for x in row:
        den = den * x.denominator // gcd(den, x.denominator)
    return [int(x * den) for x in row]


def charpoly_exact(matrix: list[list[Fraction]]) -> list[Fraction]:
    """Characteristic polynomial det(xI - M) via Faddeev-LeVerrier.

    Returns coefficients [c_0, ..., c_n] with c_n = 1, exact rationals.
    """
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    mk = ident
    for k in range(1, n + 1):
        mk = _mat_mul(m, mk)
        ck = -_trace(mk) / k
        coeffs[n - k] = ck
        if k < n:
            mk = [[mk[i][j] + (ck if i == j else 0) for j in range(n)] for i in range(n)]
    return coeffs


def _mat_mul(a, b):
    n = len(a)
    p = len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(p)] for i in range(n)]


def _trace(m):
    return sum(m[i][i] for i in range(len(m)))
