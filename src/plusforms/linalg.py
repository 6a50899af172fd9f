"""Exact linear algebra on integer rows over one denominator: fraction-free
row reduction and characteristic polynomials.  A rational matrix comes as
integer rows, each scaled by its lcm denominator (which changes none of
rank, kernel or reduced form), or as one integer matrix over a denominator
the caller keeps."""

from __future__ import annotations

from math import gcd, lcm
from operator import mul


def rref_exact(rows: list[list[int]]) -> tuple[int, list[list[int]], list[list[int]]]:
    """Fraction-free (Bareiss-style) reduction of an integer matrix.

    Returns (rank, reduced rows, kernel basis), all integer rows.  Reduced
    row i stands for row / row[pivot_i], its first nonzero entry: the rows
    are primitive with positive pivots, so each is the row of the reduced
    echelon form (unit pivots) times its lcm denominator.  The Bareiss
    exact-division step keeps entry growth polynomial, and the back
    substitution also runs on integer rows.
    """
    if not rows:
        return 0, [], []
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("rref_exact needs a rectangular input")
    if not all(isinstance(x, int) for row in rows for x in row):  # '//' floors a Fraction
        raise TypeError("rref_exact needs integer entries")
    mat = [list(row) for row in rows]

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

    # back substitution to fully reduced echelon form: row i stands for
    # nums[i] / nums[i][pivots[i]]
    nums = mat[:rank]
    for i in range(rank - 1, -1, -1):
        for i2 in range(i + 1, rank):
            f = nums[i][pivots[i2]]
            if f:
                pv = nums[i2][pivots[i2]]
                nums[i] = [pv * a - f * b for a, b in zip(nums[i], nums[i2])]
        g = gcd(*nums[i]) * (1 if nums[i][pivots[i]] > 0 else -1)
        nums[i] = [a // g for a in nums[i]]

    # one kernel vector per free column, lead there, lead the lcm of the pivots
    lead = lcm(*(row[c] for row, c in zip(nums, pivots)))
    kernel = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = lead
        for row, pc in zip(nums, pivots):
            vec[pc] = -row[fc] * (lead // row[pc])
        kernel.append(vec)
    return rank, nums, kernel


def charpoly_exact(matrix: list[list[int]]) -> list[int]:
    """Characteristic polynomial det(xI - M) of an integer matrix via
    Faddeev-LeVerrier.

    Returns integer coefficients [c_0, ..., c_n] with c_n = 1.  Every c_k is
    an integer, so each division of a trace by k is exact.
    """
    n = len(matrix)
    if not all(isinstance(x, int) for row in matrix for x in row):
        raise TypeError("charpoly_exact needs integer entries")
    coeffs = [0] * n + [1]
    mk = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        cols = list(zip(*mk))
        mk = [[sum(map(mul, row, col)) for col in cols] for row in matrix]
        ck = -sum(mk[i][i] for i in range(n)) // k
        coeffs[n - k] = ck
        if k < n:
            for i in range(n):
                mk[i][i] += ck
    return coeffs
