import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from plusforms import hecke, qexp
from plusforms.hecke import dim_cusp_level1, hecke_matrix_level1, hecke_matrix_plus
from plusforms.linalg import charpoly_exact, rref_exact
from plusforms.qexp import cusp_plus_basis

from oracles import charpoly_reference, gauss_jordan_reference, integer_row, naive_rank


def _unit_pivot_rows(red):
    """The reduced integer rows over their pivots, as Fractions; each row is
    primitive with a positive pivot."""
    out = []
    for row in red:
        pivot = next(a for a in row if a)
        assert pivot > 0 and math.gcd(*row) == 1
        out.append([Fraction(a, pivot) for a in row])
    return out


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
        rank, _red, kernel = rref_exact([integer_row(row) for row in rows])
        assert rank == naive_rank(rows)
        assert rank + len(kernel) == 8
        for vec in kernel:
            assert all(type(a) is int for a in vec)
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
        red = rref_exact([integer_row(row) for row in rows])[1]
        assert _unit_pivot_rows(red) == gauss_jordan_reference(rows)
    for _ in range(20):
        left = [[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(3)] for _ in range(5)]
        right = [[rng.randint(-5, 5) for _ in range(8)] for _ in range(3)]
        rows = [[sum(a * right[t][j] for t, a in enumerate(row)) for j in range(8)] for row in left]
        rows += [[0] * 8, rows[0]]
        rank, red, _ = rref_exact([integer_row(row) for row in rows])
        assert _unit_pivot_rows(red) == gauss_jordan_reference(rows) and rank == len(red)


def test_exact_linalg_rejects_non_integer_entries():
    with pytest.raises(TypeError, match="integer entries"):
        rref_exact([[Fraction(1, 2), 1]])
    with pytest.raises(TypeError, match="integer entries"):
        charpoly_exact([[Fraction(1, 2)]])
    with pytest.raises(ValueError, match="rectangular"):
        rref_exact([[1, 2], [3]])


def test_charpoly_small():
    cp = charpoly_exact([[2, 1], [1, 3]])
    assert cp == [Fraction(5), Fraction(-5), Fraction(1)]  # x^2 - 5x + 5
    cp3 = charpoly_exact([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    assert cp3 == [Fraction(-6), Fraction(11), Fraction(-6), Fraction(1)]
    assert charpoly_exact([]) == [1]


def _plus_t9(num):
    basis = cusp_plus_basis(Fraction(num, 2))
    mat, den = hecke_matrix_plus(basis, 3)
    return mat, den, hecke._t9(basis)[2]


def _level1_t3(w):
    mat = hecke_matrix_level1(w, 3)
    return mat, 1, hecke._t3.get(w, 0)[2]


@pytest.mark.parametrize("matrices", [
    pytest.param(lambda: [_plus_t9(num) for num in range(5, 62, 2)
                          if dim_cusp_level1(num - 1)], id="T9-plus-5/2..61/2"),
    pytest.param(lambda: [_level1_t3(w) for w in range(12, 62, 2)
                          if dim_cusp_level1(w)], id="T3-level1-12..60"),
])
def test_charpoly_matches_fraction_oracle(matrices):
    """The integer Faddeev-LeVerrier charpoly equals the Fraction one on the
    T(9) matrix of every nonzero plus space 5/2..61/2 and the T(3) matrix of
    every nonzero S_w, w = 12..60, with int coefficients; the held charpoly
    of the matrix over its denominator equals the Fraction one of that."""
    cases = matrices()
    assert cases
    for mat, den, held in cases:
        cp = charpoly_exact(mat)
        assert all(type(c) is int for c in cp)
        assert cp == charpoly_reference(mat)
        assert held == charpoly_reference([[Fraction(c, den) for c in row] for row in mat])


def test_linalg_makes_no_fractions(monkeypatch):
    """Solving 'plus S' at 29/2 and 61/2 and taking T(9), its charpoly and
    the eigensystems, on emptied caches, makes no Fraction in linalg, nor in
    the space solve, the echelon step or the combination map of qexp.  Each
    Fraction is booked to the first caller outside the fractions module."""
    made = Counter()
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        frame = sys._getframe(1)
        while frame.f_globals.get("__name__") == "fractions":
            frame = frame.f_back
        made[frame.f_globals.get("__name__"), frame.f_code.co_qualname.split(".")[0]] += 1
        return new(cls, *args, **kwargs)

    qexp._spaces.cache_clear()
    hecke._miller.cache_clear()
    hecke._t3.cache_clear()
    monkeypatch.setattr(Fraction, "__new__", counting)
    for k in ("29/2", "61/2"):
        cp, systems = hecke._eigensystems(cusp_plus_basis(k))
        assert len(systems) == len(cp) - 1
    monkeypatch.undo()
    assert made  # the counter sees the scalars of the eigensystems
    watched = {("plusforms.qexp", name) for name in ("_solve_space", "_echelonize",
                                                     "_combination_map")}
    assert {key: n for key, n in made.items()
            if key[0] == "plusforms.linalg" or key in watched} == {}
