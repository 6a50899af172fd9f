"""Every exact output of the series engine against a recorded digest.

One SHA-256 per section of exact data: the Miller rows of S_w for even
w <= 60, the basis vectors and rows of every kind in every frame at every
weight 1/2 .. 61/2, and the plus-space eigenforms through 61/2 with their
charpolys, eigenvalues, coefficients and level-1 partners.  Rows are read
at index 100 (chains on integers) and then 300 (chains on residues), from
empty stores; each is cut to the index asked for, since a store may hold it
longer.  A change to the engine that moves any exact output by one bit
changes a digest.

To record the digests, only when an exact output is meant to change:

    PYTHONPATH=src python tests/test_engine_digest.py > tests/golden/engine_digest.txt
"""

from __future__ import annotations

import hashlib
import os
import sys
from fractions import Fraction

from plusforms import hecke, qexp
from plusforms.arith import FieldElement

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "engine_digest.txt")
PRECS = (100, 300)
KINDS = ("full M", "full S", "plus M", "plus S")
FRAMES = ("I", "W4", "V4")


def _canon(x) -> str:
    """A text form of ints, Fractions, number field elements and nestings of them."""
    if isinstance(x, FieldElement):
        return f"F{x.field.modulus}@{x.field.index}{[str(c) for c in x.coords]}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(map(_canon, x)) + "]"
    return str(x)


def _miller_lines():
    for w in range(12, 61, 2):
        for prec in PRECS:
            rows = hecke._miller.get(w, prec)
            yield f"{w} {prec} " + _canon([row[: prec + 1] for row in rows])


def _basis_lines(kind: str):
    for num in range(1, 62, 2):
        k = Fraction(num, 2)
        for prec in PRECS:
            basis = qexp.space_basis(k, prec, kind)
            yield f"{k} {prec} vectors " + _canon(basis.vectors)
            for frame in FRAMES:
                rows = [(row[: prec + 1], den) for row, den in basis.int_rows(frame, prec)]
                yield f"{k} {prec} {frame} " + _canon(rows)


def _eigen_lines():
    for num in range(5, 62, 2):
        k = Fraction(num, 2)
        for f in hecke.eigenbasis_plus(k):
            F = f.shimura_partner
            yield f"{k} plus " + _canon([f.charpoly, f.vector, list(f.coefficients_upto(300)),
                                         [f.eigenvalue(p * p) for p in hecke.PAIRING_PRIMES]])
            yield f"{k} partner " + _canon([F.weight, F.charpoly, F.vector,
                                            list(F.coefficients_upto(64))])


def engine_digest() -> dict[str, str]:
    """Section name -> SHA-256 of its lines, computed from empty stores."""
    qexp._spaces.cache_clear()
    hecke._miller.cache_clear()
    sections = {"miller": _miller_lines()}
    sections.update({f"basis {kind}": _basis_lines(kind) for kind in KINDS})
    sections["eigen"] = _eigen_lines()
    return {name: hashlib.sha256("\n".join(lines).encode()).hexdigest()
            for name, lines in sections.items()}


def _recorded() -> dict[str, str]:
    with open(GOLDEN) as fh:
        return dict(line.rstrip("\n").rsplit(" ", 1) for line in fh if line.strip())


def test_engine_digest_matches_recorded():
    assert engine_digest() == _recorded()


if __name__ == "__main__":
    for name, digest in engine_digest().items():
        sys.stdout.write(f"{name} {digest}\n")
