"""Every evaluator frame and sup-norm scan against recorded bits.

The frames of FormEvaluator.from_plus_form for every plus-space eigenform
from 13/2 to 61/2 at plus_form_precision, and of
FormEvaluator.from_basis_element for every 'full S' form at 13/2 and 49/2 at
precision 400: per frame its precision, width, exponent offset, log scale
and one SHA-256 of its term arrays (t, log|a|, sign), bit for bit.  And the
(frame, x, y, log sup) of supnorm_scan for every eigenform at 13/2, 41/2 and
61/2, as float.hex.  The files were recorded from the route that made an
exact scalar per coefficient and floated it; the float view must give the
same bits.

To record, only when an evaluated output is meant to change:

    PYTHONPATH=src python tests/test_frame_digest.py
"""

from __future__ import annotations

import hashlib
import os
import sys
from fractions import Fraction

import numpy as np

from plusforms.hecke import eigenbasis_plus
from plusforms.qexp import space_basis
from plusforms.supnorm import FRAME_LABELS, FormEvaluator, plus_form_precision, supnorm_scan

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
FRAMES_FILE = os.path.join(GOLDEN, "frame_digest.txt")
SCAN_FILE = os.path.join(GOLDEN, "scan_bits.txt")


def _frame_line(head: str, fs) -> str:
    arrays = [np.ascontiguousarray(a, dtype=np.float64).tobytes() for a in (fs.t, fs.logs, fs.signs)]
    digest = hashlib.sha256(b"".join(arrays)).hexdigest()
    return (f"{head} prec={fs.prec} width={fs.width} param={fs.param}"
            f" scale={float(fs.log_scale).hex()} terms={fs.t.size} {digest}")


def frame_lines():
    for num in range(13, 62, 2):
        k = Fraction(num, 2)
        prec = plus_form_precision(k)
        for j, f in enumerate(eigenbasis_plus(k)):
            ev = FormEvaluator.from_plus_form(f, prec)
            for label in FRAME_LABELS:
                yield _frame_line(f"plus {k} {j} {label}", ev.frames[label])
    for k in (Fraction(13, 2), Fraction(49, 2)):
        basis = space_basis(k, 400, "full S")
        for i in range(basis.dimension):
            ev = FormEvaluator.from_basis_element(basis, i, 400)
            for label in FRAME_LABELS:
                yield _frame_line(f"full-S {k} {i} {label}", ev.frames[label])


def scan_lines():
    for k in (Fraction(13, 2), Fraction(41, 2), Fraction(61, 2)):
        prec = plus_form_precision(k)
        for j, f in enumerate(eigenbasis_plus(k)):
            res = supnorm_scan(FormEvaluator.from_plus_form(f, prec))
            yield f"{k} {j} {res.frame} {res.x.hex()} {res.y.hex()} {res.sup.logm.hex()}"


def _recorded(path: str) -> list[str]:
    with open(path) as fh:
        return [line.rstrip("\n") for line in fh if line.strip()]


def test_frame_arrays_match_recorded():
    assert list(frame_lines()) == _recorded(FRAMES_FILE)


def test_scan_bits_match_recorded():
    assert list(scan_lines()) == _recorded(SCAN_FILE)


if __name__ == "__main__":
    for path, lines in ((FRAMES_FILE, frame_lines()), (SCAN_FILE, scan_lines())):
        with open(path, "w") as fh:
            fh.writelines(line + "\n" for line in lines)
        sys.stdout.write(f"wrote {path}\n")
