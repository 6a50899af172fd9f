#!/usr/bin/env python3
"""Cusp expansions and the three-frame sup-norm scan.

A plus form has exact expansions at all three cusps of Gamma_0(4): the
Fricke frame sees the coefficients fhat(4m), the frame at the cusp 1/2 sees
fhat(m) on one residue class mod 4 (with quarter-integer exponents).  The
invariant y^(k/2)|f(z)| is scanned over the three frames with y >= sqrt(3)/8,
which covers a fundamental domain.
"""

import itertools
import math
import random

from plusforms.arith import plus_sign
from plusforms.hecke import eigenbasis_plus
from plusforms.supnorm import FormEvaluator, supnorm_scan, apply_matrix

f = eigenbasis_plus("13/2")[0]
f.coefficients_upto(700)
ev = FormEvaluator.from_plus_form(f, 700)

# the exact coefficient at m of each frame: fhat(n), fhat(4m), (-1)^m fhat(4m + a0)
a0 = 2 - plus_sign(f.k)
frame_coeff = {"I": f.coeff, "W4": lambda m: f.coeff(4 * m),
               "V4": lambda m: (-1) ** m * f.coeff(4 * m + a0)}
print("frame expansions of the weight-13/2 eigenform:")
for label in ("I", "W4", "V4"):
    fs = ev.frames[label]
    terms = ((m, c) for m in range(fs.prec + 1) if (c := frame_coeff[label](m)))
    first = list(itertools.islice(terms, 4))
    print(f"  {label}: exponent grid (m + {fs.param})/{fs.width}, "
          f"leading coefficients {[(m, str(c)) for m, c in first]}")

print()
print("automorphy spot check: the invariant agrees along Gamma_0(4) orbits")
random.seed(7)
z = complex(0.21, 0.73)
v0 = ev.eval_invariant(z)
for mat in ((1, 1, 0, 1), (1, 0, 4, 1), (5, -1, 16, -3)):
    gz = apply_matrix(mat, z)
    v1 = ev.eval_invariant(gz)
    print(f"  gamma = {mat}: rel. difference {abs((v1 - v0).to_float()) / v0.to_float():.2e}")

print()
res = supnorm_scan(ev)
print("sup-norm scan (unnormalised form):")
for label, (v, x, y) in res.per_frame.items():
    print(f"  frame {label}: log value {v.logm:+.6f} at x = {x:.4f}, y = {y:.4f}")
print(f"  sup attained in frame {res.frame} at ({res.x:.4f}, {res.y:.4f});"
      f" y range [{math.sqrt(3)/8:.4f}, {12 * 6.5 / math.pi:.2f}]")
