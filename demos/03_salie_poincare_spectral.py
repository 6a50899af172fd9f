#!/usr/bin/env python3
"""Salie sums, Poincare coefficients, and the spectral average.

H_c(n, m) is a finite twisted exponential sum over units mod 4c; summed
against half-integer Bessel values it gives the plus-space Poincare
coefficients g_{k,m}(n), and on the diagonal the exact spectral identity

    sum_j |fhat_j(m)|^2 = 6 (4 pi m)^(k-1) / Gamma(k-1) * g_{k,m}(m)

over an orthonormal eigenbasis.  At k = 13/2 the space is one-dimensional,
so ratios of spectral averages must reproduce squared coefficient ratios of
the exact eigenform; that is the sharpest end-to-end test of every
normalisation in the sum.
"""

from plusforms.hecke import eigenbasis_plus
from plusforms.salie import poincare_coeff, salie_h_raw, spectral_average

print("H_c(1,1) at k = 13/2 for small c:")
for c in range(1, 7):
    h = salie_h_raw(c, 1, 1, "13/2")
    assert abs(h.imag) < 1e-12, (c, h)
    print(f"  c = {c}: {h.real:+.6f}")

g = poincare_coeff("13/2", 1, 1, tol=1e-12)
print()
print(f"g(1,1) = {g.value.to_float():.12f}  (c-sum truncated at c_max = {g.c_max},"
      f" certified tail {g.tail_bound:.2e})")

f = eigenbasis_plus("13/2")[0]
f.coefficients_upto(40)
s1 = spectral_average("13/2", 1)
print()
print("spectral ratios vs the exact eigenform (dimension 1):")
print(f"  {'m':>3} {'spectral ratio':>18} {'fhat(m)^2':>12}")
for m in (4, 5, 8, 9, 12, 13):
    sm = spectral_average("13/2", m)
    ratio = (sm.value / s1.value).to_float()
    print(f"  {m:>3} {ratio:>18.8f} {float(f.coeff(m))**2:>12.0f}")
