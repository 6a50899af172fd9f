"""Half-integral weight cusp forms in the Kohnen plus space of level 4.

Exact rational q-expansion bases, Hecke eigenforms and their Shimura
partners on SL(2,Z), Salie sums and plus-space Poincare coefficients,
central L-values and Petersson norms, and sup-norm / amplifier
experiments in the weight aspect.
"""

from .arith import half_integer
from .numerics import CertifiedValue, LogScaled, s_sum
from .qexp import (
    QExpansion,
    SpaceBasis,
    cusp_plus_basis,
    space_basis,
)
from .hecke import (
    HalfIntegralForm,
    IntegralForm,
    eigenbasis_plus,
    eigenforms_level1,
    multiplicativity_check,
    verify_sqrcoeff,
)
from .salie import poincare_coeff, salie_h, spectral_average
from .lfunctions import (
    central_value,
    kohnen_zagier_check,
    petersson_norm_f,
    petersson_norm_integral,
    sym2_at_1,
)
from .supnorm import (
    CountRecord,
    FormEvaluator,
    amplified_rhs,
    amplifier_build,
    bergman_partial,
    count_matrices,
    enumerate_gl,
    scaling_experiment,
    supnorm_scan,
    u_invariant,
)

__version__ = "0.1.0"
