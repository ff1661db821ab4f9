"""freemeixner: exact and numerical free probability for the free Meixner
family.

The package splits into an exact combinatorial layer (non-crossing
partitions, moment/cumulant transforms, the free convolution algebra, the
conditional-moment verifiers) and a floating-point analytic layer (Cauchy
and R transforms, densities with atoms, Gauss quadrature, Stieltjes
inversion).  Rational inputs stay rational all the way through the exact
layer.  The package needs only the standard library.
"""

from .cumulants import (
    MAX_ORDER,
    CumulantSequence,
    FreePairSpec,
    MomentSequence,
    convolution_power,
    cumulants_to_moments,
    dilate,
    free_convolve,
    free_pair_moment,
    free_pair_prefix_moments,
    joint_moment_free_pair,
    moments_to_cumulants,
    q_binomial,
    q_cumulants,
    translate,
)
from .errors import (
    DomainError,
    EnumerationCapError,
    FreeMeixnerError,
    NumericError,
    OrderCapError,
)
from .meixner import (
    LevyParams,
    MeixnerLaw,
    MeixnerParams,
    MeixnerType,
    SemicircleParams,
    atoms,
    binomial_decomposition,
    cauchy_transform,
    classify,
    cumulants,
    density,
    jacobi_coefficients,
    levy_marginal,
    moment_generating,
    moments,
    orthogonal_polynomial,
    r_transform,
    semicircle_moments,
    series_radius,
    support,
)
from .ncpart import (
    DEFAULT_ENUMERATION_CAP,
    Partition,
    enumerate_nc,
    enumerate_nc_le2,
    is_crossing,
    singleton_count,
)
from .numerics import (
    IntegralEstimate,
    QuadratureRule,
    gauss_rule,
    integrate_against_law,
    panel_integral,
    stieltjes_invert,
)
from .verify import (
    RegressionReport,
    build_free_pair,
    marginal_law_params,
    verify_levy_martingale,
    verify_linear_regression,
    verify_mixed_cumulants,
    verify_moment_recursion,
    verify_orthogonality,
    verify_quadratic_variance,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
