"""freemeixner: exact and numerical free probability for the free Meixner
family.

The package splits into an exact combinatorial layer (non-crossing
partitions, moment/cumulant transforms, the free convolution algebra, the
conditional-moment verifiers) and a floating-point analytic layer (Cauchy
and R transforms, densities with atoms, Gauss quadrature, Stieltjes
inversion).  Rational inputs stay rational all the way through the exact
layer.  The six float-layer names from ``numerics`` (``gauss_rule`` and
the rest) load on first use, because numpy and ``scipy.linalg`` would
otherwise be most of the import time of the exact layer and the CLI.
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
    q_factorial,
    q_integer,
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

_FLOAT_NAMES = (
    "IntegralEstimate",
    "QuadratureRule",
    "gauss_rule",
    "integrate_against_law",
    "panel_integral",
    "stieltjes_invert",
)

__all__ = [name for name in dir() if not name.startswith("_")]
__all__ += ["numerics", *_FLOAT_NAMES]


def __getattr__(name):
    """Import the float layer when one of its names is first looked up."""
    if name not in _FLOAT_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import numerics

    value = globals()[name] = getattr(numerics, name)
    return value
