"""freemeixner: exact and numerical free probability for the free Meixner
family.

The package splits into an exact combinatorial layer (non-crossing
partitions, moment/cumulant transforms, the free convolution algebra, the
conditional-moment verifiers) and a floating-point analytic layer (Cauchy
and R transforms, densities with atoms, Gauss quadrature, Stieltjes
inversion).  Rational inputs stay rational all the way through the exact
layer.  The package needs only the standard library.

The errors, scalars, cumulants and meixner layers load with the package.
The partition enumerators (``ncpart``), the float layer (``numerics``) and
the identity verifiers (``verify``) load on first use: their names below
are served by the module ``__getattr__`` (PEP 562), so a CLI call imports
only the layers its subcommand runs.

The name ``cumulants`` is the function re-exported from ``meixner``, and it
shadows the module of that name: ``import freemeixner.cumulants as C``
binds the function.  Reach the module's names with
``from freemeixner.cumulants import ...``.
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
__version__ = "0.1.0"

# name -> the layer that defines it, for the layers that load on first use
_LAZY = {
    name: module
    for module, names in (
        ("ncpart", ("DEFAULT_ENUMERATION_CAP", "Partition", "enumerate_nc",
                    "enumerate_nc_le2", "is_crossing", "singleton_count")),
        ("numerics", ("IntegralEstimate", "QuadratureRule", "gauss_rule",
                      "integrate_against_law", "panel_integral", "stieltjes_invert")),
        ("verify", ("RegressionReport", "build_free_pair", "marginal_law_params",
                    "verify_levy_martingale", "verify_linear_regression",
                    "verify_mixed_cumulants", "verify_moment_recursion",
                    "verify_orthogonality", "verify_quadratic_variance")),
    )
    for name in (module, *names)
}

__all__ = [name for name in dir() if not name.startswith("_")] + list(_LAZY)


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value
