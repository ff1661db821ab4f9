"""Floating-point oracles: Gauss quadrature, panel integration, inversion.

These routines cross-check the exact combinatorial layer.  The Gauss rule
comes from the spectral decomposition of the truncated Jacobi matrix
(Golub-Welsch) and integrates polynomials of degree <= 2n-1 exactly
against the law, atoms included.  Panel integration covers the continuous
part only and is paired with the explicit atom list; where the density has
a pole just outside its support, the panels integrate f minus its value at
the pole and add that value times the continuous mass back (see
integrate_against_law).  Everything runs on plain Python floats and
``math``; the eigensolver is one implicit QL routine over lists.
"""

from __future__ import annotations

import math
from operator import mul

from .errors import DomainError, NumericError
from .meixner import MeixnerLaw, MeixnerParams, cauchy_transform, jacobi_coefficients, poles
from .scalars import Frozen

_WEIGHT_SUM_TOL = 1e-12
_TARGET_REL_ERROR = 1e-10
# Largest gap between a real root of b x^2 + a x + 1 and the support, in
# support widths, at which the panels subtract f at that root.  Closer roots
# cost plain panels many doublings (x on free Poisson at a gap of 1e-4
# widths: 256 panels), while from about 1/50 they converge in 16 anyway.
# Farther roots make f(x0) large against f on the support and the
# subtraction cancels digits: x^12 on free Poisson laws is 1.7e-14 off at a
# gap of 0.2 widths, 2.5e-11 at 0.5, and does not converge at 1.
_NEAR_POLE_REACH = 1.0 / 32
_MAX_PANELS = 1 << 18
# QL sweeps allowed per eigenvalue; two or three are typical
_MAX_QL_SWEEPS = 30


def _tridiagonal_eigen(diag, off):
    """Eigenvalues and squared first eigenvector components, ascending.

    Implicit QL with Wilkinson shifts on the symmetric tridiagonal matrix
    with diagonal ``diag`` and off-diagonal ``off``.  Golub-Welsch needs
    only the first row of the eigenvector matrix, so only that row is
    rotated along.  Raises NumericError if an eigenvalue has not split off
    after _MAX_QL_SWEEPS sweeps.
    """
    d = [float(v) for v in diag]
    e = [float(v) for v in off] + [0.0]
    z = [1.0] + [0.0] * (len(d) - 1)
    last = len(d) - 1
    for l in range(len(d)):
        for sweep in range(_MAX_QL_SWEEPS + 1):
            # first negligible off-diagonal entry at or below l
            m = l
            while m < last:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) + dd == dd:
                    break
                m += 1
            if m == l:
                break
            if sweep == _MAX_QL_SWEEPS:
                raise NumericError(
                    f"tridiagonal QL did not converge within {_MAX_QL_SWEEPS} sweeps"
                )
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            g = d[m] - d[l] + e[l] / (g + math.copysign(math.hypot(g, 1.0), g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                h = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    # f and g underflowed: undo this sweep's shift and sweep again
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * h
                p = s * r
                d[i + 1] = g + p
                g = c * r - h
                f = z[i + 1]
                z[i + 1] = s * z[i] + c * f
                z[i] = c * z[i] - s * f
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    pairs = sorted(zip(d, z))
    return [x for x, _ in pairs], [v * v for _, v in pairs]


# 10-point Gauss-Legendre rule on [-1, 1] (weights sum to 2): the Jacobi
# matrix of the Legendre polynomials has zero diagonal and off-diagonal
# k / sqrt(4k^2 - 1)
_GL_NODES, _GL_WEIGHTS = _tridiagonal_eigen(
    [0.0] * 10, [k / math.sqrt(4 * k * k - 1) for k in range(1, 10)]
)
_GL_WEIGHTS = [2.0 * w for w in _GL_WEIGHTS]


class QuadratureRule(Frozen):
    """Nodes (strictly increasing) and positive weights summing to one."""

    __slots__ = ("nodes", "weights")
    nodes: tuple[float, ...]
    weights: tuple[float, ...]

    def __init__(self, nodes, weights):
        if any(b <= a for a, b in zip(nodes, nodes[1:])):
            raise NumericError("quadrature nodes are not strictly increasing")
        if any(w <= 0 for w in weights):
            raise NumericError("quadrature weights must be positive")
        if abs(sum(weights) - 1.0) > _WEIGHT_SUM_TOL:
            raise NumericError(f"weights sum to {sum(weights)!r}, not 1")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def integrate(self, f) -> float:
        return float(sum(map(mul, self.weights, map(f, self.nodes))))


class IntegralEstimate(Frozen):
    __slots__ = ("value", "error")
    value: float
    error: float

    def __init__(self, value, error):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "error", error)


def gauss_rule(p: MeixnerParams, n: int) -> QuadratureRule:
    """Gauss rule with n nodes for mu_{a,b} via the Jacobi matrix.

    Nodes are eigenvalues of the n x n symmetric tridiagonal truncation,
    weights the squared first components of the normalized eigenvectors.
    At b = -1 the matrix decouples and produces repeated zero-weight
    copies of the diagonal entry; duplicates are merged and weights below
    1e-14 dropped so the rule stays a valid discrete measure.
    """
    nodes, weights = _tridiagonal_eigen(*jacobi_coefficients(p, n))
    scale = 1.0 + max(abs(nodes[0]), abs(nodes[-1]))
    merged: list[list[float]] = []
    for x, w in zip(nodes, weights):
        if merged and x - merged[-1][0] <= 1e-12 * scale:
            merged[-1][1] += w
        else:
            merged.append([x, w])
    kept = [(x, w) for x, w in merged if w > 1e-14]
    total = sum(w for _, w in kept)
    return QuadratureRule(
        nodes=tuple([x for x, _ in kept]),
        weights=tuple([w / total for _, w in kept]),
    )


def _near_pole(law: MeixnerLaw):
    """The pole nearest the support if it lies within _NEAR_POLE_REACH
    support widths of it, else None."""
    lo, hi = law.support
    gap, x0 = min(((max(lo - x, x - hi), x) for x in poles(law.params)),
                  default=(math.inf, None))
    return x0 if gap <= _NEAR_POLE_REACH * (hi - lo) else None


def _point_part(law: MeixnerLaw, f):
    """(what the integral adds to the panels, what the panels subtract from f).

    Without a near pole (see _near_pole) that is the atom sum and 0.0.  At
    a near pole x0 the panels subtract f0 = f(x0), and f0 times the
    continuous mass 1 - sum of atom weights joins the atom sum.
    """
    atom_part = sum(w * f(x) for x, w in law.atoms)
    x0 = _near_pole(law)
    if x0 is None:
        return atom_part, 0.0
    f0 = f(x0)
    return atom_part + f0 * (1.0 - sum(w for _, w in law.atoms)), f0


def _continuous_panel_sum(law: MeixnerLaw, f, panels: int, f0: float) -> float:
    """Composite Gauss-Legendre pass of f - f0 over the continuous part.

    Substituting x = a + r cos(theta) absorbs the edge square-root of the
    density into sin^2(theta), so the theta-integrand is smooth and the
    panels converge fast; subtracting f0 = f(x0) at a near pole x0 cancels
    the 1/(x - x0) that would otherwise make it steep at one end.
    """
    a = float(law.params.a)
    b = float(law.params.b)
    lo, hi = law.support
    r = 0.5 * (hi - lo)
    if r == 0.0:
        return 0.0
    h = math.pi / panels
    half = 0.5 * h
    total = 0.0
    for k in range(panels):
        mid = (k + 0.5) * h
        for t, w in zip(_GL_NODES, _GL_WEIGHTS):
            theta = mid + half * t
            x = a + r * math.cos(theta)
            sin = math.sin(theta)
            total += w * (f(x) - f0) * sin * sin / (b * x * x + a * x + 1.0)
    return half * r * r * total / (2.0 * math.pi)


def _check_panels(panels: int) -> None:
    if panels < 1:
        raise ValueError(f"panels must be >= 1, got {panels}")


def panel_integral(law: MeixnerLaw, f, panels: int) -> float:
    """Fixed-resolution integral of f against the law (atoms included).

    Takes the near-pole subtraction of integrate_against_law, so f must be
    finite at the near pole too.  Raises ValueError if panels < 1.
    """
    _check_panels(panels)
    point_part, f0 = _point_part(law, f)
    return _continuous_panel_sum(law, f, panels, f0) + point_part


def integrate_against_law(law: MeixnerLaw, f, panels: int = 8) -> IntegralEstimate:
    """Adaptive integral of f against the law, target error 1e-10 * max(1, |value|).

    Panel count doubles until successive refinements agree within that
    target, which is relative once the result exceeds 1 in size; the atom
    sum (and the near-pole term below) is added afterwards.  Raises
    NumericError (carrying the best estimate) if the cap is reached first.

    Near pole: a real root x0 of b x^2 + a x + 1 at most 1/32 of the
    support width outside the support (an atom just off an edge, or free
    Poisson with |a| near 1) makes the density steep at that edge.  The
    panels then integrate f - f(x0), which cancels the pole, and f(x0)
    times the continuous mass 1 - sum of atom weights is added back, exact
    as the law has mass 1.  So f is also evaluated at x0 (the atom, if
    there is one) and must be finite there.  Such laws converge in 16
    panels where uniform panels took up to 2048 (a = 0.999, b = 0).  On the
    free Gamma parabola a^2 = 4b the root is double and the subtraction
    cancels only one order of it: (4, 4) takes 32 panels, (10, 25) 128.
    """
    _check_panels(panels)
    point_part, f0 = _point_part(law, f)
    coarse = _continuous_panel_sum(law, f, panels, f0)
    while panels <= _MAX_PANELS:
        panels *= 2
        fine = _continuous_panel_sum(law, f, panels, f0)
        err = abs(fine - coarse)
        value = fine + point_part
        if err <= _TARGET_REL_ERROR * max(1.0, abs(value)):
            return IntegralEstimate(value=value, error=err)
        coarse = fine
    raise NumericError(
        f"panel integration did not reach {_TARGET_REL_ERROR:g} * max(1, |value|) "
        f"within {_MAX_PANELS} panels",
        best_estimate=coarse + point_part,
    )


def stieltjes_invert(p: MeixnerParams, x: float, eps: float) -> float:
    """-(1/pi) Im G(x + i eps); tends to the density at continuity points."""
    if not eps > 0:
        raise DomainError(f"eps must be > 0, got {eps}")
    g = cauchy_transform(p, complex(float(x), float(eps)))
    return -g.imag / math.pi
