"""Floating-point oracles: Gauss quadrature, panel integration, inversion.

These routines cross-check the exact combinatorial layer.  The Gauss rule
comes from the spectral decomposition of the truncated Jacobi matrix
(Golub-Welsch) and integrates polynomials of degree <= 2n-1 exactly
against the law, atoms included.  Panel integration covers the continuous
part only and is paired with the explicit atom list.  Everything runs on
plain Python floats and ``math``; the eigensolver is one implicit QL
routine over lists.
"""

from __future__ import annotations

import math

from .errors import DomainError, NumericError
from .meixner import MeixnerLaw, MeixnerParams, cauchy_transform, jacobi_coefficients
from .scalars import Frozen

_WEIGHT_SUM_TOL = 1e-12
_TARGET_ABS_ERROR = 1e-10
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
        return float(sum(w * f(x) for x, w in zip(self.nodes, self.weights)))


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


def _continuous_panel_sum(law: MeixnerLaw, f, panels: int) -> float:
    """Composite Gauss-Legendre pass over the continuous part.

    Substituting x = a + r cos(theta) absorbs the edge square-root of the
    density into sin^2(theta), so the theta-integrand is smooth and the
    panels converge fast.
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
            total += w * f(x) * sin * sin / (b * x * x + a * x + 1.0)
    return half * r * r * total / (2.0 * math.pi)


def panel_integral(law: MeixnerLaw, f, panels: int) -> float:
    """Fixed-resolution integral of f against the law (atoms included)."""
    atom_part = sum(w * f(x) for x, w in law.atoms)
    return _continuous_panel_sum(law, f, panels) + atom_part


def integrate_against_law(law: MeixnerLaw, f, panels: int = 8) -> IntegralEstimate:
    """Adaptive integral of f against the law, target absolute error 1e-10.

    Panel count doubles until successive refinements agree; the atom sum
    is added afterwards.  Raises NumericError (carrying the best estimate)
    if the cap is reached first.
    """
    if panels < 1:
        raise ValueError(f"panels must be >= 1, got {panels}")
    atom_part = sum(w * f(x) for x, w in law.atoms)
    coarse = _continuous_panel_sum(law, f, panels)
    while panels <= _MAX_PANELS:
        panels *= 2
        fine = _continuous_panel_sum(law, f, panels)
        err = abs(fine - coarse)
        if err <= _TARGET_ABS_ERROR:
            return IntegralEstimate(value=fine + atom_part, error=err)
        coarse = fine
    raise NumericError(
        f"panel integration did not reach {_TARGET_ABS_ERROR:g} within {_MAX_PANELS} panels",
        best_estimate=coarse + atom_part,
    )


def stieltjes_invert(p: MeixnerParams, x: float, eps: float) -> float:
    """-(1/pi) Im G(x + i eps); tends to the density at continuity points."""
    if eps <= 0:
        raise DomainError(f"eps must be > 0, got {eps}")
    g = cauchy_transform(p, complex(float(x), float(eps)))
    return -g.imag / math.pi
