"""Machine verification of the conditional-moment identities.

For a free, centered, standardized pair (X, Y) with S = X + Y whose
marginal cumulants split as R_n(X) = alpha R_n(S), the law of S is a free
Meixner law and the pair satisfies, at every moment order,

    tau(X S^n)   = alpha tau(S^{n+1})                      (linear regression)
    tau(V^2 S^n) = C (m_n + a m_{n+1} + b m_{n+2})         (quadratic variance)

with V = beta X - alpha Y, beta = 1 - alpha, C = alpha beta / (1+b), and
the mixed cumulants obey R_n(V, S, ..., S) = 0 and
R_n(V, V, S, ..., S) = alpha beta R_n(S).  The verifiers below evaluate
both sides of each identity independently -- joint moments by the
first-block interval recursion over the free pair's word, one pass giving
every order, right-hand sides from the moment sequence -- and report
residuals per order.  With rational inputs every check is exact;
in float mode a per-order tolerance of 1e-10 applies.  The orthogonality
check of the law's monic polynomials always runs in floats, against a Gauss
rule, with a caller-given tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .cumulants import (
    CumulantSequence,
    FreePairSpec,
    cumulants_to_moments,
    free_pair_prefix_moments,
)
from .errors import DomainError, OrderCapError
from .meixner import LevyParams, MeixnerParams, cumulants, orthogonal_polynomial
from .scalars import Scalar, as_scalar, exact_sqrt, is_exact

FLOAT_TOLERANCE = 1e-10


@dataclass(frozen=True)
class RegressionReport:
    """Outcome of one identity check: residuals and pass/fail per order."""

    identity: str
    orders: tuple[int, ...]
    residuals: tuple[Scalar, ...]
    passed: tuple[bool, ...]
    constant: Scalar | None = None

    @property
    def ok(self) -> bool:
        return all(self.passed)

    @property
    def max_residual(self) -> Scalar:
        return max((abs(r) for r in self.residuals), default=0)

    @property
    def first_failure(self):
        """Lowest order at which the identity broke, or None."""
        for order, good in zip(self.orders, self.passed):
            if not good:
                return order
        return None


def _report(identity, orders, residuals, constant=None) -> RegressionReport:
    passed = []
    for r in residuals:
        if is_exact(r):
            passed.append(r == 0)
        else:
            passed.append(abs(r) <= FLOAT_TOLERANCE)
    return RegressionReport(
        identity=identity,
        orders=tuple(orders),
        residuals=tuple(residuals),
        passed=tuple(passed),
        constant=constant,
    )


def marginal_law_params(alpha, p: MeixnerParams) -> tuple[MeixnerParams, MeixnerParams]:
    """Standardized laws of X/sqrt(alpha) and Y/sqrt(1-alpha) for the
    alpha-split pair on mu_{a,b}: (mu_{a/sqrt(alpha), b/alpha}, same with
    1-alpha)."""
    alpha = as_scalar(alpha)
    beta = 1 - alpha
    ra = exact_sqrt(alpha)
    rb = exact_sqrt(beta)
    return (
        MeixnerParams(p.a / ra, p.b / alpha),
        MeixnerParams(p.a / rb, p.b / beta),
    )


def build_free_pair(alpha, p: MeixnerParams, order: int) -> FreePairSpec:
    """Free pair with S distributed as mu_{a,b} and variance split alpha.

    Both marginals are probability laws only when b >= -min(alpha,
    1-alpha); infeasible combinations are rejected.
    """
    alpha = as_scalar(alpha)
    if not 0 < alpha < 1:
        raise DomainError(f"alpha must lie in (0,1), got {alpha}")
    beta = 1 - alpha
    bound = -min(alpha, beta)
    if p.b < bound:
        raise DomainError(
            f"infeasible split: b = {p.b} violates b >= -min(alpha, 1-alpha) = {bound}"
        )
    return FreePairSpec(cumulants(p, order, method="from_moments"), alpha)


def _pair_moments(pair: FreePairSpec):
    x = pair.x_cumulants()
    y = pair.y_cumulants()
    s = CumulantSequence(tuple(a + b for a, b in zip(x.values, y.values)))
    return x, y, cumulants_to_moments(s)


def verify_linear_regression(pair: FreePairSpec, order: int) -> RegressionReport:
    """Check tau(X S^n) = alpha m_{n+1} for 1 <= n <= order."""
    if order + 1 > pair.order:
        raise OrderCapError(
            f"need pair cumulants up to order {order + 1}, have {pair.order}"
        )
    x, y, m = _pair_moments(pair)
    lhs = free_pair_prefix_moments(x, y, ["X"] + ["S"] * order)  # lhs[n] = tau(X S^n)
    orders = range(1, order + 1)
    residuals = [lhs[n] - pair.alpha * m.moment(n + 1) for n in orders]
    return _report("linear-regression", orders, residuals)


def _conditional_variance_params(s: CumulantSequence):
    # the quadratic-variance coefficients of the pair are determined by the
    # cumulants of S: a = R_3(S), b = R_4(S) - R_3(S)^2
    if s.order < 4:
        raise OrderCapError("need S cumulants at least to order 4")
    a = s.cumulant(3)
    b = s.cumulant(4) - a * a
    return a, b


def verify_quadratic_variance(pair: FreePairSpec, order: int) -> RegressionReport:
    """Check tau(V^2 S^n) = C (m_n + a m_{n+1} + b m_{n+2}) for
    0 <= n <= order, where V = beta X - alpha Y and
    C = alpha beta / (1+b)."""
    if order + 2 > pair.order:
        raise OrderCapError(
            f"need pair cumulants up to order {order + 2}, have {pair.order}"
        )
    x, y, m = _pair_moments(pair)
    a, b = _conditional_variance_params(pair.s_cumulants)
    if b == -1:
        raise DomainError("conditional-variance constant undefined at b = -1")
    alpha, beta = pair.alpha, pair.beta
    c = alpha * beta / (1 + b)
    # xx[n + 1] = tau(X X S^n), and likewise for the other three heads
    tail = ["S"] * order
    xx, xy, yx, yy = (
        free_pair_prefix_moments(x, y, list(head) + tail) for head in ("XX", "XY", "YX", "YY")
    )
    residuals = []
    orders = range(0, order + 1)
    for n in orders:
        lhs = (
            beta * beta * xx[n + 1]
            - alpha * beta * xy[n + 1]
            - alpha * beta * yx[n + 1]
            + alpha * alpha * yy[n + 1]
        )
        rhs = c * (m.moment(n) + a * m.moment(n + 1) + b * m.moment(n + 2))
        residuals.append(lhs - rhs)
    return _report("quadratic-variance", orders, residuals, constant=c)


def verify_mixed_cumulants(pair: FreePairSpec, order: int) -> RegressionReport:
    """Check R_n(V, S, ..., S) = 0 and R_n(V, V, S, ..., S) =
    alpha beta R_n(S) for 2 <= n <= order.

    Freeness reduces the multilinear cumulants to the univariate marginal
    ones: R_n(X, S, ..., S) = R_n(X), so the left sides expand by
    bilinearity into beta R_n(X) - alpha R_n(Y) and
    beta^2 R_n(X) + alpha^2 R_n(Y).
    """
    if order > pair.order:
        raise OrderCapError(f"need pair cumulants up to order {order}, have {pair.order}")
    x = pair.x_cumulants()
    y = pair.y_cumulants()
    alpha, beta = pair.alpha, pair.beta
    residuals = []
    orders = range(2, order + 1)
    for n in orders:
        rx, ry = x.cumulant(n), y.cumulant(n)
        linear = beta * rx - alpha * ry
        square = beta * beta * rx + alpha * alpha * ry - alpha * beta * (rx + ry)
        residuals.append(max(abs(linear), abs(square)))
    return _report("mixed-cumulants", orders, residuals)


def verify_moment_recursion(p: MeixnerParams, order: int) -> RegressionReport:
    """Check that moments built through the cumulant route satisfy the
    quadratic moment recursion

        (1+b) m_{n+2} = sum_{j=0}^{n} m_j (m_{n-j} + a m_{n+1-j} + b m_{n+2-j})

    at every order up to ``order``."""
    if p.b == -1:
        raise DomainError("the moment recursion is degenerate at b = -1")
    a, b = p.a, p.b
    m = cumulants_to_moments(cumulants(p, order, method="nc_le2"))
    residuals = []
    orders = range(2, order + 1)
    for target in orders:
        n = target - 2
        rhs = 0
        for j in range(n + 1):
            rhs += m.moment(j) * (
                m.moment(n - j) + a * m.moment(n + 1 - j) + b * m.moment(n + 2 - j)
            )
        residuals.append((1 + b) * m.moment(target) - rhs)
    return _report("moment-recursion", orders, residuals)


def verify_levy_martingale(l: LevyParams, s, u, order: int) -> RegressionReport:
    """Check the martingale moment identity tau(X_s X_u^n) =
    (s/u) tau(X_u^{n+1}) for 1 <= n <= order.

    X_u decomposes into the free increments X_s and X_u - X_s whose
    cumulants are the s/u and (u-s)/u shares of R_n(X_u), so this is the
    linear-regression identity on the time-u pair with alpha = s/u.
    """
    s = as_scalar(s)
    u = as_scalar(u)
    if not 0 < s < u:
        raise DomainError(f"need 0 < s < u, got s={s}, u={u}")
    base = cumulants(MeixnerParams(l.eta, l.sigma), order + 1, method="from_moments")
    pair = FreePairSpec(
        CumulantSequence(tuple(u * r for r in base.values)), alpha=s / u
    )
    return replace(verify_linear_regression(pair, order), identity="levy-martingale")


def verify_orthogonality(p: MeixnerParams, max_degree: int, tol) -> RegressionReport:
    """Check that the monic orthogonal polynomials P_1..P_max_degree are
    orthogonal to every lower degree and have squared norm (1+b)^(j-1)
    under a Gauss rule of the law, to the float tolerance ``tol``."""
    from . import numerics  # the float layer loads numpy and scipy

    rule = numerics.gauss_rule(p, max(11, max_degree + 1))
    orders, residuals, passed = [], [], []
    for j in range(1, max_degree + 1):
        worst = 0.0
        for i in range(j):
            val = rule.integrate(
                lambda x: float(orthogonal_polynomial(p, i, x))
                * float(orthogonal_polynomial(p, j, x))
            )
            worst = max(worst, abs(val))
        norm = rule.integrate(lambda x: float(orthogonal_polynomial(p, j, x)) ** 2)
        expected = float((1 + p.b)) ** (j - 1)
        worst = max(worst, abs(norm - expected) / max(1.0, expected))
        orders.append(j)
        residuals.append(worst)
        passed.append(worst <= tol)
    return RegressionReport(
        identity="orthogonality",
        orders=tuple(orders),
        residuals=tuple(residuals),
        passed=tuple(passed),
    )
