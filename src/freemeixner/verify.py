"""Machine verification of the conditional-moment identities.

For a free, centered, standardized pair (X, Y) with S = X + Y whose
marginal cumulants split as R_n(X) = alpha R_n(S), the law of S is a free
Meixner law and the pair satisfies, at every moment order,

    tau(X S^n)   = alpha tau(S^{n+1})                      (linear regression)
    tau(V^2 S^n) = C (m_n + a m_{n+1} + b m_{n+2})         (quadratic variance)

with V = beta X - alpha Y, beta = 1 - alpha, C = alpha beta / (1+b), and
the mixed cumulants obey R_n(V, S, ..., S) = 0 and
R_n(V, V, S, ..., S) = alpha beta R_n(S).  The verifiers below evaluate
both sides of each identity and report residuals per order.  The left
sides are sums over the power table of S, as set out next; the interval
recursion ``free_pair_prefix_moments`` is the tests' independent engine
for them.

Each pair check reads the marginal cumulants through
``pair.x_cumulants()`` and ``pair.y_cumulants()`` once and puts them on
one integer context by weight, as :mod:`freemeixner.scalars` describes:
the scaled block weights of S and, for V = den(alpha) (beta X - alpha Y),
of blocks holding one or two V's, which the mixed-cumulant check reads
directly.  Regression and quadratic variance also run the int loop of the
moment/cumulant transform on the weights of S, for the ints L^n m_n and
the table P[s][t] = L^t [z^t] M_S(z)^s.  A left side splits on the block
holding the first letter, whose gaps are words in S, except that the
second V of V V S^n may open the first gap.  So it is a short sum over P
of the block weights of V; the regression residual tau(X S^n) - alpha
m_{n+1} is tau(V S^n) / den(alpha), one such sum.  Right sides come from
the S moments.  Every residual is formed in ints, as lhs D - rhs D where D
clears every denominator; the moment recursion does the same on the
moments of the law.  Float residuals have a per-order tolerance of 1e-10.
The orthogonality check of the law's monic polynomials always runs in
floats, against a Gauss rule, with a caller-given tolerance.
"""

from __future__ import annotations

from .cumulants import (
    CumulantSequence,
    FreePairSpec,
    _check_order,
    _transform_loop,
    convolution_power,
)
from .errors import DomainError, OrderCapError
from .meixner import LevyParams, MeixnerParams, _bracket, cumulants
from .scalars import (Frozen, Scalar, as_scalar, exact_sqrt, from_weighted, is_exact, parts,
                      to_weighted)

FLOAT_TOLERANCE = 1e-10


class RegressionReport(Frozen):
    """Outcome of one identity check: residuals and pass/fail per order."""

    __slots__ = ("identity", "orders", "residuals", "passed", "constant")
    identity: str
    orders: tuple[int, ...]
    residuals: tuple[Scalar, ...]
    passed: tuple[bool, ...]
    constant: Scalar | None

    def __init__(self, identity, orders, residuals, passed, constant=None):
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "residuals", residuals)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "constant", constant)

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


def _report(identity, orders, residuals, constant=None, tol=FLOAT_TOLERANCE) -> RegressionReport:
    passed = []
    for r in residuals:
        if is_exact(r):
            passed.append(r == 0)
        else:
            passed.append(abs(r) <= tol)
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
    return FreePairSpec(cumulants(p, order), alpha)


def _pair_context(pair: FreePairSpec, order: int, *coefficients):
    """The pair's cumulants up to ``order`` as block weights on one
    denominator L by weight.

    Returns (unit, L, p, q, S, one, two) for alpha = p / q, with
    S[k-1] = L^k R_k(S) and, for V = q (beta X - alpha Y),
    one[k-1] = q L^k R_k(V, S, ..., S) and two[k-1] = q^2 L^k R_k(V, V, S, ..., S),
    from R_k(X) and R_k(Y) as read through ``pair.x_cumulants()`` and
    ``pair.y_cumulants()``: a V brings q - p to an X block, -p to a Y block.
    The context is exact, with unit = 1, when those cumulants, alpha and the
    given ``coefficients`` are; else unit = 1.0, L = q = 1 and p = alpha.
    """
    if order > pair.order:
        raise OrderCapError(f"need pair cumulants up to order {order}, have {pair.order}")
    unit, scale, (xs, ys) = to_weighted(
        pair.x_cumulants().values[:order], pair.y_cumulants().values[:order],
        also=(pair.alpha, *coefficients))
    p, q = parts(pair.alpha, unit)
    cx, cy = q - p, -p
    return (unit, scale, p, q, [u + v for u, v in zip(xs, ys)],
            [cx * u + cy * v for u, v in zip(xs, ys)],
            [cx * cx * u + cy * cy * v for u, v in zip(xs, ys)])


def _heads(weights, rows, order):
    """sum_s weights[s] rows[s][t - s] for t = 0..order: the block holding the
    first letter, of s + 1 letters, and its gaps in S, of t - s letters in
    all, counted by rows[s]."""
    return [sum([weights[s] * rows[s][t - s] for s in range(t + 1)])
            for t in range(order + 1)]


def _variance_lhs(one, two, power, order):
    """q^2 L^(n+2) tau(V V S^n) for n = 0..order.  The first block holds both
    V's and s - 1 S letters, with s gaps after the second V; or it holds
    only the first V, the second opens its first gap V S^j, with
    u[j] = q L^(j+1) tau(V S^j), and d[t] counts the block with its other
    gaps, which hold t S letters."""
    u, d = _heads(one, power[1:], order), _heads(one, power, order)
    both = _heads(two, power, order + 1)
    return [both[n + 1] + sum([u[j] * d[n - j] for j in range(n + 1)])
            for n in range(order + 1)]


def verify_linear_regression(pair: FreePairSpec, order: int) -> RegressionReport:
    """Check tau(X S^n) = alpha m_{n+1} for 1 <= n <= order.

    The residual times q is tau(V S^n) for V = q (beta X - alpha Y), the
    head sum of ``one`` over the power table of S."""
    unit, scale, p, q, ss, one, _ = _pair_context(pair, order + 1)
    _check_order(order + 1)
    _, power = _transform_loop(ss, False, unit)
    # q L^(n+1) tau(V S^n): a first block of k letters has k gaps
    residuals = _heads(one, power[1:], order)[1:]
    return _report("linear-regression", range(1, order + 1),
                   from_weighted(residuals, scale, 2, q))


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
    # a and b come from R_3(S) and R_4(S), so those decide exactness too
    unit, scale, p, q, ss, one, two = _pair_context(
        pair, order + 2, *pair.s_cumulants.values[2:4])
    a, b = _conditional_variance_params(pair.s_cumulants)
    if b == -1:
        raise DomainError("conditional-variance constant undefined at b = -1")
    c = pair.alpha * pair.beta / (1 + b)
    _check_order(order + 2)  # after the b = -1 refusal, which wins over the cap
    ms, power = _transform_loop(ss, False, unit)
    # lhs[n] = q^2 L^(n+2) tau(V V S^n)
    lhs = _variance_lhs(one, two, power, order)
    e, el2, ea, eb = _bracket(a, b, scale, unit)
    cn, cd = parts(c, unit)
    left, right = cd * e, q * q * cn
    orders = range(0, order + 1)
    # each residual times q^2 cd E L^(n+2)
    residuals = [
        left * lhs[n] - right * (el2 * ms[n] + ea * ms[n + 1] + eb * ms[n + 2])
        for n in orders
    ]
    residuals = from_weighted(residuals, scale, 2, q * q * cd * e)
    return _report("quadratic-variance", orders, residuals, constant=c)


def verify_mixed_cumulants(pair: FreePairSpec, order: int) -> RegressionReport:
    """Check R_n(V, S, ..., S) = 0 and R_n(V, V, S, ..., S) =
    alpha beta R_n(S) for 2 <= n <= order.

    Freeness reduces the multilinear cumulants to the univariate marginal
    ones: R_n(X, S, ..., S) = R_n(X), so the left sides expand by
    bilinearity into beta R_n(X) - alpha R_n(Y) and
    beta^2 R_n(X) + alpha^2 R_n(Y).
    """
    _, scale, p, q, ss, one, two = _pair_context(pair, order)
    _check_order(order)
    # R_n(V, S, ...) times q L^n, and R_n(V, V, S, ...) - alpha beta R_n(S) times q^2 L^n
    square = [w - p * (q - p) * r for w, r in zip(two, ss)]
    one = from_weighted(one, scale, 1, q)
    square = from_weighted(square, scale, 1, q * q)
    orders = range(2, order + 1)
    residuals = [max(abs(one[n - 1]), abs(square[n - 1])) for n in orders]
    return _report("mixed-cumulants", orders, residuals)


def verify_moment_recursion(p: MeixnerParams, order: int) -> RegressionReport:
    """Check that moments built through the cumulant route satisfy the
    quadratic moment recursion

        (1+b) m_{n+2} = sum_{j=0}^{n} m_j (m_{n-j} + a m_{n+1-j} + b m_{n+2-j})

    at every order up to ``order``.

    The cumulants come from the q = 0 recursion, the same route
    ``build_free_pair`` and ``verify_levy_martingale`` take, while
    ``meixner.moments`` runs this moment recursion directly; so this stays
    the check that the two agree."""
    if p.b == -1:
        raise DomainError("the moment recursion is degenerate at b = -1")
    unit, scale, (rs,) = to_weighted(cumulants(p, order).values)
    ms, _ = _transform_loop(rs, False, unit)  # ms[n] = L^n m_n
    e, el2, ea, eb = _bracket(p.a, p.b, scale, unit)
    top = e + eb  # (1+b) E
    residuals = []
    orders = range(2, order + 1)
    for target in orders:
        n = target - 2
        rhs = 0
        for j in range(n + 1):
            rhs += ms[j] * (el2 * ms[n - j] + ea * ms[n + 1 - j] + eb * ms[n + 2 - j])
        residuals.append(top * ms[target] - rhs)
    return _report("moment-recursion", orders, from_weighted(residuals, scale, 2, e))


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
    base = cumulants(MeixnerParams(l.eta, l.sigma), order + 1)
    pair = FreePairSpec(convolution_power(base, u, formal=True), alpha=s / u)
    rep = verify_linear_regression(pair, order)
    return RegressionReport("levy-martingale", rep.orders, rep.residuals, rep.passed, rep.constant)


def verify_orthogonality(p: MeixnerParams, max_degree: int, tol) -> RegressionReport:
    """Check that the monic orthogonal polynomials P_1..P_max_degree are
    orthogonal to every lower degree and have squared norm (1+b)^(j-1)
    under a Gauss rule of the law, to the float tolerance ``tol``.

    P_0..P_max_degree are evaluated at every node at once by the
    three-term recurrence P_{k+1} = (x - a) P_k - c_k P_{k-1}, with P_1 = x,
    c_1 = 1 and c_k = 1 + b after that."""
    from .numerics import gauss_rule  # the float layer loads only for this check

    rule = gauss_rule(p, max(11, max_degree + 1))
    nodes, weights = rule.nodes, rule.weights
    a = float(p.a)
    spread = float(1 + p.b)
    values = [[1.0] * len(nodes), list(nodes)]  # values[k][i] = P_k(nodes[i])
    for k in range(1, max_degree):
        off = 1.0 if k == 1 else spread
        values.append(
            [(x - a) * pk - off * pl for x, pk, pl in zip(nodes, values[k], values[k - 1])]
        )
    residuals = []
    for j in range(1, max_degree + 1):
        pj = values[j]
        worst = 0.0
        for i in range(j):
            val = sum([w * (u * v) for w, u, v in zip(weights, values[i], pj)])
            worst = max(worst, abs(val))
        norm = sum([w * v ** 2 for w, v in zip(weights, pj)])
        expected = spread ** (j - 1)
        residuals.append(max(worst, abs(norm - expected) / max(1.0, expected)))
    return _report("orthogonality", range(1, max_degree + 1), residuals, tol=tol)
