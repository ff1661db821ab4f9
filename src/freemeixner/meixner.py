"""The standardized free Meixner family of probability laws.

For parameters a real and b >= -1, mu_{a,b} is the mean-zero variance-one
law whose Cauchy-Stieltjes transform is

    G(z) = ((1+2b) z + a - sqrt((z-a)^2 - 4(1+b))) / (2 (b z^2 + a z + 1)),

equivalently the orthogonality measure of the monic polynomial system with
the constant-coefficient three-term recurrence

    x p_n = p_{n+1} + a p_n + (1+b) p_{n-1}   (n >= 2),

with p_0 = 1, p_1 = x, p_2 = x^2 - a x - 1.  The absolutely continuous part
is sqrt(4(1+b) - (x-a)^2) / (2 pi (b x^2 + a x + 1)) on the interval
[a - 2 sqrt(1+b), a + 2 sqrt(1+b)]; up to two atoms sit at real roots of
b x^2 + a x + 1 outside that interval, weighted by the residue of G there.
Which roots carry an atom follows from the signs of 1 + 2b and of
(1+2b)^2 - (1+b) a^2 alone (see :func:`atoms`).

The family splits into six types (semicircle, free Poisson, free Pascal,
free Gamma, pure free Meixner, free binomial) according to the sign of b
and of a^2 - 4b, and is closed under dilation, translation, and free
convolution powers.  Moment and cumulant computations below are exact for
rational (a, b), and so is the decision which roots are atoms.  The
analytic layer works in double precision, in forms where no term cancels:
the roots as 1/q and q/b (:func:`poles`), and G as 1/(z - 2/(z - a + w)).
"""

from __future__ import annotations

import cmath
import enum
import math

from .cumulants import (
    CumulantSequence,
    MomentSequence,
    moments_to_cumulants,
    q_cumulants,
)
from .errors import DomainError
from .scalars import (Frozen, Scalar, as_scalar, exact_sqrt, from_weighted, is_exact, parts,
                      to_weighted)


class MeixnerParams(Frozen):
    """Parameters (a, b) of a standardized free Meixner law; b >= -1."""

    __slots__ = ("a", "b")
    a: Scalar
    b: Scalar

    def __init__(self, a, b):
        a = as_scalar(a)
        b = as_scalar(b)
        if b < -1:
            raise DomainError(f"b must be >= -1, got {b}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def is_exact(self) -> bool:
        return is_exact(self.a) and is_exact(self.b)


class SemicircleParams(Frozen):
    """Mean and variance of a semicircle law (variance 0 means a point mass)."""

    __slots__ = ("mean", "variance")
    mean: Scalar
    variance: Scalar

    def __init__(self, mean, variance):
        mean = as_scalar(mean)
        variance = as_scalar(variance)
        if variance < 0:
            raise DomainError(f"variance must be >= 0, got {variance}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", variance)


class LevyParams(Frozen):
    """Drift/curvature parameters (eta, sigma) of the quadratic-variance
    free Levy process; sigma >= 0."""

    __slots__ = ("eta", "sigma")
    eta: Scalar
    sigma: Scalar

    def __init__(self, eta, sigma):
        eta = as_scalar(eta)
        sigma = as_scalar(sigma)
        if sigma < 0:
            raise DomainError(f"sigma must be >= 0, got {sigma}")
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "sigma", sigma)


class MeixnerType(enum.Enum):
    SEMICIRCLE = "Semicircle"
    FREE_POISSON = "FreePoisson"
    FREE_PASCAL = "FreePascal"
    FREE_GAMMA = "FreeGamma"
    PURE_FREE_MEIXNER = "PureFreeMeixner"
    FREE_BINOMIAL = "FreeBinomial"


def support(p: MeixnerParams) -> tuple[float, float]:
    """Endpoints of the continuous support, [a - 2 sqrt(1+b), a + 2 sqrt(1+b)]."""
    a = float(p.a)
    half = 2.0 * math.sqrt(float(1 + p.b))
    return (a - half, a + half)


def density(p: MeixnerParams, x: float) -> float:
    """Absolutely continuous density at x; 0 outside the open support.

    Returns exactly 0 at the support endpoints (even where the density has
    an integrable edge singularity) so that grid evaluation never divides
    0 by 0; the endpoints carry no mass either way.
    """
    a = float(p.a)
    b = float(p.b)
    x = float(x)
    lo, hi = support(p)
    if x <= lo or x >= hi:
        return 0.0
    rad = 4.0 * (1.0 + b) - (x - a) ** 2
    q = b * x * x + a * x + 1.0
    if q <= 0.0:
        raise DomainError(
            f"density denominator b x^2 + a x + 1 vanished inside the support at x={x}"
        )
    return math.sqrt(max(rad, 0.0)) / (2.0 * math.pi * q)


def _discriminant(p: MeixnerParams):
    """d = a^2 - 4b in the parameters' own type, and sqrt(d) as a float, or
    None when d < 0.

    Where a^2 leaves the float range, sqrt(d) is |a| sqrt(1 - 4b/a^2), and a
    float d, which reads inf or inf - inf there, becomes +-inf with the sign
    of 1 - 4b/a^2.
    """
    a, b = p.a, p.b
    d = a * a - 4 * b
    if d < 0:
        return d, None
    try:
        root = math.sqrt(float(d))
    except OverflowError:  # an exact d beyond the float range
        root = math.inf
    if root < math.inf:
        return d, root
    s = 1 - 4 * (b / a) / a  # d / a^2
    if type(d) is float:
        d = math.copysign(math.inf, s)
    return d, (abs(float(a)) * math.sqrt(s) if s >= 0 else None)


def poles(p: MeixnerParams) -> list[float]:
    """Real roots of b x^2 + a x + 1, the zeros of the density's denominator;
    a double root (on the free Gamma parabola a^2 = 4b) is listed twice.

    With d = a^2 - 4b and q = -(a + sign(a) sqrt(d))/2 the roots are 1/q,
    which is -1/a at b = 0, and q/b; neither is a difference of near-equal
    terms.  At b = 0 the one root is -1/a.
    """
    a = float(p.a)
    b = float(p.b)
    if b == 0.0:
        return [] if a == 0.0 else [-1.0 / a]
    root = _discriminant(p)[1]
    if root is None:
        return []
    q = -0.5 * (a + math.copysign(root, a))
    return [1.0 / q, q / b]


def atoms(p: MeixnerParams) -> list[tuple[float, float]]:
    """Point masses of the law as (location, weight) pairs, by location.

    At a root x0 = (-a + s sqrt(d))/(2b) of b x^2 + a x + 1 (s = +-1,
    d = a^2 - 4b), ((1+2b) x0 + a)^2 = (x0-a)^2 - 4(1+b), so the square
    root in the residue of the Cauchy transform is +-((1+2b) x0 + a),
    signed like x0 - a.  The residue is zero unless (1+2b) x0 + a and
    x0 - a have opposite signs, and then it is ((1+2b) x0 + a)/(2b x0 + a).
    Worked out, those signs depend only on the signs of 1 + 2b and of
    E = 1 - (1+b) d = (1+2b)^2 - (1+b) a^2, which vanishes where an atom
    meets a support edge:

    - the root 1/q of :func:`poles` (s = sign a) is an atom iff E < 0 or
      b < -1/2;
    - the root q/b (s = -sign a) is an atom iff b < -1/2 and E > 0.

    E is computed in the parameters' own type, so the decision is exact for
    rational (a, b).  With K = |a| + |1+2b| sqrt(d) the weights are
    2|E|/(sqrt(d) K), or K/(2|b| sqrt(d)) for 1/q when b <= -1/2; E enters
    as E/d = 1/d - (1+b), so no term cancels or grows beyond a^2 - 4b.
    sqrt(d) and K enter divided by the power of two of sqrt(d), which moves
    no bit of a weight and keeps them finite where a^2 leaves the float
    range.  A double root (d = 0, E = 1) is never an atom, and an atom
    always lies outside the open support.
    """
    a, b = p.a, p.b
    c = 1 + 2 * b
    d, r = _discriminant(p)
    if d <= 0:
        return []
    # E / d, with the sign of E; 1/d of an infinite float d is 1/r^2
    e = (1 / d if d < math.inf else 1 / r / r) - (1 + b)
    x = poles(p)
    found = []
    if e < 0 or c < 0:
        r, power = math.frexp(r)
        k = math.ldexp(abs(float(a)), -power) + abs(float(c)) * r
        w = -2.0 * float(e) * r / k if c > 0 else k / (2.0 * abs(float(b)) * r)
        found.append((x[0], w))
        if c < 0 < e:
            found.append((x[1], 2.0 * float(e) * r / k))
    return sorted(found)


class MeixnerLaw(Frozen):
    """A free Meixner law with its derived support and atom list."""

    __slots__ = ("params", "support", "atoms")
    params: MeixnerParams
    support: tuple[float, float]
    atoms: tuple[tuple[float, float], ...]

    def __init__(self, params, support, atoms):
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "atoms", atoms)

    @classmethod
    def from_params(cls, p: MeixnerParams) -> "MeixnerLaw":
        return cls(params=p, support=support(p), atoms=tuple(atoms(p)))

    def density(self, x: float) -> float:
        return density(self.params, x)


def cauchy_transform(p: MeixnerParams, z: complex) -> complex:
    """G(z) = integral of 1/(z - y) against the law.

    With w = sqrt((z-a)^2 - 4(1+b)) on the branch with w ~ (z-a) at
    infinity, G(z) ~ 1/z and Im G <= 0 on the upper half plane.  Since
    (z - a + w)(z - a - w) = 4(1+b), G = 1/(z - 2/(z - a + w)) for every
    b >= -1: no term is O(1+b), and at b = -1, where w = z - a, this is
    the two-atom transform (z-a)/(z^2 - a z - 1).  Real z must avoid the
    support and the atoms, where z - 2/(z - a + w) vanishes.
    """
    a = float(p.a)
    b = float(p.b)
    z = complex(z)
    lo, hi = support(p)
    if z.imag == 0.0:
        x = z.real
        if lo < hi and lo <= x <= hi:
            raise DomainError(
                f"Cauchy transform undefined on the support [{lo:g}, {hi:g}] (x={x:g})"
            )
    half = 2.0 * math.sqrt(1.0 + b)
    u = z - a + cmath.sqrt(z - a - half) * cmath.sqrt(z - a + half)
    if u == 0:  # only at z = a when b = -1, since u (z - a - w) = 4(1+b); G(a) = 0 there
        return 0j
    denom = z - 2.0 / u
    if z.imag == 0.0 and abs(denom) <= 1e-12 * (1.0 + abs(z.real)):
        raise DomainError(f"Cauchy transform has a pole (atom) at z={z.real:g}")
    return 1.0 / denom


def series_radius(p: MeixnerParams) -> float:
    """Conservative |z| bound keeping 30-term power series at float accuracy."""
    return 0.2 / (1.0 + abs(float(p.a)) + math.sqrt(1.0 + abs(float(p.b))))


def r_transform(p: MeixnerParams, z: complex) -> complex:
    """R-transform r(z) = 2z / (1 - az + sqrt((1-az)^2 - 4 z^2 b)).

    Evaluated on the branch continuous at 0 with r(0) = 0; the power-series
    coefficients of r are the free cumulants shifted by one index, and r
    always satisfies z b r^2 - (1 - a z) r + z = 0.
    """
    a = float(p.a)
    b = float(p.b)
    z = complex(z)
    if abs(z) > series_radius(p):
        raise DomainError(
            f"|z| = {abs(z):g} exceeds the guarded radius {series_radius(p):g}"
        )
    rad = (1.0 - a * z) ** 2 - 4.0 * z * z * b
    if rad.real <= 0.0 and abs(rad.imag) <= 1e-12 * (1.0 + abs(rad)):
        raise DomainError("z too close to a branch point of the R-transform")
    denom = 1.0 - a * z + cmath.sqrt(rad)
    if abs(denom) <= 1e-300:
        raise DomainError("R-transform denominator vanished")
    return 2.0 * z / denom


def _bracket(a, b, scale, one):
    """(E, E L^2, a E L, b E) for E = lcm(den a, den b): times E L^(k+2),
    m_k + a m_{k+1} + b m_{k+2} is E L^2 M_k + a E L M_{k+1} + b E M_{k+2}
    in the moments M_k = L^k m_k.  For floats E = 1 and L = 1."""
    (an, ad), (bn, bd) = parts(a, one), parts(b, one)
    e = math.lcm(ad, bd)
    return e, e * scale * scale, an * (e // ad) * scale, bn * (e // bd)


def moments(p: MeixnerParams, order: int) -> MomentSequence:
    """Raw moments (m_0, ..., m_order); exact for rational parameters.

    Uses the quadratic recursion

        m_{n+2} = m_n + a m_{n+1}
                  + sum_{j=1}^{n} m_j (m_{n-j} + a m_{n+1-j} + b m_{n+2-j}),

    obtained by isolating the j = 0 term of the conditional-variance
    recursion; at b = -1 the law is two atoms on the roots of
    x^2 - a x - 1, so m_{n+2} = a m_{n+1} + m_n instead.

    It runs on M_n = L^n m_n, in ints for rational (a, b), with the
    coefficients of :func:`_bracket`: times E L^(n+2) the recursion gives
    E M_{n+2} from head[k] = E L^2 M_k + a E L M_{k+1} and b E.  The
    division by E is exact: by induction, times L^n every term of the
    recursion for m_{n+2} is an integer, so M_{n+2} is one.  For floats
    E = L = 1.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    one, scale, _ = to_weighted((p.a, p.b))
    e, el2, ea, eb = _bracket(p.a, p.b, scale, one)
    two_atoms = p.b == -1
    m = [one, one - one]
    head = [el2 * m[0] + ea * m[1]]
    for n in range(order - 1):
        nxt = head[n]
        if not two_atoms:
            for j in range(1, n + 1):
                nxt += m[j] * (head[n - j] + eb * m[n + 2 - j])
        m.append(nxt if e == 1 else nxt // e)
        head.append(el2 * m[n + 1] + ea * m[n + 2])
    return MomentSequence(tuple(from_weighted(m[: order + 1], scale, 0)))


def semicircle_moments(w: SemicircleParams, order: int) -> MomentSequence:
    """Raw moments of the semicircle law with the given mean and variance.

    Central moments are Catalan(k) * variance^k at order 2k and zero at odd
    orders; raw moments follow by a binomial shift.  With the mean of weight 1
    and the variance of weight 2, m_n has weight n, so rational parameters
    run the loops on the ints mean L, variance L^2 and m_n L^n.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    _, scale, ((mean, var),) = to_weighted((w.mean, w.variance))
    central: list[Scalar] = []
    for n in range(order + 1):
        if n % 2 == 1:
            central.append(0)
        else:
            k = n // 2
            catalan = math.comb(2 * k, k) // (k + 1)
            central.append(catalan * var ** k)
    raw = []
    for n in range(order + 1):
        acc = 0
        for j in range(n + 1):
            acc += math.comb(n, j) * mean ** (n - j) * central[j]
        raw.append(acc)
    return MomentSequence(tuple(from_weighted(raw, scale, 0)))


def cumulants(p: MeixnerParams, order: int, method: str = "nc_le2") -> CumulantSequence:
    """Free cumulants (R_1, ..., R_order) of mu_{a,b}.

    All methods agree exactly; each one exercises a different identity:

    - ``nc_le2``: R_{n+2} = sum over non-crossing pair/singleton partitions
      of {1..n} of a^(#singletons) b^(#pairs), valid for every b >= -1,
      evaluated by the first-block recursion up to ``MAX_ORDER``;
    - ``semicircle``: R_{n+2} is the n-th raw moment of the semicircle law
      with mean a and variance b (requires b >= 0, where that is a measure);
    - ``from_moments``: invert the moment recursion through the general
      moment/cumulant transform.
    """
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    a, b = p.a, p.b
    if method == "nc_le2":
        # splitting the pair-partition sum on the block holding 1 gives the q = 0 recursion
        return q_cumulants(a, b, 0, order)
    if method == "semicircle":
        if b < 0:
            raise DomainError(
                f"semicircle method needs b >= 0 (got b={b}); the shifted "
                "semicircle is not a measure below that"
            )
        sm = semicircle_moments(SemicircleParams(a, b), order - 2).values
        # R_1 = 0 in the type of m_0, as the other methods give it
        return CumulantSequence((type(sm[0])(0),) + sm)
    if method == "from_moments":
        return moments_to_cumulants(moments(p, order))
    raise ValueError(f"unknown method {method!r}; use nc_le2, semicircle or from_moments")


def orthogonal_polynomial(p: MeixnerParams, n: int, x) -> Scalar:
    """Value of the n-th monic orthogonal polynomial of the law at x."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    x = as_scalar(x)
    a, b = p.a, p.b
    if n == 0:
        return 1 * x ** 0
    prev = 1 * x ** 0
    cur = x
    # first recursion step has off-diagonal coefficient 1, later ones 1+b
    for k in range(1, n):
        off = 1 if k == 1 else 1 + b
        prev, cur = cur, (x - a) * cur - off * prev
    return cur


def jacobi_coefficients(p: MeixnerParams, n: int) -> tuple[tuple, tuple]:
    """Diagonal and off-diagonal of the n x n Jacobi matrix of the law.

    Diagonal (0, a, a, ...); off-diagonal entries are the positive square
    roots of (1, 1+b, 1+b, ...).
    """
    if n < 1:
        raise ValueError(f"size must be >= 1, got {n}")
    a, b = p.a, p.b
    diag = (0,) + (a,) * (n - 1)
    if n == 1:
        return diag, ()
    off = (1,) + (exact_sqrt(1 + b),) * (n - 2)
    return diag, off


def classify(p: MeixnerParams) -> MeixnerType:
    """Which of the six types the law belongs to.

    Boundaries are decided exactly for rational parameters; for floats the
    free Gamma parabola a^2 = 4b is tested with tolerance 1e-12.
    """
    a, b = p.a, p.b
    if b < -1:
        raise DomainError(f"b must be >= -1, got {b}")
    if b < 0:
        return MeixnerType.FREE_BINOMIAL
    if b == 0:
        return MeixnerType.SEMICIRCLE if a == 0 else MeixnerType.FREE_POISSON
    gap = a * a - 4 * b
    if not p.is_exact and abs(gap) <= 1e-12:
        gap = 0
    if gap > 0:
        return MeixnerType.FREE_PASCAL
    if gap == 0:
        return MeixnerType.FREE_GAMMA
    return MeixnerType.PURE_FREE_MEIXNER


def binomial_decomposition(p: MeixnerParams):
    """Write a free binomial law as a dilated convolution power of a
    two-point law: mu_{a,b} = D_lam(mu_{a/lam, -1} ^ boxplus t) with
    t = -1/b and lam = sqrt(|b|).  Requires -1 <= b < 0."""
    a, b = p.a, p.b
    if not b < 0:
        raise DomainError(f"binomial decomposition needs -1 <= b < 0, got b={b}")
    lam = exact_sqrt(-b)
    two_point = MeixnerParams(a / lam, -1)
    t = -1 / b
    return two_point, t, lam


def levy_marginal(l: LevyParams, t) -> tuple[MeixnerParams, Scalar]:
    """Law of the time-t marginal of the quadratic-variance free Levy
    process: a dilation by sqrt(t) of mu_{eta/sqrt(t), sigma/t}.

    Returns the standardized parameters and the dilation factor.  The
    R-transform of the marginal is 2 z t / (1 - eta z
    + sqrt((1 - eta z)^2 - 4 z^2 sigma)).
    """
    t = as_scalar(t)
    if t <= 0:
        raise DomainError(f"time must be > 0, got {t}")
    root = exact_sqrt(t)
    params = MeixnerParams(l.eta / root, l.sigma / t)
    return params, root


def moment_generating(p: MeixnerParams, z: complex, order: int = 30) -> complex:
    """Truncated moment generating series M(z) = sum m_n z^n, n <= order.

    Within the guarded radius the truncation error sits below float
    precision, and M satisfies
    (z^2 + a z + b) M^2 - (1 + a z + 2 b) M + 1 + b = 0 up to that error.
    """
    z = complex(z)
    if abs(z) > series_radius(p):
        raise DomainError(
            f"|z| = {abs(z):g} exceeds the guarded radius {series_radius(p):g}"
        )
    ms = moments(p, order)
    acc = 0j
    for m in reversed(ms.values):
        acc = acc * z + complex(float(m))
    return acc
