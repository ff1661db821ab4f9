"""Moment / free-cumulant calculus.

A moment sequence (m_0, ..., m_N) and a free-cumulant sequence
(R_1, ..., R_N) determine each other through the sum over non-crossing
partitions

    m_n = sum over NC(n) of prod over blocks B of R_{|B|}.

Decomposing each partition by the block containing 1 turns this into the
recursion

    m_n = sum_{s=1}^{n} R_s * sum_{i_1+...+i_s = n-s} m_{i_1} ... m_{i_s},

which is what the transforms below evaluate; the brute-force partition sum
stays available through :mod:`freemeixner.ncpart` as an independent check.
Free cumulants add under free convolution, which makes the convolution
algebra on cumulant sequences elementwise.

The kernels (both transforms, the free-pair recursion and the q-cumulant
recursion at every rational q) run on ints by weight, as
:mod:`freemeixner.scalars` describes.
"""

from __future__ import annotations

from .errors import DomainError, OrderCapError
from .scalars import Frozen, Scalar, as_scalar, from_weighted, is_exact, parts, to_weighted

# Largest order the O(N^3) transforms, the q-cumulant recursion and the
# O(N^4) free-pair interval recursion accept; each checks it before any work.
MAX_ORDER = 64


def _coerce_values(values):
    # From a list, not a generator: tuple() over a generator guesses a size
    # and shrinks the tuple, so each one ends up on CPython's free list for
    # its final size, and those lists grow until a full collection.
    return tuple([as_scalar(v) for v in values])


class MomentSequence(Frozen):
    """Raw moments (m_0, ..., m_N) of a probability law, with m_0 = 1."""

    __slots__ = ("values",)
    values: tuple[Scalar, ...]

    def __init__(self, values):
        values = _coerce_values(values)
        if not values:
            raise ValueError("moment sequence needs at least m_0")
        if values[0] != 1:
            raise ValueError(f"m_0 must be 1, got {values[0]}")
        object.__setattr__(self, "values", values)

    @property
    def order(self) -> int:
        return len(self.values) - 1

    @property
    def is_exact(self) -> bool:
        return all(is_exact(v) for v in self.values)

    def moment(self, n: int) -> Scalar:
        """m_n for 0 <= n <= order."""
        if not 0 <= n <= self.order:
            raise IndexError(f"moment order {n} outside 0..{self.order}")
        return self.values[n]


class CumulantSequence(Frozen):
    """Free cumulants (R_1, ..., R_N); any real sequence is admissible."""

    __slots__ = ("values",)
    values: tuple[Scalar, ...]

    def __init__(self, values):
        values = _coerce_values(values)
        if not values:
            raise ValueError("cumulant sequence needs at least R_1")
        object.__setattr__(self, "values", values)

    @property
    def order(self) -> int:
        return len(self.values)

    @property
    def is_exact(self) -> bool:
        return all(is_exact(v) for v in self.values)

    def cumulant(self, n: int) -> Scalar:
        """R_n for 1 <= n <= order."""
        if not 1 <= n <= self.order:
            raise IndexError(f"cumulant order {n} outside 1..{self.order}")
        return self.values[n - 1]


class FreePairSpec(Frozen):
    """A free pair (X, Y) determined by the cumulants of S = X + Y.

    ``alpha`` is the variance split tau(X^2) of a centered standardized
    pair; the marginal cumulants are derived, never stored, so they cannot
    drift out of sync: R_n(X) = alpha R_n(S) and R_n(Y) = (1-alpha) R_n(S).
    """

    __slots__ = ("s_cumulants", "alpha")
    s_cumulants: CumulantSequence
    alpha: Scalar

    def __init__(self, s_cumulants, alpha):
        alpha = as_scalar(alpha)
        if not 0 < alpha < 1:
            raise DomainError(f"alpha must lie in (0,1), got {alpha}")
        object.__setattr__(self, "s_cumulants", s_cumulants)
        object.__setattr__(self, "alpha", alpha)

    @property
    def beta(self) -> Scalar:
        return 1 - self.alpha

    @property
    def order(self) -> int:
        return self.s_cumulants.order

    def x_cumulants(self) -> CumulantSequence:
        return CumulantSequence([self.alpha * r for r in self.s_cumulants.values])

    def y_cumulants(self) -> CumulantSequence:
        beta = self.beta
        return CumulantSequence([beta * r for r in self.s_cumulants.values])


def _check_order(n):
    if n > MAX_ORDER:
        raise OrderCapError(f"order {n} exceeds the supported cap {MAX_ORDER}")


def _transform_loop(values, invert, one):
    """The loop of :func:`_free_transform` on values it does not rescale:
    ints R_n L^n (or m_n L^n) give ints m_n L^n (or R_n L^n).  Returns
    (output, power), with the ints power[s][t] = L^t [z^t] M(z)^s for
    s + t <= N, the order of ``values``."""
    m = [one]
    r = []
    power = [[one]]
    for n, given in enumerate(values, start=1):
        lower = 0
        for s in range(1, n):
            t = n - s
            prev = power[s - 1]
            acc = 0
            for j in range(t + 1):
                acc += prev[t - j] * m[j]
            power[s].append(acc)
            lower += r[s - 1] * acc
        power.append([one])  # [z^0] M^n = 1
        power[0].append(0)  # [z^n] M^0 = 0
        r_n = given - lower if invert else given
        r.append(r_n)
        m.append(lower + r_n)
    return (r if invert else m), power


def _free_transform(values, invert):
    """Moments from cumulants, or cumulants from moments when ``invert``.

    ``values`` holds (R_1, ..., R_N), or (m_1, ..., m_N) when inverting;
    returns (m_0, ..., m_N) or (R_1, ..., R_N).  The table
    power[s][t] = [z^t] M(z)^s depends only on m_0..m_t, so it grows one
    anti-diagonal s + t = n per order.  The full block enters m_n with
    coefficient power[n][0] = 1, so m_n = lower + R_n, where lower sums
    the blocks below n; the inverse reads R_n off that and keeps the
    moments it rebuilds, never the ones it was given.

    Every term of m_n has weight n (block sizes add up to n), so for
    rational values the loop holds the ints R_n L^n, m_n L^n and
    power[s][t] L^t.
    """
    one, scale, (values,) = to_weighted(values)
    out, _ = _transform_loop(values, invert, one)
    # r starts at weight 1, m at weight 0
    return from_weighted(out, scale, int(invert))


def cumulants_to_moments(r: CumulantSequence) -> MomentSequence:
    """Moments of the law whose free cumulants are ``r``.

    Exact when the cumulants are rational.  m_0 = 1 always.
    """
    _check_order(r.order)
    return MomentSequence(tuple(_free_transform(r.values, invert=False)))


def moments_to_cumulants(m: MomentSequence) -> CumulantSequence:
    """The unique cumulant sequence reproducing the given moments.

    Solves the partition sum order by order: the full-block partition
    contributes R_n linearly with coefficient 1, so each R_n is read off
    after subtracting the contribution of smaller blocks.
    """
    _check_order(m.order)
    if m.order < 1:
        raise ValueError("need at least m_1 to extract cumulants")
    return CumulantSequence(tuple(_free_transform(m.values[1:], invert=True)))


def free_convolve(r1: CumulantSequence, r2: CumulantSequence) -> CumulantSequence:
    """Cumulants of X + Y for free X, Y: elementwise sum."""
    if r1.order != r2.order:
        raise ValueError(f"order mismatch: {r1.order} vs {r2.order}")
    return CumulantSequence([a + b for a, b in zip(r1.values, r2.values)])


def convolution_power(r: CumulantSequence, t, formal: bool = False) -> CumulantSequence:
    """Cumulants of the t-fold free convolution power: R_n -> t R_n.

    The power is a probability law only for t >= 1; pass ``formal=True``
    to scale cumulants formally below that.
    """
    t = as_scalar(t)
    if t < 1 and not formal:
        raise DomainError(
            f"free convolution power requires t >= 1 (got {t}); "
            "set formal=True for formal cumulant scaling"
        )
    return CumulantSequence([t * v for v in r.values])


def dilate(r: CumulantSequence, lam) -> CumulantSequence:
    """Cumulants of the pushforward under x -> lam * x: R_n -> lam^n R_n."""
    lam = as_scalar(lam)
    return CumulantSequence([lam ** n * v for n, v in enumerate(r.values, start=1)])


def translate(r: CumulantSequence, c) -> CumulantSequence:
    """Cumulants of the law shifted by c; only R_1 moves."""
    c = as_scalar(c)
    return CumulantSequence((r.values[0] + c,) + r.values[1:])


_LETTER_COLOURS = {"X": 1, "Y": 2, "S": 3}


def free_pair_prefix_moments(
    x_cum: CumulantSequence, y_cum: CumulantSequence, word
) -> tuple[Scalar, ...]:
    """(tau(Z_1), tau(Z_1 Z_2), ..., tau(Z_1 ... Z_n)) for free X, Y with
    the given cumulants.

    Each Z_i is one of "X", "Y", "S" with S = X + Y.  Expanding every S by
    multilinearity and dropping mixed cumulants sums, over the non-crossing
    partitions of the word, a product over blocks of R_k(X) if the block
    is coloured X and R_k(Y) if it is coloured Y, where an X letter admits
    only X, a Y letter only Y and an S letter both.  The partitions are
    never listed.  Number the letters from 0, let m[i][j] be the moment of
    letters i..j-1 (m[i][i] = 1) and split on the block holding letter i.
    That block's colour and size k give its weight R_k, and its inner gaps
    and the stretch after it are shorter intervals:

        m[i][j] = sum over blocks i = p_1 < ... < p_k < j admitting a
                  common colour c of R_k(c) * m[p_1+1][p_2] * ...
                  * m[p_{k-1}+1][p_k] * m[p_k+1][j].

    Rows are filled from i = n-1 down to 0, so one pass gives every m[0][j].
    It costs O(n^4) multiplications at worst.  For rational cumulants the
    moments are exact Fractions, computed in ints: a term of m[i][j] has
    weight j - i, so the table holds L^(j-i) m[i][j] and the weights R_k L^k.
    """
    word = list(word)
    if not word:
        raise ValueError("word must be nonempty")
    n = len(word)
    _check_order(n)
    order = min(x_cum.order, y_cum.order)
    if n > order:
        raise OrderCapError(f"word length {n} exceeds available order {order}")
    try:
        colours = [_LETTER_COLOURS[w] for w in word]
    except KeyError as exc:
        raise ValueError(f"word symbols must be X, Y or S (got {exc.args[0]!r})") from exc

    # blocks have at most n letters, but the whole sequences decide exactness
    one, scale, (xv, yv) = to_weighted(
        x_cum.values[:n], y_cum.values[:n], also=x_cum.values[n:] + y_cum.values[n:])
    return tuple(from_weighted(_pair_prefix_loop(xv, yv, colours, one), scale, 1))


def _pair_prefix_loop(xv, yv, colours, one):
    """The interval recursion of :func:`free_pair_prefix_moments` on weights
    it does not rescale: given R_k(X) L^k and R_k(Y) L^k as ints, it returns
    the ints L^j tau(Z_1 ... Z_j), j = 1..n.  ``colours`` holds each letter's
    admissible colours as a bit mask (X = 1, Y = 2, S = 3).  An open chain
    of blocks is keyed by its last letter and the colours all its letters
    admit, so a mask-3 chain stands for both and closes with weight
    R_k(X) + R_k(Y).
    """
    n = len(colours)
    zero = one - one
    # an all-S block sums over both colours
    weights = {1: xv, 2: yv, 3: [a + b for a, b in zip(xv, yv)]}
    m = [[one] * (n + 1) for _ in range(n + 1)]
    for i in reversed(range(n)):
        # closed[p]: blocks from i to p, weighted, times their inner gaps
        closed = [zero] * n
        # open chains i = p_1 < ... < p_k = p keyed by (p, admissible colours)
        chains = {(i, colours[i]): one}
        for k in range(n - i):
            grown = {}
            for (q, c), v in chains.items():
                r = weights[c][k]
                if r:
                    closed[q] += r * v
                gaps = m[q + 1]
                for p in range(q + 1, n):
                    c2 = c & colours[p]
                    if c2 and gaps[p]:
                        key = (p, c2)
                        grown[key] = grown.get(key, zero) + v * gaps[p]
            chains = grown
        row = m[i]
        for j in range(i + 1, n + 1):
            acc = zero
            for p in range(i, j):
                if closed[p]:
                    acc += closed[p] * m[p + 1][j]
            row[j] = acc
    return m[0][1:]


def free_pair_moment(x_cum: CumulantSequence, y_cum: CumulantSequence, word) -> Scalar:
    """tau(Z_1 ... Z_n) for free X, Y with the given cumulants, by the
    first-block interval recursion of :func:`free_pair_prefix_moments`
    (O(n^4) multiplications at worst, exact for rational cumulants)."""
    return free_pair_prefix_moments(x_cum, y_cum, word)[-1]


def joint_moment_free_pair(pair: FreePairSpec, word) -> Scalar:
    """tau of a word in {X, Y, S} for an alpha-split free pair."""
    return free_pair_moment(pair.x_cumulants(), pair.y_cumulants(), word)


def _q_pascal(n_max: int, u, v) -> list[list[Scalar]]:
    """Rows 0..n_max of G[n][k] = v^(k(n-k)) [n choose k]_q for q = u/v, by the
    q-Pascal rule on them, G[n][k] = v^(n-k) G[n-1][k-1] + u^k G[n-1][k]: ints
    for integers u and v, [n choose k]_q in q's type for u = q and v = 1."""
    up = [u ** k for k in range(n_max + 1)]
    vp = [v ** k for k in range(n_max + 1)]
    one = up[0]
    rows = [[one]]
    for n in range(1, n_max + 1):
        prev, row = rows[-1], [one] * (n + 1)
        for k in range(1, n):
            row[k] = vp[n - k] * prev[k - 1] + up[k] * prev[k]
        rows.append(row)
    return rows


def q_binomial(n: int, k: int, q) -> Scalar:
    """Gaussian binomial coefficient [n choose k]_q; reduces to 1 at q = 0 and
    is a Fraction for rational q."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    # q has weight 1: L = v and q L = u
    _, v, ((u,),) = to_weighted((as_scalar(q),))
    return from_weighted([_q_pascal(n, u, v)[n][k]], v, k * (n - k))[0]


def q_cumulants(a, b, q, order: int) -> CumulantSequence:
    """The q-deformed cumulant recursion interpolating free (q=0) and
    classical (q=1) behavior.

    Starts from R_1 = 0, R_2 = 1 and applies

        R_{n+1} = a R_n + b * sum_{j=2}^{n-1} [n-1 choose j-1]_q R_j R_{n+1-j}

    for n >= 2.  At q = 0 this reproduces the free cumulants of the
    standardized law with parameters (a, b).

    R_n has weight n - 2 when a has weight 1 and b weight 2, so rational
    (a, b, q), q = u/v, run the loop on the ints a L, b L^2, the G[n][k] of
    :func:`_q_pascal` and r[k] = v^T(k+1) L^(k-1) R_{k+1}, T(m) = (m-2)(m-3)/2.
    Then every term of order n + 1 lacks the same power of v, v^(n-2) on the
    a-term and v^(n-3) on each b-term, which a and b carry.  v = 1 at q = 0, 1.
    """
    a, b, q = as_scalar(a), as_scalar(b), as_scalar(q)
    if not -1 < q <= 1:
        raise DomainError(f"q must lie in (-1, 1], got {q}")
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    _check_order(order)
    one, scale, ((a, b),) = to_weighted((a, b), also=(q,))
    # q = u/v when the loop runs on ints; an unscaled loop takes q whole
    u, v = parts(q, one)
    # at q = 0 every Gaussian binomial is 1
    binom = _q_pascal(order - 2, u, v) if u else [[1] * order] * order
    r = [one - one, one]
    for n in range(2, order):
        nxt = a * r[n - 1]
        for j in range(2, n):
            nxt += b * binom[n - 1][j - 1] * r[j - 1] * r[n - j]
        r.append(nxt)
        if v != 1:  # a carries v^(n-2) at order n + 1, b v^(n-3) from n = 3 on
            a, b = a * v, (b * v if n > 2 else b)
    # r[k] holds v^T(k+1) R_{k+1} L^(k-1) for k >= 1, and r[0] = R_1 = 0
    out = from_weighted(r[1:], scale, 0)
    if v != 1:
        out = [x / v ** ((k - 1) * (k - 2) // 2) for k, x in enumerate(out, start=1)]
    return CumulantSequence((r[0], *out))
