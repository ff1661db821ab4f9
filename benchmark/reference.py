"""Independent reference values, computed without the library.

The free Meixner cumulants satisfy R_1 = 0, R_2 = 1 and R_{n+2} = M_n(a, b),
the Motzkin polynomial with level steps weighted a and matched up/down
steps weighted b:

    M_0 = 1,  M_n = a M_{n-1} + b sum_{k=0}^{n-2} M_k M_{n-2-k}.

This is the weighted-path form of the NC<=2 sum, evaluated in O(n^2)
without enumerating partitions or inverting moments, so it checks all
three library methods.  The q-deformed recursion is re-derived here with
Gaussian binomials from the q-Pascal rule.
"""

from __future__ import annotations

from fractions import Fraction


def meixner_cumulants(a, b, order):
    """(R_1, ..., R_order) of mu_{a,b}."""
    motzkin = [Fraction(1) if isinstance(a, Fraction) else 1.0]
    for n in range(1, max(order - 1, 1)):
        acc = a * motzkin[n - 1]
        for k in range(n - 1):
            acc += b * motzkin[k] * motzkin[n - 2 - k]
        motzkin.append(acc)
    one = motzkin[0]
    return tuple([0 * one, one] + motzkin[1 : order - 1])[:order]


def q_binomials(n_max, q):
    """Rows [n choose k]_q for n <= n_max by [n,k] = [n-1,k-1] + q^k [n-1,k]."""
    rows = [[Fraction(1)]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        row = [Fraction(1)]
        for k in range(1, n):
            row.append(prev[k - 1] + q ** k * prev[k])
        row.append(Fraction(1))
        rows.append(row)
    return rows


def q_cumulants(a, b, q, order):
    """R_{n+1} = a R_n + b sum_{j=2}^{n-1} [n-1, j-1]_q R_j R_{n+1-j}, R_1 = 0, R_2 = 1."""
    binom = q_binomials(order, q)
    r = [Fraction(0), Fraction(1)]
    for n in range(2, order):
        nxt = a * r[n - 1]
        for j in range(2, n):
            nxt += b * binom[n - 1][j - 1] * r[j - 1] * r[n - j]
        r.append(nxt)
    return tuple(r[:order])


def dilated_moments(moments, lam):
    """Moments of x -> lam x: m_n lam^n."""
    return tuple(m * lam ** n for n, m in enumerate(moments))
