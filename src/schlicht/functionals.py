"""Coefficient functionals on normalized series, reported against
their sharp bounds.

The checks return caratheodory.MarginReport: margin = bound - value,
so a nonnegative margin means the sharp inequality held, and equality
cases come out as (numerically) zero margin.
"""

from __future__ import annotations

import math

import numpy as np

from .caratheodory import MarginReport, _modulus
from .errors import InvalidParameter, OrderTooLow
from .series import (
    TruncatedSeries,
    require_count,
    require_normalized,
    require_real,
)
from .transforms import OmittedValue


def _coeff(f: TruncatedSeries, k: int) -> complex:
    return complex(f.coeffs[k])


def _require_normalized_order(f: TruncatedSeries, order: int) -> None:
    """Raise unless f is normalized and carries a_order."""
    require_normalized(f)
    if f.order < order:
        raise OrderTooLow(f"need order >= {order}")


def fekete_szego(f: TruncatedSeries, alpha: float) -> MarginReport:
    """|a_3 - alpha a_2^2| against the sharp bound
    1 + 2 exp(-2 alpha/(1 - alpha)) on [0, 1], with the alpha = 1
    endpoint taken as its limit value 1."""
    _require_normalized_order(f, 3)
    alpha = require_real(alpha, "alpha")
    if not 0 <= alpha <= 1:
        raise InvalidParameter("alpha must lie in [0, 1]")
    a2 = _coeff(f, 2)
    value = abs(_coeff(f, 3) - alpha * (a2 * a2))
    bound = 1.0 if alpha == 1 else 1.0 + 2.0 * math.exp(-2.0 * alpha / (1.0 - alpha))
    return MarginReport("fekete_szego", value, bound)


def hankel(f: TruncatedSeries, q: int, n: int) -> complex:
    """Hankel determinant H_q(n): the q x q determinant with (i, j)
    entry a_{n+i+j} (0-indexed), for n >= 1.

    Needs order >= n + 2(q - 1).  For q <= 3, expansion along the first
    row, summed from 0j in cofactor order; LU factorization beyond.
    """
    q = require_count(q, "q", positive=True)
    n = require_count(n, "n", positive=True)
    _require_normalized_order(f, n + 2 * (q - 1))
    idx = n + np.add.outer(np.arange(q), np.arange(q))
    if q >= 4:
        return complex(np.linalg.det(f.coeffs[idx]))
    m = f.coeffs[idx].tolist()
    if q == 1:
        return m[0][0]
    if q == 2:
        (a, b), (d, e) = m
        return 0j + a * e - b * d
    (a, b, c), (d, e, g), (h, i, j) = m
    return 0j + a * (e * j - g * i) - b * (d * j - g * h) + c * (d * i - e * h)


def bieberbach_check(f: TruncatedSeries) -> MarginReport:
    """Per-index overshoots |a_k| - k for k >= 2 against the sharp
    coefficient bound |a_k| <= k, positive overshoot meaning a violation.

    Unlike the worst-index reports, the value is the worst overshoot
    clamped at zero against bound 0, so a clean series reports value 0;
    per-index entries keep the signed overshoot (identity gives -k at
    index k).
    """
    _require_normalized_order(f, 2)
    ks = np.arange(2, f.order + 1)
    overshoot = _modulus(f.coeffs[2:]) - ks
    value = max(0.0, float(np.max(overshoot)))
    return MarginReport("bieberbach", value, 0.0, tuple(zip(ks.tolist(), overshoot.tolist())))


def covering_check(f: TruncatedSeries, xi: complex) -> MarginReport:
    """|a_2 + 1/xi| against the sharp bound 2 for an omitted value xi.

    Equality at xi = -1/4 picks out the extremal covering situation.
    """
    _require_normalized_order(f, 2)
    xi = OmittedValue(xi).xi
    value = abs(_coeff(f, 2) + 1.0 / xi)
    return MarginReport("covering", value, 2.0)
