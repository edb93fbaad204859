"""Coefficient functionals on normalized series, reported against
their sharp bounds.

Margins follow the convention bound minus value: nonnegative means the
sharp inequality held, and equality cases come out as (numerically)
zero margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, OrderTooLow
from .series import TruncatedSeries, require_count, require_normalized


@dataclass(frozen=True)
class FunctionalReport:
    """Value of a nonnegative functional, with bound and margin when a
    sharp bound applies; per_index carries indexwise margins for the
    checks that scan a whole coefficient range."""

    name: str
    value: float
    bound: float | None = None
    margin: float | None = None
    per_index: tuple[tuple[int, float], ...] | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.value) and self.value >= 0):
            raise InvalidParameter("functional value must be finite and >= 0")

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "value": self.value}
        out["bound"] = self.bound
        out["margin"] = self.margin
        if self.per_index is not None:
            out["per_index"] = [[k, m] for k, m in self.per_index]
        return out


def _coeff(f: TruncatedSeries, k: int) -> complex:
    return complex(f.coeffs[k])


def fekete_szego(f: TruncatedSeries, alpha: float) -> FunctionalReport:
    """|a_3 - alpha a_2^2| against the sharp bound
    1 + 2 exp(-2 alpha/(1 - alpha)) on [0, 1], with the alpha = 1
    endpoint taken as its limit value 1."""
    require_normalized(f)
    if f.order < 3:
        raise OrderTooLow("need order >= 3")
    if not 0 <= alpha <= 1:
        raise InvalidParameter("alpha must lie in [0, 1]")
    value = abs(_coeff(f, 3) - alpha * _coeff(f, 2) ** 2)
    bound = 1.0 if alpha == 1 else 1.0 + 2.0 * math.exp(-2.0 * alpha / (1.0 - alpha))
    return FunctionalReport("fekete_szego", value, bound, bound - value)


def odd_c5(f: TruncatedSeries) -> complex:
    """Fifth coefficient of the odd square-root transform of f:
    (a_3 - a_2^2/4)/2."""
    require_normalized(f)
    if f.order < 3:
        raise OrderTooLow("need order >= 3")
    a2 = _coeff(f, 2)
    a3 = _coeff(f, 3)
    return (a3 - a2**2 / 4.0) / 2.0


def hankel(f: TruncatedSeries, q: int, n: int) -> complex:
    """Hankel determinant H_q(n): the q x q determinant with (i, j)
    entry a_{n+i+j} (0-indexed), for n >= 1.

    Needs order >= n + 2(q - 1).  For q <= 3, expansion along the first
    row, summed from 0j in cofactor order; LU factorization beyond.
    """
    require_normalized(f)
    q = require_count(q, "q", positive=True)
    n = require_count(n, "n", positive=True)
    need = n + 2 * (q - 1)
    if f.order < need:
        raise OrderTooLow(f"need order >= {need}")
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


def bieberbach_check(f: TruncatedSeries) -> FunctionalReport:
    """Per-index overshoots |a_k| - k for k >= 2 against the sharp
    coefficient bound |a_k| <= k, positive overshoot meaning a violation.

    The report value is the worst overshoot clamped at zero, so a
    clean series reports value 0; per-index entries keep the signed
    overshoot for inspection (identity gives -k at index k).
    """
    require_normalized(f)
    if f.order < 2:
        raise OrderTooLow("need order >= 2")
    ks = np.arange(2, f.order + 1)
    overshoot = np.abs(f.coeffs[2:]) - ks
    per_index = tuple((int(k), float(m)) for k, m in zip(ks, overshoot))
    value = max(0.0, float(np.max(overshoot)))
    # +0.0 keeps a clean series from reporting margin -0.0
    return FunctionalReport("bieberbach", value, 0.0, -value + 0.0, per_index)


def covering_check(f: TruncatedSeries, xi: complex) -> FunctionalReport:
    """|a_2 + 1/xi| against the sharp bound 2 for an omitted value xi.

    Equality at xi = -1/4 picks out the extremal covering situation.
    """
    require_normalized(f)
    if f.order < 2:
        raise OrderTooLow("need order >= 2")
    xi = complex(xi)
    if xi == 0:
        raise InvalidParameter("omitted value must be nonzero")
    value = abs(_coeff(f, 2) + 1.0 / xi)
    return FunctionalReport("covering", value, 2.0, 2.0 - value)
