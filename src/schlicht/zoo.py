"""Stock disk functions and constructors for the classical geometric
function classes.

Class-S objects here are normalized (f(0) = 0, f'(0) = 1).  The
constructors take a positive-real-part function h with h(0) = 1 and
produce the corresponding normalized function: f/z = h, f' = h,
zf'/f = h, or f'/g' = h against a convex g.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .caratheodory import pommerenke_extremal, require_caratheodory
from .errors import InvalidParameter
from .series import (
    DEFAULT_ORDER,
    NormalizedSeries,
    TruncatedSeries,
    require_count,
    require_normalized,
)


def koebe(order: int = DEFAULT_ORDER) -> NormalizedSeries:
    """z/(1-z)^2 truncated: coefficients a_n = n.  Requires order >= 1."""
    require_count(order, "order", positive=True)
    return NormalizedSeries(np.arange(order + 1, dtype=float))


def moebius(order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """(1+z)/(1-z) truncated: c_0 = 1 and c_k = 2 for k >= 1."""
    require_count(order, "order")
    out = np.full(order + 1, 2.0, dtype=complex)
    out[0] = 1.0
    return TruncatedSeries(out)


def identity(order: int = DEFAULT_ORDER) -> NormalizedSeries:
    """The series of z itself."""
    require_count(order, "order", positive=True)
    out = np.zeros(order + 1, dtype=complex)
    out[1] = 1.0
    return NormalizedSeries(out)


def convex_extremal(order: int = DEFAULT_ORDER) -> NormalizedSeries:
    """z/(1-z), the half-plane map: a_k = 1 for every k >= 1.

    Also the identity element for the coefficientwise (Hadamard)
    product of normalized series.
    """
    require_count(order, "order", positive=True)
    out = np.ones(order + 1, dtype=complex)
    out[0] = 0.0
    return NormalizedSeries(out)


def ratio_extremal(order: int = DEFAULT_ORDER) -> NormalizedSeries:
    """z(1+z)/(1-z): a_1 = 1 and a_k = 2 for k >= 2.

    Extremal for the class with Re f/z > 0; its derivative first
    vanishes at 1 - sqrt(2), so local univalence stops at radius
    sqrt(2) - 1.
    """
    require_count(order, "order", positive=True)
    out = np.full(order + 1, 2.0, dtype=complex)
    out[0] = 0.0
    out[1] = 1.0
    return NormalizedSeries(out)


def turning_extremal(order: int = DEFAULT_ORDER) -> NormalizedSeries:
    """-2 log(1-z) - z: a_1 = 1 and a_k = 2/k for k >= 2.

    Extremal for the bounded-turning class (Re f' > 0).
    """
    require_count(order, "order", positive=True)
    k = np.arange(order + 1, dtype=float)
    out = np.zeros(order + 1, dtype=complex)
    out[1:] = 2.0 / k[1:]
    out[1] = 1.0
    return NormalizedSeries(out)


@dataclass(frozen=True)
class NamedFunction:
    """A stock function: stable tag, truncated series, and closed forms
    for evaluation and (where useful) the derivative."""

    tag: str
    series: TruncatedSeries
    closed_form: Callable[[complex], complex] | None = None
    closed_form_derivative: Callable[[complex], complex] | None = None


def _one_like(z):
    return np.asarray(z, dtype=complex) * 0 + 1.0


#: Stock functions by tag: (series builder, closed form, closed-form
#: derivative).
STOCK_FUNCTIONS: dict[str, tuple] = {
    "koebe": (
        koebe,
        lambda z: z / (1 - z) ** 2,
        lambda z: (1 + z) / (1 - z) ** 3,
    ),
    "moebius": (
        moebius,
        lambda z: (1 + z) / (1 - z),
        lambda z: 2 / (1 - z) ** 2,
    ),
    "identity": (
        identity,
        lambda z: np.asarray(z, dtype=complex) + 0,
        _one_like,
    ),
    "thmA": (
        ratio_extremal,
        lambda z: z * (1 + z) / (1 - z),
        lambda z: (1 + 2 * z - z**2) / (1 - z) ** 2,
    ),
    "thmB": (
        turning_extremal,
        lambda z: -2 * np.log(1 - z) - z,
        lambda z: (1 + z) / (1 - z),
    ),
}

#: Tags accepted by named_function; the CLI offers STOCK_FUNCTIONS only.
NAMED_TAGS = tuple(STOCK_FUNCTIONS) + ("pommerenke",)


def named_function(
    tag: str,
    order: int = DEFAULT_ORDER,
    c1: complex | None = None,
    eps: complex | None = None,
) -> NamedFunction:
    """Look up a stock function by tag.

    The "pommerenke" tag needs the extremal parameters c1 and eps; the
    other tags take only the truncation order.
    """
    if tag == "pommerenke":
        if c1 is None or eps is None:
            raise InvalidParameter("pommerenke tag needs c1 and eps")
        ser = pommerenke_extremal(c1, eps, order)
        half_sum = (c1 + eps * np.conj(c1)) / 2
        half_diff = (c1 - eps * np.conj(c1)) / 2

        def cf(z, _p=half_sum, _m=half_diff, _e=eps):
            return (1 + _p * z + _e * z**2) / (1 - _m * z - _e * z**2)

        return NamedFunction(tag, ser, cf, None)
    try:
        builder, cf, dcf = STOCK_FUNCTIONS[tag]
    except KeyError:
        raise InvalidParameter(f"unknown function tag: {tag!r}") from None
    return NamedFunction(tag, builder(order), cf, dcf)


def from_ratio_positive(h: TruncatedSeries) -> NormalizedSeries:
    """f with f(z)/z = h(z): the coefficients of h shifted up one slot.

    Output order is order(h) + 1.
    """
    require_caratheodory(h)
    c = h.coeffs
    out = np.zeros(len(c) + 1, dtype=complex)
    out[1] = 1.0
    out[2:] = c[1:]
    return NormalizedSeries(out)


def from_bounded_turning(h: TruncatedSeries) -> NormalizedSeries:
    """f with f' = h: a_k = c_{k-1}/k.  Output order is order(h) + 1."""
    require_caratheodory(h)
    c = h.coeffs
    out = np.zeros(len(c) + 1, dtype=complex)
    out[1] = 1.0
    out[2:] = c[1:] / np.arange(2, len(c) + 1)
    return NormalizedSeries(out)


def from_starlike(h: TruncatedSeries) -> NormalizedSeries:
    """f with z f'/f = h, via (k-1) a_k = sum_{j<k} a_j c_{k-j}.

    Output order is order(h) + 1.
    """
    require_caratheodory(h)
    c = h.coeffs
    n = len(c)  # output order
    out = np.zeros(n + 1, dtype=complex)
    out[1] = 1.0
    for k in range(2, n + 1):
        j = np.arange(1, k)
        out[k] = np.dot(out[j], c[k - j]) / (k - 1)
    return NormalizedSeries(out)


def from_close_to_convex(h: TruncatedSeries, g: TruncatedSeries) -> NormalizedSeries:
    """f with f'/g' = h against a convex g (caller's responsibility):
    k a_k = k b_k + sum_{j<k} j b_j c_{k-j}.

    Output order is min(order(g), order(h) + 1).
    """
    require_caratheodory(h)
    c = h.coeffs
    require_normalized(g)
    b = g.coeffs
    n = min(g.order, len(c))
    out = np.zeros(n + 1, dtype=complex)
    out[1] = 1.0
    for k in range(2, n + 1):
        j = np.arange(1, k)
        out[k] = b[k] + np.dot(j * b[j], c[k - j]) / k
    return NormalizedSeries(out)


def alexander_forward(f: TruncatedSeries) -> NormalizedSeries:
    """z f'(z): sends convex functions to starlike ones (a_k -> k a_k)."""
    require_normalized(f)
    return NormalizedSeries(f.coeffs * np.arange(f.order + 1))


def alexander_inverse(f: TruncatedSeries) -> NormalizedSeries:
    """Inverse of alexander_forward: a_k -> a_k / k for k >= 1."""
    require_normalized(f)
    out = np.array(f.coeffs)
    out[1:] = out[1:] / np.arange(1, f.order + 1)
    return NormalizedSeries(out)
