"""Stock disk functions and constructors for the classical geometric
function classes.

Class-S objects here are normalized (f(0) = 0, f'(0) = 1).  The
constructors take a positive-real-part function h with h(0) = 1 and
produce the corresponding normalized function: f/z = h, f' = h,
zf'/f = h, or f'/g' = h against a convex g.  f is bounded-turning
exactly when z f' is ratio-positive, so f' = h and its extremal are
the alexander_inverse of the ratio-positive ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .caratheodory import (
    VIOLATION_EPS,
    _modulus,
    _pommerenke_terms,
    _sample_rows,
    _seed_words,
    require_caratheodory,
)
from .errors import InvalidParameter, OrderTooLow
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
    return from_ratio_positive(moebius(order - 1))


def turning_extremal(order: int = DEFAULT_ORDER) -> NormalizedSeries:
    """-2 log(1-z) - z: a_1 = 1 and a_k = 2/k for k >= 2.

    Extremal for the bounded-turning class (Re f' > 0).
    """
    return alexander_inverse(ratio_extremal(order))


@dataclass(frozen=True)
class NamedFunction:
    """A stock function: stable tag, truncated series, and closed forms
    of the function and its derivative."""

    tag: str
    series: TruncatedSeries
    closed_form: Callable[[complex], complex]
    closed_form_derivative: Callable[[complex], complex]


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

def named_function(tag: str, order: int = DEFAULT_ORDER) -> NamedFunction:
    """The stock function STOCK_FUNCTIONS[tag], truncated at order."""
    try:
        builder, cf, dcf = STOCK_FUNCTIONS[tag]
    except KeyError:
        raise InvalidParameter(f"unknown function tag: {tag!r}") from None
    return NamedFunction(tag, builder(order), cf, dcf)


# The constructors below work on rows: c has shape (batch, len) and row
# b of the result is the constructor applied to row b of c.  The public
# functions pass one row and report_suite a block of many.
# _starlike_rows runs one row by a BLAS dot per coefficient and a block
# by a matmul slice per coefficient across its rows, with the same bits
# per row; _close_to_convex_rows runs matmul slices for both, as nothing
# builds close-to-convex series one at a time in bulk.


def _normalized_rows(batch: int, n: int) -> np.ndarray:
    out = np.zeros((batch, n + 1), dtype=complex)
    out[:, 1] = 1.0
    return out


def _starlike_rows(c: np.ndarray) -> np.ndarray:
    n = c.shape[1]  # output order
    out = _normalized_rows(len(c), n)
    # c[k - j] for j = 1..k-1 is reverse[n - k : n - 1], a view into one
    # reversed copy per call (a copy per k costs a one-row call at order
    # 256 about 20%).  One row (from_starlike) runs np.dot on 1-D views:
    # a matmul slice per k would pay the gufunc overhead n times, about
    # 2.5x the time at order 256.  A block (report_suite) runs one
    # (1, k-1) @ (k-1, 1) matmul slice per k across its rows.  Both call
    # the BLAS dot product of the same vectors, so every row carries the
    # per-series bits.
    if len(c) == 1:
        a, reverse = out[0], c[0, ::-1].copy()
        for k in range(2, n + 1):
            a[k] = np.dot(a[1:k], reverse[n - k : n - 1]) / (k - 1)
        return out
    reverse = c[:, ::-1, None].copy()
    row = out[:, None, :]
    for k in range(2, n + 1):
        out[:, k] = (row[:, :, 1:k] @ reverse[:, n - k : n - 1])[:, 0, 0] / (k - 1)
    return out


def _close_to_convex_rows(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """b is the coefficient vector of g, shared by every row."""
    m = c.shape[1]
    n = min(len(b) - 1, m)
    out = _normalized_rows(len(c), n)
    jb = (np.arange(n + 1) * b[: n + 1])[None, None, :]
    reverse = c[:, ::-1, None].copy()
    for k in range(2, n + 1):
        out[:, k] = b[k] + (jb[:, :, 1:k] @ reverse[:, m - k : m - 1])[:, 0, 0] / k
    return out


def from_ratio_positive(h: TruncatedSeries) -> NormalizedSeries:
    """f with f(z)/z = h(z): the coefficients of h shifted up one slot.

    Output order is order(h) + 1.
    """
    require_caratheodory(h)
    out = _normalized_rows(1, h.order + 1)[0]
    out[2:] = h.coeffs[1:]
    return NormalizedSeries(out)


def from_bounded_turning(h: TruncatedSeries) -> NormalizedSeries:
    """f with f' = h: a_k = c_{k-1}/k.  Output order is order(h) + 1."""
    return alexander_inverse(from_ratio_positive(h))


def from_starlike(h: TruncatedSeries) -> NormalizedSeries:
    """f with z f'/f = h, via (k-1) a_k = sum_{j<k} a_j c_{k-j}.

    Output order is order(h) + 1.
    """
    require_caratheodory(h)
    return NormalizedSeries(_starlike_rows(h.coeffs[None])[0])


def from_close_to_convex(h: TruncatedSeries, g: TruncatedSeries) -> NormalizedSeries:
    """f with f'/g' = h against a convex g (caller's responsibility):
    k a_k = k b_k + sum_{j<k} j b_j c_{k-j}.

    Output order is min(order(g), order(h) + 1).
    """
    require_caratheodory(h)
    require_normalized(g)
    return NormalizedSeries(_close_to_convex_rows(h.coeffs[None], g.coeffs)[0])


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


#: report_suite draws and checks its samples in blocks of about this many
#: coefficients, so that its memory does not grow with the sample count.
REPORT_BLOCK_COEFFS = 2**16


def report_suite(seed: int, n_samples: int, order: int = 32) -> dict:
    """Seeded sweep: every sample goes through both coefficient checks and
    all four constructor growth checks.  Returns a JSON-ready summary.

    Sample i is sample(s_i, i % 8 + 1, order), s_i the i-th word that
    SeedSequence(seed) generates.  A check's worst margin is the minimum
    over all samples; its violations count the samples whose own worst
    margin lies below -VIOLATION_EPS.  Each block of samples runs every
    constructor recurrence once for all its samples, and gives the bits
    that the same checks give one series at a time.
    """
    n_samples = require_count(n_samples, "n_samples", positive=True)
    order = require_count(order, "order")
    if order < 2:
        raise OrderTooLow(f"report needs order >= 2, got {order}")
    seed = require_count(seed, "seed")
    child_seeds = np.random.SeedSequence(seed).generate_state(n_samples, dtype=np.uint64)
    checks: dict = {}
    g = convex_extremal(order + 1).coeffs
    kk = np.arange(2, order + 2, dtype=float)  # k of each a_k, k >= 2, of the constructed f

    def growth(f, cap):
        # cap is the sharp bound on |a_k| for the class at hand
        return (cap - _modulus(f[:, 2:])).min(axis=1)

    block = max(1, REPORT_BLOCK_COEFFS // (order + 1))
    for start in range(0, n_samples, block):
        words = _seed_words(child_seeds[start : start + block])
        c = np.empty((len(words), order + 1), dtype=complex)
        for atoms in range(1, 9):
            group = slice((atoms - 1 - start) % 8, None, 8)
            c[group] = _sample_rows(words[group], atoms, order)
        pommerenke = [_pommerenke_terms(*c12) for c12 in c[:, 1:3].tolist()]
        # the ratio-positive f has a_k = c_{k-1}, the bounded-turning c_{k-1}/k
        coefficient = (2.0 - _modulus(c[:, 1:])).min(axis=1)
        sample_worst = {
            "coefficient_bound": coefficient,
            "pommerenke": np.array([bound - value for value, bound in pommerenke]),
            "ratio_positive": coefficient,
            "bounded_turning": (2.0 / kk - _modulus(c[:, 1:] / kk)).min(axis=1),
            "starlike": growth(_starlike_rows(c), kk),
            "close_to_convex": growth(_close_to_convex_rows(c, g), kk),
        }
        for name, m in sample_worst.items():
            check = checks.setdefault(name, {"violations": 0, "worst_margin": np.inf})
            check["violations"] += int(np.count_nonzero(m < -VIOLATION_EPS))
            check["worst_margin"] = min(check["worst_margin"], float(m.min()))
    return {
        "checks": checks,
        "order": order,
        "samples": n_samples,
        "seed": seed,
        "total_violations": sum(c["violations"] for c in checks.values()),
    }
