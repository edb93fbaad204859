"""Transforms that carry normalized univalent functions to normalized
univalent functions, plus the averaging operators on both the
normalized and the positive-real-part side.

Each transform is a small spec record, and one table, _MAPS, maps each
spec type to the map that apply runs on it; apply guarantees a
normalized result.  libera and bernardi are shorthands for apply.  The
command line reaches them through cli.TRANSFORMS, which maps each
transform kind to the flags it needs and the map from the input series
to the output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .caratheodory import require_caratheodory
from .errors import (
    InvalidParameter,
    OmittedValueAttained,
)
from .probe import circle_values, encloses_zero
from .series import (
    NormalizedSeries,
    TruncatedSeries,
    compose,
    divide,
    mobius_recompose,
    require_complex,
    require_count,
    require_normalized,
    require_real,
    sqrt_even_transform,
)


@dataclass(frozen=True)
class Conjugation:
    """f(z) -> conj(f(conj(z))): conjugates all coefficients."""


@dataclass(frozen=True)
class Rotation:
    """f(z) -> e^{-i theta} f(e^{i theta} z)."""

    theta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", require_real(self.theta, "theta"))


@dataclass(frozen=True)
class Dilation:
    """f(z) -> f(r z)/r for r in (0, 1)."""

    r: float

    def __post_init__(self) -> None:
        r = require_real(self.r, "r")
        if not 0 < r < 1:
            raise InvalidParameter("dilation factor must lie in (0, 1)")
        object.__setattr__(self, "r", r)


@dataclass(frozen=True)
class DiskAutomorphism:
    """Recenter at sigma, |sigma| < 1:
    [f((z + sigma)/(1 + conj(sigma) z)) - f(sigma)] / [(1 - |sigma|^2) f'(sigma)].
    """

    sigma: complex

    def __post_init__(self) -> None:
        s = require_complex(self.sigma, "automorphism center")
        if abs(s) >= 1:
            raise InvalidParameter("automorphism center must satisfy |sigma| < 1")
        object.__setattr__(self, "sigma", s)


@dataclass(frozen=True)
class OmittedValue:
    """f -> xi f/(xi - f), valid when f omits the value xi != 0."""

    xi: complex

    def __post_init__(self) -> None:
        x = require_complex(self.xi, "omitted value")
        if x == 0:
            raise InvalidParameter("omitted value must be nonzero")
        object.__setattr__(self, "xi", x)


@dataclass(frozen=True)
class SquareRoot:
    """Odd square-root transform, truncated back to the input order."""


@dataclass(frozen=True)
class RangeCompose:
    """f -> phi(f) for a normalized phi univalent on the range of f
    (the caller vouches for the range condition)."""

    phi: TruncatedSeries

    def __post_init__(self) -> None:
        require_normalized(self.phi)


@dataclass(frozen=True)
class Libera:
    """The averaging map (2/z) integral_0^z f."""


@dataclass(frozen=True)
class Bernardi:
    """The one-parameter averaging family ((1+gamma)/z^gamma)
    integral_0^z t^{gamma-1} f(t) dt, gamma > -1."""

    gamma: float

    def __post_init__(self) -> None:
        g = require_real(self.gamma, "gamma")
        if g <= -1:
            raise InvalidParameter("bernardi needs gamma > -1")
        object.__setattr__(self, "gamma", g)


@dataclass(frozen=True)
class LinearSum:
    """f -> (1 - t) f + t other, t in [0, 1], other normalized."""

    t: float
    other: TruncatedSeries

    def __post_init__(self) -> None:
        t = require_real(self.t, "t")
        if not 0 <= t <= 1:
            raise InvalidParameter("linear sum weight must lie in [0, 1]")
        object.__setattr__(self, "t", t)
        require_normalized(self.other)


def _finish_normalized(coeffs: np.ndarray) -> NormalizedSeries:
    """Snap c_0 and c_1 to exactly 0 and 1.  Every caller's c_0 is
    already 0, and its c_1 is a quotient d/d, a product 1*1 or a sum
    (1 - t) + t, within a few ulps of 1."""
    arr = np.array(coeffs)
    arr[0] = 0.0
    arr[1] = 1.0
    return NormalizedSeries(arr)


def _automorphism(spec: DiskAutomorphism, f: TruncatedSeries) -> NormalizedSeries:
    if spec.sigma == 0:
        return NormalizedSeries(f.coeffs)
    moved = mobius_recompose(f, spec.sigma)
    arr = np.array(moved.coeffs)
    arr[0] = 0.0  # subtract f(sigma)
    d = arr[1]  # (1 - |sigma|^2) f'(sigma)
    if abs(d) <= 1e-12:
        raise InvalidParameter("derivative vanishes at the automorphism center")
    return _finish_normalized(arr / d)


def _omitted_value(spec: OmittedValue, f: TruncatedSeries) -> NormalizedSeries:
    """Refuse xi when f - xi has a zero inside |z| = r (argument
    principle), r the largest radius up to 0.95 at which the truncation
    tail |c_N| r^N is at most 1e-3: further out, the polynomial has
    zeros that f does not."""
    tail = abs(f.coeffs[-1])
    r = 0.95 if tail == 0 else min(0.95, (1e-3 / tail) ** (1.0 / f.order))
    vals = circle_values(f, r, 256) - spec.xi
    if encloses_zero(vals):
        raise OmittedValueAttained("f attains the value xi; transform undefined")
    return _finish_normalized(divide(spec.xi * f, spec.xi - f).coeffs)


def _average(f: TruncatedSeries, gamma: float) -> NormalizedSeries:
    """Bernardi's coefficient map a_k -> (1+gamma) a_k/(k+gamma)."""
    out = np.zeros(f.order + 1, dtype=complex)
    k = np.arange(1, f.order + 1)
    out[1:] = f.coeffs[1:] * ((1.0 + gamma) / (k + gamma))
    return NormalizedSeries(out)


#: Spec type -> map from (spec, normalized input) to the output series.
_MAPS = {
    Conjugation: lambda spec, f: NormalizedSeries(np.conj(f.coeffs)),
    Rotation: lambda spec, f: NormalizedSeries(
        f.coeffs * np.exp(1j * spec.theta * (np.arange(f.order + 1) - 1))
    ),
    Dilation: lambda spec, f: NormalizedSeries(
        f.coeffs * spec.r ** (np.arange(f.order + 1) - 1.0)
    ),
    DiskAutomorphism: _automorphism,
    OmittedValue: _omitted_value,
    SquareRoot: lambda spec, f: NormalizedSeries(sqrt_even_transform(f).coeffs[: f.order + 1]),
    RangeCompose: lambda spec, f: _finish_normalized(compose(spec.phi, f).coeffs),
    Libera: lambda spec, f: _average(f, 1.0),
    Bernardi: lambda spec, f: _average(f, spec.gamma),
    LinearSum: lambda spec, f: _finish_normalized(linear_sum(f, spec.other, spec.t).coeffs),
}


def apply(spec, f: TruncatedSeries) -> NormalizedSeries:
    """Apply a transform spec, an instance of one of the spec classes
    above, to a normalized series.

    Output order equals input order for every kind.
    """
    require_normalized(f)
    if type(spec) not in _MAPS:
        raise InvalidParameter(f"unknown transform spec: {spec!r}")
    return _MAPS[type(spec)](spec, f)


def libera(f: TruncatedSeries) -> NormalizedSeries:
    """(2/z) integral_0^z f: coefficient map a_k -> 2 a_k/(k + 1)."""
    return apply(Libera(), f)


def bernardi(f: TruncatedSeries, gamma: float) -> NormalizedSeries:
    """((1+gamma)/z^gamma) integral_0^z t^{gamma-1} f(t) dt:
    coefficient map a_k -> (1+gamma) a_k/(k+gamma).  gamma = 1 is libera."""
    return apply(Bernardi(gamma), f)


def libera_kernel(order: int) -> NormalizedSeries:
    """The series whose Hadamard product implements libera:
    z + sum_{k>=2} 2/(k+1) z^k."""
    require_count(order, "order", positive=True)
    out = np.zeros(order + 1, dtype=complex)
    k = np.arange(1, order + 1)
    out[1:] = 2.0 / (k + 1.0)
    return NormalizedSeries(out)


def convolve(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Coefficientwise (Hadamard) product, truncated to the min order."""
    n = min(a.order, b.order)
    return TruncatedSeries(a.coeffs[: n + 1] * b.coeffs[: n + 1])


def linear_sum(phi: TruncatedSeries, psi: TruncatedSeries, t: float) -> TruncatedSeries:
    """(1 - t) phi + t psi for t in [0, 1], truncated to the min order."""
    t = require_real(t, "t")
    if not 0 <= t <= 1:
        raise InvalidParameter("linear sum weight must lie in [0, 1]")
    n = min(phi.order, psi.order)
    return TruncatedSeries((1.0 - t) * phi.coeffs[: n + 1] + t * psi.coeffs[: n + 1])


def iterate_alpha(p: TruncatedSeries, alpha: float, n: int) -> TruncatedSeries:
    """n-fold averaging (alpha/z^alpha) integral_0^z t^{alpha-1} p dt:
    coefficient map c_k -> (alpha/(alpha+k))^n c_k.

    Applied one stage at a time, so iterates compose exactly:
    iterate_alpha(iterate_alpha(p, a, n1), a, n2) equals
    iterate_alpha(p, a, n1 + n2) coefficient for coefficient.
    """
    alpha = require_real(alpha, "alpha")
    if alpha <= 0:
        raise InvalidParameter("alpha must be positive")
    n = require_count(n, "iteration count")
    require_caratheodory(p)
    k = np.arange(p.order + 1)
    stage = alpha / (alpha + k)
    out = np.array(p.coeffs)
    for _ in range(n):
        out = out * stage
    return TruncatedSeries(out)


def iterate_sigma(p: TruncatedSeries, sigma: float, n: int) -> TruncatedSeries:
    """Stagewise averaging with decreasing exponents sigma, sigma-1, ...:
    total coefficient map c_k -> c_k prod_{m=1..n} (sigma-m+1)/(sigma-m+1+k).

    Requires sigma > n - 1 so every stage exponent stays positive.
    """
    sigma = require_real(sigma, "sigma")
    n = require_count(n, "iteration count")
    if sigma <= n - 1:
        raise InvalidParameter("need sigma > n - 1")
    require_caratheodory(p)
    k = np.arange(p.order + 1)
    out = np.array(p.coeffs)
    for m in range(1, n + 1):
        a = sigma - m + 1
        out = out * (a / (a + k))
    return TruncatedSeries(out)
