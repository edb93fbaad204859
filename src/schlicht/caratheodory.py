"""Positive-real-part functions on the disk: atomic boundary measures,
the series they induce, Schwarz-side changes of variable, the
class-preserving operations, and the sharp coefficient checks.

Normalization throughout: h(0) = 1.  Every sharp-inequality check, here
and in functionals, returns a MarginReport: a value against its bound,
with margin = bound - value, so a violation is a margin below
-VIOLATION_EPS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstantDenominatorZero,
    InvalidMeasure,
    InvalidParameter,
    NonFiniteResult,
    NotCaratheodoryNormalized,
    OrderTooLow,
)
from .probe import circle
from .series import (
    DEFAULT_ORDER,
    TruncatedSeries,
    differentiate,
    divide,
    evaluate_many,
    mobius_recompose,
    multiply,
    principal_power,
    require_complex,
    require_count,
    require_real,
)

#: Uniform strictness for all violation flags in this module.
VIOLATION_EPS = 1e-9


@dataclass(frozen=True)
class MarginReport:
    """A nonnegative value against its sharp bound; a non-finite value
    or bound is an overflow and raises NonFiniteResult.  per_index,
    when set, keeps the signed overshoot value_k - bound_k of every
    index a check scanned, so a positive entry marks a violation there."""

    name: str
    value: float
    bound: float
    per_index: tuple[tuple[int, float], ...] | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.value) and math.isfinite(self.bound)):
            raise NonFiniteResult(f"{self.name} value or bound overflows to inf or NaN")
        if self.value < 0:
            raise InvalidParameter("report value must be >= 0")

    @property
    def margin(self) -> float:
        return self.bound - self.value

    @property
    def ok(self) -> bool:
        return self.margin >= -VIOLATION_EPS

    def to_dict(self) -> dict:
        out = {"name": self.name, "value": self.value, "bound": self.bound, "margin": self.margin}
        if self.per_index is not None:
            out["per_index"] = [[k, m] for k, m in self.per_index]
        return out


def _worst_index(name: str, labels, values: np.ndarray, bounds) -> MarginReport:
    """Report value and bound at the index where value_k - bound_k is
    largest, keeping every signed overshoot in per_index."""
    over = values - bounds
    k = int(np.argmax(over))
    bound = float(np.broadcast_to(bounds, over.shape)[k])
    return MarginReport(name, float(values[k]), bound, tuple(zip(labels, over.tolist())))


@dataclass(frozen=True)
class HerglotzMeasure:
    """Finitely many boundary atoms (t_j, mu_j), mu_j >= 0 summing to 1.

    Angles are reduced to [0, 2*pi) at construction.
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise InvalidMeasure("measure needs at least one atom")
        angles, weights = np.array([(float(t), float(mu)) for t, mu in self.atoms]).T
        if not (np.isfinite(angles).all() and np.isfinite(weights).all()):
            raise InvalidMeasure("atoms must be finite")
        if (weights < 0).any():
            raise InvalidMeasure("weights must be nonnegative")
        # summed left to right, as a loop would
        if abs(np.cumsum(weights)[-1] - 1.0) > 1e-12:
            raise InvalidMeasure("weights must sum to 1 within 1e-12")
        angles = np.mod(angles, 2 * np.pi)
        object.__setattr__(self, "atoms", tuple(zip(angles.tolist(), weights.tolist())))

    @property
    def angles(self) -> np.ndarray:
        return np.array([t for t, _ in self.atoms])

    @property
    def weights(self) -> np.ndarray:
        return np.array([mu for _, mu in self.atoms])


def measure_to_dict(m: HerglotzMeasure) -> dict:
    return {"atoms": [[t, mu] for t, mu in m.atoms]}


def herglotz_to_series(m: HerglotzMeasure, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Series with c_0 = 1 and c_k = 2 sum_j mu_j exp(-i k t_j)."""
    require_count(order, "order")
    return TruncatedSeries(_herglotz_rows(m.angles[None], m.weights[None], order)[0])


def _herglotz_rows(angles: np.ndarray, weights: np.ndarray, order: int) -> np.ndarray:
    """Row b holds the coefficients of herglotz_to_series for the measure
    with atoms (angles[b, j], weights[b, j]); both arrays have shape
    (batch, atoms).  Each row's kernel-times-weights product is its own
    matmul slice of the per-measure shape, so every row has the bits of
    the single-measure call."""
    c = np.zeros((len(angles), order + 1), dtype=complex)
    c[:, 0] = 1.0
    if order >= 1:
        k = np.arange(1, order + 1)
        kernel = np.exp(-1j * (k[:, None] * angles[:, None, :]))
        c[:, 1:] = 2.0 * (kernel @ weights[:, :, None])[:, :, 0]
    return c


def require_caratheodory(h: TruncatedSeries) -> None:
    """Raise NotCaratheodoryNormalized unless |c_0 - 1| <= 1e-12."""
    if abs(h.coeffs[0] - 1.0) > 1e-12:
        raise NotCaratheodoryNormalized("expected constant term 1")


@dataclass(frozen=True)
class SchwarzFunction:
    """Series side of the Schwarz correspondence: a map with
    theta(0) = 0 (bounds like |theta(z)| <= |z| are checked on grids by
    schwarz_checks, never assumed)."""

    series: TruncatedSeries

    def __post_init__(self) -> None:
        if self.series.coeffs[0] != 0:
            raise InvalidParameter("schwarz function must vanish at 0")


def _as_schwarz(theta) -> SchwarzFunction:
    if isinstance(theta, SchwarzFunction):
        return theta
    return SchwarzFunction(theta)


@dataclass(frozen=True)
class JanowskiParams:
    """Parameters of (1 + a*theta)/(1 + b*theta), -1 <= b < a <= 1."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (-1.0 <= self.b < self.a <= 1.0):
            raise InvalidParameter("need -1 <= b < a <= 1")


def janowski(theta, params: JanowskiParams) -> TruncatedSeries:
    """(1 + a*theta)/(1 + b*theta); constant term is exactly 1, since
    theta(0) = 0 exactly makes both constant terms 1."""
    th = _as_schwarz(theta).series
    return divide(1 + params.a * th, 1 + params.b * th)


def schwarz_to_h(theta) -> TruncatedSeries:
    """(1 + theta)/(1 - theta), the positive-real-part function of a
    Schwarz function.  Coincides with janowski at (a, b) = (1, -1)."""
    return janowski(theta, JanowskiParams(1.0, -1.0))


def h_to_schwarz(h: TruncatedSeries) -> SchwarzFunction:
    """(h - 1)/(h + 1); inverse of schwarz_to_h.

    For a normalized h, |h_0 + 1| >= 2 - 1e-12 and the quotient's
    constant term |h_0 - 1|/|h_0 + 1| is at most about 5e-13; it is
    snapped to exactly zero.
    """
    require_caratheodory(h)
    out = np.array(divide(h - 1, h + 1).coeffs)
    out[0] = 0.0
    return SchwarzFunction(TruncatedSeries(out))


PRESERVE_KINDS = ("rotate", "shrink", "recenter", "value_automorphism", "power", "power_product")


def _snap_unit_constant(coeffs: np.ndarray) -> TruncatedSeries:
    out = np.array(coeffs)
    if abs(out[0] - 1.0) > 1e-12:
        raise ConstantDenominatorZero("constant term drifted away from 1")
    out[0] = 1.0
    return TruncatedSeries(out)


def preserve(kind: str, g: TruncatedSeries, t, h: TruncatedSeries | None = None,
             tau: float | None = None) -> TruncatedSeries:
    """The operations that keep the positive-real-part class stable.

    kind is one of PRESERVE_KINDS, spelled exactly as there:

    - rotate:              g(e^{it} z), t real
    - shrink:              g(t z), t in [-1, 1]
    - recenter:            g((z + t)/(1 + conj(t) z)) / g(t), t complex, |t| < 1
    - value_automorphism:  (g + it)/(1 + it g), t real
    - power:               g^t, t in [-1, 1]
    - power_product:       g^t h^tau, t, tau, t + tau in [0, 1]

    The output constant term is 1 (exactly; it is snapped after the
    final division where rounding could leave residue below 1e-12).
    """
    require_caratheodory(g)
    if kind not in PRESERVE_KINDS:
        raise InvalidParameter(f"unknown preserve kind: {kind!r}")
    n = g.order
    if kind == "recenter":
        moved = mobius_recompose(g, require_complex(t, "t"))
        center = moved.coeffs[0]
        if abs(center) <= 1e-12:
            raise ConstantDenominatorZero("g vanishes at the new center")
        return _snap_unit_constant(moved.coeffs / center)
    tr = require_real(t, "t")
    if kind == "rotate":
        return TruncatedSeries(g.coeffs * np.exp(1j * tr * np.arange(n + 1)))
    if kind == "shrink":
        if not -1.0 <= tr <= 1.0:
            raise InvalidParameter("shrink needs t in [-1, 1]")
        return TruncatedSeries(g.coeffs * tr ** np.arange(n + 1))
    if kind == "value_automorphism":
        num = g + 1j * tr
        den = (1j * tr) * g + 1
        return _snap_unit_constant(divide(num, den).coeffs)
    if kind == "power":
        if not -1.0 <= tr <= 1.0:
            raise InvalidParameter("power needs t in [-1, 1]")
        return principal_power(g, tr)
    # power_product
    if h is None or tau is None:
        raise InvalidParameter("power_product needs h and tau")
    ta = require_real(tau, "tau")
    if not (0 <= tr <= 1 and 0 <= ta <= 1 and tr + ta <= 1 + 1e-12):
        raise InvalidParameter("power_product needs t, tau, t + tau in [0, 1]")
    require_caratheodory(h)
    return multiply(principal_power(g, tr), principal_power(h, ta))


def sample_measure(rng_seed: int, n_atoms: int) -> HerglotzMeasure:
    """Deterministic random measure: angles uniform on [0, 2*pi),
    weights from the flat simplex via sorted-uniform spacings.  A single
    64-bit seed drives both draws (angles first, then weights)."""
    angles, weights = _draw_measures([require_count(rng_seed, "seed")], n_atoms)
    return HerglotzMeasure(tuple(zip(angles[0].tolist(), weights[0].tolist())))


def sample(rng_seed: int, n_atoms: int, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Series of a random positive-real-part function; see sample_measure."""
    seeds = [require_count(rng_seed, "seed")]
    return TruncatedSeries(_sample_rows(seeds, n_atoms, require_count(order, "order"))[0])


def _draw_measures(rng_seeds, n_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """Angles and weights, each of shape (batch, n_atoms), of the measure
    sample_measure draws from each seed.  Every seed gets its own
    generator and one draw of 2 n_atoms - 1 uniforms on [0, 1): first
    the angles over 2*pi (the bits of uniform(0, 2*pi)), then the cuts
    whose sorted spacings are the weights, a measure by construction."""
    require_count(n_atoms, "n_atoms", positive=True)
    u = np.empty((len(rng_seeds), 2 * n_atoms - 1))
    for row, s in zip(u, rng_seeds):
        row[:] = np.random.default_rng(int(s)).random(2 * n_atoms - 1)
    edges = np.zeros((len(u), n_atoms + 1))
    edges[:, 1:-1] = np.sort(u[:, n_atoms:], axis=1)
    edges[:, -1] = 1.0
    weights = np.diff(edges, axis=1)
    return np.mod(2 * np.pi * u[:, :n_atoms], 2 * np.pi), weights


def _sample_rows(rng_seeds, n_atoms: int, order: int) -> np.ndarray:
    """Row b holds the coefficients of sample(rng_seeds[b], n_atoms, order)."""
    return _herglotz_rows(*_draw_measures(rng_seeds, n_atoms), order)


def check_coefficient_bound(h: TruncatedSeries) -> MarginReport:
    """|c_k| <= 2 for k >= 1 (sharp bound for the class), reported at
    the worst index."""
    require_caratheodory(h)
    if h.order < 1:
        raise OrderTooLow("need at least one coefficient beyond the constant")
    return _worst_index("coefficient_bound", range(1, h.order + 1), _modulus(h.coeffs[1:]), 2.0)


def _modulus(c: np.ndarray) -> np.ndarray:
    """|c| elementwise.  np.hypot gives the bits of the scalar abs; np.abs
    of a complex array differs from it in the last bit for about a third
    of inputs."""
    return np.hypot(c.real, c.imag)


def check_pommerenke(h: TruncatedSeries) -> MarginReport:
    """The sharp second coefficient inequality
    |c_2 - c_1^2/2| <= 2 - |c_1|^2/2."""
    require_caratheodory(h)
    if h.order < 2:
        raise OrderTooLow("need order >= 2")
    value, bound = _pommerenke_terms(complex(h.coeffs[1]), complex(h.coeffs[2]))
    return MarginReport("pommerenke", value, bound)


def _pommerenke_terms(c1: complex, c2: complex) -> tuple[float, float]:
    # Python float power is libm pow, which differs from numpy's square
    # in the last bit for about one input in a thousand, so report_suite
    # calls this per sample rather than a numpy version of it.
    return abs(c2 - c1**2 / 2.0), 2.0 - abs(c1) ** 2 / 2.0


def pommerenke_extremal(c1: complex, eps: complex, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """The function making the second coefficient inequality an
    equality at prescribed c_1 and unimodular eps:

        (1 + (c1 + eps conj(c1))/2 z + eps z^2)
        / (1 - (c1 - eps conj(c1))/2 z - eps z^2)
    """
    c1 = require_complex(c1, "c1")
    eps = require_complex(eps, "eps")
    if abs(c1) > 2 + 1e-12:
        raise InvalidParameter("|c1| must not exceed 2")
    if abs(abs(eps) - 1.0) > 1e-9:
        raise InvalidParameter("eps must be unimodular")
    if require_count(order, "order") < 2:
        raise OrderTooLow("need order >= 2")
    num = np.zeros(order + 1, dtype=complex)
    den = np.zeros(order + 1, dtype=complex)
    num[0] = 1.0
    num[1] = (c1 + eps * np.conj(c1)) / 2.0
    num[2] = eps
    den[0] = 1.0
    den[1] = -(c1 - eps * np.conj(c1)) / 2.0
    den[2] = -eps
    return divide(TruncatedSeries(num), TruncatedSeries(den))


def schwarz_checks(
    theta, radii=(0.3, 0.6, 0.9, 0.95), n_angles: int = 64
) -> tuple[MarginReport, MarginReport]:
    """(magnitude, derivative): the bounds |theta(z)| <= |z| and
    |theta'(z)| <= (1 - |theta(z)|^2) / (1 - |z|^2) at circle(r,
    n_angles) for each r in radii, each reported at its worst point.

    Both are evaluated on the truncating polynomial; for heavily
    truncated series the outer radii report the truncation, not the
    function.
    """
    th = _as_schwarz(theta).series
    if len(radii) == 0:
        raise InvalidParameter("need at least one radius")
    zs = np.concatenate([circle(r, n_angles) for r in radii])
    az = np.abs(zs)
    av = np.abs(evaluate_many(th, zs))
    dvals = evaluate_many(differentiate(th), zs)
    points = range(len(zs))
    return (
        _worst_index("schwarz_magnitude", points, av, az),
        _worst_index("schwarz_derivative", points, np.abs(dvals), (1.0 - av**2) / (1.0 - az**2)),
    )
