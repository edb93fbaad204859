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
    NotCaratheodoryNormalized,
    OrderTooLow,
)
from .probe import ProbeGrid
from .series import (
    DEFAULT_ORDER,
    TruncatedSeries,
    differentiate,
    divide,
    evaluate_many,
    mobius_recompose,
    multiply,
    principal_power,
    require_count,
    require_real,
)

#: Uniform strictness for all violation flags in this module.
VIOLATION_EPS = 1e-9


@dataclass(frozen=True)
class MarginReport:
    """A nonnegative value against its sharp bound.  per_index, when set,
    keeps the signed overshoot value_k - bound_k of every index a check
    scanned, so a positive entry marks a violation there."""

    name: str
    value: float
    bound: float
    per_index: tuple[tuple[int, float], ...] | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.value) and self.value >= 0):
            raise InvalidParameter("report value must be finite and >= 0")

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
        cleaned = []
        total = 0.0
        for t, mu in self.atoms:
            t = float(t)
            mu = float(mu)
            if not (math.isfinite(t) and math.isfinite(mu)):
                raise InvalidMeasure("atoms must be finite")
            if mu < 0:
                raise InvalidMeasure("weights must be nonnegative")
            total += mu
            cleaned.append((t % (2 * math.pi), mu))
        if abs(total - 1.0) > 1e-12:
            raise InvalidMeasure("weights must sum to 1 within 1e-12")
        object.__setattr__(self, "atoms", tuple(cleaned))

    @property
    def angles(self) -> np.ndarray:
        return np.array([t for t, _ in self.atoms])

    @property
    def weights(self) -> np.ndarray:
        return np.array([mu for _, mu in self.atoms])


def measure_to_dict(m: HerglotzMeasure) -> dict:
    return {"atoms": [[t, mu] for t, mu in m.atoms]}


def measure_from_dict(data: dict) -> HerglotzMeasure:
    try:
        atoms = data["atoms"]
    except (TypeError, KeyError) as exc:
        raise InvalidMeasure("measure record needs 'atoms'") from exc
    try:
        return HerglotzMeasure(tuple((float(t), float(mu)) for t, mu in atoms))
    except (TypeError, ValueError) as exc:
        raise InvalidMeasure("atoms must be [angle, weight] pairs") from exc


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


def evaluate_measure(m: HerglotzMeasure, z):
    """Exact kernel evaluation sum_j mu_j (e^{it_j} + z)/(e^{it_j} - z).

    Accepts a scalar or an array of points with |z| < 1; this is the
    untruncated counterpart of herglotz_to_series.
    """
    zs = np.asarray(z, dtype=complex)
    flat = zs.ravel()
    e = np.exp(1j * m.angles)
    vals = (e[:, None] + flat[None, :]) / (e[:, None] - flat[None, :])
    out = m.weights @ vals
    if zs.ndim == 0:
        return complex(out[0])
    return out.reshape(zs.shape)


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
    """(1 + a*theta)/(1 + b*theta); constant term is exactly 1."""
    th = _as_schwarz(theta).series
    num = 1 + params.a * th
    den = 1 + params.b * th
    if abs(den.coeffs[0]) <= 1e-12:
        raise ConstantDenominatorZero("denominator vanishes at 0")
    return divide(num, den)


def schwarz_to_h(theta) -> TruncatedSeries:
    """(1 + theta)/(1 - theta), the positive-real-part function of a
    Schwarz function.  Coincides with janowski at (a, b) = (1, -1)."""
    return janowski(theta, JanowskiParams(1.0, -1.0))


def h_to_schwarz(h: TruncatedSeries) -> SchwarzFunction:
    """(h - 1)/(h + 1); inverse of schwarz_to_h.

    The quotient's constant term vanishes up to rounding for a
    normalized h and is snapped to exactly zero.
    """
    require_caratheodory(h)
    den = h + 1
    if abs(den.coeffs[0]) <= 1e-12:
        raise ConstantDenominatorZero("h + 1 vanishes at 0")
    q = divide(h - 1, den)
    out = np.array(q.coeffs)
    if abs(out[0]) > 1e-12:
        raise NotCaratheodoryNormalized("expected constant term 1")
    out[0] = 0.0
    return SchwarzFunction(TruncatedSeries(out))


_PRESERVE_ALIASES = {
    "i": "rotate",
    "ii": "shrink",
    "iii": "recenter",
    "iv": "value_automorphism",
    "v": "power",
    "vi": "power_product",
}

PRESERVE_KINDS = tuple(_PRESERVE_ALIASES.values())


def _snap_unit_constant(coeffs: np.ndarray) -> TruncatedSeries:
    out = np.array(coeffs)
    if abs(out[0] - 1.0) > 1e-12:
        raise ConstantDenominatorZero("constant term drifted away from 1")
    out[0] = 1.0
    return TruncatedSeries(out)


def preserve(kind: str, g: TruncatedSeries, t, h: TruncatedSeries | None = None,
             tau: float | None = None) -> TruncatedSeries:
    """The operations that keep the positive-real-part class stable.

    kind is one of PRESERVE_KINDS (roman aliases i..vi accepted):

    - rotate:              g(e^{it} z), t real
    - shrink:              g(t z), t in [-1, 1]
    - recenter:            g((z + t)/(1 + conj(t) z)) / g(t), |t| < 1
    - value_automorphism:  (g + it)/(1 + it g), t real
    - power:               g^t, t in [-1, 1]
    - power_product:       g^t h^tau, t, tau, t + tau in [0, 1]

    The output constant term is 1 (exactly; it is snapped after the
    final division where rounding could leave residue below 1e-12).
    """
    require_caratheodory(g)
    kind = _PRESERVE_ALIASES.get(kind, kind)
    if kind not in PRESERVE_KINDS:
        raise InvalidParameter(f"unknown preserve kind: {kind!r}")
    n = g.order
    if kind == "recenter":
        tc = complex(t)
        if abs(tc) >= 1:
            raise InvalidParameter("recenter needs |t| < 1")
        moved = mobius_recompose(g, tc)
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
    require_count(n_atoms, "n_atoms", positive=True)
    rng = np.random.default_rng(require_count(rng_seed, "seed"))
    angles = rng.uniform(0.0, 2 * np.pi, n_atoms)
    if n_atoms == 1:
        weights = np.ones(1)
    else:
        cuts = np.sort(rng.uniform(0.0, 1.0, n_atoms - 1))
        weights = np.diff(np.concatenate([[0.0], cuts, [1.0]]))
    return HerglotzMeasure(tuple(zip(map(float, angles), map(float, weights))))


def sample(rng_seed: int, n_atoms: int, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Series of a random positive-real-part function; see sample_measure."""
    return herglotz_to_series(sample_measure(rng_seed, n_atoms), order)


def _sample_rows(rng_seeds, n_atoms: int, order: int) -> np.ndarray:
    """Row b holds the coefficients of sample(rng_seeds[b], n_atoms, order)."""
    measures = [sample_measure(int(s), n_atoms) for s in rng_seeds]
    shape = (len(measures), n_atoms)
    angles = np.array([m.angles for m in measures]).reshape(shape)
    weights = np.array([m.weights for m in measures]).reshape(shape)
    return _herglotz_rows(angles, weights, order)


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
    c1 = complex(c1)
    eps = complex(eps)
    if abs(c1) > 2 + 1e-12:
        raise InvalidParameter("|c1| must not exceed 2")
    if abs(abs(eps) - 1.0) > 1e-9:
        raise InvalidParameter("eps must be unimodular")
    if order < 2:
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


def schwarz_checks(theta, grid: ProbeGrid | None = None) -> tuple[MarginReport, MarginReport]:
    """(magnitude, derivative): the bounds |theta(z)| <= |z| and
    |theta'(z)| <= (1 - |theta(z)|^2) / (1 - |z|^2) on the grid, each
    reported at its worst grid point.

    Both are evaluated on the truncating polynomial; for heavily
    truncated series the outer radii report the truncation, not the
    function.
    """
    th = _as_schwarz(theta).series
    grid = grid or ProbeGrid.default()
    zs = grid.points()
    az = np.abs(zs)
    av = np.abs(evaluate_many(th, zs))
    dvals = evaluate_many(differentiate(th), zs)
    points = range(len(zs))
    return (
        _worst_index("schwarz_magnitude", points, av, az),
        _worst_index("schwarz_derivative", points, np.abs(dvals), (1.0 - av**2) / (1.0 - az**2)),
    )
