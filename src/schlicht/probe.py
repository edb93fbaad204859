"""Numerical probes on circles |z| = r: class predicates, local
univalence and boundary injectivity, at one radius or by radius solve.

Everything here samples finitely many points, so a passing check can
refute a property but never certify it.  Thresholds are strict: a
quantity counts as positive only when it clears POSITIVITY_EPS, and a
radius bracket is reported with the predicate trace that produced it.

PREDICATES holds each predicate kind's default angles and whether it
reads g.  class_predicate evaluates a kind at one radius and class_radius
bisects it, both through _holds: each sample is checked finite, then
put to its kind's test.

Every probe sees a function on the same equispaced circle |z| = r,
r in (0, 1), at an integer count of 8 or more angles, through one
kernel, circle_values.  It reads a truncated series, or a named
function's closed forms for F and F' and its series otherwise; anything
else is refused.  A series is summed on the circle by one inverse DFT
of its scaled coefficients.  A radius solve builds its sampler once
(_circle_sampler: derivative coefficients, exponents, unit roots) and
only rescales at each step.

Injectivity needs f' free of zeros inside the circle and a simple
polyline through the samples (_polyline_injective), which visits no
more pairs than it must: near samples among neighbours in order of
real part, crossings by a sweep over the segments' bounding boxes in
bounded chunks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DegenerateAtCenter,
    EvaluationSingularity,
    InvalidParameter,
)
from .series import NormalizedSeries, TruncatedSeries, require_count, require_real

#: Strictness for "positive real part" style predicates.
POSITIVITY_EPS = 1e-9

#: Radius searches never report beyond this cap.
RADIUS_CAP = 0.999

#: Innermost radius at which predicates are required to hold.
INNER_RADIUS = 1e-3

#: Hard ceiling on bisection steps.
MAX_BISECTIONS = 64


def _require_angles(n_angles: int) -> None:
    if require_count(n_angles, "n_angles") < 8:
        raise InvalidParameter("need at least 8 angles")


def _require_radius(r: float) -> None:
    if not 0 < r < 1:
        raise InvalidParameter("radius must lie in (0, 1)")


def circle_angles(n_angles: int) -> np.ndarray:
    """The angles 2 pi k/n_angles, k = 0, ..., n_angles - 1, n_angles >= 8."""
    _require_angles(n_angles)
    return 2 * np.pi * np.arange(n_angles) / n_angles


def _unit_circle(n_angles: int) -> np.ndarray:
    return np.exp(1j * circle_angles(n_angles))


def circle(r: float, n_angles: int) -> np.ndarray:
    """The points r e^{i theta} on |z| = r, r in (0, 1), at the circle_angles."""
    _require_radius(r)
    return r * _unit_circle(n_angles)


#: Names of the closed forms a named function may carry, by derivative.
_CLOSED_FORMS = ("closed_form", "closed_form_derivative")


def circle_values(F, r: float, n_angles: int, derivative: int = 0) -> np.ndarray:
    """Values of F, F' or F'' (derivative 0, 1 or 2) at circle(r, n_angles).

    F is a truncated series or an object whose .series is one.  The
    closed form (closed_form_derivative for F') that such an object
    carries takes precedence over its series: closed forms matter near
    |z| = 1, where a truncation's tail swamps the value.

    A series is summed by one inverse DFT: at theta_j = 2 pi j/n,
    F^(d)(r e^{i theta_j}) = sum_k a_k r^k e^{2 pi i jk/n} with a_k =
    (k+1)...(k+d) c_{k+d}, and the terms whose k agree mod n share a
    phase, so the a_k r^k are folded mod n before the transform.
    """
    return _circle_sampler(F, n_angles, derivative)(r)


def _as_series(f) -> TruncatedSeries:
    """f when it is a truncated series, else f.series when that is one."""
    ser = getattr(f, "series", f)
    if not isinstance(ser, TruncatedSeries):
        raise InvalidParameter("expected a truncated series or named function")
    return ser


def _circle_sampler(F, n_angles: int, derivative: int = 0) -> Callable[[float], np.ndarray]:
    """r -> circle_values(F, r, n_angles, derivative).

    The work that does not depend on r is done once: the choice of
    representation, the coefficients a_k of F^(d) and their exponents,
    and the unit roots.  Each call then computes a * r**k or r * unit,
    the same float operations that circle_values makes on its own.
    """
    if derivative not in (0, 1, 2):
        raise InvalidParameter("derivative must be 0, 1 or 2")
    ser = _as_series(F)
    cf = getattr(F, _CLOSED_FORMS[derivative], None) if derivative < 2 else None
    if cf is not None:
        unit = _unit_circle(n_angles)

        def closed_form_values(r: float) -> np.ndarray:
            _require_radius(r)
            return np.asarray(cf(r * unit), dtype=complex)

        return closed_form_values
    _require_angles(n_angles)
    a = ser.coeffs
    for _ in range(derivative):
        a = np.arange(1, len(a)) * a[1:]
    k = np.arange(len(a))
    fold = (0, -len(a) % n_angles) if len(a) > n_angles else None

    def series_values(r: float) -> np.ndarray:
        _require_radius(r)
        b = a * r**k
        if fold is not None:
            b = np.pad(b, fold).reshape(-1, n_angles).sum(axis=0)
        return np.fft.ifft(b, n_angles, norm="forward")

    return series_values


@dataclass(frozen=True)
class RadiusResult:
    """Bracket [lo, hi] for a radius problem, from a sampled predicate:
    evidence, not proof.

    The predicate held at lo and failed at hi, except when capped is
    set: then the predicate held all the way to RADIUS_CAP.  The trace
    records every (radius, outcome) pair the solver evaluated.
    """

    lo: float
    hi: float
    iterations: int
    predicate_name: str
    capped: bool = False
    trace: tuple[tuple[float, bool], ...] = field(default=(), repr=False)

    def __post_init__(self) -> None:
        if not (0.0 <= self.lo <= self.hi < 1.0):
            raise InvalidParameter("radius bracket must satisfy 0 <= lo <= hi < 1")

    @property
    def monotone(self) -> bool:
        """False when the trace holds a pass at a radius above a fail."""
        passes = [r for r, ok in self.trace if ok]
        fails = [r for r, ok in self.trace if not ok]
        return not (passes and fails and max(passes) > min(fails))

    def to_dict(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "iterations": self.iterations,
            "predicate": self.predicate_name,
            "capped": self.capped,
        }


@dataclass(frozen=True)
class PredicateKind:
    """A row of PREDICATES: the angles a kind samples when none are
    given, and whether it reads a reference function g."""

    angles: int = 256
    reads_g: bool = False


#: Every predicate on |z| = r, by kind: the classes, whose defining
#: quantity (_class_quantity, of f, f', f'' and g') must have positive
#: real part, then f' free of zeros inside the circle and f injective on
#: it (which implies the former).  Both are monotone in r (Darboux), so
#: a radius solve on "injectivity" brackets the radius of univalence.
PREDICATES = {
    "bounded_turning": PredicateKind(),
    "starlike": PredicateKind(),
    "convex": PredicateKind(),
    "close_to_convex": PredicateKind(reads_g=True),
    "ratio_positive": PredicateKind(),
    "quasi_convex": PredicateKind(reads_g=True),
    "local_univalence": PredicateKind(angles=2048),
    "injectivity": PredicateKind(angles=512),
}


def predicate_kind(name: str) -> str:
    """The key of PREDICATES that name spells, reading '-' as '_'."""
    kind = name.replace("-", "_")
    if kind not in PREDICATES:
        raise InvalidParameter(f"unknown predicate kind: {name!r}")
    return kind


def _class_quantity(kind: str, f, n_angles: int, g) -> Callable[[float], np.ndarray]:
    """r -> the defining quantity of the class on circle(r, n_angles),
    with the circle samplers of f (and g) built once."""

    def sampler(F, derivative=0):
        return _circle_sampler(F, n_angles, derivative)

    unit = _unit_circle(n_angles)
    if kind == "bounded_turning":
        return sampler(f, 1)
    if kind == "ratio_positive":
        fv = sampler(f)
        return lambda r: _safe_quotient(fv(r), r * unit)
    if kind == "starlike":
        fp, fv = sampler(f, 1), sampler(f)
        return lambda r: _safe_quotient(r * unit * fp(r), fv(r))
    # The remaining kinds need f'', which only the series representation
    # supplies; f' comes from the same series for consistency.
    ser = _as_series(f)
    if kind == "convex":
        f1, f2 = sampler(ser, 1), sampler(ser, 2)
        return lambda r: 1.0 + _safe_quotient(r * unit * f2(r), f1(r))
    gp = sampler(g, 1)
    if kind == "close_to_convex":
        fp = sampler(f, 1)
        return lambda r: _safe_quotient(fp(r), gp(r))
    f1, f2 = sampler(ser, 1), sampler(ser, 2)
    return lambda r: _safe_quotient(f1(r) + r * unit * f2(r), gp(r))


def _safe_quotient(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    if np.min(np.abs(den)) <= 1e-13:
        raise EvaluationSingularity("denominator vanished on a probe sample")
    return num / den


def _finite(w: np.ndarray, what: str) -> np.ndarray:
    """w, or EvaluationSingularity when a sample is a pole or overflow."""
    if not np.all(np.isfinite(w)):
        raise EvaluationSingularity(f"{what} sample non-finite: a pole or an overflow")
    return w


def _holds(kind: str, f, n_angles: int | None, g) -> Callable[[float], bool]:
    """r -> whether the predicate kind, a key of PREDICATES, holds on
    circle(r, n_angles), with the circle samplers built once; n_angles
    None takes the kind's default.  Each stage samples one function,
    checks it finite and tests it, after the stages before it passed."""
    row = PREDICATES[kind]
    n_angles = row.angles if n_angles is None else n_angles
    if kind == "injectivity" and n_angles > 4096:
        raise InvalidParameter("n_angles must lie in [8, 4096]")
    if row.reads_g and g is None:
        raise InvalidParameter(f"{kind} needs a reference function g")
    if kind in ("local_univalence", "injectivity"):
        stages = [(_circle_sampler(f, n_angles, 1), lambda w: not encloses_zero(w))]
        if kind == "injectivity":
            stages.append((_circle_sampler(f, n_angles), _polyline_injective))
    else:
        quantity = _class_quantity(kind, f, n_angles, g)
        stages = [(quantity, lambda w: float(np.min(w.real)) > POSITIVITY_EPS)]

    def holds(r: float) -> bool:
        return all(test(_finite(values(r), kind)) for values, test in stages)

    return holds


def class_predicate(kind: str, f, r: float, n_angles: int | None = None, g=None) -> bool:
    """True when the predicate kind (a key of PREDICATES, '-' read as
    '_') holds on the sampled circle |z| = r; for a class, when its
    defining quantity stays strictly positive (beyond POSITIVITY_EPS).
    n_angles None samples the kind's default; a g that the kind does
    not read is ignored.

    A True on a finite grid says nothing about the gaps between
    samples; treat it as evidence, not proof.
    """
    return _holds(predicate_kind(kind), f, n_angles, g)(r)


def partial_sum(f: TruncatedSeries, k: int) -> NormalizedSeries:
    """Truncate a normalized series to order k, 1 <= k <= order."""
    fs = _as_series(f)
    if not 1 <= k <= fs.order:
        raise InvalidParameter("partial sum order must lie in [1, order]")
    return NormalizedSeries(fs.coeffs[: k + 1])


#: Ascending scan radii used to bracket the first predicate failure
#: before bisection refines it.
_LADDER = tuple(round(0.05 * k, 2) for k in range(1, 20)) + (0.97, 0.99, RADIUS_CAP)


def radius_solve(
    predicate: Callable[[float], bool],
    tol: float = 1e-6,
    predicate_name: str = "predicate",
) -> RadiusResult:
    """Bracket the first radius at which a predicate stops holding.

    The predicate must hold at INNER_RADIUS, otherwise the problem is
    degenerate at the center and DegenerateAtCenter is raised.  An
    ascending ladder scan locates the first failure, then bisection
    narrows the bracket to width <= tol.  If the ladder reaches
    RADIUS_CAP with no failure the result is capped there (lo = hi =
    RADIUS_CAP).  Predicates are assumed monotone in r; the ladder keeps
    the solver honest when truncation artifacts re-validate a predicate
    near |z| = 1, and the trace records every evaluation either way.
    """
    if require_real(tol, "tol") <= 0:
        raise InvalidParameter("tolerance must be positive")
    trace: list[tuple[float, bool]] = []

    def run(r: float) -> bool:
        ok = bool(predicate(r))
        trace.append((r, ok))
        return ok

    if not run(INNER_RADIUS):
        raise DegenerateAtCenter(
            f"{predicate_name} already fails at r = {INNER_RADIUS}"
        )
    # when every ladder radius passes, lo ends at the last, RADIUS_CAP
    lo, hi, capped = INNER_RADIUS, RADIUS_CAP, True
    for r in _LADDER:
        if not run(r):
            hi, capped = r, False
            break
        lo = r
    iterations = 0
    while hi - lo > tol and iterations < MAX_BISECTIONS:
        mid = 0.5 * (lo + hi)
        if run(mid):
            lo = mid
        else:
            hi = mid
        iterations += 1
    return RadiusResult(
        lo=lo,
        hi=hi,
        iterations=iterations,
        predicate_name=predicate_name,
        capped=capped,
        trace=tuple(trace),
    )


def class_radius(
    kind: str,
    f,
    g=None,
    tol: float = 1e-6,
    n_angles: int | None = None,
) -> RadiusResult:
    """Bisection bracket for the largest circle on which the predicate
    kind holds, with kind, n_angles and g read as by class_predicate."""
    kind = predicate_kind(kind)
    return radius_solve(_holds(kind, f, n_angles, g), tol=tol, predicate_name=kind)


def _winding_number(values: np.ndarray) -> int:
    """Winding of a closed sample loop around 0 via summed turn angles."""
    args = np.angle(values)
    steps = np.diff(np.concatenate([args, args[:1]]))
    steps = (steps + np.pi) % (2 * np.pi) - np.pi
    return int(round(float(steps.sum()) / (2 * np.pi)))


def encloses_zero(values: np.ndarray) -> bool:
    """Whether the closed loop of samples comes within POSITIVITY_EPS of
    0 or winds around it: by the argument principle, whether the
    function sampled on the circle may have a zero inside."""
    return float(np.min(np.abs(values))) <= POSITIVITY_EPS or _winding_number(values) != 0


def local_univalence_radius(f, tol: float = 1e-6, n_angles: int | None = None) -> RadiusResult:
    """Bracket the largest disk on which f' has no zero: on the circle
    f' must stay beyond POSITIVITY_EPS from 0 and not wind around it
    (encloses_zero), which is monotone in r.  A capped result means no
    zero of f' was found up to RADIUS_CAP.  n_angles None samples
    PREDICATES["local_univalence"].angles."""
    return class_radius("local_univalence", f, tol=tol, n_angles=n_angles)


#: Two samples of the boundary image closer than this count as one point.
_NEAR_PAIR_EPS = 1e-9


def _has_near_pair(w: np.ndarray) -> bool:
    """Any two samples within _NEAR_PAIR_EPS of each other.

    |w_i - w_j| is at least |Re w_i - Re w_j| in floats too (hypot never
    rounds below its larger argument), so only pairs whose real parts
    lie within the threshold qualify.  In order of real part, the k-th
    neighbours are compared for k = 1, 2, ...; a sample whose k-th
    neighbour is already beyond the threshold in real part has no nearer
    one further on, so the samples still in play shrink at each k until
    none is left.
    """
    w = w[np.argsort(w.real, kind="stable")]
    x = w.real
    p = np.arange(len(w))
    k = 1
    while True:
        p = p[p + k < len(w)]
        p = p[x[p + k] - x[p] <= _NEAR_PAIR_EPS]
        if p.size == 0:
            return False
        if np.any(np.abs(w[p + k] - w[p]) <= _NEAR_PAIR_EPS):
            return True
        k += 1


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u.real * v.imag - u.imag * v.real


#: Segment pairs tested per step of the crossing sweep: its memory is
#: bounded by this, whatever the number of pairs whose boxes meet.
_SWEEP_CHUNK = 1 << 15


def _has_proper_crossing(a: np.ndarray, b: np.ndarray) -> bool:
    """Any pair of segments [a_i, b_i], [a_j, b_j] crossing transversally.

    Two segments can cross only if their bounding boxes meet.  With the
    segments sorted by left x-end, the partners of the p-th that come
    after it and meet it in x are the next ones up to the first whose
    left end lies right of its right end (searchsorted, side="right",
    so boxes that only touch still count).  Those pairs are generated
    in chunks of _SWEEP_CHUNK, the ones whose y-extents also meet are
    kept, and the orientation test runs on them alone, returning at the
    first crossing.  The test is symmetric in (i, j), so each unordered
    pair is tested once.  Shared endpoints (adjacent segments of the
    polyline) give zero orientation products and are excluded by the
    strict inequalities.
    """
    u = b - a
    xlo, xhi = np.minimum(a.real, b.real), np.maximum(a.real, b.real)
    ylo, yhi = np.minimum(a.imag, b.imag), np.maximum(a.imag, b.imag)
    order = np.argsort(xlo, kind="stable")
    # pairs (p, q), p < q, in sorted positions: q runs over p+1 .. end[p]-1
    end = np.searchsorted(xlo[order], xhi[order], side="right")
    counts = end - np.arange(1, len(a) + 1)
    stop = np.cumsum(counts)
    total = int(stop[-1])
    for t0 in range(0, total, _SWEEP_CHUNK):
        t = np.arange(t0, min(t0 + _SWEEP_CHUNK, total))
        p = np.searchsorted(stop, t, side="right")
        i = order[p]
        j = order[p + 1 + t - (stop[p] - counts[p])]
        meet = (ylo[i] <= yhi[j]) & (ylo[j] <= yhi[i])
        i, j = i[meet], j[meet]
        d1 = _cross(u[j], a[i] - a[j])
        d2 = _cross(u[j], b[i] - a[j])
        d3 = _cross(u[i], a[j] - a[i])
        d4 = _cross(u[i], b[j] - a[i])
        if np.any((d1 * d2 < 0) & (d3 * d4 < 0)):
            return True
    return False


def _polyline_injective(w: np.ndarray) -> bool:
    """Whether the closed polyline through the samples w is simple: all
    samples pairwise distinct beyond 1e-9 and no transversal
    self-crossing.

    Neither test visits all n^2 pairs: near pairs are looked for among
    neighbours in order of real part (_has_near_pair), crossings only
    between segments whose bounding boxes meet (_has_proper_crossing),
    so a pair whose boxes are apart is never reported, where an
    all-pairs orientation test could report one from rounding.  Time
    is O(n log n) plus the pairs whose boxes meet in x: about n on a
    curve that crosses each vertical line a few times, up to n^2 / 2 on
    one whose segments all span one x-range.  Memory is
    O(n + _SWEEP_CHUNK) either way.
    """
    return not (_has_near_pair(w) or _has_proper_crossing(w, np.roll(w, -1)))


def injectivity_probe(f, r: float, n_angles: int | None = None) -> bool:
    """Probe whether f looks injective on |z| = r.

    Requires f' free of zeros inside the circle, as local univalence
    samples it, then a simple polyline through the sampled boundary
    image (_polyline_injective).  Returns False on the first failure.
    This is a refutation device: True only means no self-contact was
    detected at this resolution.  n_angles None samples
    PREDICATES["injectivity"].angles.
    """
    return class_predicate("injectivity", f, r, n_angles)
