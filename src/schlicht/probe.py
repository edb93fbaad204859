"""Numerical probes on circles |z| = r: class predicates, local
univalence, boundary injectivity and the Schwarz-lemma bounds, at one
radius or by radius solve.

Everything here samples finitely many points, so either outcome is
evidence from the samples, not proof: a pass says nothing about the
gaps between samples, and a failure can alias too, as when a zero of f'
just outside the circle turns arg f' by almost 2 pi between two samples
and _winding_number counts it inside.  Thresholds are strict: a
quantity counts as positive only when it clears POSITIVITY_EPS, and a
radius bracket is reported with the predicate trace that produced it.

PREDICATES holds each predicate kind's default angles, whether it
reads g and, for a class, its quotient (N, D), the class being Re N/D > 0.
class_predicate evaluates a kind at one radius and class_radius bisects
it, both through _holds: each sample is checked finite, then put to its
kind's test.

Every probe sees a function on the same equispaced circle |z| = r,
r in (0, 1), at an integer count of 8 or more angles, where one inverse
DFT sums a coefficient array (_coeff_sampler).  A sampler takes an array
of radii and returns one row of samples per circle, all of them summed
by one DFT along the last axis, each row with the bits its circle alone
gives.  A class reads only the series: N and D are sampled as one stack
of their coefficients.  circle_values, local univalence and injectivity
read a truncated series, or a named function's closed forms for F and
F' and its series otherwise; anything else is refused.  schwarz_checks
samples theta and theta' from the series.  r is checked once per public
call.

A radius solve asks for its radii in blocks: the ladder is one block,
and each bisection block holds the midpoints of the next _LOOKAHEAD
levels.  _holds samples a block's circles _BLOCK_SAMPLES samples at a
time, when the first of them is asked for, and runs the checks (a
vanishing denominator, then a non-finite sample, then the kind's test)
only on the radii the walk reads, in the order a one-radius-at-a-time
bisection reads them.  A circle sampled ahead of the walk and never
read cannot raise, warn or enter the trace.

Injectivity needs f' free of zeros inside the circle and a simple
polyline through the samples (_polyline_injective), which visits no
more pairs than it must: near samples among neighbours in order of
real part, crossings by a sweep over the segments' bounding boxes in
bounded chunks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .caratheodory import MarginReport, _as_schwarz, _worst_index
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


def _require_angles(n_angles: int) -> None:
    if require_count(n_angles, "n_angles") < 8:
        raise InvalidParameter("need at least 8 angles")


def _require_radius(r) -> float:
    r = require_real(r, "r")
    if not 0 < r < 1:
        raise InvalidParameter("radius must lie in (0, 1)")
    return r


def circle_angles(n_angles: int) -> np.ndarray:
    """The angles 2 pi k/n_angles, k = 0, ..., n_angles - 1, n_angles >= 8."""
    _require_angles(n_angles)
    return 2 * np.pi * np.arange(n_angles) / n_angles


#: Names of the closed forms a named function may carry, by derivative.
_CLOSED_FORMS = ("closed_form", "closed_form_derivative")


def circle_values(F, r: float, n_angles: int, derivative: int = 0) -> np.ndarray:
    """Values of F or F' (derivative 0 or 1) on |z| = r at n_angles angles.

    F is a truncated series or an object whose .series is one.  The
    closed form (closed_form_derivative for F') that such an object
    carries takes precedence over its series: closed forms matter near
    |z| = 1, where a truncation's tail swamps the value.  The classes
    read no closed form.  A series is summed by _coeff_sampler on the
    coefficients of F or of F'.
    """
    return _circle_sampler(F, n_angles, derivative)(np.array([_require_radius(r)]))[0]


def _as_series(f) -> TruncatedSeries:
    """f when it is a truncated series, else f.series when that is one."""
    ser = getattr(f, "series", f)
    if not isinstance(ser, TruncatedSeries):
        raise InvalidParameter("expected a truncated series or named function")
    return ser


def _derivative_coeffs(a: np.ndarray) -> np.ndarray:
    """The coefficients of F' from those a of F."""
    return np.arange(1, len(a)) * a[1:]


def _coeff_sampler(a: np.ndarray, n_angles: int) -> Callable[[np.ndarray], np.ndarray]:
    """radii -> sum_k a_k z^k on each circle |z| = r at n_angles angles,
    one row per radius of the 1-D array radii, already checked.  a may
    be a stack (m, L) of coefficient arrays (_stack), each row then of
    shape (m, n_angles).

    One inverse DFT along the last axis: at theta_j = 2 pi j/n, the sum
    is sum_k a_k r^k e^{2 pi i jk/n}, and the terms whose k agree mod n
    share a phase, so the a_k r^k are folded mod n before the transform.
    Only a * r**k is computed at each call.
    """
    _require_angles(n_angles)
    k = np.arange(a.shape[-1])
    folds = -(-len(k) // n_angles)

    def values(radii: np.ndarray) -> np.ndarray:
        b = a * radii.reshape(-1, *[1] * a.ndim) ** k
        if folds > 1:
            padded = np.zeros(b.shape[:-1] + (folds * n_angles,), dtype=b.dtype)
            padded[..., : len(k)] = b
            b = padded.reshape(*b.shape[:-1], folds, n_angles).sum(axis=-2)
        return np.fft.ifft(b, n_angles, axis=-1, norm="forward")

    return values


def _stack(*arrays: np.ndarray) -> np.ndarray:
    """The coefficient arrays as the rows of one, zero-padded to the longest.

    Where _coeff_sampler folds, the padding adds +0 to a padded row's
    sums, so its samples can differ from the row's own only in the sign
    of a sample that is exactly 0."""
    stack = np.zeros((len(arrays), max(map(len, arrays))), dtype=complex)
    for row, a in zip(stack, arrays):
        row[: len(a)] = a
    return stack


def _circle_sampler(F, n_angles: int, derivative: int = 0) -> Callable[[np.ndarray], np.ndarray]:
    """radii -> circle_values(F, r, n_angles, derivative) for each r of
    the 1-D array radii, already checked, one row per radius.

    The representation, the coefficients of F or F' or the unit roots
    are chosen once; each call then computes a * r**k or r * unit.  A
    closed form is called once per circle: numpy may evaluate the same
    expression on a larger array in another order (past 256 KiB it
    reuses temporaries, and z * w becomes w * z), so only a call on the
    circle alone is sure to give its bits.
    """
    derivative = require_count(derivative, "derivative", most=1)
    a = _as_series(F).coeffs
    cf = getattr(F, _CLOSED_FORMS[derivative], None)
    if cf is not None:
        unit = np.exp(1j * circle_angles(n_angles))
        return lambda radii: np.array([np.asarray(cf(r * unit), dtype=complex) for r in radii])
    return _coeff_sampler(_derivative_coeffs(a) if derivative else a, n_angles)


def schwarz_checks(
    theta, radii=(0.3, 0.6, 0.9, 0.95), n_angles: int = 64
) -> tuple[MarginReport, MarginReport]:
    """(magnitude, derivative): the bounds |theta(z)| <= |z| and
    |theta'(z)| <= (1 - |theta(z)|^2) / (1 - |z|^2) on |z| = r at the
    circle_angles(n_angles), for each r of the iterable radii in turn,
    each reported at its worst point; |z| is r itself.

    Both are evaluated on the truncating polynomial; for heavily
    truncated series the outer radii report the truncation, not the
    function.
    """
    a = _as_schwarz(theta).series.coeffs
    try:
        radii = [_require_radius(r) for r in radii]
    except TypeError:
        raise InvalidParameter("radii must be an iterable of radii") from None
    if not radii:
        raise InvalidParameter("need at least one radius")
    w = np.abs(_coeff_sampler(_stack(a, _derivative_coeffs(a)), n_angles)(np.array(radii)))
    av, dv = w[:, 0].ravel(), w[:, 1].ravel()
    az = np.repeat(radii, n_angles)
    return (
        _worst_index("schwarz_magnitude", range(len(az)), av, az),
        _worst_index("schwarz_derivative", range(len(az)), dv, (1.0 - av**2) / (1.0 - az**2)),
    )


@dataclass(frozen=True)
class RadiusResult:
    """Bracket [lo, hi] for a radius problem, from a sampled predicate:
    evidence, not proof.

    The predicate held at lo and failed at hi, except when capped is
    set: then the predicate held all the way to RADIUS_CAP.  The trace
    records every (radius, outcome) pair the solver read, in the order
    it read them; circles sampled ahead of the walk and never read are
    not in it.
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
    given, whether it reads a reference function g and, for a class,
    its quotient: the coefficient vectors of f and of g (None unless
    reads_g) to those of N and D (None for 1), for any c_0."""

    angles: int = 256
    reads_g: bool = False
    quotient: Callable | None = None


def _z_derivative(a: np.ndarray) -> np.ndarray:
    """The coefficients of z F' from those a of F."""
    return np.arange(len(a)) * a


#: Every predicate on |z| = r, by kind: the classes, whose N/D must have
#: positive real part (f', f/z, z f'/f, (z f')'/f', f'/g' and
#: (z f')'/g'), then f' free of zeros inside the circle and f injective
#: on it (which implies the former).  Both are monotone in r (Darboux),
#: so a radius solve on "injectivity" brackets the radius of univalence.
PREDICATES = {
    "bounded_turning": PredicateKind(quotient=lambda a, b: (_derivative_coeffs(a), None)),
    "starlike": PredicateKind(quotient=lambda a, b: (_z_derivative(a), a)),
    "convex": PredicateKind(
        quotient=lambda a, b: (_derivative_coeffs(_z_derivative(a)), _derivative_coeffs(a))),
    "close_to_convex": PredicateKind(
        reads_g=True, quotient=lambda a, b: (_derivative_coeffs(a), _derivative_coeffs(b))),
    "ratio_positive": PredicateKind(quotient=lambda a, b: (a, np.array([0j, 1]))),
    "quasi_convex": PredicateKind(
        reads_g=True,
        quotient=lambda a, b: (_derivative_coeffs(_z_derivative(a)), _derivative_coeffs(b))),
    "local_univalence": PredicateKind(angles=2048),
    "injectivity": PredicateKind(angles=512),
}


def predicate_kind(name: str) -> str:
    """The key of PREDICATES that name spells, reading '-' as '_'."""
    kind = name.replace("-", "_")
    if kind not in PREDICATES:
        raise InvalidParameter(f"unknown predicate kind: {name!r}")
    return kind


def _class_quantity(kind: str, f, n_angles: int, g) -> Callable[[np.ndarray], tuple]:
    """radii -> (q, d): q holds one row of N/D of the class's row on each
    circle |z| = r at n_angles angles and d the least |D| on each (inf
    where D is 1), N and D sampled as one stack from the series of f (and
    g), their sampler built once."""
    row = PREDICATES[kind]
    num, den = row.quotient(_as_series(f).coeffs, _as_series(g).coeffs if row.reads_g else None)
    if den is None:
        num_values = _coeff_sampler(num, n_angles)
        return lambda radii: (num_values(radii), np.full(len(radii), np.inf))
    values = _coeff_sampler(_stack(num, den), n_angles)

    def quantity(radii: np.ndarray) -> tuple:
        w = values(radii)
        return w[:, 0] / w[:, 1], np.min(np.abs(w[:, 1]), axis=-1)

    return quantity


def _require_finite(finite, what: str) -> None:
    """EvaluationSingularity unless finite, which says whether a row of
    samples is finite: a sample is a pole or an overflow."""
    if not finite:
        raise EvaluationSingularity(f"{what} sample non-finite: a pole or an overflow")


def _class_block(kind: str, f, n_angles: int, g) -> Callable[[np.ndarray], Callable[[int], bool]]:
    """radii -> (j -> whether Re N/D > POSITIVITY_EPS on |z| = radii[j]),
    for the class kind: the whole block is sampled and reduced at once,
    and outcome j raises EvaluationSingularity when D comes within 1e-13
    of 0 on that circle, or else when N/D is not finite there."""
    quantity = _class_quantity(kind, f, n_angles, g)

    def block(radii: np.ndarray) -> Callable[[int], bool]:
        q, least_den = quantity(radii)
        finite = np.all(np.isfinite(q), axis=-1)
        positive = np.min(q.real, axis=-1) > POSITIVITY_EPS

        def outcome(j: int) -> bool:
            if least_den[j] <= 1e-13:
                raise EvaluationSingularity("denominator vanished on a probe sample")
            _require_finite(finite[j], kind)
            return bool(positive[j])

        return outcome

    return block


def _univalence_block(kind: str, f, n_angles: int) -> Callable[[np.ndarray], Callable[[int], bool]]:
    """radii -> (j -> whether f' is free of zeros inside |z| = radii[j],
    and for injectivity then f injective on it): f' and f are sampled for
    the whole block at once, and outcome j checks f' finite and tests it,
    then, for injectivity when f' passed, checks f finite and tests it."""
    derivative = _circle_sampler(f, n_angles, 1)
    values = _circle_sampler(f, n_angles) if kind == "injectivity" else None

    def block(radii: np.ndarray) -> Callable[[int], bool]:
        d = derivative(radii)
        finite = np.all(np.isfinite(d), axis=-1)
        zero_free = (np.min(np.abs(d), axis=-1) > POSITIVITY_EPS) & (_winding_number(d) == 0)
        w = None if values is None else values(radii)

        def outcome(j: int) -> bool:
            _require_finite(finite[j], kind)
            if w is None or not zero_free[j]:
                return bool(zero_free[j])
            _require_finite(np.all(np.isfinite(w[j])), kind)
            return _polyline_injective(w[j])

        return outcome

    return block


#: Samples in one block of circles: 32 circles at 256 angles, 4 at 2048.
#: Medians of 12 seeded radius-probe runs (bench/run.py --seconds 20, two
#: shared x86-64 cores, numpy 2.4.6), against one circle per transform:
#: ops/s +13% at 2048, +21% at 8192, +10% at 32768 and +14% at 65536;
#: peak RSS +0.14, +0.47, +1.85 and +2.41 MB.
_BLOCK_SAMPLES = 8192


@dataclass(frozen=True)
class _CirclePredicate:
    """A predicate kind on fixed functions and angles.  sample(radii)
    returns i -> whether it holds on |z| = radii[i]; called on one r, it
    samples a block of one circle."""

    sample: Callable[[Sequence[float]], Callable[[int], bool]]

    def __call__(self, r: float) -> bool:
        return self.sample((r,))(0)


def _holds(kind: str, f, n_angles: int | None, g) -> _CirclePredicate:
    """Whether the predicate kind, a key of PREDICATES, holds on circles
    |z| = r at n_angles angles, with the circle samplers built once;
    n_angles None takes the kind's default.

    sample(radii) samples the circles _BLOCK_SAMPLES samples at a time,
    each block when the first of its radii is asked for, with numpy's
    floating-point warnings off for that arithmetic only; outcome i runs
    the checks and the test for radii[i] alone."""
    row = PREDICATES[kind]
    n_angles = row.angles if n_angles is None else n_angles
    if kind == "injectivity" and n_angles > 4096:
        raise InvalidParameter("n_angles must lie in [8, 4096]")
    if row.reads_g and g is None:
        raise InvalidParameter(f"{kind} needs a reference function g")
    if row.quotient is None:
        block = _univalence_block(kind, f, n_angles)
    else:
        block = _class_block(kind, f, n_angles, g)
    rows = max(1, _BLOCK_SAMPLES // n_angles)

    def sample(radii: Sequence[float]) -> Callable[[int], bool]:
        radii = np.asarray(radii, dtype=float)
        blocks: dict[int, Callable[[int], bool]] = {}

        def outcome(i: int) -> bool:
            b, j = divmod(i, rows)
            if b not in blocks:
                with np.errstate(all="ignore"):
                    blocks[b] = block(radii[b * rows : (b + 1) * rows])
            return blocks[b](j)

        return outcome

    return _CirclePredicate(sample)


def class_predicate(kind: str, f, r: float, n_angles: int | None = None, g=None) -> bool:
    """True when the predicate kind (a key of PREDICATES, '-' read as
    '_') holds on the sampled circle |z| = r; for a class, when its
    defining quantity stays strictly positive (beyond POSITIVITY_EPS).
    n_angles None samples the kind's default; a g that the kind does
    not read is ignored.

    A True on a finite grid says nothing about the gaps between
    samples; treat it as evidence, not proof.
    """
    return _holds(predicate_kind(kind), f, n_angles, g)(_require_radius(r))


def partial_sum(f: TruncatedSeries, k: int) -> NormalizedSeries:
    """Truncate a normalized series to order k, 1 <= k <= order."""
    fs = _as_series(f)
    if not 1 <= k <= fs.order:
        raise InvalidParameter("partial sum order must lie in [1, order]")
    return NormalizedSeries(fs.coeffs[: k + 1])


#: Ascending scan radii used to bracket the first predicate failure
#: before bisection refines it.
_LADDER = tuple(round(0.05 * k, 2) for k in range(1, 20)) + (0.97, 0.99, RADIUS_CAP)


#: Bisection levels asked for in one block, 2**_LOOKAHEAD - 1 midpoints.
#: In the runs that _BLOCK_SAMPLES cites, radius-probe ops/s against one
#: radius per step: +8% at depth 1, +21% at 2, +12% at 3, +2% at 4 and
#: -40% at 5.
_LOOKAHEAD = 2


def _bisection_block(lo: float, hi: float) -> list[float]:
    """The midpoints of the next _LOOKAHEAD bisection levels of [lo, hi],
    level by level: the lower and upper halves of the interval whose
    midpoint is at i have theirs at 2i + 1 and 2i + 2.  Each is
    0.5 * (a + b) of its interval [a, b], as a bisection step computes it."""
    bounds, mids = [(lo, hi)], []
    while len(mids) < 2**_LOOKAHEAD - 1:
        a, b = bounds[len(mids)]
        mids.append(0.5 * (a + b))
        bounds += [(a, mids[-1]), (mids[-1], b)]
    return mids


def radius_solve(
    predicate: Callable[[float], bool],
    tol: float = 1e-6,
    predicate_name: str = "predicate",
) -> RadiusResult:
    """Bracket the first radius at which a predicate stops holding.

    The predicate must hold at INNER_RADIUS, otherwise the problem is
    degenerate at the center and DegenerateAtCenter is raised.  An
    ascending ladder scan locates the first failure, then bisection
    narrows the bracket to width <= tol, or until no float lies between
    lo and hi.  If the ladder reaches RADIUS_CAP with no failure the
    result is capped there (lo = hi = RADIUS_CAP).  Predicates are
    assumed monotone in r; the ladder keeps the solver honest when
    truncation artifacts re-validate a predicate near |z| = 1, and the
    trace records every evaluation either way.

    The radii are asked for in blocks, INNER_RADIUS and the ladder first,
    then the midpoints of the next _LOOKAHEAD bisection levels
    (_bisection_block), and the walk reads outcomes only along the path
    a one-radius-at-a-time bisection takes.  A predicate of the probe
    kinds samples each block's circles together; any other predicate is
    called once per trace entry, in trace order.
    """
    if require_real(tol, "tol") <= 0:
        raise InvalidParameter("tolerance must be positive")
    if isinstance(predicate, _CirclePredicate):
        sample = predicate.sample
    else:
        sample = lambda radii: lambda i: bool(predicate(radii[i]))
    ladder = (INNER_RADIUS,) + _LADDER
    radii, outcome, i = ladder, sample(ladder), 0
    lo, hi, iterations, trace = INNER_RADIUS, RADIUS_CAP, 0, []
    while True:
        ok = outcome(i)
        trace.append((radii[i], ok))
        if ok:
            lo = radii[i]
        else:
            hi = radii[i]
        if radii is ladder:
            if i == 0 and not ok:
                raise DegenerateAtCenter(
                    f"{predicate_name} already fails at r = {INNER_RADIUS}"
                )
            # the ladder ends at its first failure; when every rung
            # passes, lo ends at the last, RADIUS_CAP, and hi - lo is 0
            i = i + 1 if ok else len(ladder)
            if i < len(ladder):
                continue
        else:
            # the midpoint of the half kept, if the block holds it
            i, iterations = 2 * i + 1 + ok, iterations + 1
        mid = 0.5 * (lo + hi)
        # a midpoint equal to lo or hi: no float lies between them
        if not (hi - lo > tol and lo < mid < hi):
            break
        if i >= len(radii):
            radii, i = _bisection_block(lo, hi), 0
            outcome = sample(radii)
    return RadiusResult(
        lo=lo,
        hi=hi,
        iterations=iterations,
        predicate_name=predicate_name,
        capped=all(ok for _, ok in trace),
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


def _winding_number(values: np.ndarray) -> np.ndarray:
    """Winding around 0 of each closed loop of samples along the last axis.

    With x the step in argument from one sample to the next plus pi, in
    [-pi, 3 pi], the turn x - pi taken in [-pi, pi) gains 2 pi where
    x < 0 and loses 2 pi where x >= 2 pi; the steps themselves sum to 0
    round a closed loop, so the winding is the count of the first less
    the count of the second.
    """
    args = np.angle(values)
    x = np.diff(args, axis=-1, append=args[..., :1]) + np.pi
    return (x < 0).sum(axis=-1) - (x >= 2 * np.pi).sum(axis=-1)


def encloses_zero(values: np.ndarray) -> bool:
    """Whether the closed loop of samples comes within POSITIVITY_EPS of
    0 or winds around it: by the argument principle, whether the
    function sampled on the circle may have a zero inside."""
    return float(np.min(np.abs(values))) <= POSITIVITY_EPS or bool(_winding_number(values))


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
    Both outcomes are evidence from the samples: True only means no
    self-contact was detected at this resolution, and False can alias,
    when f' winds between two samples around a zero outside the circle.
    n_angles None samples PREDICATES["injectivity"].angles.
    """
    return class_predicate("injectivity", f, r, n_angles)
