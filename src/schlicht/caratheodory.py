"""Positive-real-part functions on the disk: atomic boundary measures,
the series they induce, Schwarz-side changes of variable, the
class-preserving operations, and the sharp coefficient checks.

Normalization throughout: h(0) = 1.  Every sharp-inequality check, here
and in functionals, returns a MarginReport: a value against its bound,
with margin = bound - value, so a violation is a margin below
-VIOLATION_EPS.
"""

from __future__ import annotations

import functools
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
from .series import (
    DEFAULT_ORDER,
    TruncatedSeries,
    divide,
    mobius_recompose,
    multiply,
    principal_power,
    require_center,
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
        a, b = require_real(self.a, "a"), require_real(self.b, "b")
        if not -1.0 <= b < a <= 1.0:
            raise InvalidParameter("need -1 <= b < a <= 1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


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
        moved = mobius_recompose(g, require_center(t, "t"))
        center = moved.coeffs[0]
        if abs(center) <= 1e-12:
            raise ConstantDenominatorZero("g vanishes at the new center")
        return _snap_unit_constant(moved.coeffs / center)
    tr = require_real(t, "t")
    if kind in ("shrink", "power") and not -1.0 <= tr <= 1.0:
        raise InvalidParameter(f"{kind} needs t in [-1, 1]")
    if kind == "rotate":
        return TruncatedSeries(g.coeffs * np.exp(1j * tr * np.arange(n + 1)))
    if kind == "shrink":
        return TruncatedSeries(g.coeffs * tr ** np.arange(n + 1))
    if kind == "value_automorphism":
        num = g + 1j * tr
        den = (1j * tr) * g + 1
        return _snap_unit_constant(divide(num, den).coeffs)
    if kind == "power":
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
    weights from the flat simplex via sorted-uniform spacings.  Both
    draws (angles first, then weights) read exactly the stream of
    np.random.default_rng(rng_seed), for a nonnegative seed of any size."""
    words = _seed_words([require_count(rng_seed, "seed")])
    angles, weights = _draw_measures(words, n_atoms)
    return HerglotzMeasure(tuple(zip(angles[0].tolist(), weights[0].tolist())))


def sample(rng_seed: int, n_atoms: int, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Series of a random positive-real-part function; see sample_measure."""
    words = _seed_words([require_count(rng_seed, "seed")])
    return TruncatedSeries(_sample_rows(words, n_atoms, require_count(order, "order"))[0])


def _hash_chain(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k < n, as a uint32 column."""
    out = [init]
    for _ in range(n - 1):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)[:, None]


# The constants of numpy.random.SeedSequence (after O'Neill's
# seed_seq_fe): a pool of four uint32 words; hash step k of the entropy
# xors with _ENTROPY_HASH[k] and multiplies by _ENTROPY_HASH[k + 1], and
# output word k likewise with _OUTPUT_HASH.
_POOL = 4
_ENTROPY_INIT, _ENTROPY_MULT = 0x43B0D7E5, 0x931E8875
_ENTROPY_HASH = _hash_chain(_ENTROPY_INIT, _ENTROPY_MULT, 4 * _POOL + 1)
_OUTPUT_HASH = _hash_chain(0x8B51F9DD, 0x58F38DED, 2 * _POOL + 1)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# Pool word src mixes into each other word dst at entropy hash step
# 4 + 3 src + (the place of dst among the other three).  Word src does
# not change meanwhile, so all four words mix in one pass and src is put
# back; step 0 in its own column is a placeholder.
_MIX_STEP = np.array([[4 + 3 * src + dst - (dst > src) if dst != src else 0
                       for dst in range(_POOL)] for src in range(_POOL)])
_MIX_XOR, _MIX_MUL = _ENTROPY_HASH[_MIX_STEP], _ENTROPY_HASH[_MIX_STEP + 1]


def _hashmix(v: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    v = (v ^ xor) * mul
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> 16)


def _seed_words(seeds) -> np.ndarray:
    """Row b is np.random.SeedSequence(seeds[b]).generate_state(4,
    np.uint64), the PCG64 seed of np.random.default_rng(seeds[b]), for
    nonnegative int seeds of any size; the array is C-contiguous, so each
    row is too.

    SeedSequence hashes a seed's little-endian uint32 words with fixed
    uint32 arithmetic, which numpy arrays wrap alike, so a block of seeds
    hashes in a few array passes instead of one Python-level
    SeedSequence per seed:
    - the pool takes the first four words, zero-padded, which is what
      numpy's hash of 0 fills a shorter seed's pool with;
    - each pool word mixes into the other three in one pass;
    - a seed of 2**128 or more mixes its words past the fourth into the
      whole pool, masked to the seeds that have such a word.
    """
    ints = np.asarray(seeds, dtype=object).tolist()
    n = max(_POOL, -(-max(ints).bit_length() // 32))
    # entropy[i] is word i of every seed
    entropy = np.frombuffer(b"".join([s.to_bytes(4 * n, "little") for s in ints]), "<u4")
    entropy = entropy.reshape(len(ints), n).T
    h = _ENTROPY_HASH
    pool = _hashmix(entropy[:_POOL], h[:_POOL], h[1 : _POOL + 1])
    for src in range(_POOL):
        word = pool[src].copy()
        pool = _mix(pool, _hashmix(word, _MIX_XOR[src], _MIX_MUL[src]))
        pool[src] = word
    if n > _POOL:
        h = _hash_chain(_ENTROPY_INIT, _ENTROPY_MULT, 4 * n + 1)
    for i in range(_POOL, n):
        mixed = _mix(pool, _hashmix(entropy[i], h[4 * i : 4 * i + 4], h[4 * i + 1 : 4 * i + 5]))
        # a seed's words end at its highest nonzero one
        pool = np.where(entropy[i:].any(axis=0), mixed, pool)
    out = _hashmix(np.concatenate([pool, pool]), _OUTPUT_HASH[:-1], _OUTPUT_HASH[1:])
    # uint64 word j is uint32 words 2j (low) and 2j + 1 (high)
    return np.ascontiguousarray((out[1::2].astype(np.uint64) << 32 | out[::2]).T)


@functools.cache
def _seed_words_sequence() -> type:
    """The ISeedSequence whose instances hand PCG64 one row of
    _seed_words.  Made on first use: importing numpy.random takes about
    15 ms, which a CLI call that draws nothing should not pay."""

    class SeedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            # PCG64 asks for exactly 4 words of np.uint64
            return self.words

    return SeedWords


def _draw_measures(words: np.ndarray, n_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """Angles and weights, each of shape (batch, n_atoms), of the measure
    sample_measure draws from each seed, given the seeds' _seed_words.
    Every seed gets its own PCG64 generator and one draw of 2 n_atoms - 1
    uniforms on [0, 1): first the angles over 2*pi (the bits of
    uniform(0, 2*pi)), then the cuts whose sorted spacings are the
    weights, a measure by construction."""
    require_count(n_atoms, "n_atoms", positive=True)
    u = np.empty((len(words), 2 * n_atoms - 1))
    seed_words = _seed_words_sequence()
    for row, w in zip(u, words):
        row[:] = np.random.Generator(np.random.PCG64(seed_words(w))).random(2 * n_atoms - 1)
    edges = np.zeros((len(u), n_atoms + 1))
    edges[:, 1:-1] = np.sort(u[:, n_atoms:], axis=1)
    edges[:, -1] = 1.0
    weights = np.diff(edges, axis=1)
    return np.mod(2 * np.pi * u[:, :n_atoms], 2 * np.pi), weights


def _sample_rows(words: np.ndarray, n_atoms: int, order: int) -> np.ndarray:
    """Row b holds the coefficients of sample(s_b, n_atoms, order), for
    words[b] the _seed_words row of seed s_b."""
    return _herglotz_rows(*_draw_measures(words, n_atoms), order)


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

