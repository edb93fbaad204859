"""Arithmetic of truncated Taylor expansions about the origin.

A series is stored as the coefficient vector (c_0, ..., c_N) of its
truncation to order N; the vector always has length N + 1.  Binary
operations truncate to the smaller of the two orders, so results never
claim coefficients that the inputs cannot support.  All values are
immutable; every operation returns a new object.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from itertools import chain

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    BranchPointAtOrigin,
    CompositionRequiresVanishingConstant,
    DivisionBySingularSeries,
    InvalidParameter,
    NonFiniteResult,
)

#: Working order used when a caller does not specify one.
DEFAULT_ORDER = 64

#: A constant term with modulus at or below this threshold is treated as
#: zero wherever a nonzero constant term is required.
CONSTANT_TERM_EPS = 1e-12

#: Anti-diagonals that mobius_recompose holds before adding them into its
#: output in one pass.
MOBIUS_BLOCK = 64


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """Coefficients c_0..c_N of a power series truncated at order N; a
    non-finite coefficient is an overflow and raises NonFiniteResult."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.coeffs, dtype=complex)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidParameter("coefficient vector must be 1-d and nonempty")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteResult("coefficients overflow to inf or NaN")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __repr__(self) -> str:
        head = np.array2string(self.coeffs[:4], precision=6, separator=", ")
        tail = ", ..." if self.order > 3 else ""
        return f"{type(self).__name__}(order={self.order}, coeffs={head[:-1]}{tail}])"

    # Small amount of operator sugar; the named module functions are the
    # primary interface.
    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            n = min(self.order, other.order)
            return TruncatedSeries(self.coeffs[: n + 1] + other.coeffs[: n + 1])
        if isinstance(other, numbers.Number):
            out = np.array(self.coeffs)
            out[0] += other
            return TruncatedSeries(out)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(-self.coeffs)

    def __sub__(self, other):
        if isinstance(other, (TruncatedSeries, numbers.Number)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return multiply(self, other)
        if isinstance(other, numbers.Number):
            return TruncatedSeries(self.coeffs * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, TruncatedSeries):
            return divide(self, other)
        if isinstance(other, numbers.Number):
            return TruncatedSeries(self.coeffs / other)
        return NotImplemented


@dataclass(frozen=True, eq=False, repr=False)
class NormalizedSeries(TruncatedSeries):
    """Series with c_0 = 0 and c_1 = 1 exactly (disk maps fixing 0 with
    unit derivative)."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.order < 1 or self.coeffs[0] != 0 or self.coeffs[1] != 1:
            raise InvalidParameter(
                "normalized series requires c_0 = 0 and c_1 = 1 exactly"
            )


def constant(value: complex, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Constant series of the requested order."""
    require_count(order, "order")
    out = np.zeros(order + 1, dtype=complex)
    out[0] = value
    return TruncatedSeries(out)


def require_normalized(f: TruncatedSeries) -> None:
    """Raise InvalidParameter unless c_0 = 0 and c_1 = 1 exactly."""
    if not isinstance(f, NormalizedSeries):
        NormalizedSeries(f.coeffs)


def require_real(x, what: str) -> float:
    """x as a float; InvalidParameter unless it is a finite real number,
    not a bool."""
    if isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(float(x)):
        return float(x)
    raise InvalidParameter(f"{what} must be a finite real number")


def require_complex(x, what: str) -> complex:
    """x as a complex; InvalidParameter unless it is a number, not a
    bool, whose real and imaginary parts are finite."""
    if isinstance(x, numbers.Complex) and not isinstance(x, bool) and cmath.isfinite(complex(x)):
        return complex(x)
    raise InvalidParameter(f"{what} must be a finite complex number")


def require_center(x, what: str) -> complex:
    """x as the centre of a disk automorphism: require_complex(x, what),
    and InvalidParameter unless |x| < 1."""
    sigma = require_complex(x, what)
    if abs(sigma) >= 1:
        raise InvalidParameter("automorphism center must satisfy |sigma| < 1")
    return sigma


def require_count(n, what: str, positive: bool = False, most: int | None = None) -> int:
    """n as an int; InvalidParameter unless it is an integer, not a bool,
    that is nonnegative (positive if asked) and, when given, <= most."""
    if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < int(positive):
        sign = "positive" if positive else "nonnegative"
        raise InvalidParameter(f"{what} must be a {sign} integer")
    if most is not None and n > most:
        raise InvalidParameter(f"{what} must be at most {most}")
    return int(n)


def multiply(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product, truncated to order min(order(a), order(b))."""
    n = min(a.order, b.order)
    prod = np.convolve(a.coeffs[: n + 1], b.coeffs[: n + 1])[: n + 1]
    return TruncatedSeries(prod)


def divide(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Series quotient a/b to order min(order(a), order(b)).

    Requires |b_0| > 1e-12.  After the recurrence the quotient is
    multiplied back and the residual against a must stay below 1e-10
    (scaled by the magnitude of a); a larger residual means b is
    effectively singular for this purpose and is rejected.
    """
    n = min(a.order, b.order)
    ac = a.coeffs[: n + 1]
    bc = b.coeffs[: n + 1]
    if abs(bc[0]) <= CONSTANT_TERM_EPS:
        raise DivisionBySingularSeries("divisor constant term is numerically zero")
    q = np.zeros(n + 1, dtype=complex)
    q[0] = ac[0] / bc[0]
    for k in range(1, n + 1):
        q[k] = (ac[k] - np.dot(bc[1 : k + 1], q[k - 1 :: -1])) / bc[0]
    back = np.convolve(q, bc)[: n + 1]
    scale = max(1.0, float(np.max(np.abs(ac))))
    if float(np.max(np.abs(back - ac))) > 1e-10 * scale:
        raise DivisionBySingularSeries(
            "division is numerically unstable for this divisor"
        )
    return TruncatedSeries(q)


def compose(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """Composition outer(inner(z)) to order min of the two orders.

    The inner series must vanish at the origin exactly; otherwise the
    truncated composition is not well defined.  Evaluation is a Horner
    recursion in the inner series, one truncated product per outer
    coefficient.
    """
    if inner.coeffs[0] != 0:
        raise CompositionRequiresVanishingConstant(
            "inner series must have zero constant term"
        )
    n = min(outer.order, inner.order)
    ic = inner.coeffs[: n + 1]
    oc = outer.coeffs[: n + 1]
    acc = np.zeros(n + 1, dtype=complex)
    acc[0] = oc[-1]
    for c in oc[-2::-1]:
        acc = np.convolve(acc, ic)[: n + 1]
        acc[0] += c
    return TruncatedSeries(acc)


def differentiate(f: TruncatedSeries) -> TruncatedSeries:
    """Termwise derivative; output order is max(order - 1, 0)."""
    if f.order == 0:
        return TruncatedSeries(np.zeros(1, dtype=complex))
    k = np.arange(1, f.order + 1)
    return TruncatedSeries(k * f.coeffs[1:])


def _require_off_branch_cut(a0: complex) -> None:
    if abs(a0) <= CONSTANT_TERM_EPS or (a0.imag == 0 and a0.real < 0):
        raise BranchPointAtOrigin(
            "constant term lies on the closed negative real axis"
        )


def principal_power(f: TruncatedSeries, t: float) -> TruncatedSeries:
    """Principal branch of f**t, same order as f.

    The constant term must avoid the closed negative real axis (zero
    included) so the principal branch is defined.  Coefficients follow
    the recurrence obtained from g' = t * g * f' / f, which stays in
    series arithmetic instead of composing with a scalar power.
    """
    t = require_real(t, "t")
    a = f.coeffs
    _require_off_branch_cut(complex(a[0]))
    n = f.order
    p = np.zeros(n + 1, dtype=complex)
    p[0] = complex(a[0]) ** t
    # step k weighs p[j] by t (k - j) - j and a[k - j], j < k: slices of
    # t (n, ..., 1), of 0..n-1 and of a reversed, all built once
    tk = t * np.arange(n, 0, -1)
    j = np.arange(n)
    backward = a[::-1].copy()
    for k in range(1, n + 1):
        w = tk[n - k :] - j[:k]
        p[k] = np.dot(w * p[:k], backward[n - k : n]) / (k * a[0])
    return TruncatedSeries(p)


def principal_log(f: TruncatedSeries) -> TruncatedSeries:
    """Principal branch of log f, same order as f.

    Same branch restriction as principal_power; the recurrence comes
    from f * (log f)' = f'.
    """
    a = f.coeffs
    _require_off_branch_cut(complex(a[0]))
    n = f.order
    out = np.zeros(n + 1, dtype=complex)
    out[0] = cmath.log(complex(a[0]))
    # step k weighs out[j] by j and a[k - j], 0 < j < k: slices of 0..n
    # and of a reversed, both built once
    j = np.arange(n + 1)
    backward = a[::-1].copy()
    for k in range(1, n + 1):
        s = 0.0 + 0.0j
        if k > 1:
            s = np.dot(j[1:k] * out[1:k], backward[n - k + 1 : n])
        out[k] = (k * a[k] - s) / (k * a[0])
    return TruncatedSeries(out)


def sqrt_even_transform(f: TruncatedSeries) -> NormalizedSeries:
    """Odd square-root transform g with g(z)^2 = f(z^2), g'(0) = 1.

    f must be normalized.  Writing f(z)/z = u(z), the output is
    z * sqrt(u)(z^2), an odd normalized series of order 2*order(f) - 1.
    Even coefficients are exactly zero and the branch is canonical
    because u(0) = 1.
    """
    require_normalized(f)
    u = TruncatedSeries(f.coeffs[1:])
    s = principal_power(u, 0.5)
    out = np.zeros(2 * f.order, dtype=complex)
    out[1::2] = s.coeffs
    return NormalizedSeries(out)


def mobius_recompose(f: TruncatedSeries, sigma: complex) -> TruncatedSeries:
    """Series of f((z + sigma)/(1 + conj(sigma) z)) to the order of f.

    Requires |sigma| < 1.  Accumulates sum c_k w(z)^k over the powers of
    the automorphism w = (z + sigma)/(1 + conj(sigma) z).  Writing M[k, j]
    for the coefficient of z^j in w^k, the identity
    w^k (1 + conj(sigma) z) = w^(k-1) (z + sigma) gives, exactly,

        M[k, j] = sigma M[k-1, j] + M[k-1, j-1] - conj(sigma) M[k, j-1],

    with M[0, j] = 1 if j = 0 else 0.  An anti-diagonal k + j = d depends
    only on the two before it, so each of the 2N anti-diagonals (N the
    order) is one vector step: O(N^2) time.

    The anti-diagonals are held, indexed by j = d - k, in a block of
    MOBIUS_BLOCK rows.  Blocks end at d = N and d = 2N, and every
    anti-diagonal of a block is computed over one column range: the j of
    some k = d - j in [1, N] on any of its anti-diagonals, j < last for a
    block of d <= N and j >= first - N for a block of d > N.  The entries
    this adds to an anti-diagonal's own range change no output bit:

    - k <= 0 (d <= N): M[0, 1] is zeroed once, after anti-diagonal 1.
      Every later such entry then adds products of +0.0 to a +0.0 and
      comes out exactly +0.0, the value M[0, j] has for j > 0.
    - k > N (d > N): the recurrence never lowers k, so no entry with
      k <= N reads them.  They stay finite and bounded: the only inputs
      they read from outside the block's range are entries of the block
      before, all within that block's range.

    A full block is flushed into the output at once: one product with
    c_(d-j) read from sliding windows of c reversed and zero-padded, then
    one sum down the block with the output as its first row, so output[j]
    is still added up in ascending k, starting from c_0 for j = 0 and +0.0
    otherwise: bit for bit the sums of adding each anti-diagonal in as it
    appears.  An entry outside its anti-diagonal's range meets only the
    padding, and each such product is a zero added to a sum that is not
    -0.0; since blocks end at d = N, output[0], which may be -0.0, gets no
    padding at all.  Memory is O(MOBIUS_BLOCK * N); no (N+1)^2 table is
    formed.

    The recurrence only multiplies row k - 1 by w, an isometry of H^2,
    so rounding errors are carried along without growth and every power's
    coefficients stay bounded by 1.  Recentering a polynomial through its Taylor-shifted
    coefficients instead loses all precision beyond modest orders: those
    intermediates grow like (1/(1-|sigma|))^N.
    """
    sigma = require_center(sigma, "automorphism center")
    n = f.order
    c = f.coeffs
    if sigma == 0 or n == 0:
        return TruncatedSeries(c)
    # block[2 + r, 1 + j] = M[d - j, j] on the block's r-th anti-diagonal d;
    # rows 0 and 1 carry the two anti-diagonals before the block, and
    # column 0 stands for j = -1, where M is zero
    block = np.zeros((MOBIUS_BLOCK + 2, n + 2), dtype=complex)
    block[1, 1] = 1.0  # M[0, 0]
    centres = np.array([[sigma], [sigma.conjugate()]])
    scaled = np.empty((2, n + 2), dtype=complex)
    terms = np.empty((MOBIUS_BLOCK + 1, n + 1), dtype=complex)
    # windows[2N - d, j] = c_(d-j) where 1 <= d - j <= N, else 0
    padded = np.zeros(3 * n, dtype=complex)
    padded[n : 2 * n] = c[:0:-1]
    windows = sliding_window_view(padded, n + 1)
    out = np.zeros(n + 1, dtype=complex)
    out[0] = c[0]
    for first in chain(range(1, n + 1, MOBIUS_BLOCK), range(n + 1, 2 * n + 1, MOBIUS_BLOCK)):
        last = min(first + MOBIUS_BLOCK - 1, n if first <= n else 2 * n)
        height = last - first + 1
        # columns a..b-1: every j = d - k with k in [1, N] on some d of the block
        a, b = (1, last + 1) if last <= n else (first - n + 1, n + 2)
        width = b - a
        products = scaled[:, : width + 1]
        by_sigma, by_sbar = products[0, 1:], products[1, :-1]
        # ufuncs take their output positionally: out= costs more than the
        # arithmetic on short anti-diagonals
        for d, new, prev, older in zip(
            range(first, last + 1),
            block[2 : height + 2, a:b],
            block[1 : height + 1, a - 1 : b],
            block[:height, a - 1 : b - 1],
        ):
            np.multiply(centres, prev, products)
            np.add(by_sigma, older, new)
            np.subtract(new, by_sbar, new)
            if d == 1:
                block[2, 2] = 0.0  # M[0, 1]
        # With more than one anti-diagonal the columns are at least two
        # wide, so numpy adds the rows in turn; one column it would sum
        # pairwise.  numpy also starts a sum from +0.0, which would turn a
        # -0.0 in c_0 into +0.0; -0.0 is the exact identity.  The products
        # go to their own rows: numpy multiplies a single complex in place
        # by another loop, with other rounding.
        terms[0, :width] = out[a - 1 : b - 1]
        np.multiply(
            windows[2 * n - last : 2 * n - first + 1][::-1, a - 1 : b - 1],
            block[2 : height + 2, a:b],
            terms[1 : height + 1, :width],
        )
        np.add.reduce(
            terms[: height + 1, :width], axis=0, out=out[a - 1 : b - 1], initial=complex(-0.0, -0.0)
        )
        block[:2] = block[height : height + 2]
    return TruncatedSeries(out)


def evaluate(f: TruncatedSeries, z: complex) -> complex:
    """Horner evaluation of the truncating polynomial at a point."""
    return complex(evaluate_many(f, z))


def evaluate_many(f: TruncatedSeries, zs: np.ndarray) -> np.ndarray:
    """Horner evaluation at an array of points; InvalidParameter unless
    every point is a finite number, not a bool."""
    try:
        zs = np.asarray(zs)
        finite = zs.dtype.kind in "iufc" and bool(np.all(np.isfinite(zs)))
    except ValueError:  # points nested raggedly
        finite = False
    if not finite:
        raise InvalidParameter("point must be a finite complex number")
    zs = zs.astype(complex, copy=False)
    acc = np.zeros_like(zs)
    for c in f.coeffs[::-1]:
        acc = acc * zs + c
    return acc


def series_to_dict(f: TruncatedSeries) -> dict:
    """JSON-ready encoding: {"order": N, "coeffs": [[re, im], ...]}."""
    return {
        "order": f.order,
        "coeffs": [[float(c.real), float(c.imag)] for c in f.coeffs],
    }


def series_from_dict(data: dict) -> TruncatedSeries:
    """Inverse of series_to_dict, validating the length contract and
    refusing non-finite coefficients as bad input."""
    try:
        order = data["order"]
        rows = data["coeffs"]
    except (TypeError, KeyError) as exc:
        raise InvalidParameter("series record needs 'order' and 'coeffs'") from exc
    require_count(order, "order")
    if not isinstance(rows, list):
        raise InvalidParameter("coeffs must be a list of [re, im] pairs")
    if len(rows) != order + 1:
        raise InvalidParameter("coefficient list must have length order + 1")
    try:
        arr = np.array([complex(re, im) for re, im in rows], dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidParameter("coefficients must be [re, im] pairs") from exc
    if any(isinstance(part, bool) for row in rows for part in row):
        raise InvalidParameter("coefficients must be numbers, not booleans")
    if not np.all(np.isfinite(arr)):
        raise InvalidParameter("coefficients must be finite")
    return TruncatedSeries(arr)
