"""Independent reference implementations used to cross-check the
library: brute-force coefficient arithmetic, quadrature-based integral
operators, FFT coefficient extraction from point values, and the
straightforward loop forms (loop_*) of recurrences whose faster kernels
must reproduce them bit for bit.

Nothing here calls back into the package's recurrences; polynomial
evaluation goes through np.polyval so a bug in the library's Horner
loop cannot hide in its own oracle.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


def circle_points(r: float, n: int) -> np.ndarray:
    """The points r e^{2 pi i k/n}, k = 0..n-1: the expression whose points
    the library samples closed forms at, so a comparison on them is a
    comparison on the library's own circle."""
    return r * np.exp(1j * (2 * np.pi * np.arange(n) / n))


def polyval(coeffs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Evaluate sum c_k z^k with numpy's Horner (highest degree first)."""
    return np.polyval(np.asarray(coeffs, dtype=complex)[::-1], zs)


def naive_cauchy(a, b) -> np.ndarray:
    """Full Cauchy product by double loop, length len(a)+len(b)-1."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = np.zeros(len(a) + len(b) - 1, dtype=complex)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def naive_truncated_product(a, b, order: int) -> np.ndarray:
    full = naive_cauchy(a, b)
    out = np.zeros(order + 1, dtype=complex)
    n = min(order + 1, len(full))
    out[:n] = full[:n]
    return out


def naive_compose(outer, inner, order: int) -> np.ndarray:
    """Coefficients of outer(inner(z)) through `order`, by accumulating
    truncated powers of inner term by term.  Requires inner[0] == 0."""
    outer = np.asarray(outer, dtype=complex)
    inner = np.asarray(inner, dtype=complex)
    assert inner[0] == 0
    out = np.zeros(order + 1, dtype=complex)
    out[0] = outer[0]
    power = np.zeros(order + 1, dtype=complex)
    power[0] = 1.0
    for k in range(1, len(outer)):
        power = naive_truncated_product(power, inner, order)
        out += outer[k] * power
    return out


def mp_mobius_recompose(coeffs, sigma: complex, dps: int = 40) -> np.ndarray:
    """Coefficients of f((z + sigma)/(1 + conj(sigma) z)) through the order
    of f, at `dps` decimal digits with mpmath.  Horner's scheme in
    w = (z + sigma)/(1 + conj(sigma) z): each step multiplies the truncated
    accumulator by (z + sigma) and divides it by (1 + conj(sigma) z)."""
    import mpmath

    with mpmath.workdps(dps):
        s = mpmath.mpc(complex(sigma))
        sbar = mpmath.conj(s)
        n = len(coeffs) - 1
        acc = [mpmath.mpc(0)] * (n + 1)
        for c in coeffs[::-1]:
            prod = [s * acc[0]] + [acc[j - 1] + s * acc[j] for j in range(1, n + 1)]
            acc = [prod[0]]
            for j in range(1, n + 1):
                acc.append(prod[j] - sbar * acc[j - 1])
            acc[0] += mpmath.mpc(complex(c))
        return np.array([complex(x) for x in acc])


def loop_mobius_recompose(c, sigma: complex) -> np.ndarray:
    """f((z + sigma)/(1 + conj(sigma) z)) by the anti-diagonal recurrence of
    series.mobius_recompose, adding each anti-diagonal's c_k M[k, d - k]
    into the output as it appears.  The library's blocked kernel must match
    it bit for bit: same products, same sums, same order."""
    c = np.asarray(c, dtype=complex)
    sigma = complex(sigma)
    n = len(c) - 1
    sbar = sigma.conjugate()
    out = np.zeros(n + 1, dtype=complex)
    out[0] = c[0]
    older = np.zeros(n + 1, dtype=complex)
    newer = np.zeros(n + 1, dtype=complex)
    newer[0] = 1.0
    for d in range(1, 2 * n + 1):
        lo, hi = max(1, d - n), min(d, n)
        older[lo : hi + 1] = (
            sigma * newer[lo - 1 : hi] + older[lo - 1 : hi] - sbar * newer[lo : hi + 1]
        )
        older[0] = 0.0  # M[0, d] for d >= 1
        out[d - hi : d - lo + 1] += (c[lo : hi + 1] * older[lo : hi + 1])[::-1]
        older, newer = newer, older
    return out


def loop_principal_power(a, t: float) -> np.ndarray:
    """Principal f**t by the recurrence of series.principal_power, with the
    weights and the reversed coefficients built afresh at every step."""
    a = np.asarray(a, dtype=complex)
    n = len(a) - 1
    p = np.zeros(n + 1, dtype=complex)
    p[0] = complex(a[0]) ** t
    for k in range(1, n + 1):
        j = np.arange(k)
        w = t * (k - j) - j
        p[k] = np.dot(w * p[:k], a[k - j]) / (k * a[0])
    return p


def loop_principal_log(a) -> np.ndarray:
    """Principal log f by the recurrence of series.principal_log, reading
    out[j] and a[k - j] through fancy indexes."""
    a = np.asarray(a, dtype=complex)
    n = len(a) - 1
    out = np.zeros(n + 1, dtype=complex)
    out[0] = cmath.log(complex(a[0]))
    for k in range(1, n + 1):
        s = 0.0 + 0.0j
        if k > 1:
            j = np.arange(1, k)
            s = np.dot(j * out[j], a[k - j])
        out[k] = (k * a[k] - s) / (k * a[0])
    return out


def mp_circle_values(coeffs, r: float, n: int, indices, derivative: int = 0, dps: int = 30):
    """F^(derivative)(r e^{2 pi i j/n}) for F = sum c_k z^k at the given j,
    by Horner in mpmath at `dps` decimal digits."""
    import mpmath

    with mpmath.workdps(dps):
        a = [mpmath.ff(k, derivative) * mpmath.mpc(complex(c))  # k (k-1) ... (k-d+1) c_k
             for k, c in enumerate(coeffs)][derivative:]
        out = []
        for j in indices:
            z = mpmath.mpf(r) * mpmath.expjpi(mpmath.mpf(2 * j) / n)
            total = mpmath.mpc(0)
            for c in reversed(a):
                total = total * z + c
            out.append(complex(total))
        return np.array(out, dtype=complex)


def fft_coefficients(values_fn, order: int, radius: float = 0.5, n_samples: int = 128) -> np.ndarray:
    """Taylor coefficients 0..order of an analytic function from its
    values on |z| = radius.  Exact (to roundoff) for polynomials of
    degree < n_samples; aliasing decays like radius**n_samples otherwise."""
    zs = radius * np.exp(2j * np.pi * np.arange(n_samples) / n_samples)
    hat = np.fft.fft(np.asarray(values_fn(zs), dtype=complex)) / n_samples
    return hat[: order + 1] / radius ** np.arange(order + 1)


def gauss01(n: int = 24):
    """Gauss-Legendre nodes and weights mapped to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def nested_average_values(coeffs, zs: np.ndarray, exponents) -> np.ndarray:
    """Values of the nested averaging operator applied to a polynomial.

    One stage with exponent a maps g to a * integral_0^1 s^(a-1) g(sz) ds.
    The substitution s = u^2 turns the weight into u^(2a-1), polynomial
    for half-integer a, so Gauss-Legendre is exact for every case used
    in the tests.  Stages apply left to right.
    """
    exponents = list(exponents)
    if not exponents:
        return polyval(coeffs, zs)
    a = exponents[0]
    u, w = gauss01()
    pts = (u[:, None] ** 2) * np.asarray(zs)[None, :]
    inner = nested_average_values(coeffs, pts.ravel(), exponents[1:])
    inner = inner.reshape(len(u), -1)
    return 2.0 * a * np.einsum("i,i,ij->j", w, u ** (2.0 * a - 1.0), inner)


def quadrature_coefficient_map(coeffs, exponents, prefactor: float = 1.0) -> np.ndarray:
    """Coefficients of prefactor * (nested averaging of the polynomial),
    recovered by quadrature plus FFT extraction; fully independent of
    the library's closed-form coefficient maps."""
    order = len(coeffs) - 1
    vals = lambda zs: prefactor * nested_average_values(coeffs, zs, exponents)
    return fft_coefficients(vals, order)


def line_integral_primitive(coeffs, zs: np.ndarray, n_nodes: int = 24) -> np.ndarray:
    """integral_0^z p(t) dt along the straight segment, by Gauss-Legendre;
    exact for polynomials of degree < 2*n_nodes."""
    s, w = gauss01(n_nodes)
    pts = s[:, None] * np.asarray(zs)[None, :]
    vals = polyval(coeffs, pts.ravel()).reshape(len(s), -1)
    return np.asarray(zs) * np.einsum("i,ij->j", w, vals)


def random_coeffs(rng: np.random.Generator, order: int, scale: float = 1.0) -> np.ndarray:
    re = rng.normal(scale=scale, size=order + 1)
    im = rng.normal(scale=scale, size=order + 1)
    return re + 1j * im


def random_normalized_coeffs(rng: np.random.Generator, order: int, scale: float = 0.5) -> np.ndarray:
    c = random_coeffs(rng, order, scale)
    c[0] = 0.0
    c[1] = 1.0
    return c


def seeded_measure(rng_seed: int, n_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """(angles, weights) of schlicht.sample_measure as it drew one measure
    per call before it drew blocks of measures into arrays: a generator
    per seed, n_atoms uniform angles, then n_atoms - 1 sorted uniform cuts
    whose spacings are the weights; angles reduced mod 2*pi one by one,
    as HerglotzMeasure then did."""
    rng = np.random.default_rng(int(rng_seed))
    angles = rng.uniform(0.0, 2 * np.pi, n_atoms)
    if n_atoms == 1:
        weights = np.ones(1)
    else:
        cuts = np.sort(rng.uniform(0.0, 1.0, n_atoms - 1))
        weights = np.diff(np.concatenate([[0.0], cuts, [1.0]]))
    return np.array([float(t) % (2 * math.pi) for t in angles]), weights


def herglotz_coeffs(angles, weights, order: int) -> np.ndarray:
    """c_0 = 1 and c_k = 2 sum_j mu_j exp(-i k t_j), one measure at a time."""
    c = np.zeros(order + 1, dtype=complex)
    c[0] = 1.0
    k = np.arange(1, order + 1)
    c[1:] = 2.0 * (np.exp(-1j * np.outer(k, angles)) @ weights)
    return c


def herglotz_kernel_values(angles, weights, zs: np.ndarray) -> np.ndarray:
    """The untruncated sum_j mu_j (e^{it_j} + z)/(e^{it_j} - z) at points
    |z| < 1, the function whose Taylor coefficients herglotz_coeffs gives."""
    e = np.exp(1j * np.asarray(angles))[:, None]
    return np.asarray(weights) @ ((e + zs[None, :]) / (e - zs[None, :]))


def _normalized(n: int) -> np.ndarray:
    out = np.zeros(n + 1, dtype=complex)
    out[1] = 1.0
    return out


def bounded_turning_coeffs(c) -> np.ndarray:
    """a with f' = h for h = sum c_k z^k: a_1 = 1 and a_k = c_{k-1}/k,
    one division per coefficient."""
    out = _normalized(len(c))
    out[2:] = np.asarray(c)[1:] / np.arange(2, len(c) + 1)
    return out


def ratio_extremal_coeffs(order: int) -> np.ndarray:
    """z(1+z)/(1-z) to order >= 1: a_1 = 1 and a_k = 2 for k >= 2."""
    out = np.full(order + 1, 2.0, dtype=complex)
    out[0] = 0.0
    out[1] = 1.0
    return out


def turning_extremal_coeffs(order: int) -> np.ndarray:
    """-2 log(1-z) - z to order >= 1: a_1 = 1 and a_k = 2/k for k >= 2,
    each 2/k a real division."""
    k = np.arange(order + 1, dtype=float)
    out = np.zeros(order + 1, dtype=complex)
    out[1:] = 2.0 / k[1:]
    out[1] = 1.0
    return out


def starlike_loop(c) -> np.ndarray:
    """a with z f'/f = h for h = sum c_k z^k: (k-1) a_k = sum_{j<k} a_j c_{k-j},
    one np.dot per k."""
    n = len(c)
    out = _normalized(n)
    for k in range(2, n + 1):
        j = np.arange(1, k)
        out[k] = np.dot(out[j], c[k - j]) / (k - 1)
    return out


def close_to_convex_loop(c, b) -> np.ndarray:
    """a with f'/g' = h against g = sum b_k z^k: k a_k = k b_k + sum_{j<k}
    j b_j c_{k-j}, one np.dot per k."""
    n = min(len(b) - 1, len(c))
    out = _normalized(n)
    for k in range(2, n + 1):
        j = np.arange(1, k)
        out[k] = b[k] + np.dot(j * b[j], c[k - j]) / k
    return out


def report_per_sample(seed: int, n_samples: int, order: int = 32, eps: float | None = None) -> dict:
    """The report sweep one sample at a time with the per-series loops:
    what schlicht.report_suite computed before it ran every recurrence
    once per block of samples, kept to pin that its bytes did not change.
    Measures, series, constructors and margins are all computed here.  A
    sample violates a check when its worst margin lies below -eps
    (default VIOLATION_EPS)."""
    from schlicht.caratheodory import VIOLATION_EPS

    eps = VIOLATION_EPS if eps is None else eps
    names = (
        "coefficient_bound",
        "pommerenke",
        "ratio_positive",
        "bounded_turning",
        "starlike",
        "close_to_convex",
    )
    worst = {name: np.inf for name in names}
    violations = {name: 0 for name in names}
    b = np.ones(order + 2, dtype=complex)  # convex_extremal(order + 1)
    b[0] = 0.0

    def record(name: str, margin: float) -> None:
        worst[name] = min(worst[name], margin)
        if margin < -eps:
            violations[name] += 1

    def growth_margin(f, cap) -> float:
        kk = np.arange(2, len(f), dtype=float)
        return float(np.min(cap(kk) - np.hypot(f[2:].real, f[2:].imag)))

    child_seeds = np.random.SeedSequence(seed).generate_state(n_samples, dtype=np.uint64)
    for i in range(n_samples):
        c = herglotz_coeffs(*seeded_measure(child_seeds[i], i % 8 + 1), order)
        n = len(c)
        record("coefficient_bound", min(float(2.0 - abs(c[k])) for k in range(1, n)))
        c1, c2 = complex(c[1]), complex(c[2])
        record("pommerenke", float((2.0 - abs(c1) ** 2 / 2.0) - abs(c2 - c1**2 / 2.0)))
        ratio = _normalized(n)
        ratio[2:] = c[1:]
        record("ratio_positive", growth_margin(ratio, lambda kk: 2.0))
        record("bounded_turning", growth_margin(bounded_turning_coeffs(c), lambda kk: 2.0 / kk))
        record("starlike", growth_margin(starlike_loop(c), lambda kk: kk))
        record("close_to_convex", growth_margin(close_to_convex_loop(c, b), lambda kk: kk))

    return {
        "checks": {
            name: {"violations": violations[name], "worst_margin": float(worst[name])}
            for name in names
        },
        "order": order,
        "samples": n_samples,
        "seed": seed,
        "total_violations": int(sum(violations.values())),
    }


def coefficient_margins(c) -> np.ndarray:
    """2 - |c_k| for k >= 1: the margin list that check_coefficient_bound
    kept before it reported only its worst index (np.hypot gives the bits
    of the scalar abs)."""
    c = np.asarray(c)
    return 2.0 - np.hypot(c.real, c.imag)[1:]


def pommerenke_margin(c1: complex, c2: complex) -> float:
    """(2 - |c_1|^2/2) - |c_2 - c_1^2/2| in the order check_pommerenke
    summed it when it stored the margin."""
    return float((2.0 - abs(c1) ** 2 / 2.0) - abs(c2 - c1**2 / 2.0))


def schwarz_margins(az, vals, dvals) -> tuple[np.ndarray, np.ndarray]:
    """The margin lists of the two Schwarz bounds, |z| - |theta(z)| and
    (1 - |theta(z)|^2)/(1 - |z|^2) - |theta'(z)|, from the values of theta
    and theta' at grid points of moduli az, each modulus the scalar abs."""
    modulus = lambda values: np.array([abs(complex(v)) for v in values])
    mag = az - modulus(vals)
    dbound = (1.0 - modulus(vals) ** 2) / (1.0 - az**2)
    return mag, dbound - modulus(dvals)


def det_cofactor(m: np.ndarray) -> complex:
    """Determinant by recursive cofactor expansion along the first row,
    summed in Python complex arithmetic."""
    size = m.shape[0]
    if size == 1:
        return complex(m[0, 0])
    total = 0.0 + 0.0j
    for j in range(size):
        minor = np.delete(m[1:], j, axis=1)
        total += (-1) ** j * complex(m[0, j]) * det_cofactor(minor)
    return total


def horner_values(F, zs: np.ndarray, derivative: int = 0) -> np.ndarray:
    """F, F' or F'' at the points zs: a carried closed form for F and F',
    else the series (F or F.series), differentiated termwise and summed
    by Horner."""
    names = ("closed_form", "closed_form_derivative")
    cf = getattr(F, names[derivative], None) if derivative < 2 else None
    if cf is not None:
        return np.asarray(cf(zs), dtype=complex)
    c = np.asarray(getattr(F, "series", F).coeffs)
    for _ in range(derivative):
        c = np.arange(1, len(c)) * c[1:] if len(c) > 1 else np.zeros(1, dtype=complex)
    return polyval(c, zs)


def horner_class_quantity(kind: str, f, zs: np.ndarray, g=None) -> np.ndarray:
    """The defining quantity of a class on the points zs by its textbook
    formula, f and g read from their series (never a closed form) and
    summed by Horner at every point."""
    f = getattr(f, "series", f)
    if kind == "bounded_turning":
        return horner_values(f, zs, 1)
    if kind == "ratio_positive":
        return horner_values(f, zs) / zs
    if kind == "starlike":
        return zs * horner_values(f, zs, 1) / horner_values(f, zs)
    if kind == "convex":
        return 1.0 + zs * horner_values(f, zs, 2) / horner_values(f, zs, 1)
    gp = horner_values(getattr(g, "series", g), zs, 1)
    if kind == "close_to_convex":
        return horner_values(f, zs, 1) / gp
    if kind == "quasi_convex":
        return (horner_values(f, zs, 1) + zs * horner_values(f, zs, 2)) / gp
    raise ValueError(kind)



def min_pairwise_distance(w: np.ndarray) -> float:
    """Smallest |w_i - w_j|, i != j, over all pairs, in blocks of rows."""
    n = len(w)
    best = np.inf
    step = 512
    for i0 in range(0, n, step):
        i1 = min(i0 + step, n)
        block = np.abs(w[i0:i1, None] - w[None, :])
        block[np.arange(i1 - i0), np.arange(i0, i1)] = np.inf
        best = min(best, float(block.min()))
    return best


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u.real * v.imag - u.imag * v.real


def has_proper_crossing(a: np.ndarray, b: np.ndarray) -> bool:
    """Any pair of segments [a_i, b_i], [a_j, b_j] crossing transversally,
    by the orientation test on all n^2 ordered pairs, in blocks of rows."""
    u = b - a
    n = len(a)
    step = 256
    for i0 in range(0, n, step):
        i1 = min(i0 + step, n)
        ai = a[i0:i1, None]
        bi = b[i0:i1, None]
        ui = u[i0:i1, None]
        d1 = _cross(u[None, :], ai - a[None, :])
        d2 = _cross(u[None, :], bi - a[None, :])
        d3 = _cross(ui, a[None, :] - ai)
        d4 = _cross(ui, b[None, :] - ai)
        if np.any((d1 * d2 < 0) & (d3 * d4 < 0)):
            return True
    return False


def injective_all_pairs(w: np.ndarray) -> bool:
    """The injectivity decision on the closed polyline through the
    samples w: no two samples within 1e-9 and no transversal crossing,
    both over all pairs."""
    if min_pairwise_distance(w) <= 1e-9:
        return False
    return not has_proper_crossing(w, np.roll(w, -1))


def wrapped_winding_number(values: np.ndarray) -> int:
    """Winding of a closed loop of samples around 0: each turn between
    neighbours wrapped into [-pi, pi) by the floating-point remainder,
    the turns summed and rounded to whole turns."""
    args = np.angle(values)
    steps = np.diff(np.concatenate([args, args[:1]]))
    steps = (steps + np.pi) % (2 * np.pi) - np.pi
    return int(round(float(steps.sum()) / (2 * np.pi)))


def per_call_circle_values(F, r: float, n: int, derivative: int = 0) -> np.ndarray:
    """F, F' or F'' on |z| = r at the angles 2 pi k/n, everything rebuilt
    on each call: the closed form on the points, else the series'
    derivative coefficients scaled by r^k, folded mod n and summed by
    one inverse DFT."""
    names = ("closed_form", "closed_form_derivative")
    cf = getattr(F, names[derivative], None) if derivative < 2 else None
    if cf is not None:
        return np.asarray(cf(circle_points(r, n)), dtype=complex)
    a = getattr(F, "series", F).coeffs
    for _ in range(derivative):
        a = np.arange(1, len(a)) * a[1:]
    return per_call_coeff_values(a, r, n)


def per_call_coeff_values(a: np.ndarray, r: float, n: int) -> np.ndarray:
    """sum_k a_k z^k on |z| = r at the angles 2 pi k/n: the a_k scaled by
    r^k, folded mod n and summed by one inverse DFT."""
    a = a * r ** np.arange(len(a))
    if len(a) > n:
        a = np.pad(a, (0, -len(a) % n)).reshape(-1, n).sum(axis=0)
    return np.fft.ifft(a, n, norm="forward")


def per_call_class_quantity(kind: str, f, r: float, n: int, g=None) -> np.ndarray:
    """N/D of the class's PREDICATES row on |z| = r, N and D rebuilt from
    the series of f (and g) through the row and summed by
    per_call_coeff_values on every call."""
    from schlicht.probe import PREDICATES

    row = PREDICATES[kind]
    num, den = row.quotient(getattr(f, "series", f).coeffs,
                            getattr(g, "series", g).coeffs if row.reads_g else None)
    values = per_call_coeff_values(num, r, n)
    return values if den is None else values / per_call_coeff_values(den, r, n)


#: The radii a radius solve scans before it bisects: its innermost
#: radius 1e-3, then the rungs 0.05, 0.10, ..., 0.95, 0.97, 0.99 and its
#: cap 0.999, spelled here apart from the library's.
SOLVE_LADDER = (1e-3,) + tuple(k / 20 for k in range(1, 20)) + (0.97, 0.99, 0.999)


def ladder_bisection(predicate, tol: float):
    """(lo, hi, iterations, capped, trace) of the plainest radius solve:
    predicate read at one radius at a time, up the SOLVE_LADDER to its
    first failure, then halving [lo, hi] at 0.5 * (lo + hi) while the
    width exceeds tol and that midpoint lies strictly between them.
    None when the predicate fails at the innermost radius; when no rung
    fails, lo = hi = the cap, with capped set and no bisection."""
    trace = []

    def holds(r: float) -> bool:
        trace.append((r, bool(predicate(r))))
        return trace[-1][1]

    lo = hi = None
    for r in SOLVE_LADDER:
        if not holds(r):
            hi = r
            break
        lo = r
    if lo is None:
        return None
    if hi is None:
        return lo, lo, 0, True, tuple(trace)
    iterations = 0
    while hi - lo > tol and lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
        iterations += 1
    return lo, hi, iterations, False, tuple(trace)
