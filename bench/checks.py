"""Output checks for the benchmark, written apart from schlicht.

Every check here works on plain numpy coefficient arrays and parsed JSON
and imports nothing from the program.  A check returns a list of
problems; an empty list means the output passed.  The references are
either closed forms evaluated pointwise (numpy ``polyval``) and turned
back into coefficients by FFT, or properties the mathematics guarantees
(de Branges' bound, the Fekete-Szego bound, the Caratheodory bound).
"""

from __future__ import annotations

import math

import numpy as np

#: A margin below -VIOLATION_EPS is a violated sharp bound.
VIOLATION_EPS = 1e-9

#: Coefficient relations hold to this tolerance, scaled by the size of
#: the largest coefficient involved.  A 1e-6 relative change of any
#: coefficient of size 1e-2 or more exceeds it.
COEFF_TOL = 1e-9

#: Predicates count a quantity as positive only beyond this threshold.
POSITIVITY_EPS = 1e-9


def polyval(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Value of sum_k c_k z^k."""
    return np.polyval(np.asarray(c, dtype=complex)[::-1], z)


def deriv(c: np.ndarray) -> np.ndarray:
    """Coefficients of the termwise derivative."""
    c = np.asarray(c, dtype=complex)
    return c[1:] * np.arange(1, len(c))


def circle(r: float, n: int) -> np.ndarray:
    return r * np.exp(2j * np.pi * np.arange(n) / n)


def coeffs_from_samples(values: np.ndarray, count: int) -> np.ndarray:
    """First `count` Taylor coefficients from samples on the unit circle."""
    return (np.fft.fft(values) / len(values))[:count]


def _close(name: str, got: np.ndarray, want: np.ndarray) -> list[str]:
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.shape != want.shape:
        return [f"{name}: {got.shape[0]} coefficients, expected {want.shape[0]}"]
    scale = max(1.0, float(np.max(np.abs(want))))
    err = np.abs(got - want)
    k = int(np.argmax(err))
    if err[k] > COEFF_TOL * scale:
        return [f"{name}: coefficient {k} off by {err[k]:.3g}"]
    return []


def normalized(name: str, c: np.ndarray) -> list[str]:
    if c[0] != 0 or c[1] != 1:
        return [f"{name}: not normalized (c0={c[0]}, c1={c[1]})"]
    return []


def de_branges(name: str, c: np.ndarray) -> list[str]:
    """|a_k| <= k, which every function of class S satisfies."""
    k = np.arange(len(c))
    over = np.abs(c[2:]) - k[2:] * (1 + COEFF_TOL)
    if over.size and float(over.max()) > 0:
        j = int(np.argmax(over)) + 2
        return [f"{name}: |a_{j}| = {abs(c[j]):.12g} exceeds {j}"]
    return []


# -- single transform steps, each against its own input --------------------


def rotation_step(a, out, theta) -> list[str]:
    k = np.arange(len(a))
    return _close("rotation", out, a * np.exp(1j * theta * (k - 1)))


def libera_step(a, out) -> list[str]:
    k = np.arange(len(a))
    want = np.zeros(len(a), dtype=complex)
    want[1:] = 2 * a[1:] / (k[1:] + 1)
    return _close("libera", out, want)


def dilation_step(a, out, r) -> list[str]:
    k = np.arange(len(a))
    return _close("dilation", out, a * r ** (k - 1.0))


def omitted_step(a, out, xi) -> list[str]:
    """F (xi - f) = xi f, with the polynomial product taken by FFT."""
    n = len(a)
    m = 1 << int(np.ceil(np.log2(2 * n)))
    z = circle(1.0, m)
    fa = polyval(a, z)
    prod = coeffs_from_samples(polyval(out, z) * (xi - fa), n)
    return _close("omitted value", prod, xi * a)


def automorphism_step(a, out, sigma, samples: int = 4096) -> list[str]:
    """(P(phi(z)) - P(sigma)) / ((1 - |sigma|^2) P'(sigma)) by FFT."""
    z = circle(1.0, samples)
    phi = (z + sigma) / (1 + np.conj(sigma) * z)
    scale = (1 - abs(sigma) ** 2) * polyval(deriv(a), sigma)
    closed = (polyval(a, phi) - polyval(a, sigma)) / scale
    return _close("automorphism", out, coeffs_from_samples(closed, len(a)))


def sqrt_step(a, out) -> list[str]:
    """g(z)^2 = f(z^2), with g^2 taken by FFT of the truncated g."""
    n = len(a)
    if len(out) != n or np.any(out[0::2] != 0):
        return ["square root: even coefficients must vanish exactly"]
    m = 1 << int(np.ceil(np.log2(2 * n)))
    sq = coeffs_from_samples(polyval(out, circle(1.0, m)) ** 2, n)
    want = np.zeros(n, dtype=complex)
    want[0::2] = a[: (n + 1) // 2]
    return _close("square root", sq, want)


# -- functionals -------------------------------------------------------------


def fekete_bound(alpha: float) -> float:
    if alpha == 1:
        return 1.0
    return 1.0 + 2.0 * math.exp(-2.0 * alpha / (1.0 - alpha))


def fekete(c, alpha: float, value: float, bound: float) -> list[str]:
    own = abs(c[3] - alpha * c[2] ** 2)
    problems = []
    if abs(own - value) > COEFF_TOL * max(1.0, own):
        problems.append(f"fekete-szego value {value!r}, recomputed {own!r}")
    if abs(bound - fekete_bound(alpha)) > 1e-15:
        problems.append(f"fekete-szego bound {bound!r} for alpha {alpha!r}")
    if own > fekete_bound(alpha) + VIOLATION_EPS:
        problems.append(f"fekete-szego bound broken: {own!r} at alpha {alpha!r}")
    return problems


def hankel(c, q: int, value: complex) -> list[str]:
    """H_q(1) for q = 2 or 3, expanded by hand."""
    if q == 2:
        own = c[1] * c[3] - c[2] ** 2
    else:
        # rows (a1 a2 a3), (a2 a3 a4), (a3 a4 a5)
        a1, a2, a3, a4, a5 = c[1:6]
        own = a1 * (a3 * a5 - a4 * a4) - a2 * (a2 * a5 - a4 * a3) + a3 * (a2 * a4 - a3 * a3)
    if abs(own - value) > COEFF_TOL * max(1.0, abs(own)):
        return [f"hankel H_{q}(1) = {value!r}, recomputed {own!r}"]
    return []


def bieberbach(c, value: float, per_index) -> list[str]:
    ks = np.arange(2, len(c))
    over = np.abs(c[2:]) - ks
    problems = []
    if value != max(0.0, float(over.max())):
        problems.append(f"bieberbach value {value!r}, recomputed {max(0.0, float(over.max()))!r}")
    got = np.array([m for _, m in per_index])
    if [k for k, _ in per_index] != ks.tolist() or np.max(np.abs(got - over)) > COEFF_TOL * len(c):
        problems.append("bieberbach per-index overshoots do not match the coefficients")
    return problems


# -- radius problems -----------------------------------------------------------


def class_quantity(kind: str, a, z, g=None) -> np.ndarray:
    """Defining quantity of a class, on the truncating polynomials."""
    fz = polyval(a, z)
    d1 = polyval(deriv(a), z)
    d2 = polyval(deriv(deriv(a)), z)
    if kind == "bounded_turning":
        return d1
    if kind == "ratio_positive":
        return fz / z
    if kind == "starlike":
        return z * d1 / fz
    if kind == "convex":
        return 1 + z * d2 / d1
    gd = polyval(deriv(g), z)
    if kind == "close_to_convex":
        return d1 / gd
    if kind == "quasi_convex":
        return (d1 + z * d2) / gd
    raise ValueError(kind)


def class_holds(kind: str, a, r: float, g=None, n_angles: int = 256) -> bool:
    q = class_quantity(kind, a, circle(r, n_angles), g)
    return bool(np.all(np.isfinite(q))) and float(q.real.min()) > POSITIVITY_EPS


def winding(values: np.ndarray) -> int:
    steps = np.diff(np.angle(np.concatenate([values, values[:1]])))
    steps = (steps + np.pi) % (2 * np.pi) - np.pi
    return int(round(float(steps.sum()) / (2 * np.pi)))


def univalent_inside(a, r: float, n_angles: int = 2048) -> bool:
    """f' has no zero in |z| < r: no sample near zero and winding 0."""
    v = polyval(deriv(a), circle(r, n_angles))
    return float(np.abs(v).min()) > POSITIVITY_EPS and winding(v) == 0


def bracket(name: str, holds, res: dict, tol: float, cap: float = 0.999) -> list[str]:
    """The predicate holds at lo and fails at hi, and hi - lo <= tol."""
    lo, hi = res["lo"], res["hi"]
    if res["capped"]:
        if lo != cap or hi != cap or not holds(lo):
            return [f"{name}: capped result [{lo}, {hi}] does not hold at the cap"]
        return []
    problems = []
    if not hi - lo <= tol:
        problems.append(f"{name}: bracket [{lo}, {hi}] wider than {tol}")
    if not holds(lo):
        problems.append(f"{name}: predicate fails at lo = {lo}")
    if holds(hi):
        problems.append(f"{name}: predicate holds at hi = {hi}")
    return problems


def brackets_constant(name: str, res: dict, constant: float, tol: float) -> list[str]:
    if not res["lo"] - tol <= constant <= res["hi"] + tol:
        return [f"{name}: [{res['lo']}, {res['hi']}] misses {constant!r} by more than {tol}"]
    return []


# -- Caratheodory side -----------------------------------------------------------


def caratheodory_series(c, r: float = 0.9) -> list[str]:
    """c_0 = 1, |c_k| <= 2, and Re h > 0 on |z| = r for the truncation.

    A positive-real-part h satisfies Re h >= (1 - r)/(1 + r) on |z| = r;
    the truncation after c_N moves that by at most 2 r^(N+1)/(1 - r).
    """
    c = np.asarray(c, dtype=complex)
    problems = []
    if c[0] != 1:
        problems.append(f"constant term {c[0]} is not 1")
    if float(np.abs(c[1:]).max()) > 2 + 1e-12:
        problems.append(f"|c_k| = {float(np.abs(c[1:]).max())!r} exceeds 2")
    floor = (1 - r) / (1 + r) - 2 * r ** len(c) / (1 - r)
    low = float(polyval(c, circle(r, 512)).real.min())
    if low < floor - 1e-12:
        problems.append(f"min Re h = {low!r} on |z| = {r} is below {floor!r}")
    return problems


def sample_series(c, seed: int, atoms: int) -> list[str]:
    """The documented draw of ``schlicht sample``: a numpy Generator
    seeded with `seed` draws `atoms` angles uniform on [0, 2 pi), then
    weights as the spacings of atoms - 1 sorted uniforms on [0, 1];
    c_k = 2 sum_j mu_j exp(-i k t_j)."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 2 * np.pi, atoms)
    if atoms == 1:
        mu = np.ones(1)
    else:
        mu = np.diff(np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, atoms - 1)), [1.0]]))
    k = np.arange(1, len(c))
    want = np.concatenate([[1.0], 2 * np.exp(-1j * np.outer(k, t)) @ mu])
    return _close("sample", c, want) + caratheodory_series(c)


#: Checks of the report whose extremal (a single-atom sample) gives
#: equality, so their worst margin is zero up to rounding.
REPORT_EQUALITY = (
    "coefficient_bound",
    "pommerenke",
    "ratio_positive",
    "bounded_turning",
    "starlike",
)

REPORT_CHECKS = REPORT_EQUALITY + ("close_to_convex",)


def report(payload: dict, exit_code: int, seed: int, samples: int, order: int) -> list[str]:
    problems = []
    if exit_code != 0:
        problems.append(f"report exited {exit_code}")
    if (payload.get("seed"), payload.get("samples"), payload.get("order")) != (seed, samples, order):
        problems.append("report echoes the wrong seed, sample count or order")
    checks = payload.get("checks", {})
    if sorted(checks) != sorted(REPORT_CHECKS):
        problems.append(f"report has checks {sorted(checks)}")
        return problems
    total = sum(v["violations"] for v in checks.values())
    if payload.get("total_violations") != 0 or total != 0:
        problems.append(f"report counts {payload.get('total_violations')} violations")
    for name, v in checks.items():
        if v["worst_margin"] < -VIOLATION_EPS:
            problems.append(f"{name}: worst margin {v['worst_margin']!r}")
        if name in REPORT_EQUALITY and abs(v["worst_margin"]) > VIOLATION_EPS:
            problems.append(f"{name}: extremal sample misses equality by {v['worst_margin']!r}")
    return problems


def series_json(payload: dict) -> np.ndarray:
    """Coefficients from the CLI's series JSON, with its length contract."""
    rows = payload["coeffs"]
    if len(rows) != payload["order"] + 1:
        raise ValueError("coefficient list length does not match order")
    return np.array([complex(re, im) for re, im in rows])
