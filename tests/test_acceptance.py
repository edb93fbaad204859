"""End-to-end acceptance gate.

One test per numbered criterion; each prints a single [PASS]/[FAIL] line
so the run log doubles as a checklist.  Tolerances are stated inline and
are the contract: tighten at will, never loosen.
"""

import json
import math
import subprocess
import sys

import numpy as np

from oracles import (
    naive_compose,
    naive_truncated_product,
    quadrature_coefficient_map,
    random_coeffs,
    random_normalized_coeffs,
)
from schlicht.caratheodory import (
    check_coefficient_bound,
    check_pommerenke,
    pommerenke_extremal,
    sample,
)
from schlicht.functionals import covering_check, fekete_szego, hankel
from schlicht.probe import local_univalence_radius, partial_sum
from schlicht.series import TruncatedSeries, compose, multiply, sqrt_even_transform
from schlicht.transforms import (
    SquareRoot,
    apply,
    bernardi,
    iterate_alpha,
    iterate_sigma,
    libera,
    linear_sum,
)
from schlicht.zoo import (
    convex_extremal,
    from_close_to_convex,
    from_starlike,
    koebe,
    moebius,
    named_function,
)


def record(n: int, desc: str, ok: bool) -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {n}: {desc}")
    assert ok, f"criterion {n}: {desc}"


def test_criterion_01_koebe_coefficients():
    proc = subprocess.run(
        [sys.executable, "-m", "schlicht", "build", "koebe", "--order", "64"],
        capture_output=True, text=True, timeout=120,
    )
    payload = json.loads(proc.stdout)
    ok = (
        proc.returncode == 0
        and payload["coeffs"] == [[float(n), 0.0] for n in range(65)]
    )
    record(1, "build koebe --order 64 gives a_n = n float-exact", ok)


def test_criterion_02_caratheodory_bound():
    worst = np.inf
    single_dev = 0.0
    for i in range(10_000):
        n_atoms = i % 8 + 1
        h = sample(rng_seed=i, n_atoms=n_atoms, order=32)
        rep = check_coefficient_bound(h)
        worst = min(worst, rep.margin)
        if n_atoms == 1:
            deviations = np.abs([m for _, m in rep.per_index])
            single_dev = max(single_dev, float(deviations.max()))
    ok = worst >= -1e-12 and single_dev <= 1e-12
    record(
        2,
        "10^4 Herglotz samples at order 32: |c_k| <= 2 "
        f"(worst margin {worst:.2e}), single atoms attain 2 to 1e-12",
        ok,
    )


def test_criterion_03_pommerenke_equality():
    rng = np.random.default_rng(20240816)
    gap = 0.0
    for _ in range(100):
        c1 = 2.0 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        eps = np.exp(2j * np.pi * rng.uniform())
        h = pommerenke_extremal(c1, eps, order=8)
        gap = max(gap, abs(check_pommerenke(h).margin))
    ok = gap <= 1e-9
    record(3, f"pommerenke_extremal attains equality (max gap {gap:.2e})", ok)


def test_criterion_04_recurrence_fidelity():
    target = koebe(64).coeffs
    star = from_starlike(moebius(64)).coeffs[:65]
    ctc = from_close_to_convex(moebius(64), convex_extremal(65)).coeffs[:65]
    err_star = float(np.abs(star - target).max())
    err_ctc = float(np.abs(ctc - target).max())
    ok = err_star <= 1e-10 and err_ctc <= 1e-10
    record(
        4,
        "from_starlike(moebius) and from_close_to_convex(moebius, convex "
        f"extremal) rebuild koebe to 1e-10 (errs {err_star:.2e}, {err_ctc:.2e})",
        ok,
    )


def test_criterion_05_radius_constants():
    nf = named_function("thmA", order=64)
    res = local_univalence_radius(nf, tol=1e-6)
    mid = 0.5 * (res.lo + res.hi)
    err_a = abs(mid - (math.sqrt(2.0) - 1.0))

    res2 = local_univalence_radius(partial_sum(nf.series, 2), tol=1e-6)
    mid2 = 0.5 * (res2.lo + res2.hi)
    err_b = abs(mid2 - 0.25)
    ok = err_a <= 1e-6 and err_b <= 1e-6
    record(
        5,
        "local univalence radii: thmA extremal at sqrt(2)-1, its degree-2 "
        f"partial sum at 1/4 (errs {err_a:.2e}, {err_b:.2e})",
        ok,
    )


def test_criterion_06_covering_constant():
    rep = covering_check(koebe(64), -0.25)
    ok = abs(rep.value - 2.0) <= 1e-9
    record(6, f"covering_check(koebe, -1/4) value {rep.value} = 2 to 1e-9", ok)


def test_criterion_07_fekete_szego_and_odd_constant():
    f = koebe(8)
    ok = True
    for alpha in (0.0, 0.25, 0.5, 0.75):
        rep = fekete_szego(f, alpha)
        ok = ok and abs(rep.value - abs(3.0 - 4.0 * alpha)) <= 1e-12
        ok = ok and rep.margin >= -1e-12
        if alpha == 0.0:
            ok = ok and rep.margin == 0.0

    limit = 0.5 + math.exp(-2.0 / 3.0)
    worst = 0.0
    for seed in range(1000):
        g = from_starlike(sample(rng_seed=seed, n_atoms=seed % 8 + 1, order=8))
        worst = max(worst, abs(apply(SquareRoot(), g).coeffs[5]))
    ok = ok and worst <= limit + 1e-9
    record(
        7,
        "Koebe |3-4a| within the Fekete-Szego bound (equality at a=0); "
        f"10^3 starlike samples keep |c5| <= {limit:.6f} (max {worst:.6f})",
        ok,
    )


def test_criterion_08_averaging_oracles():
    rng = np.random.default_rng(20240816)
    f = TruncatedSeries(random_normalized_coeffs(rng, 8))
    p_coeffs = random_coeffs(rng, 8)
    p_coeffs[0] = 1.0
    p = TruncatedSeries(p_coeffs)

    err = 0.0

    def against(got, want):
        nonlocal err
        err = max(err, float(np.abs(got.coeffs - want).max()))

    against(libera(f), quadrature_coefficient_map(f.coeffs, [1.0], prefactor=2.0))
    for gamma in (0.5, 2.0):
        against(
            bernardi(f, gamma),
            quadrature_coefficient_map(
                f.coeffs, [gamma], prefactor=(1.0 + gamma) / gamma
            ),
        )
    for alpha in (1.0, 2.0):
        for n in (1, 3):
            against(
                iterate_alpha(p, alpha, n),
                quadrature_coefficient_map(p.coeffs, [alpha] * n),
            )
    against(iterate_sigma(p, 3.0, 2), quadrature_coefficient_map(p.coeffs, [3.0, 2.0]))
    ok = err <= 1e-8
    record(8, f"averaging transforms match quadrature to 1e-8 (max err {err:.2e})", ok)


def test_criterion_09_hankel_identity():
    rng = np.random.default_rng(20240816)
    ok = True
    for _ in range(100):
        f = TruncatedSeries(random_normalized_coeffs(rng, 6))
        a2, a3 = f.coeffs[2], f.coeffs[3]
        ok = ok and hankel(f, 2, 1) == a3 - a2 * a2
    resid = abs(hankel(koebe(8), 3, 1))
    ok = ok and resid <= 1e-10
    record(
        9,
        "hankel(f,2,1) = a3 - a2^2 exactly on 10^2 random series; "
        f"hankel(koebe,3,1) = 0 to 1e-10 (got {resid:.2e})",
        ok,
    )


def test_criterion_10_positivity_sweep():
    order = 256
    rows = []
    for i in range(1000):
        h = sample(rng_seed=10_000 + i, n_atoms=i % 8 + 1, order=order)
        other = sample(rng_seed=50_000 + i, n_atoms=(i + 3) % 8 + 1, order=order)
        rows.append(iterate_alpha(h, 2.0, 1).coeffs)
        rows.append(iterate_alpha(h, 1.0, 2).coeffs)
        rows.append(iterate_sigma(h, 3.0, 2).coeffs)
        rows.append(linear_sum(h, other, 0.5).coeffs)
    mat = np.vstack(rows)
    zs = 0.95 * np.exp(2j * np.pi * np.arange(256) / 256)
    powers = zs[None, :] ** np.arange(order + 1)[:, None]
    floor = float((mat @ powers).real.min())
    ok = floor > -1e-9
    record(
        10,
        "4000 averaged/combined Caratheodory outputs keep Re > 0 on "
        f"|z| = 0.95 (min {floor:.6f})",
        ok,
    )


def test_criterion_11_oracle_equivalence():
    rng = np.random.default_rng(20240816)
    err_mult = 0.0
    err_comp = 0.0
    for trial in range(50):
        order = 2 + trial % 7
        a = random_coeffs(rng, order)
        b = random_coeffs(rng, order)
        got = multiply(TruncatedSeries(a), TruncatedSeries(b)).coeffs
        err_mult = max(
            err_mult,
            float(np.abs(got - naive_truncated_product(a, b, order)).max()),
        )
        inner = random_coeffs(rng, order, scale=0.5)
        inner[0] = 0.0
        got = compose(TruncatedSeries(a), TruncatedSeries(inner)).coeffs
        err_comp = max(
            err_comp, float(np.abs(got - naive_compose(a, inner, order)).max())
        )

    err_sqrt = 0.0
    for _ in range(20):
        f = TruncatedSeries(random_normalized_coeffs(rng, 8))
        s = sqrt_even_transform(f)
        squared = multiply(s, s).coeffs
        substituted = np.zeros(s.order + 1, dtype=complex)
        substituted[::2] = f.coeffs[: s.order // 2 + 1]
        err_sqrt = max(err_sqrt, float(np.abs(squared - substituted).max()))
    ok = err_mult <= 1e-12 and err_comp <= 1e-12 and err_sqrt <= 1e-10
    record(
        11,
        "multiply/compose match brute force to 1e-12 "
        f"({err_mult:.2e}, {err_comp:.2e}); sqrt_even squared returns f(z^2) "
        f"to 1e-10 ({err_sqrt:.2e})",
        ok,
    )
