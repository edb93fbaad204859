"""Self-tests of the benchmark's checks: each passes a real output of the
program and rejects the same output corrupted.

Run from the root of a checkout with ``python3 -m pytest bench``.
"""

import copy
import json
import os
import shutil
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import checks  # noqa: E402
import workloads  # noqa: E402

NUDGE = 1e-6


def nudge(c: np.ndarray, k: int | None = None) -> np.ndarray:
    """Copy with one coefficient changed by NUDGE relative; by default
    the largest one that is not fixed by normalization."""
    out = np.array(c)
    if k is None:
        k = 2 + int(np.argmax(np.abs(out[2:])))
    out[k] *= 1 + NUDGE
    return out


def rng(seed=20240611):
    return np.random.default_rng(seed)


@pytest.fixture(scope="module")
def chain():
    wl = workloads.TransformChain()
    x = wl.inputs(rng(), 1)[0]
    return wl, x, wl.run(x)[1]


@pytest.fixture(scope="module")
def radius():
    wl = workloads.RadiusProbe()
    x = wl.inputs(rng(), 1)[0]
    return wl, x, wl.run(x)[1]


@pytest.fixture(scope="module")
def cli():
    workdir = os.path.join(BENCH, "out", f"selftest-{os.getpid()}")
    wl = workloads.CliCold(workdir, dict(os.environ))
    xs = wl.inputs(rng(), 120)
    yield wl, [(x, wl.replay(x)[1]) for x in xs]
    shutil.rmtree(workdir, ignore_errors=True)


def test_chain_output_passes(chain):
    wl, x, out = chain
    assert wl.check(x, out) == []


@pytest.mark.parametrize("step", range(1, 8))
def test_chain_rejects_nudged_step(chain, step):
    wl, x, out = chain
    bad = copy.deepcopy(out)
    bad["steps"][step] = nudge(bad["steps"][step])
    assert wl.check(x, bad)


def test_chain_rejects_nudged_functional(chain):
    wl, x, out = chain
    bad = copy.deepcopy(out)
    value, bound = bad["fekete"]
    bad["fekete"] = (value * (1 + NUDGE), bound)
    assert wl.check(x, bad)
    bad = copy.deepcopy(out)
    bad["hankel"] = (out["hankel"][0], out["hankel"][1] * (1 + NUDGE) + NUDGE)
    assert wl.check(x, bad)


def test_de_branges_rejects_koebe_overshoot():
    c = np.arange(65, dtype=complex)
    assert checks.de_branges("koebe", c) == []
    assert checks.de_branges("koebe", nudge(c, 40))


def test_radius_output_passes(radius):
    wl, x, out = radius
    assert not wl.known_fault(x)
    assert wl.check(x, out) == []


@pytest.mark.parametrize("shift", [10, -10])
@pytest.mark.parametrize("which", list(workloads.CLASS_KINDS) + ["lu", "stock"])
def test_radius_rejects_shifted_bracket(radius, which, shift):
    wl, x, out = radius
    bad = copy.deepcopy(out)
    res = bad["radii"][which] if which in bad["radii"] else bad[which]
    if res["capped"]:
        pytest.skip("capped result has no bracket to shift")
    res["lo"] += shift * wl.tol
    res["hi"] += shift * wl.tol
    assert wl.check(x, bad)


def test_radius_rejects_wrong_injectivity(radius):
    wl, x, out = radius
    bad = copy.deepcopy(out)
    bad["inj"] = (True, True)
    assert wl.check(x, bad)


def test_off_grid_convex_radius_is_the_known_fault():
    wl = workloads.RadiusProbe()
    x = dict(wl.inputs(rng(), 1)[0], stock=workloads.OFF_GRID)
    problems = wl.check(x, wl.run(x)[1])
    assert wl.known_fault(x)
    assert len(problems) == 1 and "misses" in problems[0]


def test_report_passes_and_rejects_one_violation():
    wl = workloads.ReportSweep()
    seed = 7
    rc, text = wl.run(seed)[1]
    assert wl.check(seed, (rc, text)) == []
    payload = json.loads(text)
    bad = copy.deepcopy(payload)
    bad["checks"]["starlike"]["violations"] = 1
    bad["total_violations"] = 1
    assert checks.report(bad, rc, seed, wl.samples, wl.order)
    bad = copy.deepcopy(payload)
    bad["checks"]["close_to_convex"]["worst_margin"] = -1e-6
    assert checks.report(bad, rc, seed, wl.samples, wl.order)
    assert checks.report(payload, 1, seed, wl.samples, wl.order)


def test_cli_outputs_pass(cli):
    wl, ops = cli
    for x, out in ops:
        assert wl.check(x, out) == [], x["argv"]


def test_cli_rejects_corrupted_outputs(cli):
    wl, ops = cli
    tested = set()
    for x, out in ops:
        p = json.loads(out[1])
        verb, kind = x["verb"], x.get("kind")
        if verb in ("build", "sample", "transform"):
            c = checks.series_json(p)
            k = None
            if verb == "sample" or (verb == "build" and x["tag"] in ("koebe", "moebius")):
                k = 1 + int(np.argmax(np.abs(c[1:])))
            elif verb == "build":
                k = 1
            bad = nudge(c, k)
            p["coeffs"] = [[v.real, v.imag] for v in bad]
        elif verb == "functional":
            if kind == "hankel":
                p["value"][0] += NUDGE * max(1.0, abs(complex(*p["value"])))
            else:
                p["value"] = p["value"] * (1 + NUDGE) + NUDGE
        elif verb == "check":
            p["holds"] = not p["holds"]
        else:
            if p["capped"]:
                continue
            p["lo"] += 10 * wl.tol
            p["hi"] += 10 * wl.tol
        assert wl._check_payload(x, p), (x["argv"], p)
        tested.add(verb if verb not in ("transform", "functional") else f"{verb} {kind}")
    kinds = ["transform " + k for k in ("rotate", "dilate", "autom", "omit", "sqrt", "libera")]
    kinds += ["functional " + k for k in ("fekete", "hankel", "bieberbach")]
    assert tested == {"build", "sample", "check", "radius", *kinds}


def test_sample_check_matches_documented_draw():
    c = checks.sample_series  # the check recomputes c_k from the seed
    from schlicht import sample

    for seed, atoms in [(0, 1), (5, 3), (123456, 8)]:
        h = np.array(sample(seed, atoms, 64).coeffs)
        assert c(h, seed, atoms) == []
        assert c(nudge(h, 1 + int(np.argmax(np.abs(h[1:])))), seed, atoms)
        assert c(h, seed + 1, atoms)
