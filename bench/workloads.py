"""The four workloads: inputs drawn from a seed, one op, and its checks.

Each workload runs a fixed list of ops.  Within one workload every op
has the same make-up, and the inputs that drive cost (order, the
automorphism centre, atom count, predicate, verb) vary inside an op,
so the op time has one mode and its median and p90 do not sit on a
boundary between modes.  ``run`` times only the calls into schlicht;
``check`` compares the output with the independent checks in
``checks.py``.  Timed code calls schlicht through module attributes
(``S.apply``, ``schlicht.cli.main``) so that the traced run sees it;
set-up code may bind names directly.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
from time import perf_counter

import numpy as np

import schlicht as S
import schlicht.cli  # noqa: F401  (binds S.cli)
from schlicht import (
    DiskAutomorphism,
    Dilation,
    Libera,
    OmittedValue,
    Rotation,
    SquareRoot,
    apply,
    convex_extremal,
    from_starlike,
    koebe,
    named_function,
    partial_sum,
    sample,
    series_to_dict,
)

import checks

#: Nearest-rank p90 of at least this many ops has ten ops beyond it.
MIN_OPS = 100

#: Listed here, not taken from schlicht, so that the workload stays the
#: same when the program gains a class kind.
CLASS_KINDS = (
    "bounded_turning",
    "starlike",
    "convex",
    "close_to_convex",
    "ratio_positive",
    "quasi_convex",
)


def _coeffs(f) -> np.ndarray:
    return np.array(f.coeffs)


def _seeded_starlike(rng, order: int):
    """from_starlike of a random positive-real-part series with 1-6 atoms."""
    seed = int(rng.integers(2**63))
    atoms = int(rng.integers(1, 7))
    return from_starlike(sample(seed, atoms, order - 1))


def _disk_point(rng, lo: float, hi: float) -> complex:
    return complex(rng.uniform(lo, hi) * np.exp(1j * rng.uniform(0, 2 * np.pi)))


class Workload:
    name = ""
    #: Ops per second on the reference machine; sizes a run of --seconds.
    per_second = 1.0
    #: A run is whole rounds of this many ops.
    round_len = 1

    def n_ops(self, seconds: float) -> int:
        n = max(MIN_OPS, math.ceil(seconds * self.per_second))
        return self.round_len * math.ceil(n / self.round_len)

    def inputs(self, rng, n: int) -> list:
        raise NotImplementedError

    def run(self, x):
        """(seconds spent in schlicht, output) for one op."""
        raise NotImplementedError

    def replay(self, x):
        """The op in this process, for the traced run."""
        return self.run(x)

    def check(self, x, out) -> list[str]:
        raise NotImplementedError

    def known_fault(self, x) -> bool:
        return False

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


def _cli_in_process(argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = perf_counter()
        rc = S.cli.main(argv)
        t1 = perf_counter()
    return t1 - t0, (rc, buf.getvalue())


class ReportSweep(Workload):
    """``schlicht report`` in-process: 200 samples at order 32 per op."""

    name = "report-sweep"
    per_second = 8.0
    samples = 200
    order = 32

    def inputs(self, rng, n):
        return [int(s) for s in rng.integers(2**31, size=n)]

    def argv(self, seed: int) -> list[str]:
        return ["report", f"--seed={seed}", f"--samples={self.samples}", f"--order={self.order}"]

    def run(self, seed):
        return _cli_in_process(self.argv(seed))

    def check(self, seed, out):
        rc, text = out
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            return ["report output is not JSON"]
        return checks.report(payload, rc, seed, self.samples, self.order)


class TransformChain(Workload):
    """Rotation, Libera, Dilation, OmittedValue, two DiskAutomorphisms
    (one centre with |sigma| in [0.09, 0.1], one in [0.3, 0.5]) and
    SquareRoot at order 256, then the coefficient functionals."""

    name = "transform-chain"
    per_second = 13.0
    order = 256

    def inputs(self, rng, n):
        xs = []
        for _ in range(n):
            f = _seeded_starlike(rng, self.order)
            r = float(rng.uniform(0.45, 0.55))
            xs.append(
                {
                    "f": f,
                    "theta": float(rng.uniform(0, 2 * np.pi)),
                    "r": r,
                    # the dilated map is bounded by 1/(1 - r)^2 <= 4.95 on the disk
                    "xi": _disk_point(rng, 6.0, 9.0),
                    "near": _disk_point(rng, 0.09, 0.1),
                    "far": _disk_point(rng, 0.3, 0.5),
                    "alpha": float(rng.uniform(0, 1)),
                }
            )
        return xs

    def run(self, x):
        t0 = perf_counter()
        steps = [x["f"]]
        for spec in (
            Rotation(x["theta"]),
            Libera(),
            Dilation(x["r"]),
            OmittedValue(x["xi"]),
            DiskAutomorphism(x["near"]),
            DiskAutomorphism(x["far"]),
            SquareRoot(),
        ):
            steps.append(S.apply(spec, steps[-1]))
        g, h = steps[-2], steps[-1]
        fs = S.fekete_szego(g, x["alpha"])
        h2 = S.hankel(g, 2, 1)
        h3 = S.hankel(g, 3, 1)
        bb = S.bieberbach_check(h)
        t1 = perf_counter()
        out = {
            "steps": [_coeffs(s) for s in steps],
            "fekete": (fs.value, fs.bound),
            "hankel": (h2, h3),
            "bieberbach": (bb.value, bb.per_index),
        }
        return t1 - t0, out

    def check(self, x, out):
        s = out["steps"]
        problems = checks.rotation_step(s[0], s[1], x["theta"])
        problems += checks.libera_step(s[1], s[2])
        problems += checks.dilation_step(s[2], s[3], x["r"])
        problems += checks.omitted_step(s[3], s[4], x["xi"])
        problems += checks.automorphism_step(s[4], s[5], x["near"])
        problems += checks.automorphism_step(s[5], s[6], x["far"])
        problems += checks.sqrt_step(s[6], s[7])
        for i, c in enumerate(s[1:], 1):
            problems += checks.normalized(f"step {i}", c)
            problems += checks.de_branges(f"step {i}", c)
        problems += checks.fekete(s[6], x["alpha"], *out["fekete"])
        problems += checks.hankel(s[6], 2, out["hankel"][0])
        problems += checks.hankel(s[6], 3, out["hankel"][1])
        problems += checks.bieberbach(s[7], *out["bieberbach"])
        return problems


def _thmA_degree2():
    return partial_sum(named_function("thmA").series, 2)


#: Radius problems whose answer is a known constant, as (label, solver,
#: function, constant).  The last one is the off-grid convex radius: the
#: extremal direction of the rotated Koebe function falls between the 256
#: sampled angles, and the bracket misses 2 - sqrt(3) by 2.3e-5.
STOCK = (
    ("local univalence of thmA", "local_univalence", lambda: named_function("thmA"), math.sqrt(2) - 1),
    ("local univalence of thmA's degree-2 partial sum", "local_univalence", _thmA_degree2, 0.25),
    ("convex radius of koebe", "convex", lambda: koebe(64), 2 - math.sqrt(3)),
    ("ratio-positive radius of koebe", "ratio_positive", lambda: koebe(64), 1 / math.sqrt(2)),
    ("local univalence of thmA dilated by 0.8", "local_univalence",
     lambda: apply(Dilation(0.8), named_function("thmA").series), (math.sqrt(2) - 1) / 0.8),
    ("local univalence of thmA dilated by 0.6", "local_univalence",
     lambda: apply(Dilation(0.6), named_function("thmA").series), (math.sqrt(2) - 1) / 0.6),
    ("local univalence of the degree-2 sum dilated by 0.5", "local_univalence",
     lambda: apply(Dilation(0.5), _thmA_degree2()), 0.5),
    ("convex radius of koebe dilated by 0.8", "convex",
     lambda: apply(Dilation(0.8), koebe(64)), (2 - math.sqrt(3)) / 0.8),
    ("convex radius of koebe dilated by 0.6", "convex",
     lambda: apply(Dilation(0.6), koebe(64)), (2 - math.sqrt(3)) / 0.6),
    ("ratio-positive radius of koebe dilated by 0.8", "ratio_positive",
     lambda: apply(Dilation(0.8), koebe(64)), 1 / math.sqrt(2) / 0.8),
    ("ratio-positive radius of koebe dilated by 0.9", "ratio_positive",
     lambda: apply(Dilation(0.9), koebe(64)), 1 / math.sqrt(2) / 0.9),
    ("convex radius of koebe rotated by pi/256", "convex",
     lambda: apply(Rotation(math.pi / 256), koebe(64)), 2 - math.sqrt(3)),
)

#: Index in STOCK of the op that fails at every run (see above).
OFF_GRID = len(STOCK) - 1


class RadiusProbe(Workload):
    """Per op: class_radius for the six kinds on a seeded starlike
    function of order 64, local_univalence_radius on one of order 128,
    injectivity_probe on koebe (injective) and on z + 2z^2 beyond
    r = 1/4 (not injective), and one radius with a known constant."""

    name = "radius-probe"
    per_second = 9.0
    round_len = len(STOCK)
    tol = 1e-6

    def __init__(self) -> None:
        self.g = convex_extremal(64)
        self.koebe = named_function("koebe")
        self.loop = _thmA_degree2()
        self.stock = [(label, kind, make(), c) for label, kind, make, c in STOCK]

    def inputs(self, rng, n):
        return [
            {
                "f64": _seeded_starlike(rng, 64),
                "f128": _seeded_starlike(rng, 128),
                "r_koebe": float(rng.uniform(0.5, 0.95)),
                "r_loop": float(rng.uniform(0.35, 0.6)),
                "stock": i % len(STOCK),
            }
            for i in range(n)
        ]

    def run(self, x):
        label, kind, F, _ = self.stock[x["stock"]]
        t0 = perf_counter()
        radii = {k: S.class_radius(k, x["f64"], g=self.g, tol=self.tol) for k in CLASS_KINDS}
        lu = S.local_univalence_radius(x["f128"], tol=self.tol)
        inj_koebe = S.injectivity_probe(self.koebe, x["r_koebe"])
        inj_loop = S.injectivity_probe(self.loop, x["r_loop"])
        if kind == "local_univalence":
            stock = S.local_univalence_radius(F, tol=self.tol)
        else:
            stock = S.class_radius(kind, F, tol=self.tol)
        t1 = perf_counter()
        out = {
            "radii": {k: r.to_dict() for k, r in radii.items()},
            "lu": lu.to_dict(),
            "inj": (inj_koebe, inj_loop),
            "stock": stock.to_dict(),
        }
        return t1 - t0, out

    def check(self, x, out):
        a64, a128, g = _coeffs(x["f64"]), _coeffs(x["f128"]), _coeffs(self.g)
        problems = []
        for kind, res in out["radii"].items():
            problems += checks.bracket(
                kind, lambda r, k=kind: checks.class_holds(k, a64, r, g), res, self.tol
            )
        problems += checks.bracket(
            "local_univalence", lambda r: checks.univalent_inside(a128, r), out["lu"], self.tol
        )
        if out["inj"] != (True, False):
            problems.append(f"injectivity of (koebe, z + 2z^2) reported {out['inj']}")
        label, _, _, constant = self.stock[x["stock"]]
        problems += checks.brackets_constant(label, out["stock"], constant, self.tol)
        return problems

    def known_fault(self, x):
        return x["stock"] == OFF_GRID


class CliCold(Workload):
    """``python -m schlicht`` subprocesses, one after another, cycling
    through build, transform, functional, check, radius and sample at
    order 64, with files for input and output."""

    name = "cli-cold"
    per_second = 4.2
    verbs = ("build", "transform", "functional", "check", "radius", "sample")
    round_len = len(verbs)
    order = 64
    tol = 1e-6

    def __init__(self, workdir: str, env: dict) -> None:
        self.dir = workdir
        self.env = env
        os.makedirs(workdir, exist_ok=True)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def _write_input(self, i: int, rng) -> tuple[str, np.ndarray]:
        # dilation keeps the growth bound 1/(1 - r)^2 <= 5.2, so any
        # |xi| >= 6 is omitted
        f = apply(Dilation(float(rng.uniform(0.4, 0.56))), _seeded_starlike(rng, self.order))
        path = os.path.join(self.dir, f"in-{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(series_to_dict(f), fh)
        return path, _coeffs(f)

    def inputs(self, rng, n):
        xs = []
        for i in range(n):
            verb, j = self.verbs[i % len(self.verbs)], i // len(self.verbs)
            x = {"verb": verb, "out": os.path.join(self.dir, f"out-{i}.json")}
            if verb == "build":
                x["tag"] = _cycle(("koebe", "moebius", "identity", "thmA", "thmB"), j)
                args = [x["tag"]]
            elif verb == "sample":
                x["seed"], x["atoms"] = int(rng.integers(2**31)), int(rng.integers(1, 9))
                args = [f"--seed={x['seed']}", f"--atoms={x['atoms']}"]
            else:
                path, x["a"] = self._write_input(i, rng)
                args = self._verb_args(verb, j, rng, x) + [f"--input={path}"]
            x["argv"] = [verb] + args + [f"--output={x['out']}"]
            xs.append(x)
        return xs

    def _verb_args(self, verb, j, rng, x):
        if verb == "transform":
            kind = _cycle(("rotate", "dilate", "autom", "omit", "sqrt", "libera"), j)
            x["kind"] = kind
            if kind == "rotate":
                x["p"] = float(rng.uniform(0, 2 * np.pi))
                return [kind, f"--theta={x['p']!r}"]
            if kind == "dilate":
                x["p"] = float(rng.uniform(0.3, 0.9))
                return [kind, f"--r={x['p']!r}"]
            if kind == "autom":
                x["p"] = _disk_point(rng, 0.05, 0.6)
                return [kind, f"--sigma={x['p']!r}"]
            if kind == "omit":
                x["p"] = _disk_point(rng, 6.0, 9.0)
                return [kind, f"--xi={x['p']!r}"]
            return [kind]
        if verb == "functional":
            kind = _cycle(("fekete", "hankel", "bieberbach"), j)
            x["kind"] = kind
            if kind == "fekete":
                x["p"] = float(rng.uniform(0, 1))
                return [kind, f"--alpha={x['p']!r}"]
            if kind == "hankel":
                x["p"] = int(rng.integers(2, 4))
                return [kind, f"--q={x['p']}", "--n=1"]
            return [kind]
        kind = _cycle(("bounded-turning", "starlike", "convex", "ratio-positive"), j)
        x["kind"] = kind
        if verb == "check":
            x["p"] = float(rng.uniform(0.3, 0.95))
            return [f"--class={kind}", f"--r={x['p']!r}"]
        return [kind, f"--tol={self.tol!r}"]

    def run(self, x):
        argv = [sys.executable, "-m", "schlicht"] + x["argv"]
        t0 = perf_counter()
        proc = subprocess.run(
            argv, env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=60,
        )
        t1 = perf_counter()
        return t1 - t0, self._collect(x, proc.returncode, proc.stderr.decode(errors="replace"))

    def replay(self, x):
        dt, (rc, _) = _cli_in_process(x["argv"])
        return dt, self._collect(x, rc, "")

    def _collect(self, x, rc, err):
        try:
            with open(x["out"], encoding="utf-8") as fh:
                text = fh.read()
            os.remove(x["out"])
        except OSError:
            text = None
        return rc, text, err

    def check(self, x, out):
        rc, text, err = out
        if rc != 0 or text is None:
            return [f"{' '.join(x['argv'])} exited {rc}: {err.strip()}"]
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            return ["output is not JSON"]
        return self._check_payload(x, payload)

    def _check_payload(self, x, p):
        verb = x["verb"]
        if verb == "build":
            c = checks.series_json(p)
            return _exact_stock(x["tag"], c)
        if verb == "sample":
            return checks.sample_series(checks.series_json(p), x["seed"], x["atoms"])
        a = x["a"]
        kind = x.get("kind")
        if verb == "transform":
            c = checks.series_json(p)
            step = {
                "rotate": lambda: checks.rotation_step(a, c, x["p"]),
                "dilate": lambda: checks.dilation_step(a, c, x["p"]),
                "autom": lambda: checks.automorphism_step(a, c, x["p"]),
                "omit": lambda: checks.omitted_step(a, c, x["p"]),
                "sqrt": lambda: checks.sqrt_step(a, c),
                "libera": lambda: checks.libera_step(a, c),
            }[kind]
            return step() + checks.normalized(kind, c) + checks.de_branges(kind, c)
        if verb == "functional":
            if kind == "fekete":
                return checks.fekete(a, x["p"], p["value"], p["bound"])
            if kind == "hankel":
                return checks.hankel(a, x["p"], complex(*p["value"]))
            return checks.bieberbach(a, p["value"], p["per_index"])
        k = kind.replace("-", "_")
        if verb == "check":
            if p["holds"] != checks.class_holds(k, a, x["p"]):
                return [f"check {kind} at r = {x['p']} reported holds = {p['holds']}"]
            return []
        return checks.bracket(kind, lambda r: checks.class_holds(k, a, r), p, self.tol)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _cycle(choices: tuple, j: int):
    """The j-th entry, round and round: every kind gets an equal share."""
    return choices[j % len(choices)]


def _exact_stock(tag: str, c: np.ndarray) -> list[str]:
    """Coefficients of the stock functions, which are exact in floats."""
    k = np.arange(len(c), dtype=float)
    want = {
        "koebe": k,
        "moebius": np.where(k == 0, 1.0, 2.0),
        "identity": (k == 1).astype(float),
        "thmA": np.where(k == 0, 0.0, np.where(k == 1, 1.0, 2.0)),
        "thmB": np.concatenate([[0.0, 1.0], 2.0 / k[2:]]),
    }[tag]
    if not np.array_equal(c, want):
        return [f"build {tag}: coefficients differ from the closed form"]
    return []


def make(name: str, workdir: str, env: dict) -> Workload:
    if name == "cli-cold":
        return CliCold(workdir, env)
    for cls in (ReportSweep, TransformChain, RadiusProbe):
        if cls.name == name:
            return cls()
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("report-sweep", "transform-chain", "radius-probe", "cli-cold")
