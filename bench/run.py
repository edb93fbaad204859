"""Benchmark of schlicht: four workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload report-sweep --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones: ``ops_per_s``,
``op_p50_ms``, ``op_p90_ms``, ``setup_s`` and ``peak_rss_mb``.  With
``--trace 1`` they are the per-layer ones, from a separate run in which
every public schlicht function is wrapped (see ``tracer.py``), plus the
tracing overhead against the same ops run without the wrappers.

The work happens in fresh worker processes (this file with
``--worker``).  Set-up is timed from the spawn of a worker to its first
timed op, over SETUP_STARTS fresh starts run one after another; the last
of them goes on to run the timed ops.  Results and traces are written
under ``bench/out/``.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import zlib  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

WORKLOADS = ("report-sweep", "transform-chain", "radius-probe", "cli-cold")

#: Fresh starts per run; setup_s is their median.
SETUP_STARTS = 5

#: Wall-clock budget of one run, below the 180 s a run may take.
DEADLINE_S = 170.0

PER_LAYER_TIMES = (
    "series.mobius_recompose",
    "series.divide",
    "series.principal_power",
    "series.evaluate_many",
    "zoo.from_starlike",
    "zoo.from_close_to_convex",
    "caratheodory.sample",
    "probe.class_predicate",
    "probe.injectivity_probe",
    "cli.main",
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one stream of work: no BLAS thread pools next to it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# -- worker: one fresh process ---------------------------------------------------


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile: ceil(q n) values lie at or below it."""
    return sorted_values[math.ceil(round(q * len(sorted_values), 9)) - 1]


def worker(args) -> int:
    import numpy as np

    sys.path[:0] = [SRC, BENCH]
    import schlicht.cli  # noqa: F401

    if os.path.dirname(os.path.abspath(schlicht.__file__)) != os.path.join(SRC, "schlicht"):
        print(f"schlicht imported from {schlicht.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.make(args.workload, os.path.join(OUT, f"work-{os.getpid()}"), child_env())
    try:
        rng = np.random.default_rng([args.seed, zlib.crc32(args.workload.encode())])
        xs = wl.inputs(rng, wl.n_ops(args.seconds))
        wl.run(xs[0])  # warm-up
        print(json.dumps({"start": T_START, "ready": perf_counter()}), flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            result = traced_ops(wl, xs, args)
        else:
            result = timed_ops(wl, xs)
    finally:
        wl.close()
    print(json.dumps(result), flush=True)
    return 0


def _tally(wl, x, out, tally) -> None:
    problems = wl.check(x, out)
    if problems:
        tally["failed"] += 1
        if not wl.known_fault(x):
            tally["unexpected"].append(problems)
            print(f"check failed: {'; '.join(problems)}", file=sys.stderr)


def timed_ops(wl, xs) -> dict:
    tally = {"failed": 0, "unexpected": []}
    times = []
    for x in xs:
        dt, out = wl.run(x)
        times.append(dt)
        _tally(wl, x, out, tally)
    times.sort()
    return {
        "attempted": len(xs),
        "failed": tally["failed"],
        "correct": not tally["unexpected"],
        "metrics": {
            "ops_per_s": (len(xs) / sum(times), "1/s"),
            "op_p50_ms": (1e3 * statistics.median(times), "ms"),
            "op_p90_ms": (1e3 * percentile(times, 0.9), "ms"),
            "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
        },
    }


def traced_ops(wl, xs, args) -> dict:
    """Each op runs untraced, then traced; the pair gives the overhead."""
    from tracer import LAYERS, Tracer

    tracer = Tracer()
    tally = {"failed": 0, "unexpected": []}
    plain, traced = [], []
    for i, x in enumerate(xs):
        plain.append(wl.replay(x)[0])
        tracer.install()
        tracer.op = i
        try:
            dt, out = wl.replay(x)
        finally:
            tracer.uninstall()
        traced.append(dt)
        _tally(wl, x, out, tally)
    n = len(xs)
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = (1e3 * tracer.layer_self_s(layer) / n, "ms")
    m["series.calls"] = (tracer.layer_calls("series") / n, "count")
    for key in PER_LAYER_TIMES:
        m[f"{key}.self_ms"] = (1e3 * tracer.self_s.get(key, 0.0) / n, "ms")
    for key in ("series.kernel_macs", "series.evaluate_many.points", "probe.predicate_evals"):
        m[key] = (tracer.counts.get(key, 0) / n, "count")
    overhead = statistics.median(traced) / statistics.median(plain) - 1
    m["trace.overhead_pct"] = (100 * overhead, "%")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    return {"attempted": n, "failed": tally["failed"], "correct": not tally["unexpected"], "metrics": m}


# -- driver: fresh starts and the result line ----------------------------------------


def import_times(stderr: str) -> dict:
    """Cumulative import time (ms) of top-level numpy and schlicht
    entries from ``python -X importtime`` output."""
    out = {"numpy": 0.0, "schlicht": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit() or name[1:2] == " ":
            continue  # header, or nested below a top-level import
        top = name.strip().split(".")[0]
        if top in out:
            out[top] += int(cumulative) / 1e3
    return out


def spawn(args, setup_only: bool, deadline: float):
    """Run one worker; returns (set-up s, interpreter start s, result, stderr)."""
    cmd = [sys.executable]
    if args.trace:
        cmd += ["-X", "importtime"]
    cmd += [os.path.abspath(__file__), "--worker", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t_spawn = perf_counter()
    proc = subprocess.Popen(
        cmd, env=child_env(), cwd=ROOT, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE if args.trace else None, text=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("worker ran past the deadline")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        if stderr:
            sys.stderr.write(stderr)
        raise SystemExit(f"worker exited {proc.returncode}")
    ready = json.loads(lines[0])
    result = None if setup_only else json.loads(lines[-1])
    return ready["ready"] - t_spawn, ready["start"] - t_spawn, result, stderr or ""


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.worker:
        return worker(args)
    if not os.path.isfile(os.path.join(SRC, "schlicht", "__init__.py")):
        print(f"no schlicht sources under {SRC}", file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S
    # Fill the bytecode and file caches before any start is timed.
    subprocess.run([sys.executable, "-c", "import numpy, schlicht.cli"], env=child_env(),
                   cwd=ROOT, check=True, timeout=60)
    setups, interp, imports = [], [], []
    for k in range(SETUP_STARTS):
        last = k == SETUP_STARTS - 1
        setup, start, result, stderr = spawn(args, not last, deadline)
        setups.append(setup)
        interp.append(start)
        imports.append(import_times(stderr))
    metrics = {name: (value, unit) for name, (value, unit) in result["metrics"].items()}
    if args.trace:
        metrics["cli.interp_ms"] = (1e3 * statistics.median(interp), "ms")
        for top in ("numpy", "schlicht"):
            metrics[f"cli.{top}_import_ms"] = (statistics.median(i[top] for i in imports), "ms")
    else:
        metrics["setup_s"] = (statistics.median(setups), "s")
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} attempted = {result['attempted']}, failed = {result['failed']}, "
          f"correct = {result['correct']}")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(line, fh, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
