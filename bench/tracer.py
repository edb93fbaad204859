"""Spans around calls into schlicht's layers, recorded from outside.

The tracer wraps every public function of each schlicht module and
rebinds the wrapper under every schlicht module namespace that binds
the original, so calls between modules (``cli`` calling ``zoo``, ``zoo``
calling ``series``) and calls inside a module through its globals are
both seen.  Each call records a span (id, parent id, op, name, start,
end); self time is a span's duration minus the time its child spans
cover.  Classes and private helpers are not wrapped: their time counts
as self time of the public function that called them.

Counts are taken at the same boundaries: calls per function, points
evaluated by ``evaluate_many``, predicate evaluations of a radius solve,
and complex multiply-adds of the series kernels.  The multiply-adds are
computed from the argument orders, following the loops the kernels run
(a full ``np.convolve`` of two length-(n+1) vectors is (n+1)^2), not
counted by hardware.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = ("series", "zoo", "caratheodory", "transforms", "functionals", "probe", "cli")


def _order(s) -> int:
    return len(s.coeffs) - 1


def _size(zs) -> int:
    return int(getattr(zs, "size", 1))


def kernel_macs(key: str, args: tuple) -> int:
    """Complex multiply-adds of one series kernel call, computed from its
    (positional) arguments by following the kernel's loops."""
    if key == "series.evaluate_many":
        return (_order(args[0]) + 1) * _size(args[1])
    if key == "series.evaluate":
        return _order(args[0]) + 1
    if key in ("series.multiply", "series.divide", "series.compose"):
        n = min(_order(args[0]), _order(args[1]))
    else:
        n = _order(args[0])
    if key == "series.multiply":  # one full convolution
        return (n + 1) ** 2
    if key == "series.divide":  # the recurrence, then the residual product
        return n * (n + 1) // 2 + (n + 1) ** 2
    if key == "series.compose":  # one full convolution per outer coefficient
        return n * (n + 1) ** 2
    if key == "series.mobius_recompose":  # one convolution and one axpy per power
        return 0 if complex(args[1]) == 0 else n * ((n + 1) ** 2 + n + 1)
    if key == "series.principal_power":  # weights and a dot product at each k
        return n * (n + 1)
    if key == "series.principal_log":
        return n * (n - 1) // 2
    return 0


KERNELS = frozenset(
    ("series.multiply", "series.divide", "series.compose", "series.mobius_recompose",
     "series.principal_power", "series.principal_log", "series.evaluate", "series.evaluate_many")
)


class Tracer:
    """Installs wrappers, records spans and per-function totals."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[list] = []
        self._bindings: list[tuple] = []
        self._next_id = 0

    def install(self) -> None:
        modules = [importlib.import_module("schlicht")]
        modules += [importlib.import_module(f"schlicht.{m}") for m in LAYERS]
        wrappers = {}
        for mod in modules[1:]:
            layer = mod.__name__.split(".")[-1]
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}"))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._bindings.append((mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)][1])

    def uninstall(self) -> None:
        for mod, name, obj in self._bindings:
            setattr(mod, name, obj)
        self._bindings.clear()

    def _wrap(self, fn, key: str):
        stack = self._stack
        is_kernel = key in KERNELS
        count_points = key == "series.evaluate_many"
        count_evals = key == "probe.radius_solve"

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                self.calls[key] += 1
                self.self_s[key] += dur - frame[1]
                self.spans.append((span_id, parent, self.op, key, t0, t1))
            if is_kernel:
                self.counts["series.kernel_macs"] += kernel_macs(key, args)
            if count_points:
                self.counts["series.evaluate_many.points"] += _size(args[1])
            if count_evals:
                self.counts["probe.predicate_evals"] += len(result.trace)
            return result

        traced.__wrapped__ = fn
        return traced

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

    def layer_calls(self, layer: str) -> int:
        return sum(v for k, v in self.calls.items() if k.startswith(layer + "."))

    def dump(self) -> dict:
        """Spans and totals, JSON-ready (times in microseconds)."""
        origin = self.spans[0][4] if self.spans else 0.0
        return {
            "columns": ["id", "parent", "op", "name", "start_us", "end_us"],
            "spans": [
                [i, p, op, k, round((t0 - origin) * 1e6, 1), round((t1 - origin) * 1e6, 1)]
                for i, p, op, k, t0, t1 in self.spans
            ],
            "calls": dict(self.calls),
            "self_ms": {k: v * 1e3 for k, v in self.self_s.items()},
            "counts": dict(self.counts),
        }
