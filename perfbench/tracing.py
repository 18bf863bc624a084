"""Layer spans recorded from outside the program.

`installed` rebinds each traced public function, in every normfusion
module namespace that holds it (`tensor.matmul`, which `rowvec_matmul`
calls, `block.matmul`, the names `cli` imported, ...), to a wrapper that
opens a span.
Spans nest through a stack, so each knows its parent and its root; a
span's self time is its duration minus its children's. Spans are summed
into (root, parent, layer) cells as they close.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter

import numpy as np

# Layer name -> the public functions, as "module.function", that make it up.
LAYERS = {
    "tensor.matmul": ("tensor.matmul",),
    "tensor.validate": ("tensor.as_matrix", "tensor.as_row_vector"),
    "tensor.ordered_sum": ("tensor.ordered_sum",),
    "norms": ("norms.moments", "norms.layernorm", "norms.rmsnorm",
              "norms.softmax_numerators", "norms.softmax_stable"),
    "fusion.fold": ("fusion.fold_layernorm_linear", "fusion.fold_rmsnorm_linear"),
    "fusion.fused": ("fusion.fused_layernorm_matmul", "fusion.fused_softmax_matmul",
                     "fusion.fused_rmsnorm_matmul", "fusion.fused_rmsnorm_llama_mlp"),
    "block.run_conventional": ("block.run_conventional",),
    "block.run_fused": ("block.run_fused",),
    "block.build_graph": ("block.build_graph",),
    "simulator.schedule": ("simulator.schedule",),
    "simulator.compare": ("simulator.compare",),
    "jsonio.load_config": ("jsonio.load_config",),
    "jsonio.dumps_report": ("jsonio.dumps_report",),
    "cli.main": ("cli.main",),
}


def _count_matmul(tracer: Tracer, args) -> None:
    shapes = (np.shape(args[0]), np.shape(args[1]))
    tracer.matmul_shapes[shapes] += 1
    tracer.macs += shapes[0][0] * shapes[0][1] * shapes[1][1]


def _count_schedule(tracer: Tracer, args) -> None:
    tracer.nodes_scheduled += len(args[0].nodes)


_COUNTERS = {"tensor.matmul": _count_matmul, "simulator.schedule": _count_schedule}


class Tracer:
    """Span totals for the calls made while `active` is true."""

    def __init__(self):
        self.active = False
        self._stack: list[list] = []  # open spans: [layer, root, child_ns]
        self.calls: Counter = Counter()  # (root, parent, layer) -> spans
        self.self_ns: Counter = Counter()  # (root, parent, layer) -> self time
        self.top_ns = 0  # summed duration of spans with no parent
        self.macs = 0
        self.matmul_shapes: Counter = Counter()
        self.nodes_scheduled = 0

    def wrap(self, layer: str, fn, count=None):
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if count is not None:
                count(self, args)
            if stack:
                parent, root = stack[-1][0], stack[-1][1]
            else:
                parent, root = None, layer
            frame = [layer, root, 0]
            stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter_ns() - t0
                stack.pop()
                key = (root, parent, layer)
                self.calls[key] += 1
                self.self_ns[key] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                else:
                    self.top_ns += dur

        return span

    def layer_totals(self, layer: str) -> tuple[int, int]:
        """Spans and self nanoseconds of one layer, over all roots and parents."""
        calls = sum(n for key, n in self.calls.items() if key[2] == layer)
        return calls, sum(ns for key, ns in self.self_ns.items() if key[2] == layer)

    def by_root(self) -> dict:
        """{root: {layer: [spans, self ms]}} for the detail line."""
        out: dict = {}
        for key, n in self.calls.items():
            root, _, layer = key
            cell = out.setdefault(root, {}).setdefault(layer, [0, 0.0])
            cell[0] += n
            cell[1] += self.self_ns[key] / 1e6
        return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Rebind every traced function to its span wrapper; restore on exit."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "normfusion" or name.startswith("normfusion.")]
    saved = []
    try:
        for layer, qualnames in LAYERS.items():
            for qual in qualnames:
                modname, fname = qual.split(".")
                original = getattr(importlib.import_module(f"normfusion.{modname}"), fname)
                wrapper = tracer.wrap(layer, original, _COUNTERS.get(qual))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            saved.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def _seconds_per_call(fn, a, b) -> float:
    """Median of five batches, each batch at least about a millisecond long."""
    t0 = time.perf_counter()
    fn(a, b)
    batch = max(1, int(1e-3 / max(time.perf_counter() - t0, 1e-7)))
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(batch):
            fn(a, b)
        times.append((time.perf_counter() - t0) / batch)
    return sorted(times)[2]


def blas_ratio(shapes: Counter, reference) -> float:
    """Time of `reference` over `np.matmul`, on the traced operand shapes weighted by calls."""
    rng = np.random.default_rng(0)
    ref_s = blas_s = 0.0
    for (shape_a, shape_b), calls in shapes.items():
        a, b = rng.standard_normal(shape_a), rng.standard_normal(shape_b)
        ref_s += calls * _seconds_per_call(reference, a, b)
        blas_s += calls * _seconds_per_call(np.matmul, a, b)
    return ref_s / blas_s if blas_s else 0.0
