"""Per-layer tracing: wrap each layer's public functions from outside.

Every wrapper is installed where the program's caller looks the function
up: ``reference_predict`` and ``fastpath_predict`` are imported by name into
the runtime modules, ``array_crc32`` and ``degraded_predict`` into the
reliability modules, so they are patched there.  A wrapper records its call
count and self time (its duration minus that of wrapped calls nested inside
it) and is removed again after the traced pass.  Nothing inside
``src/repro`` changes.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter, defaultdict
from importlib import import_module
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute path, span name, mode).  mode "time" records count and
# self time; "count" records calls only (array_crc32 runs thousands of
# times per request, so it is not timed).
WRAPPED: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.serving.frontdoor", "ServingFrontDoor.submit", "serving.submit", "time"),
    ("repro.serving.frontdoor", "ServingFrontDoor.pump", "serving.pump", "time"),
    ("repro.serving.frontdoor", "ServingFrontDoor.drain", "serving.pump", "time"),
    ("repro.reliability.guard", "ResilientClassifier.classify", "reliability.guard", "time"),
    ("repro.reliability.integrity", "verify_layout_integrity", "reliability.integrity", "time"),
    ("repro.reliability.integrity", "LayoutIntegrity.check", "reliability.integrity", "time"),
    ("repro.reliability.integrity", "LayoutIntegrity.surviving_trees", "reliability.integrity", "time"),
    ("repro.reliability.guard", "degraded_predict", "reliability.degraded", "time"),
    ("repro.reliability.integrity", "array_crc32", "reliability.crc", "count"),
    ("repro.runtime.session", "RuntimeSession.run", "runtime.session", "time"),
    ("repro.runtime.backends", "GPUBackend.build_layout", "runtime.layout_build", "count"),
    ("repro.runtime.backends", "FPGABackend.build_layout", "runtime.layout_build", "count"),
    ("repro.runtime.backends", "CPUBackend.build_layout", "runtime.layout_build", "count"),
    ("repro.runtime.planner", "Planner.plan", "runtime.planner", "time"),
    ("repro.runtime.planner", "Planner.estimate", "runtime.planner", "time"),
    ("repro.runtime.session", "reference_predict", "baselines.oracle", "time"),
    ("repro.runtime.backends", "reference_predict", "baselines.oracle", "time"),
    ("repro.runtime.backends", "fastpath_predict", "fastpath.predict", "time"),
    ("repro.fastpath.hierpath", "build_edges", "fastpath.lowering", "time"),
    ("repro.fastpath.csrpath", "build_edges", "fastpath.lowering", "time"),
    ("repro.fastpath.filpath", "build_edges", "fastpath.lowering", "time"),
    ("repro.layout.hierarchical", "HierarchicalForest.from_trees", "layout.build", "time"),
    ("repro.layout.csr", "CSRForest.from_trees", "layout.build", "time"),
    ("repro.baselines.cuml_fil", "FILForest.from_trees", "layout.build", "time"),
    ("repro.forest.random_forest", "RandomForestClassifier.fit", "forest.fit", "time"),
    ("repro.kernels.base", "GPUKernel.run", "kernels.gpu", "time"),
    ("repro.kernels.fpga_base", "FPGAKernel.run", "kernels.fpga", "time"),
)

#: Which wrapped spans each layer owns.
LAYER_SPANS = {
    "serving": ("serving.submit", "serving.pump"),
    "reliability": (
        "reliability.guard", "reliability.integrity", "reliability.degraded",
    ),
    "runtime": ("runtime.session", "runtime.planner"),
    "baselines": ("baselines.oracle",),
    "fastpath": ("fastpath.predict", "fastpath.lowering"),
    "layout": ("layout.build",),
    "forest": ("forest.fit",),
    "kernels": ("kernels.gpu", "kernels.fpga"),
}

SERVE = ("serve-clean", "serve-faulty")
ALL = SERVE + ("batch-large", "paper-cell")

#: layer -> (workloads where it must fire, workloads where it must make
#: no call in the timed region).  "forest" must not fire on paper-cell at
#: all: that workload has no training, set-up included.
COVERAGE = {
    "serving": (SERVE, ("batch-large", "paper-cell")),
    "reliability": (SERVE, ("batch-large", "paper-cell")),
    "runtime": (ALL, ()),
    "baselines": (("serve-clean", "batch-large"), ()),
    "fastpath": (SERVE + ("batch-large",), ("paper-cell",)),
    "layout": (ALL, ALL),
    "forest": (SERVE + ("batch-large",), ("paper-cell",)),
    "kernels": (("paper-cell",), SERVE + ("batch-large",)),
}


class LayerTrace:
    """Call counts and self times of the wrapped functions."""

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.timed_calls: Counter = Counter()
        #: reference_predict calls made inside degraded_predict.
        self.oracle_in_degraded = 0
        self.oracle_rows = 0
        self.fastpath_rows = 0
        self.fastpath_lane_levels = 0
        self.timed_lane_levels = 0
        self.fit_nodes = 0
        self.gpu_transactions = 0
        self.phase: Optional[str] = None  # None = not recording
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------
    def _note(self, name: str) -> None:
        self.calls[name] += 1
        if self.phase == "timed":
            self.timed_calls[name] += 1

    def _timed(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            if self.phase is None:
                return fn(*args, **kwargs)
            self._note(name)
            if name == "baselines.oracle":
                self.oracle_rows += int(args[1].shape[0])
                if any(f[0] == "reliability.degraded" for f in self._stack):
                    self.oracle_in_degraded += 1
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self.self_s[name] += dt - frame[1]
                if self._stack:
                    self._stack[-1][1] += dt
            self._observe(name, args, out)
            return out

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            if self.phase is not None:
                self._note(name)
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, name: str, args, out) -> None:
        if name == "fastpath.predict":
            stats = out[1]
            self.fastpath_rows += stats.rows
            self.fastpath_lane_levels += stats.lane_levels
            if self.phase == "timed":
                self.timed_lane_levels += stats.lane_levels
        elif name == "forest.fit":
            self.fit_nodes += out.total_nodes_
        elif name == "kernels.gpu":
            self.gpu_transactions += out.metrics.global_load_transactions

    # -- install / remove -------------------------------------------------
    def install(self) -> None:
        for module, path, name, mode in WRAPPED:
            owner = import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
            is_cm = isinstance(raw, classmethod)  # the from_trees builders
            wrap = self._timed if mode == "time" else self._counted
            new = wrap(name, raw.__func__ if is_cm else raw)
            setattr(owner, attr, classmethod(new) if is_cm else new)
            self._patches.append((owner, attr, raw))

    def remove(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- results ----------------------------------------------------------
    def ms(self, name: str) -> float:
        return self.self_s.get(name, 0.0) * 1e3

    def layer_calls(self, layer: str, timed: bool = False) -> int:
        calls = self.timed_calls if timed else self.calls
        return sum(calls[s] for s in LAYER_SPANS[layer])

    def coverage_errors(self, workload: str, observed_lane_levels: int) -> List[str]:
        """Wrapper-coverage assertions for one workload; empty = all hold.

        ``observed_lane_levels`` is what the program's own observer hook
        reported for the timed ops; the fastpath wrapper must agree.
        """
        errors = []
        for layer, (fires, idle) in COVERAGE.items():
            if workload in fires and self.layer_calls(layer) == 0:
                errors.append(f"{layer}: no wrapped call on {workload}")
            if workload in idle and self.layer_calls(layer, timed=True):
                errors.append(
                    f"{layer}: {self.layer_calls(layer, timed=True)} calls in "
                    f"the timed region of {workload}, expected none"
                )
        if workload == "paper-cell" and self.layer_calls("forest"):
            errors.append("forest: paper-cell must not train")
        if workload == "serve-faulty":
            if not self.calls["reliability.degraded"]:
                errors.append("reliability: no degraded batch on serve-faulty")
            if self.oracle_in_degraded:
                errors.append("baselines: oracle ran inside degraded voting")
        if workload in SERVE and not self.calls["reliability.crc"]:
            errors.append("reliability: array_crc32 never called")
        if self.timed_lane_levels != observed_lane_levels:
            errors.append("fastpath: wrapper and observer lane_levels differ")
        return errors
