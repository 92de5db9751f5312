"""RuntimeSession: execute ExecutionPlans and merge their results.

The session owns the trees, the backend set, and the layout cache; it is
the one place where a plan meets data.  ``batch_split=1`` (the default for
compiled explicit plans) reproduces the legacy ``classify()`` execution
byte-for-byte: one kernel launch, identical details dict, identical
simulated seconds.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.cpu_reference import reference_predict
from repro.core.config import RunConfig
from repro.core.results import RunResult
from repro.forest.metrics import accuracy_score
from repro.fpgasim.device import ALVEO_U250, FPGASpec
from repro.gpusim.device import GPUSpec, TITAN_XP
from repro.layout.codec import roundtrip_trees
from repro.obs.protocol import ensure_observer
from repro.runtime.backends import Backend, backend_for, default_backends
from repro.runtime.plan import CPU_PLATFORM, ExecutionPlan, PlanError, check_pair


class ExecutionError(RuntimeError):
    """A backend raised while executing a plan; says exactly where.

    Carries the failing :class:`ExecutionPlan` plus the shard index of a
    split batch, so a caller (the reliability guard, a serving layer, a
    log line) knows *which* platform/variant/shard failed without parsing
    the message.  The original backend exception is chained as
    ``__cause__`` — dispatch on ``type(err.__cause__)`` to distinguish a
    retryable :class:`~repro.reliability.faults.TransientKernelError` from
    persistent corruption.
    """

    def __init__(self, plan: ExecutionPlan, shard_index: int, n_shards: int,
                 cause: BaseException):
        super().__init__(
            f"plan {plan.label} failed on shard {shard_index + 1}/{n_shards}"
            f": {type(cause).__name__}: {cause}"
        )
        self.plan = plan
        self.platform = plan.platform
        self.variant = plan.variant
        self.shard_index = int(shard_index)
        self.n_shards = int(n_shards)
        self.__cause__ = cause


class RuntimeSession:
    """Executes plans for one fixed set of trees.

    Parameters
    ----------
    trees:
        The fitted forest's :class:`~repro.forest.tree.DecisionTree` list.
    gpu, fpga:
        Device specs handed to the backend adapters.
    verify_against_reference:
        Check every merged prediction vector against the CPU oracle.
    observer:
        Default observability sink for runs (a per-run ``observer=``
        overrides it).
    layout_cache:
        Optional externally-owned cache dict; the classifier front door
        shares its historical ``_layout_cache`` this way so tests and
        benchmarks that seed or inspect it keep working.
    """

    def __init__(
        self,
        trees: Sequence,
        gpu: GPUSpec = TITAN_XP,
        fpga: FPGASpec = ALVEO_U250,
        verify_against_reference: bool = True,
        observer=None,
        layout_cache: Optional[Dict[Tuple, object]] = None,
    ):
        self.trees = list(trees)
        if not self.trees:
            raise PlanError("RuntimeSession needs at least one tree")
        self.gpu = gpu
        self.fpga = fpga
        self.verify_against_reference = verify_against_reference
        self.observer = observer
        self.backends: Dict[str, Backend] = default_backends(gpu, fpga)
        self._layout_cache: Dict[Tuple, object] = (
            layout_cache if layout_cache is not None else {}
        )
        self._reference_trees: Dict[str, List] = {}

    @classmethod
    def from_forest(cls, forest, **kwargs) -> "RuntimeSession":
        """Adopt a fitted :class:`~repro.forest.random_forest.RandomForestClassifier`."""
        forest._check_fitted()
        return cls(forest.trees_, **kwargs)

    # ------------------------------------------------------------------
    # Layouts
    # ------------------------------------------------------------------
    def layout_for(self, plan: ExecutionPlan):
        """Build (or fetch from the shared cache) the layout ``plan`` needs."""
        backend = backend_for(self.backends, plan)
        key = backend.layout_key(plan)
        if key not in self._layout_cache:
            self._layout_cache[key] = backend.build_layout(self.trees, plan)
        return self._layout_cache[key]

    def reference_trees(self, precision: str) -> List:
        """The host trees a ``precision`` layout encodes (the oracle input).

        Quantized layouts moved the thresholds at build time; their oracle
        is :func:`~repro.layout.codec.roundtrip_trees`, built once here.
        """
        trees = self._reference_trees.get(precision)
        if trees is None:
            trees = roundtrip_trees(self.trees, precision)
            self._reference_trees[precision] = trees
        return trees

    def invalidate_layouts(self) -> None:
        """Drop every cached layout (host trees stay authoritative)."""
        self._layout_cache.clear()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    @staticmethod
    def _shard_bounds(n: int, splits: int) -> List[Tuple[int, int]]:
        """Contiguous near-equal shards: first ``n % splits`` get +1 row."""
        splits = min(max(1, splits), max(1, n))
        base, extra = divmod(n, splits)
        bounds = []
        lo = 0
        for i in range(splits):
            hi = lo + base + (1 if i < extra else 0)
            bounds.append((lo, hi))
            lo = hi
        return bounds

    def run(
        self,
        plan: ExecutionPlan,
        X: np.ndarray,
        y_true: Optional[np.ndarray] = None,
        include_transfer: bool = False,
        launch_gate: Optional[Callable[[], float]] = None,
        observer=None,
        config: Optional[RunConfig] = None,
    ) -> RunResult:
        """Execute ``plan`` over ``X`` and return one merged :class:`RunResult`.

        ``config`` sets the result's attached :class:`RunConfig`; when
        omitted it is recovered from the plan (accelerator plans only —
        the CPU rung has no config equivalent, so the caller must pass
        one).  All other keyword arguments carry the semantics of the
        legacy ``classify()`` signature.
        """
        if not isinstance(plan, ExecutionPlan):
            raise PlanError(
                f"run() takes an ExecutionPlan, got {type(plan).__name__} "
                "(compile one with repro.runtime.compile_plan)"
            )
        check_pair(plan.platform, plan.variant)
        backend = backend_for(self.backends, plan)
        if observer is None:
            observer = self.observer
        if observer is not None:
            observer = ensure_observer(observer)
        if config is None:
            config = plan.to_run_config()  # raises PlanError for cpu plans

        layout = self.layout_for(plan)
        bounds = self._shard_bounds(X.shape[0], plan.batch_split)
        outputs = []
        for shard_index, (lo, hi) in enumerate(bounds):
            try:
                outputs.append(
                    backend.run(
                        plan,
                        layout,
                        X[lo:hi],
                        launch_gate=launch_gate,
                        observer=observer,
                    )
                )
            except Exception as exc:
                raise ExecutionError(
                    plan, shard_index, len(bounds), exc
                ) from exc
        if len(outputs) == 1:
            predictions = outputs[0].predictions
            seconds = outputs[0].seconds
            details = outputs[0].details
        else:
            predictions = np.concatenate([o.predictions for o in outputs])
            seconds = float(sum(o.seconds for o in outputs))
            details = dict(outputs[-1].details)
            details["batch_split"] = len(outputs)
            details["shard_seconds"] = [o.seconds for o in outputs]

        if self.verify_against_reference and plan.platform != CPU_PLATFORM:
            ref = reference_predict(self.reference_trees(plan.precision), X)
            if not np.array_equal(predictions, ref):
                raise RuntimeError(
                    f"simulated kernel {plan.label} disagrees with the "
                    "CPU reference — layout or kernel bug"
                )

        if include_transfer:
            from repro.core.transfer import TransferModel

            tm = TransferModel()
            roundtrip = tm.query_roundtrip_seconds(X.shape[0], X.shape[1])
            details["transfer_query_roundtrip_s"] = roundtrip
            details["transfer_layout_upload_s"] = tm.upload_layout_seconds(layout)
            seconds = seconds + roundtrip
            if observer is not None:
                observer.on_transfer(
                    "query-roundtrip",
                    roundtrip,
                    nbytes=X.shape[0] * X.shape[1] * 4,
                )

        accuracy = None
        if y_true is not None:
            accuracy = accuracy_score(y_true, predictions)
        return RunResult(
            config=config,
            predictions=predictions,
            seconds=seconds,
            details=details,
            accuracy=accuracy,
        )
