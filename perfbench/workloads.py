"""The four benchmark workloads: inputs, set-up, timed ops and checks.

Every workload is split into ``SEGMENTS`` segments.  Each segment builds a
fresh stack (one set-up sample; paper-cell takes several) and then replays
its share of the seeded ops, so the set-up samples and the timed ops of one
run are spread over the whole run instead of sitting in one drift window of
the host.

The amount of work is a pure function of ``(seed, seconds)``: the op count
is ``seconds * NOMINAL_OPS_PER_S`` (a rate measured on a 2-core VM), never
"as many as fit in the time".  Two runs with one seed therefore do exactly
the same work, which the work-identity counts prove.
"""

from __future__ import annotations

import copy
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

import numpy as np

from repro.baselines.cpu_reference import reference_predict
from repro.core.classifier import HierarchicalForestClassifier
from repro.core.config import TRACE_MODEL, TRACE_OFF, RunConfig
from repro.datasets.profiles import make_synthetic_forest
from repro.datasets.synthetic import make_forest_classification
from repro.obs.protocol import Observer
from repro.reliability.faults import FaultPlan
from repro.reliability.guard import ResilientClassifier
from repro.runtime.plan import CPU_PLATFORM
from repro.serving.admission import AdmissionPolicy
from repro.serving.chaos import wrong_answer_ids
from repro.serving.frontdoor import ServingFrontDoor
from repro.serving.traffic import TrafficProfile, generate_trace
from repro.utils.clock import SimulatedClock

SEGMENTS = 8

#: Every segment times at least this many ops, so that each segment's p90
#: has at least ten samples beyond it.
MIN_OPS_PER_SEGMENT = 100

#: The host probe runs between ops at most this often (seconds).
PROBE_EVERY_S = 0.25

#: The model is fixed: training data, forest seeds and the corruption of
#: serve-faulty come from this constant, so runs with different --seed
#: values differ only in traffic, faults and query rows, and every set-up
#: does the same work.
MODEL_SEED = 20221

N_FEATURES = 16
#: Serving forest: small enough that eight fits take ~12 s of a run.
SERVE_FOREST = dict(n_estimators=8, max_depth=12)
SERVE_TRAIN_ROWS = 3000
#: Offline forest: deeper than the serving one, so traversal dominates.
BATCH_FOREST = dict(n_estimators=8, max_depth=18)
BATCH_TRAIN_ROWS = 4000
BATCH_ROWS = 4096
#: Table 3's synthetic forest shape (d=15, 16 features), scaled to 4 trees
#: and 32-query batches (one simulated warp) so one op of four trace-mode
#: plans takes ~30-40 ms.
PAPER_FOREST = dict(n_trees=4, depth=15, n_features=16)
PAPER_ROWS = 32
#: paper-cell's set-up (no training) takes ~0.1 s, short enough for one
#: phase of the host to set it; each segment sets up this many times, so
#: its setup_s is the median of 32 samples.
PAPER_SETUP_REPEATS = 4
PAPER_PLANS = (
    RunConfig(platform="gpu", variant="hybrid", trace=TRACE_MODEL),
    RunConfig(platform="gpu", variant="csr", trace=TRACE_MODEL),
    RunConfig(platform="fpga", variant="hybrid", trace=TRACE_MODEL),
    RunConfig(platform="fpga", variant="csr", trace=TRACE_MODEL),
)

#: Simulated arrival rate.  Batches average about two requests and cost at
#: most ~5 ms of wall time, so even a cost model refitted to wall time keeps
#: the front door about 13% busy: ok_frac cannot drop because of the
#: benchmark's own load.  The harness pumps the front door only when a
#: request arrives, so a request waits in the queue until the next arrival;
#: a 1 s deadline makes expiry there vanishingly rare (a Poisson gap of 1 s
#: at 50/s has probability e**-50).
SERVE_QPS = 50.0
SERVE_DEADLINE_S = 1.0

#: Ops per second of wall time on a 2-core VM; sizes the fixed work.
NOMINAL_OPS_PER_S = {
    "serve-clean": 750.0,
    "serve-faulty": 520.0,
    "batch-large": 25.0,
    "paper-cell": 26.0,
}


def sub_seed(seed: int, *tags: int) -> int:
    """A well-mixed 32-bit seed derived from ``seed`` and integer tags."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


class HostProbe:
    """Times a fixed NumPy sort that runs no ``repro`` code.

    Sampled between ops, at most every ``PROBE_EVERY_S`` seconds, so its
    median shows how fast the host was during the run.
    """

    def __init__(self):
        self._data = np.random.default_rng(12345).random(200_000)
        self._last = -np.inf
        self.samples: List[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        np.sort(self._data)
        t1 = time.perf_counter()
        self.samples.append((t1 - t0) * 1e3)
        self._last = t1

    def maybe(self) -> None:
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.sample()


class WorkCounts(Observer):
    """Observer that tallies the work the program did (exact counts).

    It uses the program's own observability hooks, so it sees the same
    reports with tracing on or off.
    """

    def __init__(self):
        self.n = Counter()
        self.fallback_depths = Counter()

    def on_guarded_call(self, result, report) -> None:
        self.n["guarded_calls"] += 1
        self.n["attempts"] += report.attempts
        self.n["retries"] += report.retries
        self.n["transient_failures"] += report.transient_failures
        self.n["deadline_exceeded"] += report.deadline_exceeded
        self.n["integrity_failures"] += report.integrity_failures
        self.n["breaker_skips"] += report.breaker_skips
        self.n["breaker_transitions"] += len(report.breaker_transitions)
        self.n["degraded_batches"] += int(report.degraded)
        self.fallback_depths[report.fallback_depth] += 1

    def on_fastpath(self, plan, stats, seconds) -> None:
        self.n["fastpath_launches"] += 1
        self.n["fastpath.lane_levels"] += stats.lane_levels

    def on_gpu_kernel(self, kernel, result, grid=None) -> None:
        self.n["gpu_launches"] += 1
        self.n["gpusim.global_load_transactions"] += (
            result.metrics.global_load_transactions
        )

    def on_fpga_kernel(self, kernel, result, replication) -> None:
        self.n["fpga_launches"] += 1

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = dict(sorted(self.n.items()))
        out["fallback_depth_hist"] = {
            str(k): v for k, v in sorted(self.fallback_depths.items())
        }
        return out


@dataclass
class SegmentResult:
    """What the timed ops of one segment produced (checked afterwards)."""

    latencies_s: List[float] = field(default_factory=list)
    #: One (wall seconds, ops completed, rows completed) per timed call.
    calls: List[Tuple[float, int, int]] = field(default_factory=list)
    attempted: int = 0
    correct: int = 0
    labelled: int = 0
    label_hits: int = 0
    #: Served predictions in op order (traced and untraced must match).
    predictions: List[np.ndarray] = field(default_factory=list)
    counts: Dict[str, object] = field(default_factory=dict)

    def deliver(self, t0: float, t1: float, done, submitted_at) -> None:
        """Record one timed front-door call and the responses it returned."""
        served = [r for r in done if r.ok]
        for resp in served:
            self.latencies_s.append(t1 - submitted_at[resp.request_id][0])
        self.calls.append(
            (t1 - t0, len(served), sum(submitted_at[r.request_id][1] for r in served))
        )


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------
class ServeWorkload:
    """Seeded arrivals through ServingFrontDoor -> guard -> session.

    Open loop in simulated time (Poisson arrivals on the front door's
    SimulatedClock, so batching, faults and sheds are a pure function of
    the seed); one closed-loop client in wall time.
    """

    setup_repeats = 1

    def __init__(self, name: str, seed: int, seconds: float):
        self.name = name
        self.seed = seed
        n_ops = int(round(seconds * NOMINAL_OPS_PER_S[name]))
        self.ops_per_segment = max(MIN_OPS_PER_SEGMENT, -(-n_ops // SEGMENTS))
        X, y = make_forest_classification(
            SERVE_TRAIN_ROWS + 4000, N_FEATURES, seed=MODEL_SEED
        )
        self.X_train, self.y_train = X[:SERVE_TRAIN_ROWS], y[:SERVE_TRAIN_ROWS]
        self.pool = np.ascontiguousarray(X[SERVE_TRAIN_ROWS:])
        self.pool_y = y[SERVE_TRAIN_ROWS:]
        self.traces = [
            self._arrivals(sub_seed(seed, 2, seg)) for seg in range(SEGMENTS)
        ]
        # Each request reads the pool at a seeded offset.
        rng = np.random.default_rng(sub_seed(seed, 8))
        self.offsets = [
            rng.integers(0, self.pool.shape[0] - 8, size=self.ops_per_segment)
            for _ in range(SEGMENTS)
        ]

    # -- inputs ---------------------------------------------------------
    def profile(self, duration_s: float) -> TrafficProfile:
        return TrafficProfile(
            name=self.name,
            duration_s=duration_s,
            base_qps=SERVE_QPS,
            rows_lo=1,
            rows_hi=8,
            deadline_s=SERVE_DEADLINE_S,
        )

    def _arrivals(self, seed: int):
        # Generous duration, then the first N arrivals: an exact op count.
        duration = 2.0 * self.ops_per_segment / SERVE_QPS + 1.0
        trace = generate_trace(self.profile(duration), seed=seed)
        if len(trace) < self.ops_per_segment:
            raise RuntimeError("arrival trace shorter than the op count")
        return trace[: self.ops_per_segment]

    # -- stack ------------------------------------------------------------
    def guard_kwargs(self, seg: int) -> dict:
        return {}

    def admission(self) -> AdmissionPolicy:
        return AdmissionPolicy()

    def run_config(self) -> RunConfig:
        return RunConfig(platform="gpu", variant="hybrid", trace=TRACE_OFF)

    def setup(self, seg: int):
        """Fit, build layouts, calibrate the front door, warm up."""
        clf = HierarchicalForestClassifier(seed=MODEL_SEED, **SERVE_FOREST)
        clf.fit(self.X_train, self.y_train)
        counts = WorkCounts()
        guard = ResilientClassifier(
            clf, deadline_s=1.0, observer=counts, **self.guard_kwargs(seg)
        )
        front = ServingFrontDoor(
            guard,
            config=self.run_config(),
            clock=SimulatedClock(),
            admission=self.admission(),
            probe_X=self.pool[:64],
            trace_seed=sub_seed(self.seed, 4, seg),
        )
        # Warm-up: lower every accelerator rung's layout to its edge table
        # and touch the oracle, bypassing the front door and the guard so
        # that their breaker and fault state stay untouched.
        for plan in guard.ladder_plans(front.config):
            if plan.platform != CPU_PLATFORM:
                clf.runtime.run(plan, self.pool[:32])
        return {"clf": clf, "guard": guard, "front": front, "counts": counts}

    def inject(self, stack, seg: int) -> None:
        """Fault injection after set-up (none on the clean workload)."""

    # -- timed ops --------------------------------------------------------
    def run_segment(self, stack, seg: int, probe: HostProbe) -> SegmentResult:
        front: ServingFrontDoor = stack["front"]
        clock = front.clock
        out = SegmentResult()
        submitted_at: Dict[int, Tuple[float, int]] = {}
        requests = {}
        responses = []
        probe.sample()
        for arrival, lo in zip(self.traces[seg], self.offsets[seg]):
            if arrival.at_s > clock.now():
                clock.advance(arrival.at_s - clock.now())
            X = self.pool[lo : lo + arrival.rows]
            t0 = time.perf_counter()
            req = front.try_submit(
                X, tenant=arrival.tenant, deadline_s=arrival.deadline_s
            )
            done = front.pump()
            t1 = time.perf_counter()
            out.attempted += 1
            if req is not None:
                submitted_at[req.request_id] = (t0, req.rows)
                requests[req.request_id] = (req, lo)
            out.deliver(t0, t1, done, submitted_at)
            responses.extend(done)
            if front.queue_depth == 0:
                probe.maybe()
        t0 = time.perf_counter()
        done = front.drain()
        t1 = time.perf_counter()
        out.deliver(t0, t1, done, submitted_at)
        responses.extend(done)
        probe.sample()
        stack["requests"] = requests
        stack["responses"] = responses
        return out

    # -- checks (outside the timed region) ---------------------------------
    def check(self, stack, out: SegmentResult) -> None:
        front: ServingFrontDoor = stack["front"]
        requests = stack["requests"]
        responses = stack["responses"]
        expected = reference_predict(stack["clf"].trees, self.pool)
        # Degraded answers come from a quorum of intact trees and may differ
        # from the oracle; the chaos harness's own rule sorts those out.
        degraded = [r for r in responses if r.ok and r.degraded]
        divergence = wrong_answer_ids(
            front, {r.request_id: requests[r.request_id][0] for r in degraded}, degraded
        )
        wrong = set(divergence["wrong"])
        for resp in responses:
            if not resp.ok:
                continue
            req, lo = requests[resp.request_id]
            out.predictions.append(resp.predictions)
            if not resp.degraded:
                if not np.array_equal(resp.predictions, expected[lo : lo + req.rows]):
                    wrong.add(resp.request_id)
            if resp.request_id not in wrong:
                out.correct += 1
            labels = self.pool_y[lo : lo + req.rows]
            out.labelled += req.rows
            out.label_hits += int(np.sum(resp.predictions == labels))
        stats = front.stats
        out.counts = {
            "requests_attempted": out.attempted,
            "served": stats.served,
            "shed": dict(sorted(stats.shed.items())),
            "rejected": dict(sorted(stats.rejected.items())),
            "batches": stats.batches,
            "rows_executed": stats.rows_executed,
            "hedged_batches": stats.hedged_batches,
            "degraded_served": stats.degraded_served,
            "degraded_divergence": len(divergence["degraded_divergence"]),
            **stack["counts"].as_dict(),
        }


class FaultyServeWorkload(ServeWorkload):
    """Same traffic shape under launch faults, hangs and corruption.

    The GPU rung serves the FIL layout and the FPGA rung the hierarchical
    layout, so corrupting the hierarchical buffers leaves a clean primary
    rung: batches whose GPU rung fails (or whose GPU breaker is open) are
    answered by degraded quorum voting on the FPGA rung.  That slow mode
    serves about 27% of requests (``degraded_share`` in the counts), well
    away from the 10% and 50% marks, so p50 sits in the clean mode and p90
    in the degraded one.
    """

    def profile(self, duration_s: float) -> TrafficProfile:
        return replace(
            super().profile(duration_s),
            tenants=("greedy", "quiet-a", "quiet-b"),
            tenant_weights=(8.0, 1.0, 1.0),
        )

    def admission(self) -> AdmissionPolicy:
        # Per-tenant buckets sized so that no request is refused: the
        # admission path runs, but ok_frac measures faults, not load.
        return AdmissionPolicy(tenant_rate_qps=200.0, tenant_burst=32.0)

    def run_config(self) -> RunConfig:
        return RunConfig(platform="gpu", variant="cuml", trace=TRACE_OFF)

    def guard_kwargs(self, seg: int) -> dict:
        return {
            "fault_plan": FaultPlan(
                seed=sub_seed(self.seed, 5, seg),
                launch_fail_rate=0.60,
                launch_hang_rate=0.05,
                hang_seconds=30.0,
            ),
            "seed": sub_seed(self.seed, 6, seg),
        }

    def inject(self, stack, seg: int) -> None:
        """Flip bits in 1-3 trees of the FPGA rung's layout.

        The corruption seed is the first of a seeded sequence whose bit
        flips hit between one and three trees (tried on a copy), so every
        run keeps a quorum and every run has a degraded mode.
        """
        clf, guard, front = stack["clf"], stack["guard"], stack["front"]
        fpga = [p for p in guard.ladder_plans(front.config) if p.platform == "fpga"]
        layout = clf.layout_for(fpga[0].to_run_config())
        for k in range(1000):
            seed = sub_seed(MODEL_SEED, 7, k)
            trial = copy.deepcopy(layout)
            hit = FaultPlan(seed=seed, tree_corruption_rate=0.25).corrupt_layout(trial)
            if 1 <= len(hit) <= 3:
                break
        else:
            raise RuntimeError("no corruption seed hits 1-3 trees")
        FaultPlan(seed=seed, tree_corruption_rate=0.25).corrupt_layout(layout)
        guard.notify_layout_rebuild()


# ----------------------------------------------------------------------
# Offline workloads
# ----------------------------------------------------------------------
class BatchWorkload:
    """Offline ``classify(trace="off")`` over several-thousand-row batches."""

    plans = (RunConfig(platform="gpu", variant="hybrid", trace=TRACE_OFF),)
    rows = BATCH_ROWS
    setup_repeats = 1

    def __init__(self, name: str, seed: int, seconds: float):
        self.name = name
        self.seed = seed
        n_ops = int(round(seconds * NOMINAL_OPS_PER_S[name]))
        self.ops_per_segment = max(MIN_OPS_PER_SEGMENT, -(-n_ops // SEGMENTS))
        self.make_inputs(seed)
        # Every op reads a distinct seeded window of the pool.
        rng = np.random.default_rng(sub_seed(seed, 2))
        hi = self.pool.shape[0] - self.rows + 1
        self.offsets = [
            rng.integers(0, hi, size=self.ops_per_segment) for _ in range(SEGMENTS)
        ]

    def make_inputs(self, seed: int) -> None:
        X, y = make_forest_classification(
            BATCH_TRAIN_ROWS + 8 * BATCH_ROWS, N_FEATURES, seed=MODEL_SEED
        )
        self.X_train, self.y_train = X[:BATCH_TRAIN_ROWS], y[:BATCH_TRAIN_ROWS]
        self.pool = np.ascontiguousarray(X[BATCH_TRAIN_ROWS:])
        self.pool_y = y[BATCH_TRAIN_ROWS:]

    def make_classifier(self) -> HierarchicalForestClassifier:
        clf = HierarchicalForestClassifier(seed=MODEL_SEED, **BATCH_FOREST)
        return clf.fit(self.X_train, self.y_train)

    def setup(self, seg: int):
        """Fit (or adopt) the forest, build each plan's layout, warm up."""
        clf = self.make_classifier()
        for config in self.plans:
            clf.layout_for(config)
            clf.classify(self.pool[:64], config)  # lowers edges, warms caches
        return {"clf": clf, "counts": WorkCounts()}

    def inject(self, stack, seg: int) -> None:
        pass

    def run_segment(self, stack, seg: int, probe: HostProbe) -> SegmentResult:
        clf, counts = stack["clf"], stack["counts"]
        out = SegmentResult()
        preds = []
        probe.sample()
        for lo in self.offsets[seg]:
            X = self.pool[lo : lo + self.rows]
            t0 = time.perf_counter()
            p = [clf.classify(X, c, observer=counts).predictions for c in self.plans]
            t1 = time.perf_counter()
            out.calls.append((t1 - t0, 1, self.rows))
            out.latencies_s.append(t1 - t0)
            out.attempted += 1
            preds.append(p)
            probe.maybe()
        probe.sample()
        stack["preds"] = preds
        return out

    def check(self, stack, out: SegmentResult) -> None:
        expected = reference_predict(stack["clf"].trees, self.pool)
        seg = stack["seg"]
        for lo, p in zip(self.offsets[seg], stack["preds"]):
            want = expected[lo : lo + self.rows]
            labels = want if self.pool_y is None else self.pool_y[lo : lo + self.rows]
            out.predictions.append(np.concatenate(p))
            if all(np.array_equal(q, want) for q in p):
                out.correct += 1
            for q in p:
                out.labelled += self.rows
                out.label_hits += int(np.sum(q == labels))
        out.counts = {
            "ops": out.attempted,
            "rows": out.attempted * self.rows,
            **stack["counts"].as_dict(),
        }


class PaperCellWorkload(BatchWorkload):
    """Table 3's synthetic forest through the trace="model" kernels.

    One op runs one query batch through GPU and FPGA, hybrid and CSR:
    four plans, so every op falls in one latency mode.  There is no
    training and no labels: the host-tree oracle's answers stand in as
    labels, so test_accuracy here equals the share of correct rows.
    """

    plans = PAPER_PLANS
    rows = PAPER_ROWS
    setup_repeats = PAPER_SETUP_REPEATS

    def make_inputs(self, seed: int) -> None:
        self.forest, _ = make_synthetic_forest(
            n_queries=1, seed=MODEL_SEED, **PAPER_FOREST
        )
        # Same query distribution as make_synthetic_forest's own.
        self.pool = (
            np.random.default_rng(sub_seed(seed, 1))
            .standard_normal((4096, PAPER_FOREST["n_features"]))
            .astype(np.float32)
        )
        self.pool_y = None

    def make_classifier(self) -> HierarchicalForestClassifier:
        return HierarchicalForestClassifier.from_forest(self.forest)


WORKLOADS = {
    "serve-clean": ServeWorkload,
    "serve-faulty": FaultyServeWorkload,
    "batch-large": BatchWorkload,
    "paper-cell": PaperCellWorkload,
}
