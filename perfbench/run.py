"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload serve-clean --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
there.  With ``--trace 0`` the last line holds the end-to-end metrics;
with ``--trace 1`` each segment runs untraced and then traced, and the last
line holds the per-layer metrics.  The line before it (``counts: ...``)
holds the work-identity counts and the host-drift diagnostics.  The exit
code is 0 only if every op was correct (and, traced, every wrapper-coverage
assertion held).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, List

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/``, or exit with an error."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"perfbench: no program sources at {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: repro imported from {repro.__file__}, not {SRC}")


def run_pass(wl, seg: int, probe, setups: List[float], trace=None):
    """Set up a fresh stack, replay one segment's ops, check them.

    The set-up runs ``wl.setup_repeats`` times (each one a ``setup_s``
    sample); the ops run on the last stack.
    """

    def phase(name):
        if trace is not None:
            trace.phase = name

    phase("setup")
    for _ in range(wl.setup_repeats):
        gc.collect()
        t0 = time.perf_counter()
        stack = wl.setup(seg)
        setups.append(time.perf_counter() - t0)
    phase(None)
    wl.inject(stack, seg)
    stack["seg"] = seg
    phase("timed")
    out = wl.run_segment(stack, seg, probe)
    phase(None)
    wl.check(stack, out)
    return out


def throughput(outs):
    """(ops/s, rows/s) completed per second of timed wall time."""
    calls = np.concatenate([np.asarray(o.calls) for o in outs])
    busy = calls[:, 0].sum()
    return calls[:, 1].sum() / busy, calls[:, 2].sum() / busy


def latency_ms(outs, q: float) -> float:
    """The q-th percentile of each segment's op latencies, averaged.

    The host switches between fast and slow phases that last seconds.  A
    percentile over the whole run jumps from one phase's latency to the
    other's as the slow share crosses it; the mean of per-segment
    percentiles moves in proportion to that share instead.
    """
    return float(np.mean([np.percentile(o.latencies_s, q) for o in outs]) * 1e3)


def end_to_end(outs, setups: List[float]) -> Dict[str, float]:
    attempted = sum(o.attempted for o in outs)
    ops_per_s, rows_per_s = throughput(outs)
    return {
        "latency_p50_ms": latency_ms(outs, 50),
        "latency_p90_ms": latency_ms(outs, 90),
        "ops_per_s": ops_per_s,
        "rows_per_s": rows_per_s,
        "ok_frac": sum(o.correct for o in outs) / attempted,
        "test_accuracy": sum(o.label_hits for o in outs)
        / max(1, sum(o.labelled for o in outs)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
    }


UNITS = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ops_per_s": "1/s",
    "rows_per_s": "1/s",
    "ok_frac": "fraction",
    "test_accuracy": "fraction",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer(trace, outs, plain_ops_per_s, probe_ms) -> Dict[str, tuple]:
    agg: Dict[str, float] = {}
    for out in outs:
        for key, value in out.counts.items():
            if isinstance(value, dict):
                value = sum(value.values())
            agg[key] = agg.get(key, 0) + value
    batches = agg.get("batches", 0)
    attempts = agg.get("attempts", 0)
    failed_attempts = sum(
        agg.get(k, 0)
        for k in ("transient_failures", "deadline_exceeded", "integrity_failures")
    )
    fallback = sum(
        n for out in outs
        for d, n in out.counts.get("fallback_depth_hist", {}).items() if d != "0"
    )
    return {
        "serving.submit_ms": (trace.ms("serving.submit"), "ms"),
        "serving.pump_self_ms": (trace.ms("serving.pump"), "ms"),
        "serving.batches": (batches, "count"),
        "serving.rows_per_batch": (agg.get("rows_executed", 0) / max(1, batches), "rows"),
        "serving.shed": (agg.get("shed", 0), "count"),
        "serving.rejected": (agg.get("rejected", 0), "count"),
        "reliability.guard_self_ms": (trace.ms("reliability.guard"), "ms"),
        "reliability.integrity_ms": (trace.ms("reliability.integrity"), "ms"),
        "reliability.crc_calls": (trace.calls["reliability.crc"], "count"),
        "reliability.degraded_ms": (trace.ms("reliability.degraded"), "ms"),
        "reliability.attempts": (attempts, "count"),
        "reliability.retries": (agg.get("retries", 0), "count"),
        "reliability.fallback_batches": (fallback, "count"),
        "reliability.degraded_batches": (agg.get("degraded_batches", 0), "count"),
        "reliability.ok_attempt_frac": (
            (attempts - failed_attempts) / attempts if attempts else 0.0,
            "fraction",
        ),
        "runtime.session_self_ms": (trace.ms("runtime.session"), "ms"),
        "runtime.layout_builds": (trace.calls["runtime.layout_build"], "count"),
        "runtime.planner_ms": (trace.ms("runtime.planner"), "ms"),
        "baselines.oracle_ms": (trace.ms("baselines.oracle"), "ms"),
        "baselines.oracle_rows": (trace.oracle_rows, "count"),
        "fastpath.predict_ms": (trace.ms("fastpath.predict"), "ms"),
        "fastpath.rows": (trace.fastpath_rows, "count"),
        "fastpath.lane_levels": (trace.fastpath_lane_levels, "count"),
        "fastpath.lowering_ms": (trace.ms("fastpath.lowering"), "ms"),
        "layout.build_ms": (trace.ms("layout.build"), "ms"),
        "layout.builds": (trace.calls["layout.build"], "count"),
        "forest.fit_ms": (trace.ms("forest.fit"), "ms"),
        "forest.nodes": (trace.fit_nodes, "count"),
        "kernels.gpu_ms": (trace.ms("kernels.gpu"), "ms"),
        "kernels.fpga_ms": (trace.ms("kernels.fpga"), "ms"),
        "gpusim.global_load_transactions": (trace.gpu_transactions, "count"),
        "trace_overhead_frac": (
            1.0 - throughput(outs)[0] / plain_ops_per_s, "fraction"
        ),
        "host_probe_ms": (probe_ms, "ms"),
    }


def same_work(a, b) -> bool:
    """Identical predictions and identical work-identity counts."""
    return a.counts == b.counts and len(a.predictions) == len(b.predictions) and all(
        np.array_equal(p, q) for p, q in zip(a.predictions, b.predictions)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from workloads import SEGMENTS, WORKLOADS, HostProbe

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.workload, args.seed, args.seconds)
    probe = HostProbe()
    setups: List[float] = []
    outs = []
    errors: List[str] = []
    if not args.trace:
        for seg in range(SEGMENTS):
            outs.append(run_pass(wl, seg, probe, setups))
        metrics = {k: (v, UNITS[k]) for k, v in end_to_end(outs, setups).items()}
    else:
        from layers import LayerTrace

        trace = LayerTrace()
        plain, traced_setups = [], []
        for seg in range(SEGMENTS):
            plain.append(run_pass(wl, seg, probe, setups))
            trace.install()
            try:
                outs.append(run_pass(wl, seg, probe, traced_setups, trace))
            finally:
                trace.remove()
            if not same_work(plain[-1], outs[-1]):
                errors.append(f"segment {seg}: traced and untraced runs differ")
        errors += trace.coverage_errors(
            args.workload,
            sum(o.counts.get("fastpath.lane_levels", 0) for o in outs),
        )
        metrics = per_layer(
            trace, outs, throughput(plain)[0], statistics.median(probe.samples)
        )

    attempted = sum(o.attempted for o in outs)
    failed = attempted - sum(o.correct for o in outs)
    for msg in errors:
        print(f"perfbench: {msg}", file=sys.stderr)
    correct = failed == 0 and not errors
    served = sum(o.counts.get("served", 0) for o in outs)
    diagnostics = {}
    if served:
        # Share of served requests answered by degraded quorum voting.
        diagnostics["degraded_share"] = (
            sum(o.counts.get("degraded_served", 0) for o in outs) / served
        )
    print(
        "counts: "
        + json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                "work": {f"segment{i}": o.counts for i, o in enumerate(outs)},
                "host_probe_ms": statistics.median(probe.samples),
                "host_probe_samples": len(probe.samples),
                "latency_samples": sum(len(o.latencies_s) for o in outs),
                "latency_samples_min_segment": min(len(o.latencies_s) for o in outs),
                "timed_s": sum(c[0] for o in outs for c in o.calls),
                "setup_samples_s": setups,
                **diagnostics,
            },
            sort_keys=True,
        )
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
