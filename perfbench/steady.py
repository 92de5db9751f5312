"""Steadiness proof: two interleaved sets of runs must agree.

    python3 perfbench/steady.py --seeds 10 [--workloads serve-clean ...]

Run from the root of a checkout.  For each seed, every workload runs once
in set A and once in set B (which set goes first alternates), all with
``--trace 0`` and the ``run_seconds`` of BENCHMARK.json.  The report gives,
per workload and end-to-end metric, each set's median and quartiles, the
spread ``(q3 - q1) / median`` and the shift of set B's median against set
A's, beside the host probe and the CPU steal time of the same runs.

It exits non-zero if any run failed or was incorrect, if two runs with one
seed differ in any work-identity count, if a segment of a run has fewer
than 100 latency samples (its p90 needs ten beyond it), or if a spread or the
absolute median shift is wider than the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cpu_steal_ticks() -> int:
    """Host-wide steal ticks from /proc/stat (0 where it is missing)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return 0
    return int(fields[8]) if len(fields) > 8 else 0


def run_once(bench, workload: str, seed: int) -> dict:
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    steal0, t0 = cpu_steal_ticks(), time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall, steal = time.perf_counter() - t0, cpu_steal_ticks() - steal0
    lines = proc.stdout.strip().splitlines()
    counts = next(
        (json.loads(l[len("counts: "):]) for l in lines if l.startswith("counts: ")),
        None,
    )
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return {
        "workload": workload, "seed": seed, "exit": proc.returncode,
        "wall_s": wall, "steal_ticks": steal, "result": result,
        "counts": counts, "stderr": proc.stderr[-2000:],
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    runs = {"A": [], "B": []}
    problems = []
    for i in range(args.seeds):
        seed = args.first_seed + i
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for workload in workloads:
            for s in order:
                rec = run_once(bench, workload, seed)
                runs[s].append(rec)
                ok = rec["exit"] == 0 and rec["result"] and rec["result"]["correct"]
                degraded = (rec["counts"] or {}).get("degraded_share")
                print(
                    f"[{s}] {workload:13s} seed={seed:<4d} exit={rec['exit']} "
                    f"wall={rec['wall_s']:.1f}s steal={rec['steal_ticks']}"
                    + ("" if degraded is None else f" degraded_share={degraded:.3f}"),
                    flush=True,
                )
                if not ok:
                    problems.append(f"{workload} seed {seed} set {s}: failed run "
                                    f"{rec['stderr'][-300:]!r}")
                elif rec["counts"]["latency_samples_min_segment"] < 100:
                    problems.append(f"{workload} seed {seed}: a segment has fewer "
                                    "than 100 latency samples")

    # Work identity: one seed, one workload -> identical counts.
    by_key = {(r["workload"], r["seed"]): r for r in runs["A"]}
    for r in runs["B"]:
        a = by_key.get((r["workload"], r["seed"]))
        if a and a["counts"] and r["counts"] and a["counts"]["work"] != r["counts"]["work"]:
            problems.append(f"{r['workload']} seed {r['seed']}: work counts differ")

    sets = ("A", "B")
    for workload in workloads:
        print(f"\n== {workload}")
        good = {
            s: [r for r in runs[s] if r["workload"] == workload and r["result"]]
            for s in sets
        }
        for s in sets:
            probe = [r["counts"]["host_probe_ms"] for r in good[s] if r["counts"]]
            steal = [r["steal_ticks"] for r in good[s]]
            if probe:
                q1, q2, q3 = quartiles(probe)
                print(f"   [{s}] host_probe_ms median {q2:.3f} q1 {q1:.3f} q3 {q3:.3f}"
                      f" spread {(q3 - q1) / q2:.3f}; steal ticks per run "
                      f"median {statistics.median(steal):.0f} max {max(steal)}")
        shares = [r["counts"]["degraded_share"] for r in good["A"]
                  if r["counts"] and "degraded_share" in r["counts"]]
        if shares:
            print(f"   degraded_share per seed: min {min(shares):.3f} "
                  f"median {statistics.median(shares):.3f} max {max(shares):.3f}")
        print(f"   {'metric':16s} " + " ".join(
            f"[{s}] {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>7s}" for s in sets
        ) + "   shift  bound")
        for name, spec in bounds.items():
            medians, line = {}, f"   {name:16s} "
            for s in sets:
                vals = [r["result"]["metrics"][name]["value"] for r in good[s]]
                if not vals:
                    continue
                q1, q2, q3 = quartiles(vals)
                spread = (q3 - q1) / q2 if q2 else 0.0
                medians[s] = q2
                line += f"[{s}] {q2:10.4g} {q1:10.4g} {q3:10.4g} {spread:7.3f} "
                flag = ""
                if spread > spec["bound"]:
                    problems.append(f"{workload} {name} set {s}: spread {spread:.3f} > bound")
                elif spread > spec["bound"] / 3:
                    flag = "*"
                line += flag
            shift = 0.0
            if len(medians) == 2:
                # Both sets run the same code: a gap either way is unsteadiness.
                shift = (medians["B"] - medians["A"]) / medians["A"]
                if abs(shift) > spec["bound"]:
                    problems.append(f"{workload} {name}: median shift {shift:.3f} > bound")
            print(line + f"  {shift:+.3f}  {spec['bound']}")
    print()
    for p in problems:
        print("FAIL:", p)
    print("steady: OK" if not problems else f"steady: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
