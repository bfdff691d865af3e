#!/usr/bin/env python3
"""Record the benchmark's baseline into bench/baseline.json.

Run from the root of a checkout:

    python3 bench/baseline.py

1. Runs every workload untraced once per seed 1..SEEDS, in SETS sets, and
   records for each set and end-to-end metric the median, the quartiles and
   the spread (distance between the quartiles as a share of the median), and
   how far each later set's median moved from the first set's.
2. Runs every workload traced twice at the golden seed and records the
   per-layer table (self seconds and share of the traced certify_s per layer,
   calls and self seconds per function, per-check seconds, the traced and
   untraced certify_s side by side) and whether every counter repeated
   exactly.
3. Records the environment, the workload rationale and the negative control:
   a run against a deliberately corrupted golden report must count it failed.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import golden
from workloads import ENGINE_CASES, LEVEL, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = 10
SETS = 2
SECONDS = 30  # run_seconds of BENCHMARK.json
COUNTER_SUFFIXES = (".calls", ".misses", ".max_word", ".cells", ".field_ops", ".spans")


def bench_run(workload: str, seed: int, seconds: int, trace: int, *extra) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: correct {result['correct']},"
          f" failed {result['failed']} of {result['attempted']}", flush=True)
    return result


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "values": values}


def untraced_set(seeds: int, seconds: int) -> dict:
    out = {}
    for name in WORKLOADS:
        runs = [bench_run(name, s, seconds, 0) for s in range(1, seeds + 1)]
        metrics = runs[0]["metrics"]
        out[name] = {
            "seeds": list(range(1, seeds + 1)),
            "all_correct": all(r["correct"] for r in runs),
            "failed_ratio": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "metrics": {
                m: {"unit": metrics[m]["unit"],
                    **spread([r["metrics"][m]["value"] for r in runs])}
                for m in metrics
            },
        }
    return out


def untraced_baseline(sets: int, seeds: int, seconds: int) -> dict:
    runs = [untraced_set(seeds, seconds) for _ in range(sets)]
    first = runs[0]
    drift = {
        name: {m: [r[name]["metrics"][m]["median"] / v["median"] - 1 for r in runs[1:]]
               for m, v in first[name]["metrics"].items()}
        for name in first
    }
    return {"sets": runs, "median_drift_from_first_set": drift}


def traced_baseline(seed: int, seconds: int) -> dict:
    out = {}
    for name in WORKLOADS:
        first, second = (bench_run(name, seed, seconds, 1)["metrics"] for _ in range(2))
        counters = {k: v["value"] for k, v in first.items() if k.endswith(COUNTER_SUFFIXES)}
        differ = sorted(k for k in counters if second[k]["value"] != counters[k])
        value = {k: v["value"] for k, v in first.items()}
        out[name] = {
            "certify_s_untraced": value["certify_s.untraced"],
            "certify_s_traced": value["certify_s.traced"],
            "trace_overhead": value["trace.overhead"],
            "layers": {
                k[len("layer."):-len(".self_s")]: {
                    "self_s": v, "share_of_certify_s": value[k[:-len("self_s")] + "share"]}
                for k, v in value.items() if k.startswith("layer.") and k.endswith(".self_s")
            },
            "functions": {
                k[:-len(".calls")]: {"calls": v, "self_s": value[k[:-len("calls")] + "self_s"]}
                for k, v in value.items() if k.endswith(".calls") and v
            },
            "checks_s": {k: v for k, v in value.items() if k.startswith("checks.") and v},
            "counters": counters,
            "counters_repeat_exactly": not differ,
            "counters_that_differed": differ,
        }
    return out


def negative_control(seconds: int) -> dict:
    result = bench_run("annihilators", golden.load("annihilators")["seed"], seconds, 0,
                       "--corrupt-golden")
    return {"workload": "annihilators", "correct": result["correct"],
            "failed": result["failed"], "attempted": result["attempted"],
            "caught": result["failed"] > 0 and not result["correct"]}


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "threads": "one process per workload; OMP/OPENBLAS/MKL_NUM_THREADS=1",
    }


def main() -> None:
    doc = {
        "environment": environment(),
        "loop": "closed loop, one client: each library call starts when the previous returns",
        "timing": "untraced times are seconds at the reference CPU speed of speed.py"
                  " (wall time of each 10 ms slice scaled by the slowdown of a reference"
                  " loop); traced runs and per-layer times are wall seconds",
        "options": {"level": LEVEL, "engine_cases": ENGINE_CASES},
        "workloads": {
            w.name: {"why": w.why, "entries": list(w.entries or ["<all catalog entries>"]),
                     "checks": list(w.checks), "exports": w.exports,
                     "samples": w.samples, "pinned_seed": w.pinned_seed}
            for w in WORKLOADS.values()
        },
        "excluded_checks": {
            "phi-r-equivariance": "diagnostic only and can never fail; it costs about"
            " 13.5 s on sl2-p5 and may be deleted, which would read as a speed-up",
        },
        "negative_control": negative_control(SECONDS),
        "traced": traced_baseline(golden.load("annihilators")["seed"], SECONDS),
        "untraced": untraced_baseline(SETS, SEEDS, SECONDS),
    }
    path = BENCH / "baseline.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
