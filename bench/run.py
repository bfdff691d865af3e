#!/usr/bin/env python3
"""superpbw benchmark: time to certify the induced/coinduced duality.

Run from the root of a checkout:

    python3 bench/run.py --workload window-lift --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

Each workload is a closed loop with one client in one process: the next call
into the library starts when the previous one returns.  numpy's thread pools
are pinned to one thread.

``--trace 0`` (end to end, untraced).  Every time is in seconds at the
reference CPU speed (speed.py): the wall time of each 10 ms slice is scaled
by how much a tiny reference loop slowed in it, because this kind of host
swings 1.7x in CPU speed; the wall-second medians are printed beside them as
comments.
  setup_s       fastest of SETUP_REPS fresh interpreters importing the
                package and parsing (which validates) every definition used;
                the probes run between timed passes and after them.  The
                fastest is taken because one probe is short (about 0.15 s,
                mostly importing numpy) and its noise only ever adds time;
  certify_s     median of a cold pass: freshly parsed bundles, so every memo
                cache starts empty;
  warm_s        median of the same pass repeated at once on the same bundles;
  peak_rss_mib  peak resident memory of this process (getrusage).
A run repeats iterations of parse, one cold pass and one warm pass while the
next iteration is predicted to end within ``--seconds`` (at least one
iteration), then fills the rest of ``--seconds`` with warm passes.  A
workload with a pinned seed (window-lift) times its passes at that seed and
then runs one untimed, gated pass at ``--seed`` with VERIFY_SAMPLES samples.

``--trace 1`` (per layer): one untraced cold pass; one untimed cold pass with
the work counters installed; then parsing and one cold pass with the span
tracer installed (see tracer.py).  Prints per-function calls and self
seconds (parsing and the pass), per-layer self seconds of the traced pass and
their share of it, the work counters, the wall seconds of each check, and
traced against untraced certify_s, all in wall seconds.  Spans are
written to .bench_out/.

Every report and export table of every pass goes through the golden gate
(golden.py).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; failed/attempted
is the failed ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 21
VERIFY_SAMPLES = 2  # samples of the untimed pass at --seed for pinned workloads

sys.path.insert(0, str(BENCH))

import golden  # noqa: E402
from speed import SpeedClock  # noqa: E402
from workloads import WORKLOADS, parse_bundles, run_pass  # noqa: E402

ALL_CHECKS = tuple(dict.fromkeys(c for wl in WORKLOADS.values() for c in wl.checks))


def load_package():
    pkg_dir = SRC / "superpbw"
    if not (pkg_dir / "__init__.py").is_file():
        sys.exit(f"run.py: no package at {pkg_dir}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import superpbw

    if Path(superpbw.__file__).resolve().parent != pkg_dir.resolve():
        sys.exit(f"run.py: imported superpbw from {superpbw.__file__}, not {pkg_dir}")
    return superpbw


def setup_probe(entries: list[str]) -> tuple[float, float]:
    """(scaled, wall) seconds of one set-up in a fresh interpreter."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), *entries]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    scaled, wall = out.stdout.strip().splitlines()[-1].split()
    return float(scaled), float(wall)


def timed_pass(pkg, wl, bundles, seed, gate, samples=None) -> SpeedClock:
    with SpeedClock() as clock:
        reports, tables, _ = run_pass(pkg, wl, bundles, seed, samples)
    gate.check(reports, tables, seed)
    return clock


def timed_seed(wl, seed: int) -> int:
    return seed if wl.pinned_seed is None else wl.pinned_seed


def run_untraced(pkg, wl, seed, seconds, gate) -> dict:
    entries = wl.entry_names(pkg)
    run_seed = timed_seed(wl, seed)
    setup, cold, warm = [], [], []

    def timed(bundles, into):
        into.append(timed_pass(pkg, wl, bundles, run_seed, gate))
        # one set-up probe after each timed pass, so they spread over the run
        if len(setup) < SETUP_REPS:
            setup.append(setup_probe(entries))

    deadline = time.perf_counter() + seconds
    while True:
        bundles = None  # drop the previous bundles and their caches first
        started = time.perf_counter()
        bundles = parse_bundles(pkg, wl)
        timed(bundles, cold)
        timed(bundles, warm)
        iteration = time.perf_counter() - started
        if time.perf_counter() + iteration > deadline:
            break
    while time.perf_counter() + warm[-1].wall_s <= deadline:
        timed(bundles, warm)
    while len(setup) < SETUP_REPS:
        setup.append(setup_probe(entries))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"# samples: {len(cold)} cold, {len(warm)} warm; setup probes: {SETUP_REPS}")
    print(f"# wall seconds: setup_s {min(w for _, w in setup):.4f},"
          f" certify_s {statistics.median(c.wall_s for c in cold):.4f},"
          f" warm_s {statistics.median(c.wall_s for c in warm):.4f}")
    if run_seed != seed:
        bundles = None
        verify = timed_pass(pkg, wl, parse_bundles(pkg, wl), seed, gate, VERIFY_SAMPLES)
        print(f"# untimed verification at seed {seed}, samples {VERIFY_SAMPLES}:"
              f" {verify.wall_s:.2f} s")
    return {
        "setup_s": (min(s for s, _ in setup), "s"),
        "certify_s": (statistics.median(c.scaled_s for c in cold), "s"),
        "warm_s": (statistics.median(c.scaled_s for c in warm), "s"),
        "peak_rss_mib": (peak_kib / 1024.0, "MiB"),
    }


def run_traced(pkg, wl, seed, gate) -> dict:
    from tracer import LAYERS, MEMOIZED, SPANNED, Counters, Tracer, layer_of

    seed = timed_seed(wl, seed)
    untraced_s = timed_pass(pkg, wl, parse_bundles(pkg, wl), seed, gate).wall_s

    # work counters in an untimed cold pass of their own
    bundles = parse_bundles(pkg, wl)
    counters = Counters()
    counters.install()
    try:
        reports, tables, _ = run_pass(pkg, wl, bundles, seed)
    finally:
        counters.uninstall()
    gate.check(reports, tables, seed)

    # spans only, over parsing and a cold pass
    bundles = None
    tracer = Tracer()
    tracer.install()
    try:
        bundles = parse_bundles(pkg, wl)
        t0 = time.perf_counter()
        reports, tables, check_s = run_pass(pkg, wl, bundles, seed, wrap=tracer.wrap)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    gate.check(reports, tables, seed)

    for name in tracer.absent + counters.absent:
        print(f"# absent: {name} (reported as 0)")
    metrics = {}
    # per function: parsing and the cold pass
    whole = tracer.self_times()
    for name in SPANNED:
        calls, self_s = whole.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    for name in MEMOIZED:
        calls, misses = counters.calls[name], counters.misses[name]
        metrics[f"{name}.misses"] = (misses, "count")
        metrics[f"{name}.hit_ratio"] = (1 - misses / calls if calls else 0.0, "ratio")
    metrics["pbw.mul_letter.max_word"] = (counters.max_word, "letters")
    metrics["linalg.rref.cells"] = (counters.rref_cells, "cells")
    metrics["fp.field_ops"] = (counters.field_ops, "count")
    for check in ALL_CHECKS:
        metrics[f"checks.{check}.s"] = (check_s.get(check, 0.0), "s")
    # per layer: the cold pass only, as a share of its (traced) certify_s
    layer_s = dict.fromkeys(LAYERS, 0.0)
    for name, (calls, self_s) in tracer.self_times(since=t0).items():
        if calls:
            layer_s[layer_of(name)] += self_s
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = (layer_s[layer], "s")
        metrics[f"layer.{layer}.share"] = (layer_s[layer] / traced_s, "ratio")
    metrics["certify_s.untraced"] = (untraced_s, "s")
    metrics["certify_s.traced"] = (traced_s, "s")
    metrics["trace.overhead"] = (traced_s / untraced_s - 1, "ratio")
    metrics["trace.spans"] = (tracer.span_count(), "count")

    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{wl.name}-seed{seed}.npz"
    tracer.write(path)
    print(f"# spans written to {path.relative_to(ROOT)}")
    return metrics


def run_one(args) -> int:
    wl = WORKLOADS[args.workload]
    if not golden.golden_path(wl.name).is_file():
        sys.exit(f"run.py: golden copy {golden.golden_path(wl.name)} is missing")
    pkg = load_package()
    ref = golden.load(wl.name)
    if args.corrupt_golden:
        entry, forms = next(iter(ref["reports"].items()))
        check = next(iter(forms))
        forms[check][0]["representation"] += "-corrupted"
        print(f"# negative control: corrupted golden {entry}/{check}[0]")
    gate = golden.Gate(ref)
    if args.trace:
        metrics = run_traced(pkg, wl, args.seed, gate)
    else:
        metrics = run_untraced(pkg, wl, args.seed, args.seconds, gate)
    if gate.first_failure:
        print(f"# first failure: {gate.first_failure}")
    print(f"# failed_ratio {gate.failed / gate.attempted:.6f} ratio"
          f" ({gate.failed} of {gate.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value} {unit}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return out.returncode
        result = json.loads(out.stdout.strip().splitlines()[-1])
        ratio = result["failed"] / result["attempted"]
        rows.append((name, "failed_ratio", ratio, "ratio"))
        for metric, m in result["metrics"].items():
            rows.append((name, metric, m["value"], m["unit"]))
    for row in rows:
        print(f"{row[0]:<14} {row[1]:<44} {row[2]:>14.6g} {row[3]}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corrupt-golden", action="store_true",
        help="negative control: alter one golden report before the gate runs",
    )
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
