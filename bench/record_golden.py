#!/usr/bin/env python3
"""Record the golden reports and export-table digests of every workload.

Run from the root of a checkout:  python3 bench/record_golden.py

Re-record only when the behavioural contract itself changes on purpose; the
golden copies are what every later benchmark run is checked against.
"""

from __future__ import annotations

import golden
from run import load_package
from workloads import WORKLOADS, parse_bundles, run_pass

GOLDEN_SEED = 0


def main() -> None:
    pkg = load_package()
    for name, wl in WORKLOADS.items():
        seed = GOLDEN_SEED if wl.pinned_seed is None else wl.pinned_seed
        reports, tables, _ = run_pass(pkg, wl, parse_bundles(pkg, wl), seed)
        golden.save(name, golden.to_golden(seed, reports, tables))
        n_reports = sum(len(forms) for forms in reports.values())
        print(f"{name}: {n_reports} reports, {len(tables)} tables -> {golden.golden_path(name)}")


if __name__ == "__main__":
    main()
