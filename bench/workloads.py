"""The three certification workloads and the pass that runs one of them.

A pass runs ``run_checks(bundle, only=[check], seed, level, samples)`` once
per (catalog entry, check), entry by entry, and for ``catalog-sweep`` also
renders the four export tables of each entry.  It returns the machine form
of every report and the text of every table, so the golden gate can compare
them, plus the wall seconds spent in each check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

LEVEL = 1
SAMPLES = 25
ENGINE_CASES = 150

# phi-r-equivariance is a diagnostic that never fails; it is left out of every
# workload so that deleting it cannot read as a speed-up.
SWEEP_CHECKS = (
    "validate",
    "pbw-count",
    "primitives",
    "mu-product",
    "lambda-character",
    "phi",
    "psi",
    "theta",
    "comparison",
    "omega-iso",
    "engine",
)

# Checks whose reports depend on the seed; every other check must reproduce
# its golden report byte for byte at any seed.
SEEDED_CHECKS = frozenset(
    {"pbw-count", "engine", "phi-r-balance", "iota-compat", "phi-r-injectivity"}
)


@dataclass(frozen=True)
class Workload:
    name: str
    entries: tuple[str, ...] | None  # None: every catalog entry
    checks: tuple[str, ...]
    exports: bool
    why: str
    samples: int = SAMPLES
    # Seed passed to run_checks in timed passes instead of --seed, or None.
    pinned_seed: int | None = None

    def entry_names(self, pkg) -> list[str]:
        return list(self.entries) if self.entries else pkg.catalog_names()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "window-lift",
            ("sl2-p5", "abelian22-p5"),
            ("phi-r-balance", "iota-compat", "phi-r-injectivity"),
            False,
            "Unrestricted straightening of long words at level 1: pbw.mul_letter"
            " dominates and linalg is idle; abelian22-p5 adds a convolution-heavy,"
            " memory-heavy shape.",
            # The cost of a sampled pass on sl2-p5 is dominated by a few heavy
            # random draws: single-sample times ranged 0.01-7.4 s over 40
            # seeds and 25-sample cold passes 22-46 s over 6 seeds, too wide
            # for any bound.  Timed passes therefore use the golden seed, and
            # --seed drives an untimed verification pass (run.py).  Five
            # samples keep a cold pass near 12 s, in line with the others.
            samples=5,
            pinned_seed=0,
        ),
        Workload(
            "annihilators",
            ("abelian22-p5", "gl11-p5", "sl2-p5"),
            ("kernel-duality",),
            False,
            "Action matrices for all p^n 2^m restricted monomials, then rref and"
            " the two-sidedness loop: linalg and modules dominate, straightening"
            " is a small share.",
        ),
        Workload(
            "catalog-sweep",
            None,
            SWEEP_CHECKS,
            True,
            "Every other check on all 10 catalog entries plus the 4 export tables"
            " of each: many small instances on a hot memo path (mostly cache"
            " hits), and most of the parsing.",
        ),
    )
}


def parse_bundles(pkg, workload: Workload) -> dict:
    """Freshly parsed bundles: new algebras, so every memo cache is empty.

    ``load_bundle`` is avoided on purpose; its module-level cache hands back
    bundles whose engines are already warm.
    """
    from superpbw.catalog import CATALOG

    return {
        name: pkg.parse_definition_text(CATALOG[name])
        for name in workload.entry_names(pkg)
    }


def run_pass(pkg, workload: Workload, bundles: dict, seed: int, samples=None, wrap=None):
    """One pass over the workload on the given bundles.

    Returns ``(reports, tables, check_seconds)``: ``reports`` maps
    ``(entry, check)`` to a list of machine forms, ``tables`` maps
    ``(entry, table)`` to the exported text, and ``check_seconds`` sums the
    wall seconds of each check over all entries.  ``samples`` defaults to the
    workload's own.  ``wrap``, if given, is ``Tracer.wrap``: each
    ``run_checks`` call then records a root span ``run_checks.<check>``.
    """
    samples = workload.samples if samples is None else samples
    reports = {}
    tables = {}
    check_seconds = dict.fromkeys(workload.checks, 0.0)
    for entry, bundle in bundles.items():
        for check in workload.checks:
            run_checks = pkg.run_checks
            if wrap is not None:
                run_checks = wrap(f"run_checks.{check}", run_checks)
            t0 = time.perf_counter()
            out = run_checks(
                bundle, only=[check], seed=seed, level=LEVEL,
                samples=samples, engine_cases=ENGINE_CASES,
            )
            check_seconds[check] += time.perf_counter() - t0
            reports[entry, check] = [r.machine_form() for r in out]
        if workload.exports:
            from superpbw.export import TABLE_NAMES

            for table in TABLE_NAMES:
                tables[entry, table] = pkg.export_tables(bundle, table)
    return reports, tables, check_seconds
