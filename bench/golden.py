"""Golden copies of the reports and export tables, and the gate that uses them.

A golden file holds, for one workload at the recorded seed, the machine form
of every report and the SHA-256 of every export table.  At the recorded seed
everything must match byte for byte.  At any other seed the reports of the
checks that do not take the seed must still match byte for byte; every report
must keep its identity (check, algebra, split, representation) and must not
have status ``fail``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import SEEDED_CHECKS

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def to_golden(seed: int, reports: dict, tables: dict) -> dict:
    out = {"seed": seed, "reports": {}, "tables": {}}
    for (entry, check), forms in reports.items():
        out["reports"].setdefault(entry, {})[check] = forms
    for (entry, table), text in tables.items():
        out["tables"].setdefault(entry, {})[table] = digest(text)
    return out


def save(workload: str, golden: dict) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    text = json.dumps(golden, sort_keys=True, indent=1) + "\n"
    golden_path(workload).write_text(text, encoding="utf-8")


def load(workload: str) -> dict:
    return json.loads(golden_path(workload).read_text(encoding="utf-8"))


def _identity(form: dict) -> tuple:
    return (form["check"], form["algebra"], form["split"], form["representation"])


class Gate:
    """Counts attempted and failed reports and tables across passes."""

    def __init__(self, golden: dict) -> None:
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None

    def _fail(self, message: str) -> None:
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = message

    def check(self, reports: dict, tables: dict, seed: int) -> None:
        exact = seed == self.golden["seed"]
        for (entry, check), forms in reports.items():
            want = self.golden["reports"].get(entry, {}).get(check)
            if want is None:
                self.attempted += len(forms) or 1
                self._fail(f"{entry}/{check}: no golden reports")
                continue
            if len(forms) != len(want):
                self.attempted += max(len(forms), len(want))
                self._fail(
                    f"{entry}/{check}: {len(forms)} reports, golden has {len(want)}"
                )
                continue
            byte_exact = exact or check not in SEEDED_CHECKS
            for got, ref in zip(forms, want):
                self.attempted += 1
                if got["status"] == "fail":
                    self._fail(f"status fail: {canonical(got)}")
                elif byte_exact and canonical(got) != canonical(ref):
                    self._fail(f"report differs:\n  got    {canonical(got)}\n  golden {canonical(ref)}")
                elif _identity(got) != _identity(ref):
                    self._fail(f"report identity differs: {_identity(got)} vs {_identity(ref)}")
        for (entry, table), text in tables.items():
            self.attempted += 1
            want = self.golden["tables"].get(entry, {}).get(table)
            got = digest(text)
            if got != want:
                first = text.splitlines()[:2]
                self._fail(
                    f"export {entry}/{table} differs: sha256 {got}, golden {want};"
                    f" starts {first!r}"
                )
