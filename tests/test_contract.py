"""The behavioural contract, pinned against the benchmark's golden records.

bench/golden/catalog-sweep.json holds the machine form of every report of
the catalog-sweep checks and the SHA-256 of every export table, recorded
at its seed with level 1, 25 samples and 150 engine cases.  Every catalog
entry must reproduce them byte for byte.  bench/golden/annihilators.json
(kernel-duality, 25 samples) and bench/golden/window-lift.json (the three
sampled level-r checks, 5 samples) are reproduced in full.
"""

import hashlib
import json
from pathlib import Path

import pytest

from superpbw import catalog_names, export_tables, load_bundle, run_checks

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "bench" / "golden"


def _golden(workload: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{workload}.json").read_text(encoding="utf-8"))


GOLDEN = _golden("catalog-sweep")
P3_ENTRIES = sorted(name for name in GOLDEN["reports"] if name.endswith("-p3"))


def _canonical(form: dict) -> str:
    return json.dumps(form, sort_keys=True, separators=(",", ":"))


def test_golden_covers_the_p3_entries():
    assert P3_ENTRIES == sorted(n for n in catalog_names() if n.endswith("-p3"))


def _assert_reports_match(name, checks, golden=GOLDEN, samples=25):
    bundle = load_bundle(name)
    for check in checks:
        want = golden["reports"][name][check]
        got = run_checks(
            bundle, only=[check], seed=golden["seed"], level=1, samples=samples, engine_cases=150
        )
        assert [_canonical(r.machine_form()) for r in got] == [_canonical(r) for r in want], check
    return bundle


@pytest.mark.parametrize("name", catalog_names())
def test_reports_and_tables_match_the_golden_record(name):
    bundle = _assert_reports_match(name, sorted(GOLDEN["reports"][name]))
    for table, digest in sorted(GOLDEN["tables"][name].items()):
        text = export_tables(bundle, table)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, table


@pytest.mark.parametrize(
    "workload, samples", [("annihilators", 25), ("window-lift", 5)]
)
def test_workload_reports_match_the_golden_record(workload, samples):
    golden = _golden(workload)
    for name, checks in sorted(golden["reports"].items()):
        _assert_reports_match(name, sorted(checks), golden, samples)
