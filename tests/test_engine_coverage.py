"""Every restricted engine the package multiplies in is certified.

The engine check runs ``pbw.product_relations_witness`` on the ambient
restricted engine and on each distinct restricted split engine
(``split_engine``), so a product read in any of them is a product of u(g).
The guard below runs the whole battery and every export table on a fresh
parse and fails if some restricted engine was built that the engine check
did not certify, as a new engine order would be.
"""

import pytest

from superpbw import catalog_names, parse_definition_text, run_checks
from superpbw import checks as checks_module
from superpbw.catalog import CATALOG
from superpbw.export import TABLE_NAMES, export_tables
from superpbw.pbw import get_engine, product_relations_witness, split_engine

from test_pbw import LADDER


def _split_engines(bundle):
    """(split name, side, engine) for each restricted split engine."""
    return [
        (sname, side, split_engine(split, True, side))
        for sname, split, _ in bundle.instances()
        for side in ("left", "right")
    ]


@pytest.mark.parametrize("name", catalog_names())
def test_every_restricted_engine_is_certified(monkeypatch, name):
    certified = []

    def recorded(eng):
        certified.append(eng)
        return product_relations_witness(eng)

    monkeypatch.setattr(checks_module, "product_relations_witness", recorded)
    bundle = parse_definition_text(CATALOG[name])
    reports = run_checks(bundle)
    assert all(r.status != "fail" for r in reports), [r for r in reports if r.status == "fail"]
    for what in TABLE_NAMES:
        export_tables(bundle, what)
    built = {eng for eng in bundle.algebra._engine_cache.values() if eng.restricted}
    ambient = get_engine(bundle.algebra)
    assert built <= {ambient} | {eng for _, _, eng in _split_engines(bundle)}
    assert built <= set(certified)
    assert len(certified) == len(set(certified)), "an engine was certified twice"


@pytest.mark.parametrize("name", list(LADDER))
def test_split_engine_folds_are_certified_past_the_catalog(name):
    bundle = parse_definition_text(LADDER[name])
    for sname, side, eng in _split_engines(bundle):
        assert product_relations_witness(eng) == "", (sname, side)
