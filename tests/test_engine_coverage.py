"""Every engine the package multiplies in is certified.

The engine check runs ``pbw.product_relations_witness`` on the ambient
level-0 engine and on each distinct level-0 split engine (``split_engine``),
so a product read in any of them is a product of u(g).  The level legs
multiply in the engines of levels r >= 1, the ambient one and each split's
on both sides, and ``tests/test_level_quotients.py`` certifies every such
engine of level 1 on the p = 3 inputs, and of level 2 on heis-p3, gl11-p3
and abelian22-p3.  The guard below runs the whole
battery and every export table on a fresh parse and fails if some level-0
engine was built that the engine check did not certify exactly once, or
some engine of a level r >= 1 was built outside that family (a new engine
order would be).
"""

import pytest

from superpbw import catalog_names, parse_definition_text, run_checks
from superpbw import checks as checks_module
from superpbw.catalog import CATALOG
from superpbw.export import TABLE_NAMES, export_tables
from superpbw.pbw import get_engine, product_relations_witness, split_engine

from test_level_quotients import P3_INPUTS, level_engines
from test_pbw import LADDER


def _split_engines(bundle):
    """(split name, side, engine) for each level-0 split engine."""
    return [
        (sname, side, split_engine(split, 0, side))
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
    engines = set(bundle.algebra._engine_cache.values())
    built = {eng for eng in engines if eng.level == 0}
    ambient = get_engine(bundle.algebra)
    assert built <= {ambient} | {eng for _, _, eng in _split_engines(bundle)}
    assert built == set(certified)
    assert len(certified) == len(set(certified)), "an engine was certified twice"
    # U(g) serves the sampled associativity leg and the truncated primitives
    assert {eng.level for eng in engines} == {None, 0, 1, 2}
    for level in (1, 2):
        assert {eng for eng in engines if eng.level == level} <= set(level_engines(bundle, level))
    # on the p = 3 entries the level-1 family is certified there
    assert (name in P3_INPUTS) == (bundle.algebra.p == 3)


@pytest.mark.parametrize("name", list(LADDER))
def test_split_engine_folds_are_certified_past_the_catalog(name):
    bundle = parse_definition_text(LADDER[name])
    for sname, side, eng in _split_engines(bundle):
        assert product_relations_witness(eng) == "", (sname, side)
