"""The level legs multiply in u_r(g) = U(g)/(xi_x^(p^r)), the finite Hopf
quotient whose PBW basis is the level-r window (xi_x = x^p - x^[p]).

- Every level-1 engine (the ambient one and each split's on both sides)
  of the catalog's p = 3 entries, of b2s-p3 and of the shifted sl2s-p3
  satisfies the defining relations of u_1(g), relation (iii) in its level
  form m x^9 = m (x^[3])^3 (``pbw.product_relations_witness``), so each is
  the product of u_1(g).  The engine check proves the level-0 engines.
- Every level-2 engine of heis-p3, gl11-p3 and abelian22-p3, which
  iota-compat reads at level 1, satisfies the relations of u_2(g), relation
  (iii) as m x^27 = m (x^[3])^9.  Those of b2s-p3 (window 729) and sl2-p3
  (window 19,683) are not certified here: they take about 2 s and 3 s.
- An engine that cuts x^(p^(r+1)) to 0, which is what reading a product of
  U(g) on the window amounts to, fails relation (iii) on b2s-p3, whose
  letters are toral.
- b2s at p = 3 and 5 and sl2s-p3, whose complement letter f has
  f^[p] = f, pass all four level checks at seeds 0-4 and levels 0-1.  With
  the cut they failed phi-r-balance on 37 of those reports.

Budget: the tests of this file take under 10 s together on a 2-core
machine (about 4.5 s measured).
"""

import pytest

from ladder import B2S, SL2S_P3
from superpbw import catalog_names, parse_definition_text, run_checks
from superpbw.catalog import CATALOG
from superpbw.pbw import get_engine, product_relations_witness, split_engine

LEVEL_CHECKS = ["phi-r-balance", "iota-compat", "phi-r-injectivity", "lambda-character"]

P3_INPUTS = {name: CATALOG[name] for name in catalog_names() if name.endswith("-p3")}
P3_INPUTS.update({"b2s-p3": B2S.format(p=3), "sl2s-p3": SL2S_P3})


def level_engines(bundle, level):
    """{engine: (split name, side)} for the ambient engine of a level and
    each split's engine of that level on both sides; the ambient one is
    named ("", "")."""
    out = {get_engine(bundle.algebra, level): ("", "")}
    for sname, split, _ in bundle.instances():
        for side in ("left", "right"):
            out.setdefault(split_engine(split, level, side), (sname, side))
    return out


@pytest.mark.parametrize("name", list(P3_INPUTS))
def test_level_one_engines_satisfy_the_relations_of_u1(name):
    bundle = parse_definition_text(P3_INPUTS[name])
    for eng, where in level_engines(bundle, 1).items():
        assert eng.level == 1 and eng.even_bound == 9
        assert product_relations_witness(eng) == "", where


@pytest.mark.parametrize("name", ["heis-p3", "gl11-p3", "abelian22-p3"])
def test_level_two_engines_satisfy_the_relations_of_u2(name):
    bundle = parse_definition_text(P3_INPUTS[name])
    for eng, where in level_engines(bundle, 2).items():
        assert eng.level == 2 and eng.even_bound == 27
        assert product_relations_witness(eng) == "", where


def test_an_engine_that_cuts_the_top_power_fails_the_p_map_relation(monkeypatch):
    # h^[3] = h, so the rule gives h^9 = h^3 where the cut gives 0
    bundle = parse_definition_text(B2S.format(p=3))
    eng = get_engine(bundle.algebra, 1)
    assert product_relations_witness(eng) == ""
    eng._letter_cache.clear()
    eng._mul_cache.clear()
    monkeypatch.setattr(eng, "_top_image", lambda y: [])
    assert product_relations_witness(eng) == "p-map relation fails at (0, 0) b_0"


TORAL_COMPLEMENT = {"b2s-p3": B2S.format(p=3), "b2s-p5": B2S.format(p=5), "sl2s-p3": SL2S_P3}


@pytest.mark.parametrize("name", list(TORAL_COMPLEMENT))
def test_toral_complement_inputs_pass_every_level_check(name):
    bundle = parse_definition_text(TORAL_COMPLEMENT[name])
    for seed in range(5):
        for level in (0, 1):
            reports = run_checks(bundle, only=LEVEL_CHECKS, seed=seed, level=level)
            assert len(reports) == 7
            failed = [r for r in reports if r.status != "pass"]
            assert not failed, (seed, level, failed)
