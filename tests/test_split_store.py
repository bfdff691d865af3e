"""The split's store is the one memo of what is built on a split.

Representation, BerezinSections and LevelEvaluator keep no cache of their
own: what they build goes to SubalgebraSplit.memo, so it is shared between
checks, between passes and between representations with equal data.  A
window keeps two, built once per window object: its list of complement
monomials (ComplementWindow.c_monomials, a cached property) and, for a
CoordinateAlgebra, its module (CoordinateAlgebra._module).  Every test
parses its catalog entry afresh, so the store it reads belongs to that
parse alone.
"""

from collections import Counter

import numpy as np
import pytest

from superpbw import parse_definition_text, run_checks
from superpbw.algebra import SubalgebraSplit
from superpbw.berezin import BerezinSections, socle_volume_killed
from superpbw.catalog import CATALOG
from superpbw.duality import LevelEvaluator
from superpbw.modules import CoordinateAlgebra, twisted_dual


def _fresh(name="sl2-p3"):
    return parse_definition_text(CATALOG[name])


def _sizes(obj):
    return {k: len(v) for k, v in vars(obj).items() if isinstance(v, (dict, list, set, tuple))}


def _stored(split, kind):
    return {key for key in split._memo if key[0] == kind}


def test_no_instance_keeps_a_cache_of_its_own():
    bundle = _fresh()
    split = bundle.splits["borel"]
    rep = bundle.representations["wt1"]
    coords = CoordinateAlgebra(split)
    sections = BerezinSections(split)
    evaluator = LevelEvaluator(split, rep, 1)
    objects = (rep, coords, sections, evaluator)
    before = [_sizes(obj) for obj in objects]
    stored = len(split._memo)
    rep.h_monomial_matrix((1, 1))
    coords.module().generator_matrix(2)
    sections.coordinate_images(1)
    sections.divergence(1)
    sections.lie_matrix(0)
    evaluator.socle_section(np.array([2]))
    assert len(split._memo) > stored
    for obj, sizes in zip(objects, before):
        assert _sizes(obj) == sizes, obj


def test_every_stored_kind_is_read_back(monkeypatch):
    # a kind that is built but never found again is stored for nothing
    built, read = Counter(), Counter()
    clean = SubalgebraSplit.memo

    def counted(split, key, build):
        (read if key in split._memo else built)[key[0]] += 1
        return clean(split, key, build)

    monkeypatch.setattr(SubalgebraSplit, "memo", counted)
    for name in ("sl2-p3", "gl11-p3"):
        bundle = _fresh(name)
        for _ in range(2):
            run_checks(bundle, engine_cases=20, samples=5)
    assert built
    unread = {kind: n for kind, n in built.items() if not read[kind]}
    assert not unread, f"built but never read: {unread}"


def test_socle_volume_reuses_the_lie_matrices_of_omega_iso():
    bundle = _fresh()
    (report,) = [r for r in run_checks(bundle, only=["omega-iso"]) if r.split == "borel"]
    assert report.status == "pass"
    split = bundle.splits["borel"]
    built = _stored(split, "lie-matrix")
    assert len(built) == split.algebra.dim
    assert socle_volume_killed(split) == (True, "")
    assert _stored(split, "lie-matrix") == built


def test_a_double_twisted_dual_finds_its_subalgebra_actions_built():
    bundle = _fresh()
    rep = bundle.representations["nat2"]
    exponents = [(1, 1, 1), (2, 0, 1), (0, 2, 2)]
    first = [rep.h_monomial_matrix(e) for e in exponents]
    built = _stored(rep.split, "h-monomial")
    again = twisted_dual(twisted_dual(rep))
    assert again is not rep
    assert all(again.h_monomial_matrix(e) is m for e, m in zip(exponents, first))
    assert _stored(rep.split, "h-monomial") == built


def test_stored_lie_matrices_and_section_vectors_refuse_writes():
    bundle = _fresh()
    split = bundle.splits["borel"]
    lie = BerezinSections(split).lie_matrix(0)
    section = LevelEvaluator(split, bundle.representations["wt1"], 1).socle_section([1])
    assert section
    with pytest.raises(ValueError):
        lie[0, 0] = 1
    for vec in section.values():
        with pytest.raises(ValueError):
            vec[0] = 1
