"""Differential test of the relation certificate against a per-monomial loop.

``pbw.product_relations_witness`` checks the defining relations of u_r(g)
as identities among an engine's right letter maps, column blocks at a time.
``oracle_relations_witness`` below checks the same relations one window
monomial at a time on dicts: for each m in lex order it folds the word of m
onto 1, then folds m by each letter and each pair of letters, and by each
even letter p^(r+1) times, through ``_fold`` and ``mul_letter`` alone.  The
two must give the same witness string, clean and under each mutation of the
engine or its algebra: the first failing monomial in lex order, and at it
the first relation in the order word fold, pairs i <= j, even x ascending.
"""

import itertools

import pytest

from superpbw import catalog_names, parse_definition_text, pbw
from superpbw.catalog import CATALOG
from superpbw.fp import ODD
from superpbw.pbw import _add_scaled, get_engine

from ladder import B2S, osp12
from test_check_controls import (
    _corrupt_a_letter_product,
    _with_bracket_coefficient_bumped,
    _with_p_map_bumped,
)
from test_level_quotients import P3_INPUTS, level_engines


def oracle_relations_witness(eng) -> str:
    """The relation certificate one monomial at a time: '' or the first
    failure, in the words of ``pbw.product_relations_witness``."""
    algebra = eng.algebra
    p = eng.p
    odd = [algebra.parities[g] == ODD for g in range(algebra.dim)]
    pairs = [
        (i, j)
        for i, j in itertools.combinations_with_replacement(range(algebra.dim), 2)
        if i != j or odd[i]
    ]

    def combination(times, coords):
        out: dict = {}
        for k, c in enumerate(coords):
            if c:
                _add_scaled(out, times[k], c, p)
        return out

    for m in itertools.product(*(range(t + 1) for t in eng._top)):
        if eng.straighten_word(eng.word_of(m)) != {m: 1}:
            return f"word fold fails at {m}"
        times = [eng._fold({m: 1}, (g,)) for g in range(algebra.dim)]
        for i, j in pairs:
            defect = eng._fold(times[i], (j,))
            _add_scaled(defect, eng._fold(times[j], (i,)), 1 if odd[i] and odd[j] else -1, p)
            _add_scaled(defect, combination(times, algebra.bracket_coords(i, j)), -1, p)
            if defect:
                return f"bracket relation fails at {m} b_{i} b_{j}"
        for x in algebra.even_indices:
            image = algebra.p_map[x]
            defect = eng._fold(times[x], (x,) * (eng.even_bound - 1))
            power = combination(times, image)
            for _ in range(eng.even_bound // p - 1):
                steps = [eng._fold(power, (k,)) if c else {} for k, c in enumerate(image)]
                power = combination(steps, image)
            _add_scaled(defect, power, -1, p)
            if defect:
                return f"p-map relation fails at {m} b_{x}"
    return ""


def _agree(eng) -> str:
    witness = pbw.product_relations_witness(eng)
    assert oracle_relations_witness(eng) == witness
    return witness


@pytest.mark.parametrize("name", catalog_names())
def test_certificate_matches_the_loop_on_the_catalog_engines(name):
    bundle = parse_definition_text(CATALOG[name])
    for eng, where in level_engines(bundle, 0).items():
        assert _agree(eng) == "", where


@pytest.mark.parametrize("name", list(P3_INPUTS))
def test_certificate_matches_the_loop_on_the_level_one_engines(name):
    bundle = parse_definition_text(P3_INPUTS[name])
    for eng, where in level_engines(bundle, 1).items():
        assert _agree(eng) == "", where


def test_certificate_matches_the_loop_on_osp12_p3():
    bundle = parse_definition_text(osp12(3))
    for eng, where in level_engines(bundle, 0).items():
        assert _agree(eng) == "", where


@pytest.mark.parametrize(
    "name, mutate, witness",
    [
        ("sl2-p3", _with_bracket_coefficient_bumped, "bracket relation fails at (0, 0, 1) b_0 b_1"),
        ("gl11-p3", _with_bracket_coefficient_bumped, "bracket relation fails at (0, 0, 0, 1) b_0 b_2"),
        ("sl2-p3", lambda alg: _with_p_map_bumped(alg, 0, 1), "p-map relation fails at (0, 0, 1) b_0"),
    ],
)
def test_certificate_matches_the_loop_on_a_mutated_algebra(name, mutate, witness):
    alg = mutate(parse_definition_text(CATALOG[name]).algebra)
    assert _agree(get_engine(alg)) == witness


def test_certificate_matches_the_loop_on_a_corrupted_letter_product():
    bundle = parse_definition_text(CATALOG["sl2-p3"])
    assert _corrupt_a_letter_product(bundle)
    assert _agree(get_engine(bundle.algebra)) == "bracket relation fails at (0, 0, 0) b_0 b_2"


def test_certificate_matches_the_loop_on_a_cut_top_power(monkeypatch):
    bundle = parse_definition_text(B2S.format(p=3))
    eng = get_engine(bundle.algebra, 1)
    monkeypatch.setattr(eng, "_top_image", lambda y: [])
    assert _agree(eng) == "p-map relation fails at (0, 0) b_0"


@pytest.mark.parametrize(
    "name, witness",
    [
        ("sl2-p3", "word fold fails at (0, 1, 1)"),
        ("gl11-p3", "word fold fails at (0, 0, 1, 1)"),
    ],
)
def test_certificate_matches_the_loop_on_a_fold_read_in_another_order(name, witness):
    # the engine reads its monomials in the reverse of the order it folds
    # in, which only the word fold sees
    bundle = parse_definition_text(CATALOG[name])
    eng = get_engine(bundle.algebra)
    eng.order = eng.order[::-1]
    assert _agree(eng) == witness
