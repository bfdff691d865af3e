"""Differential tests of PBWEngine.mul_mono against the whole-word fold.

``oracle_mul_mono`` right-multiplies {m1: 1} by the letters of m2's word one
at a time, through ``mul_letter`` and nothing else: no product memo and no
prefix reuse.  A restricted ``mul_mono`` builds a new product from the
memoized product of m2 less its last letter, so it must agree with the
oracle term for term and in the same order, whatever products were asked
for before.
"""

import random
import sys

import pytest

from superpbw import LieSuperAlgebra, catalog_names, export_tables, parse_definition_text
from superpbw.catalog import CATALOG
from superpbw.pbw import PBWEngine, _add_scaled, get_engine, restricted_monomials


def oracle_mul_mono(eng, m1, m2):
    """m1 m2 by folding the whole word of m2 onto {m1: 1}."""
    p = eng.algebra.p
    current = {m1: 1}
    for g in eng.word_of(m2):
        out = {}
        for m, c in current.items():
            _add_scaled(out, eng.mul_letter(m, g), c, p)
        current = out
        if not current:
            break
    return current


def _assert_all_pairs_match(eng, seed):
    """Every restricted pair, in a shuffled order, against an oracle engine
    of the same order that shares no memo with eng."""
    alg = eng.algebra
    oracle = PBWEngine(alg, eng.order, restricted=True)
    monos = restricted_monomials(alg)
    pairs = [(m1, m2) for m1 in monos for m2 in monos]
    random.Random(seed).shuffle(pairs)
    for m1, m2 in pairs:
        got = list(eng.mul_mono(m1, m2).items())
        assert got == list(oracle_mul_mono(oracle, m1, m2).items()), (m1, m2)


@pytest.mark.parametrize("name", catalog_names())
def test_restricted_products_match_the_whole_word_fold(name):
    alg = parse_definition_text(CATALOG[name]).algebra
    _assert_all_pairs_match(get_engine(alg), name)


def test_split_priority_products_match_the_whole_word_fold():
    # f ahead of h and e: the subalgebra-first order of the split f | h e
    bundle = parse_definition_text(CATALOG["sl2-p5"] + "split fline : f\n")
    split = bundle.splits["fline"]
    eng = get_engine(bundle.algebra, True, split.h_indices + split.c_indices)
    assert eng.order == (2, 0, 1)
    _assert_all_pairs_match(eng, "fline")


def _borel(p):
    """[h, e] = 2e with h^[p] = h, at prime p."""
    alg = LieSuperAlgebra(p, ("h", "e"), (0, 0), {(0, 1): (0, 2)}, {0: (1, 0)}, name=f"b2-p{p}")
    assert alg.is_valid()
    return alg


def test_deep_restricted_product_does_not_recurse():
    # h^5 e^1000 is a prefix chain of 1005 products; none was memoized
    alg = _borel(1009)
    assert sys.getrecursionlimit() <= 1000
    m1, m2 = (0, 3), (5, 1000)
    got = PBWEngine(alg).mul_mono(m1, m2)
    assert len(got) == 6
    assert list(got.items()) == list(oracle_mul_mono(PBWEngine(alg), m1, m2).items())


def test_multiplication_table_memoizes_each_pair_once_and_folds_one_letter():
    bundle = parse_definition_text(CATALOG["sl2-p5"])
    eng = get_engine(bundle.algebra)
    letters = []
    fold = eng._fold

    def counted(current, word):
        letters.append(len(word))
        return fold(current, word)

    eng._fold = counted
    export_tables(bundle, "multiplication")
    n = len(restricted_monomials(bundle.algebra))
    assert len(eng._mul_cache) == n * n == 125 * 125
    assert max(letters) <= 1
    assert sum(letters) <= n * n


def test_unrestricted_miss_memoizes_only_its_own_product():
    alg = _borel(5)
    eng = get_engine(alg, restricted=False)
    before = len(eng._mul_cache)
    product = eng.mul_mono((0, 3), (2, 7))
    assert len(eng._mul_cache) == before + 1
    assert eng._mul_cache[(0, 3), (2, 7)] is product
