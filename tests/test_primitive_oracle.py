"""Differential tests of primitive_space against the dense coproduct matrix.

``oracle_primitive_space`` is the dense route: one column per window
monomial, holding the terms of its coproduct less x tensor 1 + 1 tensor x,
stacked over every term (m1 | m2) that occurs into one terms x monomials
matrix, whose nullspace is the primitive space.  ``primitive_space`` keeps
one equation per term up to a scalar instead, which is exact for any
coproduct, so the two must give the same echelon basis on true coproducts
and on corrupted ones alike.
"""

import numpy as np
import pytest

from superpbw import catalog_names, parse_definition_text
from superpbw.catalog import CATALOG
from superpbw.linalg import nullspace
from superpbw.pbw import (
    PBWEngine,
    _add_scaled,
    get_engine,
    monomials_of_degree_at_most,
    primitive_space,
    restricted_monomials,
)


def _matrix_from_columns(columns, p):
    """Sparse column dicts {label: value} as a dense matrix over the sorted
    labels that occur."""
    labels = sorted({k for col in columns for k in col})
    index = {k: i for i, k in enumerate(labels)}
    out = np.zeros((len(labels), len(columns)), dtype=np.int64)
    for j, col in enumerate(columns):
        for k, v in col.items():
            out[index[k], j] = v % p
    return out


def oracle_primitive_space(alg, restricted=True, degree_bound=None):
    if restricted:
        monos = restricted_monomials(alg)
    else:
        monos = monomials_of_degree_at_most(alg, degree_bound)
    eng = get_engine(alg, restricted)
    zero = (0,) * alg.dim
    cols = []
    for m in monos:
        col = dict(eng.coproduct_mono(m))
        for key in ((m, zero), (zero, m)):
            _add_scaled(col, {key: 1}, -1, alg.p)
        cols.append(col)
    return nullspace(_matrix_from_columns(cols, alg.p), alg.p), monos


def _assert_matches(alg, **window):
    got, monos = primitive_space(alg, **window)
    want, labels = oracle_primitive_space(alg, **window)
    assert monos == labels
    assert np.array_equal(got.rows, want.rows), (alg.name, window)
    return got


def _fresh(name):
    return parse_definition_text(CATALOG[name]).algebra


@pytest.mark.parametrize("name", catalog_names())
def test_restricted_primitives_match_the_dense_route(name):
    alg = _fresh(name)
    assert _assert_matches(alg).dim == alg.dim


@pytest.mark.parametrize("name", catalog_names())
def test_truncated_primitives_match_the_dense_route(name):
    # the windows of checks._truncated_primitives
    alg = _fresh(name)
    for r in range(3 if len(alg.even_indices) <= 1 else 1):
        _assert_matches(alg, restricted=False, degree_bound=alg.p ** (r + 1))


def test_a_bumped_even_binomial_matches_the_dense_route(monkeypatch):
    # C(a + b, a) + 1 on b_0 whenever both legs hold it: the rows of (m1 | m2)
    # are no longer single entries
    clean_alg = _fresh("sl2-p3")
    clean, _ = primitive_space(clean_alg)
    coeff = PBWEngine.coproduct_coeff

    def bumped(eng, m1, m2):
        c = coeff(eng, m1, m2)
        return (c + 1) % eng.algebra.p if m1[0] and m2[0] else c

    monkeypatch.setattr(PBWEngine, "coproduct_coeff", bumped)
    got = _assert_matches(_fresh("sl2-p3"))
    assert got.dim == 4 and clean.dim == 3


@pytest.mark.parametrize("restricted", [True, False])
def test_an_extra_term_matches_the_dense_route(monkeypatch, restricted):
    # (b_0 | b_0) in the coproduct of b_0 takes b_0 out of the primitives
    window = {} if restricted else {"restricted": False, "degree_bound": 3}
    clean, _ = primitive_space(_fresh("sl2-p3"), **window)
    mono = PBWEngine.coproduct_mono

    def extra(eng, m):
        out = mono(eng, m)
        if m == (1,) + (0,) * (len(m) - 1):
            out = dict(out)
            out[m, m] = (out.get((m, m), 0) + 1) % eng.algebra.p
        return out

    monkeypatch.setattr(PBWEngine, "coproduct_mono", extra)
    got = _assert_matches(_fresh("sl2-p3"), **window)
    assert got.dim == clean.dim and got != clean
