"""Differential tests of primitive_space against the dense coproduct matrix.

``oracle_primitive_space`` is the dense route: one column per window
monomial, holding the terms of its coproduct less x tensor 1 + 1 tensor x,
stacked over every term (m1 | m2) that occurs into one terms x monomials
matrix, whose nullspace is the primitive space.  It assumes nothing about
the terms.  ``primitive_space`` reads the primitive monomials off one
coproduct at a time instead, which is exact when every term of the
coproduct of m splits m, so that the coproducts of distinct monomials share
no term.  Where they do, the dense echelon basis must be the unit vectors of
the primitive monomials, on true coproducts and on corrupted ones alike;
where a term does not split its monomial, primitive_space must refuse.
"""

import re

import numpy as np
import pytest

from superpbw import catalog_names, parse_definition_text
from superpbw.algebra import StructureError
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

from ladder import B2, B2S, BX, ODD3_P3, SL2_HLINE_P3, SL2S_P3, TOR, osp12

TEXTS = {name: CATALOG[name] for name in catalog_names()}
TEXTS.update(
    {"osp12-p3": osp12(3), "sl2h-p3": SL2_HLINE_P3, "odd3-p3": ODD3_P3, "sl2s-p3": SL2S_P3}
)
TEXTS.update(
    (f"{name}-p{p}", text.format(p=p))
    for name, text in (("tor", TOR), ("b2", B2), ("bx", BX), ("b2s", B2S))
    for p in (3, 5)
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


def oracle_primitive_space(alg, degree_bound=None):
    restricted = degree_bound is None
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


def _assert_matches(alg, degree_bound=None):
    prims, monos = primitive_space(alg, degree_bound)
    want, labels = oracle_primitive_space(alg, degree_bound)
    assert monos == labels
    index = {m: i for i, m in enumerate(monos)}
    units = np.zeros((len(prims), len(monos)), dtype=np.int64)
    units[np.arange(len(prims)), [index[m] for m in prims]] = 1
    assert np.array_equal(want.rows, units), (alg.name, degree_bound)
    return prims


def _fresh(name):
    return parse_definition_text(TEXTS[name]).algebra


@pytest.mark.parametrize("name", list(TEXTS))
def test_restricted_primitives_match_the_dense_route(name):
    alg = _fresh(name)
    assert len(_assert_matches(alg)) == alg.dim


@pytest.mark.parametrize("name", list(TEXTS))
def test_truncated_primitives_match_the_dense_route(name):
    # the windows of checks._truncated_primitives
    alg = _fresh(name)
    for r in range(3 if len(alg.even_indices) <= 1 else 1):
        _assert_matches(alg, alg.p ** (r + 1))


def test_a_bumped_even_binomial_matches_the_dense_route(monkeypatch):
    # C(a + b, a) + 1 on b_0 whenever both legs hold it: every term still
    # splits its monomial, and b_0^2 turns primitive
    clean, _ = primitive_space(_fresh("sl2-p3"))
    coeff = PBWEngine.coproduct_coeff

    def bumped(eng, m1, m2):
        c = coeff(eng, m1, m2)
        return (c + 1) % eng.algebra.p if m1[0] and m2[0] else c

    monkeypatch.setattr(PBWEngine, "coproduct_coeff", bumped)
    got = _assert_matches(_fresh("sl2-p3"))
    assert len(got) == 4 and len(clean) == 3


@pytest.mark.parametrize("degree_bound", [None, 3])
def test_an_extra_term_is_a_structure_error(monkeypatch, degree_bound):
    # (b_0 | b_0) in the coproduct of b_0 splits no monomial: primitive_space
    # refuses it, and the dense route takes b_0 out of the primitives
    clean, _ = primitive_space(_fresh("sl2-p3"), degree_bound)
    mono = PBWEngine.coproduct_mono

    def extra(eng, m):
        out = mono(eng, m)
        if m == (1,) + (0,) * (len(m) - 1):
            out = dict(out)
            out[m, m] = (out.get((m, m), 0) + 1) % eng.algebra.p
        return out

    monkeypatch.setattr(PBWEngine, "coproduct_mono", extra)
    alg = _fresh("sl2-p3")
    kind = "restricted" if degree_bound is None else "unrestricted"
    witness = f"{kind} coproduct of (1, 0, 0) has the term (1, 0, 0) | (1, 0, 0), not a split of it"
    with pytest.raises(StructureError, match=f"^{re.escape(witness)}$"):
        primitive_space(alg, degree_bound)
    want, monos = oracle_primitive_space(alg, degree_bound)
    b0 = [1 if m == (1, 0, 0) else 0 for m in monos]
    assert want.dim == len(clean) and not want.contains(b0)
