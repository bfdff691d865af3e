"""Differential tests of the closed coproduct coefficient and its users.

``oracle_coproduct_mono`` builds the coproduct of a monomial the iterative
way: letter by letter in the engine's order, each even power splitting into
binomial terms and each odd letter going left or right, with the Koszul sign
of moving it past the odd letters already in the right leg.
``oracle_convolve`` is the candidate walk: collect the in-window sums of
the two supports, expand each one's whole coproduct through the oracle and
look both legs up.  Neither shares code with ``PBWEngine.coproduct_coeff``,
so ``coproduct_mono`` and ``ComplementWindow.convolve``, which are built
from it, must agree with them exactly.
"""

import math
import random

import numpy as np
import pytest

from superpbw import catalog_names, load_bundle, parse_definition_text
from superpbw.catalog import CATALOG
from superpbw.duality import _closed_coproduct_coeff, level_raising_check, socle_level
from superpbw.fp import ODD
from superpbw.modules import ComplementWindow
from superpbw.pbw import (
    PBWEngine,
    _add_scaled,
    get_engine,
    monomials_of_degree_at_most,
    restricted_monomials,
)


def oracle_coproduct_mono(eng, m):
    """{(m1, m2): coeff} of the coproduct of m, one letter at a time."""
    alg = eng.algebra
    p, q = alg.p, alg.parities
    zero = (0,) * alg.dim
    terms = {(zero, zero): 1}
    for g in eng.order:
        a = m[g]
        if a == 0:
            continue
        if q[g] == ODD:
            factors = [(1, 0, 1), (0, 1, 1)]
        else:
            factors = [(k, a - k, math.comb(a, k) % p) for k in range(a + 1)]
        new = {}
        for (m1, m2), c in terms.items():
            p2 = eng.mono_parity(m2)
            shifted = {}
            for kl, kr, bc in factors:
                nm1 = m1[:g] + (m1[g] + kl,) + m1[g + 1 :]
                nm2 = m2[:g] + (m2[g] + kr,) + m2[g + 1 :]
                shifted[nm1, nm2] = -bc if (q[g] * kl) % 2 and p2 else bc
            _add_scaled(new, shifted, c, p)
        terms = new
    return terms


def oracle_convolve(window, a, b):
    """Convolution by expanding the coproduct of every candidate product."""
    p = window.split.algebra.p
    eng = window.engine
    cands = set()
    for ma in a:
        for mb in b:
            cm = tuple(x + y for x, y in zip(ma, mb))
            if window.in_window(cm):
                cands.add(cm)
    out = {}
    for cm in cands:
        total = 0
        for (m1, m2), coeff in oracle_coproduct_mono(eng, window.global_mono(cm)).items():
            va = a.get(window.local_of(m1))
            vb = b.get(window.local_of(m2))
            if va is None or vb is None:
                continue
            scalar = -coeff * va if eng.mono_parity(m1) and eng.mono_parity(m2) else coeff * va
            total = (total + (scalar % p) * vb) % p
        if np.count_nonzero(total):
            out[cm] = total
    return out


def _engines(bundle, level):
    """Fresh engines in the default order and in each split's two orders."""
    alg = bundle.algebra
    orders = [tuple(range(alg.dim))]
    for split in bundle.splits.values():
        orders += [split.h_indices + split.c_indices, split.c_indices + split.h_indices]
    return [PBWEngine(alg, order, level) for order in dict.fromkeys(map(tuple, orders))]


@pytest.mark.parametrize("level", [0, None])
@pytest.mark.parametrize("name", catalog_names())
def test_coproduct_mono_matches_the_iterative_expansion(name, level):
    bundle = load_bundle(name)
    alg = bundle.algebra
    if level == 0:
        monos = restricted_monomials(alg)
    else:
        monos = monomials_of_degree_at_most(alg, alg.p + 1)
    for eng in _engines(bundle, level):
        for m in monos:
            want = oracle_coproduct_mono(eng, m)
            got = eng.coproduct_mono(m)
            # same terms, listed in the same order
            assert list(got.items()) == list(want.items()), (eng.order, m)


def _random_mono(window, rng):
    """A window monomial; even exponents are small or anywhere in range."""
    split = window.split
    p = split.algebra.p
    out = []
    for _ in range(split.n_even):
        small = rng.random() < 0.75
        out.append(rng.randrange(min(2 * p, window.even_bound) if small else window.even_bound))
    return tuple(out) + tuple(rng.randrange(2) for _ in range(split.m_odd))


def _random_functional(window, rng, size, vector_dim=None):
    p = window.split.algebra.p
    out = {}
    for _ in range(size):
        cm = _random_mono(window, rng)
        if vector_dim is None:
            out[cm] = rng.randrange(1, p)
        else:
            out[cm] = np.array([rng.randrange(p) for _ in range(vector_dim)], dtype=np.int64)
    return out


@pytest.mark.parametrize("name", catalog_names())
def test_convolve_matches_the_candidate_walk(name):
    bundle = load_bundle(name)
    rng = random.Random(5)
    for split in bundle.splits.values():
        for level in (0, 1, 2):
            window = ComplementWindow(split, level=level)
            for vector_dim in (None, 1, 3):
                for _ in range(3):
                    a = _random_functional(window, rng, rng.randint(1, 4))
                    b = _random_functional(window, rng, rng.randint(1, 4), vector_dim)
                    got = window.convolve(a, b)
                    want = oracle_convolve(window, a, b)
                    assert got.keys() == want.keys(), (split, level, a, b)
                    for cm, v in want.items():
                        assert np.array_equal(got[cm], v), (split, level, cm)


@pytest.mark.parametrize("name", catalog_names())
def test_coproduct_coeff_matches_the_closed_law_on_every_window_pair(name):
    bundle = load_bundle(name)
    eng = get_engine(bundle.algebra)
    for split in bundle.splits.values():
        window = ComplementWindow(split)
        glob = {cm: window.global_mono(cm) for cm in window.c_monomials}
        for cm1 in window.c_monomials:
            for cm2 in window.c_monomials:
                if window.in_window(tuple(x + y for x, y in zip(cm1, cm2))):
                    got = eng.coproduct_coeff(glob[cm1], glob[cm2])
                    assert got == _closed_coproduct_coeff(split, cm1, cm2), (split, cm1, cm2)


def test_truncated_windows_expand_no_coproduct():
    bundle = parse_definition_text(CATALOG["abelian22-p5"])
    alg = bundle.algebra
    split = bundle.splits["zero"]
    (rep,) = [rep for rep in bundle.representations.values() if rep.split is split]
    lam = socle_level(split, 2)
    assert list(lam) == [(124, 124, 1, 1)]
    assert level_raising_check(split, rep, level=1, seed=0, samples=1) == (True, "")
    for level in (0, 1, 2, None):
        assert get_engine(alg, level)._coprod_cache == {}
