"""One convolution per row: the coordinate-algebra checks against their
per-pair forms.

mu_product_check convolves each dual monomial with the sum of all of them,
the kill leg of socle_character_check convolves the sum of the positive
dual monomials with the socle, and the Berezin sections convolve against
identity-vector tags {cm_j: e_j} wherever they need a matrix.  The loops
they replaced, one convolution per pair or per monomial, are kept here as
oracles.  Both must give the same (ok, witness) or the same matrix on every
catalog split, on osp(1|2) at p = 3 and at p = 3 on the ladder inputs
SL2S_P3, TOR, B2, BX and B2S: clean, and under each mutation below.  The
work gates count the convolve calls and support pairs of a warm run.
"""

import numpy as np
import pytest

from ladder import B2, B2S, BX, SL2S_P3, TOR, osp12
from superpbw import catalog_names, duality, parse_definition_text
from superpbw.algebra import StructureError
from superpbw.berezin import BerezinSections, berezinian_coinduced_check
from superpbw.catalog import CATALOG
from superpbw.duality import mu_product_check, socle_character_check, socle_level
from superpbw.linalg import basis_map
from superpbw.modules import ComplementWindow, CoordinateAlgebra, trivial_rep
from superpbw.pbw import _add_scaled

from test_check_controls import (
    _bump_closed_coproduct,
    _bump_even_binomial,
    _negate_divergence,
    _unsigned_coproduct_coeff,
)

LEVELS = (None, 0, 1)


def oracle_mu_product_check(split):
    """mu_product_check with one convolution per pair of dual monomials."""
    alg = CoordinateAlgebra(split)
    p = split.algebra.p
    for cm1 in alg.c_monomials:
        for cm2 in alg.c_monomials:
            got = alg.mul({cm1: 1}, {cm2: 1})
            cm = tuple(x + y for x, y in zip(cm1, cm2))
            want = {}
            if alg.in_window(cm):
                coeff = duality._closed_coproduct_coeff(split, cm1, cm2)
                if alg.c_mono_parity(cm1) and alg.c_mono_parity(cm2):
                    coeff = -coeff % p
                if coeff:
                    want[cm] = coeff
            if got != want:
                return False, f"product law fails at {cm1} * {cm2}"
    for i in range(split.n_even):
        if alg.power(alg.eta(i), p):
            return False, f"even dual {i} has nonzero p-th power"
    for s in range(split.m_odd):
        if alg.power(alg.zeta(s), 2):
            return False, f"odd dual {s} has nonzero square"
    return True, f"{len(alg.c_monomials) ** 2} products checked"


def oracle_socle_character_check(split, level=None):
    """socle_character_check with one convolution per positive monomial."""
    alg = CoordinateAlgebra(split, level=level)
    lam = socle_level(split, level)
    top = alg.top
    if set(lam) != {top}:
        return False, f"socle support is {sorted(lam)} instead of the top monomial"
    for cm in alg.c_monomials:
        if any(cm) and alg.mul({cm: 1}, lam):
            return False, f"dual monomial {cm} does not kill the socle"
    p = split.algebra.p
    chi = split.supertrace_character()
    triv = trivial_rep(split)
    lam_vec = {top: np.array([lam[top]], dtype=np.int64)}
    for h in split.h_indices:
        x = {alg.engine._unit(h): 1}
        for cm in alg.c_monomials:
            got = triv.pair_eval(alg.times(cm, x, "left"), lam_vec)[0]
            if (got - (chi.value(h) * lam[top] if cm == top else 0)) % p:
                return False, f"subalgebra generator b_{h} scales the socle wrongly"
    return True, f"socle coefficient {lam[top]} at {top}"


def oracle_expansion_witness(sections, x):
    """The witness of BerezinSections.expansion_check, or "", with one
    convolution per (coordinate image, window monomial)."""
    a = sections.coords
    p = sections.split.algebra.p
    d = a.module().generator_matrix(x)
    etas, zetas = sections.coordinate_images(x)
    for j, cm in enumerate(a.c_monomials):
        want = a.from_vector(d[:, j])
        got: dict = {}
        for i, f in enumerate(etas):
            _add_scaled(got, a.mul(f, a.partial_even(i, {cm: 1})), 1, p)
        for s, g in enumerate(zetas):
            _add_scaled(got, a.mul(g, a.partial_odd(s, {cm: 1})), 1, p)
        if got != want:
            return f"derivation of b_{x} is not spanned by the partials at {cm}"
    return ""


def oracle_times_matrix(coords, f):
    """Matrix of delta -> f * delta, one convolution per window monomial."""
    return basis_map(coords.c_monomials, lambda cm: coords.mul(f, {cm: 1})).dense()


def oracle_lie_matrix(sections, x):
    """The generator matrix of d_x plus a -> (-1)^(|x||a|) a * Div(d_x),
    the divergence on the right, one convolution per window monomial."""
    a = sections.coords
    split = sections.split
    div = sections.divergence(x)
    times_div = basis_map(a.c_monomials, lambda cm: a.mul({cm: 1}, div)).dense()
    if split.algebra.parities[x]:
        times_div *= [-1 if a.c_mono_parity(cm) else 1 for cm in a.c_monomials]
    return (a.module().generator_matrix(x) + times_div) % split.algebra.p


def _expansion_witness(sections, x):
    try:
        sections.expansion_check(x)
    except StructureError as err:
        return str(err)
    return ""


def _drop_odd_pair_sign(monkeypatch):
    """convolve with the Koszul sign of two odd legs dropped: the loop reads
    the window's c_mono_parity, which reads every monomial as even for the
    length of one call."""
    clean = ComplementWindow.convolve

    def unsigned(window, a, b):
        window.c_mono_parity = lambda c_exps: 0
        try:
            return clean(window, a, b)
        finally:
            del window.c_mono_parity

    monkeypatch.setattr(ComplementWindow, "convolve", unsigned)
    monkeypatch.setattr(CoordinateAlgebra, "mul", unsigned)


MUTATIONS = {
    "clean": lambda monkeypatch: None,
    "bumped-closed-law": _bump_closed_coproduct,
    "unsigned-coproduct-coeff": _unsigned_coproduct_coeff,
    "bumped-even-binomial": _bump_even_binomial,
    "negated-divergence": _negate_divergence,
    "convolve-without-odd-sign": _drop_odd_pair_sign,
}

TEXTS = {name: CATALOG[name] for name in catalog_names()}
TEXTS["osp12-p3"] = osp12(3)
LADDER = {"sl2s-p3": SL2S_P3, "tor-p3": TOR, "b2-p3": B2, "bx-p3": BX, "b2s-p3": B2S}
TEXTS.update((name, text.format(p=3)) for name, text in LADDER.items())


@pytest.mark.parametrize("name", list(TEXTS))
@pytest.mark.parametrize("mutation", list(MUTATIONS))
def test_row_convolutions_match_the_per_pair_oracles(monkeypatch, mutation, name):
    MUTATIONS[mutation](monkeypatch)
    bundle = parse_definition_text(TEXTS[name])
    for split in bundle.splits.values():
        assert mu_product_check(split) == oracle_mu_product_check(split), split
        for level in LEVELS:
            got = socle_character_check(split, level)
            assert got == oracle_socle_character_check(split, level), (split, level)
        sections = BerezinSections(split)
        coords = sections.coords
        factors = [coords.eta(i) for i in range(split.n_even)]
        factors += [coords.zeta(s) for s in range(split.m_odd)]
        expanded = True
        for x in range(bundle.algebra.dim):
            got = _expansion_witness(sections, x)
            assert got == oracle_expansion_witness(sections, x), (split, x)
            expanded = expanded and not got
            factors.append(sections.divergence(x))
        for f in factors:
            assert np.array_equal(sections.times_matrix(f), oracle_times_matrix(coords, f)), f
        # lie_matrix puts the divergence on the left: that is the signed
        # product on the right when the algebra is supercommutative.  A law
        # that breaks this (the unsigned coefficient, on osp12-p3's split
        # even) also breaks the expansion leg, which omega-iso runs first.
        if expanded:
            for x in range(bundle.algebra.dim):
                got = sections.lie_matrix(x)
                assert np.array_equal(got, oracle_lie_matrix(sections, x)), (split, x)


def test_each_mutation_is_seen_by_a_check(monkeypatch):
    # the oracle comparison above is not vacuous: each mutation fails one of
    # the three checks on the catalog entries named
    seen = {}
    for mutation, names in [
        ("bumped-closed-law", ["sl2-p3"]),
        ("unsigned-coproduct-coeff", ["abelian22-p3"]),
        ("bumped-even-binomial", ["abelian1-p3"]),
        ("negated-divergence", ["sl2-p3"]),
        ("convolve-without-odd-sign", ["abelian22-p3", "heis-p3"]),
    ]:
        with monkeypatch.context() as m:
            MUTATIONS[mutation](m)
            for name in names:
                for split in parse_definition_text(TEXTS[name]).splits.values():
                    results = [mu_product_check(split)]
                    results += [socle_character_check(split, r) for r in LEVELS]
                    results.append(berezinian_coinduced_check(split))
                    seen.setdefault(mutation, set()).update(w for ok, w in results if not ok)
    assert seen["convolve-without-odd-sign"] >= {
        "product law fails at (0, 0, 1) * (0, 1, 0)",
        "product law fails at (0, 1) * (1, 0)",
        "product law fails at (0, 0, 0, 1) * (0, 0, 1, 0)",
    }
    assert all(seen.values()), seen


# ------------------------------------------------------------------
# work gates: a warm run on fresh parses
# ------------------------------------------------------------------


def _counting(monkeypatch):
    """Install a convolve that adds one call and len(a) * len(b) support
    pairs to the returned [calls, pairs] per call."""
    count = [0, 0]
    clean = ComplementWindow.convolve

    def counted(window, a, b):
        count[0] += 1
        count[1] += len(a) * len(b)
        return clean(window, a, b)

    monkeypatch.setattr(ComplementWindow, "convolve", counted)
    monkeypatch.setattr(CoordinateAlgebra, "mul", counted)
    return count


def _work(count, fn, *args):
    """(calls, pairs) that fn(*args) costs, and its result."""
    before = list(count)
    out = fn(*args)
    return (count[0] - before[0], count[1] - before[1]), out


def _oracle_omega_iso(split):
    """The convolutions of a warm berezinian_coinduced_check, one per pair:
    the expansion of each generator and the linearity leg's products."""
    sections = BerezinSections(split)
    coords = sections.coords
    witnesses = [oracle_expansion_witness(sections, x) for x in range(split.algebra.dim)]
    duals = [coords.eta(i) for i in range(split.n_even)]
    duals += [coords.zeta(s) for s in range(split.m_odd)]
    return witnesses, [oracle_times_matrix(coords, a0) for a0 in duals]


def _warm_splits(monkeypatch, name):
    """The splits of a fresh parse after a cold run of the three checks,
    which fills the socle and Lie matrix memos, and the convolve counter."""
    count = _counting(monkeypatch)
    splits = list(parse_definition_text(CATALOG[name]).splits.values())
    for split in splits:
        assert mu_product_check(split)[0]
        assert all(socle_character_check(split, r)[0] for r in LEVELS)
        assert berezinian_coinduced_check(split)[0]
    assert max(ComplementWindow(split).size for split in splits) > 2
    return count, splits


GATED = ["sl2-p3", "abelian22-p3"]


@pytest.mark.parametrize("name", GATED)
def test_mu_product_convolves_once_per_row(monkeypatch, name):
    # N rows plus the power legs' p and 2 factors; the pairs stay N^2 plus
    # the power legs'
    count, splits = _warm_splits(monkeypatch, name)
    for split in splits:
        p, n, m = split.algebra.p, split.n_even, split.m_odd
        (calls, pairs), ok = _work(count, mu_product_check, split)
        assert ok[0] and calls == ComplementWindow(split).size + p * n + 2 * m, (split, calls)
        assert pairs == _work(count, oracle_mu_product_check, split)[0][1], split


@pytest.mark.parametrize("name", GATED)
def test_kill_leg_is_one_convolution(monkeypatch, name):
    count, splits = _warm_splits(monkeypatch, name)
    for split in splits:
        for level in LEVELS:
            (calls, pairs), ok = _work(count, socle_character_check, split, level)
            assert ok[0] and calls == 1, (split, level, calls)
            assert pairs == _work(count, oracle_socle_character_check, split, level)[0][1]


@pytest.mark.parametrize("name", GATED)
def test_omega_iso_convolves_once_per_partial(monkeypatch, name):
    # warm: one convolution per (generator, partial) in the expansion leg and
    # one per degree-one dual in the linearity leg
    count, splits = _warm_splits(monkeypatch, name)
    for split in splits:
        n, m = split.n_even, split.m_odd
        (calls, pairs), ok = _work(count, berezinian_coinduced_check, split)
        assert ok[0] and calls <= 2 * (n + m) * split.algebra.dim, (split, calls)
        assert pairs == _work(count, _oracle_omega_iso, split)[0][1], split
