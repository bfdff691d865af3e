"""Differential tests of the coordinate algebra's partials against the
polynomial chart.

The coordinate algebra is stored in the dual basis delta_cm of complement
monomials, where d/d(eta_i) and d/d(zeta_s) are signed shifts.  The chart
oracle below is a second route: it writes an element in products of the
degree-one duals, whose coefficient at its own support (``chart_diag``) is
computed from the convolution itself, differentiates monomials in the eta
and zeta there, and converts back.  Both must give the same partials,
divergences and Lie matrices on every catalog split, on osp(1|2) at p = 3,
and on ODD3_P3, whose split at the line of h has three odd complement
letters.  On the same splits, the coordinate algebra's operations must
return canonical dicts (values in [1, p), no zero term), which is what
lets its results be compared with ==.
"""

import random

import pytest

from superpbw import catalog_names, load_bundle, parse_definition_text, run_checks
from superpbw.berezin import BerezinSections
from superpbw.linalg import basis_map
from superpbw.modules import CoordinateAlgebra
from superpbw.pbw import _add_scaled

from ladder import ODD3_P3, osp12


def chart_diag(coords, cm) -> int:
    """Coefficient of the product of degree-one duals with the exponents of
    cm at cm, its only support."""
    split = coords.split
    factors = []
    for i in range(split.n_even):
        factors.extend([coords.eta(i)] * cm[i])
    for s in range(split.m_odd):
        factors.extend([coords.zeta(s)] * cm[split.n_even + s])
    prod = coords.mul_many(factors)
    assert set(prod) == {cm}, cm
    return prod[cm]


def to_poly(coords, a):
    p = coords.split.algebra.p
    return {cm: c * pow(chart_diag(coords, cm), -1, p) % p for cm, c in a.items()}


def from_poly(coords, a):
    p = coords.split.algebra.p
    return {cm: c * chart_diag(coords, cm) % p for cm, c in a.items()}


def chart_partial_even(coords, i, a):
    """d/d(eta_i) on monomials in the eta: scales by the exponent."""
    p = coords.split.algebra.p
    out = {}
    for cm, c in to_poly(coords, a).items():
        if cm[i] % p:
            _add_scaled(out, {cm[:i] + (cm[i] - 1,) + cm[i + 1 :]: cm[i]}, c, p)
    return from_poly(coords, out)


def chart_partial_odd(coords, s, a):
    """Left derivative by zeta_s on monomials in the zeta: the sign counts
    the earlier odd factors."""
    p = coords.split.algebra.p
    n = coords.split.n_even
    out = {}
    for cm, c in to_poly(coords, a).items():
        if cm[n + s]:
            sign = -1 if sum(cm[n : n + s]) % 2 else 1
            _add_scaled(out, {cm[: n + s] + (0,) + cm[n + s + 1 :]: sign}, c, p)
    return from_poly(coords, out)


def chart_divergence(sections, x):
    a = sections.coords
    p = sections.split.algebra.p
    etas, zetas = sections.coordinate_images(x)
    out: dict = {}
    for i, f in enumerate(etas):
        _add_scaled(out, chart_partial_even(a, i, f), 1, p)
    sign = 1 if sections.split.algebra.parities[x] else -1
    for s, g in enumerate(zetas):
        _add_scaled(out, chart_partial_odd(a, s, g), sign, p)
    return out


def chart_lie_matrix(sections, x):
    a = sections.coords
    div = chart_divergence(sections, x)
    times_div = basis_map(a.c_monomials, lambda cm: a.mul({cm: 1}, div)).dense()
    if sections.split.algebra.parities[x]:
        times_div *= [-1 if a.c_mono_parity(cm) else 1 for cm in a.c_monomials]
    return (a.module().generator_matrix(x) + times_div) % sections.split.algebra.p


def _splits():
    out = []
    for name in catalog_names():
        out.extend((name, s) for s in sorted(load_bundle(name).splits))
    out.extend(("osp12-p3", s) for s in ("borel", "even"))
    out.extend(("odd3-p3", s) for s in ("hline", "zero"))
    return out


def _split(name, split_name):
    if name == "osp12-p3":
        return parse_definition_text(osp12(3)).splits[split_name]
    if name == "odd3-p3":
        return parse_definition_text(ODD3_P3).splits[split_name]
    return load_bundle(name).splits[split_name]


@pytest.mark.parametrize("name, split_name", _splits())
def test_shift_partials_match_the_chart(name, split_name):
    coords = CoordinateAlgebra(_split(name, split_name))
    for cm in coords.c_monomials:
        for i in range(coords.split.n_even):
            want = chart_partial_even(coords, i, {cm: 1})
            assert coords.partial_even(i, {cm: 1}) == want, (cm, i)
        for s in range(coords.split.m_odd):
            want = chart_partial_odd(coords, s, {cm: 1})
            assert coords.partial_odd(s, {cm: 1}) == want, (cm, s)


@pytest.mark.parametrize("name, split_name", _splits())
def test_divergence_and_lie_matrix_match_the_chart(name, split_name):
    split = _split(name, split_name)
    sections = BerezinSections(split)
    for x in range(split.algebra.dim):
        assert sections.divergence(x) == chart_divergence(sections, x), x
        assert (sections.lie_matrix(x) == chart_lie_matrix(sections, x)).all(), x


def _assert_canonical(d, p, where):
    """Values in [1, p) and no zero term: then equal elements are equal dicts."""
    bad = {k: v for k, v in d.items() if not 0 < v < p}
    assert not bad, (where, bad)


@pytest.mark.parametrize("name, split_name", _splits())
def test_coordinate_operations_return_canonical_dicts(name, split_name):
    split = _split(name, split_name)
    p = split.algebra.p
    sections = BerezinSections(split)
    coords = sections.coords
    window = coords.c_monomials
    rng = random.Random(f"{name}/{split_name}")

    def element():
        # several terms, so products and sums can cancel
        return {cm: rng.randrange(1, p) for cm in rng.sample(window, min(3, len(window)))}

    for _ in range(20):
        a, b = element(), element()
        _assert_canonical(coords.mul(a, b), p, "convolve")
        for i in range(split.n_even):
            _assert_canonical(coords.partial_even(i, a), p, "partial_even")
        for s in range(split.m_odd):
            _assert_canonical(coords.partial_odd(s, a), p, "partial_odd")
        total = dict(a)
        _add_scaled(total, b, rng.randrange(p), p)
        _assert_canonical(total, p, "_add_scaled")
        _add_scaled(total, dict(total), p - 1, p)
        assert total == {}
        vec = [rng.choice((0, rng.randrange(-p, 2 * p))) for _ in window]
        _assert_canonical(coords.from_vector(vec), p, "from_vector")
    for x in range(split.algebra.dim):
        _assert_canonical(sections.divergence(x), p, "divergence")


def test_three_odd_complement_letters_pass_omega_iso_and_psi():
    reports = run_checks(parse_definition_text(ODD3_P3), only=["omega-iso", "psi"])
    hline = {r.check: r for r in reports if r.split == "hline"}
    assert hline["omega-iso"].status == "pass"
    assert hline["omega-iso"].details == "negative control rejected the unnegated character"
    assert hline["psi"].status == "pass", hline["psi"]
