import tracemalloc
from collections import Counter

import numpy as np
import pytest

from superpbw import (
    ComplementWindow,
    UElement,
    antipode,
    catalog_names,
    coproduct,
    counit,
    get_engine,
    load_bundle,
    monomials_of_degree_at_most,
    normal_order_split,
    parse_definition_text,
    primitive_space,
    restricted_monomials,
)
from superpbw.catalog import CATALOG
from superpbw.pbw import (
    PBWEngine,
    TensorSquare,
    antipode_chain_witness,
    multiplicativity_witness,
    product_relations_witness,
)

from ladder import B2, B2S, BX, ODD3_P3, SL2_HLINE_P3, SL2S_P3, TOR, osp12


def _gen(alg, name):
    return UElement.generator(alg, alg.index_of(name))


def test_engine_is_cached_per_algebra():
    alg = load_bundle("sl2-p3").algebra
    assert get_engine(alg) is get_engine(alg)
    assert get_engine(alg, level=None) is not get_engine(alg)
    assert get_engine(alg, level=1) is not get_engine(alg)
    assert get_engine(alg, level=1) is not get_engine(alg, level=None)
    assert get_engine(alg, priority=range(alg.dim)) is get_engine(alg)
    unrestricted = get_engine(alg, level=None)
    assert get_engine(alg, level=None, priority=(0, 1, 2)) is unrestricted
    assert get_engine(alg, level=1, priority=(0, 1, 2)) is get_engine(alg, 1)
    assert get_engine(alg, priority=(2, 1, 0)) is not get_engine(alg)


@pytest.mark.parametrize(
    "exps, message",
    [
        ((0, 0, 0), "exponent tuple has wrong length"),
        ((-1, 0, 0, 0), "negative exponent"),
        ((0, 0, 2, 0), "odd exponents are at most 1"),
        ((3, 0, 0, 0), "even exponents are below 3"),
    ],
)
def test_monomial_refuses_a_tuple_outside_the_basis(exps, message):
    # gl11-p3: b_0, b_1 even and b_2, b_3 odd, over p = 3
    alg = load_bundle("gl11-p3").algebra
    with pytest.raises(ValueError, match=message):
        UElement.monomial(alg, exps)


def test_unrestricted_monomial_takes_an_even_exponent_of_p():
    alg = load_bundle("gl11-p3").algebra
    assert UElement.monomial(alg, (3, 0, 0, 0), level=None).terms == {(3, 0, 0, 0): 1}


def test_level_monomials_take_even_exponents_below_p_to_the_level_plus_one():
    alg = load_bundle("gl11-p3").algebra
    assert UElement.monomial(alg, (8, 3, 1, 0), level=1).terms == {(8, 3, 1, 0): 1}
    with pytest.raises(ValueError, match="even exponents are below 9"):
        UElement.monomial(alg, (9, 0, 0, 0), level=1)
    with pytest.raises(ValueError, match="odd exponents are at most 1"):
        UElement.monomial(alg, (0, 0, 2, 0), level=None)


def test_engine_refuses_a_priority_that_is_no_permutation():
    alg = load_bundle("sl2-p3").algebra
    with pytest.raises(ValueError, match="priority must be a permutation"):
        PBWEngine(alg, priority=(0, 0, 1))


def test_restricted_monomial_counts():
    for name, want in [("sl2-p3", 27), ("heis-p3", 12), ("gl11-p3", 36), ("sl2-p5", 125)]:
        alg = load_bundle(name).algebra
        assert len(restricted_monomials(alg)) == want


def test_monomials_of_degree_at_most():
    alg = load_bundle("heis-p3").algebra  # one even, two odd letters
    monos = monomials_of_degree_at_most(alg, 4)
    assert all(sum(m) <= 4 for m in monos)
    assert len(monos) == len(set(monos))
    # even exponent up to 4, odd exponents 0/1, total degree capped
    assert len(monos) == sum(1 for k in range(5) for a in (0, 1) for b in (0, 1) if k + a + b <= 4)


# ------------------------------------------------------------------
# straightening oracles
# ------------------------------------------------------------------


def test_sl2_straightening():
    alg = load_bundle("sl2-p3").algebra
    h, e, f = _gen(alg, "h"), _gen(alg, "e"), _gen(alg, "f")
    assert (e * f).terms == {(0, 1, 1): 1}
    # f e = e f - h, hand straightened
    assert (f * e).terms == {(0, 1, 1): 1, (1, 0, 0): 2}
    assert (f * h).terms == {(1, 0, 1): 1, (0, 0, 1): 2}  # f h = h f + 2f


def test_restricted_power_rule():
    alg = load_bundle("sl2-p3").algebra
    h, e = _gen(alg, "h"), _gen(alg, "e")
    h2 = UElement.monomial(alg, (2, 0, 0))
    assert (h2 * h).terms == {(1, 0, 0): 1}  # h^[3] = h
    e2 = UElement.monomial(alg, (0, 2, 0))
    assert (e2 * e).terms == {}  # e^[3] = 0


def test_level_power_rule():
    # at level r, y^(p^(r+1)) = (y^[p])^(p^r): h^9 = (h^[3])^3 = h^3 and
    # e^9 = 0 on sl2-p3; on b2s-p3, where f^[3] = f and [h, f] = h + f,
    # f^9 = f^3 at level 1 and f^27 = f^9 at level 2, while U(g) keeps f^9
    alg = load_bundle("sl2-p3").algebra
    h, e = (UElement.generator(alg, g, level=1) for g in (0, 1))
    assert (UElement.monomial(alg, (8, 0, 0), level=1) * h).terms == {(3, 0, 0): 1}
    assert (UElement.monomial(alg, (0, 8, 0), level=1) * e).terms == {}
    b2s = parse_definition_text(B2S.format(p=3)).algebra
    for level, top, want in ((1, 8, 3), (2, 26, 9)):
        f = UElement.generator(b2s, 1, level=level)
        assert (UElement.monomial(b2s, (0, top), level=level) * f).terms == {(0, want): 1}
    f = UElement.generator(b2s, 1, level=None)
    assert (UElement.monomial(b2s, (0, 8), level=None) * f).terms == {(0, 9): 1}


def test_odd_squares():
    cl = load_bundle("clifford-p3").algebra
    eps = _gen(cl, "eps")
    assert (eps * eps).terms == {(1, 0): 2}  # eps^2 = (1/2)[eps, eps] = 2z mod 3
    he = load_bundle("heis-p3").algebra
    e1, e2 = _gen(he, "e1"), _gen(he, "e2")
    assert (e1 * e1).terms == {}
    assert (e1 * e2 + e2 * e1).terms == {(1, 0, 0): 1}  # {e1, e2} = z


def test_unrestricted_products_do_not_depend_on_history():
    # degree 30 is above p^3 = 27 on a fresh algebra, and building a level-2
    # window over the same algebra changes nothing the engine answers
    bundle = parse_definition_text(CATALOG["abelian1-p3"])
    alg = bundle.algebra
    x = UElement.generator(alg, 0, level=None)
    big = UElement.monomial(alg, (30,), level=None)
    before = (big * x).terms
    assert before == {(31,): 1}
    assert len(ComplementWindow(bundle.splits["zero"], level=2).c_monomials) == 27
    assert (big * x).terms == before
    assert (UElement.monomial(alg, (30,), level=None) * x).terms == before


def test_uelement_arithmetic():
    alg = load_bundle("sl2-p3").algebra
    h, e = _gen(alg, "h"), _gen(alg, "e")
    u = 2 * h + e
    assert (u - u).terms == {}
    assert u.parity() == 0
    assert (u * UElement.one(alg)).terms == u.terms
    assert (UElement.zero(alg) * u).terms == {}
    assert u.degree() == 1
    x = _gen(load_bundle("heis-p3").algebra, "e1")
    assert x.parity() == 1


# ------------------------------------------------------------------
# Hopf structure
# ------------------------------------------------------------------


def test_coproduct_of_square():
    alg = load_bundle("sl2-p3").algebra
    hh = UElement.monomial(alg, (2, 0, 0))
    one, h, h2 = (0, 0, 0), (1, 0, 0), (2, 0, 0)
    # h^2 tensor 1 + 2 h tensor h + 1 tensor h^2
    assert coproduct(hh).terms == {(h2, one): 1, (h, h): 2, (one, h2): 1}


def _catalog_or_ladder(name):
    if name == "osp12-p3":
        return parse_definition_text(osp12(3))
    return load_bundle(name)


@pytest.mark.parametrize("name", catalog_names() + ["osp12-p3"])
def test_coproduct_is_multiplicative(name):
    # sampled pairs of monomials, and the chain certificate that proves the
    # law for all of them
    alg = _catalog_or_ladder(name).algebra
    rng = np.random.default_rng(11)
    monos = restricted_monomials(alg)
    for _ in range(15):
        m1 = monos[int(rng.integers(len(monos)))]
        m2 = monos[int(rng.integers(len(monos)))]
        u, v = UElement.monomial(alg, m1), UElement.monomial(alg, m2)
        assert coproduct(u) * coproduct(v) == coproduct(u * v)
    assert multiplicativity_witness(alg) == ""


LADDER = {
    "osp12-p3": osp12(3),
    "osp12-p5": osp12(5),
    "sl2h-p3": SL2_HLINE_P3,
    "odd3-p3": ODD3_P3,
    "sl2s-p3": SL2S_P3,
    **{
        f"{name}-p{p}": text.format(p=p)
        for name, text in (("tor", TOR), ("b2", B2), ("bx", BX), ("b2s", B2S))
        for p in (3, 5)
    },
}


@pytest.mark.parametrize("name", list(LADDER))
def test_engine_certificates_pass_past_the_catalog(name):
    alg = parse_definition_text(LADDER[name]).algebra
    assert product_relations_witness(get_engine(alg)) == ""
    assert multiplicativity_witness(alg) == ""
    assert antipode_chain_witness(alg) == ""


def test_coproduct_chain_on_sl2_p5_makes_one_tensor_product_per_monomial(monkeypatch):
    # one product coproduct(m') coproduct(b_g) for each of the 124 monomials
    # m = m' b_g other than 1, every leg product an append or a product by
    # 1, so no letter product is read: 9,640 mul_mono calls.  A product for
    # every (monomial, generator) pair made 375, with 767 mul_letter and
    # 40,875 mul_mono calls
    calls = Counter()
    for cls, name in ((TensorSquare, "__mul__"), (PBWEngine, "mul_letter"), (PBWEngine, "mul_mono")):

        def counted(*args, _clean=getattr(cls, name), _name=name):
            calls[_name] += 1
            return _clean(*args)

        monkeypatch.setattr(cls, name, counted)
    alg = parse_definition_text(CATALOG["sl2-p5"]).algebra
    assert multiplicativity_witness(alg) == ""
    assert calls["__mul__"] == 124
    assert calls["mul_letter"] == 0
    assert calls["mul_mono"] <= 12000, calls


def test_tensor_product_refuses_another_quotient_or_algebra():
    sl2 = load_bundle("sl2-p3").algebra
    x = coproduct(UElement.monomial(sl2, (2, 0, 0)))
    others = (
        coproduct(UElement.monomial(sl2, (2, 0, 0), level=None)),
        coproduct(UElement.monomial(sl2, (2, 0, 0), level=1)),
        coproduct(UElement.monomial(load_bundle("gl11-p3").algebra, (1, 0, 0, 0))),
    )
    for y in others:
        for a, b in ((x, y), (y, x)):
            with pytest.raises(ValueError, match="different algebras"):
                a * b


ABELIAN4_P11 = "algebra abelian4-p11\nprime 11\n" + "".join(
    f"generator e{i} even\n" for i in range(1, 5)
) + "split zero :\n"


def test_tensor_product_on_a_large_basis_stays_small():
    # 11^4 = 14,641 restricted monomials: a dense table over all pairs of
    # them would hold 2.1e8 slots; the product memoizes only the leg
    # products its 81 x 81 term pairs ask for (about 2.3 MiB traced)
    alg = parse_definition_text(ABELIAN4_P11).algebra
    assert len(restricted_monomials(alg)) == 14641
    u = UElement.monomial(alg, (2, 2, 2, 2))
    x, want = coproduct(u), coproduct(u * u)
    tracemalloc.start()
    try:
        got = x * x
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 6 * 2**20, peak


def test_counit():
    alg = load_bundle("sl2-p3").algebra
    assert counit(UElement.one(alg)) == 1
    assert counit(_gen(alg, "h")) == 0
    u = UElement.one(alg) + _gen(alg, "e")
    v = UElement.one(alg).scale(2) + _gen(alg, "f")
    assert counit(u * v) == counit(u) * counit(v) % 3


def test_antipode_values():
    alg = load_bundle("sl2-p3").algebra
    e, f = _gen(alg, "e"), _gen(alg, "f")
    assert antipode(e).terms == {(0, 1, 0): 2}
    assert antipode(e * f).terms == (f * e).terms  # S(ef) = S(f)S(e) = fe
    # S is an involution on an enveloping algebra
    rng = np.random.default_rng(5)
    monos = restricted_monomials(load_bundle("gl11-p3").algebra)
    galg = load_bundle("gl11-p3").algebra
    for _ in range(10):
        m = monos[int(rng.integers(len(monos)))]
        u = UElement.monomial(galg, m)
        assert antipode(antipode(u)) == u


def test_antipode_convolution_identity():
    alg = load_bundle("heis-p3").algebra
    for m in restricted_monomials(alg):
        u = UElement.monomial(alg, m)
        acc = UElement.zero(alg)
        for (a, b), c in coproduct(u).terms.items():
            acc = acc + (antipode(UElement.monomial(alg, a)) * UElement.monomial(alg, b)).scale(c)
        want = UElement.one(alg).scale(counit(u))
        assert acc == want


# ------------------------------------------------------------------
# splitting
# ------------------------------------------------------------------


def _rebuild(alg, split, parts, side):
    window = ComplementWindow(split)
    total = UElement.zero(alg)
    for c_exps, inner in parts.items():
        c_el = window.c_element(c_exps)
        for h_exps, coeff in inner.items():
            hm = [0] * alg.dim
            for g, v in zip(split.h_indices, h_exps):
                hm[g] = v
            h_el = UElement.monomial(alg, tuple(hm))
            prod = h_el * c_el if side == "left" else c_el * h_el
            total = total + prod.scale(coeff)
    return total


@pytest.mark.parametrize("side", ["left", "right"])
def test_normal_order_split_roundtrip(side):
    # sl2's borel order is the ambient one; abelian22's half split puts e2
    # before e1, and osp(1|2)'s even split puts h e f before x y
    cases = [
        (load_bundle("sl2-p3"), "borel"),
        (load_bundle("abelian22-p3"), "half"),
        (parse_definition_text(osp12(3)), "even"),
    ]
    for bundle, split_name in cases:
        split = bundle.splits[split_name]
        alg = bundle.algebra
        rng = np.random.default_rng(17)
        monos = restricted_monomials(alg)
        for _ in range(10):
            u = UElement.zero(alg)
            for m in monos:
                c = int(rng.integers(0, alg.p))
                if c:
                    u = u + UElement.monomial(alg, m).scale(c)
            parts = normal_order_split(u, split, side=side)
            assert _rebuild(alg, split, parts, side) == u, (alg.name, split_name)


def test_normal_order_split_rejects_bad_side():
    bundle = load_bundle("sl2-p3")
    u = UElement.one(bundle.algebra)
    with pytest.raises(ValueError):
        normal_order_split(u, bundle.splits["borel"], side="up")


# ------------------------------------------------------------------
# primitives
# ------------------------------------------------------------------


def test_restricted_primitives_are_the_generators():
    for name in ("sl2-p3", "heis-p3", "gl11-p3"):
        alg = load_bundle(name).algebra
        prims, labels = primitive_space(alg)
        assert labels == restricted_monomials(alg)
        units = [tuple(1 if k == i else 0 for k in range(alg.dim)) for i in range(alg.dim)]
        assert sorted(prims) == sorted(units)


@pytest.mark.parametrize("text", [CATALOG["sl2-p5"], osp12(7)], ids=["sl2-p5", "osp12-p7"])
def test_primitive_window_peak_is_under_1_mib(text):
    # with the coproduct memo warm, the window is read monomial by monomial:
    # no equation or matrix is built, only the window's labels and the list
    # of its primitive monomials (osp(1|2)-p7: 1,372 monomials)
    alg = parse_definition_text(text).algebra
    eng = get_engine(alg)
    for m in restricted_monomials(alg):
        eng.coproduct_mono(m)
    tracemalloc.start()
    try:
        prims, _ = primitive_space(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(prims) == alg.dim
    assert peak < 2**20, peak


def test_truncated_primitives_grow_with_window():
    alg = load_bundle("abelian1-p3").algebra
    # binom(3, k) and binom(9, k) vanish mod 3 away from the ends, so each
    # window [0, 3^(r+1)] contributes exactly the p-th power ladder
    assert primitive_space(alg, degree_bound=2)[0] == [(1,)]
    assert primitive_space(alg, degree_bound=3)[0] == [(1,), (3,)]
    prims, labels = primitive_space(alg, degree_bound=9)
    assert prims == [(1,), (3,), (9,)]
    assert labels == [(e,) for e in range(10)]
