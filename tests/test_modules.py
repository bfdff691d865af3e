import numpy as np
import pytest

from superpbw import (
    CoinducedModule,
    ComplementWindow,
    CoordinateAlgebra,
    InducedModule,
    Representation,
    UElement,
    load_bundle,
    normal_order_split,
    parse_definition_text,
    rep_from_character,
    trivial_rep,
    twist,
    twisted_dual,
)
from superpbw.catalog import CATALOG
from superpbw.modules import contragredient
from superpbw.pbw import _add_scaled


def _c_monomial(split, c_exps, restricted=True):
    alg = split.algebra
    exps = [0] * alg.dim
    for g, v in zip(split.c_indices, c_exps):
        exps[g] = v
    return UElement.monomial(alg, tuple(exps), restricted=restricted)


def test_catalog_representations_validate():
    for name in ("abelian1-p3", "heis-p3", "sl2-p3", "gl11-p3", "clifford-p3"):
        bundle = load_bundle(name)
        for rname, rep in bundle.representations.items():
            for prop, (ok, msg) in rep.validate().items():
                assert ok, f"{name}/{rname} fails {prop}: {msg}"


def test_bad_representation_is_caught():
    split = load_bundle("sl2-p3").splits["borel"]
    h, e = split.h_indices
    rep = Representation(split, [0], {h: [[0]], e: [[1]]})
    ok, msg = rep.validate()["brackets"]
    assert not ok and "commutator" in msg


def test_h_monomial_matrix_orders_factors():
    bundle = load_bundle("sl2-p3")
    rep = bundle.representations["nat2"]
    h, e, f = bundle.splits["all"].h_indices
    a = rep.h_monomial_matrix((1, 1, 0))
    assert np.array_equal(a, rep.matrices[h] @ rep.matrices[e] % 3)
    assert np.array_equal(rep.h_monomial_matrix((0, 0, 0)), np.eye(2, dtype=np.int64))


def test_character_and_twist_constructions():
    bundle = load_bundle("sl2-p3")
    split = bundle.splits["borel"]
    strad = split.supertrace_character()
    one_dim = rep_from_character(strad, m=1)
    assert one_dim.dim == 1 and one_dim.parities == (1,)
    assert one_dim.is_valid()
    tw = twist(bundle.representations["wt1"], strad, 0)
    assert tw.is_valid()
    h = split.algebra.index_of("h")
    assert tw.matrices[h][0, 0] == (1 + 1) % 3  # weights add under twisting


def test_duals_validate():
    bundle = load_bundle("gl11-p3")
    nat = bundle.representations["nat"]
    assert contragredient(nat).is_valid()
    assert twisted_dual(nat).is_valid()
    assert twisted_dual(nat).dim == nat.dim
    # dualizing flips each weight through the twist by -strad
    assert not np.array_equal(contragredient(nat).matrices[0], nat.matrices[0])


# ------------------------------------------------------------------
# induced and coinduced spaces
# ------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,split_name,rep_name",
    [("heis-p3", "zline", "jordan"), ("sl2-p3", "borel", "wt1"), ("gl11-p3", "sborel", "nat")],
)
def test_generator_matrices_respect_brackets(name, split_name, rep_name):
    bundle = load_bundle(name)
    split = bundle.splits[split_name]
    rep = bundle.representations[rep_name]
    alg = split.algebra
    for mod in (InducedModule(split, rep), CoinducedModule(split, rep)):
        mats = [mod.generator_matrix(g) for g in range(alg.dim)]
        for i in range(alg.dim):
            for j in range(alg.dim):
                sign = -1 if alg.parities[i] * alg.parities[j] else 1
                lhs = (mats[i] @ mats[j] - sign * (mats[j] @ mats[i])) % alg.p
                rhs = np.zeros_like(lhs)
                for k, c in enumerate(alg.bracket_coords(i, j)):
                    if c:
                        rhs = (rhs + c * mats[k]) % alg.p
                assert np.array_equal(lhs, rhs), (i, j)


def test_module_dimensions():
    bundle = load_bundle("sl2-p3")
    split = bundle.splits["borel"]
    ind = InducedModule(split, bundle.representations["wt1"])
    co = CoinducedModule(split, bundle.representations["wt1"])
    assert ind.dim == co.dim == 3  # one even complement letter, exponents < p


def test_coinduced_act_matches_action_matrix():
    # each generator matrix column against the definition (x lam)(w) = lam(w x)
    cases = (("heis-p3", "zline", "jordan"), ("sl2-p3", "borel", "wt1"))
    for name, split_name, rep_name in cases:
        bundle = load_bundle(name)
        split = bundle.splits[split_name]
        alg = split.algebra
        rep = bundle.representations[rep_name]
        co = CoinducedModule(split, rep)
        basis = np.eye(co.dim, dtype=np.int64)
        for g in range(alg.dim):
            x = UElement.generator(alg, g)
            mat = co.generator_matrix(g)
            for j in range(co.dim):
                lam = co.from_vector(basis[j])
                want = [
                    rep.pair_eval(normal_order_split(co.c_element(w) * x, split), lam)
                    for w in co.c_monomials
                ]
                assert np.array_equal(mat[:, j], np.concatenate(want)), (name, g, j)
        vec = np.random.default_rng(2).integers(0, 7, size=co.dim)
        assert np.array_equal(co.to_vector(co.from_vector(vec)), vec % alg.p)


def test_pair_eval_delta_support():
    bundle = load_bundle("heis-p3")
    split = bundle.splits["zline"]
    rep = bundle.representations["triv"]
    window = CoinducedModule(split, rep).c_monomials
    for cm in window:
        lam = {cm: np.array([1], dtype=np.int64)}
        for other in window:
            val = rep.pair_eval(normal_order_split(_c_monomial(split, other), split), lam)
            if other == cm:
                assert val.any()
            else:
                assert not val.any()


def test_smul_is_associative_module_law():
    bundle = load_bundle("heis-p3")
    split = bundle.splits["zline"]
    co = CoinducedModule(split, bundle.representations["jordan"])
    coords = CoordinateAlgebra(split)
    rng = np.random.default_rng(9)
    window = coords.c_monomials
    for _ in range(20):
        a = {window[int(rng.integers(len(window)))]: int(rng.integers(1, 3))}
        b = {window[int(rng.integers(len(window)))]: int(rng.integers(1, 3))}
        lam = co.from_vector(rng.integers(0, 3, size=co.dim))
        left = co.convolve(a, co.convolve(b, lam))
        right = co.convolve(coords.mul(a, b), lam)
        assert np.array_equal(co.to_vector(left), co.to_vector(right))
    # on the trivial line, the window's convolve is mul, with vector and
    # with scalar values, on the restricted and a level window
    for name, split_name in (("heis-p3", "zline"), ("sl2-p3", "borel")):
        split = load_bundle(name).splits[split_name]
        for level in (None, 1):
            coords = CoordinateAlgebra(split, level=level)
            window = coords.c_monomials
            for _ in range(10):
                a, b = (
                    {window[i]: int(rng.integers(1, 3)) for i in rng.integers(len(window), size=3)}
                    for _ in range(2)
                )
                got = coords.convolve(a, {cm: np.array([v], dtype=np.int64) for cm, v in b.items()})
                assert {cm: int(v[0]) for cm, v in got.items()} == coords.mul(a, b)


# ------------------------------------------------------------------
# the coordinate algebra
# ------------------------------------------------------------------


def test_coordinate_algebra_frozen_products():
    ab = CoordinateAlgebra(load_bundle("abelian1-p3").splits["zero"])
    eta = ab.eta(0)
    assert ab.mul(eta, eta) == {(2,): 2}  # delta_1 * delta_1 = 2 delta_2
    assert ab.power(eta, 3) == {}  # eta^p = 0
    he = CoordinateAlgebra(load_bundle("heis-p3").splits["zline"])
    z1, z2 = he.zeta(0), he.zeta(1)
    assert he.mul(z1, z1) == {}
    assert he.mul(z1, z2) == {(1, 1): 2}
    assert he.mul(z2, z1) == {(1, 1): 1}
    total = he.mul(z1, z2)
    _add_scaled(total, he.mul(z2, z1), 1, he.split.algebra.p)
    assert total == {}


def test_coordinate_algebra_unit_and_supercommutativity():
    coords = CoordinateAlgebra(load_bundle("abelian22-p3").splits["zero"])
    rng = np.random.default_rng(21)
    window = coords.c_monomials
    n = coords.split.n_even
    for _ in range(30):
        ma = window[int(rng.integers(len(window)))]
        mb = window[int(rng.integers(len(window)))]
        a, b = {ma: 1}, {mb: 1}
        assert coords.mul(coords.unit(), a) == a
        pa, pb = sum(ma[n:]) % 2, sum(mb[n:]) % 2
        flipped = {}
        _add_scaled(flipped, coords.mul(b, a), -1 if pa and pb else 1, coords.split.algebra.p)
        assert coords.mul(a, b) == flipped


def test_coordinate_algebra_associativity():
    coords = CoordinateAlgebra(load_bundle("abelian22-p3").splits["zero"])
    rng = np.random.default_rng(22)
    window = coords.c_monomials
    for _ in range(15):
        a, b, c = (
            {window[int(rng.integers(len(window)))]: int(rng.integers(1, 3))} for _ in range(3)
        )
        assert coords.mul(coords.mul(a, b), c) == coords.mul(a, coords.mul(b, c))


def test_polynomial_chart_and_derivatives():
    # the duals form a divided-power algebra: eta * eta = 2 delta_2, and
    # d/d(eta) shifts delta_2 to delta_1 without the exponent's factor
    coords = CoordinateAlgebra(load_bundle("abelian1-p3").splits["zero"])
    sq = coords.mul(coords.eta(0), coords.eta(0))
    assert sq == {(2,): 2}
    assert coords.partial_even(0, {(2,): 1}) == {(1,): 1}
    assert coords.partial_even(0, sq) == {(1,): 2}
    assert coords.partial_even(0, coords.unit()) == {}
    he = CoordinateAlgebra(load_bundle("heis-p3").splits["zline"])
    pair = he.mul(he.zeta(0), he.zeta(1))
    assert pair == {(1, 1): 2}  # zeta_0 zeta_1 = -delta_(1, 1)
    assert he.partial_odd(0, {(1, 1): 1}) == {(0, 1): 2}  # sign from the later zeta_1
    assert he.partial_odd(1, {(1, 1): 1}) == {(1, 0): 1}
    assert he.partial_odd(0, pair) == {(0, 1): 1}  # left derivatives of zeta_0 zeta_1
    assert he.partial_odd(1, pair) == {(1, 0): 2}


def test_act_satisfies_leibniz_for_generators():
    bundle = load_bundle("heis-p3")
    split = bundle.splits["zline"]
    coords = CoordinateAlgebra(split)
    alg = split.algebra
    window = coords.c_monomials
    n = split.n_even

    def act(g, a):
        # x . a read off the columns of the trivial coinduction's matrix of x
        mat = coords.module().generator_matrix(g)
        return coords.from_vector(mat @ coords.to_vector(a) % alg.p)

    for g in range(alg.dim):
        for ma in window:
            for mb in window:
                a, b = {ma: 1}, {mb: 1}
                lhs = act(g, coords.mul(a, b))
                sign = -1 if alg.parities[g] and sum(ma[n:]) % 2 else 1
                rhs = coords.mul(act(g, a), b)
                _add_scaled(rhs, coords.mul(a, act(g, b)), sign, alg.p)
                assert lhs == rhs, (g, ma, mb)


def test_double_twisted_dual_reads_the_stored_generator_matrices(monkeypatch):
    # twisting twice gives rep's data back, so the split's store already
    # holds every generator matrix of the second module
    bundle = parse_definition_text(CATALOG["sl2-p3"])
    split, rep = bundle.splits["borel"], bundle.representations["wt1"]
    first = CoinducedModule(split, rep).generator_matrices()
    calls = []
    clean = ComplementWindow.times

    def counted(self, c_exps, terms, side):
        calls.append(c_exps)
        return clean(self, c_exps, terms, side)

    monkeypatch.setattr(ComplementWindow, "times", counted)
    again = twisted_dual(twisted_dual(rep))
    assert again is not rep and again.key == rep.key
    second = CoinducedModule(split, again).generator_matrices()
    assert calls == []
    assert all(second[g] is first[g] for g in first)
    assert split._memo


def test_stored_generator_matrix_is_read_only():
    bundle = parse_definition_text(CATALOG["heis-p3"])
    split = bundle.splits["zline"]
    mat = InducedModule(split, bundle.representations["triv"]).generator_matrix(0)
    with pytest.raises(ValueError):
        mat[0, 0] = 1


@pytest.mark.parametrize(
    "name, split_name", [("abelian22-p5", "zero"), ("heis-p3", "zline"), ("gl11-p3", "sborel")]
)
@pytest.mark.parametrize("level", [None, 0, 1])
def test_monomial_at_decodes_the_window_in_order(name, split_name, level):
    window = ComplementWindow(load_bundle(name).splits[split_name], level)
    assert window.size == len(window.c_monomials)
    assert [window.monomial_at(k) for k in range(window.size)] == window.c_monomials
