import numpy as np
import pytest

from superpbw import (
    Character,
    LieSuperAlgebra,
    StructureError,
    SubalgebraSplit,
    catalog_names,
    load_bundle,
    parse_definition_text,
)
from superpbw.algebra import check_relations
from superpbw.catalog import CATALOG
from superpbw.fp import ODD

from ladder import osp12


def test_catalog_algebras_validate():
    for name in catalog_names():
        alg = load_bundle(name).algebra
        for prop, (ok, msg) in alg.validate().items():
            assert ok, f"{name} fails {prop}: {msg}"
        assert alg.is_valid()


def test_bracket_tables_sl2():
    alg = load_bundle("sl2-p3").algebra
    h, e, f = (alg.index_of(n) for n in "hef")
    assert alg.bracket_coords(h, e) == (0, 2, 0)
    assert alg.bracket_coords(e, h) == (0, 1, 0)  # -2e mod 3
    assert alg.bracket_coords(e, f) == (1, 0, 0)
    assert alg.bracket_coords(f, e) == (2, 0, 0)
    assert alg.p_map[h] == (1, 0, 0)
    ad_h = alg.ad(h)
    assert ad_h[e, e] == 2 and ad_h[f, f] == 1


def test_odd_self_bracket_clifford():
    alg = load_bundle("clifford-p3").algebra
    eps = alg.index_of("eps")
    # odd generators may square to something nonzero
    assert alg.bracket_coords(eps, eps) == (1, 0)


def test_bracket_vec_bilinear():
    alg = load_bundle("heis-p3").algebra
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, y = rng.integers(0, 3, size=(2, alg.dim))
        lhs = alg.bracket_vec(x, y)
        cols = np.array([alg.bracket_vec(np.eye(alg.dim, dtype=int)[i], y) for i in range(alg.dim)])
        rhs = tuple(int(v) for v in x @ cols % 3)
        assert lhs == rhs


# ------------------------------------------------------------------
# negative fixtures: each axiom can actually fail
# ------------------------------------------------------------------


def test_antisymmetry_violation_detected():
    # conflicting two-sided brackets are refused outright
    with pytest.raises(StructureError):
        LieSuperAlgebra(3, ["x", "y"], [0, 0], {(0, 1): [0, 1], (1, 0): [0, 1]})
    with pytest.raises(StructureError):
        LieSuperAlgebra(3, ["x"], [0], {(0, 0): [1]})


def test_jacobi_violation_detected():
    alg = LieSuperAlgebra(
        3,
        ["x", "y", "z"],
        [0, 0, 0],
        {(0, 1): [0, 0, 1], (1, 2): [1, 0, 0], (0, 2): [1, 0, 0]},
    )
    ok, msg = alg.validate()["jacobi"]
    assert not ok and "jacobi" in msg


def test_odd_cube_violation_detected():
    # [x, x] = z and [x, z] = w: parity, antisymmetry, the p-map and every
    # multilinear relation hold, but at p = 3 they do not force
    # [x, [x, x]] = 0, so that has its own test
    alg = LieSuperAlgebra(3, ["x", "z", "w"], [1, 0, 1], {(0, 0): [0, 1, 0], (0, 1): [0, 0, 1]})
    assert all(ok for ok, _ in check_relations(alg, {i: alg.ad(i) for i in range(3)}).values())
    report = alg.validate()
    assert all(report[k][0] for k in ("parity-additive", "p-map"))
    assert report["jacobi"] == (False, "[b_0, [b_0, b_0]] != 0")


def test_p_map_violation_detected():
    # so(3) shape with the default zero p-map: (ad x)^3 = -ad x != 0
    alg = LieSuperAlgebra(
        3,
        ["x", "y", "z"],
        [0, 0, 0],
        {(0, 1): [0, 0, 1], (1, 2): [1, 0, 0], (2, 0): [0, 1, 0]},
    )
    ok, _ = alg.validate()["p-map"]
    assert not ok


def test_parity_violation_detected():
    alg = LieSuperAlgebra(3, ["x", "eps"], [0, 1], {(0, 1): [1, 0]})
    ok, msg = alg.validate()["parity-additive"]
    assert not ok and "parity" in msg


# ------------------------------------------------------------------
# splits and characters
# ------------------------------------------------------------------


def test_split_shape_counts():
    bundle = load_bundle("gl11-p3")
    split = bundle.splits["sborel"]
    assert split.h_indices == (0, 1, 2)
    assert split.c_indices == (3,)
    assert (split.n_even, split.m_odd) == (0, 1)


def test_split_requires_closure():
    alg = load_bundle("sl2-p3").algebra
    with pytest.raises(StructureError):
        SubalgebraSplit(alg, [alg.index_of("e"), alg.index_of("f")])


def test_supertrace_character_matches_catalog():
    sl2 = load_bundle("sl2-p3")
    assert sl2.splits["borel"].supertrace_character() == sl2.characters["wt1c"]
    gl11 = load_bundle("gl11-p3")
    strad = gl11.splits["sborel"].supertrace_character()
    assert strad.values == (1, 2, 0)
    assert strad == gl11.characters["sdet"]


def test_supertrace_character_is_built_once_per_split():
    # one catalog-sweep pass asks 24 splits for it 487 times
    bundle = parse_definition_text(CATALOG["sl2-p3"])
    split = bundle.splits["borel"]
    chi = split.supertrace_character()
    assert split.supertrace_character() is chi
    assert chi.split is split
    assert chi == bundle.characters["wt1c"]


def test_supertrace_character_full_split_is_zero():
    split = load_bundle("sl2-p3").splits["all"]
    assert all(v == 0 for v in split.supertrace_character().values)


def test_supertrace_character_is_the_signed_diagonal_of_ad():
    bundles = [load_bundle(name) for name in catalog_names()]
    bundles += [parse_definition_text(osp12(p)) for p in (3, 5)]
    splits = [split for bundle in bundles for split in bundle.splits.values()]
    assert len(splits) == 28
    nonzero = 0
    for split in splits:
        alg = split.algebra
        want = []
        for h in split.h_indices:
            ad = alg.ad(h)
            signed = [-ad[j, j] if alg.parities[j] == ODD else ad[j, j] for j in split.c_indices]
            want.append(0 if alg.parities[h] == ODD else int(sum(signed)) % alg.p)
        assert split.supertrace_character().values == tuple(want), split
        nonzero += any(want)
    assert nonzero == 6


def test_character_must_kill_brackets():
    split = load_bundle("sl2-p3").splits["borel"]
    with pytest.raises(StructureError):
        Character(split, [0, 1])  # e = [h, e]/2 forces chi(e) = 0
    chi = Character(split, [2, 0])
    assert chi.value(split.algebra.index_of("h")) == 2
    assert chi.scaled(2).values == (1, 0)
    assert chi.is_restricted()


def test_character_eval_coords():
    split = load_bundle("sl2-p3").splits["borel"]
    chi = split.supertrace_character()
    assert chi.eval_coords((2, 0, 0)) == 2
    assert chi.eval_coords((0, 1, 0)) == 0
