import tracemalloc

import numpy as np
import pytest

from superpbw import (
    CoinducedModule,
    CoordinateAlgebra,
    Representation,
    StructureError,
    SubalgebraSplit,
    UElement,
    annihilator,
    annihilator_duality_check,
    antipode,
    balance_check,
    catalog_names,
    coind_duality_gram,
    coind_to_ind_dual_map,
    curried_gram,
    gram_factorization_check,
    gram_invariance_check,
    ind_to_coind_map,
    injectivity_witness_check,
    instance_pairs,
    level_raising_check,
    load_bundle,
    mu_product_check,
    normal_order_split,
    phi_isomorphism_check,
    restricted_monomials,
    run_checks,
    socle_character_check,
    socle_level,
    theta_equivariance_check,
    twisted_dual,
)
from superpbw import duality, parse_definition_text, pbw
from superpbw.catalog import CATALOG
from superpbw.duality import two_sided_witness
from superpbw.linalg import SubspaceBasis, nullspace, rank, subspace_equal
from superpbw.modules import ComplementWindow
from superpbw.pbw import get_engine

from ladder import gl12, osp12


def _pairs(*names):
    for name in names:
        bundle = load_bundle(name)
        for split in bundle.splits.values():
            for rep in bundle.representations.values():
                if rep.split is split:
                    yield bundle, split, rep


def test_socle_functional_support():
    split = load_bundle("abelian1-p3").splits["zero"]
    lam = socle_level(split)
    assert set(lam) == {(2,)}
    he = load_bundle("heis-p3").splits["zline"]
    assert set(socle_level(he)) == {(1, 1)}
    assert set(socle_level(load_bundle("abelian1-p3").splits["zero"], 1)) == {(8,)}


def test_socle_character_all_splits():
    for name, split_name in instance_pairs():
        split = load_bundle(name).splits[split_name]
        ok, msg = socle_character_check(split)
        assert ok, f"{name}/{split_name}: {msg}"
    ok, _ = socle_character_check(load_bundle("sl2-p3").splits["borel"], level=1)
    assert ok


def test_socle_character_on_a_truncated_window_stays_small():
    # the level-1 check acts on its one functional by definition; a dense
    # generator matrix on this 1250-dimensional window alone is 12 MiB
    split = load_bundle("abelian22-p5").splits["oddh"]
    tracemalloc.start()
    try:
        ok, msg = socle_character_check(split, level=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok, msg
    assert peak < 6 * 2**20, peak


def test_lambda_character_rejects_a_negated_supertrace_character(monkeypatch):
    clean = SubalgebraSplit.supertrace_character
    monkeypatch.setattr(
        SubalgebraSplit, "supertrace_character", lambda split: clean(split).scaled(-1)
    )
    failed = set()
    for name in ("sl2-p3", "gl11-p3", "heis-p3"):
        bundle = load_bundle(name)
        for r in run_checks(bundle, only=["lambda-character"]):
            if any(clean(bundle.splits[r.split]).values):
                assert r.status == "fail"
                assert r.witness == "subalgebra generator b_0 scales the socle wrongly"
                failed.add((name, r.split))
            else:
                assert r.status == "pass", (name, r.split)
    assert failed == {("sl2-p3", "borel"), ("gl11-p3", "sborel")}


def test_mu_product_all_splits():
    for name, split_name in instance_pairs():
        split = load_bundle(name).splits[split_name]
        ok, msg = mu_product_check(split)
        assert ok, f"{name}/{split_name}: {msg}"


# ------------------------------------------------------------------
# the comparison map
# ------------------------------------------------------------------


def test_phi_frozen_abelian():
    bundle = load_bundle("abelian1-p3")
    phi = ind_to_coind_map(bundle.splits["zero"], bundle.representations["triv"])
    # hand convolution: e^a hits the socle after (p-1-a) more letters, and
    # the normalization leaves binomial(2, a) on the antidiagonal
    assert phi.matrix.tolist() == [[0, 0, 2], [0, 2, 0], [2, 0, 0]]


def test_phi_isomorphism_small_instances():
    for bundle, split, rep in _pairs("abelian1-p3", "oddline-p3", "heis-p3", "gl11-p3"):
        ok, msg = phi_isomorphism_check(split, rep)
        assert ok, f"{rep.name}: {msg}"
        ok, msg = phi_isomorphism_check(split, twisted_dual(rep))
        assert ok, f"twisted dual of {rep.name}: {msg}"


def test_gram_frozen_oddline():
    bundle = load_bundle("oddline-p3")
    res = coind_duality_gram(bundle.splits["zero"], bundle.representations["triv"])
    assert res.matrix.tolist() == [[0, 1], [1, 0]]


def test_gram_routes_agree_and_invariance():
    for bundle, split, rep in _pairs("abelian1-p3", "oddline-p3", "heis-p3", "sl2-p3"):
        p = split.algebra.p
        res = coind_duality_gram(split, rep)
        direct_route = coind_duality_gram(split, rep, direct=True).matrix
        assert np.array_equal(res.matrix, direct_route), rep.name
        assert rank(res.matrix, p) == res.matrix.shape[0]
        ok, msg = gram_invariance_check(split, rep, res)
        assert ok, f"{rep.name}: {msg}"


def test_theta_frozen_abelian():
    bundle = load_bundle("abelian1-p3")
    theta = coind_to_ind_dual_map(bundle.splits["zero"], bundle.representations["triv"])
    # antipode sends e^a to (-1)^a e^a and the pairing is diagonal here
    assert theta.matrix.tolist() == [[1, 0, 0], [0, 2, 0], [0, 0, 1]]


def test_theta_equivariance():
    for bundle, split, rep in _pairs("abelian1-p3", "heis-p3", "gl11-p3"):
        theta = coind_to_ind_dual_map(split, rep)
        ok, msg = theta_equivariance_check(split, rep, theta)
        assert ok, f"{rep.name}: {msg}"


def test_factorization_through_the_curried_gram():
    picked = ("abelian1-p3", "oddline-p3", "heis-p3", "gl11-p3", "abelian22-p3")
    for bundle, split, rep in _pairs(*picked):
        curried = curried_gram(coind_duality_gram(split, rep))
        assert rank(curried, split.algebra.p) == curried.shape[0]
        ok, msg = gram_factorization_check(split, rep)
        assert ok, f"{bundle.algebra.name}/{split.name}/{rep.name}: {msg}"


# ------------------------------------------------------------------
# annihilators
# ------------------------------------------------------------------


def test_annihilator_of_regular_module_is_zero():
    bundle = load_bundle("abelian1-p3")
    eqs, labels = annihilator(bundle.splits["zero"], bundle.representations["triv"])
    assert len(labels) == 3  # the restricted monomial window
    assert eqs.dim == 3  # one equation per monomial: the ideal is zero


def test_annihilator_duality_small():
    for bundle, split, rep in _pairs("abelian1-p3", "oddline-p3", "heis-p3"):
        ok, msg = annihilator_duality_check(split, rep)
        assert ok, f"{rep.name}: {msg}"
        ok, msg = annihilator_duality_check(split, twisted_dual(rep))
        assert ok, f"twisted dual of {rep.name}: {msg}"


# ------------------------------------------------------------------
# truncated levels
# ------------------------------------------------------------------


@pytest.mark.parametrize("level", [0, 1])
def test_sampled_level_checks(level):
    for name in ("abelian1-p3", "sl2-p3"):
        bundle = load_bundle(name)
        for split in bundle.splits.values():
            for rep in bundle.representations.values():
                if rep.split is not split:
                    continue
                for check in (balance_check, level_raising_check, injectivity_witness_check):
                    ok, msg = check(split, rep, level=level, seed=0, samples=10)
                    assert ok, f"{check.__name__} on {name}/{rep.name}: {msg}"


def _straightened_matrix(co, u):
    """The coinduced matrix of u by definition, (u lam)(w) = lam(w u): w u
    straightened in the identity-order engine and split by
    normal_order_split, one block per window monomial w."""
    dv = co.rep.dim
    out = np.zeros((co.dim, co.dim), dtype=np.int64)
    for w in co.c_monomials:
        i0 = co.index[w, 0]
        for c2, inner in normal_order_split(co.c_element(w) * u, co.split).items():
            j0 = co.index[c2, 0]
            out[i0 : i0 + dv, j0 : j0 + dv] += co.rep.h_element_matrix(inner)
    return out % co.split.algebra.p


def test_action_rows_match_straightening():
    # the layered product route against straightening c_element(cm) * mono
    # per window monomial, on every split/rep at p = 3 and on gl11-p5; the
    # row blocks, one row each and the whole module at once, joined along
    # the row axis
    names = [n for n in catalog_names() if n.endswith("-p3")] + ["gl11-p5"]
    for bundle, split, rep in _pairs(*names):
        alg = split.algebra
        co = CoinducedModule(split, rep)
        whole = co.action_rows(0, co.dim)
        rows = np.concatenate([co.action_rows(i, i + 1) for i in range(co.dim)], axis=1)
        assert whole.shape == (len(restricted_monomials(alg)), co.dim, co.dim)
        for mono, act, act_rows in zip(restricted_monomials(alg), whole, rows):
            want = _straightened_matrix(co, UElement(alg, 0, {mono: 1}))
            assert np.array_equal(act, want), (alg.name, split.name, rep.name, mono)
            assert np.array_equal(act_rows, want), (alg.name, split.name, rep.name, mono)
    with pytest.raises(ValueError, match="only the level-0 window is a u"):
        CoordinateAlgebra(split, level=1).module()


def _stacked_annihilator(split, rep) -> SubspaceBasis:
    """The route the row blocks replaced, kept as an oracle: every
    monomial's whole action matrix, each the product of its prefix's and a
    certified generator matrix, stacked into (count, dim, dim), then one
    elimination of all the equations."""
    alg = split.algebra
    co = CoinducedModule(split, rep)
    gens = co.generator_matrices()
    monos = restricted_monomials(alg)
    index = {m: i for i, m in enumerate(monos)}
    acts = np.empty((len(monos), co.dim, co.dim), dtype=np.int64)
    for i, mono in enumerate(monos):
        last = max((g for g, e in enumerate(mono) if e), default=None)
        if last is None:
            acts[i] = np.eye(co.dim, dtype=np.int64)
        else:
            prefix = mono[:last] + (mono[last] - 1,) + mono[last + 1 :]
            acts[i] = acts[index[prefix]] @ gens[last] % alg.p
    return SubspaceBasis.from_vectors(acts.reshape(len(monos), -1).T, alg.p, len(monos))


def test_annihilator_matches_the_stacked_route_on_gl12():
    # dim u(g) = 3,888; windows of 16 (even) and 12 (borel) monomials, so
    # every row block holds one row
    bundle = parse_definition_text(gl12(3))
    for rep in bundle.representations.values():
        for r in (rep, twisted_dual(rep)):
            eqs, monos = annihilator(rep.split, r)
            want = _stacked_annihilator(rep.split, r)
            assert np.array_equal(eqs.rows, want.rows) and eqs.pivots == want.pivots
            assert 0 < eqs.dim < len(monos) == 3888


def test_annihilator_streams_and_stops_at_full_rank(monkeypatch):
    # abelian22-p5 zero: 100 monomials on a module of dimension 100, so the
    # stack of every action matrix is 7.6 MiB and 9.2 MiB traced with its
    # copies; the ideal is 0, and the first block of rows has rank 100
    bundle = parse_definition_text(CATALOG["abelian22-p5"])
    split, rep = bundle.splits["zero"], bundle.representations["triv"]
    CoinducedModule(split, rep).generator_matrices()
    blocks = []
    clean = CoinducedModule.action_rows

    def recorded(self, lo, hi):
        blocks.append((lo, hi))
        return clean(self, lo, hi)

    monkeypatch.setattr(CoinducedModule, "action_rows", recorded)
    tracemalloc.start()
    try:
        eqs, monos = annihilator(split, rep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20, peak
    assert eqs.dim == len(monos) == 100
    assert blocks and blocks[-1][1] < 100, blocks


def test_kernel_duality_rejects_a_bumped_generator_matrix(monkeypatch):
    clean = CoinducedModule.generator_matrix

    def bumped(self, g):
        out = clean(self, g).copy()
        if g == 0:
            out[0, 0] = (out[0, 0] + 1) % self.split.algebra.p
        return out

    monkeypatch.setattr(CoinducedModule, "generator_matrix", bumped)
    # a fresh parse: the shared catalog bundle's splits may already store
    # the annihilators that the bumped matrices would change
    bundle = parse_definition_text(CATALOG["heis-p3"])
    # a failing certification stores nothing, so a second call fails again
    for _ in range(2):
        reports = run_checks(bundle, only=["kernel-duality"])
        assert reports and all(r.status == "fail" for r in reports)
        assert all(r.witness.startswith("coinduced generator matrices: ") for r in reports)


def test_two_sidedness_rejects_a_subspace_that_is_not_an_ideal():
    bundle = load_bundle("heis-p3")
    split = bundle.splits["zline"]
    alg = split.algebra
    eqs, monos = annihilator(split, bundle.representations["triv"])
    assert two_sided_witness(alg, [eqs]) == ""
    rows = nullspace(eqs.rows, alg.p).rows.copy()
    rows[0] = 0
    rows[0, monos.index((0,) * alg.dim)] = 1  # the unit in place of one vector
    bad = SubspaceBasis.from_vectors(rows, alg.p, len(monos))
    witness = two_sided_witness(alg, [nullspace(bad.rows, alg.p)])
    assert witness == "annihilator is not two-sided at generator b_0"
    # per element: some b_0 u leaves the span
    x = UElement.generator(alg, 0)
    outside = []
    for vec in bad.rows:
        xu = x * UElement(alg, 0, {monos[i]: int(c) for i, c in enumerate(vec) if c})
        image = np.zeros(len(monos), dtype=np.int64)
        for mono, c in xu.terms.items():
            image[monos.index(mono)] = c
        outside.append(not bad.contains(image))
    assert any(outside)


def test_kernel_duality_rejects_a_pair_that_is_not_twisted_dual(monkeypatch):
    bundle = load_bundle("heis-p3")
    split = bundle.splits["zline"]
    triv, jordan = bundle.representations["triv"], bundle.representations["jordan"]
    assert annihilator_duality_check(split, triv)[0]
    monkeypatch.setattr(duality, "twisted_dual", lambda rep: jordan)
    ok, msg = annihilator_duality_check(split, triv)
    assert not ok
    assert msg == "antipode image of the right annihilator mismatches the left"


# The per-vector route the basis matrices replaced, kept as an oracle: one
# UElement per ideal vector, antipoded or multiplied by each generator, and
# every image of one ideal stacked into one membership test.  The oracle
# takes ideals by a basis; annihilator and two_sided_witness hold them by
# their equations, and nullspace(rows, p) turns either into the other.


def _element_of(alg, monos, vec) -> UElement:
    return UElement(alg, 0, {monos[i]: int(c) for i, c in enumerate(vec) if c})


def _vector_of(monos, u: UElement) -> np.ndarray:
    out = np.zeros(len(monos), dtype=np.int64)
    for mono, c in u.terms.items():
        out[monos.index(mono)] = c
    return out


def _oracle_antipode_image(alg, monos, ideal) -> SubspaceBasis:
    rows = [_vector_of(monos, antipode(_element_of(alg, monos, v))) for v in ideal.rows]
    return SubspaceBasis.from_vectors(rows, alg.p, len(monos))


def _oracle_two_sided_witness(alg, monos, ideals) -> str:
    gens = [UElement.generator(alg, g) for g in range(alg.dim)]
    for ideal in ideals:
        us = [_element_of(alg, monos, v) for v in ideal.rows]
        images = [[_vector_of(monos, w) for u in us for w in (x * u, u * x)] for x in gens]
        if not ideal.contains_all([row for rows in images for row in rows]):
            g = next(g for g, rows in enumerate(images) if not ideal.contains_all(rows))
            return f"annihilator is not two-sided at generator b_{g}"
    return ""


def _oracle_pairs():
    yield from _pairs(*catalog_names())
    bundle = parse_definition_text(osp12(3))
    for rep in bundle.representations.values():
        yield bundle, rep.split, rep


def test_kernel_duality_matches_the_per_vector_route():
    for _, split, rep in _oracle_pairs():
        for r in (rep, twisted_dual(rep)):
            alg = split.algebra
            left_eqs, monos = annihilator(split, r)
            right_eqs, _ = annihilator(split, twisted_dual(r))
            left, right = (nullspace(eqs.rows, alg.p) for eqs in (left_eqs, right_eqs))
            # the check passes iff the equations route's image equals left
            ok, msg = annihilator_duality_check(split, r)
            assert ok, (alg.name, split.name, r.name, msg)
            assert subspace_equal(left, _oracle_antipode_image(alg, monos, right))
            assert two_sided_witness(alg, (left_eqs, right_eqs)) == _oracle_two_sided_witness(
                alg, monos, (left, right)
            )


def test_two_sidedness_matches_the_per_vector_route_off_an_ideal():
    bundle = load_bundle("heis-p3")
    split = bundle.splits["zline"]
    alg = split.algebra
    eqs, monos = annihilator(split, bundle.representations["triv"])
    rows = nullspace(eqs.rows, alg.p).rows.copy()
    rows[0] = 0
    rows[0, monos.index((0,) * alg.dim)] = 1
    bad = SubspaceBasis.from_vectors(rows, alg.p, len(monos))
    witness = two_sided_witness(alg, [nullspace(bad.rows, alg.p)])
    assert witness == _oracle_two_sided_witness(alg, monos, [bad])
    assert witness == "annihilator is not two-sided at generator b_0"


def test_two_sidedness_sees_each_side_of_a_one_sided_ideal():
    # u(g) e is a left ideal of u(sl2) that is not a right one, and e u(g)
    # the other way round: each side's matrix must find its failure
    alg = load_bundle("sl2-p3").algebra
    monos = restricted_monomials(alg)
    e = UElement.generator(alg, alg.index_of("e"))
    units = [UElement(alg, 0, {m: 1}) for m in monos]
    for products in ([u * e for u in units], [e * u for u in units]):
        one_sided = SubspaceBasis.from_vectors(
            [_vector_of(monos, w) for w in products], alg.p, len(monos)
        )
        witness = two_sided_witness(alg, [nullspace(one_sided.rows, alg.p)])
        assert witness and witness == _oracle_two_sided_witness(alg, monos, [one_sided])


def _dense_basis_matrix(basis, image_of) -> np.ndarray:
    """The dense loop the sparse basis maps replaced, kept as an oracle."""
    index = {b: i for i, b in enumerate(basis)}
    out = np.zeros((len(basis), len(basis)), dtype=np.int64)
    for j, b in enumerate(basis):
        for label, c in image_of(b).items():
            out[index[label], j] = c
    return out


def test_engine_maps_match_the_dense_loop():
    algebras = [load_bundle(name).algebra for name in catalog_names()]
    osp = parse_definition_text(osp12(3))
    for alg in algebras + [osp.algebra]:
        eng = get_engine(alg)
        monos = restricted_monomials(alg)
        want = _dense_basis_matrix(monos, eng.antipode_mono)
        assert np.array_equal(eng.antipode_map().dense(), want), alg.name
        for g in range(alg.dim):
            x = tuple(1 if k == g else 0 for k in range(alg.dim))
            for side, times_x in (
                ("left", lambda m: eng.mul_mono(x, m)),
                ("right", lambda m: eng.mul_mono(m, x)),
            ):
                want = _dense_basis_matrix(monos, times_x)
                assert np.array_equal(eng.regular_map(g, side).dense(), want), (alg.name, g, side)
    with pytest.raises(ValueError, match="side"):
        get_engine(osp.algebra).regular_map(0, "middle")


def test_kernel_duality_sees_a_corrupted_memoized_product():
    # h f and f h, memoized in the restricted identity engine that builds
    # the regular maps; a fresh parse, so no map is built yet
    bundle = parse_definition_text(CATALOG["sl2-p3"])
    alg = bundle.algebra
    eng = get_engine(alg)
    h, f = (1, 0, 0), (0, 0, 1)
    for key in ((h, f), (f, h)):
        product = eng.mul_mono(*key)
        assert eng._mul_cache[key] is product
        product[1, 0, 1] = (product[1, 0, 1] + 1) % alg.p
    reports = run_checks(bundle, only=["kernel-duality"])
    assert reports and all(r.status == "fail" for r in reports)
    # the split "all" has no complement, so only the two-sidedness leg reads
    # these products; borel's left engine is the identity engine, and its
    # coinduced generator matrices break first
    assert {r.split for r in reports} == {"all", "borel"}
    for r in reports:
        if r.split == "all":
            assert r.witness == "annihilator is not two-sided at generator b_0", r
        else:
            assert r.witness.startswith("coinduced generator matrices: "), r


def test_kernel_duality_certifies_the_antipode_is_an_involution():
    # S(e1) doubled in the memo of a fresh abelian22-p5 parse: S stays
    # invertible and the comparison and two-sidedness legs still pass, but
    # ker(E S) is then the preimage of ker E under S, not its image; only
    # the last leg, S S = 1 on every monomial, sees it
    bundle = parse_definition_text(CATALOG["abelian22-p5"])
    alg = bundle.algebra
    eng = get_engine(alg)
    e1 = (1, 0, 0, 0)
    image = eng.antipode_mono(e1)
    assert eng._antipode_cache[e1] is image
    for m in image:
        image[m] = 2 * image[m] % alg.p
    reports = run_checks(bundle, only=["kernel-duality"])
    assert len(reports) == 7
    for r in reports:
        assert (r.status, r.witness) == ("fail", "antipode is not an involution at (1, 0, 0, 0)"), r


def test_kernel_duality_builds_each_engine_map_once(monkeypatch):
    built = []
    clean = pbw.basis_map

    def counted(basis, image_of):
        built.append(len(basis))
        return clean(basis, image_of)

    monkeypatch.setattr(pbw, "basis_map", counted)
    bundle = parse_definition_text(CATALOG["sl2-p5"])
    counts = []
    for _ in range(2):
        assert all(r.status == "pass" for r in run_checks(bundle, only=["kernel-duality"]))
        counts.append(len(built))
        built.clear()
    # the antipode, and left and right multiplication by each of 3 generators
    assert counts == [2 * 3 + 1, 0]


def _traced_kernel_duality(p):
    """Reports of kernel-duality on a fresh osp(1|2) parse at p, and the
    tracemalloc peak of the run in bytes."""
    bundle = parse_definition_text(osp12(p))
    tracemalloc.start()
    try:
        reports = run_checks(bundle, only=["kernel-duality"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reports) == 2 and {r.split for r in reports} == {"borel", "even"}
    assert all(r.status == "pass" for r in reports), [r.witness for r in reports]
    return peak


def test_kernel_duality_on_osp12_p3_stays_small():
    # 108 restricted monomials; the antipode and the regular actions are
    # sparse maps, and no dense 108 x 108 matrix of them is formed
    peak = _traced_kernel_duality(3)
    assert peak < 4 * 2**20, peak


def test_kernel_duality_on_osp12_p5_stays_under_10_mib():
    # 500 monomials and ideals of dimension 409 and 490, 6.1 MiB; a basis
    # of each ideal beside its equations takes 16.2 MiB
    peak = _traced_kernel_duality(5)
    assert peak < 10 * 2**20, peak


def test_kernel_duality_on_osp12_p7_stays_under_40_mib():
    # 1,372 monomials and ideals of dimension 1,189 and 1,362, 26 MiB; a
    # basis of each ideal beside its equations takes 108.4 MiB
    peak = _traced_kernel_duality(7)
    assert peak < 40 * 2**20, peak


def test_phi_rejects_a_bumped_induced_side(monkeypatch):
    # phi builds both modules from rep, so a broken rep still intertwines
    # generator by generator; bumping the twisted representation that only
    # the induced side uses breaks the intertwining at that generator
    clean = duality.twist

    def bumped(rep, character, m):
        out = clean(rep, character, m)
        h = out.split.h_indices[0]
        mats = dict(out.matrices)
        mats[h] = (mats[h] + np.eye(out.dim, dtype=np.int64)) % out.split.algebra.p
        return Representation(out.split, out.parities, mats)

    bundle = load_bundle("sl2-p3")
    assert all(r.status == "pass" for r in run_checks(bundle, only=["phi"]))
    monkeypatch.setattr(duality, "twist", bumped)
    reports = run_checks(bundle, only=["phi"])
    assert reports and all(r.status == "fail" for r in reports)
    assert {r.witness for r in reports} == {"does not intertwine generator b_0"}


def test_phi_and_comparison_reject_a_reversed_letter_order(monkeypatch):
    # phi's column block of a complement monomial multiplies the generator
    # matrices of the window's c_word, and the induced basis vector is the
    # window's c_element; reversing the word alone makes the two disagree
    bundle = parse_definition_text(CATALOG["heis-p3"])
    checks = ["phi", "comparison"]
    assert all(r.status == "pass" for r in run_checks(bundle, only=checks))
    clean = ComplementWindow.c_word
    monkeypatch.setattr(ComplementWindow, "c_word", lambda w, cm: clean(w, cm)[::-1])
    witnesses = {
        "phi": "does not intertwine generator b_1",
        "comparison": "transpose(phi) @ curried gram differs from the dual map",
    }
    reports = run_checks(bundle, only=checks)
    for r in reports:
        if r.split == "zline":
            assert (r.status, r.witness) == ("fail", witnesses[r.check]), r
        else:
            # one complement letter: every word reads the same backwards
            assert r.status == "pass", r
    assert {r.split for r in reports} == {"mixed", "zline"}


def test_phi_certifies_both_modules():
    # bump entry (0, 0) of each subalgebra generator's matrix of each p = 3
    # representation: the map still intertwines, since both modules come
    # from the bumped rep, and only certifying the generator matrices
    # against the relations of u(g) rejects the bumps that break the rep
    cases = rejected = 0
    for name in sorted(n for n in catalog_names() if n.endswith("-p3")):
        for rep in load_bundle(name).representations.values():
            split = rep.split
            for h in split.h_indices:
                mats = dict(rep.matrices)
                mats[h] = mats[h].copy()
                mats[h][0, 0] = (mats[h][0, 0] + 1) % split.algebra.p
                # built directly: the parser refuses invalid representations
                bumped = Representation(split, rep.parities, mats)
                cases += 1
                if bumped.is_valid():
                    assert phi_isomorphism_check(split, bumped)[0]
                    continue
                rejected += 1
                with pytest.raises(StructureError, match="^(co)?induced generator matrices: "):
                    phi_isomorphism_check(split, bumped)
    assert (cases, rejected) == (33, 29)


def test_balance_rejects_a_negated_supertrace_character(monkeypatch):
    bundle = load_bundle("sl2-p3")
    borel = bundle.splits["borel"]
    assert any(borel.supertrace_character().values)
    clean = SubalgebraSplit.supertrace_character
    monkeypatch.setattr(
        SubalgebraSplit, "supertrace_character", lambda split: clean(split).scaled(-1)
    )
    reports = run_checks(bundle, only=["phi-r-balance"], samples=10)
    on_borel = [r for r in reports if r.split == "borel"]
    assert on_borel and all(r.status == "fail" for r in on_borel)
    assert {r.witness for r in on_borel} == {"balance fails at generator b_0"}
