"""Certify once, multiply once: the relation certificate and phi's columns.

Three things are certified or built once, and each is tested against the
loop it replaced, kept here as an oracle:

- algebra.check_relations tests each unordered pair of generators once;
  ``oracle_check_relations`` tests every ordered pair.  Super antisymmetry
  makes (j, i) fail exactly when (i, j) does, so both give the same
  result dict, witnesses included.
- ``_ModuleOnWindow.generator_matrices`` stores the certified set on the
  split, so a module's matrices are certified once per (split, kind,
  rep.key) and never again while the split lives.
- duality.ind_to_coind_map builds each window monomial's column block from
  the block of the monomial less its first letter, one product each;
  ``oracle_phi_matrix`` multiplies out every letter of every monomial.
"""

import numpy as np
import pytest

from ladder import SL2S_P3, osp12
from superpbw import algebra, catalog_names, duality, export, load_bundle, modules
from superpbw import checks as checks_module
from superpbw import export_tables, parse_definition_text, run_checks
from superpbw.algebra import check_relations
from superpbw.catalog import CATALOG
from superpbw.fp import EVEN
from superpbw.linalg import mat_mul_mod, mat_pow_mod
from superpbw.modules import CoinducedModule, InducedModule, _ModuleOnWindow, twisted_dual

from test_check_controls import _with_p_map_bumped


def oracle_check_relations(alg, matrices):
    """The relation certificate over every ordered pair (i, j)."""
    p = alg.p
    gens = list(matrices)

    def combination(coords):
        out = np.zeros_like(matrices[gens[0]])
        for k, c in enumerate(coords):
            if c:
                out = (out + c * matrices[k]) % p
        return out

    def bracket_witness():
        for i in gens:
            for j in gens:
                a, b = matrices[i], matrices[j]
                sign = -1 if alg.parities[i] * alg.parities[j] else 1
                lhs = (mat_mul_mod(a, b, p) - sign * mat_mul_mod(b, a, p)) % p
                if not np.array_equal(lhs, combination(alg.bracket_coords(i, j))):
                    return f"super commutator of b_{i}, b_{j} mismatches the bracket"
        return ""

    def p_power_witness():
        for i in gens:
            if alg.parities[i] == EVEN and not np.array_equal(
                mat_pow_mod(matrices[i], p, p), combination(alg.p_map[i])
            ):
                return f"action of b_{i}^p mismatches the p-map image"
        return ""

    witnesses = {"brackets": bracket_witness(), "p-powers": p_power_witness()}
    return {name: (not w, w) for name, w in witnesses.items()}


def oracle_phi_matrix(split, rep):
    """phi's matrix with each column block G_x1 ... G_xk S multiplied out
    letter by letter over the window's c_word."""
    p = split.algebra.p
    target = CoinducedModule(split, rep)
    gens = target.generator_matrices()
    lam = duality.socle_level(split)
    basis = np.eye(rep.dim, dtype=np.int64)
    sections = np.array([target.to_vector(target.convolve(lam, target.vhat(v))) for v in basis]).T
    out = np.zeros((target.dim, target.dim), dtype=np.int64)
    for cm in target.c_monomials:
        block = sections
        for g in reversed(target.c_word(cm)):
            block = mat_mul_mod(gens[g], block, p)
        col0 = target.index[cm, 0]
        out[:, col0 : col0 + rep.dim] = block
    return out


def _catalog_instances():
    for name in catalog_names():
        for _, split, reps in load_bundle(name).instances():
            for _, rep in reps:
                yield name, split, rep


def _raw_generator_matrices(module):
    return {g: module.generator_matrix(g) for g in range(module.split.algebra.dim)}


# ------------------------------------------------------------------
# the relation certificate on unordered pairs
# ------------------------------------------------------------------


def _ads(alg):
    return {i: alg.ad(i) for i in range(alg.dim)}


@pytest.mark.parametrize("name", catalog_names() + ["osp12-p3"])
def test_relations_on_ad_matrices_match_the_ordered_pairs(name):
    alg = (parse_definition_text(osp12(3)) if name == "osp12-p3" else load_bundle(name)).algebra
    ads = _ads(alg)
    assert check_relations(alg, ads) == oracle_check_relations(alg, ads)
    for g in range(alg.dim):
        bumped = dict(ads)
        bumped[g] = ads[g].copy()
        bumped[g][0, 0] = (bumped[g][0, 0] + 1) % alg.p
        assert check_relations(alg, bumped) == oracle_check_relations(alg, bumped), g


@pytest.mark.parametrize("name", catalog_names())
def test_relations_on_module_matrices_match_the_ordered_pairs(name):
    # every module of the entry, clean, with each generator matrix bumped at
    # one entry in turn, and against an algebra whose p-map is bumped
    bundle = load_bundle(name)
    alg = bundle.algebra
    relations = [alg] + [_with_p_map_bumped(alg, x, x) for x in alg.even_indices[:1]]
    witnesses = set()
    for _, split, reps in bundle.instances():
        for _, rep in reps:
            for kind in (InducedModule, CoinducedModule):
                gens = _raw_generator_matrices(kind(split, rep))
                cases = [(relations_of, gens) for relations_of in relations]
                for g in gens:
                    bumped = dict(gens)
                    bumped[g] = gens[g].copy()
                    bumped[g][0, 0] = (bumped[g][0, 0] + 1) % alg.p
                    cases.append((alg, bumped))
                for relations_of, mats in cases:
                    got = check_relations(relations_of, mats)
                    assert got == oracle_check_relations(relations_of, mats)
                    witnesses.update(w for _, w in got.values())
    assert "" in witnesses and len(witnesses) >= 2, witnesses


def test_relations_make_d_times_d_plus_1_bracket_products(monkeypatch):
    # one unordered pair costs two products; the ordered pairs cost 2 d^2.
    # The p-th powers multiply through linalg, not through this counter.
    calls = []
    clean = algebra.mat_mul_mod
    monkeypatch.setattr(
        algebra, "mat_mul_mod", lambda a, b, p: calls.append(1) or clean(a, b, p)
    )
    bundle = load_bundle("gl11-p3")
    sets = [(alg, _ads(alg)) for alg in (load_bundle(n).algebra for n in catalog_names())]
    split = bundle.splits["sborel"]
    rep = next(rep for rep in bundle.representations.values() if rep.split is split)
    sets.append((bundle.algebra, _raw_generator_matrices(CoinducedModule(split, rep))))
    for alg, mats in sets:
        calls.clear()
        assert all(ok for ok, _ in check_relations(alg, mats).values()), alg.name
        d = len(mats)
        assert len(calls) == d * (d + 1), (alg.name, len(calls))


# ------------------------------------------------------------------
# phi's column blocks by suffix
# ------------------------------------------------------------------


def test_phi_matrices_match_the_letter_by_letter_products():
    instances = [(split, rep) for _, split, rep in _catalog_instances()]
    instances += [(split, twisted_dual(rep)) for split, rep in instances]
    for text in (osp12(3), SL2S_P3):
        for _, split, reps in parse_definition_text(text).instances():
            instances += [(split, rep) for _, rep in reps]
    for split, rep in instances:
        got = duality.ind_to_coind_map(split, rep).matrix
        assert np.array_equal(got, oracle_phi_matrix(split, rep)), (split, rep)
    assert len(instances) > 60


# ------------------------------------------------------------------
# work gates: two passes on fresh parses
# ------------------------------------------------------------------

GATE_CHECKS = ["phi", "theta", "comparison", "psi", "kernel-duality"]


def _record_two_passes(monkeypatch):
    """Run GATE_CHECKS and the phi-matrix export twice on fresh sl2-p3 and
    abelian22-p3 parses.  For each pass, return the (split, kind, rep.key)
    of every generator_matrices request and of every certification, and
    (window size, mat_mul_mod calls) for every ind_to_coind_map call."""
    bundles = [parse_definition_text(CATALOG[n]) for n in ("sl2-p3", "abelian22-p3")]
    passes = []
    context = []

    clean_request = _ModuleOnWindow.generator_matrices

    def request(module):
        key = (id(module.split), module.kind, module.rep.key)
        passes[-1]["requested"].append(key)
        context.append(key)
        try:
            return clean_request(module)
        finally:
            context.pop()

    clean_certify = modules.check_relations

    def certify(alg, matrices):
        passes[-1]["certified"].append(context[-1] if context else None)
        return clean_certify(alg, matrices)

    products = []
    clean_mul = duality.mat_mul_mod

    def mul(a, b, p):
        products.append(1)
        return clean_mul(a, b, p)

    clean_phi = duality.ind_to_coind_map

    def phi(split, rep):
        before = len(products)
        out = clean_phi(split, rep)
        passes[-1]["phi"].append((out.source.size, len(products) - before))
        return out

    monkeypatch.setattr(_ModuleOnWindow, "generator_matrices", request)
    monkeypatch.setattr(modules, "check_relations", certify)
    monkeypatch.setattr(duality, "mat_mul_mod", mul)
    for module in (duality, checks_module, export):
        if getattr(module, "ind_to_coind_map", None) is clean_phi:
            monkeypatch.setattr(module, "ind_to_coind_map", phi)
    for _ in range(2):
        passes.append({"requested": [], "certified": [], "phi": []})
        for bundle in bundles:
            reports = run_checks(bundle, only=GATE_CHECKS)
            assert reports and all(r.status in ("pass", "fail") for r in reports)
            assert export_tables(bundle, "phi-matrix")
    return passes


def test_module_matrices_are_certified_once_per_split_kind_and_rep(monkeypatch):
    first, second = _record_two_passes(monkeypatch)
    assert first["certified"], "the gate reaches no certification"
    assert len(first["certified"]) == len(set(first["certified"]))
    assert set(first["certified"]) == set(first["requested"])
    assert second["requested"] and second["certified"] == []


def test_phi_makes_one_product_per_window_monomial_past_the_first(monkeypatch):
    for record in _record_two_passes(monkeypatch):
        assert record["phi"] and any(size > 2 for size, _ in record["phi"])
        assert all(calls == size - 1 for size, calls in record["phi"]), record["phi"]
