"""Split-ordered products against the normal_order_split route.

Module generator matrices, the Theta map, the socle-character leg and
level evaluations straighten c u and u c in the split's priority engine
(ComplementWindow.times), where the complement monomial c is one basis
monomial and u is built in that engine from the start.  The oracles below
rebuild each of them the other way: the product is straightened in the
identity-order engine of the same level, so in the same quotient u_r(g),
and every term of it is then reordered into the split's order by
normal_order_split.  The two routes must agree value for
value on every catalog entry, on osp(1|2) at p = 3, on sl2 at p = 3 split
at the line of h, and on a shifted sl2 input on which some checks FAIL.
"""

import random

import numpy as np
import pytest

from ladder import SL2_HLINE_P3, SL2S_P3, osp12
from superpbw import (
    UElement,
    antipode,
    catalog_names,
    load_bundle,
    normal_order_split,
    parse_definition_text,
    run_checks,
)
from superpbw.catalog import CATALOG
from superpbw.duality import (
    LevelEvaluator,
    _random_filtered_element,
    coind_to_ind_dual_map,
    socle_character_check,
    socle_level,
)
from superpbw.modules import (
    CoinducedModule,
    CoordinateAlgebra,
    InducedModule,
    trivial_rep,
    twist,
    twisted_dual,
)
from superpbw.pbw import PBWEngine, get_engine, split_engine


def _bundles():
    out = [(name, load_bundle(name)) for name in catalog_names()]
    out.append(("sl2s-p3", parse_definition_text(SL2S_P3)))
    out.append(("osp12-p3", parse_definition_text(osp12(3))))
    out.append(("sl2h-p3", parse_definition_text(SL2_HLINE_P3)))
    return out


BUNDLES = _bundles()


def _instances(bundle):
    for _, split, reps in bundle.instances():
        for _, rep in reps:
            yield split, rep


def _oracle_action_matrix(module, u):
    """The module's matrix of u from c u (or u c) in the identity-order
    engine, each term reordered by normal_order_split."""
    p = module.split.algebra.p
    dv = module.rep.dim
    out = np.zeros((module.dim, module.dim), dtype=np.int64)
    for cm in module.c_monomials:
        c = module.c_element(cm)
        prod = c * u if module.side == "left" else u * c
        i0 = module.index[cm, 0]
        for c2, inner in normal_order_split(prod, module.split, side=module.side).items():
            j0 = module.index[c2, 0]
            rows, cols = slice(i0, i0 + dv), slice(j0, j0 + dv)
            if module.side == "right":
                rows, cols = cols, rows
            out[rows, cols] = (out[rows, cols] + module.rep.h_element_matrix(inner)) % p
    return out


def _oracle_theta(split, rep):
    """coind_to_ind_dual_map with the antipode of c_element(cm) taken in
    the identity-order engine and reordered by normal_order_split."""
    p = split.algebra.p
    sigma_dual = twisted_dual(rep)
    source = CoinducedModule(split, sigma_dual)
    ind = InducedModule(split, twist(rep, split.supertrace_character(), split.m_odd))
    dv = rep.dim
    out = np.zeros((ind.dim, source.dim), dtype=np.int64)
    for cm in ind.c_monomials:
        row0 = ind.index[cm, 0]
        cm_par = ind.c_mono_parity(cm)
        for c2, inner in normal_order_split(antipode(ind.c_element(cm)), split).items():
            col0 = source.index.get((c2, 0))
            if col0 is None:
                continue
            block = sigma_dual.h_element_matrix(inner)
            if cm_par:
                c2_par = source.c_mono_parity(c2)
                signs = [-1 if (q + c2_par) % 2 else 1 for q in sigma_dual.parities]
                block = block * np.array(signs, dtype=np.int64)[None, :]
            rows, cols = slice(row0, row0 + dv), slice(col0, col0 + dv)
            out[rows, cols] = (out[rows, cols] + block) % p
    return out


def _oracle_socle_character(split, level):
    """The subalgebra leg of socle_character_check, each value read from
    normal_order_split of c_element(cm) x; (ok, message) like the check."""
    alg = CoordinateAlgebra(split, level=level)
    lam = socle_level(split, level)
    top = max(alg.c_monomials, key=sum)
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
        x = UElement.generator(split.algebra, h, level=alg.level)
        for cm in alg.c_monomials:
            parts = normal_order_split(alg.c_element(cm) * x, split)
            got = triv.pair_eval(parts, lam_vec)[0]
            if (got - (chi.value(h) * lam[top] if cm == top else 0)) % p:
                return False, f"subalgebra generator b_{h} scales the socle wrongly"
    return True, f"socle coefficient {lam[top]} at {top}"


def _ambient(split, terms, level):
    """The element with the given terms of the split's left engine of a
    level, in the identity-order engine of that level: each monomial's word
    in the left order, straightened there."""
    alg = split.algebra
    left = split_engine(split, level, "left")
    ident = get_engine(alg, level)
    out = UElement.zero(alg, level)
    for m, c in terms.items():
        out = out + c * UElement(alg, level, ident.straighten_word(left.word_of(m)))
    return out


def _oracle_eval(ev, u, vec, w):
    u = _ambient(ev.split, u, ev.window.level)
    parts = normal_order_split(ev.window.c_element(w) * u, ev.split)
    return ev.rep.pair_eval(parts, ev.socle_section(vec))


def _eval_samples(split, rep, level, rng, count=3):
    """(evaluator, u, vec, w) draws like balance_check's, with u and u h."""
    alg = split.algebra
    ev = LevelEvaluator(split, rep, level)
    left = split_engine(split, level, "left")
    for _ in range(count):
        u = _random_filtered_element(split, rng, level, terms=2)
        vec = np.array([rng.randrange(alg.p) for _ in range(rep.dim)], dtype=np.int64)
        w = ev.window.monomial_at(rng.randrange(ev.window.size))
        yield ev, u, vec, w
        for h in split.h_indices:
            yield ev, left._fold(u, (h,)), vec, w


@pytest.mark.parametrize("name,bundle", BUNDLES, ids=[n for n, _ in BUNDLES])
def test_generator_matrices_match_the_reorder_route(name, bundle):
    alg = bundle.algebra
    for split, rep in _instances(bundle):
        for module in (InducedModule(split, rep), CoinducedModule(split, rep)):
            for g in range(alg.dim):
                want = _oracle_action_matrix(module, UElement.generator(alg, g))
                got = module.generator_matrix(g)
                assert np.array_equal(got, want), (name, split.name, rep.name, module.kind, g)


@pytest.mark.parametrize("name,bundle", BUNDLES, ids=[n for n, _ in BUNDLES])
def test_theta_matrices_match_the_reorder_route(name, bundle):
    for split, rep in _instances(bundle):
        got = coind_to_ind_dual_map(split, rep).matrix
        assert np.array_equal(got, _oracle_theta(split, rep)), (name, split.name, rep.name)


@pytest.mark.parametrize("name,bundle", BUNDLES, ids=[n for n, _ in BUNDLES])
def test_socle_character_verdicts_match_the_reorder_route(name, bundle):
    for _, split, _ in bundle.instances():
        for level in (0, 1):
            got = socle_character_check(split, level)
            assert got == _oracle_socle_character(split, level), (name, split.name, level)


@pytest.mark.parametrize("name,bundle", BUNDLES, ids=[n for n, _ in BUNDLES])
def test_level_evaluations_match_the_reorder_route(name, bundle):
    rng = random.Random(5)
    for split, rep in _instances(bundle):
        for level in (0, 1):
            for ev, u, vec, w in _eval_samples(split, rep, level, rng):
                want = _oracle_eval(ev, u, vec, w)
                assert np.array_equal(ev.eval(u, vec, w), want), (name, split.name, level, w)


def _fresh(name):
    return parse_definition_text(CATALOG[name])


def _count_straightens(monkeypatch):
    calls = []
    clean = PBWEngine.straighten_word

    def counted(self, word):
        calls.append(word)
        return clean(self, word)

    monkeypatch.setattr(PBWEngine, "straighten_word", counted)
    return calls


def test_generator_matrices_reorder_nothing(monkeypatch):
    # generator matrices multiply elements built in the split's engine, so no
    # word is straightened into it
    calls = _count_straightens(monkeypatch)
    bundle = _fresh("sl2-p5")
    split, rep = bundle.splits["borel"], bundle.representations["triv"]
    for module in (InducedModule(split, rep), CoinducedModule(split, rep)):
        module.generator_matrices()
    assert calls == []


def test_a_level_evaluation_reorders_each_term_of_u_at_most_once(monkeypatch):
    # u is built in the split's engine from the start, so a level evaluation
    # reorders none of its terms; abelian22's half split orders e2 before e1,
    # unlike the ambient order
    calls = _count_straightens(monkeypatch)
    rng = random.Random(3)
    cases = [("sl2-p5", "borel"), ("abelian22-p3", "half"),
             ("abelian22-p5", "half"), ("heis-p3", "mixed")]
    samples = []
    for name, sname in cases:
        bundle = _fresh(name)
        split = bundle.splits[sname]
        rep = next(rep for rep in bundle.representations.values() if rep.split is split)
        for level in (0, 1):
            for ev, u, vec, w in _eval_samples(split, rep, level, rng):
                ev.eval(u, vec, w)
                assert calls == [], (name, level, u)
                samples.append((ev, u, vec, w))
    # the oracle's route straightens words, and the counter sees them
    _oracle_eval(*samples[0])
    assert calls


def test_kernel_duality_sees_a_corrupted_entry_of_the_split_engine():
    # f h, the product c x of the complement monomial c = f and x = h that
    # ComplementWindow.times reads when it builds the coinduced matrix of h
    bundle = _fresh("sl2-p3")
    split = bundle.splits["borel"]
    alg = split.algebra
    f, h = (0, 0, 1), 0
    eng = split_engine(split, 0, "left")
    fh = eng.mul_letter(f, h)
    assert eng._letter_cache[f, h] is fh
    fh[f] = 2 * fh[f] % alg.p
    window = CoordinateAlgebra(split)
    assert window.times((1,), {(1, 0, 0): 1}, "left")[1,][0, 0] == fh[f]
    reports = [r for r in run_checks(bundle, only=["kernel-duality"]) if r.split == "borel"]
    assert reports
    for r in reports:
        assert r.status == "fail", r
        assert r.witness.startswith("coinduced generator matrices: "), r
