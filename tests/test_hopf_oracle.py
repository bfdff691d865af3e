"""The sampled Hopf and associativity legs, kept as oracles of the engine check.

The engine check proves the product, the coproduct and the antipode of u(g)
on every restricted monomial (``pbw.product_relations_witness``,
``multiplicativity_witness`` and ``antipode_chain_witness``), so it no
longer samples the laws they prove.  The sampled legs it ran before live
here:

- ``assoc_cases`` checks (u v) w = u (v w) on random restricted elements;
- ``_hopf_leg`` checks the antipode and counit axioms on each distinct
  drawn monomial once (``_hopf_defects``), with no case sums, and fails a
  case when one of its monomials breaks an axiom.

``oracle_hopf_cases`` checks the same axioms case by case: for each sampled
u it expands coproduct(u), contracts it through the antipode on either side
(``oracle_contraction``) and compares each with counit(u) 1, then reads
(counit | id) and (id | counit) off the terms with a leg 1.  It agrees with
``_hopf_leg`` wherever no two defects cancel within a case; both draw the
same cases from the same random stream, so they give the same (ok, message)
and leave the stream in the same state.

Wherever a sampled leg fails, on the catalog, osp(1|2)-p3 and the ladder
inputs at p = 3, clean and under each engine mutation, the engine check
fails too: the certificates prove at least what the samples tested.
"""

import random

import pytest

from superpbw import catalog_names, load_bundle, parse_definition_text, run_checks
from superpbw.catalog import CATALOG
from superpbw.pbw import (
    PBWEngine,
    UElement,
    _add_scaled,
    coproduct,
    counit,
    get_engine,
    restricted_monomials,
)

from ladder import B2, B2S, BX, ODD3_P3, SL2_HLINE_P3, SL2S_P3, TOR, osp12
from test_check_controls import (
    _bump_even_binomial,
    _corrupt_a_letter_product,
    _corrupt_a_prefix_product,
    _fresh,
    _unsigned_antipode,
    _unsigned_coproduct_coeff,
)


def _random_restricted(alg, monos, rng) -> UElement:
    """One to two random restricted monomials with nonzero coefficients."""
    out = {}
    for _ in range(rng.randrange(1, 3)):
        out[monos[rng.randrange(len(monos))]] = rng.randrange(1, alg.p)
    return UElement(alg, True, out)


def assoc_cases(alg, monos, rng, cases):
    """(u v) w = u (v w) on `cases` triples of random restricted elements."""
    for k in range(cases):
        u, v, w = (_random_restricted(alg, monos, rng) for _ in range(3))
        if (u * v) * w != u * (v * w):
            return False, f"associativity fails at case {k}"
    return True, f"{cases} cases per property"


def _hopf_defects(eng, m) -> tuple[dict, dict, dict, dict]:
    """The four Hopf laws on one basis monomial m, each as its defect
    {mono: coeff}: m(S|id)coproduct(m) - counit(m) 1, m(id|S)coproduct(m)
    - counit(m) 1, (counit|id)coproduct(m) - m and (id|counit)coproduct(m)
    - m.  Each law is linear in u, so it holds on every u whose monomials
    all have an empty defect; no defects are added up across monomials."""
    p = eng.p
    one = eng._zero_mono
    unit = {one: 1} if m == one else {}
    out = ({}, {}, {}, {})
    antipode_left, antipode_right, counit_left, counit_right = out
    for (m1, m2), c in eng.coproduct_mono(m).items():
        for s, t in eng.antipode_mono(m1).items():
            _add_scaled(antipode_left, eng.mul_mono(s, m2), c * t, p)
        for s, t in eng.antipode_mono(m2).items():
            _add_scaled(antipode_right, eng.mul_mono(m1, s), c * t, p)
        # (counit | id) and (id | counit) keep the terms with a leg 1
        if m1 == one:
            _add_scaled(counit_left, {m2: c}, 1, p)
        if m2 == one:
            _add_scaled(counit_right, {m1: c}, 1, p)
    for defect, value in zip(out, (unit, unit, {m: 1}, {m: 1})):
        _add_scaled(defect, value, -1, p)
    return out


def _hopf_leg(alg, monos, rng, cases) -> tuple[bool, str]:
    """The antipode and counit axioms on the monomials of `cases` random
    restricted elements drawn from rng.  Each distinct drawn monomial is
    checked once (``_hopf_defects``), and a case fails at the first of its
    monomials' axioms to break, antipode before counit; no case sums its
    monomials' defects, so no defect hides behind a cancellation."""
    eng = get_engine(alg)
    broken: dict = {}  # monomial -> the axiom it breaks, or "" when none
    for k in range(cases):
        u = _random_restricted(alg, monos, rng)
        for m in u.terms:
            if m not in broken:
                found = _hopf_defects(eng, m)
                broken[m] = "antipode" if any(found[:2]) else "counit" if any(found[2:]) else ""
        for axiom in ("antipode", "counit"):
            if any(broken[m] == axiom for m in u.terms):
                return False, f"{axiom} axiom fails at case {k}"
    return True, f"{cases} cases per property"


def oracle_contraction(u, delta, antipode_left):
    """sum c S(m1) m2 over the terms c (m1|m2) of delta = coproduct(u), or
    sum c m1 S(m2)."""
    eng = get_engine(u.algebra, u.restricted)
    p = u.algebra.p
    acc = {}
    for (m1, m2), c in delta.items():
        if antipode_left:
            for s, t in eng.antipode_mono(m1).items():
                _add_scaled(acc, eng.mul_mono(s, m2), c * t, p)
        else:
            for s, t in eng.antipode_mono(m2).items():
                _add_scaled(acc, eng.mul_mono(m1, s), c * t, p)
    return UElement(u.algebra, u.restricted, acc)


def oracle_hopf_cases(alg, monos, rng, cases):
    """The Hopf leg case by case, on the whole element u of each case."""
    one = (0,) * alg.dim
    for k in range(cases):
        u = _random_restricted(alg, monos, rng)
        delta = coproduct(u).terms
        eps = counit(u) * UElement.one(alg)
        if any(oracle_contraction(u, delta, side) != eps for side in (True, False)):
            return False, f"antipode axiom fails at case {k}"
        left = {m2: c for (m1, m2), c in delta.items() if m1 == one}
        right = {m1: c for (m1, m2), c in delta.items() if m2 == one}
        if UElement(alg, True, left) != u or UElement(alg, True, right) != u:
            return False, f"counit axiom fails at case {k}"
    return True, f"{cases} cases per property"


def _leg_beside_its_oracle(alg, seed=0, cases=150):
    """_hopf_leg and oracle_hopf_cases on two copies of one stream; both
    results, after checking that the two leave the stream alike."""
    monos = restricted_monomials(alg)
    rng, twin = random.Random(seed), random.Random(seed)
    got = _hopf_leg(alg, monos, rng, cases)
    want = oracle_hopf_cases(alg, monos, twin, cases)
    assert rng.getstate() == twin.getstate(), seed
    return got, want


@pytest.mark.parametrize("name", catalog_names())
def test_hopf_leg_matches_the_per_case_loop(name):
    alg = load_bundle(name).algebra
    for seed in range(5):
        assert _leg_beside_its_oracle(alg, seed) == ((True, "150 cases per property"),) * 2


def _agree_on_failure(bundle, leg_witness, engine_witness):
    """The leg and its oracle fail alike, and the engine check fails too."""
    failed = (False, leg_witness)
    assert _leg_beside_its_oracle(bundle.algebra) == (failed, failed)
    (report,) = run_checks(bundle, only=["engine"])
    assert (report.status, report.witness) == ("fail", engine_witness)


def test_oracle_agrees_without_the_coproduct_sign(monkeypatch):
    _unsigned_coproduct_coeff(monkeypatch)
    _agree_on_failure(
        _fresh("gl11-p3"),
        "antipode axiom fails at case 25",
        "coproduct multiplicativity fails at (0, 0, 1, 0) times b_3",
    )


def test_oracle_agrees_on_a_bumped_even_binomial(monkeypatch):
    _bump_even_binomial(monkeypatch)
    _agree_on_failure(
        _fresh("sl2-p3"),
        "antipode axiom fails at case 1",
        "coproduct multiplicativity fails at (1, 0, 0) times b_0",
    )


def test_oracle_agrees_on_a_corrupted_prefix_product():
    bundle = _fresh("sl2-p3")
    assert _corrupt_a_prefix_product(bundle)
    _agree_on_failure(
        bundle, "antipode axiom fails at case 0", "antipode chain fails at (0, 1, 0) times b_2"
    )


def _double_the_coproduct(monkeypatch):
    """Twice the coproduct of every monomial but 1: each antipode
    contraction stays at counit(m) 1 = 0, and (counit | id) coproduct(m)
    doubles."""
    clean = PBWEngine.coproduct_mono

    def doubled(eng, m):
        terms = clean(eng, m)
        if not any(m):
            return terms
        return {k: 2 * c % eng.p for k, c in terms.items()}

    monkeypatch.setattr(PBWEngine, "coproduct_mono", doubled)


def test_oracle_agrees_on_a_doubled_coproduct(monkeypatch):
    _double_the_coproduct(monkeypatch)
    _agree_on_failure(_fresh("sl2-p3"), "counit axiom fails at case 0", "coproduct fails at b_0")


def test_a_defect_cancelled_within_a_case_fails_at_that_case(monkeypatch):
    # the first seed whose case 0 is c1 m1 + c2 m2; give m1 the antipode
    # defect c2 1 and m2 the defect -c1 1, so that the case's sum cancels
    alg = load_bundle("sl2-p3").algebra
    monos = restricted_monomials(alg)
    seed = next(
        s for s in range(100)
        if len(_random_restricted(alg, monos, random.Random(s)).terms) == 2
    )
    (m1, c1), (m2, c2) = _random_restricted(alg, monos, random.Random(seed)).terms.items()
    one = (0,) * alg.dim
    planted = {m1: {one: c2}, m2: {one: -c1 % alg.p}}
    clean = _hopf_defects

    def defects(eng, m):
        return (planted[m], {}, {}, {}) if m in planted else clean(eng, m)

    monkeypatch.setitem(globals(), "_hopf_defects", defects)
    got = _hopf_leg(alg, monos, random.Random(seed), 150)
    assert got == (False, "antipode axiom fails at case 0")


def test_associativity_leg_rejects_a_corrupted_letter_product():
    bundle = _fresh("sl2-p3")
    assert _corrupt_a_letter_product(bundle)
    alg = bundle.algebra
    got = assoc_cases(alg, restricted_monomials(alg), random.Random(0), 40)
    assert got == (False, "associativity fails at case 0")


TEXTS = {name: CATALOG[name] for name in catalog_names()}
TEXTS.update(
    {"osp12-p3": osp12(3), "sl2h-p3": SL2_HLINE_P3, "odd3-p3": ODD3_P3, "sl2s-p3": SL2S_P3}
)
TEXTS.update(
    (f"{name}-p3", text.format(p=3))
    for name, text in (("tor", TOR), ("b2", B2), ("bx", BX), ("b2s", B2S))
)


def _patch(mutate):
    """A mutation that patches PBWEngine for the whole test, before any
    engine of the parsed bundle does work."""

    def apply(monkeypatch, bundle):
        mutate(monkeypatch)
        return True

    return apply


MUTATIONS = {
    "clean": lambda monkeypatch, bundle: False,
    "unsigned-coproduct-coeff": _patch(_unsigned_coproduct_coeff),
    "bumped-even-binomial": _patch(_bump_even_binomial),
    "corrupted-prefix-product": lambda monkeypatch, bundle: bool(_corrupt_a_prefix_product(bundle)),
    "doubled-coproduct": _patch(_double_the_coproduct),
    "corrupted-letter-product": lambda monkeypatch, bundle: _corrupt_a_letter_product(bundle),
    "unsigned-antipode": _patch(_unsigned_antipode),
}

CASES = 40


@pytest.mark.parametrize("name", list(TEXTS))
@pytest.mark.parametrize("mutation", list(MUTATIONS))
def test_engine_check_fails_wherever_a_sampled_leg_fails(monkeypatch, mutation, name):
    bundle = parse_definition_text(TEXTS[name])
    mutated = MUTATIONS[mutation](monkeypatch, bundle)
    (report,) = run_checks(bundle, only=["engine"], engine_cases=CASES)
    alg = bundle.algebra
    monos = restricted_monomials(alg)
    legs = [leg(alg, monos, random.Random(0), CASES) for leg in (assoc_cases, _hopf_leg)]
    if not mutated:
        assert report.status == "pass", report
        assert legs == [(True, f"{CASES} cases per property")] * 2
    elif not all(ok for ok, _ in legs):
        assert report.status == "fail", (legs, report)
    if mutated and name == "gl11-p3":
        # every mutation reaches a sampled leg somewhere, so no row of the
        # implication holds only because its legs cannot fail
        assert not all(ok for ok, _ in legs), legs
