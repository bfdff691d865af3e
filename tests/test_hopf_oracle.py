"""Differential test of the engine check's Hopf leg against its per-case loop.

``oracle_hopf_cases`` checks the antipode and counit axioms case by case:
for each sampled u it expands coproduct(u), contracts it through the
antipode on either side (``oracle_contraction``) and compares each with
counit(u) 1, then reads (counit | id) and (id | counit) off the terms with a
leg 1.  ``checks._hopf_leg`` instead checks each distinct drawn monomial
once, with no case sums, and fails a case when one of its monomials breaks
an axiom.  The two rules agree wherever no two defects cancel within a
case.  Both draw the same cases from the same random stream, so they must
give the same (ok, message) and leave the stream in the same state, on
clean inputs and under the engine controls.
"""

import random

import pytest

from superpbw import catalog_names, load_bundle, run_checks
from superpbw import checks as checks_module
from superpbw.checks import _hopf_leg, _random_restricted
from superpbw.pbw import (
    PBWEngine,
    UElement,
    _add_scaled,
    coproduct,
    counit,
    get_engine,
    restricted_monomials,
)

from test_check_controls import (
    _bump_even_binomial,
    _corrupt_a_prefix_product,
    _fresh,
    _unsigned_coproduct_coeff,
)


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


@pytest.mark.parametrize("name", catalog_names())
def test_hopf_leg_matches_the_per_case_loop(name):
    alg = load_bundle(name).algebra
    monos = restricted_monomials(alg)
    for seed in range(5):
        rng, twin = random.Random(seed), random.Random(seed)
        want = oracle_hopf_cases(alg, monos, twin, 150)
        assert _hopf_leg(alg, monos, rng, 150) == want == (True, "150 cases per property")
        assert rng.getstate() == twin.getstate(), seed


def _leg_beside_its_oracle(monkeypatch):
    """Make the engine check run the oracle on a copy of its stream before
    each Hopf leg; return the list of (leg, oracle, same stream) it fills."""
    seen = []

    def both(alg, monos, rng, cases):
        twin = random.Random()
        twin.setstate(rng.getstate())
        want = oracle_hopf_cases(alg, monos, twin, cases)
        got = _hopf_leg(alg, monos, rng, cases)
        seen.append((got, want, rng.getstate() == twin.getstate()))
        return got

    monkeypatch.setattr(checks_module, "_hopf_leg", both)
    return seen


def _agree_on_failure(seen, report, witness):
    assert (report.status, report.witness) == ("fail", witness)
    assert seen == [((False, witness), (False, witness), True)]


def test_oracle_agrees_without_the_coproduct_sign(monkeypatch):
    _unsigned_coproduct_coeff(monkeypatch)
    seen = _leg_beside_its_oracle(monkeypatch)
    (report,) = run_checks(_fresh("gl11-p3"), only=["engine"])
    _agree_on_failure(seen, report, "antipode axiom fails at case 39")


def test_oracle_agrees_on_a_bumped_even_binomial(monkeypatch):
    _bump_even_binomial(monkeypatch)
    seen = _leg_beside_its_oracle(monkeypatch)
    (report,) = run_checks(_fresh("sl2-p3"), only=["engine"])
    _agree_on_failure(seen, report, "antipode axiom fails at case 0")


def test_oracle_agrees_on_a_corrupted_prefix_product(monkeypatch):
    bundle = _fresh("sl2-p3")
    _corrupt_a_prefix_product(bundle)
    seen = _leg_beside_its_oracle(monkeypatch)
    (report,) = run_checks(bundle, only=["engine"], engine_cases=40)
    _agree_on_failure(seen, report, "antipode axiom fails at case 0")


def test_oracle_agrees_on_a_doubled_coproduct(monkeypatch):
    # twice the coproduct of every monomial but 1 keeps each antipode
    # contraction at counit(m) 1 = 0 and doubles (counit | id) coproduct(m)
    clean = PBWEngine.coproduct_mono

    def doubled(eng, m):
        terms = clean(eng, m)
        if not any(m):
            return terms
        return {k: 2 * c % eng.p for k, c in terms.items()}

    monkeypatch.setattr(PBWEngine, "coproduct_mono", doubled)
    seen = _leg_beside_its_oracle(monkeypatch)
    (report,) = run_checks(_fresh("sl2-p3"), only=["engine"])
    _agree_on_failure(seen, report, "counit axiom fails at case 0")


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
    clean = checks_module._hopf_defects

    def defects(eng, m):
        return (planted[m], {}, {}, {}) if m in planted else clean(eng, m)

    monkeypatch.setattr(checks_module, "_hopf_defects", defects)
    got = _hopf_leg(alg, monos, random.Random(seed), 150)
    assert got == (False, "antipode axiom fails at case 0")
