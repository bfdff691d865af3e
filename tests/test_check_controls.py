"""Negative controls run through run_checks: each check rejects a mutated input.

Every control parses its catalog entry afresh, so the memos a mutation
reaches belong to that parse alone.  Only status and witness are asserted:
a failing report keeps the message of the last leg that passed as details.
"""

import re

import pytest

from superpbw import duality, parse_definition_text, pbw, run_checks
from superpbw import checks as checks_module
from superpbw.algebra import LieSuperAlgebra
from superpbw.berezin import BerezinSections
from superpbw.catalog import CATALOG
from superpbw.modules import CoordinateAlgebra
from superpbw.pbw import PBWEngine, TensorSquare, get_engine, split_engine

from ladder import SL2_HLINE_P3
from test_pbw_oracle import _with_bracket_coefficient_bumped


def _fresh(name):
    return parse_definition_text(CATALOG[name])


def _failures(name, check, **kwargs):
    reports = run_checks(_fresh(name), only=[check], **kwargs)
    assert reports
    for r in reports:
        assert r.status == "fail", r
    return reports


def test_pbw_count_rejects_a_missing_monomial(monkeypatch):
    clean = checks_module.restricted_monomials
    monkeypatch.setattr(checks_module, "restricted_monomials", lambda alg: clean(alg)[:-1])
    (report,) = _failures("sl2-p3", "pbw-count")
    assert report.witness == "basis has 26 monomials, expected 27"


def _bump_closed_coproduct(monkeypatch):
    clean = duality._closed_coproduct_coeff

    def bumped(split, cm1, cm2):
        c = clean(split, cm1, cm2)
        return (c + 1) % split.algebra.p if any(cm1) and any(cm2) else c

    monkeypatch.setattr(duality, "_closed_coproduct_coeff", bumped)


def test_mu_product_rejects_a_bumped_closed_law(monkeypatch):
    _bump_closed_coproduct(monkeypatch)
    reports = run_checks(_fresh("sl2-p3"), only=["mu-product"])
    (report,) = [r for r in reports if r.split == "borel"]
    assert (report.status, report.witness) == ("fail", "product law fails at (1,) * (1,)")


def test_psi_rejects_a_bumped_closed_law(monkeypatch):
    _bump_closed_coproduct(monkeypatch)
    reports = [r for r in run_checks(_fresh("sl2-p3"), only=["psi"]) if r.split == "borel"]
    assert reports
    for r in reports:
        assert (r.status, r.witness) == ("fail", "convolution and splitting routes disagree"), r


def _unsigned_coproduct_coeff(monkeypatch):
    """The closed coproduct coefficient with the odd-letter sign dropped."""
    clean = PBWEngine.coproduct_coeff

    def unsigned(eng, m1, m2):
        q = eng.algebra.parities
        if any(q[g] and m1[g] and m2[g] for g in range(len(m1))):
            return 0
        evens = [tuple(0 if q[g] else e for g, e in enumerate(m)) for m in (m1, m2)]
        return clean(eng, *evens)

    monkeypatch.setattr(PBWEngine, "coproduct_coeff", unsigned)


def test_mu_product_rejects_a_coproduct_coefficient_without_its_sign(monkeypatch):
    _unsigned_coproduct_coeff(monkeypatch)
    reports = run_checks(_fresh("abelian22-p3"), only=["mu-product"])
    failed = {r.split: r.witness for r in reports if r.status == "fail"}
    assert failed == {
        "evenh": "product law fails at (0, 0, 1) * (0, 1, 0)",
        "evens": "product law fails at (0, 1) * (1, 0)",
        "zero": "product law fails at (0, 0, 0, 1) * (0, 0, 1, 0)",
    }


def test_engine_rejects_a_coproduct_coefficient_without_its_sign(monkeypatch):
    _unsigned_coproduct_coeff(monkeypatch)
    (report,) = _failures("gl11-p3", "engine")
    assert report.witness == "coproduct multiplicativity fails at (0, 0, 1, 0) times b_3"


def _bump_even_binomial(monkeypatch):
    """C(a + b, a) + 1 on the even letter b_0 whenever both legs hold it."""
    clean = PBWEngine.coproduct_coeff

    def bumped(eng, m1, m2):
        c = clean(eng, m1, m2)
        return (c + 1) % eng.algebra.p if m1[0] and m2[0] else c

    monkeypatch.setattr(PBWEngine, "coproduct_coeff", bumped)


def test_primitives_reject_a_bumped_even_binomial(monkeypatch):
    _bump_even_binomial(monkeypatch)
    (report,) = _failures("sl2-p3", "primitives")
    assert report.witness == "restricted primitives have dimension 4, expected 3"


def test_engine_rejects_a_bumped_even_binomial(monkeypatch):
    _bump_even_binomial(monkeypatch)
    (report,) = _failures("sl2-p3", "engine")
    assert report.witness == "coproduct multiplicativity fails at (1, 0, 0) times b_0"


def test_psi_rejects_bumped_mixed_even_coefficients(monkeypatch):
    # +1 on every coefficient with an even letter in both legs: the engine's
    # Gram route moves and the closed-law route does not, so the two
    # disagree on every split with an even complement letter
    clean = PBWEngine.coproduct_coeff

    def bumped(eng, m1, m2):
        c = clean(eng, m1, m2)
        q = eng.algebra.parities
        mixed = any(not q[g] and m1[g] and m2[g] for g in range(len(m1)))
        return (c + 1) % eng.algebra.p if mixed else c

    monkeypatch.setattr(PBWEngine, "coproduct_coeff", bumped)
    reports = run_checks(_fresh("abelian22-p3"), only=["psi"])
    failed = {r.split: r.witness for r in reports if r.status == "fail"}
    assert failed == dict.fromkeys(
        ["evenh", "half", "oddh", "odds", "zero"], "convolution and splitting routes disagree"
    )


@pytest.mark.parametrize(
    "window, coeff, witness",
    [
        (True, False, ""),
        (False, True, ""),
        (True, True, "dual monomial (1,) does not kill the socle"),
    ],
)
def test_lambda_character_kill_leg_needs_two_faults(monkeypatch, window, coeff, witness):
    # cm + top leaves the window for every positive cm, and where the window
    # test is dropped the closed law still gives 0: C(a + b, a) is 0 mod p
    # for a, b < p <= a + b, and an odd letter in both legs gives 0.  So the
    # leg fails only with both faults.  The socles are built clean first, so
    # the support leg passes.
    bundle = _fresh("sl2-p3")
    for split in bundle.splits.values():
        for level in (None, 0, 1):
            duality.socle_level(split, level)
    if window:
        monkeypatch.setattr(CoordinateAlgebra, "in_window", lambda alg, c_exps: True)
    if coeff:
        monkeypatch.setattr(PBWEngine, "coproduct_coeff", lambda eng, m1, m2: 1)
    reports = {r.split: r for r in run_checks(bundle, only=["lambda-character"])}
    assert reports["all"].status == "pass"
    assert (reports["borel"].status == "fail", reports["borel"].witness) == (bool(witness), witness)


def test_psi_reports_an_empty_socle(monkeypatch):
    clean = duality.socle_level

    def empty(split, level=None):
        return {} if level is None else clean(split, level)

    monkeypatch.setattr(duality, "socle_level", empty)
    for r in _failures("abelian22-p3", "psi"):
        assert r.witness == "socle section is zero", r


def test_theta_rejects_a_negated_dual_action(monkeypatch):
    clean = duality.dual_action_matrix
    monkeypatch.setattr(
        duality, "dual_action_matrix", lambda *args: -clean(*args) % args[-1]
    )
    for r in _failures("sl2-p3", "theta"):
        assert r.witness == "generator b_0 breaks the dual-map equivariance", r


def test_theta_and_comparison_reject_the_dual_map_in_the_right_engine(monkeypatch):
    # on sl2 split at the line of h, [e, f] = h is a subalgebra letter, so
    # the antipode of e f splits differently in the engine whose order puts
    # h on the wrong side, and that gives another dual map
    reports = run_checks(parse_definition_text(SL2_HLINE_P3))
    assert reports and all(r.status == "pass" for r in reports)
    monkeypatch.setattr(
        duality, "split_engine", lambda split, restricted, side: split_engine(split, restricted, "right")
    )
    witnesses = {
        "theta": "generator b_1 breaks the dual-map equivariance",
        "comparison": "transpose(phi) @ curried gram differs from the dual map",
    }
    reports = run_checks(parse_definition_text(SL2_HLINE_P3), only=list(witnesses))
    assert len(reports) == 4
    for r in reports:
        assert (r.status, r.witness) == ("fail", witnesses[r.check]), r


def _corrupt_a_letter_product(bundle):
    """Fill the engine memo with a clean run, bump one coefficient of the
    least memoized letter product that has terms, and drop the memoized
    monomial products, so that each is rebuilt through the bumped one;
    False when no memoized letter product has terms."""
    (clean,) = run_checks(bundle, only=["engine"], engine_cases=40)
    assert clean.status == "pass"
    eng = get_engine(bundle.algebra)
    keys = [k for k, product in eng._letter_cache.items() if product]
    if not keys:
        return False
    product = eng._letter_cache[min(keys)]
    mono = min(product)
    product[mono] = (product[mono] + 1) % bundle.algebra.p
    eng._mul_cache.clear()
    return True


def test_engine_rejects_a_corrupted_letter_product():
    # the clean run fills the straightening memo of this private parse;
    # corrupting one memoized product that is not a bare append breaks a
    # defining relation on the fold, which the relation certificate names
    bundle = _fresh("sl2-p3")
    assert _corrupt_a_letter_product(bundle)
    (report,) = run_checks(bundle, only=["engine"], engine_cases=40)
    witness = "bracket relation fails at (0, 0, 0) b_0 b_2"
    assert (report.status, report.witness) == ("fail", witness)


@pytest.mark.parametrize(
    "name, sname, side, cases, seeds, witness",
    [
        (
            "sl2-p3", "borel", "right", 40, (0, 1, 2),
            "bracket relation fails at (0, 0, 0) b_0 b_1 in split borel (right)",
        ),
        (
            "abelian22-p3", "oddh", "left", 150, (1,),
            "bracket relation fails at (0, 0, 0, 0) b_0 b_2 in split oddh (left)",
        ),
    ],
    ids=["sl2-p3-borel-right", "abelian22-p3-oddh-left"],
)
def test_engine_rejects_a_corrupted_split_engine_product(name, sname, side, cases, seeds, witness):
    # the clean run certifies each split engine's fold, filling its memo;
    # bumping that engine's least memoized letter product with terms breaks
    # a defining relation on its fold, which the certificate names with the
    # split and side.  It draws nothing, so no seed hides the fault: a
    # sampled round trip into each split engine and back passed the oddh
    # corruption at 150 cases and seed 1
    bundle = _fresh(name)
    (clean,) = run_checks(bundle, only=["engine"], engine_cases=cases)
    assert clean.status == "pass"
    eng = split_engine(bundle.splits[sname], True, side)
    assert eng is not get_engine(bundle.algebra)
    product = eng._letter_cache[min(k for k, terms in eng._letter_cache.items() if terms)]
    mono = min(product)
    product[mono] = (product[mono] + 1) % bundle.algebra.p
    for seed in seeds:
        (report,) = run_checks(bundle, only=["engine"], engine_cases=cases, seed=seed)
        assert (report.status, report.witness) == ("fail", witness), seed


def _corrupt_a_prefix_product(bundle):
    """Fill the engine memo with a clean run, then corrupt one memoized
    product that others extend and drop those; return the dropped keys.

    A new restricted product extends the memoized product of its right
    factor less the last letter, so asking for a dropped product again
    rebuilds it from the corrupted one.  No key is dropped, and nothing
    corrupted, when no memoized product is extended by another."""
    (clean,) = run_checks(bundle, only=["engine"], engine_cases=40)
    assert clean.status == "pass"
    eng = get_engine(bundle.algebra)
    cache = eng._mul_cache

    def extends(short, long):
        a, b = eng.word_of(short[1]), eng.word_of(long[1])
        return short[0] == long[0] and len(a) < len(b) and b[: len(a)] == a

    keys = [k for k in cache if any(k[1]) and any(extends(k, k2) for k2 in cache)]
    if not keys:
        return []
    key = min(keys)
    built_on = [k2 for k2 in cache if extends(key, k2)]
    product = cache[key]
    mono = min(product)
    product[mono] = (product[mono] + 1) % bundle.algebra.p
    for k2 in built_on:
        del cache[k2]
    return built_on


def test_engine_rejects_a_corrupted_prefix_product():
    bundle = _fresh("sl2-p3")
    built_on = _corrupt_a_prefix_product(bundle)
    eng = get_engine(bundle.algebra)
    (report,) = run_checks(bundle, only=["engine"], engine_cases=40)
    witness = "antipode chain fails at (0, 1, 0) times b_2"
    assert (report.status, report.witness) == ("fail", witness)
    # every product built on it carries the corruption once rebuilt
    clean_eng = PBWEngine(bundle.algebra)
    assert built_on
    assert all(eng.mul_mono(*k2) != clean_eng.mul_mono(*k2) for k2 in built_on)


def _unsigned_tensor_mul(x, y):
    """TensorSquare.__mul__ with the Koszul sign dropped:
    (a1|a2)(b1|b2) = (a1 b1 | a2 b2)."""
    eng = get_engine(x.algebra, x.restricted)
    out = {}
    for (a1, a2), c1 in x.terms.items():
        for (b1, b2), c2 in y.terms.items():
            for m1, t1 in eng.mul_mono(a1, b1).items():
                for m2, t2 in eng.mul_mono(a2, b2).items():
                    out[m1, m2] = out.get((m1, m2), 0) + c1 * c2 * t1 * t2
    return TensorSquare(x.algebra, x.restricted, out)


def test_engine_rejects_a_tensor_product_without_the_koszul_sign(monkeypatch):
    # gl11-p3's odd generators are b_2 and b_3: the first monomial of the
    # chain whose product meets an odd right leg with an odd left leg is
    # b_2 b_3, the append of b_3 to b_2
    monkeypatch.setattr(TensorSquare, "__mul__", _unsigned_tensor_mul)
    witness = "coproduct multiplicativity fails at (0, 0, 1, 0) times b_3"
    assert pbw.multiplicativity_witness(_fresh("gl11-p3").algebra) == witness
    (report,) = _failures("gl11-p3", "engine")
    assert report.witness == witness


def test_multiplicativity_certificate_rejects_a_corrupted_letter_product():
    # the clean run fills the straightening memo of this private parse; the
    # chain reads no letter product, so only the relation certificate,
    # which folds through mul_letter, sees the bumped one
    bundle = _fresh("sl2-p3")
    assert _corrupt_a_letter_product(bundle)
    get_engine(bundle.algebra)._coprod_cache.clear()
    witness = "bracket relation fails at (0, 0, 0) b_0 b_2"
    assert pbw.product_relations_witness(get_engine(bundle.algebra)) == witness
    assert pbw.multiplicativity_witness(bundle.algebra) == ""


def test_multiplicativity_certificate_rejects_a_bumped_even_binomial(monkeypatch):
    # (h | h) in the coproduct of h^2 is C(2, 1) + 1 = 0 mod 3
    _bump_even_binomial(monkeypatch)
    witness = "coproduct multiplicativity fails at (1, 0, 0) times b_0"
    assert pbw.multiplicativity_witness(_fresh("sl2-p3").algebra) == witness


def _unsigned_antipode(monkeypatch):
    """antipode_mono with the Koszul sign of its first-letter recursion
    dropped: S(x rest) = -S(rest) x."""

    def unsigned(eng, m):
        hit = eng._antipode_cache.get(m)
        if hit is not None:
            return hit
        out = {m: 1}
        if any(m):
            x = next(g for g in eng.order if m[g])
            out = {}
            for m2, c in eng.antipode_mono(m[:x] + (m[x] - 1,) + m[x + 1 :]).items():
                pbw._add_scaled(out, eng.mul_letter(m2, x), -c, eng.p)
        return eng._store(eng._antipode_cache, eng._intern(m), out)

    monkeypatch.setattr(PBWEngine, "antipode_mono", unsigned)


@pytest.mark.parametrize(
    "name, witness",
    [
        ("gl11-p3", "antipode chain fails at (0, 0, 1, 0) times b_3"),
        ("heis-p3", "antipode chain fails at (0, 1, 0) times b_2"),
    ],
)
def test_engine_rejects_an_antipode_without_its_odd_sign(monkeypatch, name, witness):
    # the first monomial whose first letter and rest are both odd is the
    # product of the first two odd generators, the append of the second
    _unsigned_antipode(monkeypatch)
    assert pbw.antipode_chain_witness(_fresh(name).algebra) == witness
    (report,) = _failures(name, "engine")
    assert report.witness == witness


def test_engine_rejects_a_corrupted_antipode_memo():
    # the clean run fills the antipode memo of this private parse; the top
    # monomial h^2 e^2 f^2 is no other monomial's prefix, so only its own
    # step of the chain reads the bumped entry
    bundle = _fresh("sl2-p3")
    (clean,) = run_checks(bundle, only=["engine"])
    assert clean.status == "pass"
    eng = get_engine(bundle.algebra)
    image = eng._antipode_cache[max(eng._antipode_cache)]
    mono = min(image)
    image[mono] = (image[mono] + 1) % bundle.algebra.p
    (report,) = run_checks(bundle, only=["engine"])
    witness = "antipode chain fails at (2, 2, 1) times b_2"
    assert (report.status, report.witness) == ("fail", witness)


def _with_p_map_bumped(alg, x, k):
    """A copy of alg with b_k added to the p-map image of the even b_x."""
    brackets = {(i, j): alg.bracket_coords(i, j) for i in range(alg.dim) for j in range(i, alg.dim)}
    p_map = dict(alg.p_map)
    p_map[x] = tuple(c + (g == k) for g, c in enumerate(p_map[x]))
    return LieSuperAlgebra(
        alg.p, alg.names, alg.parities, brackets, p_map, name=alg.name + "-mutated"
    )


@pytest.mark.parametrize(
    "name, mutate, witness",
    [
        ("sl2-p3", _with_bracket_coefficient_bumped, "bracket relation fails at (0, 0, 1) b_0 b_1"),
        ("gl11-p3", _with_bracket_coefficient_bumped, "bracket relation fails at (0, 0, 0, 1) b_0 b_2"),
        ("sl2-p3", lambda alg: _with_p_map_bumped(alg, 0, 1), "p-map relation fails at (0, 0, 1) b_0"),
    ],
)
def test_relation_certificate_names_the_broken_relation(name, mutate, witness):
    # a bumped bracket coefficient breaks the Jacobi identity, and
    # h^[p] = h + e is no p-map, as ad(h + e) is not (ad h)^p; the fold
    # reads the mutated constants, so a relation it must satisfy fails
    assert pbw.product_relations_witness(get_engine(mutate(_fresh(name).algebra))) == witness


def test_relation_certificate_passes_a_bumped_bracket_that_stays_valid():
    # heis-p3 with its one bracket coefficient bumped is still a restricted
    # Lie superalgebra, so the certificate must not fail it
    alg = _with_bracket_coefficient_bumped(_fresh("heis-p3").algebra)
    assert alg.is_valid()
    assert pbw.product_relations_witness(get_engine(alg)) == ""


def test_iota_compat_rejects_a_doubled_level_two_socle(monkeypatch):
    clean = duality.socle_level

    def doubled(split, level=None):
        lam = clean(split, level)
        if level != 2:
            return lam
        return {k: 2 * v % split.algebra.p for k, v in lam.items()}

    monkeypatch.setattr(duality, "socle_level", doubled)
    # on sl2's borel split w u is read at the top of the level-2 window,
    # the only place its socle is nonzero
    for name, count in (("heis-p3", 4), ("sl2-p3", 3)):
        reports = _failures(name, "iota-compat")
        assert len(reports) == count
        for r in reports:
            assert r.witness.startswith("level raise mismatch at window monomial "), r


def test_phi_r_injectivity_rejects_an_empty_level_one_socle(monkeypatch):
    clean = duality.socle_level
    monkeypatch.setattr(
        duality, "socle_level", lambda split, level=None: {} if level == 1 else clean(split, level)
    )
    reports = _failures("sl2-p3", "phi-r-injectivity")
    assert len(reports) == 3
    for r in reports:
        assert re.fullmatch(r"witness \(.*\) fails for leading monomial \(.*\)", r.witness), r


def _negate_divergence(monkeypatch):
    clean = BerezinSections.divergence

    def negated(sections, x):
        p = sections.split.algebra.p
        return {cm: -c % p for cm, c in clean(sections, x).items()}

    monkeypatch.setattr(BerezinSections, "divergence", negated)


def test_omega_iso_rejects_a_negated_divergence(monkeypatch):
    # the Lie matrices are built from the divergence, so a negated one moves
    # L_x off the coinduced action wherever the divergence is nonzero
    _negate_divergence(monkeypatch)
    witness = "constant-term map is not equivariant at b_0"
    reports = {r.split: r for r in run_checks(_fresh("sl2-p3"), only=["omega-iso"])}
    assert reports["all"].status == "pass"
    assert (reports["borel"].status, reports["borel"].witness) == ("fail", witness)
    (report,) = _failures("gl11-p3", "omega-iso")
    assert (report.split, report.witness) == ("sborel", witness)


def test_omega_iso_rejects_an_odd_partial_signed_by_the_earlier_letters(monkeypatch):
    # the sign of d/d(zeta_s) counts the odd letters after s in the dual
    # basis; counting those before s breaks the expansion of a derivation
    # on the first dual with two odd letters
    def earlier(coords, s, a):
        p = coords.split.algebra.p
        n = coords.split.n_even
        out = {}
        for cm, c in a.items():
            if cm[n + s]:
                sign = -1 if sum(cm[n : n + s]) % 2 else 1
                out[cm[: n + s] + (0,) + cm[n + s + 1 :]] = sign * c % p
        return out

    monkeypatch.setattr(CoordinateAlgebra, "partial_odd", earlier)
    reports = {r.split: r for r in run_checks(_fresh("abelian22-p3"), only=["omega-iso"])}
    witness = "derivation of b_2 is not spanned by the partials at (0, 1, 1)"
    assert (reports["evenh"].status, reports["evenh"].witness) == ("fail", witness)


def test_omega_iso_rejects_an_even_partial_scaled_by_the_exponent(monkeypatch):
    # d/d(eta_i) shifts the dual basis; scaling by the exponent, as on
    # monomials in the eta, is the rule of the other basis
    def scaled(coords, i, a):
        p = coords.split.algebra.p
        return {cm[:i] + (cm[i] - 1,) + cm[i + 1 :]: cm[i] * c % p for cm, c in a.items() if cm[i]}

    monkeypatch.setattr(CoordinateAlgebra, "partial_even", scaled)
    (report,) = _failures("abelian1-p3", "omega-iso")
    witness = "derivation of b_0 is not spanned by the partials at (2,)"
    assert (report.split, report.witness) == ("zero", witness)


def _not_a_split(kind):
    return f"{kind} coproduct of (1, 0, 0) has the term (1, 0, 0) | (1, 0, 0), not a split of it"


@pytest.mark.parametrize(
    "restricted, term, coeff, witness",
    [
        (True, "b0|b0", 1, _not_a_split("restricted")),
        (False, "b0|b0", 1, _not_a_split("unrestricted")),
        (True, "b0|1", 2, "restricted primitives miss b_0^1"),
    ],
    ids=["restricted-extra-term", "unrestricted-extra-term", "restricted-scaled-term"],
)
def test_primitives_names_the_generator_that_is_not_primitive(
    monkeypatch, restricted, term, coeff, witness
):
    # in the coproduct of b_0, on the restricted engine or on the
    # unrestricted one: an extra (b_0 | b_0) is no split of b_0, and the
    # primitives leg names the term; (b_0 | 1) scaled to 2 keeps every term
    # a split but takes b_0 out of the primitives
    clean = PBWEngine.coproduct_mono

    def mutated(eng, m):
        out = clean(eng, m)
        if eng.restricted == restricted and m == (1,) + (0,) * (len(m) - 1):
            out = dict(out)
            out[m, m if term == "b0|b0" else eng._zero_mono] = coeff
        return out

    monkeypatch.setattr(PBWEngine, "coproduct_mono", mutated)
    (report,) = _failures("sl2-p3", "primitives")
    assert report.witness == witness
