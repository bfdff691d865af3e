import gc
import json
import tracemalloc
import weakref
from collections import Counter

import pytest

from superpbw import (
    UElement,
    all_passed,
    check_names,
    coproduct,
    export_tables,
    load_bundle,
    parse_definition_text,
    run_checks,
)
from superpbw.catalog import CATALOG
from superpbw.pbw import PBWEngine, get_engine, product_relations_witness

from ladder import osp12

NO_REP = """\
algebra lonely
prime 3
generator e even
split zero :
"""


def test_check_names_are_stable():
    names = check_names()
    assert len(names) == len(set(names))
    for expected in ("validate", "pbw-count", "phi", "psi", "theta", "engine"):
        assert expected in names


def test_full_run_on_the_abelian_line():
    bundle = load_bundle("abelian1-p3")
    reports = run_checks(bundle, samples=5, engine_cases=40)
    assert all_passed(reports)
    assert {r.check for r in reports} == set(check_names())
    keys = [(r.check, r.algebra, r.split, r.representation) for r in reports]
    assert keys == sorted(keys)
    for r in reports:
        assert r.status in ("pass", "skipped")
        assert r.seconds >= 0


def test_selection_and_unknown_names():
    bundle = load_bundle("abelian1-p3")
    reports = run_checks(bundle, only=["pbw-count"], samples=3)
    assert {r.check for r in reports} == {"pbw-count"}
    assert all_passed(reports)
    with pytest.raises(KeyError) as info:
        run_checks(bundle, only=["pbw-count", "nonsense"])
    assert "nonsense" in str(info.value)


def test_a_repeated_name_runs_once():
    bundle = load_bundle("oddline-p3")
    once = run_checks(bundle, only=["mu-product"])
    twice = run_checks(bundle, only=["mu-product", "mu-product"])
    assert len(once) >= 1
    assert [r.machine_form() for r in twice] == [r.machine_form() for r in once]


def test_empty_selection_is_refused():
    with pytest.raises(ValueError, match="no checks selected"):
        run_checks(load_bundle("abelian1-p3"), only=[])


def test_machine_form_is_deterministic_and_timing_free():
    bundle = load_bundle("oddline-p3")
    one = [r.machine_form() for r in run_checks(bundle, samples=4, engine_cases=25)]
    two = [r.machine_form() for r in run_checks(bundle, samples=4, engine_cases=25)]
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)
    for form in one:
        assert "seconds" not in form
        assert set(form) >= {"check", "algebra", "split", "representation", "status"}


def test_split_without_representation_is_skipped():
    bundle = parse_definition_text(NO_REP)
    reports = run_checks(bundle, only=["phi"])
    assert len(reports) == 1
    assert reports[0].status == "skipped"
    assert all_passed(reports)  # skipped instances do not fail a run


def test_failing_algebra_is_reported_not_raised():
    # a representation-free bundle still runs the split-independent checks
    bundle = parse_definition_text(NO_REP)
    reports = run_checks(bundle, only=["pbw-count", "validate"], samples=2)
    assert all_passed(reports)
    assert {r.check for r in reports} == {"pbw-count", "validate"}


def test_dropped_bundle_is_freed_without_the_cycle_collector():
    # engines are cached on their algebra; an engine holding the algebra
    # strongly would keep both, with every memo, alive until a full collection
    gc.collect()
    gc.disable()
    try:
        bundle = parse_definition_text(CATALOG["sl2-p3"])
        run_checks(bundle, only=["kernel-duality"])
        run_checks(bundle, only=["phi-r-balance", "iota-compat", "phi-r-injectivity"], samples=2)
        # the split's store fills with generator matrices, subalgebra actions,
        # socles and their sections, annihilators and Berezin data; it must
        # hold no reference back to a split or module
        stored = [
            "phi", "psi", "theta", "comparison", "lambda-character", "kernel-duality", "omega-iso"
        ]
        assert all_passed(run_checks(bundle, only=stored))
        kinds = {key[0] for split in bundle.splits.values() for key in split._memo}
        assert {"lie-matrix", "socle-section", "h-monomial"} <= kinds
        # a U tensor U product fills the engine's product memo
        u = UElement.generator(bundle.algebra, 1)
        assert (coproduct(u) * coproduct(u)).terms
        del u
        algebra = weakref.ref(bundle.algebra)
        del bundle
        assert algebra() is None
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        assert not [obj for obj in gc.garbage if isinstance(obj, PBWEngine)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


# dict attributes of an engine that are not monomial memos: the letter
# ranks, the intern map itself, and the (ad y)^i(g) coordinate vectors
_NOT_MEMOS = {"rank", "_interned", "_ad_cache"}


def _monomials_in(obj, dim):
    """Every monomial, a tuple of dim ints, in nested dict keys and values
    and tuples."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _monomials_in(k, dim)
            yield from _monomials_in(v, dim)
    elif isinstance(obj, tuple):
        if len(obj) == dim and all(isinstance(e, int) for e in obj):
            yield obj
        else:
            for x in obj:
                yield from _monomials_in(x, dim)


def _memo_monomials(eng):
    """Every monomial held by any dict memo of the engine, each found by
    walking the engine's attributes."""
    memos = {k: v for k, v in vars(eng).items() if isinstance(v, dict) and k not in _NOT_MEMOS}
    assert {"_mul_cache", "_letter_cache", "_coprod_cache", "_antipode_cache"} <= set(memos)
    for memo in memos.values():
        yield from _monomials_in(memo, eng.algebra.dim)


def _assert_one_tuple_per_monomial(algebra):
    engines = {id(eng): eng for eng in algebra._engine_cache.values()}.values()
    # the split-priority engines of phi and the unrestricted one of primitives
    assert len(engines) > 2
    default = get_engine(algebra)
    assert default._mul_cache and default._letter_cache
    for eng in engines:
        for m in _memo_monomials(eng):
            assert eng._interned.get(m) is m, (eng.order, eng.level, m)


@pytest.mark.parametrize("name", ["sl2-p3", "gl11-p3"])
def test_engine_memos_hold_one_tuple_per_monomial(name):
    # every monomial an engine memoizes, in keys and in values, is the
    # engine's interned tuple
    gc.collect()
    gc.disable()
    try:
        bundle = parse_definition_text(CATALOG[name])
        reports = run_checks(bundle, only=["primitives", "phi", "engine"], engine_cases=20)
        assert all_passed(reports)
        assert export_tables(bundle, "multiplication")
        _assert_one_tuple_per_monomial(bundle.algebra)
        # the intern map refers to no engine: the algebra still dies at once
        algebra = weakref.ref(bundle.algebra)
        del bundle
        assert algebra() is None
    finally:
        gc.enable()


def test_every_report_is_timed():
    # each check body runs its legs through the timing wrapper, so every
    # report that did work carries a positive time
    reports = run_checks(load_bundle("abelian1-p3"), samples=5, engine_cases=40)
    for r in reports:
        if r.status != "skipped":
            assert r.seconds > 0, r


def test_counts_that_check_nothing_are_refused():
    bundle = load_bundle("sl2-p3")
    for kwargs, word in (
        ({"level": -1}, "level"),
        ({"samples": 0}, "samples"),
        ({"samples": -3}, "samples"),
        ({"engine_cases": -5}, "engine cases"),
    ):
        with pytest.raises(ValueError, match=word):
            run_checks(bundle, only=["engine"], **kwargs)


# An even b and an odd x with [b, x] = x and b^[3] = b, declared in both
# orders; bracket and pmap vectors run over the generators as declared.
ORDER_HEADS = (
    "generator x odd\ngenerator b even\nbracket b x : 1 0\npmap b : 0 1\n",
    "generator b even\ngenerator x odd\nbracket b x : 0 1\npmap b : 1 0\n",
)
ORDER_TAIL = """\
split zero :
split bline : b
representation triv zero 1
repbasis triv : 0
representation btriv bline 1
repbasis btriv : 0
"""


def _statuses(bundle) -> dict:
    return {(r.check, r.split, r.representation): r.status for r in run_checks(bundle)}


def test_verdicts_do_not_depend_on_declaration_order():
    # c = {b, x} on the zero split multiplies b before x whichever is
    # declared first; witnesses name generators by index, so compare statuses
    x_first, b_first = (
        _statuses(parse_definition_text(f"algebra order\nprime 3\n{head}{ORDER_TAIL}"))
        for head in ORDER_HEADS
    )
    assert x_first == b_first
    for check in ("engine", "phi", "theta", "kernel-duality", "omega-iso"):
        assert all(s == "pass" for (c, _, _), s in x_first.items() if c == check), check


def _odd_first(text: str) -> str:
    """The definition with its odd generators declared first: generator lines
    reordered, bracket and pmap vectors permuted to the new order, and
    character values to the new order of their subalgebra generators."""
    lines = text.strip().splitlines()
    parity = dict(line.split()[1:] for line in lines if line.startswith("generator "))
    old = list(parity)
    new = [g for g in old if parity[g] == "odd"] + [g for g in old if parity[g] == "even"]
    splits = {}
    out = lines[:2] + [f"generator {g} {parity[g]}" for g in new]
    for line in lines[2:]:
        head, _, tail = line.partition(" : ")
        kw = head.split()[0]
        if kw == "generator":
            continue
        if kw in ("bracket", "pmap"):
            coords = tail.split()
            tail = " ".join(coords[old.index(name)] for name in new)
        elif kw == "split":
            splits[head.split()[1]] = line.partition(":")[2].split()
        elif kw == "character":
            h_old = sorted(splits[head.split()[2]], key=old.index)
            value = dict(zip(h_old, tail.split()))
            tail = " ".join(value[name] for name in sorted(h_old, key=new.index))
        out.append(f"{head} : {tail}" if tail else line)
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("name,reordered", [("abelian22-p3", 4), ("gl11-p3", 0), ("heis-p3", 0)])
def test_odd_first_declarations_pass_every_check(name, reordered):
    bundle = parse_definition_text(_odd_first(CATALOG[name]))
    clean = load_bundle(name)
    assert bundle.algebra.parities == tuple(sorted(clean.algebra.parities, reverse=True))
    assert set(bundle.splits) == set(clean.splits)
    assert set(bundle.representations) == set(clean.representations)

    def by_name(b):
        names = b.algebra.names
        return {
            c: {names[h]: v for h, v in zip(chi.split.h_indices, chi.values)}
            for c, chi in b.characters.items()
        }

    assert by_name(bundle) == by_name(clean)
    # splits whose complement order, evens first, is not the declaration order
    differ = [s for s in bundle.splits.values() if list(s.c_indices) != sorted(s.c_indices)]
    assert len(differ) == reordered
    reports = run_checks(bundle, samples=5, engine_cases=40)
    assert all(r.status == "pass" for r in reports), [r for r in reports if r.status != "pass"]


def test_engine_on_osp12_p3_stays_under_3_mib():
    # 108 restricted monomials; the product relations and the coproduct
    # chain are certified on dicts (1.9 MiB traced), where a table of the
    # monomial products its sampled cases asked for took 3.8 MiB
    bundle = parse_definition_text(osp12(3))
    tracemalloc.start()
    try:
        (report,) = run_checks(bundle, only=["engine"], engine_cases=50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.status, report.details) == ("pass", "50 cases per property"), report
    assert peak < 3 * 2**20, peak


def test_engine_on_osp12_p5_stays_under_10_mib():
    # 500 restricted monomials at the default 150 cases: the antipode chain
    # holds one antipode per monomial (6.2 MiB traced); the sampled Hopf
    # and restricted associativity legs it replaced took 25.3 MiB
    bundle = parse_definition_text(osp12(5))
    tracemalloc.start()
    try:
        (report,) = run_checks(bundle, only=["engine"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.status, report.details) == ("pass", "150 cases per property"), report
    assert peak < 10 * 2**20, peak


def test_engine_on_sl2_p5_certifies_the_antipode_with_few_products(monkeypatch):
    # the antipode chain takes two antipodes per monomial and one left
    # product b_g s per term of S(m'): 373 antipode_mono and 11,463
    # mul_mono calls.  The sampled Hopf and restricted associativity legs
    # it replaced made 5,850 and 35,743
    calls = Counter()
    for name in ("antipode_mono", "mul_mono"):

        def counted(*args, _clean=getattr(PBWEngine, name), _name=name):
            calls[_name] += 1
            return _clean(*args)

        monkeypatch.setattr(PBWEngine, name, counted)
    bundle = parse_definition_text(CATALOG["sl2-p5"])
    (report,) = run_checks(bundle, only=["engine"])
    assert report.status == "pass", report
    assert calls["antipode_mono"] <= 500, calls
    assert calls["mul_mono"] <= 15000, calls


def test_relation_certificate_on_sl2_p5_folds_each_column_once(monkeypatch):
    # the certificate folds each of the 125 window monomials by each of the
    # 3 letters once (377 _fold and 766 mul_letter calls, recursion
    # included) and checks the relations among those maps; the
    # per-monomial loop it replaced refolded multi-term images once per
    # bracket pair and p - 1 times per even letter (1,627 and 4,147)
    calls = Counter()
    for name in ("_fold", "mul_letter"):

        def counted(*args, _clean=getattr(PBWEngine, name), _name=name):
            calls[_name] += 1
            return _clean(*args)

        monkeypatch.setattr(PBWEngine, name, counted)
    bundle = parse_definition_text(CATALOG["sl2-p5"])
    assert product_relations_witness(get_engine(bundle.algebra)) == ""
    assert calls["_fold"] <= 400, calls
    assert calls["mul_letter"] <= 800, calls


def test_engine_on_sl2_p5_takes_at_most_7000_antipodes(monkeypatch):
    # 373 antipode_mono calls, recursion included, since the antipode chain
    # replaced the sampled Hopf leg (5,850; 12,250 when each sampled element
    # was evaluated afresh on both sides)
    calls = []
    clean = PBWEngine.antipode_mono

    def counted(eng, m):
        calls.append(m)
        return clean(eng, m)

    monkeypatch.setattr(PBWEngine, "antipode_mono", counted)
    bundle = parse_definition_text(CATALOG["sl2-p5"])
    (report,) = run_checks(bundle, only=["engine"], seed=0, engine_cases=150)
    assert report.status == "pass", report
    assert len(calls) <= 7000, len(calls)


def test_engine_on_sl2_p5_makes_at_most_80000_append_tests(monkeypatch):
    # mul_letter looks up its memo before it tests for an append, so a fold
    # step that already ruled an append out tests once: 41,390 _append
    # calls since the antipode chain replaced the sampled legs (75,166
    # before); testing again in mul_letter made 103,596
    calls = []
    clean = PBWEngine._append

    def counted(eng, m, g):
        calls.append(g)
        return clean(eng, m, g)

    monkeypatch.setattr(PBWEngine, "_append", counted)
    bundle = parse_definition_text(CATALOG["sl2-p5"])
    (report,) = run_checks(bundle, only=["engine"], seed=0, engine_cases=150)
    assert report.status == "pass", report
    assert len(calls) <= 80000, len(calls)
