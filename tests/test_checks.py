import gc
import json
import weakref

import pytest

from superpbw import (
    UElement,
    all_passed,
    check_names,
    coproduct,
    load_bundle,
    parse_definition_text,
    run_checks,
)
from superpbw.catalog import CATALOG
from superpbw.pbw import PBWEngine

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
        run_checks(bundle, only=["phi-r-balance"], samples=2)
        # a U tensor U product fills the engine's table of monomial products
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


def test_every_report_is_timed():
    # each check body runs its legs through the timing wrapper, so every
    # report that did work carries a positive time
    reports = run_checks(load_bundle("abelian1-p3"), samples=5, engine_cases=40)
    for r in reports:
        if r.status != "skipped":
            assert r.seconds > 0, r
