"""End-to-end acceptance battery.

One test per top-level guarantee, in a fixed order; each prints a single
verdict line so a full run reads as a checklist.  Every comparison is an
exact equality over F_p; there are no tolerances anywhere.
"""

import time

import pytest

from superpbw import (
    balance_check,
    catalog_names,
    injectivity_witness_check,
    instance_pairs,
    level_raising_check,
    load_bundle,
    restricted_monomials,
    run_checks,
)


def _verdict(capsys, num, label, failures):
    ok = not failures
    with capsys.disabled():
        print(f"acceptance {num:02d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, "; ".join(failures[:5])


def _run_catalog(only, **kw):
    reports = []
    for name in catalog_names():
        reports.extend(run_checks(load_bundle(name), only=[only], **kw))
    return reports


def _failures(reports):
    return [
        f"{r.algebra}/{r.split}/{r.representation}: {r.witness}"
        for r in reports
        if r.status == "fail"
    ]


def test_criterion_01_restricted_basis_count(capsys):
    failures = []
    for name in catalog_names():
        bundle = load_bundle(name)
        alg = bundle.algebra
        n_tot = sum(1 for q in alg.parities if q == 0)
        m_tot = alg.dim - n_tot
        if len(restricted_monomials(alg)) != alg.p**n_tot * 2**m_tot:
            failures.append(f"{name}: basis count is off")
        for r in run_checks(bundle, only=["pbw-count"]):
            if r.status == "fail":
                failures.append(f"{name}: {r.witness}")
            if r.seconds >= 1.0:
                failures.append(f"{name}: took {r.seconds:.2f}s, bound is 1s")
    _verdict(capsys, 1, "restricted basis count", failures)


def test_criterion_02_primitive_elements(capsys):
    start = time.time()
    failures = _failures(_run_catalog("primitives"))
    elapsed = time.time() - start
    if elapsed >= 10.0:
        failures.append(f"primitive spaces took {elapsed:.2f}s, bound is 10s")
    _verdict(capsys, 2, "primitive elements", failures)


def test_criterion_03_dual_algebra_laws(capsys):
    failures = _failures(_run_catalog("mu-product"))
    covered = set()
    for name, split_name in instance_pairs():
        split = load_bundle(name).splits[split_name]
        covered.add((split.algebra.p, split.n_even, split.m_odd))
    for p in (3, 5):
        for n in range(3):
            for m in range(3):
                if (p, n, m) not in covered:
                    failures.append(f"no catalog split covers p={p}, n={n}, m={m}")
    _verdict(capsys, 3, "dual algebra product laws", failures)


def test_criterion_04_socle_character(capsys):
    # restricted plus the r = 0, 1 truncations on every split
    failures = _failures(_run_catalog("lambda-character", level=1))
    _verdict(capsys, 4, "socle character", failures)


def test_criterion_05_ind_coind_comparison(capsys):
    failures = []
    for name in catalog_names():
        for r in run_checks(load_bundle(name), only=["phi"]):
            if r.status == "fail":
                failures.append(f"{name}/{r.split}/{r.representation}: {r.witness}")
            elif r.status == "pass" and "twisted" not in r.details:
                failures.append(f"{name}/{r.split}/{r.representation}: twisted run missing")
            if r.algebra.endswith("p5") and r.seconds >= 5.0:
                failures.append(f"{name}/{r.split}: took {r.seconds:.2f}s, bound is 5s")
    _verdict(capsys, 5, "induced to coinduced comparison", failures)


def test_criterion_06_duality_pairing(capsys):
    failures = _failures(_run_catalog("psi"))
    _verdict(capsys, 6, "duality pairing rank and invariance", failures)


def test_criterion_07_pairing_factorization(capsys):
    failures = _failures(_run_catalog("comparison"))
    _verdict(capsys, 7, "pairing factorization", failures)


def test_criterion_08_annihilator_duality(capsys):
    failures = []
    p5_seconds = 0.0
    for name in catalog_names():
        for r in run_checks(load_bundle(name), only=["kernel-duality"]):
            if r.status == "fail":
                failures.append(f"{name}/{r.split}/{r.representation}: {r.witness}")
            if r.algebra.endswith("p5"):
                p5_seconds += r.seconds
                if r.seconds >= 30.0:
                    failures.append(f"{name}/{r.split}: took {r.seconds:.2f}s, bound is 30s")
    if p5_seconds >= 10.0:
        failures.append(f"p5 entries took {p5_seconds:.2f}s in total, bound is 10s")
    _verdict(capsys, 8, "annihilator duality", failures)


def test_criterion_09_truncated_window_lemmas(capsys):
    instances = [
        ("abelian1-p3", "zero"),
        ("oddline-p3", "zero"),
        ("sl2-p3", "borel"),
        ("sl2-p5", "borel"),
    ]
    start = time.time()
    failures = []
    for name, split_name in instances:
        bundle = load_bundle(name)
        split = bundle.splits[split_name]
        for rep in bundle.representations.values():
            if rep.split is not split:
                continue
            for level in (0, 1):
                for fn in (balance_check, level_raising_check, injectivity_witness_check):
                    ok, msg = fn(split, rep, level=level, seed=0, samples=100)
                    if not ok:
                        failures.append(
                            f"{fn.__name__} on {name}/{rep.name} at level {level}: {msg}"
                        )
    elapsed = time.time() - start
    if elapsed >= 10.0:
        failures.append(f"truncated window lemmas took {elapsed:.2f}s, bound is 10s")
    _verdict(capsys, 9, "truncated window lemmas", failures)


def test_criterion_10_volume_form_identification(capsys):
    failures = _failures(_run_catalog("omega-iso"))
    _verdict(capsys, 10, "volume form identification", failures)


def test_criterion_11_engine_self_consistency(capsys):
    start = time.time()
    failures = _failures(_run_catalog("engine", engine_cases=1000))
    elapsed = time.time() - start
    if elapsed >= 120.0:
        failures.append(f"engine battery took {elapsed:.2f}s, bound is 120s")
    _verdict(capsys, 11, "engine self consistency", failures)
