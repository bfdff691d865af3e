"""Named checks over a parsed definition, with stable structured reports.

Each check covers one slice of the theory: engine self-consistency, dual
algebra laws, the induced/coinduced comparison, the Gram duality, kernel
duality, the volume-form model, and the sampled level-r lemmas.  A check
returns one report per instance it touches; reports sort by check name
then instance so the machine output is byte-stable.  Timing is recorded
but kept out of the machine form.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .algebra import StructureError
from .berezin import berezinian_coinduced_check, socle_volume_killed
from .duality import (
    balance_check,
    coind_duality_gram,
    coind_to_ind_dual_map,
    gram_factorization_check,
    gram_invariance_check,
    injectivity_witness_check,
    kernel_duality_legs,
    level_raising_check,
    mu_product_check,
    phi_isomorphism_check,
    socle_character_check,
    theta_equivariance_check,
)
from .fp import EVEN
from .linalg import SubspaceBasis, rank, subspace_equal
from .modules import twisted_dual
from .pbw import (
    UElement,
    antipode,
    coproduct,
    counit,
    get_engine,
    monomials_of_degree_at_most,
    normal_order_split,
    primitive_space,
    restricted_monomials,
)


@dataclass
class CheckReport:
    """Outcome of one check on one instance."""

    check: str
    algebra: str
    split: str = ""
    representation: str = ""
    status: str = "pass"
    witness: str = ""
    details: str = ""
    dims: dict = field(default_factory=dict)
    seconds: float = 0.0

    def sort_key(self):
        return (self.check, self.algebra, self.split, self.representation)

    def machine_form(self) -> dict:
        """Everything but timing, so fixed inputs give identical bytes."""
        return {
            "check": self.check,
            "algebra": self.algebra,
            "split": self.split,
            "representation": self.representation,
            "status": self.status,
            "witness": self.witness,
            "details": self.details,
            "dims": {k: int(v) for k, v in sorted(self.dims.items())},
        }


@dataclass
class CheckOptions:
    seed: int = 0
    level: int = 1
    samples: int = 25
    engine_cases: int = 150


def _leg(report: CheckReport, fn, *args, **kwargs) -> bool:
    """Run one (ok, message) leg, folding its outcome into the report."""
    t0 = time.perf_counter()
    try:
        ok, msg = fn(*args, **kwargs)
    except StructureError as exc:
        ok, msg = False, str(exc)
    report.seconds += time.perf_counter() - t0
    if ok:
        if msg:
            report.details = msg
    else:
        report.status = "fail"
        if not report.witness:
            report.witness = msg
    return ok


def _split_items(bundle):
    return sorted(bundle.splits.items())


def _rep_items(bundle, split_name):
    return sorted(bundle.reps_for(split_name).items())


def _per_rep(check_name, bundle, body) -> list[CheckReport]:
    """One report per (split, representation); skip splits with no reps."""
    out = []
    alg = bundle.algebra.name
    for sname, split in _split_items(bundle):
        reps = _rep_items(bundle, sname)
        if not reps:
            out.append(
                CheckReport(
                    check_name, alg, sname, status="skipped",
                    details="no representations declared for this split",
                )
            )
            continue
        for rname, rep in reps:
            report = CheckReport(check_name, alg, sname, rname)
            body(report, split, rep)
            out.append(report)
    return out


def _check_validate(bundle, opts) -> list[CheckReport]:
    report = CheckReport("validate", bundle.algebra.name)
    t0 = time.perf_counter()
    for prop, (ok, msg) in bundle.algebra.validate().items():
        if not ok:
            report.status = "fail"
            report.witness = f"{prop}: {msg}"
            break
    report.seconds = time.perf_counter() - t0
    report.details = f"dimension {bundle.algebra.dim}, prime {bundle.algebra.p}"
    report.dims["dimension"] = bundle.algebra.dim
    out = [report]

    def body(rep_report, split, rep):
        t1 = time.perf_counter()
        for prop, (ok, msg) in rep.validate().items():
            if not ok:
                rep_report.status = "fail"
                rep_report.witness = f"{prop}: {msg}"
                break
        else:
            rep_report.details = f"dimension {rep.dim}"
        rep_report.dims["dimension"] = rep.dim
        rep_report.seconds = time.perf_counter() - t1

    out.extend(_per_rep("validate", bundle, body))
    return out


def _check_pbw_count(bundle, opts) -> list[CheckReport]:
    alg = bundle.algebra
    report = CheckReport("pbw-count", alg.name)
    t0 = time.perf_counter()
    monos = restricted_monomials(alg)
    n_tot = sum(1 for q in alg.parities if q == EVEN)
    m_tot = alg.dim - n_tot
    want = alg.p**n_tot * 2**m_tot
    report.dims["basis"] = len(monos)
    if len(monos) != want:
        report.status = "fail"
        report.witness = f"basis has {len(monos)} monomials, expected {want}"
    else:
        eng = get_engine(alg)
        rng = random.Random(opts.seed)
        for _ in range(4 * opts.samples):
            m1 = monos[rng.randrange(len(monos))]
            m2 = monos[rng.randrange(len(monos))]
            for m3 in eng.mul_mono(m1, m2):
                if any(
                    e >= (alg.p if alg.parities[g] == EVEN else 2)
                    for g, e in enumerate(m3)
                ):
                    report.status = "fail"
                    report.witness = f"product {m1} * {m2} leaves the window"
                    break
            if report.status == "fail":
                break
        else:
            report.details = (
                f"{want} monomials, {4 * opts.samples} products stay inside"
            )
    report.seconds = time.perf_counter() - t0
    return [report]


def _unit_span(alg, monos, powers) -> SubspaceBasis:
    """Span of the monomials b_g^e for (g, e) in powers, as coordinates
    over the monomial labels."""
    index = {m: i for i, m in enumerate(monos)}
    vectors = []
    for g, e in powers:
        vec = [0] * len(monos)
        vec[index[tuple(e if k == g else 0 for k in range(alg.dim))]] = 1
        vectors.append(vec)
    return SubspaceBasis.from_vectors(vectors, alg.p, len(monos))


def _check_primitives(bundle, opts) -> list[CheckReport]:
    alg = bundle.algebra
    report = CheckReport("primitives", alg.name)
    t0 = time.perf_counter()
    prim, monos = primitive_space(alg)
    if not subspace_equal(prim, _unit_span(alg, monos, [(g, 1) for g in range(alg.dim)])):
        report.status = "fail"
        report.witness = (
            f"restricted primitive space has dimension {prim.dim}, "
            f"expected {alg.dim}"
        )
    report.dims["restricted_window"] = len(monos)
    legs = ["restricted"]
    n_tot = sum(1 for q in alg.parities if q == EVEN)
    r_max = 2 if n_tot <= 1 else 0
    for r in range(r_max + 1):
        if report.status == "fail":
            break
        bound = alg.p ** (r + 1)
        prim_r, monos_r = primitive_space(alg, restricted=False, degree_bound=bound)
        powers = []
        for g in range(alg.dim):
            top = bound if alg.parities[g] == EVEN else 1
            e = 1
            while e <= top:
                powers.append((g, e))
                e *= alg.p
        want = _unit_span(alg, monos_r, powers)
        if not subspace_equal(prim_r, want):
            report.status = "fail"
            report.witness = (
                f"truncated primitives at window {bound} have dimension "
                f"{prim_r.dim}, expected {want.dim}"
            )
        legs.append(f"window {bound}")
        report.dims[f"window_{r}"] = len(monos_r)
    if report.status == "pass":
        report.details = ", ".join(legs)
    report.seconds = time.perf_counter() - t0
    return [report]


def _check_mu_product(bundle, opts) -> list[CheckReport]:
    out = []
    for sname, split in _split_items(bundle):
        report = CheckReport("mu-product", bundle.algebra.name, sname)
        _leg(report, mu_product_check, split)
        report.dims["window"] = (
            split.algebra.p ** split.n_even * 2**split.m_odd
        )
        out.append(report)
    return out


def _check_lambda_character(bundle, opts) -> list[CheckReport]:
    out = []
    for sname, split in _split_items(bundle):
        report = CheckReport("lambda-character", bundle.algebra.name, sname)
        if _leg(report, socle_character_check, split):
            for r in range(opts.level + 1):
                if not _leg(report, socle_character_check, split, level=r):
                    break
        out.append(report)
    return out


def _check_phi(bundle, opts) -> list[CheckReport]:
    def body(report, split, rep):
        if _leg(report, phi_isomorphism_check, split, rep):
            if _leg(report, phi_isomorphism_check, split, twisted_dual(rep)):
                report.details += "; twisted dual passes too"

    return _per_rep("phi", bundle, body)


def _check_psi(bundle, opts) -> list[CheckReport]:
    def body(report, split, rep):
        p = split.algebra.p
        t0 = time.perf_counter()
        gram = coind_duality_gram(split, rep)
        direct = coind_duality_gram(split, rep, direct=True)
        report.seconds += time.perf_counter() - t0
        report.dims["gram"] = gram.matrix.shape[0]
        if ((gram.matrix - direct.matrix) % p).any():
            report.status = "fail"
            report.witness = "convolution and splitting routes disagree"
            return
        if rank(gram.matrix, p) != gram.matrix.shape[0]:
            report.status = "fail"
            report.witness = "Gram matrix is singular"
            return
        if _leg(report, gram_invariance_check, split, rep, gram):
            if _leg(report, socle_volume_killed, split):
                report.details = (
                    f"two routes agree, full rank {gram.matrix.shape[0]}, "
                    "invariant, socle volume flat"
                )

    return _per_rep("psi", bundle, body)


def _check_theta(bundle, opts) -> list[CheckReport]:
    def body(report, split, rep):
        t0 = time.perf_counter()
        theta = coind_to_ind_dual_map(split, rep)
        report.seconds += time.perf_counter() - t0
        report.dims["module"] = theta.matrix.shape[0]
        _leg(report, theta_equivariance_check, split, rep, theta)

    return _per_rep("theta", bundle, body)


def _check_comparison(bundle, opts) -> list[CheckReport]:
    def body(report, split, rep):
        _leg(report, gram_factorization_check, split, rep)

    return _per_rep("comparison", bundle, body)


def _check_kernel_duality(bundle, opts) -> list[CheckReport]:
    def body(report, split, rep):
        legs = kernel_duality_legs(split, rep)
        if _leg(report, next, legs):
            if _leg(report, next, legs):
                report.details += "; reverse twist agrees"

    return _per_rep("kernel-duality", bundle, body)


def _check_omega_iso(bundle, opts) -> list[CheckReport]:
    out = []
    for sname, split in _split_items(bundle):
        report = CheckReport("omega-iso", bundle.algebra.name, sname)
        _leg(report, berezinian_coinduced_check, split)
        out.append(report)
    return out


def _sampled_check(name, fn):
    def run(bundle, opts) -> list[CheckReport]:
        def body(report, split, rep):
            _leg(
                report, fn, split, rep,
                level=opts.level, seed=opts.seed, samples=opts.samples,
            )

        return _per_rep(name, bundle, body)

    return run


def _random_restricted(alg, monos, rng, max_terms=2) -> UElement:
    out = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        out[monos[rng.randrange(len(monos))]] = rng.randrange(1, alg.p)
    return UElement(alg, True, out)


def _hopf_contraction(u: UElement, antipode_left: bool) -> UElement:
    alg = u.algebra
    acc = UElement.zero(alg, u.restricted)
    for (m1, m2), c in coproduct(u).terms.items():
        a = UElement(alg, u.restricted, {m1: 1})
        b = UElement(alg, u.restricted, {m2: 1})
        if antipode_left:
            a = antipode(a)
        else:
            b = antipode(b)
        acc = acc + c * (a * b)
    return acc


def _check_engine(bundle, opts) -> list[CheckReport]:
    alg = bundle.algebra
    report = CheckReport("engine", alg.name)
    t0 = time.perf_counter()
    monos = restricted_monomials(alg)
    rng = random.Random(opts.seed)
    cases = opts.engine_cases

    def fail(witness: str) -> None:
        report.status = "fail"
        report.witness = witness

    def assoc_cases() -> None:
        for k in range(cases):
            u = _random_restricted(alg, monos, rng)
            v = _random_restricted(alg, monos, rng)
            w = _random_restricted(alg, monos, rng)
            if (u * v) * w != u * (v * w):
                return fail(f"associativity fails at case {k}")

    def assoc_unrestricted_cases() -> None:
        small = monomials_of_degree_at_most(alg, alg.p)

        def pick():
            mono = small[rng.randrange(len(small))]
            return UElement(alg, False, {mono: rng.randrange(1, alg.p)})

        for k in range(cases):
            u, v, w = pick(), pick(), pick()
            if (u * v) * w != u * (v * w):
                return fail(f"unrestricted associativity fails at case {k}")

    def hopf_cases() -> None:
        f = alg.field
        for k in range(cases):
            u = _random_restricted(alg, monos, rng)
            eps = counit(u) * UElement.one(alg)
            if _hopf_contraction(u, True) != eps or _hopf_contraction(u, False) != eps:
                return fail(f"antipode axiom fails at case {k}")
            left = UElement.zero(alg)
            right = UElement.zero(alg)
            for (m1, m2), c in coproduct(u).terms.items():
                u1 = UElement(alg, True, {m1: 1})
                u2 = UElement(alg, True, {m2: 1})
                left = left + f.mul(c, counit(u1)) * u2
                right = right + f.mul(c, counit(u2)) * u1
            if left != u or right != u:
                return fail(f"counit axiom fails at case {k}")

    def coproduct_cases() -> None:
        for k in range(cases):
            u = _random_restricted(alg, monos, rng)
            v = _random_restricted(alg, monos, rng)
            if coproduct(u * v) != coproduct(u) * coproduct(v):
                return fail(f"coproduct multiplicativity fails at case {k}")

    def reorder_cases() -> None:
        splits = _split_items(bundle)
        if not splits:
            return
        for k in range(cases):
            u = _random_restricted(alg, monos, rng)
            split = splits[k % len(splits)][1]
            for side in ("left", "right"):
                parts = normal_order_split(u, split, side)
                acc = UElement.zero(alg)
                for c_exps, h_terms in parts.items():
                    c_mono = [0] * alg.dim
                    for g, e in zip(split.c_indices, c_exps):
                        c_mono[g] = e
                    c_el = UElement.monomial(alg, c_mono)
                    for h_exps, c in h_terms.items():
                        h_mono = [0] * alg.dim
                        for g, e in zip(split.h_indices, h_exps):
                            h_mono[g] = e
                        h_el = UElement.monomial(alg, h_mono)
                        prod = h_el * c_el if side == "left" else c_el * h_el
                        acc = acc + c * prod
                if acc != u:
                    return fail(f"reorder round-trip fails at case {k} ({side})")

    for prop in (
        assoc_cases,
        assoc_unrestricted_cases,
        hopf_cases,
        coproduct_cases,
        reorder_cases,
    ):
        prop()
        if report.status == "fail":
            break
    else:
        report.details = f"{cases} cases per property"
    report.dims["basis"] = len(monos)
    report.seconds = time.perf_counter() - t0
    return [report]


CHECKS = {
    "validate": _check_validate,
    "pbw-count": _check_pbw_count,
    "primitives": _check_primitives,
    "mu-product": _check_mu_product,
    "lambda-character": _check_lambda_character,
    "phi": _check_phi,
    "psi": _check_psi,
    "theta": _check_theta,
    "comparison": _check_comparison,
    "kernel-duality": _check_kernel_duality,
    "omega-iso": _check_omega_iso,
    "phi-r-balance": _sampled_check("phi-r-balance", balance_check),
    "iota-compat": _sampled_check("iota-compat", level_raising_check),
    "phi-r-injectivity": _sampled_check("phi-r-injectivity", injectivity_witness_check),
    "engine": _check_engine,
}


def check_names() -> list[str]:
    return list(CHECKS)


def run_checks(
    bundle, only=None, seed=0, level=1, samples=25, engine_cases=150
) -> list[CheckReport]:
    """Run the selected checks (all by default) and return sorted reports."""
    names = list(CHECKS) if only is None else list(only)
    unknown = sorted(set(names) - set(CHECKS))
    if unknown:
        raise KeyError(f"unknown check name(s): {', '.join(unknown)}")
    opts = CheckOptions(
        seed=seed, level=level, samples=samples, engine_cases=engine_cases
    )
    reports: list[CheckReport] = []
    for name in names:
        reports.extend(CHECKS[name](bundle, opts))
    reports.sort(key=CheckReport.sort_key)
    return reports


def all_passed(reports) -> bool:
    return all(r.status != "fail" for r in reports)
