"""Named checks over a parsed definition, with stable structured reports.

Each check covers one slice of the theory: engine self-consistency, dual
algebra laws, the induced/coinduced comparison, the Gram duality, kernel
duality, the volume-form model, and the sampled level-r lemmas.

``CHECKS`` is the registry: each value maps (bundle, options) to a list of
reports.  Every entry is one of three loops, built by ``_per_algebra``,
``_per_split`` and ``_per_rep``, over a body that fills one report.  A body
runs its legs, functions returning (ok, message), through ``_leg``, the
one place that times a report, turns a StructureError into a failure, and
sets status, witness and details.  Reports sort by check name then
instance, so the machine output is byte-stable; timing stays out of it.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .algebra import StructureError
from .berezin import berezinian_coinduced_check, socle_volume_killed
from .duality import (
    annihilator_duality_check,
    balance_check,
    coind_duality_gram,
    coind_to_ind_dual_map,
    gram_factorization_check,
    gram_invariance_check,
    injectivity_witness_check,
    level_raising_check,
    mu_product_check,
    phi_isomorphism_check,
    socle_character_check,
    theta_equivariance_check,
)
from .fp import EVEN
from .linalg import rank
from .modules import ComplementWindow, twisted_dual
from .pbw import (
    UElement,
    antipode_chain_witness,
    get_engine,
    monomials_of_degree_at_most,
    multiplicativity_witness,
    primitive_space,
    product_relations_witness,
    restricted_monomials,
    split_engine,
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
    """Options of the sampled checks; the defaults of run_checks and of the CLI."""

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


def _legs(report: CheckReport, *legs) -> bool:
    """Run (fn, *args) legs in order until one fails."""
    return all(_leg(report, fn, *args) for fn, *args in legs)


def _per_algebra(name, body):
    """Registry runner with one report on the algebra: body(report, bundle, opts)."""

    def run(bundle, opts) -> list[CheckReport]:
        report = CheckReport(name, bundle.algebra.name)
        body(report, bundle, opts)
        return [report]

    return run


def _per_split(name, body):
    """Registry runner with one report per split: body(report, split, opts)."""

    def run(bundle, opts) -> list[CheckReport]:
        out = []
        for sname, split, _ in bundle.instances():
            report = CheckReport(name, bundle.algebra.name, sname)
            body(report, split, opts)
            out.append(report)
        return out

    return run


def _per_rep(name, body):
    """Registry runner with one report per (split, representation):
    body(report, split, rep, opts); a split with no reps is skipped."""

    def run(bundle, opts) -> list[CheckReport]:
        out = []
        alg = bundle.algebra.name
        for sname, split, reps in bundle.instances():
            if not reps:
                out.append(
                    CheckReport(
                        name, alg, sname, status="skipped",
                        details="no representations declared for this split",
                    )
                )
            for rname, rep in reps:
                report = CheckReport(name, alg, sname, rname)
                body(report, split, rep, opts)
                out.append(report)
        return out

    return run


def _first_failure(obj, details) -> tuple[bool, str]:
    """The first property obj.validate() reports failing, else details."""
    for prop, (ok, msg) in obj.validate().items():
        if not ok:
            return False, f"{prop}: {msg}"
    return True, details


def _validate_algebra(report, bundle, opts) -> None:
    alg = bundle.algebra
    report.dims["dimension"] = alg.dim
    _leg(report, _first_failure, alg, f"dimension {alg.dim}, prime {alg.p}")


def _validate_rep(report, split, rep, opts) -> None:
    report.dims["dimension"] = rep.dim
    _leg(report, _first_failure, rep, f"dimension {rep.dim}")


def _validate(bundle, opts) -> list[CheckReport]:
    on_algebra = _per_algebra("validate", _validate_algebra)(bundle, opts)
    return on_algebra + _per_rep("validate", _validate_rep)(bundle, opts)


def _pbw_window(alg, opts, dims) -> tuple[bool, str]:
    monos = restricted_monomials(alg)
    n_tot = len(alg.even_indices)
    want = alg.p**n_tot * 2 ** (alg.dim - n_tot)
    dims["basis"] = len(monos)
    if len(monos) != want:
        return False, f"basis has {len(monos)} monomials, expected {want}"
    eng = get_engine(alg)
    rng = random.Random(opts.seed)
    for _ in range(4 * opts.samples):
        m1 = monos[rng.randrange(len(monos))]
        m2 = monos[rng.randrange(len(monos))]
        for m3 in eng.mul_mono(m1, m2):
            if any(
                e >= (alg.p if alg.parities[g] == EVEN else 2) for g, e in enumerate(m3)
            ):
                return False, f"product {m1} * {m2} leaves the window"
    return True, f"{want} monomials, {4 * opts.samples} products stay inside"


def _pbw_count(report, bundle, opts) -> None:
    _leg(report, _pbw_window, bundle.algebra, opts, report.dims)


def _primitive_gap(alg, prims, powers) -> str:
    """Empty when the primitive monomials prims are the b_g^e for (g, e) in
    powers; else the first such b_g^e not in prims, or failing that the
    dimensions."""
    have = set(prims)
    for g, e in powers:
        if tuple(e if k == g else 0 for k in range(alg.dim)) not in have:
            return f"miss b_{g}^{e}"
    if len(prims) != len(powers):
        return f"have dimension {len(prims)}, expected {len(powers)}"
    return ""


def _restricted_primitives(alg, dims) -> tuple[bool, str]:
    prims, monos = primitive_space(alg)
    dims["restricted_window"] = len(monos)
    gap = _primitive_gap(alg, prims, [(g, 1) for g in range(alg.dim)])
    return not gap, f"restricted primitives {gap}" if gap else "restricted"


def _truncated_primitives(alg, dims) -> tuple[bool, str]:
    n_tot = len(alg.even_indices)
    done = ["restricted"]
    for r in range(3 if n_tot <= 1 else 1):
        bound = alg.p ** (r + 1)
        prims, monos = primitive_space(alg, degree_bound=bound)
        dims[f"window_{r}"] = len(monos)
        powers = []
        for g in range(alg.dim):
            top = bound if alg.parities[g] == EVEN else 1
            e = 1
            while e <= top:
                powers.append((g, e))
                e *= alg.p
        gap = _primitive_gap(alg, prims, powers)
        if gap:
            return False, f"truncated primitives at window {bound} {gap}"
        done.append(f"window {bound}")
    return True, ", ".join(done)


def _primitives(report, bundle, opts) -> None:
    legs = (_restricted_primitives, _truncated_primitives)
    _legs(report, *[(leg, bundle.algebra, report.dims) for leg in legs])


def _mu_product(report, split, opts) -> None:
    _leg(report, mu_product_check, split)
    report.dims["window"] = ComplementWindow(split).size


def _lambda_character(report, split, opts) -> None:
    levels = [None] + list(range(opts.level + 1))
    _legs(report, *[(socle_character_check, split, r) for r in levels])


def _omega_iso(report, split, opts) -> None:
    _leg(report, berezinian_coinduced_check, split)


def _with_twisted_dual(fn, note):
    """Body running the leg fn on rep and then on its twisted dual."""

    def body(report, split, rep, opts) -> None:
        if _legs(report, *[(fn, split, r) for r in (rep, twisted_dual(rep))]):
            report.details += note

    return body


def _psi_gram(split, rep, dims) -> tuple[bool, str]:
    """The two Gram routes agree, and the Gram matrix is invertible and
    invariant."""
    p = split.algebra.p
    gram = coind_duality_gram(split, rep)
    direct = coind_duality_gram(split, rep, direct=True)
    dims["gram"] = gram.matrix.shape[0]
    if ((gram.matrix - direct.matrix) % p).any():
        return False, "convolution and splitting routes disagree"
    if rank(gram.matrix, p) != gram.matrix.shape[0]:
        return False, "Gram matrix is singular"
    return gram_invariance_check(split, rep, gram)


def _psi(report, split, rep, opts) -> None:
    if _legs(report, (_psi_gram, split, rep, report.dims), (socle_volume_killed, split)):
        report.details = (
            f"two routes agree, full rank {report.dims['gram']}, "
            "invariant, socle volume flat"
        )


def _theta_map(split, rep, dims) -> tuple[bool, str]:
    theta = coind_to_ind_dual_map(split, rep)
    dims["module"] = theta.matrix.shape[0]
    return theta_equivariance_check(split, rep, theta)


def _theta(report, split, rep, opts) -> None:
    _leg(report, _theta_map, split, rep, report.dims)


def _comparison(report, split, rep, opts) -> None:
    _leg(report, gram_factorization_check, split, rep)


def _sampled(fn):
    def body(report, split, rep, opts) -> None:
        _leg(report, fn, split, rep, level=opts.level, seed=opts.seed, samples=opts.samples)

    return body


def _engine(report, bundle, opts) -> None:
    """The straightening engines in two legs.  The proof leg draws nothing:
    the ambient fold satisfies the defining relations of u(g) on every
    restricted monomial (``product_relations_witness``), so it is the
    product of u(g), and the coproduct and the antipode follow the PBW
    chain, one append per monomial (``multiplicativity_witness``,
    ``antipode_chain_witness``), so with the counit they are the Hopf
    structure of u(g).  The relation certificate then runs once on each
    restricted split engine that is not the ambient one (engines are shared
    per order), so every order the splits multiply in is proved too; its
    witness names the first split and side that use the engine.  The other
    leg samples associativity in U(g), which is infinite, and "N cases per
    property" counts its cases alone."""
    alg = bundle.algebra
    rng = random.Random(opts.seed)
    cases = opts.engine_cases
    passed = True, f"{cases} cases per property"
    report.dims["basis"] = len(restricted_monomials(alg))

    def assoc_unrestricted_cases():
        small = monomials_of_degree_at_most(alg, alg.p)

        def pick():
            mono = small[rng.randrange(len(small))]
            return UElement(alg, False, {mono: rng.randrange(1, alg.p)})

        for k in range(cases):
            u, v, w = pick(), pick(), pick()
            if (u * v) * w != u * (v * w):
                return False, f"unrestricted associativity fails at case {k}"
        return passed

    def certificates():
        ambient = get_engine(alg)
        witness = (
            product_relations_witness(ambient)
            or multiplicativity_witness(alg)
            or antipode_chain_witness(alg)
        )
        if witness:
            return False, witness
        certified = {ambient}
        for sname, split, _ in bundle.instances():
            for side in ("left", "right"):
                eng = split_engine(split, True, side)
                if eng in certified:
                    continue
                certified.add(eng)
                witness = product_relations_witness(eng)
                if witness:
                    return False, f"{witness} in split {sname} ({side})"
        return passed

    _legs(report, (assoc_unrestricted_cases,), (certificates,))


CHECKS = {
    "validate": _validate,
    "pbw-count": _per_algebra("pbw-count", _pbw_count),
    "primitives": _per_algebra("primitives", _primitives),
    "mu-product": _per_split("mu-product", _mu_product),
    "lambda-character": _per_split("lambda-character", _lambda_character),
    "phi": _per_rep("phi", _with_twisted_dual(phi_isomorphism_check, "; twisted dual passes too")),
    "psi": _per_rep("psi", _psi),
    "theta": _per_rep("theta", _theta),
    "comparison": _per_rep("comparison", _comparison),
    "kernel-duality": _per_rep(
        "kernel-duality", _with_twisted_dual(annihilator_duality_check, "; reverse twist agrees")
    ),
    "omega-iso": _per_split("omega-iso", _omega_iso),
    "phi-r-balance": _per_rep("phi-r-balance", _sampled(balance_check)),
    "iota-compat": _per_rep("iota-compat", _sampled(level_raising_check)),
    "phi-r-injectivity": _per_rep("phi-r-injectivity", _sampled(injectivity_witness_check)),
    "engine": _per_algebra("engine", _engine),
}


def check_names() -> list[str]:
    return list(CHECKS)


def run_checks(bundle, only=None, **options) -> list[CheckReport]:
    """Run the selected checks (all by default), each once, and return
    sorted reports; options are CheckOptions fields, unset ones at its
    defaults."""
    opts = CheckOptions(**options)
    if opts.level < 0:
        raise ValueError(f"level must be at least 0, got {opts.level}")
    if opts.samples < 1:
        raise ValueError(f"samples must be at least 1, got {opts.samples}")
    if opts.engine_cases < 1:
        raise ValueError(f"engine cases must be at least 1, got {opts.engine_cases}")
    names = list(CHECKS) if only is None else list(dict.fromkeys(only))
    if not names:
        raise ValueError("no checks selected")
    unknown = sorted(set(names) - set(CHECKS))
    if unknown:
        raise KeyError(f"unknown check name(s): {', '.join(unknown)}")
    reports: list[CheckReport] = []
    for name in names:
        reports.extend(CHECKS[name](bundle, opts))
    reports.sort(key=CheckReport.sort_key)
    return reports


def all_passed(reports) -> bool:
    return all(r.status != "fail" for r in reports)
