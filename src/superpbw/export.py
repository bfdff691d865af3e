"""Deterministic tabular dumps of the core objects.

Tables list monomials in lexicographic exponent order with exact field
coefficients, so two runs diff clean.  Matrix exports put the determinant
or the rank in the header, making invertibility visible without a parser.
"""

from __future__ import annotations

from .duality import coind_duality_gram, ind_to_coind_map
from .linalg import det_mod, rank
from .pbw import get_engine, restricted_monomials

TABLE_NAMES = ("multiplication", "coproduct", "phi-matrix", "psi-gram")


def _mono_str(alg, exps) -> str:
    parts = []
    for name, e in zip(alg.names, exps):
        if e == 1:
            parts.append(name)
        elif e:
            parts.append(f"{name}^{e}")
    return " ".join(parts) if parts else "1"


def _terms_str(alg, terms, fmt) -> str:
    if not terms:
        return "0"
    out = []
    for key in sorted(terms):
        label = fmt(key)
        c = terms[key]
        out.append(label if c == 1 else f"{c}*{label}")
    return " + ".join(out)


def _multiplication_lines(bundle) -> list[str]:
    alg = bundle.algebra
    eng = get_engine(alg)
    monos = restricted_monomials(alg)
    lines = [
        f"multiplication algebra {alg.name} prime {alg.p} monomials {len(monos)}"
    ]
    for m1 in monos:
        for m2 in monos:
            prod = eng.mul_mono(m1, m2)
            lhs = f"{_mono_str(alg, m1)} . {_mono_str(alg, m2)}"
            lines.append(f"{lhs} = {_terms_str(alg, prod, lambda k: _mono_str(alg, k))}")
    return lines


def _coproduct_lines(bundle) -> list[str]:
    alg = bundle.algebra
    eng = get_engine(alg)
    monos = restricted_monomials(alg)
    lines = [f"coproduct algebra {alg.name} prime {alg.p} monomials {len(monos)}"]

    def fmt(key):
        return f"({_mono_str(alg, key[0])} | {_mono_str(alg, key[1])})"

    for m in monos:
        lines.append(f"{_mono_str(alg, m)} : {_terms_str(alg, eng.coproduct_mono(m), fmt)}")
    return lines


def _matrix_lines(matrix) -> list[str]:
    width = max(1, max(len(str(int(v))) for row in matrix for v in row))
    return [
        "  " + " ".join(f"{int(v):>{width}}" for v in row) for row in matrix
    ]


def _phi_lines(bundle) -> list[str]:
    alg = bundle.algebra
    lines = []
    for sname in sorted(bundle.splits):
        split = bundle.splits[sname]
        for rname, rep in sorted(bundle.reps_for(sname).items()):
            phi = ind_to_coind_map(split, rep)
            det = det_mod(phi.matrix, alg.p)
            lines.append(
                f"phi-matrix algebra {alg.name} split {sname} "
                f"representation {rname} dimension {phi.matrix.shape[0]} "
                f"determinant {det}"
            )
            lines.extend(_matrix_lines(phi.matrix))
    return lines


def _psi_lines(bundle) -> list[str]:
    alg = bundle.algebra
    lines = []
    for sname in sorted(bundle.splits):
        split = bundle.splits[sname]
        for rname, rep in sorted(bundle.reps_for(sname).items()):
            gram = coind_duality_gram(split, rep)
            lines.append(
                f"psi-gram algebra {alg.name} split {sname} "
                f"representation {rname} dimension {gram.matrix.shape[0]} "
                f"rank {rank(gram.matrix, alg.p)}"
            )
            lines.extend(_matrix_lines(gram.matrix))
    return lines


def export_tables(bundle, what: str, restricted: bool = True) -> str:
    """Render one named table for the bundle as diff-stable text."""
    if what not in TABLE_NAMES:
        raise ValueError(
            f"unknown table {what!r}; choose one of {', '.join(TABLE_NAMES)}"
        )
    if not restricted:
        raise ValueError("total tables are unbounded; exports need the restricted window")
    builder = {
        "multiplication": _multiplication_lines,
        "coproduct": _coproduct_lines,
        "phi-matrix": _phi_lines,
        "psi-gram": _psi_lines,
    }[what]
    return "\n".join(builder(bundle)) + "\n"
