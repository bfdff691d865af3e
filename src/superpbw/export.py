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
    # products in the restricted quotient stay among its monomials
    label = {m: _mono_str(alg, m) for m in monos}
    for m1 in monos:
        for m2 in monos:
            prod = _terms_str(alg, eng.mul_mono(m1, m2), label.__getitem__)
            lines.append(f"{label[m1]} . {label[m2]} = {prod}")
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


def _map_lines(bundle, table, build, stat, value) -> list[str]:
    """One matrix per (split, representation): build(split, rep).matrix
    under a header naming stat, whose entry is value(matrix, p)."""
    alg = bundle.algebra
    lines = []
    for sname, split, reps in bundle.instances():
        for rname, rep in reps:
            matrix = build(split, rep).matrix
            lines.append(
                f"{table} algebra {alg.name} split {sname} "
                f"representation {rname} dimension {matrix.shape[0]} "
                f"{stat} {value(matrix, alg.p)}"
            )
            lines.extend(_matrix_lines(matrix))
    return lines


def export_tables(bundle, what: str) -> str:
    """Render one named table for the bundle as diff-stable text."""
    if what not in TABLE_NAMES:
        raise ValueError(
            f"unknown table {what!r}; choose one of {', '.join(TABLE_NAMES)}"
        )
    if what == "multiplication":
        lines = _multiplication_lines(bundle)
    elif what == "coproduct":
        lines = _coproduct_lines(bundle)
    elif what == "phi-matrix":
        lines = _map_lines(bundle, what, ind_to_coind_map, "determinant", det_mod)
    else:
        lines = _map_lines(bundle, what, coind_duality_gram, "rank", rank)
    return "\n".join(lines) + "\n"
