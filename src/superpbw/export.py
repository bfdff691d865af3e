"""Deterministic tabular dumps of the core objects.

Tables list monomials in lexicographic exponent order with exact field
coefficients, so two runs diff clean.  The multiplication table renders the
index arrays of ``PBWEngine.multiplication_table``, which builds every
product from the right regular maps and memoizes none per pair.  Matrix
exports put the determinant or the rank in the header, making invertibility
visible without a parser.
"""

from __future__ import annotations

import numpy as np

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
    monos = restricted_monomials(alg)
    n = len(monos)
    lines = [f"multiplication algebra {alg.name} prime {alg.p} monomials {n}"]
    m1, m2, terms, coeffs = get_engine(alg).multiplication_table()
    # products in the restricted quotient stay among its monomials
    label = [_mono_str(alg, m) for m in monos]
    words = [label[t] if c == 1 else f"{c}*{label[t]}" for t, c in zip(terms.tolist(), coeffs.tolist())]
    # the terms of the pair (i, j) are words[bounds[i n + j]:bounds[i n + j + 1]]
    bounds = np.searchsorted(m1 * n + m2, np.arange(n * n + 1)).tolist()
    for i, a in enumerate(label):
        row = bounds[i * n : (i + 1) * n + 1]
        lines.extend(
            [f"{a} . {b} = {' + '.join(words[lo:hi]) or '0'}" for b, lo, hi in zip(label, row, row[1:])]
        )
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
    matrix = np.asarray(matrix, dtype=np.int64)
    lo, hi = int(matrix.min()), int(matrix.max())
    width = max(len(str(lo)), len(str(hi)))
    # one padded cell per value from the least entry to the largest
    cells = [f"{v:>{width}}" for v in range(lo, hi + 1)]
    return ["  " + " ".join([cells[v] for v in row]) for row in (matrix - lo).tolist()]


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
