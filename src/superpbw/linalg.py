"""Exact linear algebra over F_p: echelon forms, ranks, nullspaces, subspaces.

Matrices are reduced with vectorized Gauss-Jordan elimination on int64
arrays.  Elimination forms single products of residues and a matrix product
sums k of them, so a modulus is exact only while k (p-1)^2 < 2^63; the
functions that multiply residues refuse a larger modulus with ValueError
(see require_int64_exact).  Sparse inputs are compacted (zero rows dropped)
before reduction.
"""

from __future__ import annotations

import numpy as np


def require_int64_exact(p: int, k: int = 1) -> None:
    """Raise ValueError unless sums of k products of residues mod p fit in int64."""
    if k * (p - 1) ** 2 >= 2**63:
        raise ValueError(
            f"modulus {p} is past the int64-exact bound k (p-1)^2 < 2^63 for k = {k}"
        )


class SparseMatrix:
    """Matrix over F_p stored as {(row, col): nonzero value}."""

    __slots__ = ("rows", "cols", "p", "entries")

    def __init__(self, rows: int, cols: int, p: int, entries=None) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        self.p = p
        self.entries: dict[tuple[int, int], int] = {}
        if entries:
            for (i, j), v in dict(entries).items():
                self[i, j] = v

    def __getitem__(self, key) -> int:
        return self.entries.get(key, 0)

    def __setitem__(self, key, value: int) -> None:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry {key} outside {self.rows}x{self.cols}")
        v = value % self.p
        if v:
            self.entries[i, j] = v
        else:
            self.entries.pop(key, None)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SparseMatrix)
            and (self.rows, self.cols, self.p) == (other.rows, other.cols, other.p)
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"SparseMatrix({self.rows}x{self.cols} mod {self.p}, nnz={len(self.entries)})"

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols), dtype=np.int64)
        for (i, j), v in self.entries.items():
            out[i, j] = v
        return out

    @classmethod
    def from_dense(cls, arr, p: int) -> "SparseMatrix":
        arr = np.asarray(arr, dtype=np.int64) % p
        m = cls(arr.shape[0], arr.shape[1], p)
        for i, j in zip(*np.nonzero(arr)):
            m.entries[int(i), int(j)] = int(arr[i, j])
        return m

    def transpose(self) -> "SparseMatrix":
        out = SparseMatrix(self.cols, self.rows, self.p)
        out.entries = {(j, i): v for (i, j), v in self.entries.items()}
        return out


def supertrace(matrix, parities) -> int:
    """Signed trace: sum of even diagonal entries minus the odd ones, mod p."""
    if isinstance(matrix, SparseMatrix):
        p = matrix.p
        if matrix.rows != matrix.cols:
            raise ValueError("supertrace needs a square matrix")
        n = matrix.rows
        diag = [matrix[i, i] for i in range(n)]
    else:
        raise TypeError("supertrace expects a SparseMatrix")
    if len(parities) != n:
        raise ValueError("parities must match matrix size")
    total = 0
    for q, d in zip(parities, diag):
        total += -d if q else d
    return total % p


def rref(matrix, p: int):
    """Reduced row echelon form.

    Returns ``(R, pivots)`` where R holds only the nonzero rows (int64,
    entries in [0, p-1]) and pivots lists the pivot column of each row.
    """
    require_int64_exact(p)
    a = np.array(matrix, dtype=np.int64) % p
    if a.ndim != 2:
        raise ValueError("rref expects a 2d array")
    nrows, ncols = a.shape
    r = 0
    pivots: list[int] = []
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        if k != r:
            a[[r, k]] = a[[k, r]]
        a[r] = (a[r] * pow(int(a[r, c]), -1, p)) % p
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % p
        pivots.append(c)
        r += 1
    return a[:r], pivots


def row_reduce_vector(vec, basis_rows, pivots, p: int):
    """Reduce vec against echelon rows; returns the remainder."""
    require_int64_exact(p)
    v = np.array(vec, dtype=np.int64) % p
    for row, c in zip(basis_rows, pivots):
        if v[c]:
            v = (v - v[c] * row) % p
    return v


class SubspaceBasis:
    """A subspace of F_p^n held in reduced row echelon form."""

    __slots__ = ("ambient_dim", "p", "vectors", "pivots")

    def __init__(self, ambient_dim: int, p: int, vectors=(), pivots=None) -> None:
        self.ambient_dim = ambient_dim
        self.p = p
        self.vectors = tuple(tuple(int(x) % p for x in v) for v in vectors)
        for v in self.vectors:
            if len(v) != ambient_dim:
                raise ValueError("basis vector has wrong length")
        if pivots is None:
            pivots = [next(i for i, x in enumerate(v) if x) for v in self.vectors]
        self.pivots = tuple(pivots)

    @classmethod
    def from_vectors(cls, vectors, p: int, ambient_dim: int) -> "SubspaceBasis":
        vecs = [v for v in vectors]
        if not vecs:
            return cls(ambient_dim, p)
        arr = np.array(vecs, dtype=np.int64) % p
        if arr.shape[1] != ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        R, piv = rref(arr, p)
        return cls(ambient_dim, p, [tuple(int(x) for x in row) for row in R], piv)

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def contains(self, vec) -> bool:
        if self.dim == 0:
            return not any(int(x) % self.p for x in vec)
        rows = np.array(self.vectors, dtype=np.int64)
        rem = row_reduce_vector(vec, rows, self.pivots, self.p)
        return not rem.any()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SubspaceBasis)
            and (self.ambient_dim, self.p) == (other.ambient_dim, other.p)
            and self.vectors == other.vectors
        )

    def __repr__(self) -> str:
        return f"SubspaceBasis(dim={self.dim}, ambient={self.ambient_dim}, p={self.p})"


def subspace_equal(a: SubspaceBasis, b: SubspaceBasis) -> bool:
    """Equality of subspaces; canonical echelon forms make this a comparison."""
    if (a.ambient_dim, a.p) != (b.ambient_dim, b.p):
        raise ValueError("subspaces live in different ambient spaces")
    return a.vectors == b.vectors


def rank(matrix, p: int | None = None) -> int:
    if isinstance(matrix, SparseMatrix):
        dense, p = matrix.to_dense(), matrix.p
    else:
        dense = np.asarray(matrix, dtype=np.int64)
        if p is None:
            raise ValueError("rank of a dense array needs the modulus")
    dense = _drop_zero_rows(dense % p)
    if dense.size == 0:
        return 0
    return len(rref(dense, p)[1])


def nullspace(matrix, p: int | None = None) -> SubspaceBasis:
    """Kernel {x : M x = 0} as an echelonized SubspaceBasis."""
    if isinstance(matrix, SparseMatrix):
        dense, p = matrix.to_dense(), matrix.p
    else:
        dense = np.asarray(matrix, dtype=np.int64)
        if p is None:
            raise ValueError("nullspace of a dense array needs the modulus")
    ncols = dense.shape[1]
    dense = _drop_zero_rows(dense % p)
    if dense.size == 0:
        return SubspaceBasis.from_vectors(np.eye(ncols, dtype=np.int64), p, ncols)
    R, pivots = rref(dense, p)
    free = [c for c in range(ncols) if c not in pivots]
    vecs = []
    for c in free:
        v = np.zeros(ncols, dtype=np.int64)
        v[c] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-R[r, c]) % p
        vecs.append(v)
    return SubspaceBasis.from_vectors(vecs, p, ncols)


def _drop_zero_rows(arr: np.ndarray) -> np.ndarray:
    if arr.size == 0:
        return arr
    keep = arr.any(axis=1)
    return arr[keep]


def matrix_from_columns(columns, p: int):
    """Stack sparse column dicts {row_label: value} into a dense matrix.

    Only labels that actually occur become rows.  Returns ``(M, labels)``
    with labels sorted for determinism.
    """
    labels = sorted({k for col in columns for k in col})
    index = {k: i for i, k in enumerate(labels)}
    out = np.zeros((len(labels), len(columns)), dtype=np.int64)
    for j, col in enumerate(columns):
        for k, v in col.items():
            out[index[k], j] = v % p
    return out, labels


def mat_pow_mod(matrix, k: int, p: int) -> np.ndarray:
    """k-th power of a square matrix mod p by repeated squaring."""
    a = np.asarray(matrix, dtype=np.int64) % p
    require_int64_exact(p, a.shape[0])
    out = np.eye(a.shape[0], dtype=np.int64)
    while k:
        if k & 1:
            out = (out @ a) % p
        k >>= 1
        if k:
            a = (a @ a) % p
    return out


def det_mod(matrix, p: int) -> int:
    """Determinant mod p via elimination (pivot product with swap signs)."""
    require_int64_exact(p)
    a = np.array(matrix, dtype=np.int64) % p
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("determinant needs a square matrix")
    det = 1
    for c in range(n):
        nz = np.nonzero(a[c:, c])[0]
        if nz.size == 0:
            return 0
        k = c + int(nz[0])
        if k != c:
            a[[c, k]] = a[[k, c]]
            det = -det
        det = (det * int(a[c, c])) % p
        inv = pow(int(a[c, c]), -1, p)
        col = a[c + 1 :, c].copy()
        a[c + 1 :] = (a[c + 1 :] - np.outer(col * inv % p, a[c])) % p
    return det % p
