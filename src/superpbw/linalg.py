"""Exact linear algebra over F_p: echelon forms, ranks, nullspaces, subspaces.

Matrices are reduced with vectorized Gauss-Jordan elimination on int64
arrays.  Elimination forms single products of residues and a matrix product
sums k of them, so a modulus is exact only while k (p-1)^2 < 2^63; the
functions that multiply residues refuse a larger modulus with ValueError
(see require_int64_exact).

The matrix M of a linear map on a basis is a BasisMap: its nonzero entries
as int64 arrays, column by column.  It multiplies on one side only: the
pullback Y M of dense rows Y is a gather and a segmented sum, so no dense
N x N matrix is formed; its dense view is for tests, which compare it with
a matrix built by hand.
"""

from __future__ import annotations

import numpy as np


# Inner dimension from which a float64 BLAS product beats numpy's int64 loop
# (about 3x at 32 on a 2-vCPU x86 VM; even at 16).
BLAS_MIN_INNER = 32
# Cells of the (rows x nonzeros) product array a BasisMap product forms at
# once; bounds its scratch memory.
_GATHER_CELLS = 1 << 16


def require_int64_exact(p: int, k: int = 1) -> None:
    """Raise ValueError unless sums of k products of residues mod p fit in int64."""
    if k * (p - 1) ** 2 >= 2**63:
        raise ValueError(
            f"modulus {p} is past the int64-exact bound k (p-1)^2 < 2^63 for k = {k}"
        )


def rref(matrix, p: int):
    """Reduced row echelon form.

    Returns ``(R, pivots)`` where R holds only the nonzero rows (int64,
    entries in [0, p-1]) and pivots lists the pivot column of each row.
    """
    require_int64_exact(p)
    a = np.asarray(matrix, dtype=np.int64) % p
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
        # only rows with an entry in column c change
        hit = np.flatnonzero(a[:, c])
        hit = hit[hit != r]
        a[hit] = (a[hit] - np.outer(a[hit, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a[:r], pivots


class SubspaceBasis:
    """A subspace of F_p^n held in reduced row echelon form.

    ``rows`` is the echelon basis as one int64 array of shape (dim, n),
    built once; ``pivots`` lists the pivot column of each row.  Because the
    basis is reduced, membership of many vectors at once is one product:
    the remainder of the rows of V is (V - V[:, pivots] @ rows) mod p.
    """

    __slots__ = ("ambient_dim", "p", "rows", "pivots")

    def __init__(self, ambient_dim: int, p: int, vectors=(), pivots=None) -> None:
        self.ambient_dim = ambient_dim
        self.p = p
        self.rows = _as_rows(vectors, ambient_dim) % p
        if pivots is None:
            pivots = [int(np.flatnonzero(row)[0]) for row in self.rows]
        self.pivots = tuple(pivots)

    @classmethod
    def from_vectors(cls, vectors, p: int, ambient_dim: int) -> "SubspaceBasis":
        R, piv = rref(_as_rows(vectors, ambient_dim), p)
        return cls(ambient_dim, p, R, piv)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def contains(self, vec) -> bool:
        """Membership of one vector."""
        return self.contains_all([vec])

    def contains_all(self, vectors) -> bool:
        """Whether every row of a (k, n) array lies in the subspace."""
        return not self._remainder(vectors).any()

    def _remainder(self, vectors) -> np.ndarray:
        """The rows of a (k, n) array less their part in the subspace, in
        one product; a row is 0 exactly when it lies in the subspace."""
        v = _as_rows(vectors, self.ambient_dim) % self.p
        if self.dim:
            v -= mat_mul_mod(v[:, list(self.pivots)], self.rows, self.p)
            v %= self.p
        return v

    def extend(self, vectors) -> "SubspaceBasis":
        """The span of the subspace and the rows of a (k, n) array, as a new
        SubspaceBasis.

        The rows are reduced by the basis in one product, as in
        contains_all, so their remainders vanish on the old pivot columns;
        only the nonzero remainders, on the columns where they are nonzero,
        are eliminated.  One more product clears the new pivot columns from
        the old rows, and the rows merge in pivot order.  The reduced
        echelon form of a row space is unique, so this equals from_vectors
        on all the rows stacked together.
        """
        p, n = self.p, self.ambient_dim
        v = self._remainder(vectors)
        cols = np.flatnonzero(v.any(axis=0))
        v = v[np.ix_(np.flatnonzero(v.any(axis=1)), cols)]
        reduced, piv = rref(v, p)
        del v
        new_pivots = cols[piv]
        pivots = np.sort(self.pivots + tuple(new_pivots))
        rows = np.zeros((len(pivots), n), dtype=np.int64)
        at_new = np.searchsorted(pivots, new_pivots)
        rows[np.ix_(at_new, cols)] = reduced
        at_old = np.searchsorted(pivots, self.pivots)
        rows[at_old] = self.rows
        # the new rows vanish off cols, so only there do the old rows change
        rows[np.ix_(at_old, cols)] -= mat_mul_mod(self.rows[:, new_pivots], reduced, p)
        return SubspaceBasis(n, p, rows, pivots.tolist())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SubspaceBasis)
            and (self.ambient_dim, self.p) == (other.ambient_dim, other.p)
            and np.array_equal(self.rows, other.rows)
        )

    def __repr__(self) -> str:
        return f"SubspaceBasis(dim={self.dim}, ambient={self.ambient_dim}, p={self.p})"


def _as_rows(vectors, n: int) -> np.ndarray:
    """Vectors of length n as the rows of one int64 array (no copy of an
    int64 array)."""
    arr = np.asarray(vectors, dtype=np.int64)
    if arr.size == 0:
        return np.zeros((0, n), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != n:
        raise ValueError("vector length does not match ambient dimension")
    return arr


def subspace_equal(a: SubspaceBasis, b: SubspaceBasis) -> bool:
    """Equality of subspaces; canonical echelon forms make this a comparison."""
    if (a.ambient_dim, a.p) != (b.ambient_dim, b.p):
        raise ValueError("subspaces live in different ambient spaces")
    return np.array_equal(a.rows, b.rows)


def rank(matrix, p: int) -> int:
    return len(rref(matrix, p)[1])


def nullspace(matrix, p: int) -> SubspaceBasis:
    """Kernel {x : M x = 0} as an echelonized SubspaceBasis."""
    R, pivots = rref(matrix, p)
    ncols = R.shape[1]
    # one kernel vector per free column c: e_c - sum_r R[r, c] e_pivot(r)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    K = np.zeros((len(free), ncols), dtype=np.int64)
    K[np.arange(len(free)), free] = 1
    K[:, pivots] = (-R[:, free].T) % p
    return SubspaceBasis.from_vectors(K, p, ncols)


def mat_mul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Product a @ b mod p of int64 arrays with entries in (-p, p).

    Each entry of the product sums k = a.shape[-1] products of such entries,
    so the modulus must pass require_int64_exact for k.  While k (p-1)^2 <
    2^53 every partial sum is an integer that float64 holds exactly, in any
    summation order, so products with k >= BLAS_MIN_INNER run through BLAS.
    """
    k = a.shape[-1]
    require_int64_exact(p, k)
    if k >= BLAS_MIN_INNER and k * (p - 1) ** 2 < 2**53:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) % p
    return (a @ b) % p


def basis_map(basis, image_of) -> "BasisMap":
    """Matrix of a linear map on a basis: column j holds the coordinates of
    the dict image_of(basis[j]); a label outside the basis raises KeyError."""
    index = {b: i for i, b in enumerate(basis)}
    rows: list[int] = []
    cols: list[int] = []
    coeffs: list[int] = []
    for j, b in enumerate(basis):
        image = image_of(b)
        rows.extend(index[label] for label in image)
        cols.extend([j] * len(image))
        coeffs.extend(image.values())
    return BasisMap(len(basis), rows, cols, coeffs)


class BasisMap:
    """An n x n matrix M held by its nonzero entries: coeffs[t] at (rows[t],
    cols[t]), listed column by column, as read-only int64 arrays.

    ``pullback`` takes dense rows with entries in (-p, p) and needs the
    coefficients in (-p, p) too.  Each output entry sums the products along
    one column of the map, so the modulus must pass require_int64_exact for
    the most entries in one column.
    """

    __slots__ = ("n", "rows", "cols", "coeffs", "_starts", "_run")

    def __init__(self, n: int, rows, cols, coeffs) -> None:
        self.n = n
        rows, cols, coeffs = (np.array(a, dtype=np.int64).reshape(-1) for a in (rows, cols, coeffs))
        order = np.argsort(cols, kind="stable")
        self.rows, self.cols, self.coeffs = rows[order], cols[order], coeffs[order]
        for a in (self.rows, self.cols, self.coeffs):
            a.setflags(write=False)
        self._starts = _run_starts(self.cols)
        self._run = int(np.diff(self._starts, append=len(self.cols)).max(initial=0))

    def dense(self) -> np.ndarray:
        """A new dense int64 copy of the matrix."""
        out = np.zeros((self.n, self.n), dtype=np.int64)
        out[self.rows, self.cols] = self.coeffs
        return out

    def pullback(self, y, p: int) -> np.ndarray:
        """Y M mod p for the rows Y of a (k, n) array: a gather of Y's columns
        and a segmented sum over each column of M, in row blocks."""
        require_int64_exact(p, max(self._run, 1))
        y = np.asarray(y, dtype=np.int64)
        out = np.zeros((y.shape[0], self.n), dtype=np.int64)
        if not len(self.coeffs):
            return out
        targets = self.cols[self._starts]
        step = max(1, _GATHER_CELLS // len(self.coeffs))
        for lo in range(0, y.shape[0], step):
            prod = y[lo : lo + step, self.rows] * self.coeffs
            out[lo : lo + step, targets] = np.add.reduceat(prod, self._starts, axis=1) % p
        return out


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Positions where a run of equal entries of a sorted array begins."""
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return np.flatnonzero(first)


def mat_pow_mod(matrix, k: int, p: int) -> np.ndarray:
    """k-th power of a square matrix mod p by repeated squaring."""
    a = np.asarray(matrix, dtype=np.int64) % p
    require_int64_exact(p, a.shape[0])
    out = np.eye(a.shape[0], dtype=np.int64)
    while k:
        if k & 1:
            out = mat_mul_mod(out, a, p)
        k >>= 1
        if k:
            a = mat_mul_mod(a, a, p)
    return out


def det_mod(matrix, p: int) -> int:
    """Determinant mod p via elimination (pivot product with swap signs)."""
    require_int64_exact(p)
    a = np.asarray(matrix, dtype=np.int64) % p
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
