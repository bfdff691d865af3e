import math

import numpy as np
import pytest

from superpbw.linalg import (
    SubspaceBasis,
    BLAS_MIN_INNER,
    BasisMap,
    basis_map,
    det_mod,
    mat_mul_mod,
    mat_pow_mod,
    nullspace,
    rank,
    require_int64_exact,
    rref,
    subspace_equal,
)


def test_rref_known_matrix():
    r, pivots = rref(np.array([[0, 2, 1], [1, 1, 0], [1, 3, 1]]), 3)
    assert pivots == [0, 1]
    assert r.tolist() == [[1, 0, 1], [0, 1, 2]]
    # every pivot column is a standard basis vector
    for i, c in enumerate(pivots):
        col = r[:, c]
        assert col[i] == 1 and np.count_nonzero(col) == 1


def test_nullspace_frozen():
    # hand check over F_3: (1, 2) since 1 + 2*1 = 3 = 0
    ns = nullspace(np.array([[1, 1], [2, 2]]), 3)
    assert ns.dim == 1
    assert ns.rows.tolist() == [[1, 2]]
    assert ns.contains([1, 2])
    assert ns.contains([2, 1])  # scalar multiple
    assert not ns.contains([1, 0])


def test_rank_drops_and_nullity():
    rng = np.random.default_rng(0)
    for p in (3, 5):
        for _ in range(25):
            a = rng.integers(0, p, size=(4, 6))
            r = rank(a, p)
            assert r + nullspace(a, p).dim == 6
            # kernel vectors really do vanish
            for v in nullspace(a, p).rows:
                assert not (a @ v % p).any()


def test_subspace_basis_equality():
    a = SubspaceBasis.from_vectors([[1, 1, 0], [0, 0, 1]], 3, 3)
    b = SubspaceBasis.from_vectors([[2, 2, 1], [0, 0, 2]], 3, 3)
    assert a.dim == 2
    assert subspace_equal(a, b)
    assert a == b
    c = SubspaceBasis.from_vectors([[1, 0, 0]], 3, 3)
    assert not subspace_equal(a, c)


def test_contains_all_agrees_with_rank():
    # vectors lie in the space exactly when adding them keeps its rank
    rng = np.random.default_rng(7)
    for p, n, k in ((3, 6, 2), (5, 9, 4), (7, 12, 7)):
        space = SubspaceBasis.from_vectors(rng.integers(0, p, size=(k, n)), p, n)
        inside = rng.integers(0, p, size=(20, space.dim)) @ space.rows % p
        noise = rng.integers(0, p, size=(20, n))
        for vecs in (inside, noise, np.vstack([inside, noise[:1]])):
            want = rank(np.vstack([space.rows, vecs]), p) == space.dim
            assert space.contains_all(vecs) == want
            for v in vecs:
                assert space.contains(v) == (rank(np.vstack([space.rows, v]), p) == space.dim)
        assert space.contains_all(inside)
        assert not space.contains_all(noise)
        assert space.contains_all(np.zeros((0, n), dtype=np.int64))
    empty = SubspaceBasis(4, 5)
    assert empty.contains_all([[0, 0, 0, 0]]) and not empty.contains_all([[0, 1, 0, 0]])


def _extension_blocks(rng, p, n):
    """Row blocks for extending from the empty subspace: no rows, zero
    rows, a rank-3 family, rows repeated, a block inside the span so far,
    then random rows (entries past [0, p) too) that reach full rank, and
    one block past it."""
    low = rng.integers(0, p, size=(6, 3)) @ rng.integers(0, p, size=(3, n))
    wide = rng.integers(-p * p, p * p, size=(2 * n, n))
    return [
        np.zeros((0, n), dtype=np.int64),
        np.zeros((2, n), dtype=np.int64),
        low[:4],
        np.vstack([low[:2], low[:2]]),
        (low[4:] + p * low[:2]) % p,
        wide[: n // 2],
        wide[n // 2 :],
        wide[:1],
    ]


def _first_extension_mismatch(extend):
    """The first (p, n, block) at which extend, block by block from the
    empty subspace, differs from from_vectors on every row so far; None
    if it never does.  Also checks that the blocks reach full rank and
    that some block adds nothing."""
    rng = np.random.default_rng(43)
    for p in (3, 5, 7):
        for n in (5, 9, 12):
            space = SubspaceBasis(n, p)
            stacked = np.zeros((0, n), dtype=np.int64)
            dims = [0]
            for i, block in enumerate(_extension_blocks(rng, p, n)):
                space = extend(space, block)
                stacked = np.vstack([stacked, block])
                want = SubspaceBasis.from_vectors(stacked, p, n)
                if not (np.array_equal(space.rows, want.rows) and space.pivots == want.pivots):
                    return p, n, i
                dims.append(space.dim)
            assert dims[-1] == n and 0 < dims[4] == dims[5], dims
    return None


def _extend_without_clearing(space, vectors):
    """extend with the old rows left as they were, their entries in the new
    pivot columns not cleared."""
    grown = space.extend(vectors)
    rows = grown.rows.copy()
    rows[[grown.pivots.index(c) for c in space.pivots]] = space.rows
    return SubspaceBasis(grown.ambient_dim, grown.p, rows, grown.pivots)


def test_extend_block_by_block_matches_one_elimination():
    assert _first_extension_mismatch(SubspaceBasis.extend) is None
    # negative control: skipping the clearing of the old rows is seen
    assert _first_extension_mismatch(_extend_without_clearing) is not None


def test_basis_matrix_columns_are_the_image_dicts():
    basis = [(0,), (1,), (2,)]
    images = {(0,): {(1,): 2}, (1,): {}, (2,): {(0,): 1, (2,): 4}}
    mat = basis_map(basis, images.__getitem__).dense()
    assert mat.dtype == np.int64
    assert mat.tolist() == [[0, 0, 1], [2, 0, 0], [0, 0, 4]]
    for j, b in enumerate(basis):
        assert {basis[i]: int(c) for i, c in enumerate(mat[:, j]) if c} == images[b]
    with pytest.raises(KeyError):
        basis_map(basis, lambda b: {(3,): 1})
    assert basis_map([], lambda b: {}).dense().shape == (0, 0)


def _old_nullspace(matrix, p):
    """nullspace as it was before its pivot lookup became a set: the free
    columns found by a list scan for the pivots."""
    dense = np.asarray(matrix, dtype=np.int64)
    ncols = dense.shape[1]
    dense = dense[dense.any(axis=1)] if dense.size else dense
    if dense.size == 0:
        return SubspaceBasis.from_vectors(np.eye(ncols, dtype=np.int64), p, ncols)
    R, pivots = rref(dense, p)
    free = [c for c in range(ncols) if c not in pivots]
    K = np.zeros((len(free), ncols), dtype=np.int64)
    K[np.arange(len(free)), free] = 1
    K[:, pivots] = (-R[:, free].T) % p
    return SubspaceBasis.from_vectors(K, p, ncols)


def _low_rank(rng, p, shape, r):
    """A random matrix of the given shape and rank at most r."""
    return rng.integers(0, p, size=(shape[0], r)) @ rng.integers(0, p, size=(r, shape[1])) % p


def test_nullspace_is_unchanged_by_the_shared_kernel_helper():
    rng = np.random.default_rng(43)
    for p in (3, 5, 7):
        for shape in ((1, 1), (3, 5), (5, 3), (6, 6), (4, 9)):
            for r in (0, 1, 2, 9):
                a = _low_rank(rng, p, shape, r)
                got, want = nullspace(a, p), _old_nullspace(a, p)
                assert got.pivots == want.pivots
                assert np.array_equal(got.rows, want.rows)


def test_mat_pow_mod():
    a = np.array([[1, 1], [0, 1]])
    assert mat_pow_mod(a, 5, 3).tolist() == [[1, 2], [0, 1]]
    assert mat_pow_mod(a, 0, 3).tolist() == [[1, 0], [0, 1]]


def test_det_mod():
    assert det_mod(np.array([[1, 2], [3, 4]]), 5) == (4 - 6) % 5
    assert det_mod(np.array([[1, 1], [2, 2]]), 3) == 0
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.integers(0, 3, size=(3, 3))
        assert det_mod(a, 3) == round(np.linalg.det(a)) % 3


def test_mat_pow_mod_matches_repeated_products():
    rng = np.random.default_rng(3)
    for n, p in ((2, 3), (3, 5), (4, 7)):
        a = rng.integers(0, p, size=(n, n))
        want = np.eye(n, dtype=np.int64)
        for k in range(12):
            assert mat_pow_mod(a, k, p).tolist() == want.tolist()
            want = (want @ a) % p


# ------------------------------------------------------------------
# int64 exactness bound, against sympy at primes just below it
# ------------------------------------------------------------------

sympy = pytest.importorskip("sympy")


def _largest_prime(k):
    """Largest prime p with k (p-1)^2 < 2^63."""
    return int(sympy.prevprime(math.isqrt((2**63 - 1) // k) + 2))


def _gf_matrix(a, p):
    from sympy.polys.matrices import DomainMatrix

    field = sympy.GF(p)
    rows = [[field(int(x)) for x in row] for row in a]
    return DomainMatrix(rows, (len(rows), len(rows[0])), field)


def test_bound_primes_are_the_largest_exact_ones():
    for k in (1, 3):
        p = _largest_prime(k)
        require_int64_exact(p, k)
        with pytest.raises(ValueError):
            require_int64_exact(int(sympy.nextprime(p)), k)


def test_det_rank_rref_match_sympy_below_the_bound():
    p = _largest_prime(1)
    rng = np.random.default_rng(23)
    for _ in range(60):
        a = rng.integers(0, p, size=(2, 2), dtype=np.int64)
        assert det_mod(a, p) == int(sympy.Matrix(a.tolist()).det()) % p
        # rank-2 3x3: the third row is a combination of the first two
        b = rng.integers(0, p, size=(3, 3), dtype=np.int64)
        s, t = (int(x) for x in rng.integers(0, p, size=2))
        b[2] = (s * b[0].astype(object) + t * b[1].astype(object)) % p
        assert rank(b, p) == _gf_matrix(b.tolist(), p).rank() == 2
        want, pivots = _gf_matrix(b.tolist(), p).rref()
        got, got_pivots = rref(b, p)
        assert list(got_pivots) == list(pivots)
        rows = want.to_Matrix().tolist()[: len(pivots)]
        assert got.tolist() == [[int(x) % p for x in row] for row in rows]


def test_mat_pow_mod_matches_sympy_below_the_bound():
    p = _largest_prime(3)
    rng = np.random.default_rng(29)
    a = rng.integers(0, p, size=(3, 3), dtype=np.int64)
    for k in (2, 7, 40):
        want = sympy.Matrix(a.tolist()).pow(k)
        got = mat_pow_mod(a, k, p)
        assert got.tolist() == [[int(x) % p for x in row] for row in want.tolist()]
    # Fermat on a diagonal matrix, d^p = d: p products would not finish
    d = np.diag([2, 3, 5]).astype(np.int64)
    assert mat_pow_mod(d, p, p).tolist() == d.tolist()


def test_past_the_bound_raises_instead_of_overflowing():
    p = 4294967311  # (p-1)^2 overflows int64
    a = np.array([[p - 1, 2], [3, p - 2]], dtype=np.int64)
    for call in (lambda: det_mod(a, p), lambda: rank(a, p), lambda: rref(a, p),
                 lambda: SubspaceBasis(2, p, a, [0, 1]).contains([1, 2])):
        with pytest.raises(ValueError, match="int64-exact"):
            call()
    # a product with inner dimension k needs k (p-1)^2 < 2^63
    for k in (1, 3, 40):
        q = _largest_prime(k)
        mat_mul_mod(np.ones((2, k), dtype=np.int64), np.ones((k, 2), dtype=np.int64), q)
        with pytest.raises(ValueError, match="int64-exact"):
            mat_mul_mod(np.ones((2, k), dtype=np.int64), np.ones((k, 2), dtype=np.int64),
                        int(sympy.nextprime(q)))
    # a product of 3 x 3 matrices needs 3 (p-1)^2 < 2^63
    q = _largest_prime(1)
    with pytest.raises(ValueError, match="int64-exact"):
        mat_pow_mod(np.eye(3, dtype=np.int64), 2, q)


def test_mat_mul_mod_is_exact_on_both_sides_of_the_float_bound():
    # inner dimension past BLAS_MIN_INNER: below 2^53 the float64 route runs,
    # above it the int64 one; both must equal the product in Python integers
    k = BLAS_MIN_INNER + 8
    rng = np.random.default_rng(31)
    for p in (5, int(sympy.prevprime(math.isqrt(2**53 // k))), _largest_prime(k)):
        a = rng.integers(-(p - 1), p, size=(3, k), dtype=np.int64)
        b = rng.integers(-(p - 1), p, size=(k, 4), dtype=np.int64)
        want = (a.astype(object) @ b.astype(object)) % p
        assert mat_mul_mod(a, b, p).tolist() == want.tolist()


def _random_map(rng, n, p, density):
    """A random BasisMap with coefficients in (-p, p) and its dense matrix."""
    dense = rng.integers(-(p - 1), p, size=(n, n), dtype=np.int64)
    dense[rng.random((n, n)) >= density] = 0
    rows, cols = np.nonzero(dense)
    # entries listed row by row: the map sorts them into columns
    return BasisMap(n, rows, cols, dense[rows, cols]), dense


def test_basis_map_products_match_python_integers():
    rng = np.random.default_rng(47)
    for p, n, density in ((3, 1, 1.0), (5, 17, 0.2), (7, 60, 0.05), (_largest_prime(60), 60, 0.3)):
        m, dense = _random_map(rng, n, p, density)
        assert np.array_equal(m.dense(), dense)
        # 300 rows against up to 1,080 entries crosses the scratch block bound
        for k in (0, 1, 300):
            x = rng.integers(-(p - 1), p, size=(k, n), dtype=np.int64)
            assert m.pullback(x, p).tolist() == ((x.astype(object) @ dense.astype(object)) % p).tolist()
    empty = BasisMap(4, [], [], [])
    assert not empty.dense().any() and not empty.pullback(np.ones((2, 4), dtype=np.int64), 5).any()


def test_basis_map_refuses_a_modulus_past_the_int64_bound():
    # pullback sums along columns: column 0 has 3 entries, the most of any
    # column, so the product is exact up to the bound for 3 and no further
    m = basis_map([0, 1, 2], lambda b: {0: {0: 1, 1: 1, 2: 1}, 1: {0: 1}, 2: {}}[b])
    dense = m.dense().astype(object)
    q = _largest_prime(3)
    x = np.full((1, 3), q - 1, dtype=np.int64)
    assert m.pullback(x, q).tolist() == ((x.astype(object) @ dense) % q).tolist()
    with pytest.raises(ValueError, match="int64-exact"):
        m.pullback(x, int(sympy.nextprime(q)))


def _dense_images(dense, vectors, p):
    """(vector, index, coeff) of dense @ v mod p for the columns v of a
    (n, k) array, in Python integers, sorted by (vector, index)."""
    images = (dense.astype(object) @ vectors.astype(object)) % p
    return [(e, i, images[i, e]) for e in range(images.shape[1]) for i in range(images.shape[0]) if images[i, e]]


def _triplets(vectors):
    """The nonzero entries of the columns of a (n, k) array as (vector,
    index, coeff) arrays."""
    index, elems = np.nonzero(vectors)
    return elems, index, vectors[index, elems]


def test_apply_terms_matches_dense_products_on_a_hand_built_map():
    p = 5
    # column 1 is all zero; row 0 has three entries, the most of any row
    m = basis_map(range(4), lambda b: [{0: 1, 2: 2}, {}, {0: 4, 3: 1}, {0: 1}][b])
    dense = m.dense()
    assert not dense[:, 1].any()
    vectors = np.array(
        [
            # b0 + b2: row 0 cancels to 1 + 4 = 0 mod 5
            [1, 0, 1, 0],
            # b1 alone: the zero column, so no image terms at all
            [0, 1, 0, 0],
            # unreduced and negative input coefficients
            [7, 3, -1, 2],
        ],
        dtype=np.int64,
    ).T
    arrays = m.apply_terms(*_triplets(vectors), p)
    assert all(a.dtype == np.int64 for a in arrays)
    got = list(zip(*(a.tolist() for a in arrays)))
    assert got == _dense_images(dense, vectors, p)
    assert got[:2] == [(0, 2, 2), (0, 3, 1)]
    empty = m.apply_terms([], [], [], p)
    assert [len(a) for a in empty] == [0, 0, 0]
    # row 0's three entries set the bound, as a column's entries do for pullback
    q = _largest_prime(3)
    x = np.full((4, 1), q - 1, dtype=np.int64)
    assert list(zip(*(a.tolist() for a in m.apply_terms(*_triplets(x), q)))) == _dense_images(dense, x, q)
    with pytest.raises(ValueError, match="int64-exact"):
        m.apply_terms(*_triplets(x), int(sympy.nextprime(q)))


def test_apply_terms_matches_dense_products_on_random_maps():
    rng = np.random.default_rng(53)
    for p, n, density in ((3, 1, 1.0), (5, 17, 0.2), (7, 60, 0.05), (_largest_prime(60), 60, 0.3)):
        m, dense = _random_map(rng, n, p, density)
        vectors = rng.integers(0, p, size=(n, 9), dtype=np.int64)
        vectors[rng.random((n, 9)) >= 0.3] = 0
        got = list(zip(*(a.tolist() for a in m.apply_terms(*_triplets(vectors), p))))
        assert got == _dense_images(dense, vectors, p)


# all-zero rows and empty shapes, which rref reduces like any other input
_DEGENERATE = {
    "all-zero 3x4": np.zeros((3, 4), dtype=np.int64),
    "zero rows between nonzero ones": np.array(
        [[1, 2, 0, 1, 3], [0] * 5, [0, 0, 1, 4, 2], [0] * 5, [2, 4, 1, 1, 3]],
        dtype=np.int64,
    ),
    "0x4": np.zeros((0, 4), dtype=np.int64),
    "3x0": np.zeros((3, 0), dtype=np.int64),
}


@pytest.mark.parametrize("p", (3, 5))
@pytest.mark.parametrize("name", list(_DEGENERATE))
def test_degenerate_input_reduces_like_sympy(name, p):
    a = _DEGENERATE[name]
    nrows, ncols = a.shape
    R, pivots = rref(a, p)
    r = rank(a, p)
    kernel = nullspace(a, p)
    assert R.shape == (r, ncols) and len(pivots) == r
    assert r + kernel.dim == ncols
    assert not (a @ kernel.rows.T % p).any()
    if nrows:  # _gf_matrix reads the width off the first row
        want, want_pivots = _gf_matrix(a.tolist(), p).rref()
        assert _gf_matrix(a.tolist(), p).rank() == r
        assert list(want_pivots) == pivots
        rows = want.to_Matrix().tolist()[:r]
        assert R.tolist() == [[int(x) % p for x in row] for row in rows]
    if not a.any():
        assert r == 0
        assert np.array_equal(kernel.rows, np.eye(ncols, dtype=np.int64))
