import numpy as np
import pytest

from superpbw import LieSuperAlgebra, koszul_sign


def test_rejects_non_prime_and_two():
    for bad in (0, 1, 2, 4, 9, 15):
        with pytest.raises(ValueError, match="modulus must be an odd prime > 2"):
            LieSuperAlgebra(bad, ["x"], [0], {})


# ------------------------------------------------------------------
# Koszul signs
# ------------------------------------------------------------------


def test_koszul_sign_basics():
    assert koszul_sign([], []) == 1
    assert koszul_sign([0, 1], [1, 1]) == 1
    assert koszul_sign([1, 0], [1, 1]) == -1
    assert koszul_sign([1, 0], [0, 1]) == 1
    assert koszul_sign([1, 0], [0, 0]) == 1
    # reversing three odd letters needs three odd-odd swaps
    assert koszul_sign([2, 1, 0], [1, 1, 1]) == -1


def test_koszul_sign_counts_odd_inversions():
    rng = np.random.default_rng(7)
    for _ in range(200):
        k = int(rng.integers(0, 6))
        perm = list(rng.permutation(k))
        parities = [int(b) for b in rng.integers(0, 2, size=k)]
        inv = sum(
            1
            for i in range(k)
            for j in range(i + 1, k)
            if perm[i] > perm[j] and parities[perm[i]] and parities[perm[j]]
        )
        assert koszul_sign(perm, parities) == (-1) ** inv


def test_koszul_sign_rejects_garbage():
    with pytest.raises(ValueError):
        koszul_sign([0, 0], [1, 1])
    with pytest.raises(ValueError):
        koszul_sign([0, 1], [1])
    with pytest.raises(ValueError):
        koszul_sign([0], [2])
