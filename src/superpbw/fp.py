"""Parities, the primality test and Koszul sign bookkeeping.

Scalars in F_p are plain ints; callers hold p and reduce with ``% p``.
"""

from __future__ import annotations

import math

EVEN = 0
ODD = 1


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def koszul_sign(permutation, parities) -> int:
    """Sign picked up when reordering homogeneous factors by ``permutation``.

    ``permutation[i]`` is the index of the original factor placed at slot i;
    ``parities[j]`` is the parity of original factor j.  The factors are
    sorted back with adjacent transpositions and every swap of two odd
    factors contributes -1.  Returns +1 or -1.
    """
    perm = list(permutation)
    if sorted(perm) != list(range(len(perm))):
        raise ValueError("permutation must be a bijection of 0..k-1")
    if len(parities) != len(perm):
        raise ValueError("parities must match permutation length")
    for q in parities:
        if q not in (0, 1):
            raise ValueError(f"parity must be 0 or 1, got {q!r}")
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(perm) - 1):
            if perm[i] > perm[i + 1]:
                if parities[perm[i]] and parities[perm[i + 1]]:
                    sign = -sign
                perm[i], perm[i + 1] = perm[i + 1], perm[i]
                changed = True
    return sign
