"""Prime-field context, parities and Koszul sign bookkeeping.

Scalars are plain ints reduced into [0, p-1]; the modulus lives in a shared
PrimeField context object instead of per-scalar wrappers.
"""

from __future__ import annotations

import math

EVEN = 0
ODD = 1


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


class PrimeField:
    """Exact arithmetic modulo an odd prime p > 2."""

    __slots__ = ("p", "half")

    def __init__(self, p: int) -> None:
        if p <= 2 or not is_prime(p):
            raise ValueError(f"modulus must be an odd prime > 2, got {p}")
        self.p = p
        self.half = pow(2, -1, p)

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def normalize(self, a: int) -> int:
        return a % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("0 has no inverse in F_p")
        return pow(a, -1, self.p)

    def div(self, a: int, b: int) -> int:
        return (a * self.inv(b)) % self.p

    def factorial(self, n: int) -> int:
        return math.factorial(n) % self.p

    def binomial(self, n: int, k: int) -> int:
        # exact integer binomial reduced mod p; n may exceed p
        if k < 0 or k > n:
            return 0
        return math.comb(n, k) % self.p


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
