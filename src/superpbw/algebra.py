"""Finite-dimensional restricted Lie superalgebras given by structure constants.

An algebra is described by a basis with parities, bracket coordinates on
generator pairs, and the p-th power map on even generators.  Everything is
exact over F_p with p an odd prime.
"""

from __future__ import annotations

import weakref

import numpy as np

from .fp import EVEN, ODD, is_prime
from .linalg import mat_mul_mod, mat_pow_mod


class StructureError(ValueError):
    """Raised when structure constants violate a superalgebra axiom."""


class LieSuperAlgebra:
    """Lie superalgebra over F_p with a distinguished homogeneous basis.

    brackets maps index pairs (i, j) to the coordinate vector of
    [b_i, b_j]; omitted pairs are filled in by super antisymmetry or zero.
    p_map maps even generator indices to coordinates of the p-th power.
    """

    def __init__(self, p, names, parities, brackets, p_map=None, name="") -> None:
        if p <= 2 or not is_prime(p):
            raise ValueError(f"modulus must be an odd prime > 2, got {p}")
        self.p = p
        self.name = name
        self.names = tuple(names)
        self.parities = tuple(int(q) for q in parities)
        self.dim = len(self.names)
        if len(self.parities) != self.dim:
            raise ValueError("names and parities must have the same length")
        if any(q not in (EVEN, ODD) for q in self.parities):
            raise ValueError("parities must be 0 or 1")
        if len(set(self.names)) != self.dim:
            raise ValueError("generator names must be distinct")
        self.even_indices = tuple(i for i, q in enumerate(self.parities) if q == EVEN)
        self.odd_indices = tuple(i for i, q in enumerate(self.parities) if q == ODD)
        self._table = self._build_table(brackets or {})
        self.p_map = self._build_p_map(p_map or {})
        self._engine_cache: dict = {}

    def _build_table(self, brackets):
        p = self.p
        given: dict[tuple[int, int], tuple[int, ...]] = {}
        for (i, j), coords in brackets.items():
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise ValueError(f"bracket index pair {(i, j)} out of range")
            v = tuple(c % p for c in coords)
            if len(v) != self.dim:
                raise ValueError(f"bracket ({i},{j}) has {len(v)} coordinates")
            given[i, j] = v
        table = [[None] * self.dim for _ in range(self.dim)]
        zero = (0,) * self.dim
        for i in range(self.dim):
            for j in range(self.dim):
                ij = given.get((i, j))
                ji = given.get((j, i))
                sign = -1 if self.parities[i] * self.parities[j] == 0 else 1
                if ij is None and ji is not None:
                    ij = tuple(sign * c % p for c in ji)
                elif ij is None:
                    ij = zero
                elif ji is not None and i != j:
                    flipped = tuple(sign * c % p for c in ji)
                    if flipped != ij:
                        raise StructureError(
                            f"brackets ({i},{j}) and ({j},{i}) are not super antisymmetric"
                        )
                if i == j and self.parities[i] == EVEN and any(ij):
                    raise StructureError(f"[b_{i}, b_{i}] must vanish for even b_{i}")
                table[i][j] = ij
        return table

    def _build_p_map(self, p_map):
        out: dict[int, tuple[int, ...]] = {}
        for i, coords in p_map.items():
            if self.parities[i] != EVEN:
                raise StructureError(f"p-map is only defined on even generators, got b_{i}")
            v = tuple(c % self.p for c in coords)
            if len(v) != self.dim:
                raise ValueError(f"p-map image of b_{i} has {len(v)} coordinates")
            if any(v[k] for k in self.odd_indices):
                raise StructureError(f"p-map image of b_{i} must be even")
            out[i] = v
        for i in self.even_indices:
            out.setdefault(i, (0,) * self.dim)
        return out

    def bracket_coords(self, i: int, j: int) -> tuple[int, ...]:
        return self._table[i][j]

    def bracket_vec(self, x, y) -> tuple[int, ...]:
        """Bracket of two coordinate vectors."""
        p = self.p
        out = [0] * self.dim
        for i, xi in enumerate(x):
            if not xi % p:
                continue
            for j, yj in enumerate(y):
                if not yj % p:
                    continue
                c = xi * yj % p
                for k, t in enumerate(self._table[i][j]):
                    if t:
                        out[k] = (out[k] + c * t) % p
        return tuple(out)

    def ad(self, i: int) -> np.ndarray:
        """Matrix of ad(b_i) on the defining basis (columns are brackets)."""
        out = np.zeros((self.dim, self.dim), dtype=np.int64)
        for j in range(self.dim):
            out[:, j] = self._table[i][j]
        return out

    def validate(self) -> dict[str, tuple[bool, str]]:
        """Check the axioms on generators; returns {check: (ok, detail)}.

        The super Jacobi identity says ad preserves brackets and the p-map
        axiom says (ad x)^p = ad(x^[p]), so both are the defining relations
        of u(g) on the adjoint matrices.
        """
        ads = {i: self.ad(i) for i in range(self.dim)}
        relations = check_relations(self, ads)
        report: dict[str, tuple[bool, str]] = {}
        report["parity-additive"] = self._check_parity_additive()
        ok, msg = relations["brackets"]
        report["jacobi"] = self._check_odd_cubes(ads) if ok else (False, f"jacobi fails: {msg}")
        ok, msg = relations["p-powers"]
        report["p-map"] = (ok, msg and f"p-map fails: {msg}")
        return report

    def is_valid(self) -> bool:
        return all(ok for ok, _ in self.validate().values())

    def _check_parity_additive(self):
        for i in range(self.dim):
            for j in range(self.dim):
                want = (self.parities[i] + self.parities[j]) % 2
                for k, c in enumerate(self._table[i][j]):
                    if c and self.parities[k] != want:
                        return False, f"[b_{i}, b_{j}] has a parity-{self.parities[k]} component"
        return True, ""

    def _check_odd_cubes(self, ads):
        # at p = 3 the multilinear identity does not force [x,[x,x]] = 0;
        # [b_i, b_i] is column i of ad b_i
        for i in self.odd_indices:
            if mat_mul_mod(ads[i], ads[i], self.p)[:, i].any():
                return False, f"[b_{i}, [b_{i}, b_{i}]] != 0"
        return True, ""

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no generator named {name!r}") from None

    def __repr__(self) -> str:
        tag = self.name or "LieSuperAlgebra"
        return f"<{tag} dim={self.dim} p={self.p}>"


def check_relations(algebra, matrices) -> dict[str, tuple[bool, str]]:
    """Test generator matrices against the defining relations of u(g).

    matrices maps generator indices, a set closed under the bracket and the
    p-map, to the matrices of their actions.  "brackets" checks the super
    commutators [A_i, A_j] against the structure constants (at i = j odd
    this is y^2 = (1/2)[y, y], since 2 is invertible); "p-powers" checks
    A_x^p = A_{x^[p]} for even x.  Each entry is (ok, witness).

    Each unordered pair is tested once, i before or at j in the order of
    matrices.  With s = (-1)^(|i||j|), the commutator side of (j, i) is
    -s times that of (i, j), and so is the bracket side, since
    LieSuperAlgebra refuses a table that is not super antisymmetric.  So
    (j, i) fails exactly when (i, j) does, and the first failing ordered
    pair in row-major order is always one with i before or at j: the
    witness is the one the full square of pairs would give.
    """
    p = algebra.p
    gens = list(matrices)

    def combination(coords):
        out = np.zeros_like(matrices[gens[0]])
        for k, c in enumerate(coords):
            if c:
                out = (out + c * matrices[k]) % p
        return out

    def bracket_witness() -> str:
        for pos, i in enumerate(gens):
            for j in gens[pos:]:
                a, b = matrices[i], matrices[j]
                sign = -1 if algebra.parities[i] * algebra.parities[j] else 1
                lhs = (mat_mul_mod(a, b, p) - sign * mat_mul_mod(b, a, p)) % p
                if not np.array_equal(lhs, combination(algebra.bracket_coords(i, j))):
                    return f"super commutator of b_{i}, b_{j} mismatches the bracket"
        return ""

    def p_power_witness() -> str:
        for i in gens:
            if algebra.parities[i] == EVEN and not np.array_equal(
                mat_pow_mod(matrices[i], p, p), combination(algebra.p_map[i])
            ):
                return f"action of b_{i}^p mismatches the p-map image"
        return ""

    witnesses = {"brackets": bracket_witness(), "p-powers": p_power_witness()}
    return {name: (not w, w) for name, w in witnesses.items()}


class SubalgebraSplit:
    """A vector-space split g = h (+) c with h spanned by chosen generators.

    h must be a restricted subalgebra.  The complement is ordered with even
    generators first, each block keeping the ambient order; that fixed order
    is what induced and coinduced bases are built on.

    memo is the one store of what depends only on the split, a window and
    a representation's data (Representation.key): actions, certified sets
    of generator matrices, socles and their sections, annihilators and
    Berezin data, all read-only plain data that holds no split, window or
    module, and the supertrace character, which holds the split only
    weakly.
    """

    def __init__(self, algebra: LieSuperAlgebra, h_indices, name="") -> None:
        self.algebra = algebra
        self.name = name
        self.h_indices = tuple(sorted(set(h_indices)))
        for i in self.h_indices:
            if not (0 <= i < algebra.dim):
                raise ValueError(f"subalgebra index {i} out of range")
        rest = [i for i in range(algebra.dim) if i not in set(self.h_indices)]
        evens = [i for i in rest if algebra.parities[i] == EVEN]
        odds = [i for i in rest if algebra.parities[i] == ODD]
        self.c_indices = tuple(evens + odds)
        self.n_even = len(evens)
        self.m_odd = len(odds)
        self.h_parities = tuple(algebra.parities[i] for i in self.h_indices)
        self.c_parities = tuple(algebra.parities[i] for i in self.c_indices)
        self._h_local = {g: loc for loc, g in enumerate(self.h_indices)}
        self._memo: dict = {}
        self._check_closure()

    def _check_closure(self) -> None:
        alg = self.algebra
        hset = set(self.h_indices)
        for i in self.h_indices:
            for j in self.h_indices:
                coords = alg.bracket_coords(i, j)
                if any(c for k, c in enumerate(coords) if k not in hset):
                    raise StructureError(
                        f"[b_{i}, b_{j}] leaves the subalgebra; split is not closed"
                    )
        for i in self.h_indices:
            if alg.parities[i] == EVEN:
                coords = alg.p_map[i]
                if any(c for k, c in enumerate(coords) if k not in hset):
                    raise StructureError(f"b_{i}^[p] leaves the subalgebra")

    def h_local(self, global_index: int) -> int:
        return self._h_local[global_index]

    def memo(self, key, build):
        """The value under key, built once; arrays, alone or as dict values, are read-only."""
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = build()
            for a in hit.values() if isinstance(hit, dict) else (hit,):
                if isinstance(a, np.ndarray):
                    a.setflags(write=False)
        return hit

    def supertrace_character(self) -> "Character":
        """The character H -> str(ad H on g/h); zero on odd generators.
        Built once per split."""

        def build():
            alg = self.algebra
            values = []
            for i in self.h_indices:
                if alg.parities[i] == ODD:
                    values.append(0)
                    continue
                diagonal = (alg.bracket_coords(i, j)[j] for j in self.c_indices)
                values.append(sum(-d if q else d for d, q in zip(diagonal, self.c_parities)))
            return Character(self, values, name="supertrace")

        return self.memo(("supertrace",), build)

    def __repr__(self) -> str:
        tag = self.name or "split"
        return f"<{tag}: h={self.h_indices} c={self.c_indices} of {self.algebra!r}>"


class Character:
    """A one-dimensional even character of the split subalgebra.

    Stored as one value per subalgebra generator.  Must vanish on odd
    generators and on all brackets inside the subalgebra.

    The split stores its supertrace character, so a character holds its
    split weakly: a strong reference would make a cycle that keeps the
    split, its algebra and every memo alive until a full garbage
    collection.  Whoever uses a character therefore keeps its split alive.
    """

    def __init__(self, split: SubalgebraSplit, values, name="") -> None:
        self._split = weakref.ref(split)
        self.name = name
        self.values = tuple(v % split.algebra.p for v in values)
        if len(self.values) != len(split.h_indices):
            raise ValueError("need one value per subalgebra generator")
        for loc, q in enumerate(split.h_parities):
            if q == ODD and self.values[loc]:
                raise ValueError("characters vanish on odd generators")
        self._check_vanishes_on_brackets()

    @property
    def split(self) -> SubalgebraSplit:
        return self._split()

    def _check_vanishes_on_brackets(self) -> None:
        alg = self.split.algebra
        for i in self.split.h_indices:
            for j in self.split.h_indices:
                coords = alg.bracket_coords(i, j)
                if self.eval_coords(coords):
                    raise StructureError(f"character does not kill [b_{i}, b_{j}]")

    def value(self, h_global: int) -> int:
        return self.values[self.split.h_local(h_global)]

    def eval_coords(self, coords) -> int:
        """Evaluate on a coordinate vector supported inside the subalgebra."""
        p = self.split.algebra.p
        total = 0
        for k, c in enumerate(coords):
            if not c % p:
                continue
            loc = self.split._h_local.get(k)
            if loc is None:
                raise ValueError("coordinate vector leaves the subalgebra")
            total = (total + c * self.values[loc]) % p
        return total

    def is_restricted(self) -> bool:
        """chi(H^[p]) == chi(H)^p on even subalgebra generators."""
        alg = self.split.algebra
        for i in self.split.h_indices:
            if alg.parities[i] == ODD:
                continue
            lhs = self.eval_coords(alg.p_map[i])
            rhs = pow(self.value(i), alg.p, alg.p)
            if lhs != rhs:
                return False
        return True

    def scaled(self, factor: int) -> "Character":
        return Character(self.split, [factor * v for v in self.values], name=self.name)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Character)
            and self.split is other.split
            and self.values == other.values
        )

    def __repr__(self) -> str:
        tag = self.name or "character"
        return f"<{tag} {self.values} on h={self.split.h_indices}>"
