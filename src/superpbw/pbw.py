"""Ordered-basis straightening in enveloping superalgebras, plus Hopf maps.

Elements of U(g) and of its restricted quotient are stored as dicts from
exponent tuples to coefficients.  An exponent tuple is indexed by the
global generator index but is read as a product in an engine's priority
order; the default engine uses the ambient generator order.

Straightening is collection from the left on exponent tuples: a word is
folded into the basis one letter at a time by right multiplication of a
basis monomial m by a generator g.  With y the last letter of m and
m = m' y^e, a letter g after y is appended; g = y raises the exponent, or
contracts y y to (1/2)[y, y] for odd y and y^p to y^[p] in the restricted
quotient; a letter g before y moves left past the whole power at once by
y^e g = sum_i C(e, i) (ad y)^i(g) y^(e-i) (for odd y, e = 1 and the swapped
term carries the Koszul sign).  A power moves in one step, so the nesting
depth of the recursion does not grow with the exponents.  Products that
are not plain appends or exponent bumps are memoized per engine.
"""

from __future__ import annotations

import itertools
import weakref

from .fp import EVEN, ODD
from .linalg import matrix_from_columns, nullspace


class PBWEngine:
    """Straightening engine for one generator priority and one quotient flag."""

    def __init__(self, algebra, priority=None, restricted=True) -> None:
        # The algebra caches its engines, so the engine holds it weakly: a
        # strong reference would make a cycle that keeps both (and every
        # memo) alive until a full garbage collection.  Whoever uses an
        # engine therefore keeps its algebra alive.
        self._algebra = weakref.ref(algebra)
        if priority is None:
            priority = tuple(range(algebra.dim))
        self.order = tuple(priority)
        if sorted(self.order) != list(range(algebra.dim)):
            raise ValueError("priority must be a permutation of the generators")
        self.rank = {g: pos for pos, g in enumerate(self.order)}
        self.restricted = bool(restricted)
        self._mul_cache: dict = {}
        self._letter_cache: dict = {}
        self._coprod_cache: dict = {}
        self._antipode_cache: dict = {}
        self._reorder_cache: dict = {}
        self._ad_cache: dict = {}
        self._interned: dict = {}
        self._zero_mono = (0,) * algebra.dim
        self._reversed = self.order[::-1]

    @property
    def algebra(self):
        return self._algebra()

    def word_of(self, mono) -> tuple[int, ...]:
        out: list[int] = []
        for g in self.order:
            out.extend([g] * mono[g])
        return tuple(out)

    def mono_parity(self, mono) -> int:
        q = self.algebra.parities
        return sum(e * q[i] for i, e in enumerate(mono)) % 2

    def check_mono(self, mono) -> tuple[int, ...]:
        alg = self.algebra
        mono = tuple(int(e) for e in mono)
        if len(mono) != alg.dim:
            raise ValueError("exponent tuple has wrong length")
        for i, e in enumerate(mono):
            if e < 0:
                raise ValueError("negative exponent")
            if alg.parities[i] == ODD and e > 1:
                raise ValueError("odd exponents are at most 1")
            if self.restricted and alg.parities[i] == EVEN and e >= alg.p:
                raise ValueError("restricted even exponents are below p")
        return mono

    def _last_letter(self, mono):
        """The last letter of a monomial in this engine's order, or None."""
        for g in self._reversed:
            if mono[g]:
                return g
        return None

    def _fits(self, y: int, e: int) -> bool:
        """Whether y^e is a basis power: odd letters square to brackets and
        restricted even letters reach y^[p] at e = p."""
        if self.algebra.parities[y] == ODD:
            return e <= 1
        return not self.restricted or e < self.algebra.p

    def _fold(self, current, g: int):
        """Right multiplication of {mono: coeff} by one generator."""
        p = self.algebra.p
        out: dict[tuple[int, ...], int] = {}
        for m, c in current.items():
            _add_scaled(out, self.mul_letter(m, g), c, p)
        return out

    def straighten_word(self, word):
        """Expand a generator word into the ordered basis; {mono: coeff}."""
        current: dict[tuple[int, ...], int] = {self._zero_mono: 1}
        for g in word:
            current = self._fold(current, g)
            if not current:
                break
        return current

    def mul_letter(self, m, g: int):
        """Right multiplication of a basis monomial by one generator.

        Appends and exponent bumps are returned at once; every other product
        is memoized on (m, g).
        """
        y = self._last_letter(m)
        if y is None or self.rank[g] > self.rank[y] or (g == y and self._fits(y, m[y] + 1)):
            return {m[:g] + (m[g] + 1,) + m[g + 1 :]: 1}
        key = (m, g)
        hit = self._letter_cache.get(key)
        if hit is not None:
            return hit
        alg = self.algebra
        p = alg.p
        e = m[y]
        base = m[:y] + (0,) + m[y + 1 :]
        out: dict[tuple[int, ...], int] = {}
        if g == y:
            # y y = (1/2)[y, y] for odd y; y^p = y^[p] in the restricted quotient
            if alg.parities[y] == ODD:
                image = [alg.field.half * c for c in alg.bracket_coords(y, y)]
            else:
                image = alg.p_map[y]
            for k, c in enumerate(image):
                if c:
                    _add_scaled(out, self.mul_letter(base, k), c, p)
        else:
            # y^e g = sum_i C(e, i) (ad y)^i(g) y^(e-i); odd y has e = 1 and
            # the Koszul sign on the swapped term
            swap = -1 if alg.parities[y] and alg.parities[g] else 1
            for i, vec in enumerate(self._ad_powers(y, g, e)):
                b = alg.field.binomial(e, i) * (swap if i == 0 else 1)
                if not b:
                    continue
                for k, c in enumerate(vec):
                    if c:
                        for n, t in self.mul_letter(base, k).items():
                            _add_scaled(out, self._mul_power(n, y, e - i), b * c * t, p)
        self._letter_cache[key] = out
        return out

    def _ad_powers(self, y: int, g: int, e: int):
        """Coordinates of (ad y)^i(g) for i = 0..e, stopping after a zero."""
        chain = self._ad_cache.get((y, g))
        if chain is None:
            chain = self._ad_cache[y, g] = [self._unit(g)]
        while len(chain) <= e and any(chain[-1]):
            chain.append(self.algebra.bracket_vec(self._unit(y), chain[-1]))
        return chain[: e + 1]

    def _unit(self, g: int) -> tuple[int, ...]:
        return self._zero_mono[:g] + (1,) + self._zero_mono[g + 1 :]

    def _mul_power(self, n, y: int, j: int):
        """n y^j for a basis monomial n; a bump when y^j lands in place."""
        last = self._last_letter(n)
        if (last is None or self.rank[last] <= self.rank[y]) and self._fits(y, n[y] + j):
            return {n[:y] + (n[y] + j,) + n[y + 1 :]: 1}
        out = {n: 1}
        for _ in range(j):
            out = self._fold(out, y)
        return out

    def mul_mono(self, m1, m2):
        """Product of two basis monomials as {mono: coeff}; memoized."""
        key = (m1, m2)
        hit = self._mul_cache.get(key)
        if hit is None:
            hit = {m1: 1}
            for g in self.word_of(m2):
                hit = self._fold(hit, g)
                if not hit:
                    break
            self._mul_cache[key] = hit
        return hit

    def reorder_from_identity(self, m):
        """Expand a monomial written in the ambient order into this basis."""
        hit = self._reorder_cache.get(m)
        if hit is None:
            word: list[int] = []
            for g in range(self.algebra.dim):
                word.extend([g] * m[g])
            hit = self.straighten_word(tuple(word))
            self._reorder_cache[m] = hit
        return hit

    def coproduct_mono(self, m):
        """Tensor-square expansion of the coproduct; {(m1, m2): coeff}."""
        hit = self._coprod_cache.get(m)
        if hit is not None:
            return hit
        f = self.algebra.field
        q = self.algebra.parities
        zero = self._zero_mono
        terms: dict[tuple, int] = {(zero, zero): 1}
        for g in self.order:
            a = m[g]
            if a == 0:
                continue
            if q[g] == ODD:
                factors = [(1, 0, 1), (0, 1, 1)]
            else:
                factors = [(k, a - k, f.binomial(a, k)) for k in range(a + 1)]
            new: dict[tuple, int] = {}
            for (m1, m2), c in terms.items():
                p2 = self.mono_parity(m2)
                shifted = {}
                for kl, kr, bc in factors:
                    nm1 = m1[:g] + (m1[g] + kl,) + m1[g + 1 :]
                    nm2 = m2[:g] + (m2[g] + kr,) + m2[g + 1 :]
                    shifted[nm1, nm2] = -bc if (q[g] * kl) % 2 and p2 else bc
                _add_scaled(new, shifted, c, f.p)
            terms = new
        # the cache holds ~2 tuples per term, mostly repeats; share them
        intern = self._interned.setdefault
        terms = {(intern(a, a), intern(b, b)): c for (a, b), c in terms.items()}
        self._coprod_cache[m] = terms
        return terms

    def antipode_mono(self, m):
        """Antipode of a basis monomial; {mono: coeff}; memoized."""
        hit = self._antipode_cache.get(m)
        if hit is not None:
            return hit
        p = self.algebra.p
        if m == self._zero_mono:
            out = {m: 1}
        else:
            # S(x rest) = -(-1)^(|x||rest|) S(rest) x for the first letter x
            x = next(g for g in self.order if m[g])
            rest = m[:x] + (m[x] - 1,) + m[x + 1 :]
            sign = -1 if self.algebra.parities[x] and self.mono_parity(rest) else 1
            x_mono = self._unit(x)
            out = {}
            for m2, c in self.antipode_mono(rest).items():
                _add_scaled(out, self.mul_mono(m2, x_mono), -sign * c, p)
        self._antipode_cache[m] = out
        return out


def _add_scaled(out: dict, terms: dict, c: int, p: int) -> None:
    """out += c * terms over F_p, dropping keys that cancel."""
    for k, t in terms.items():
        v = (out.get(k, 0) + c * t) % p
        if v:
            out[k] = v
        else:
            out.pop(k, None)


def get_engine(algebra, restricted=True, priority=None) -> PBWEngine:
    """The shared engine for one order and quotient flag; the identity
    priority is the default order."""
    key = (tuple(priority) if priority is not None else None, bool(restricted))
    eng = algebra._engine_cache.get(key)
    if eng is None:
        if key[0] == tuple(range(algebra.dim)):
            eng = get_engine(algebra, restricted)
        else:
            eng = PBWEngine(algebra, priority, restricted)
        algebra._engine_cache[key] = eng
    return eng


class UElement:
    """Element of U(g) (restricted=False) or of the restricted quotient.

    terms maps exponent tuples in the ambient generator order to nonzero
    coefficients.
    """

    __slots__ = ("algebra", "restricted", "terms")

    def __init__(self, algebra, restricted, terms=None) -> None:
        self.algebra = algebra
        self.restricted = bool(restricted)
        self.terms: dict[tuple[int, ...], int] = {}
        if terms:
            f = algebra.field
            for m, c in terms.items():
                v = f.normalize(c)
                if v:
                    self.terms[tuple(m)] = v

    @classmethod
    def zero(cls, algebra, restricted=True) -> "UElement":
        return cls(algebra, restricted)

    @classmethod
    def one(cls, algebra, restricted=True) -> "UElement":
        return cls(algebra, restricted, {(0,) * algebra.dim: 1})

    @classmethod
    def generator(cls, algebra, index, restricted=True) -> "UElement":
        m = tuple(1 if i == index else 0 for i in range(algebra.dim))
        return cls(algebra, restricted, {m: 1})

    @classmethod
    def monomial(cls, algebra, exps, restricted=True) -> "UElement":
        eng = get_engine(algebra, restricted)
        return cls(algebra, restricted, {eng.check_mono(exps): 1})

    def _engine(self) -> PBWEngine:
        return get_engine(self.algebra, self.restricted)

    def _compat(self, other: "UElement") -> None:
        if self.algebra is not other.algebra or self.restricted != other.restricted:
            raise ValueError("elements live in different algebras")

    def __add__(self, other: "UElement") -> "UElement":
        self._compat(other)
        out = dict(self.terms)
        _add_scaled(out, other.terms, 1, self.algebra.p)
        return UElement(self.algebra, self.restricted, out)

    def __neg__(self) -> "UElement":
        f = self.algebra.field
        return UElement(self.algebra, self.restricted, {m: f.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other: "UElement") -> "UElement":
        return self + (-other)

    def scale(self, c: int) -> "UElement":
        f = self.algebra.field
        c = f.normalize(c)
        if not c:
            return UElement.zero(self.algebra, self.restricted)
        return UElement(self.algebra, self.restricted, {m: f.mul(c, v) for m, v in self.terms.items()})

    def __rmul__(self, c: int) -> "UElement":
        if isinstance(c, int):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._compat(other)
        p = self.algebra.p
        eng = self._engine()
        out: dict[tuple[int, ...], int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _add_scaled(out, eng.mul_mono(m1, m2), c1 * c2, p)
        return UElement(self.algebra, self.restricted, out)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, UElement)
            and self.algebra is other.algebra
            and self.restricted == other.restricted
            and self.terms == other.terms
        )

    def parity(self):
        """0 or 1 if homogeneous, None for mixed or zero."""
        eng = self._engine()
        seen = {eng.mono_parity(m) for m in self.terms}
        return seen.pop() if len(seen) == 1 else None

    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        names = self.algebra.names
        parts = []
        for m in sorted(self.terms):
            c = self.terms[m]
            facs = [f"{names[i]}^{e}" if e > 1 else names[i] for i, e in enumerate(m) if e]
            body = "*".join(facs) if facs else "1"
            parts.append(f"{c}*{body}" if (c != 1 or not facs) else body)
        return " + ".join(parts)


def coproduct(u: UElement) -> "TensorSquare":
    eng = u._engine()
    out: dict[tuple, int] = {}
    for m, c in u.terms.items():
        _add_scaled(out, eng.coproduct_mono(m), c, u.algebra.p)
    return TensorSquare(u.algebra, u.restricted, out)


def antipode(u: UElement) -> UElement:
    eng = u._engine()
    out: dict[tuple[int, ...], int] = {}
    for m, c in u.terms.items():
        _add_scaled(out, eng.antipode_mono(m), c, u.algebra.p)
    return UElement(u.algebra, u.restricted, out)


def counit(u: UElement) -> int:
    return u.terms.get((0,) * u.algebra.dim, 0)


class TensorSquare:
    """Element of U tensor U, stored as {(mono, mono): coeff}."""

    __slots__ = ("algebra", "restricted", "terms")

    def __init__(self, algebra, restricted, terms=None) -> None:
        self.algebra = algebra
        self.restricted = bool(restricted)
        self.terms: dict[tuple, int] = {}
        if terms:
            f = algebra.field
            for k, c in terms.items():
                v = f.normalize(c)
                if v:
                    self.terms[k] = v

    def __mul__(self, other: "TensorSquare") -> "TensorSquare":
        # componentwise product with the sign for moving the second left
        # leg past the first right leg
        eng = get_engine(self.algebra, self.restricted)
        p = self.algebra.p
        out: dict[tuple, int] = {}
        for (a1, a2), c1 in self.terms.items():
            pa2 = eng.mono_parity(a2)
            for (b1, b2), c2 in other.terms.items():
                c = -c1 * c2 if pa2 and eng.mono_parity(b1) else c1 * c2
                left, right = eng.mul_mono(a1, b1), eng.mul_mono(a2, b2)
                prod = {(m1, m2): t1 * t2 for m1, t1 in left.items() for m2, t2 in right.items()}
                _add_scaled(out, prod, c, p)
        return TensorSquare(self.algebra, self.restricted, out)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TensorSquare)
            and self.algebra is other.algebra
            and self.restricted == other.restricted
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"<TensorSquare with {len(self.terms)} terms>"


def normal_order_split(u: UElement, split, side="left"):
    """Rewrite u with subalgebra letters on one side of complement letters.

    Returns {complement_exps: {subalgebra_exps: coeff}} with both exponent
    tuples in the split's local orders.
    """
    alg = u.algebra
    if side == "left":
        priority = split.h_indices + split.c_indices
    elif side == "right":
        priority = split.c_indices + split.h_indices
    else:
        raise ValueError("side must be 'left' or 'right'")
    eng = get_engine(alg, u.restricted, priority)
    terms: dict[tuple[int, ...], int] = {}
    for m, c in u.terms.items():
        _add_scaled(terms, eng.reorder_from_identity(m), c, alg.p)
    out: dict[tuple, dict[tuple, int]] = {}
    for m, c in terms.items():
        c_exps = tuple(m[g] for g in split.c_indices)
        out.setdefault(c_exps, {})[tuple(m[g] for g in split.h_indices)] = c
    return out


def filtration_degree(u: UElement, split) -> int:
    """Smallest r with all complement even exponents below p^(r+1); -1 inside U(h)."""
    p = u.algebra.p
    parts = normal_order_split(u, split, side="left")
    even_count = split.n_even
    r = -1
    for c_exps in parts:
        if not any(c_exps):
            continue
        level = 0
        for e in c_exps[:even_count]:
            while e >= p ** (level + 1):
                level += 1
        r = max(r, level)
    return r


def restricted_monomials(algebra) -> list[tuple[int, ...]]:
    """All exponent tuples of the restricted basis, in lex order."""
    ranges = [
        range(algebra.p) if q == EVEN else range(2) for q in algebra.parities
    ]
    return [tuple(t) for t in itertools.product(*ranges)]


def monomials_of_degree_at_most(algebra, bound: int) -> list[tuple[int, ...]]:
    """Unrestricted basis exponent tuples with total degree at most bound."""
    ranges = [
        range(bound + 1) if q == EVEN else range(2) for q in algebra.parities
    ]
    return [t for t in itertools.product(*ranges) if sum(t) <= bound]


def primitive_space(algebra, restricted=True, degree_bound=None):
    """Solve coproduct(x) = x tensor 1 + 1 tensor x on a monomial window.

    Returns (kernel SubspaceBasis, monomial labels); coordinates of the
    kernel vectors follow the label order.
    """
    if restricted:
        monos = restricted_monomials(algebra)
    else:
        if degree_bound is None:
            raise ValueError("unrestricted primitives need a degree bound")
        monos = monomials_of_degree_at_most(algebra, degree_bound)
    eng = get_engine(algebra, restricted)
    zero = (0,) * algebra.dim
    cols = []
    for m in monos:
        col = dict(eng.coproduct_mono(m))
        for key in ((m, zero), (zero, m)):
            _add_scaled(col, {key: 1}, -1, algebra.p)
        cols.append(col)
    mat, _ = matrix_from_columns(cols, algebra.p)
    return nullspace(mat, algebra.p), monos
