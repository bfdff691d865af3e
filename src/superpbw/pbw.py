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
depth of the recursion does not grow with the exponents.  Letter products
that are not plain appends or exponent bumps (``_append``) are memoized per
engine; a fold adds an append straight into its sum.

Monomial products are memoized per engine too.  In the restricted quotient
a new product m1 m2 folds one letter: with g the last letter of m2 in the
engine's order and m2 = m2' g, it is the memoized m1 m2' times g, and a
missing m1 m2' is built first the same way, down to the longest memoized
prefix of m2 (or {m1: 1}), in a loop.  The word of m2 is the word of m2'
followed by g, and the fold is linear and letter by letter, so this is the
whole-word fold step for step: the same terms in the same order.  Products
in U(g) fold the whole word of m2, since their prefixes are rarely asked
for again.

The coproduct needs no straightening: the coefficient of one split
(m1 | m2) is a closed law (``coproduct_coeff``), and ``coproduct_mono``
expands a monomial's coproduct through it.  Every term of the coproduct of
m splits m, so ``primitive_space`` reads primitives one monomial at a time.

Every monomial an engine's memos hold, in keys and in values, is the
engine's one tuple for it, kept in its one intern map (``_interned``).  The
hot path (``_append``, ``_fits``, ``_fold``, ``mono_parity``) reads the
prime, the odd letters and each letter's largest basis exponent off the
engine, not off its weakly held algebra.

A restricted engine also builds, once each, the antipode and left and right
multiplication by each generator as sparse maps on the restricted basis
(``antipode_map``, ``regular_map``; see ``linalg.BasisMap``).

A product in U tensor U loops over term pairs, each leg product taken from
``mul_mono``; it takes each term's parity once per factor and adds the leg
products up in one dict.

Three certificates, none sampled, make the restricted engines a proof.
``product_relations_witness`` checks the defining relations of u(g) (the
bracket, the odd squares and the p-map) on the fold of every restricted
monomial, which proves the fold is the product of u(g).  The argument
holds in any letter order, so the engine check runs it on the ambient
engine and on every split engine (``split_engine``); the two other
certificates run on the ambient engine alone.
``multiplicativity_witness`` checks coproduct(m' b_g) = coproduct(m')
coproduct(b_g) once per restricted monomial m = m' b_g, b_g its last
letter, which with the generators' coproducts proves the coproduct the
algebra map it must be; its leg products are all appends, so it leans on the
first certificate only through the tensor square's product.
``antipode_chain_witness`` checks S(m' b_g) = -(-1)^(|g||m'|) b_g S(m')
along the same chain, which proves the antipode the anti-algebra map it must
be.  Together they make the fold, the coproduct, the antipode and the
counit (the coefficient of 1) the Hopf structure of u(g).
"""

from __future__ import annotations

import itertools
import math
import operator
import weakref

from .algebra import StructureError
from .fp import EVEN, ODD
from .linalg import BasisMap, basis_map


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
        self._ad_cache: dict = {}
        self._basis_maps: dict = {}
        self._interned: dict = {}
        self._zero_mono = (0,) * algebra.dim
        self._reversed = self.order[::-1]
        self._letters = tuple((g, algebra.parities[g] == ODD) for g in self.order)
        # the hot path reads these instead of the weakly held algebra: the
        # prime, the odd letters, and each letter's largest basis exponent
        # (1 for odd letters, p - 1 for restricted even ones, unbounded in U(g))
        self.p = algebra.p
        self._odd = tuple(g for g in range(algebra.dim) if algebra.parities[g] == ODD)
        even_top = algebra.p - 1 if self.restricted else math.inf
        self._top = tuple(1 if q == ODD else even_top for q in algebra.parities)

    @property
    def algebra(self):
        return self._algebra()

    def word_of(self, mono) -> tuple[int, ...]:
        out: list[int] = []
        for g in self.order:
            out.extend([g] * mono[g])
        return tuple(out)

    def mono_parity(self, mono) -> int:
        return sum(mono[g] for g in self._odd) % 2

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
        return e <= self._top[y]

    def _append(self, m, g: int):
        """m g as a monomial when g appends to m or bumps its last letter in
        place, else None."""
        y = self._last_letter(m)
        if y is None or self.rank[g] > self.rank[y] or (g == y and m[y] < self._top[y]):
            return m[:g] + (m[g] + 1,) + m[g + 1 :]
        return None

    def _intern(self, m):
        """The engine's one tuple equal to the monomial m."""
        return self._interned.setdefault(m, m)

    def _store(self, cache, key, terms):
        """Memoize terms, each monomial swapped for its interned tuple and in
        the same order, under key (interned by the caller); return them."""
        intern = self._interned.setdefault
        out = cache[key] = {intern(m, m): c for m, c in terms.items()}
        return out

    def _fold(self, current, word):
        """Right multiplication of {mono: coeff} by the letters of a word,
        one at a time; the one word fold of the engine.  An append goes
        straight into the sum; every other term through ``mul_letter``."""
        p = self.p
        append = self._append
        for g in word:
            out: dict[tuple[int, ...], int] = {}
            for m, c in current.items():
                n = append(m, g)
                if n is None:
                    _add_scaled(out, self.mul_letter(m, g), c, p)
                    continue
                v = (out.get(n, 0) + c) % p
                if v:
                    out[n] = v
                else:
                    out.pop(n, None)
            current = out
            if not current:
                break
        return current

    def straighten_word(self, word):
        """Expand a generator word into the ordered basis; {mono: coeff}."""
        return self._fold({self._zero_mono: 1}, word)

    def mul_letter(self, m, g: int):
        """Right multiplication of a basis monomial by one generator.

        A memoized product is returned first, then an append or exponent
        bump (never memoized); every other product is memoized on (m, g).
        ``_fold`` calls this only after its own append test failed, so a
        memo hit tests for an append once.
        """
        hit = self._letter_cache.get((m, g))
        if hit is not None:
            return hit
        n = self._append(m, g)
        if n is not None:
            return {n: 1}
        alg = self.algebra
        p = alg.p
        y = self._last_letter(m)
        e = m[y]
        base = m[:y] + (0,) + m[y + 1 :]
        out: dict[tuple[int, ...], int] = {}
        if g == y:
            # y y = (1/2)[y, y] for odd y; y^p = y^[p] in the restricted quotient
            if alg.parities[y] == ODD:
                image = [pow(2, -1, p) * c for c in alg.bracket_coords(y, y)]
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
                b = math.comb(e, i) % p * (swap if i == 0 else 1)
                if not b:
                    continue
                for k, c in enumerate(vec):
                    if c:
                        for n, t in self.mul_letter(base, k).items():
                            _add_scaled(out, self._mul_power(n, y, e - i), b * c * t, p)
        return self._store(self._letter_cache, (self._intern(m), g), out)

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
        return self._fold({n: 1}, (y,) * j)

    def mul_mono(self, m1, m2):
        """Product of two basis monomials as {mono: coeff}; memoized.

        A new restricted product is the memoized m1 m2' times g, where
        m2 = m2' g ends in g (``_extend``); as word_of(m2) is word_of(m2')
        + (g,), that is the whole-word fold step for step.  An unrestricted
        product folds the whole word: its prefixes are seldom asked again.
        """
        hit = self._mul_cache.get((m1, m2))
        if hit is None:
            m1, m2 = self._intern(m1), self._intern(m2)
            if self.restricted and m2 != self._zero_mono:
                return self._extend(m1, m2)
            hit = self._store(self._mul_cache, (m1, m2), self._fold({m1: 1}, self.word_of(m2)))
        return hit

    def _extend(self, m1, m2):
        """m1 m2 from the longest prefix m2' of m2 whose product m1 m2' is
        memoized (the empty prefix gives {m1: 1}), folding the rest of m2
        one letter at a time and memoizing each step.  A loop, not a
        recursion, so the depth does not grow with the exponents of m2."""
        cache = self._mul_cache
        steps = []
        n, hit = m2, None
        while hit is None:
            g = self._last_letter(n)
            if g is None:
                hit = {m1: 1}
            else:
                steps.append((n, g))
                n = n[:g] + (n[g] - 1,) + n[g + 1 :]
                hit = cache.get((m1, n))
        for n, g in reversed(steps):
            hit = self._store(cache, (m1, self._intern(n)), self._fold(hit, (g,)))
        return hit

    def coproduct_coeff(self, m1, m2) -> int:
        """Coefficient of (m1 | m2) in the coproduct of m1 + m2, in [0, p).

        The closed law, read letter by letter in this engine's order: an
        even letter with exponents a and b in the two legs gives C(a + b, a);
        an odd letter in both legs gives 0; each odd letter of m1 flips the
        sign once for every odd letter of m2 before it.  This is the
        engine's one copy of the law; ``duality._closed_coproduct_coeff``
        codes it independently (an unshuffle signed by ``koszul_sign``) and
        is its reference.
        """
        p = self.p
        coeff = 1
        odd_right = 0
        for g, odd in self._letters:
            a, b = m1[g], m2[g]
            if odd:
                if a and b:
                    return 0
                if a and odd_right % 2:
                    coeff = -coeff
                odd_right += b
            elif a and b:
                coeff = coeff * math.comb(a + b, a)
        return coeff % p

    def coproduct_mono(self, m):
        """Tensor-square expansion of the coproduct; {(m1, m2): coeff}.

        The terms are the splits k <= m with coproduct_coeff(k, m - k) != 0,
        listed letter by letter in this engine's order; memoized."""
        hit = self._coprod_cache.get(m)
        if hit is not None:
            return hit
        # odd letters put their factor in the left leg first
        choices = [(1, 0) if odd and m[g] else range(m[g] + 1) for g, odd in self._letters]
        intern = self._interned.setdefault
        terms: dict[tuple, int] = {}
        for pick in itertools.product(*choices):
            left = [0] * len(m)
            for g, k in zip(self.order, pick):
                left[g] = k
            m1 = tuple(left)
            m2 = tuple(e - k for e, k in zip(m, m1))
            c = self.coproduct_coeff(m1, m2)
            if c:
                terms[intern(m1, m1), intern(m2, m2)] = c
        self._coprod_cache[intern(m, m)] = terms
        return terms

    def antipode_mono(self, m):
        """Antipode of a basis monomial; {mono: coeff}; memoized."""
        hit = self._antipode_cache.get(m)
        if hit is not None:
            return hit
        p = self.p
        if m == self._zero_mono:
            out = {m: 1}
        else:
            # S(x rest) = -(-1)^(|x||rest|) S(rest) x for the first letter x
            x = next(g for g in self.order if m[g])
            rest = m[:x] + (m[x] - 1,) + m[x + 1 :]
            sign = -1 if self.algebra.parities[x] and self.mono_parity(rest) else 1
            out = {}
            for m2, c in self.antipode_mono(rest).items():
                _add_scaled(out, self.mul_letter(m2, x), -sign * c, p)
        return self._store(self._antipode_cache, self._intern(m), out)

    def antipode_map(self) -> BasisMap:
        """The antipode on restricted_monomials(algebra) as a BasisMap;
        built once per engine.  For a restricted engine."""
        return self._basis_map("antipode", self.antipode_mono)

    def regular_map(self, g: int, side: str) -> BasisMap:
        """Multiplication by the generator g on restricted_monomials(algebra),
        m -> g m for side "left" and m -> m g for "right", as a BasisMap;
        built once per engine and side.  For a restricted engine."""
        x = self._unit(g)
        times = {"left": lambda m: self.mul_mono(x, m), "right": lambda m: self.mul_mono(m, x)}
        if side not in times:
            raise ValueError("side must be 'left' or 'right'")
        return self._basis_map((side, g), times[side])

    def _basis_map(self, key, image_of) -> BasisMap:
        out = self._basis_maps.get(key)
        if out is None:
            out = self._basis_maps[key] = basis_map(restricted_monomials(self.algebra), image_of)
        return out


def _require_same(a, b) -> None:
    """Refuse to combine elements of different algebras or quotients."""
    if a.algebra is not b.algebra or a.restricted != b.restricted:
        raise ValueError("elements live in different algebras")


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
            p = algebra.p
            for m, c in terms.items():
                v = c % p
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

    def __add__(self, other: "UElement") -> "UElement":
        _require_same(self, other)
        out = dict(self.terms)
        _add_scaled(out, other.terms, 1, self.algebra.p)
        return UElement(self.algebra, self.restricted, out)

    def __neg__(self) -> "UElement":
        return UElement(self.algebra, self.restricted, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "UElement") -> "UElement":
        return self + (-other)

    def scale(self, c: int) -> "UElement":
        c %= self.algebra.p
        if not c:
            return UElement.zero(self.algebra, self.restricted)
        return UElement(self.algebra, self.restricted, {m: c * v for m, v in self.terms.items()})

    def __rmul__(self, c: int) -> "UElement":
        if isinstance(c, int):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        _require_same(self, other)
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
            p = algebra.p
            for k, c in terms.items():
                v = c % p
                if v:
                    self.terms[k] = v

    def __mul__(self, other: "TensorSquare") -> "TensorSquare":
        """(a1|a2)(b1|b2) = (-1)^(|a2| |b1|) (a1 b1 | a2 b2), term pair by
        term pair.  Each parity is taken once per term, and the products of
        the leg terms add up in one dict, reduced mod p once at the end."""
        _require_same(self, other)
        eng = get_engine(self.algebra, self.restricted)
        parity, mul = eng.mono_parity, eng.mul_mono
        rights = [(b1, b2, c2, parity(b1)) for (b1, b2), c2 in other.terms.items()]
        out: dict[tuple, int] = {}
        get = out.get
        for (a1, a2), c1 in self.terms.items():
            odd = parity(a2)
            for b1, b2, c2, b_odd in rights:
                c = -c1 * c2 if odd and b_odd else c1 * c2
                right = mul(a2, b2).items()
                for m1, t1 in mul(a1, b1).items():
                    ct = c * t1
                    for m2, t2 in right:
                        out[m1, m2] = get((m1, m2), 0) + ct * t2
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


def product_relations_witness(eng) -> str:
    """'' if the restricted engine eng's fold satisfies the defining
    relations of u(g) on every restricted monomial m, else the first that
    fails:

    (i) folding the word of m onto 1 gives m;
    (ii) m b_i b_j - s m b_j b_i = m [b_i, b_j] for i <= j, s the Koszul
         sign (for odd b_i = b_j this is m b_i b_i = (1/2) m [b_i, b_i]; for
         even ones it reads 0 = 0 and is skipped);
    (iii) m x^p = m x^[p] for every even generator x.

    By (ii) and (iii) the fold makes the span of the monomials a right
    u(g)-module, cyclic on 1 by (i), of dimension p^n 2^m = dim u(g) (PBW),
    so u -> 1 u is a bijection and the fold, which every restricted product
    runs through, is the product of u(g).  Nothing here depends on eng's
    letter order, so it proves a split engine's fold as well as the ambient
    one's.  Every fold goes through ``_fold`` and ``mul_letter``; nothing is
    sampled."""
    algebra = eng.algebra
    p = eng.p
    odd = [algebra.parities[g] == ODD for g in range(algebra.dim)]
    pairs = [
        (i, j)
        for i, j in itertools.combinations_with_replacement(range(algebra.dim), 2)
        if i != j or odd[i]
    ]

    def combination(times, coords):
        out: dict = {}
        for k, c in enumerate(coords):
            if c:
                _add_scaled(out, times[k], c, p)
        return out

    for m in restricted_monomials(algebra):
        if eng.straighten_word(eng.word_of(m)) != {m: 1}:
            return f"word fold fails at {m}"
        times = [eng._fold({m: 1}, (g,)) for g in range(algebra.dim)]
        for i, j in pairs:
            defect = eng._fold(times[i], (j,))
            _add_scaled(defect, eng._fold(times[j], (i,)), 1 if odd[i] and odd[j] else -1, p)
            _add_scaled(defect, combination(times, algebra.bracket_coords(i, j)), -1, p)
            if defect:
                return f"bracket relation fails at {m} b_{i} b_{j}"
        for x in algebra.even_indices:
            defect = eng._fold(times[x], (x,) * (p - 1))
            _add_scaled(defect, combination(times, algebra.p_map[x]), -1, p)
            if defect:
                return f"p-map relation fails at {m} b_{x}"
    return ""


def multiplicativity_witness(algebra) -> str:
    """'' if the restricted coproduct is the algebra map that sends each
    generator b_g to b_g|1 + 1|b_g, else the first place it fails.

    It checks coproduct(1) = 1|1, coproduct(b_g) = b_g|1 + 1|b_g, and
    coproduct(m' b_g) = coproduct(m') coproduct(b_g) once per restricted
    monomial m = m' b_g, with b_g its last letter, so that m' b_g is an
    append.  By induction on the letters of m, coproduct_mono is then that
    algebra map, which exists because b_g|1 + 1|b_g satisfies the bracket
    and p-map relations in the super tensor square (Sweedler, "Hopf
    algebras", 1969); so the coproduct is multiplicative on all of u(g).
    Every leg product of the chain is an append, so it reads no letter
    product; the induction needs the tensor square's product to be that of
    u(g), which ``product_relations_witness`` proves."""
    eng = get_engine(algebra)
    one = eng._zero_mono
    if coproduct(UElement.one(algebra)).terms != {(one, one): 1}:
        return "coproduct fails at 1"
    deltas = [coproduct(UElement.generator(algebra, g)) for g in range(algebra.dim)]
    for g, delta in enumerate(deltas):
        unit = eng._unit(g)
        if delta.terms != {(unit, one): 1, (one, unit): 1}:
            return f"coproduct fails at b_{g}"
    for m in restricted_monomials(algebra):
        g = eng._last_letter(m)
        if g is None:
            continue
        prefix = m[:g] + (m[g] - 1,) + m[g + 1 :]
        left = coproduct(UElement(algebra, True, {m: 1}))
        if left != coproduct(UElement(algebra, True, {prefix: 1})) * deltas[g]:
            return f"coproduct multiplicativity fails at {prefix} times b_{g}"
    return ""


def antipode_chain_witness(algebra) -> str:
    """'' if the restricted antipode is the anti-algebra map that sends each
    generator b_g to -b_g, else the first place it fails.

    It checks S(1) = 1 and S(m' b_g) = -(-1)^(|g||m'|) b_g S(m') once per
    restricted monomial m = m' b_g, with b_g its last letter, so that m' b_g
    is an append; each b_g s is one ``mul_mono``.  ``antipode_mono`` recurses
    on the first letter instead, so this chain does not repeat it.  By
    induction on the letters of m, antipode_mono is the unique anti-algebra
    map with S(b_g) = -b_g, the antipode of the primitively generated u(g)
    (Milnor-Moore, Ann. Math. 81, 1965), once ``product_relations_witness``
    proves the fold the product of u(g).  With ``multiplicativity_witness``
    the antipode and counit axioms then hold on all of u(g); the counit is
    the coefficient of 1."""
    eng = get_engine(algebra)
    p = eng.p
    one = eng._zero_mono
    if eng.antipode_mono(one) != {one: 1}:
        return "antipode fails at 1"
    for m in restricted_monomials(algebra):
        g = eng._last_letter(m)
        if g is None:
            continue
        prefix = m[:g] + (m[g] - 1,) + m[g + 1 :]
        sign = 1 if algebra.parities[g] and eng.mono_parity(prefix) else -1
        unit = eng._unit(g)
        want: dict = {}
        for s, c in eng.antipode_mono(prefix).items():
            _add_scaled(want, eng.mul_mono(unit, s), sign * c, p)
        if eng.antipode_mono(m) != want:
            return f"antipode chain fails at {prefix} times b_{g}"
    return ""


def split_engine(split, restricted, side) -> PBWEngine:
    """The engine whose order puts the split's subalgebra letters on side
    ("left" or "right") of its complement letters."""
    h, c = split.h_indices, split.c_indices
    orders = {"left": h + c, "right": c + h}
    if side not in orders:
        raise ValueError("side must be 'left' or 'right'")
    return get_engine(split.algebra, restricted, orders[side])


def split_parts(terms, split):
    """Terms {mono: coeff} of a split_engine grouped as
    {complement_exps: {subalgebra_exps: coeff}}, both exponent tuples in the
    split's local orders."""
    out: dict[tuple, dict[tuple, int]] = {}
    for m, c in terms.items():
        c_exps = tuple(m[g] for g in split.c_indices)
        out.setdefault(c_exps, {})[tuple(m[g] for g in split.h_indices)] = c
    return out


def normal_order_split(u: UElement, split, side="left"):
    """Rewrite u with subalgebra letters on one side of complement letters:
    split_parts of u's terms, each term's ambient word straightened in
    split_engine(split, side).  The one move from the ambient order into a
    split's order; products meant for a split are built in its engine."""
    eng = split_engine(split, u.restricted, side)
    out: dict[tuple[int, ...], int] = {}
    for m, c in u.terms.items():
        word = [g for g, e in enumerate(m) for _ in range(e)]
        _add_scaled(out, eng.straighten_word(word), c, u.algebra.p)
    return split_parts(out, split)


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


def primitive_space(algebra, degree_bound=None):
    """(primitive monomials, window labels) on the restricted basis, or with
    a degree_bound on the U(g) monomials of degree at most degree_bound.

    Each term (m1 | m2) of the coproduct of m has m1 + m2 = m, so distinct
    monomials share no term and sum_m a_m m is primitive iff each m with
    a_m != 0 is: the primitives are spanned by the m != 1 whose coproduct is
    exactly m|1 + 1|m.  A term that splits no monomial raises StructureError.
    """
    restricted = degree_bound is None
    if restricted:
        monos = restricted_monomials(algebra)
    else:
        monos = monomials_of_degree_at_most(algebra, degree_bound)
    eng = get_engine(algebra, restricted)
    kind = "restricted" if restricted else "unrestricted"
    one = eng._zero_mono
    prims = []
    for m in monos:
        delta = eng.coproduct_mono(m)
        for m1, m2 in delta:
            if tuple(map(operator.add, m1, m2)) != m:
                raise StructureError(
                    f"{kind} coproduct of {m} has the term {m1} | {m2}, not a split of it"
                )
        if m != one and delta == {(m, one): 1, (one, m): 1}:
            prims.append(m)
    return prims, monos
