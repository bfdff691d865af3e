"""Ordered-basis straightening in enveloping superalgebras, plus Hopf maps.

An engine's one reduction key is its level r: u_r(g) = U(g)/(xi_x^(p^r)),
xi_x = x^p - x^[p] central, a finite Hopf quotient with even exponents below
p^(r+1); level 0 is u(g) and None is U(g).  Elements are dicts from exponent
tuples to coefficients; a tuple is indexed by the global generator index but
read as a product in an engine's priority order (by default the ambient one).

Straightening is collection from the left on exponent tuples: a word is
folded into the basis one letter at a time by right multiplication of a
basis monomial m by a generator g.  With y the last letter of m and
m = m' y^e, a letter g after y is appended; g = y raises the exponent, or
contracts y y to (1/2)[y, y] for odd y and y^(p^(r+1)) to (y^[p])^(p^r) for
even y (y^p to y^[p] at level 0); a letter g before y moves left past the
whole power at once by y^e g = sum_i C(e, i) (ad y)^i(g) y^(e-i) (for odd y, e = 1 and the swapped
term carries the Koszul sign).  A power moves in one step, so the nesting
depth of the recursion does not grow with the exponents.  Letter products
that are not plain appends or exponent bumps (``_append``) are memoized per
engine; a fold adds an append straight into its sum.

Monomial products are memoized per engine too.  At level 0 a new product
m1 m2 folds one letter: with g the last letter of m2 in the
engine's order and m2 = m2' g, it is the memoized m1 m2' times g, and a
missing m1 m2' is built first the same way, down to the longest memoized
prefix of m2 (or {m1: 1}), in a loop.  The word of m2 is the word of m2'
followed by g, and the fold is linear and letter by letter, so this is the
whole-word fold step for step: the same terms in the same order.  Products
at other levels fold the whole word of m2, since their prefixes are rarely
asked for again.

The coproduct needs no straightening: the coefficient of one split
(m1 | m2) is a closed law (``coproduct_coeff``), and ``coproduct_mono``
expands a monomial's coproduct through it.  Every term of the coproduct of
m splits m, so ``primitive_space`` reads primitives one monomial at a time.

Every monomial an engine's memos hold, in keys and in values, is the
engine's one tuple for it, kept in its one intern map (``_interned``).  The
hot path (``_append``, ``_fits``, ``_fold``, ``mono_parity``) reads the
prime, the odd letters and each letter's largest basis exponent off the
engine, not off its weakly held algebra.

A level-0 engine also builds, once each, the antipode and left and right
multiplication by each generator as sparse maps on the restricted basis
(``antipode_map``, ``regular_map``; see ``linalg.BasisMap``), which kernel
duality reads.  The right maps also give every product of two restricted
monomials at once (``multiplication_table``): the products of one m2 = m2' g
with every m1 are those of m2' through the right map of g, one sparse
product per m2, with no product memoized per pair.

A product in U tensor U loops over term pairs, each leg product taken from
``mul_mono``; it takes each term's parity once per factor and adds the leg
products up in one dict.

Three certificates, none sampled, make the level-0 engines a proof.
``product_relations_witness`` checks the defining relations of u_r(g) (the
bracket, the odd squares and the p-map rule) on the fold of every monomial
of an engine's window, which proves the fold is the product of u_r(g).  As
the fold is linear and letter by letter, it checks them as identities among
the engine's right letter maps, built fresh on the window with one fold per
column and letter, through sparse products (``linalg.BasisMap``) over
blocks of columns.  The argument holds in any letter order, so the engine
check runs it on the ambient engine and on every split engine
(``split_engine``) of level 0; the two other certificates run on the
ambient engine alone.
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

import numpy as np

from .algebra import StructureError
from .fp import EVEN, ODD
from .linalg import BasisMap, add_terms, basis_map

# Cells of the letter products one block of window columns expands into at
# once in ``product_relations_witness``; bounds its scratch memory.
_RELATION_CELLS = 1 << 14


class PBWEngine:
    """Straightening engine for one generator priority and one level."""

    def __init__(self, algebra, priority=None, level=0) -> None:
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
        self.level = level
        self._mul_cache: dict = {}
        self._letter_cache: dict = {}
        self._coprod_cache: dict = {}
        self._antipode_cache: dict = {}
        self._ad_cache: dict = {}
        self._basis_maps: dict = {}
        self._interned: dict = {}
        self._top_images: dict = {}
        self._zero_mono = (0,) * algebra.dim
        self._reversed = self.order[::-1]
        self._letters = tuple((g, algebra.parities[g] == ODD) for g in self.order)
        # the hot path reads these instead of the weakly held algebra: the
        # prime, the odd letters, and each letter's largest basis exponent
        # (1 for odd letters, p^(r+1) - 1 for even ones, unbounded in U(g))
        self.p = algebra.p
        self._odd = tuple(g for g in range(algebra.dim) if algebra.parities[g] == ODD)
        self.even_bound = math.inf if level is None else algebra.p ** (level + 1)
        self._top = tuple(1 if q == ODD else self.even_bound - 1 for q in algebra.parities)

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
        mono = tuple(int(e) for e in mono)
        if len(mono) != len(self._top):
            raise ValueError("exponent tuple has wrong length")
        for g, e in enumerate(mono):
            if e < 0:
                raise ValueError("negative exponent")
            if e > self._top[g]:
                raise ValueError("odd exponents are at most 1" if g in self._odd
                                 else f"even exponents are below {self.even_bound}")
        return mono

    def _last_letter(self, mono):
        """The last letter of a monomial in this engine's order, or None."""
        for g in self._reversed:
            if mono[g]:
                return g
        return None

    def _fits(self, y: int, e: int) -> bool:
        """Whether y^e is a basis power: odd letters square to brackets and
        even letters reduce at e = p^(r+1)."""
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
            for word, c in self._top_image(y):
                _add_scaled(out, self._fold({base: 1}, word), c, p)
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

    def _top_image(self, y: int):
        """y^(t+1) for y^t the top power, as [(word, coeff)]: y y = (1/2)[y, y]
        for odd y, and (y^[p])^(p^r) for even y at level r, 1 folded by y^[p]
        p^r times.  Built once per letter."""
        hit = self._top_images.get(y)
        if hit is None:
            alg, half = self.algebra, pow(2, -1, self.p)
            if y in self._odd:
                image, times = [half * c for c in alg.bracket_coords(y, y)], 1
            else:
                image, times = alg.p_map[y], self.even_bound // self.p
            power = {self._zero_mono: 1}
            for _ in range(times):
                step: dict = {}
                for k, c in enumerate(image):
                    if c:
                        _add_scaled(step, self._fold(power, (k,)), c, self.p)
                power = step
            hit = self._top_images[y] = [(self.word_of(n), c) for n, c in power.items()]
        return hit

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

        A new level-0 product is the memoized m1 m2' times g, where
        m2 = m2' g ends in g (``_extend``); as word_of(m2) is word_of(m2')
        + (g,), that is the whole-word fold step for step.  Other levels fold
        the whole word: their prefixes are seldom asked again.
        """
        hit = self._mul_cache.get((m1, m2))
        if hit is None:
            m1, m2 = self._intern(m1), self._intern(m2)
            if self.level == 0 and m2 != self._zero_mono:
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
        built once per engine.  For a level-0 engine."""
        return self._basis_map("antipode", self.antipode_mono)

    def regular_map(self, g: int, side: str) -> BasisMap:
        """Multiplication by the generator g on restricted_monomials(algebra),
        m -> g m for side "left" and m -> m g for "right", as a BasisMap;
        built once per engine and side.  For a level-0 engine."""
        x = self._unit(g)
        times = {"left": lambda m: self.mul_mono(x, m), "right": lambda m: self.mul_mono(m, x)}
        if side not in times:
            raise ValueError("side must be 'left' or 'right'")
        return self._basis_map((side, g), times[side])

    def multiplication_table(self):
        """Every product m1 m2 of two restricted monomials, as int64 arrays
        (m1, m2, term, coeff) of indices into restricted_monomials(algebra)
        and nonzero coefficients, sorted by (m1, m2, term); a pair whose
        product is 0 has no entry.  For a level-0 engine; nothing is
        memoized per pair.

        The products of one m2 with every m1 are one sparse product: with g
        the last letter of m2 and m2 = m2' g, m1 m2 = (m1 m2') g, so they are
        the products of the prefix m2', which comes earlier in lex order,
        taken through regular_map(g, "right").  That is ``_extend``'s fold
        of one letter, for every m1 at once."""
        monos = restricted_monomials(self.algebra)
        index = {m: i for i, m in enumerate(monos)}
        right = [self.regular_map(g, "right") for g in range(len(self._top))]
        ids = np.arange(len(monos))
        # (m1, term, coeff) per m2, the products by 1 first
        columns = [(ids, ids, np.ones(len(monos), dtype=np.int64))]
        for m2 in monos[1:]:
            g = self._last_letter(m2)
            prefix = index[m2[:g] + (m2[g] - 1,) + m2[g + 1 :]]
            columns.append(right[g].apply_terms(*columns[prefix], self.p))
        m1, term, coeff = (np.concatenate(a) for a in zip(*columns))
        m2 = np.repeat(ids, [len(c[0]) for c in columns])
        # each column is sorted by (m1, term), and the columns run in m2 order
        order = np.argsort(m1, kind="stable")
        return m1[order], m2[order], term[order], coeff[order]

    def _basis_map(self, key, image_of) -> BasisMap:
        out = self._basis_maps.get(key)
        if out is None:
            out = self._basis_maps[key] = basis_map(restricted_monomials(self.algebra), image_of)
        return out


def _require_same(a, b) -> None:
    """Refuse to combine elements of different algebras or levels."""
    if a.algebra is not b.algebra or a.level != b.level:
        raise ValueError("elements live in different algebras")


def _add_scaled(out: dict, terms: dict, c: int, p: int) -> None:
    """out += c * terms over F_p, dropping keys that cancel."""
    for k, t in terms.items():
        v = (out.get(k, 0) + c * t) % p
        if v:
            out[k] = v
        else:
            out.pop(k, None)


def get_engine(algebra, level=0, priority=None) -> PBWEngine:
    """The shared engine for one order and level; the identity priority is
    the default order."""
    key = (tuple(priority) if priority is not None else None, level)
    eng = algebra._engine_cache.get(key)
    if eng is None:
        if key[0] == tuple(range(algebra.dim)):
            eng = get_engine(algebra, level)
        else:
            eng = PBWEngine(algebra, priority, level)
        algebra._engine_cache[key] = eng
    return eng


class UElement:
    """Element of u(g) (level 0), of u_r(g) (level r) or of U(g) (None).

    terms maps exponent tuples in the ambient generator order to nonzero
    coefficients.
    """

    __slots__ = ("algebra", "level", "terms")

    def __init__(self, algebra, level, terms=None) -> None:
        self.algebra = algebra
        self.level = level
        self.terms: dict[tuple[int, ...], int] = {}
        if terms:
            p = algebra.p
            for m, c in terms.items():
                v = c % p
                if v:
                    self.terms[tuple(m)] = v

    @classmethod
    def zero(cls, algebra, level=0) -> "UElement":
        return cls(algebra, level)

    @classmethod
    def one(cls, algebra, level=0) -> "UElement":
        return cls(algebra, level, {(0,) * algebra.dim: 1})

    @classmethod
    def generator(cls, algebra, index, level=0) -> "UElement":
        m = tuple(1 if i == index else 0 for i in range(algebra.dim))
        return cls(algebra, level, {m: 1})

    @classmethod
    def monomial(cls, algebra, exps, level=0) -> "UElement":
        eng = get_engine(algebra, level)
        return cls(algebra, level, {eng.check_mono(exps): 1})

    def _engine(self) -> PBWEngine:
        return get_engine(self.algebra, self.level)

    def __add__(self, other: "UElement") -> "UElement":
        _require_same(self, other)
        out = dict(self.terms)
        _add_scaled(out, other.terms, 1, self.algebra.p)
        return UElement(self.algebra, self.level, out)

    def __neg__(self) -> "UElement":
        return UElement(self.algebra, self.level, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "UElement") -> "UElement":
        return self + (-other)

    def scale(self, c: int) -> "UElement":
        c %= self.algebra.p
        if not c:
            return UElement.zero(self.algebra, self.level)
        return UElement(self.algebra, self.level, {m: c * v for m, v in self.terms.items()})

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
        return UElement(self.algebra, self.level, out)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, UElement)
            and self.algebra is other.algebra
            and self.level == other.level
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
    return TensorSquare(u.algebra, u.level, out)


def antipode(u: UElement) -> UElement:
    eng = u._engine()
    out: dict[tuple[int, ...], int] = {}
    for m, c in u.terms.items():
        _add_scaled(out, eng.antipode_mono(m), c, u.algebra.p)
    return UElement(u.algebra, u.level, out)


def counit(u: UElement) -> int:
    return u.terms.get((0,) * u.algebra.dim, 0)


class TensorSquare:
    """Element of U tensor U, stored as {(mono, mono): coeff}."""

    __slots__ = ("algebra", "level", "terms")

    def __init__(self, algebra, level, terms=None) -> None:
        self.algebra = algebra
        self.level = level
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
        eng = get_engine(self.algebra, self.level)
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
        return TensorSquare(self.algebra, self.level, out)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TensorSquare)
            and self.algebra is other.algebra
            and self.level == other.level
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"<TensorSquare with {len(self.terms)} terms>"


def product_relations_witness(eng) -> str:
    """'' if the fold of eng, an engine of level r, satisfies the defining
    relations of u_r(g) on every monomial m of its window (even exponents
    below p^(r+1)), else the first that fails:

    (i) folding the word of m onto 1 gives m;
    (ii) m b_i b_j - s m b_j b_i = m [b_i, b_j] for i <= j, s the Koszul
         sign (for odd b_i = b_j this is m b_i b_i = (1/2) m [b_i, b_i]; for
         even ones it reads 0 = 0 and is skipped);
    (iii) m x^(p^(r+1)) = m (x^[p])^(p^r) for every even generator x, the
         right side folded as p^r factors x^[p]; at r = 0, m x^p = m x^[p].

    By (ii) and (iii) the fold makes the span of the window a right
    u_r(g)-module, cyclic on 1 by (i), of dimension p^((r+1)n) 2^m =
    dim u_r(g) (PBW), so u -> 1 u is a bijection and the fold, which every
    product of the engine runs through, is the product of u_r(g).  Nothing
    here depends on eng's letter order, so it proves a split engine's fold
    as well as the ambient one's.

    The fold is linear and letter by letter, so the relations are
    identities among the right letter maps R_g (column m is the fold of m
    by g, ``_fold``), built fresh here as BasisMaps on the window, one fold
    per column and letter; nothing is sampled.  (i) is R_g e_m' = e_m for
    each m = m' g with g its last letter, which gives the whole-word fold
    by induction; (ii) is R_j R_i - s R_i R_j = sum_k [b_i, b_j]_k R_k;
    (iii) is R_x^(p^(r+1)) = A^(p^r), A = sum_k [x^[p]]_k R_k.  They are
    checked on blocks of columns whose letter products stay under
    _RELATION_CELLS cells (``_Relations``).  The witness is the first
    failing monomial in lex order, and at it the first relation in the
    order above (the pairs i <= j in lex order, then x ascending).  A fold
    that leaves the window, which no engine of level r makes, fails at
    once with the first monomial outside it."""
    monos = list(itertools.product(*(range(t + 1) for t in eng._top)))
    try:
        right = [
            basis_map(monos, lambda m, g=g: eng._fold({m: 1}, (g,))) for g in range(len(eng._top))
        ]
    except KeyError as outside:
        return f"fold leaves the window at {outside.args[0]}"
    relations = _Relations(eng, right, monos)
    for lo, hi in relations.blocks():
        found = relations.first_failure(lo, hi)
        if found is not None:
            m, witness = found
            return witness.format(monos[m])
    return ""


def _concat(triplets):
    """Sparse triplets (elems, index, coeffs) concatenated into one."""
    if not triplets:
        return [np.zeros(0, dtype=np.int64)] * 3
    return [np.concatenate(a) for a in zip(*triplets)]


class _Relations:
    """The relations of ``product_relations_witness`` on an engine's right
    letter maps, evaluated on blocks of window columns.  Relation s tags
    its vector of column m as s n + m, so the terms of all of them add up
    in one ``linalg.add_terms``, and R_a is applied once per block to every
    term it multiplies (``apply_terms``)."""

    def __init__(self, eng, right, monos) -> None:
        algebra = eng.algebra
        self.p, self.n, self.right, self.q = eng.p, len(monos), right, eng.even_bound
        self.odd = [c == ODD for c in algebra.parities]
        self.pairs = [
            (i, j)
            for i, j in itertools.combinations_with_replacement(range(algebra.dim), 2)
            if i != j or self.odd[i]
        ]
        self.brackets = [algebra.bracket_coords(i, j) for i, j in self.pairs]
        self.evens, self.p_map = algebra.even_indices, algebra.p_map
        self.witnesses = ["word fold fails at {}"]
        self.witnesses += [f"bracket relation fails at {{}} b_{i} b_{j}" for i, j in self.pairs]
        self.witnesses += [f"p-map relation fails at {{}} b_{x}" for x in self.evens]
        # (i): the last letter g of each m != 1, and how many columns
        # m' = m - e_g sits before m; the window is a mixed-radix product
        exps = np.array(monos, dtype=np.int64).reshape(self.n, len(eng._top))
        self.last = np.full(self.n, -1)
        for g in eng.order:
            self.last[exps[:, g] > 0] = g
        stride = [math.prod(t + 1 for t in eng._top[g + 1 :]) for g in range(len(eng._top))]
        self.stride = np.array(stride + [0])[self.last]
        # A as a map, which (iii) raises to the power p^r > 1
        self.powers = {}
        if self.q > self.p:
            whole = [(R.cols, R.rows, R.coeffs) for R in right]
            for x in self.evens:
                terms = _concat(self._tagged(whole, self.p_map[x], 0))
                cols, rows, coeffs = add_terms(*terms, self.n, self.p)
                self.powers[x] = BasisMap(self.n, rows, cols, coeffs)

    def blocks(self):
        """Column ranges (lo, hi) covering the window in order, each with at
        most _RELATION_CELLS cells of letter products R_a R_b e_m (or one
        column): the entries of column m of R_b, each weighted by the size
        of the column of R_a it expands into (for (iii), the first step of
        the power)."""
        n, right = self.n, self.right
        counts = [np.bincount(R.cols, minlength=n) for R in right]
        outer = [np.zeros(n, dtype=np.int64) for _ in right]
        for i, j in self.pairs:
            outer[i] += counts[j]
            outer[j] += counts[i]
        for x in self.evens:
            outer[x] += counts[x]
        cost = sum(
            np.bincount(R.cols, weights=w[R.rows], minlength=n) for R, w in zip(right, outer)
        )
        ends = np.cumsum(cost)
        lo = 0
        while lo < n:
            budget = ends[lo] - cost[lo] + _RELATION_CELLS
            hi = max(lo + 1, int(np.searchsorted(ends, budget, side="right")))
            yield lo, hi
            lo = hi

    def _tagged(self, columns, coords, slot):
        """sum_k coords[k] R_k on the columns given as columns[k], as
        triplets tagged with the slot."""
        return [
            (slot * self.n + cols, rows, c * coeffs % self.p)
            for (cols, rows, coeffs), c in zip(columns, coords)
            if c
        ]

    def first_failure(self, lo: int, hi: int):
        """(m, witness) of the first failing relation on the columns
        lo..hi-1, m first and then the relation's slot, or None."""
        p, n, right = self.p, self.n, self.right
        block = []
        for R in right:
            a, b = np.searchsorted(R.cols, (lo, hi))
            block.append((R.cols[a:b], R.rows[a:b], R.coeffs[a:b]))
        # the terms each R_a is applied to, signs folded in
        sources: list[list] = [[] for _ in right]
        # (i) in slot 0: R_g e_m' - e_m
        ms = np.arange(max(lo, 1), hi)
        terms = [(ms, ms, np.full(len(ms), -1))]
        for g, src in enumerate(sources):
            mg = ms[self.last[ms] == g]
            src.append((mg, mg - self.stride[mg], np.ones(len(mg), dtype=np.int64)))
        for slot, ((i, j), bracket) in enumerate(zip(self.pairs, self.brackets), 1):
            # (ii): R_j R_i + (-s) R_i R_j - sum_k [b_i, b_j]_k R_k
            sources[j] += self._tagged([block[i]], [1], slot)
            sources[i] += self._tagged([block[j]], [1 if self.odd[i] and self.odd[j] else -1], slot)
            terms += self._tagged(block, [-c for c in bracket], slot)
        for R, src in zip(right, sources):
            terms.append(R.apply_terms(*_concat(src), p))
        for slot, x in enumerate(self.evens, 1 + len(self.pairs)):
            # (iii): R_x^(p^(r+1)) - A^(p^r)
            (power,) = self._tagged([block[x]], [1], slot)
            for _ in range(self.q - 1):
                power = right[x].apply_terms(*power, p)
            terms.append(power)
            image = self._tagged(block, [-c for c in self.p_map[x]], slot)
            if x in self.powers:
                image = [add_terms(*_concat(image), n, p)]
                for _ in range(self.q // p - 1):
                    image = [self.powers[x].apply_terms(*image[0], p)]
            terms += image
        elems, index, coeffs = _concat(terms)
        del terms  # the pieces go before the sum, which holds the peak
        failed = add_terms(elems, index, coeffs, n, p)[0]
        if not len(failed):
            return None
        m, slot = failed % n, failed // n
        at = int(np.argmin(m * len(self.witnesses) + slot))
        return int(m[at]), self.witnesses[slot[at]]


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
        left = coproduct(UElement(algebra, 0, {m: 1}))
        if left != coproduct(UElement(algebra, 0, {prefix: 1})) * deltas[g]:
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


def split_engine(split, level, side) -> PBWEngine:
    """The engine whose order puts the split's subalgebra letters on side
    ("left" or "right") of its complement letters."""
    h, c = split.h_indices, split.c_indices
    orders = {"left": h + c, "right": c + h}
    if side not in orders:
        raise ValueError("side must be 'left' or 'right'")
    return get_engine(split.algebra, level, orders[side])


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
    eng = split_engine(split, u.level, side)
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
    if degree_bound is None:
        monos, level, kind = restricted_monomials(algebra), 0, "restricted"
    else:
        monos, level = monomials_of_degree_at_most(algebra, degree_bound), None
        kind = "unrestricted"
    eng = get_engine(algebra, level)
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
