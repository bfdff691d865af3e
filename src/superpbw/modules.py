"""Representations of a split subalgebra and the modules built from them.

A representation of the subalgebra h acts on a graded space V by matrices
over F_p.  From it we build the induced module (free complement monomials
tensor V, with the subalgebra pushed through the tensor sign) and the
coinduced module of h-linear functionals on u(g).

A complement window owns the complement monomials: which ones there are
(listed only when asked), and that each multiplies its letters in the
split's complement order, even letters first.  Coinduced elements are
stored by their values on complement monomials: a dict {local exponent
tuple: length-dV vector}, or its to_vector form.  A level-r window has
even exponents below p^(r+1) and multiplies in u_r(g).  Modules live on the
level-0 window, where coinduced functionals form a u(g)-module: each
generator's matrix is straightened once, the set of them is certified
against the relations of u(g) once and stored on the split only if it
passes, and any element acts as the ordered product of its letters'
matrices.  ComplementWindow.times straightens c u or u c, for c a
complement monomial, in the split's engine of the window's level with the
subalgebra letters on that side, where c is one basis monomial and u is
given in that engine's basis from the start.  Past level 0 u acts by the
definition (u lam)(w) = lam(w u), read off those parts by
Representation.pair_eval.  Products of
functionals are convolutions on the window: each pair of support
monomials contributes the engine's closed coproduct coefficient of the
pair, with the Koszul sign of the two legs, so no coproduct is expanded.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .algebra import Character, StructureError, check_relations
from .fp import EVEN
from .linalg import mat_mul_mod, mat_pow_mod
from .pbw import (
    UElement,
    _add_scaled,
    get_engine,
    split_engine,
    split_parts,
)


class Representation:
    """Restricted representation of the split subalgebra on a graded space.

    matrices maps each subalgebra generator's global index to its action;
    columns are images of basis vectors.  parities grades the module basis.
    key, the parities and the reduced matrices' bytes in h_indices order,
    is the data under which the split stores what is built from the rep.
    """

    def __init__(self, split, parities, matrices, name="") -> None:
        self.split = split
        self.name = name
        self.parities = tuple(int(q) for q in parities)
        self.dim = len(self.parities)
        p = split.algebra.p
        self.matrices: dict[int, np.ndarray] = {}
        for h in split.h_indices:
            a = np.asarray(matrices[h], dtype=np.int64) % p
            if a.shape != (self.dim, self.dim):
                raise ValueError(f"action of b_{h} has shape {a.shape}")
            self.matrices[h] = a
        self.key = (self.parities, tuple(self.matrices[h].tobytes() for h in split.h_indices))

    def h_monomial_matrix(self, h_exps) -> np.ndarray:
        """Action of the ordered subalgebra monomial with the given exponents;
        read-only, and stored on the split under ("h-monomial", key, h_exps)."""

        def build():
            p = self.split.algebra.p
            out = np.eye(self.dim, dtype=np.int64)
            for loc, e in enumerate(h_exps):
                if e:
                    power = mat_pow_mod(self.matrices[self.split.h_indices[loc]], e, p)
                    out = mat_mul_mod(out, power, p)
            return out

        return self.split.memo(("h-monomial", self.key, h_exps), build)

    def h_element_matrix(self, inner) -> np.ndarray:
        """Action of sum coeff * (ordered subalgebra monomial), given as
        {h_exps: coeff} like the inner dicts of split_parts."""
        p = self.split.algebra.p
        out = np.zeros((self.dim, self.dim), dtype=np.int64)
        for h_exps, coeff in inner.items():
            out = (out + coeff * self.h_monomial_matrix(h_exps)) % p
        return out

    def pair_eval(self, parts, lam) -> np.ndarray:
        """Value of the coinduced functional lam on the element whose left
        split parts are parts, as ComplementWindow.times(..., "left") gives
        them: each subalgebra part acts on lam's value at its c_exps."""
        p = self.split.algebra.p
        out = np.zeros(self.dim, dtype=np.int64)
        for c_exps, inner in parts.items():
            val = lam.get(c_exps)
            if val is not None:
                out = (out + mat_mul_mod(self.h_element_matrix(inner), val, p)) % p
        return out

    def validate(self) -> dict[str, tuple[bool, str]]:
        report: dict[str, tuple[bool, str]] = {}
        report["parity-pattern"] = self._check_parity_pattern()
        report.update(check_relations(self.split.algebra, self.matrices))
        return report

    def is_valid(self) -> bool:
        return all(ok for ok, _ in self.validate().values())

    def _check_parity_pattern(self):
        alg = self.split.algebra
        for h, a in self.matrices.items():
            qh = alg.parities[h]
            for i in range(self.dim):
                for j in range(self.dim):
                    if a[i, j] and (self.parities[i] + self.parities[j]) % 2 != qh:
                        return False, f"action of b_{h} is not parity {qh}"
        return True, ""

    def __repr__(self) -> str:
        tag = self.name or "rep"
        return f"<{tag} dim={self.dim} parities={self.parities}>"


def dual_action_matrix(a: np.ndarray, x_parity: int, parities, p: int) -> np.ndarray:
    """Matrix of the dual action: B[i, j] = -(-1)^(|X| k_j) A[j, i]."""
    signs = np.array([-1 if (x_parity * q) % 2 else 1 for q in parities], dtype=np.int64)
    return (-(a.T * signs[None, :])) % p


def contragredient(rep: Representation) -> Representation:
    p = rep.split.algebra.p
    mats = {
        h: dual_action_matrix(a, rep.split.algebra.parities[h], rep.parities, p)
        for h, a in rep.matrices.items()
    }
    return Representation(rep.split, rep.parities, mats, name=f"{rep.name}*" if rep.name else "")


def twist(rep: Representation, character: Character, m: int) -> Representation:
    """Tensor by the one-dimensional parity-m module with the given character.

    The twisting line sits on the left, so odd subalgebra generators pick
    up the Koszul sign of crossing it.
    """
    alg = rep.split.algebra
    m = int(m) % 2
    parities = tuple((q + m) % 2 for q in rep.parities)
    eye = np.eye(rep.dim, dtype=np.int64)
    mats = {}
    for h in rep.split.h_indices:
        sign = -1 if (m * alg.parities[h]) % 2 else 1
        mats[h] = (sign * rep.matrices[h] + character.value(h) * eye) % alg.p
    return Representation(rep.split, parities, mats, name=f"{rep.name}~" if rep.name else "")


def twisted_dual(rep: Representation) -> Representation:
    """Contragredient of the supertrace-character twist by the odd codimension."""
    split = rep.split
    out = contragredient(twist(rep, split.supertrace_character(), split.m_odd))
    out.name = f"{rep.name}^" if rep.name else ""
    return out


def rep_from_character(character: Character, m: int = 0, name="") -> Representation:
    split = character.split
    mats = {h: np.array([[character.value(h)]], dtype=np.int64) for h in split.h_indices}
    return Representation(split, (int(m) % 2,), mats, name=name)


def trivial_rep(split, name="triv") -> Representation:
    chi = Character(split, [0] * len(split.h_indices))
    return rep_from_character(chi, 0, name=name)


class ComplementWindow:
    """The complement monomials of a split, and their convolution algebra.

    Level r means even exponents below p^(r+1), a basis of u_r(g), whose
    products are taken in the engines of level r; level 0 is u(g).
    A complement monomial multiplies its letters in split.c_indices order,
    even letters first; c_word and c_element are the only places that turn
    one into letters or into an element.  top is the largest monomial.
    """

    def __init__(self, split, level=0) -> None:
        self.split = split
        self.level = level
        self.engine = get_engine(split.algebra, level)
        self.even_bound = self.engine.even_bound
        self.shape = (self.even_bound,) * split.n_even + (2,) * split.m_odd
        self.size = math.prod(self.shape)
        self.top = tuple(s - 1 for s in self.shape)

    @functools.cached_property
    def c_monomials(self) -> list:
        """Every exponent tuple of the window, in lex order."""
        return list(itertools.product(*map(range, self.shape)))

    def monomial_at(self, k: int) -> tuple[int, ...]:
        """c_monomials[k] without the list: k in mixed radix over shape,
        last coordinate fastest."""
        return tuple(int(e) for e in np.unravel_index(k, self.shape))

    def in_window(self, c_exps) -> bool:
        for e, bound in zip(c_exps, self.shape):
            if not 0 <= e < bound:
                return False
        return True

    def global_mono(self, c_exps) -> tuple[int, ...]:
        alg = self.split.algebra
        out = [0] * alg.dim
        for loc, e in enumerate(c_exps):
            out[self.split.c_indices[loc]] = e
        return tuple(out)

    def local_of(self, mono) -> tuple[int, ...]:
        """Complement exponents of a global monomial with no subalgebra letters."""
        return tuple(mono[g] for g in self.split.c_indices)

    def c_mono_parity(self, c_exps) -> int:
        return sum(c_exps[self.split.n_even :]) % 2

    def c_word(self, c_exps) -> tuple[int, ...]:
        """The letters of a complement monomial, in split.c_indices order."""
        return tuple(g for g, e in zip(self.split.c_indices, c_exps) for _ in range(e))

    def c_element(self, c_exps) -> UElement:
        """The product of c_word(c_exps): the even block, whose letters keep
        the ambient order, times the odd block."""
        n = self.split.n_even
        even = self.global_mono(tuple(c_exps[:n]) + (0,) * self.split.m_odd)
        odd = self.global_mono((0,) * n + tuple(c_exps[n:]))
        terms = self.engine.mul_mono(even, odd)
        return UElement(self.split.algebra, self.level, terms)

    def times(self, c_exps, terms, side) -> dict:
        """split_parts of c u (side "left") or u c ("right") for c = c_exps
        and u the terms {mono: coeff} of split_engine(side): there c is the
        basis monomial global_mono(c_exps), so the product is one mul_mono
        per term of u."""
        eng = split_engine(self.split, self.level, side)
        c = self.global_mono(c_exps)
        out: dict = {}
        for m, coeff in terms.items():
            prod = eng.mul_mono(c, m) if side == "left" else eng.mul_mono(m, c)
            _add_scaled(out, prod, coeff, self.split.algebra.p)
        return split_parts(out, self.split)

    def vhat(self, vec) -> dict:
        """The functional supported at the empty monomial with value vec."""
        v = np.asarray(vec, dtype=np.int64) % self.split.algebra.p
        if not v.any():
            return {}
        return {(0,) * len(self.split.c_indices): v}

    def convolve(self, a: dict, b: dict) -> dict:
        """Convolution product of two functionals on the window.

        a holds scalars; b holds scalars or int64 vectors.  The value at cm
        sums a(m1) b(m2) over the coproduct terms (m1, m2) of cm, with the
        Koszul sign of the two legs.  Each pair (m1, m2) of supports is one
        such term of cm = m1 + m2, so the pairs are walked directly: cm
        must lie in the window, and its coefficient is the engine's closed
        coproduct_coeff; no coproduct is expanded.  The scalar factor is
        reduced mod p before it multiplies a vector, so vector entries stay
        below p^2.

        Vector values also carry many products in one call: with b the
        identity tags {cm_j: e_j}, the value at cm is row cm of the matrix
        of delta -> a * delta over the window, whose column j is
        a * delta_cm_j.
        """
        p = self.split.algebra.p
        coeff_of = self.engine.coproduct_coeff
        glob, parity, in_window = self.global_mono, self.c_mono_parity, self.in_window
        right = [(mb, glob(mb), parity(mb), vb) for mb, vb in b.items()]
        out = {}
        for ma, va in a.items():
            ga, pa = glob(ma), parity(ma)
            for mb, gb, pb, vb in right:
                cm = tuple(x + y for x, y in zip(ma, mb))
                if not in_window(cm):
                    continue
                coeff = coeff_of(ga, gb)
                if coeff:
                    scalar = -coeff * va if pa and pb else coeff * va
                    out[cm] = (out.get(cm, 0) + (scalar % p) * vb) % p
        return {cm: v for cm, v in out.items() if np.count_nonzero(v)}


class _ModuleOnWindow(ComplementWindow):
    """A module of rep over the level-0 window, with basis pairs
    (complement monomial, rep basis index).

    side is where ComplementWindow.times puts the subalgebra letters,
    which then act on V through rep: "right" for the induced module, where
    u (c tensor v) = (u c) tensor v, and "left" for the coinduced one, where
    (u lam)(c) = lam(c u).
    """

    side = ""
    kind = ""

    def __init__(self, split, rep: Representation) -> None:
        super().__init__(split)
        self.rep = rep
        self.basis = [(cm, k) for cm in self.c_monomials for k in range(rep.dim)]
        self.index = {bk: i for i, bk in enumerate(self.basis)}
        self.basis_parities = tuple(
            (self.c_mono_parity(cm) + rep.parities[k]) % 2 for cm, k in self.basis
        )
        self.dim = len(self.basis)

    def generator_matrix(self, g: int) -> np.ndarray:
        """Matrix of the generator g on the module (columns are images of
        basis vectors), from times(cm, g) per window monomial cm: g is the
        same one-letter monomial in every engine.  Read-only, and stored on
        the split under (kind, rep.key, g)."""

        def build():
            p = self.split.algebra.p
            dv = self.rep.dim
            x = {self.engine._unit(g): 1}
            out = np.zeros((self.dim, self.dim), dtype=np.int64)
            for cm in self.c_monomials:
                i0 = self.index[cm, 0]
                for c2, inner in self.times(cm, x, self.side).items():
                    j0 = self.index[c2, 0]
                    rows, cols = slice(i0, i0 + dv), slice(j0, j0 + dv)
                    if self.side == "right":
                        rows, cols = cols, rows
                    out[rows, cols] = (out[rows, cols] + self.rep.h_element_matrix(inner)) % p
            return out

        return self.split.memo((self.kind, self.rep.key, g), build)

    def generator_matrices(self) -> dict[int, np.ndarray]:
        """The dim g generator matrices, certified against the defining
        relations of u(g); a broken relation raises StructureError with its
        witness.

        The certified set is a build of its own, stored on the split under
        (kind, rep.key, "certified") only once check_relations passes; it
        refers to the stored read-only matrices, so certifying them again
        could only repeat the verdict.  A set that fails stores nothing and
        raises on every call."""

        def build():
            alg = self.split.algebra
            gens = {g: self.generator_matrix(g) for g in range(alg.dim)}
            for ok, msg in check_relations(alg, gens).values():
                if not ok:
                    raise StructureError(f"{self.kind} generator matrices: {msg}")
            return gens

        return self.split.memo((self.kind, self.rep.key, "certified"), build)


class InducedModule(_ModuleOnWindow):
    """u(g) tensor V over u(h), on the level-0 complement window."""

    side = "right"
    kind = "induced"


class CoinducedModule(_ModuleOnWindow):
    """h-linear functionals on u(g), coordinatized on the level-0
    complement window.  A functional's value at u is rep.pair_eval(u, lam);
    functions on the window act on functionals by the window's convolve.
    """

    side = "left"
    kind = "coinduced"

    def to_vector(self, lam) -> np.ndarray:
        out = np.zeros(self.dim, dtype=np.int64)
        for cm, v in lam.items():
            i0 = self.index[cm, 0]
            out[i0 : i0 + self.rep.dim] = v % self.split.algebra.p
        return out

    def from_vector(self, vec) -> dict:
        rows = np.asarray(vec, dtype=np.int64).reshape(-1, self.rep.dim) % self.split.algebra.p
        return {self.c_monomials[i]: rows[i] for i in np.flatnonzero(rows.any(axis=1))}

    def action_rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo..hi of the action of every restricted monomial, stacked
        in the order of restricted_monomials into shape (count, hi - lo, dim).

        u(g) -> End of this module is an algebra homomorphism, so the action
        of an ordered monomial, and any block of its rows, is its prefix's
        times the certified generator matrix of its last letter.  The
        monomials whose last letter is g with exponent e form one layer:
        each one's prefix sits stride(g) earlier in lex order, in an earlier
        layer, so a layer is one product.
        """
        alg = self.split.algebra
        p = alg.p
        gens = self.generator_matrices()
        bounds = [p if q == EVEN else 2 for q in alg.parities]
        count = math.prod(bounds)
        out = np.empty((count, hi - lo, self.dim), dtype=np.int64)
        out[0] = np.eye(self.dim, dtype=np.int64)[lo:hi]
        for g, bound in enumerate(bounds):
            stride = math.prod(bounds[g + 1 :])
            # the monomials with no letter from g on
            base = np.arange(0, count, stride * bound)
            for e in range(1, bound):
                layer = base + e * stride
                out[layer] = mat_mul_mod(out[layer - stride], gens[g], p)
        return out


class CoordinateAlgebra(ComplementWindow):
    """Functions on the coinduced space of the trivial line: the window's
    convolution algebra, spanned by the duals delta_cm of complement
    monomials, its one basis.

    Elements are dicts {local exponent tuple: scalar}.  The even duals
    multiply as divided powers and the odd ones as an exterior algebra,
    so the partial derivatives are signed shifts of the basis.  Only the
    level-0 window is also a module here.
    """

    def __init__(self, split, level=0) -> None:
        super().__init__(split, level=level)
        self._module = None

    mul = ComplementWindow.convolve

    def unit(self) -> dict:
        return {(0,) * len(self.split.c_indices): 1}

    def eta(self, i: int) -> dict:
        """Dual of the i-th even complement generator."""
        return self.eta_power(i, 0)

    def eta_power(self, i: int, j: int) -> dict:
        """Dual of the p^j-th power of the i-th even complement generator."""
        if not 0 <= i < self.split.n_even:
            raise ValueError("even complement index out of range")
        e = self.split.algebra.p ** j
        cm = [0] * len(self.split.c_indices)
        cm[i] = e
        cm = tuple(cm)
        if not self.in_window(cm):
            raise ValueError("power leaves the window")
        return {cm: 1}

    def zeta(self, s: int) -> dict:
        """Dual of the s-th odd complement generator."""
        if not 0 <= s < self.split.m_odd:
            raise ValueError("odd complement index out of range")
        cm = [0] * len(self.split.c_indices)
        cm[self.split.n_even + s] = 1
        return {tuple(cm): 1}

    def mul_many(self, factors) -> dict:
        out = self.unit()
        for a in factors:
            out = self.mul(out, a)
        return out

    def power(self, a: dict, e: int) -> dict:
        return self.mul_many([a] * e)

    def module(self) -> CoinducedModule:
        """The same space as a module: coinduction of the trivial line.
        Only the level-0 window is one."""
        if self.level:
            raise ValueError("only the level-0 window is a u(g)-module")
        if self._module is None:
            self._module = CoinducedModule(self.split, trivial_rep(self.split))
        return self._module

    def to_vector(self, a: dict) -> np.ndarray:
        """Coordinates over c_monomials, the basis order of module()."""
        return self.module().to_vector({cm: np.array([c]) for cm, c in a.items()})

    def from_vector(self, vec) -> dict:
        return {cm: int(v[0]) for cm, v in self.module().from_vector(vec).items()}

    def partial_even(self, i: int, a: dict) -> dict:
        """d/d(eta_i): each dual delta_cm shifts to delta_(cm - e_i)."""
        out = {}
        for cm, c in a.items():
            if cm[i]:
                out[cm[:i] + (cm[i] - 1,) + cm[i + 1 :]] = c
        return out

    def partial_odd(self, s: int, a: dict) -> dict:
        """Left derivative by zeta_s: delta_cm loses odd letter s, with the
        sign of the odd letters after it in cm."""
        p = self.split.algebra.p
        k = self.split.n_even + s
        out = {}
        for cm, c in a.items():
            if cm[k]:
                out[cm[:k] + (0,) + cm[k + 1 :]] = -c % p if sum(cm[k + 1 :]) % 2 else c
        return out
