"""Volume forms on the coordinate algebra and their coinduced realization.

The derivation module of the coordinate algebra is free on the partial
derivatives; its berezinian is a free rank-one module with basis form
omega.  Each enveloping-algebra element acts by Lie derivative, and the
map recording the constant term of iterated Lie derivatives identifies
the sections with the coinduction of the one-dimensional module carrying
minus the supertrace character, with a parity shift by the number of odd
complement directions.
"""

from __future__ import annotations

import numpy as np

from .algebra import StructureError
from .linalg import mat_mul_mod, rank
from .modules import CoinducedModule, CoordinateAlgebra, rep_from_character
from .pbw import _add_scaled


class BerezinSections:
    """Sections a * omega of the berezinian, stored by their coefficient.
    Per generator x the split stores its Lie matrix under ("lie-matrix", x);
    callers must not change it.  Coordinate images and divergences are
    computed on each call; the images are columns of the coordinate
    algebra's stored generator matrices.  A monomial's row or column is
    looked up in the index of the coordinate algebra's module."""

    def __init__(self, split) -> None:
        self.split = split
        self.coords = CoordinateAlgebra(split)

    def coordinate_images(self, x: int):
        """Images of the coordinate duals under the derivation of x: the
        columns of its generator matrix at the degree-one monomials."""
        a = self.coords
        d = a.module().generator_matrix(x)
        index = a.module().index
        units = np.eye(len(self.split.c_indices), dtype=np.int64).tolist()
        images = [a.from_vector(d[:, index[tuple(e), 0]]) for e in units]
        return images[: self.split.n_even], images[self.split.n_even :]

    def _identity_tags(self) -> dict:
        """{cm_j: e_j}: the j-th dual monomial tagged with the j-th unit
        vector, so one convolution against the tags carries the products
        with every dual monomial side by side."""
        a = self.coords
        return dict(zip(a.c_monomials, np.eye(a.size, dtype=np.int64)))

    def _dense(self, rows: dict) -> np.ndarray:
        """The square matrix over c_monomials whose row at each key of rows
        is that key's vector."""
        a = self.coords
        index = a.module().index
        out = np.zeros((a.size, a.size), dtype=np.int64)
        for cm, v in rows.items():
            out[index[cm, 0]] = v
        return out

    def times_matrix(self, f: dict) -> np.ndarray:
        """Dense matrix of delta -> f * delta over c_monomials (column j
        holds f * delta_cm_j), from one convolution of f with the identity
        tags: the value at cm of the product is the matrix's row at cm."""
        return self._dense(self.coords.mul(f, self._identity_tags()))

    def expansion_check(self, x: int) -> None:
        """The derivation of x must be the image-weighted sum of partials.

        The partials act on the identity tags, so each term is one
        convolution for every dual monomial at once, and the sum is
        compared with the generator matrix column by column; the first
        column that differs names its monomial."""
        a = self.coords
        p = self.split.algebra.p
        d = a.module().generator_matrix(x)
        etas, zetas = self.coordinate_images(x)
        tags = self._identity_tags()
        got = np.zeros_like(d)
        for i, f in enumerate(etas):
            got += self._dense(a.mul(f, a.partial_even(i, tags)))
        for s, g in enumerate(zetas):
            got += self._dense(a.mul(g, a.partial_odd(s, tags)))
        bad = np.flatnonzero(((got - d) % p).any(axis=0))
        if bad.size:
            cm = a.c_monomials[bad[0]]
            raise StructureError(f"derivation of b_{x} is not spanned by the partials at {cm}")

    def divergence(self, x: int) -> dict:
        """Signed trace of the coordinate images of the derivation of x."""
        a = self.coords
        p = self.split.algebra.p
        etas, zetas = self.coordinate_images(x)
        out: dict = {}
        for i, f in enumerate(etas):
            _add_scaled(out, a.partial_even(i, f), 1, p)
        sign = 1 if self.split.algebra.parities[x] else -1
        for s, g in enumerate(zetas):
            _add_scaled(out, a.partial_odd(s, g), sign, p)
        return out

    def lie_derivative(self, x: int, section: dict) -> dict:
        """Coefficient of L_x(section * omega), through lie_matrix."""
        a = self.coords
        vec = mat_mul_mod(self.lie_matrix(x), a.to_vector(section), self.split.algebra.p)
        return a.from_vector(vec)

    def lie_matrix(self, x: int) -> np.ndarray:
        """L_x(a * omega) = (d_x a) * omega + (-1)^(|x||a|) a * Div(d_x) * omega
        on the coefficient a: the generator matrix of d_x plus the matrix of
        a -> Div(d_x) * a.  The coordinate algebra is supercommutative and
        Div(d_x) has the parity of x, so Div(d_x) * a is the signed
        a * Div(d_x).  Read-only."""

        def build():
            a = self.coords
            times_div = self.times_matrix(self.divergence(x))
            return (a.module().generator_matrix(x) + times_div) % self.split.algebra.p

        return self.split.memo(("lie-matrix", x), build)


def volume_character_rep(split, negate=True):
    """One-dimensional target: minus the supertrace character, shifted by
    the odd complement parity."""
    chi = split.supertrace_character()
    if negate:
        chi = chi.scaled(-1)
    return rep_from_character(chi, m=split.m_odd)


def sections_to_coinduced_matrix(split, sections: BerezinSections) -> np.ndarray:
    """Matrix of the constant-term map from sections to the coinduction."""
    p = split.algebra.p
    coords = sections.coords
    monos = coords.c_monomials
    out = np.zeros((len(monos), len(monos)), dtype=np.int64)
    start = coords.to_vector(coords.unit())
    for i, cm_arg in enumerate(monos):
        row = start
        for letter in coords.c_word(cm_arg):
            row = mat_mul_mod(row, sections.lie_matrix(letter), p)
        out[i] = row
    return out


def socle_volume_killed(split) -> tuple[bool, str]:
    """No derivation feeds back into the socle component of the socle
    section: the top coefficient of every Lie derivative vanishes, and
    along the subalgebra the derivative vanishes outright (the socle
    character cancels the divergence there).  Complement directions may
    still translate the section below the top."""
    # looked up at call time, so a replaced duality.socle_level reaches
    # this check too; a module-level import would keep the original
    from .duality import socle_level

    alg = split.algebra
    sections = BerezinSections(split)
    lam = socle_level(split)
    if not lam:
        return False, "socle section is zero"
    top = sections.coords.top
    for x in range(alg.dim):
        moved = sections.lie_derivative(x, lam)
        if moved.get(top, 0) % alg.p:
            return False, f"derivative of b_{x} keeps a socle component"
    for h in split.h_indices:
        if sections.lie_derivative(h, lam):
            return False, f"derivative of b_{h} moves the socle volume"
    return True, ""


def berezinian_coinduced_check(split) -> tuple[bool, str]:
    """The constant-term map is a bijective morphism for both the algebra
    and the module structures; flipping the character's sign must break
    it whenever the character is nonzero."""
    alg = split.algebra
    p = alg.p
    sections = BerezinSections(split)
    for x in range(alg.dim):
        sections.expansion_check(x)
    chi_mat = sections_to_coinduced_matrix(split, sections)
    if rank(chi_mat, p) != chi_mat.shape[0]:
        return False, "constant-term map is singular"
    target = CoinducedModule(split, volume_character_rep(split))
    for x in range(alg.dim):
        lhs = mat_mul_mod(chi_mat, sections.lie_matrix(x), p)
        rhs = mat_mul_mod(target.generator_matrix(x), chi_mat, p)
        if not np.array_equal(lhs, rhs):
            return False, f"constant-term map is not equivariant at b_{x}"
    # functions act on both sides by one convolution: linear iff commuting
    coords = sections.coords
    duals = [coords.eta(i) for i in range(split.n_even)]
    duals += [coords.zeta(s) for s in range(split.m_odd)]
    for a0 in duals:
        times_a0 = sections.times_matrix(a0)
        lhs, rhs = mat_mul_mod(chi_mat, times_a0, p), mat_mul_mod(times_a0, chi_mat, p)
        if not np.array_equal(lhs, rhs):
            return False, "constant-term map is not linear over the functions"
    chi = split.supertrace_character()
    if any(chi.value(h) for h in split.h_indices):
        wrong = CoinducedModule(split, volume_character_rep(split, negate=False))
        if all(
            np.array_equal(
                mat_mul_mod(chi_mat, sections.lie_matrix(x), p),
                mat_mul_mod(wrong.generator_matrix(x), chi_mat, p),
            )
            for x in range(alg.dim)
        ):
            return False, "sign control: the unnegated character also intertwines"
        return True, "negative control rejected the unnegated character"
    return True, "character is zero; sign control skipped"
