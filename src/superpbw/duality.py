"""The induced/coinduced comparison maps and their exact certificates.

Everything here is phrased over a split g = h (+) c and a representation
pi of h.  The socle functional is the top dual monomial of the coordinate
algebra; convolving against it turns induced elements into coinduced ones.
The Gram matrix couples the coinduction of pi with the coinduction of the
twisted dual, and factors through the induced-dual map; annihilators of
the two coinductions match through the antipode.  An annihilator is held
by its equations, with no basis of the ideal; they are read from row
blocks of the monomial actions into a running echelon.  The antipode and the
regular actions are sparse basis maps, built once per algebra on the
restricted engine; the antipode image and two-sidedness are each one
sparse product of the equations per ideal, and the antipode is certified
an involution monomial by monomial.  Level-r variants widen the window to
even exponents below p^(r+1) inside the full enveloping algebra.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple

import numpy as np

from .fp import koszul_sign
from .linalg import _GATHER_CELLS, SubspaceBasis, mat_mul_mod, rank, subspace_equal
from .pbw import (
    _add_scaled,
    get_engine,
    restricted_monomials,
    split_engine,
    split_parts,
)
from .modules import (
    CoinducedModule,
    CoordinateAlgebra,
    InducedModule,
    dual_action_matrix,
    trivial_rep,
    twist,
    twisted_dual,
)

PhiResult = namedtuple("PhiResult", "matrix source target")
GramResult = namedtuple("GramResult", "matrix left right")
ThetaResult = namedtuple("ThetaResult", "matrix source target")


def socle_level(split, level=None) -> dict:
    """Top dual monomial of the window, computed by honest convolution: the
    product of the (p-1)-st powers of every base-p digit dual of each even
    letter and of all odd duals.  Level None is the restricted window,
    whose even letters have one digit.  Built once per (split, level) and
    stored on the split; callers must not change it."""

    def build():
        alg = CoordinateAlgebra(split, level=level)
        factors = []
        for i in range(split.n_even):
            for j in range(1 if level is None else level + 1):
                factors.extend([alg.eta_power(i, j)] * (split.algebra.p - 1))
        factors.extend(alg.zeta(s) for s in range(split.m_odd))
        return alg.mul_many(factors)

    return split.memo(("socle", level), build)


def socle_character_check(split, level=None) -> tuple[bool, str]:
    """The socle line is killed by every positive dual monomial and scales
    by the supertrace character under the subalgebra action.

    The kill leg is one convolution of the sum of all positive dual
    monomials with lam: lam sits at top alone, so each product lands on its
    own key cm + top, and the smallest surviving key less top is the first
    positive cm, in window order, that does not kill the socle."""
    alg = CoordinateAlgebra(split, level=level)
    lam = socle_level(split, level)
    top = alg.top
    if set(lam) != {top}:
        return False, f"socle support is {sorted(lam)} instead of the top monomial"
    alive = alg.mul({cm: 1 for cm in alg.c_monomials if any(cm)}, lam)
    if alive:
        cm = tuple(x - t for x, t in zip(min(alive), top))
        return False, f"dual monomial {cm} does not kill the socle"
    # (x lam)(w) = lam(w x) by definition at every level: a truncated window
    # is not a module, and a dense generator matrix there would dwarf lam
    p = split.algebra.p
    chi = split.supertrace_character()
    triv = trivial_rep(split)
    lam_vec = {top: np.array([lam[top]], dtype=np.int64)}
    for h in split.h_indices:
        x = {alg.engine._unit(h): 1}
        for cm in alg.c_monomials:
            got = triv.pair_eval(alg.times(cm, x, "left"), lam_vec)[0]
            if (got - (chi.value(h) * lam[top] if cm == top else 0)) % p:
                return False, f"subalgebra generator b_{h} scales the socle wrongly"
    return True, f"socle coefficient {lam[top]} at {top}"


def _closed_coproduct_coeff(split, cm1, cm2) -> int:
    """Coefficient of (cm1, cm2) in the coproduct of the complement monomial
    cm1 + cm2, from the closed law rather than the engine: a binomial per
    even letter and, on odd letters (which cm1 and cm2 must not share), the
    sign of unshuffling them into cm1-first order.  It is the reference for
    the engine's PBWEngine.coproduct_coeff, so the two share no code."""
    p = split.algebra.p
    n = split.n_even
    coeff = 1
    for a, b in zip(cm1[:n], cm2[:n]):
        coeff = coeff * math.comb(a + b, a) % p
    merged = [s for s, e in enumerate(cm1[n:]) if e] + [s for s, e in enumerate(cm2[n:]) if e]
    ranks = {v: r for r, v in enumerate(sorted(merged))}
    return coeff * koszul_sign([ranks[v] for v in merged], [1] * len(merged)) % p


def mu_product_check(split) -> tuple[bool, str]:
    """Convolution of dual monomials against the closed law: the coproduct
    coefficient times the Koszul sign of the two legs, zero past the
    window.

    Each row cm1 is one convolution of delta_cm1 with the sum of every dual
    monomial: the key cm1 + cm2 fixes cm2, so no two products add up, and
    walking cm2 in window order pops each product in turn.  The first
    mismatch names its pair; a key no cm2 accounts for fails the row."""
    alg = CoordinateAlgebra(split)
    p = split.algebra.p
    n, m = split.n_even, split.m_odd
    every = dict.fromkeys(alg.c_monomials, 1)
    for cm1 in alg.c_monomials:
        got = alg.mul({cm1: 1}, every)
        for cm2 in alg.c_monomials:
            cm = tuple(x + y for x, y in zip(cm1, cm2))
            want = 0
            if alg.in_window(cm):
                want = _closed_coproduct_coeff(split, cm1, cm2)
                if alg.c_mono_parity(cm1) and alg.c_mono_parity(cm2):
                    want = -want % p
            if got.pop(cm, 0) != want:
                return False, f"product law fails at {cm1} * {cm2}"
        if got:
            return False, f"product law leaves a stray term at {min(got)} in row {cm1}"
    for i in range(n):
        if alg.power(alg.eta(i), p):
            return False, f"even dual {i} has nonzero p-th power"
    for s in range(m):
        if alg.power(alg.zeta(s), 2):
            return False, f"odd dual {s} has nonzero square"
    return True, f"{len(alg.c_monomials) ** 2} products checked"


def ind_to_coind_map(split, rep) -> PhiResult:
    """Matrix of the map sending cm tensor v to cm acting on (socle * v).

    The socle sections of the basis vectors form one block S, and cm's
    column block is G_x1 ... G_xk S over its letters x1 ... xk, the window's
    c_word.  So it is G_x1 times the block of cm less x1, a shorter monomial
    that comes earlier in lex order, read back from the columns already
    filled: one product per window monomial past the first.  The coinduced
    generator matrices G are certified first, so a rep that breaks a
    relation of u(g) raises StructureError with the witness."""
    p = split.algebra.p
    source = InducedModule(split, twist(rep, split.supertrace_character(), split.m_odd))
    target = CoinducedModule(split, rep)
    gens = target.generator_matrices()
    lam = socle_level(split)
    basis = np.eye(rep.dim, dtype=np.int64)
    sections = np.array([target.to_vector(target.convolve(lam, target.vhat(v))) for v in basis]).T
    dv = rep.dim
    out = np.zeros((target.dim, source.dim), dtype=np.int64)
    for cm in source.c_monomials:
        col0 = source.index[cm, 0]
        word = target.c_word(cm)
        if not word:
            out[:, col0 : col0 + dv] = sections
            continue
        k = split.c_indices.index(word[0])
        rest0 = source.index[cm[:k] + (cm[k] - 1,) + cm[k + 1 :], 0]
        out[:, col0 : col0 + dv] = mat_mul_mod(gens[word[0]], out[:, rest0 : rest0 + dv], p)
    return PhiResult(out, source, target)


def phi_isomorphism_check(split, rep) -> tuple[bool, str]:
    """The induced-to-coinduced map is invertible and commutes with the
    action of every generator.  Both modules come from rep, so the map
    intertwines whatever rep's matrices are; certifying each module's
    generator matrices (the coinduced ones in ind_to_coind_map; a broken
    relation raises StructureError) is what sees a broken rep."""
    p = split.algebra.p
    phi = ind_to_coind_map(split, rep)
    if rank(phi.matrix, p) != phi.matrix.shape[0]:
        return False, "comparison matrix is singular"
    for g in range(split.algebra.dim):
        a = phi.source.generator_matrix(g)
        b = phi.target.generator_matrix(g)
        if not np.array_equal(mat_mul_mod(phi.matrix, a, p), mat_mul_mod(b, phi.matrix, p)):
            return False, f"does not intertwine generator b_{g}"
    phi.source.generator_matrices()
    return True, f"bijective on dimension {phi.matrix.shape[0]}"


def coind_duality_gram(split, rep, direct=False) -> GramResult:
    """Gram matrix coupling the coinduction of rep with the coinduction of
    its twisted dual, normalized by the socle coefficient."""
    alg = split.algebra
    p = alg.p
    left = CoinducedModule(split, rep)
    right = CoinducedModule(split, twisted_dual(rep))
    n = split.n_even
    norm = (-1 if (n * (n - 1) // 2) % 2 else 1) * pow(math.factorial(p - 1), -n, p) % p
    out = np.zeros((left.dim, right.dim), dtype=np.int64)
    splits = {}
    if direct:
        for cm1 in left.c_monomials:
            cm2 = tuple(t - a for t, a in zip(left.top, cm1))
            if left.in_window(cm2):
                c = _closed_coproduct_coeff(split, cm1, cm2)
                if c:
                    splits[cm1, cm2] = c
    else:
        for (m1, m2), coeff in left.engine.coproduct_mono(left.global_mono(left.top)).items():
            splits[left.local_of(m1), right.local_of(m2)] = coeff
    for (cm1, cm2), coeff in splits.items():
        i0 = left.index[cm1, 0]
        j0 = right.index[cm2, 0]
        for k in range(rep.dim):
            lam_par = (left.c_mono_parity(cm1) + rep.parities[k]) % 2
            sign = -1 if lam_par and right.c_mono_parity(cm2) else 1
            vp = -1 if rep.parities[k] else 1
            out[i0 + k, j0 + k] = norm * coeff * sign * vp % p
    return GramResult(out, left, right)


def curried_gram(gram: GramResult) -> np.ndarray:
    """Reads the pairing as a map into the dual of the left slot.

    Feeding the left argument into the curried functional costs its own
    parity as a sign; reversing the m odd socle letters and undoing the
    even normalization sign contribute a global (-1)^(m(m+1)/2 + n(n-1)/2).
    """
    split = gram.left.split
    p = split.algebra.p
    n, m = split.n_even, split.m_odd
    global_sign = -1 if (m * (m + 1) // 2 + n * (n - 1) // 2) % 2 else 1
    row = np.array(
        [global_sign * (-1 if q else 1) for q in gram.left.basis_parities],
        dtype=np.int64,
    )
    return (gram.matrix * row[:, None]) % p


def gram_invariance_check(split, rep, gram: GramResult) -> tuple[bool, str]:
    """The pairing kills the diagonal action of every generator."""
    alg = split.algebra
    p = alg.p
    g_mat = gram.matrix
    for g in range(alg.dim):
        a = gram.left.generator_matrix(g)
        b = gram.right.generator_matrix(g)
        qg = alg.parities[g]
        d = np.diag([-1 if (qg * q) % 2 else 1 for q in gram.left.basis_parities])
        twisted = mat_mul_mod(mat_mul_mod(d, g_mat, p), b, p)
        if ((mat_mul_mod(a.T, g_mat, p) + twisted) % p).any():
            return False, f"generator b_{g} breaks the pairing invariance"
    return True, ""


def coind_to_ind_dual_map(split, rep) -> ThetaResult:
    """Functionals on the induced module, obtained by antipoding the
    induced monomial, one basis monomial of split_engine(split, "left"),
    into the coinduction of the twisted dual."""
    alg = split.algebra
    p = alg.p
    sigma_dual = twisted_dual(rep)
    source = CoinducedModule(split, sigma_dual)
    ind = InducedModule(split, twist(rep, split.supertrace_character(), split.m_odd))
    eng = split_engine(split, True, "left")
    dv = rep.dim
    out = np.zeros((ind.dim, source.dim), dtype=np.int64)
    for cm in ind.c_monomials:
        row0 = ind.index[cm, 0]
        cm_par = ind.c_mono_parity(cm)
        for c2, inner in split_parts(eng.antipode_mono(ind.global_mono(cm)), split).items():
            col0 = source.index[c2, 0]
            block = sigma_dual.h_element_matrix(inner)
            if cm_par:
                # arguments pass each other: functional parity times |cm|
                c2_par = source.c_mono_parity(c2)
                signs = np.array(
                    [-1 if (q + c2_par) % 2 else 1 for q in sigma_dual.parities],
                    dtype=np.int64,
                )
                block = block * signs[None, :]
            out[row0 : row0 + dv, col0 : col0 + dv] = (
                out[row0 : row0 + dv, col0 : col0 + dv] + block
            ) % p
    return ThetaResult(out, source, ind)


def theta_equivariance_check(split, rep, theta: ThetaResult) -> tuple[bool, str]:
    alg = split.algebra
    p = alg.p
    ind = theta.target
    for g in range(alg.dim):
        b = theta.source.generator_matrix(g)
        a = ind.generator_matrix(g)
        a_dual = dual_action_matrix(a, alg.parities[g], ind.basis_parities, p)
        lhs = mat_mul_mod(theta.matrix, b, p)
        if not np.array_equal(lhs, mat_mul_mod(a_dual, theta.matrix, p)):
            return False, f"generator b_{g} breaks the dual-map equivariance"
    return True, ""


def gram_factorization_check(split, rep) -> tuple[bool, str]:
    """The induced-dual map factors as transposed iso times curried Gram."""
    p = split.algebra.p
    phi = ind_to_coind_map(split, rep)
    gram = coind_duality_gram(split, rep)
    theta = coind_to_ind_dual_map(split, rep)
    lhs = mat_mul_mod(phi.matrix.T, curried_gram(gram), p)
    if not np.array_equal(lhs, theta.matrix % p):
        return False, "transpose(phi) @ curried gram differs from the dual map"
    return True, ""


def annihilator(split, rep) -> tuple[SubspaceBasis, list]:
    """Two-sided ideal of the restricted enveloping algebra killing the
    coinduction of rep, held by its equations: the ideal is {u : E u = 0}
    for the echelon rows E of the returned SubspaceBasis, whose coordinates
    are over the monomial basis.  Each matrix entry gives one equation,
    listing that entry of each monomial's action matrix.

    The equations come in row blocks of every monomial's action
    (CoinducedModule.action_rows), each block within _GATHER_CELLS cells,
    and fold into a running echelon, so no monomial's whole matrix is held
    beside the others.  Before each extension as many equations gather as
    the echelon has rows, which keeps its cost in proportion to them.  Once
    the rank reaches count the ideal is 0 and the remaining blocks are
    skipped.  The blocks are products of certified generator matrices, so
    one that breaks a defining relation of u(g) raises StructureError with
    the witness before any block.  The equations are stored on the split
    under rep.key, read-only.
    """

    def build():
        co = CoinducedModule(split, rep)
        count = len(restricted_monomials(split.algebra))
        step = max(1, _GATHER_CELLS // (count * co.dim))
        eqs = SubspaceBasis(count, split.algebra.p)
        waiting: list = []
        for lo in range(0, co.dim, step):
            block = co.action_rows(lo, min(lo + step, co.dim)).reshape(count, -1).T
            # entries that vanish on every monomial add no equation
            waiting.append(block[block.any(axis=1)])
            if sum(map(len, waiting)) >= eqs.dim or lo + step >= co.dim:
                gathered = np.concatenate(waiting)
                waiting.clear()
                eqs = eqs.extend(gathered)
                if eqs.dim == count:
                    break
        eqs.rows.setflags(write=False)
        return eqs

    return split.memo(("annihilator", rep.key), build), restricted_monomials(split.algebra)


def two_sided_witness(alg, ideals) -> str:
    """'' if x u and u x lie in the ideal for every generator x and every
    element u of each ideal, else the first generator that leaves one.

    Each ideal is given by its equations E over the restricted monomials,
    which index the restricted engine's regular maps M_x.  M_x maps the
    ideal ker E into itself exactly when every row of E M_x lies in the row
    space of E: one sparse product and one membership test per ideal,
    generator and side.
    """
    p = alg.p
    eng = get_engine(alg, restricted=True)
    for g in range(alg.dim):
        for side in ("left", "right"):
            m = eng.regular_map(g, side)
            if not all(eqs.contains_all(m.pullback(eqs.rows, p)) for eqs in ideals):
                return f"annihilator is not two-sided at generator b_{g}"
    return ""


def involution_witness(alg, monos) -> str:
    """'' if the antipode of the restricted enveloping algebra squares to
    the identity on every monomial of monos, else the first monomial where
    it does not."""
    eng = get_engine(alg, restricted=True)
    for m in monos:
        twice: dict = {}
        for m2, c in eng.antipode_mono(m).items():
            _add_scaled(twice, eng.antipode_mono(m2), c, alg.p)
        if twice != {m: 1}:
            return f"antipode is not an involution at {m}"
    return ""


def annihilator_duality_check(split, rep) -> tuple[bool, str]:
    """ann Coind(rep) is the antipode image of ann Coind(twisted dual),
    and both are two-sided.  Both annihilators are the equations in the
    split's store.  For an involution S, S(ker E) = ker(E S), so the image
    of the right ideal is cut out by the pullback of its equations along the
    restricted engine's antipode map, compared with the left equations;
    that S squares to 1 is certified last, so no witness of the other legs
    is pre-empted.  Every leg runs on every call."""
    alg, p = split.algebra, split.algebra.p
    left, monos = annihilator(split, rep)
    right, _ = annihilator(split, twisted_dual(rep))
    s = get_engine(alg, restricted=True).antipode_map()
    image = SubspaceBasis.from_vectors(s.pullback(right.rows, p), p, len(monos))
    if not subspace_equal(left, image):
        return False, "antipode image of the right annihilator mismatches the left"
    witness = two_sided_witness(alg, (left, right)) or involution_witness(alg, monos)
    if witness:
        return False, witness
    return True, f"annihilator dimension {len(monos) - left.dim} of {len(monos)}"


class LevelEvaluator:
    """Evaluates induced data against the level-r socle of the coinduction.

    The level-r window of U(g) is not a module, so functionals stay
    functionals: the socle section of vec is a convolution on the window,
    and rep.pair_eval reads its value at w u from window.times(w, u, "left"),
    for u given as terms of split_engine(split, False, "left").
    """

    def __init__(self, split, rep, level: int) -> None:
        self.split = split
        self.rep = rep
        self.window = CoordinateAlgebra(split, level)
        self.socle = socle_level(split, level)
        self.level = level

    def socle_section(self, vec) -> dict:
        """socle * vhat(vec), stored on the split by level and vec mod p; read-only."""
        key = ("socle-section", self.level, tuple(int(x) % self.split.algebra.p for x in vec))
        return self.split.memo(key, lambda: self.window.convolve(self.socle, self.window.vhat(vec)))

    def eval(self, u, vec, w_exps) -> np.ndarray:
        """Value at the window monomial w of the functional built from the
        left-engine terms u and vec."""
        parts = self.window.times(tuple(w_exps), u, "left")
        return self.rep.pair_eval(parts, self.socle_section(vec))


def _random_filtered_element(split, rng, level: int, terms=3) -> dict:
    """Random element with complement exponents inside the level window, as
    terms {mono: coeff} of split_engine(split, False, "left")."""
    alg = split.algebra
    p = alg.p
    bound = p ** (level + 1)
    out = {}
    for _ in range(terms):
        mono = [0] * alg.dim
        for h in split.h_indices:
            mono[h] = rng.randrange(2 if alg.parities[h] else p)
        for g in split.c_indices:
            if alg.parities[g]:
                mono[g] = rng.randrange(2)
            else:
                mono[g] = rng.randrange(bound)
        out[tuple(mono)] = rng.randrange(1, p)
    return out


def balance_check(split, rep, *, level, seed, samples) -> tuple[bool, str]:
    """Pushing a subalgebra generator through the evaluation costs the
    supertrace character plus the twisted module action."""
    alg = split.algebra
    p = alg.p
    rng = random.Random(seed)
    ev = LevelEvaluator(split, rep, level)
    chi = split.supertrace_character()
    m = split.m_odd
    eng = split_engine(split, False, "left")
    for _ in range(samples):
        u = _random_filtered_element(split, rng, level)
        vec = np.array([rng.randrange(p) for _ in range(rep.dim)], dtype=np.int64)
        w = ev.window.monomial_at(rng.randrange(ev.window.size))
        for h in split.h_indices:
            uh = eng._fold(u, (h,))
            lhs = ev.eval(uh, vec, w)
            sign = -1 if (m * alg.parities[h]) % 2 else 1
            rhs = (
                chi.value(h) * ev.eval(u, vec, w)
                + sign * ev.eval(u, mat_mul_mod(rep.matrices[h], vec, p), w)
            ) % p
            if not np.array_equal(lhs, rhs % p):
                return False, f"balance fails at generator b_{h}"
    return True, ""


def level_raising_check(split, rep, *, level, seed, samples) -> tuple[bool, str]:
    """Raising the window by one digit is convolution by the next digit's
    (p-1)-st dual power: at w it sums a(m1) low(m2) over the coproduct
    terms (m1, m2) of w, walked as the support monomials m1 <= w of a.
    w is the window's top less u's leading complement exponents, so w u
    reaches the top, where the level-(r+1) socle is read."""
    alg = split.algebra
    p = alg.p
    rng = random.Random(seed)
    low = LevelEvaluator(split, rep, level)
    high = LevelEvaluator(split, rep, level + 1)
    window = high.window
    factors = []
    for i in range(split.n_even):
        factors.extend([window.eta_power(i, level + 1)] * (p - 1))
    a_func = window.mul_many(factors)
    coeff_of, glob = window.engine.coproduct_coeff, window.global_mono
    for _ in range(samples):
        u = _random_filtered_element(split, rng, level)
        vec = np.array([rng.randrange(p) for _ in range(rep.dim)], dtype=np.int64)
        lead = max(split_parts(u, split), key=lambda cm: (sum(cm), cm))
        w = tuple(t - a for t, a in zip(window.top, lead))
        rhs = high.eval(u, vec, w)
        lhs = np.zeros(rep.dim, dtype=np.int64)
        for cm1, aval in a_func.items():
            cm2 = tuple(x - y for x, y in zip(w, cm1))
            if any(e < 0 for e in cm2):
                continue
            coeff = coeff_of(glob(cm1), glob(cm2))
            if coeff:
                lhs = (lhs + coeff * aval * low.eval(u, vec, cm2)) % p
        if not np.array_equal(lhs, rhs):
            return False, f"level raise mismatch at window monomial {w}"
    return True, ""


def injectivity_witness_check(split, rep, *, level, seed, samples) -> tuple[bool, str]:
    """Every nonzero window element hits the top through a complementary
    witness monomial."""
    alg = split.algebra
    p = alg.p
    rng = random.Random(seed)
    ev = LevelEvaluator(split, rep, level)
    window = ev.window
    for _ in range(samples):
        picks = rng.sample(range(window.size), k=min(3, window.size))
        coeffs = {window.monomial_at(i): rng.randrange(1, p) for i in picks}
        # in the left engine a window monomial is its own product
        u = {window.global_mono(cm): c for cm, c in coeffs.items()}
        lead = max(coeffs, key=lambda cm: (sum(cm), cm))
        witness = tuple(t - a for t, a in zip(window.top, lead))
        vec = np.zeros(rep.dim, dtype=np.int64)
        vec[rng.randrange(rep.dim)] = rng.randrange(1, p)
        value = ev.eval(u, vec, witness)
        if not value.any():
            return False, f"witness {witness} fails for leading monomial {lead}"
    return True, ""
