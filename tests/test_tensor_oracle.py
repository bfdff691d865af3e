"""Differential test of TensorSquare.__mul__ against whole-word straightening.

The oracle below multiplies two elements of U tensor U one pair of terms at
a time: (a1|a2)(b1|b2) = (-1)^(|a2| |b1|) (a1 b1 | a2 b2).  Each leg product
is the word of a1 followed by the word of b1 straightened from 1 in an
engine of its own (``PBWEngine.straighten_word``), and each parity is
counted from the odd exponents.  It shares no memo with the engine of
``TensorSquare.__mul__`` and none of its monomial products or their
one-letter extensions, so the two must agree term for term.
"""

import random

import pytest

from superpbw import catalog_names, load_bundle
from superpbw.pbw import (
    PBWEngine,
    TensorSquare,
    UElement,
    _add_scaled,
    coproduct,
    monomials_of_degree_at_most,
    restricted_monomials,
)


def oracle_tensor_mul(alg, level, left, right):
    """Terms of the product of two {(mono, mono): coeff} tensors, pair by
    pair, in a fresh engine."""
    p = alg.p
    eng = PBWEngine(alg, level=level)

    def times(a, b):
        return eng.straighten_word(eng.word_of(a) + eng.word_of(b))

    def odd(m):
        return sum(e for g, e in enumerate(m) if alg.parities[g]) % 2

    out = {}
    for (a1, a2), c1 in left.items():
        for (b1, b2), c2 in right.items():
            c = -c1 * c2 if odd(a2) and odd(b1) else c1 * c2
            lp, rp = times(a1, b1), times(a2, b2)
            prod = {(m1, m2): t1 * t2 for m1, t1 in lp.items() for m2, t2 in rp.items()}
            _add_scaled(out, prod, c, p)
    return out


def _random_tensor(alg, level, monos, rng):
    """Either the coproduct of a random element or a few random terms."""
    if rng.random() < 0.5:
        terms = {monos[rng.randrange(len(monos))]: rng.randrange(1, alg.p) for _ in range(2)}
        return coproduct(UElement(alg, level, terms))
    terms = {}
    for _ in range(rng.randint(1, 4)):
        key = (monos[rng.randrange(len(monos))], monos[rng.randrange(len(monos))])
        terms[key] = rng.randrange(1, alg.p)
    return TensorSquare(alg, level, terms)


@pytest.mark.parametrize("level", [0, None, 1])
@pytest.mark.parametrize("name", catalog_names())
def test_tensor_product_matches_the_fresh_engine_oracle(name, level):
    # degree at most p stays inside the level-1 window
    alg = load_bundle(name).algebra
    if level == 0:
        monos = restricted_monomials(alg)
    else:
        monos = monomials_of_degree_at_most(alg, alg.p)
    rng = random.Random(11)
    for _ in range(30):
        x = _random_tensor(alg, level, monos, rng)
        y = _random_tensor(alg, level, monos, rng)
        want = oracle_tensor_mul(alg, level, x.terms, y.terms)
        assert (x * y).terms == want, (x.terms, y.terms)


def test_zero_factor_and_unit():
    alg = load_bundle("gl11-p3").algebra
    one = (0,) * alg.dim
    unit = TensorSquare(alg, 0, {(one, one): 1})
    zero = TensorSquare(alg, 0)
    x = coproduct(UElement(alg, 0, {(1, 1, 1, 0): 2, (0, 0, 1, 1): 1}))
    assert (x * zero).terms == {} and (zero * x).terms == {}
    assert (unit * unit).terms == {(one, one): 1}
    assert x * unit == x and unit * x == x


def test_odd_legs_carry_the_koszul_sign():
    # gl11-p3 has two odd generators; moving an odd left leg of the second
    # factor past an odd right leg of the first costs a sign
    alg = load_bundle("gl11-p3").algebra
    odd = [g for g in range(alg.dim) if alg.parities[g]]
    units = [tuple(int(k == g) for k in range(alg.dim)) for g in odd]
    one = (0,) * alg.dim
    x = TensorSquare(alg, 0, {(one, units[0]): 1, (units[1], units[0]): 1})
    y = TensorSquare(alg, 0, {(units[1], one): 1, (units[0], units[1]): 2})
    got = (x * y).terms
    assert got == oracle_tensor_mul(alg, 0, x.terms, y.terms)
    assert got[units[1], units[0]] == alg.p - 1
