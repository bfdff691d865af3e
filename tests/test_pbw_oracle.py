"""Differential test of PBWEngine.mul_letter against a word rewriter.

The oracle below straightens the word of m followed by g by plain word
rewriting at the leftmost violation: an out-of-order adjacent pair swaps
with its Koszul sign plus a bracket term, an adjacent odd pair contracts to
half its self bracket, and at level r a run of p^(r+1) equal even letters
y contracts to the words of (y^[p])^(p^r), which at level 0 is the p-map
image; U(g) (level None) has no runs to contract.  It shares no code with
the engine beyond the structure constants, and it is quadratic in the word
length, so it only runs on short words here.

``oracle_append``, ``oracle_fits`` and ``oracle_mono_parity`` read every
bound off the engine's algebra on each call; the engine's own hot path reads
the prime, the odd letters and the largest basis exponents it holds, and
must agree with them on every engine the catalog builds.
"""

import itertools
import math
import random
import sys
import time

import pytest

from superpbw import LieSuperAlgebra, catalog_names, load_bundle
from superpbw.fp import ODD
from superpbw.pbw import (
    PBWEngine,
    get_engine,
    monomials_of_degree_at_most,
    restricted_monomials,
    split_engine,
)


def _run_length(alg, level):
    """Length of the run of equal even letters that contracts at a level."""
    return math.inf if level is None else alg.p ** (level + 1)


def _find_violation(alg, rank, level, word):
    """Position and kind of the leftmost rewrite site, or None."""
    run = _run_length(alg, level)
    n = len(word)
    for i in range(n - 1):
        a, b = word[i], word[i + 1]
        if a == b:
            if alg.parities[a]:
                return i, "odd-square"
            if i + run <= n and all(word[i + t] == a for t in range(run)):
                return i, "p-run"
        elif rank[a] > rank[b]:
            return i, "swap"
    return None


def oracle_mul_letter(alg, order, level, m, g):
    """m * g for a basis monomial m (exponents read in ``order``) by rewriting."""
    p = alg.p
    rank = {x: pos for pos, x in enumerate(order)}
    word = tuple(x for x in order for _ in range(m[x])) + (g,)
    pending = {word: 1}
    out = {}

    def push(into, key, coeff):
        v = (into.get(key, 0) + coeff) % p
        if v:
            into[key] = v
        else:
            into.pop(key, None)

    while pending:
        w, c = pending.popitem()
        hit = _find_violation(alg, rank, level, w)
        if hit is None:
            counts = [0] * alg.dim
            for x in w:
                counts[x] += 1
            push(out, tuple(counts), c)
            continue
        i, kind = hit
        a = w[i]
        if kind == "swap":
            b = w[i + 1]
            sign = -1 if alg.parities[a] * alg.parities[b] else 1
            push(pending, w[:i] + (b, a) + w[i + 2 :], c * sign)
            for k, t in enumerate(alg.bracket_coords(a, b)):
                if t:
                    push(pending, w[:i] + (k,) + w[i + 2 :], c * t)
        elif kind == "odd-square":
            for k, t in enumerate(alg.bracket_coords(a, a)):
                if t:
                    push(pending, w[:i] + (k,) + w[i + 2 :], c * pow(2, -1, p) * t)
        else:
            run = _run_length(alg, level)
            image = [(k, t) for k, t in enumerate(alg.p_map[a]) if t]
            for pick in itertools.product(image, repeat=run // p):
                word = tuple(k for k, _ in pick)
                push(pending, w[:i] + word + w[i + run :], c * math.prod(t for _, t in pick))
    return out


def _priorities(dim, rng):
    out = [tuple(range(dim)), tuple(reversed(range(dim)))]
    for _ in range(2):
        perm = list(range(dim))
        rng.shuffle(perm)
        out.append(tuple(perm))
    return out


def _random_mono(alg, level, rng):
    """Level 0 and U(g): every even exponent drawn below p, or up to 2p.
    Level 1: one even letter at p^2 - 1 or below, so that the rule fires
    often on short words, and every other even exponent below 2."""
    if level == 1:
        evens = [g for g, q in enumerate(alg.parities) if not q]
        y = rng.choice(evens) if evens else None
        high = rng.choice([alg.p**2 - 1, rng.randrange(alg.p**2)])
        return tuple(high if g == y else rng.randint(0, 1) for g in range(alg.dim))
    top = alg.p - 1 if level == 0 else 2 * alg.p
    return tuple(
        rng.randint(0, 1) if q else rng.randint(0, top) for q in alg.parities
    )


def _mismatches(engine_alg, oracle_alg, cases_per_order, seed):
    rng = random.Random(seed)
    bad = []
    # the rewriter moves a letter through a run of p^2 - 1 equal letters one
    # swap at a time, which at p = 5 takes minutes: level 1 runs at p = 3
    for level in (0, None, 1) if engine_alg.p == 3 else (0, None):
        for order in _priorities(engine_alg.dim, rng):
            eng = PBWEngine(engine_alg, order, level)
            for _ in range(cases_per_order):
                m = _random_mono(engine_alg, level, rng)
                g = rng.randrange(engine_alg.dim)
                got = eng.mul_letter(m, g)
                want = oracle_mul_letter(oracle_alg, order, level, m, g)
                if got != want:
                    bad.append((level, order, m, g))
    return bad


@pytest.mark.parametrize("name", catalog_names())
def test_mul_letter_matches_word_rewriter(name):
    alg = load_bundle(name).algebra
    assert _mismatches(alg, alg, cases_per_order=25, seed=7) == []


def _with_bracket_coefficient_bumped(alg):
    """A copy of alg whose first nonzero bracket coefficient is off by one."""
    brackets = {}
    for i in range(alg.dim):
        for j in range(i, alg.dim):
            brackets[i, j] = alg.bracket_coords(i, j)
    (i, j), coords = next((k, v) for k, v in brackets.items() if any(v))
    k = next(k for k, c in enumerate(coords) if c)
    brackets[i, j] = coords[:k] + (coords[k] + 1,) + coords[k + 1 :]
    return LieSuperAlgebra(
        alg.p, alg.names, alg.parities, brackets, alg.p_map, name=alg.name + "-mutated"
    )


@pytest.mark.parametrize("name", ["sl2-p3", "heis-p3", "gl11-p3"])
def test_mutated_bracket_is_caught(name):
    alg = load_bundle(name).algebra
    mutated = _with_bracket_coefficient_bumped(alg)
    assert _mismatches(mutated, alg, cases_per_order=25, seed=7)


def test_long_power_straightens_without_deep_recursion():
    # sl2 at p = 11: f^1330 e, a word of p^3 = 1331 letters
    p = 11
    alg = LieSuperAlgebra(
        p,
        ("h", "e", "f"),
        (0, 0, 0),
        {(0, 1): (0, 2, 0), (0, 2): (0, 0, p - 2), (1, 2): (1, 0, 0)},
        {0: (1, 0, 0)},
        name="sl2-p11",
    )
    assert alg.is_valid()
    eng = PBWEngine(alg, level=None)
    start = time.time()
    got = eng.straighten_word((2,) * 1330 + (1,))
    elapsed = time.time() - start
    assert sys.getrecursionlimit() <= 1000
    # f^n e = e f^n - n h f^(n-1) - n(n-1) f^(n-1), hand straightened
    n = 1330
    want = {(0, 1, n): 1, (1, 0, n - 1): -n % p, (0, 0, n - 1): -n * (n - 1) % p}
    assert got == {k: v for k, v in want.items() if v}
    assert elapsed < 5.0


def oracle_fits(eng, y, e):
    """Whether y^e is a basis power, read from the engine's algebra."""
    alg = eng.algebra
    if alg.parities[y] == ODD:
        return e <= 1
    return eng.level is None or e < alg.p ** (eng.level + 1)


def oracle_append(eng, m, g):
    """m g when g appends to m or bumps its last letter in place, else None;
    every bound read from the engine's algebra."""
    y = eng._last_letter(m)
    if y is None or eng.rank[g] > eng.rank[y] or (g == y and oracle_fits(eng, y, m[y] + 1)):
        return m[:g] + (m[g] + 1,) + m[g + 1 :]
    return None


def oracle_mono_parity(eng, mono):
    """Parity of a monomial, summed over every letter."""
    q = eng.algebra.parities
    return sum(e * q[i] for i, e in enumerate(mono)) % 2


def _hot_path_mismatches(eng, monos):
    alg = eng.algebra
    bad = [(y, e) for y in range(alg.dim) for e in range(alg.p**2 + 2)
           if eng._fits(y, e) != oracle_fits(eng, y, e)]
    for m in monos:
        if eng.mono_parity(m) != oracle_mono_parity(eng, m):
            bad.append(m)
        bad += [(m, g) for g in range(alg.dim) if eng._append(m, g) != oracle_append(eng, m, g)]
    return bad


@pytest.mark.parametrize("name", catalog_names())
def test_engine_held_bounds_match_the_algebra(name):
    # the hot path reads p, the odd letters and the largest basis exponents
    # off the engine; every restricted monomial times every generator in
    # the level-0 engines, degree at most p in U(g) and at most p^2 - 1 at
    # level 1
    bundle = load_bundle(name)
    alg = bundle.algebra
    restricted = restricted_monomials(alg)
    assert _hot_path_mismatches(get_engine(alg), restricted) == []
    small = monomials_of_degree_at_most(alg, alg.p)
    assert _hot_path_mismatches(get_engine(alg, None), small) == []
    level_one = monomials_of_degree_at_most(alg, alg.p**2 - 1)
    assert _hot_path_mismatches(get_engine(alg, 1), level_one) == []
    engines = {split_engine(split, 0, side) for _, split, _ in bundle.instances()
               for side in ("left", "right")}
    split_priority = [eng for eng in engines if eng.order != tuple(range(alg.dim))]
    # a one-letter algebra has no other order
    assert split_priority or alg.dim == 1
    for eng in split_priority:
        assert _hot_path_mismatches(eng, restricted) == [], eng.order
