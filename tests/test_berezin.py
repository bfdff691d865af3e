import numpy as np

from superpbw import (
    BerezinSections,
    berezinian_coinduced_check,
    load_bundle,
    rep_from_character,
    sections_to_coinduced_matrix,
    socle_level,
    socle_volume_killed,
    volume_character_rep,
)
from superpbw.linalg import rank


def _split(name, split_name):
    return load_bundle(name).splits[split_name]


def test_volume_character_is_negated_supertrace():
    split = _split("sl2-p3", "borel")
    vol = volume_character_rep(split)
    ref = rep_from_character(split.supertrace_character().scaled(-1), m=split.m_odd)
    assert vol.parities == ref.parities
    for h in split.h_indices:
        assert np.array_equal(vol.matrices[h], ref.matrices[h])


def test_expansion_check():
    for name, split_name in [
        ("abelian1-p3", "zero"),
        ("heis-p3", "zline"),
        ("sl2-p3", "borel"),
        ("gl11-p3", "sborel"),
    ]:
        split = _split(name, split_name)
        sections = BerezinSections(split)
        for x in range(split.algebra.dim):
            sections.expansion_check(x)  # raises on failure


def test_sections_map_is_invertible():
    split = _split("sl2-p3", "borel")
    mat = sections_to_coinduced_matrix(split, BerezinSections(split))
    assert rank(mat, split.algebra.p) == mat.shape[0]


def test_coinduced_identification():
    for name, split_name in [
        ("abelian1-p3", "zero"),
        ("oddline-p3", "zero"),
        ("heis-p3", "zline"),
        ("sl2-p3", "borel"),
        ("gl11-p3", "sborel"),
    ]:
        ok, msg = berezinian_coinduced_check(_split(name, split_name))
        assert ok, f"{name}/{split_name}: {msg}"


def test_socle_volume_killed_all_p3_splits():
    for name in ("abelian1-p3", "oddline-p3", "abelian22-p3", "heis-p3", "sl2-p3", "gl11-p3"):
        bundle = load_bundle(name)
        for split_name, split in bundle.splits.items():
            ok, msg = socle_volume_killed(split)
            assert ok, f"{name}/{split_name}: {msg}"


def test_socle_section_can_move_below_the_top():
    # the abelian line shows why only the top coefficient can be required
    # to vanish: d/de maps eta^2 omega to 2 eta omega, which is nonzero
    split = _split("abelian1-p3", "zero")
    sections = BerezinSections(split)
    lam = socle_level(split)
    moved = sections.lie_derivative(0, lam)
    assert moved  # strictly below the socle, but not zero
    assert moved.get((2,), 0) % 3 == 0


def test_subalgebra_kills_socle_section_exactly():
    split = _split("sl2-p3", "borel")
    sections = BerezinSections(split)
    lam = socle_level(split)
    for h in split.h_indices:
        assert not sections.lie_derivative(h, lam)
