import pytest

from superpbw import (
    AlgebraBundle,
    DefinitionError,
    catalog_names,
    load_bundle,
    load_definition,
    parse_definition_text,
    run_checks,
    serialize_definition,
)
from superpbw.catalog import CATALOG

GOOD = """\
algebra twoline
prime 3

# a line and an odd line, nothing brackets
generator e even
generator eps odd

split zero :
split mixed : e

representation triv zero 1
repbasis triv : 0

representation etriv mixed 1
repbasis etriv : 0
repaction etriv e : 0

character null mixed : 0
"""


def test_parse_good_text():
    bundle = parse_definition_text(GOOD)
    assert bundle.algebra.name == "twoline"
    assert bundle.algebra.p == 3
    assert bundle.algebra.parities == (0, 1)
    assert set(bundle.splits) == {"zero", "mixed"}
    assert bundle.representations["etriv"].split is bundle.splits["mixed"]
    assert bundle.characters["null"].values == (0,)


def test_serialize_parse_roundtrip_is_idempotent():
    for name in catalog_names():
        text = serialize_definition(load_bundle(name))
        again = serialize_definition(parse_definition_text(text))
        assert again == text, name


def test_directly_built_bundle_matches_the_parsed_one():
    # a rep's split is read off the rep itself, not off a parser-side map
    parsed = parse_definition_text(CATALOG["sl2-p3"])
    direct = AlgebraBundle(
        parsed.algebra, parsed.splits, parsed.representations, parsed.characters
    )
    assert serialize_definition(direct) == serialize_definition(parsed)
    forms = [
        [r.machine_form() for r in run_checks(b, only=["phi", "validate"])]
        for b in (parsed, direct)
    ]
    assert forms[0] == forms[1]
    assert {r["representation"] for r in forms[0]} >= set(parsed.representations)


def test_load_definition_from_file(tmp_path):
    path = tmp_path / "twoline.def"
    path.write_text(GOOD)
    bundle = load_definition(path)
    assert bundle.algebra.name == "twoline"


# ------------------------------------------------------------------
# diagnostics
# ------------------------------------------------------------------


def _err(text):
    with pytest.raises(DefinitionError) as info:
        parse_definition_text(text)
    return str(info.value)


def test_rejects_prime_two_and_composites():
    assert "prime" in _err("algebra a\nprime 2\ngenerator e even\n")
    assert "prime" in _err("algebra a\nprime 4\ngenerator e even\n")


def test_unknown_keyword_names_the_line():
    msg = _err("algebra a\nprime 3\ngenerato e even\n")
    assert "line 3" in msg


def test_bracket_with_unknown_generator():
    msg = _err("algebra a\nprime 3\ngenerator e even\nbracket e q : 1\n")
    assert "q" in msg


def test_bracket_with_wrong_arity():
    msg = _err("algebra a\nprime 3\ngenerator e even\nbracket e e : 1 0\n")
    assert "line 4" in msg


def test_split_must_close():
    text = (
        "algebra s\nprime 3\n"
        "generator h even\ngenerator e even\ngenerator f even\n"
        "bracket h e : 0 2 0\nbracket h f : 0 0 -2\nbracket e f : 1 0 0\n"
        "pmap h : 1 0 0\n"
        "split bad : e f\n"
    )
    msg = _err(text)
    assert "closed" in msg or "bad" in msg


def test_repaction_shape_is_checked():
    text = GOOD + "representation wide mixed 2\nrepbasis wide : 0 0\nrepaction wide e : 1 0 0\n"
    msg = _err(text)
    assert "wide" in msg or "line" in msg


def test_character_length_is_checked():
    msg = _err(GOOD + "character long mixed : 1 2\n")
    assert "long" in msg or "line" in msg


def test_character_must_kill_brackets():
    text = (
        "algebra s\nprime 3\n"
        "generator h even\ngenerator e even\ngenerator f even\n"
        "bracket h e : 0 2 0\nbracket h f : 0 0 -2\nbracket e f : 1 0 0\n"
        "pmap h : 1 0 0\n"
        "split borel : h e\n"
        "character bad borel : 0 1\n"
    )
    with pytest.raises(ValueError):
        parse_definition_text(text)


def test_character_must_be_restricted():
    # chi(h^[p]) = chi(0) = 0 but chi(h)^p = 1
    text = (
        "algebra line\nprime 3\n"
        "generator h even\n"
        "pmap h : 0\n"
        "split s : h\n"
        "character chi s : {}\n"
    )
    assert "character 'chi' is not restricted" in _err(text.format(1))
    assert parse_definition_text(text.format(0)).characters["chi"].values == (0,)
    # with h^[p] = h the character 1 is restricted
    restricted = text.replace("pmap h : 0", "pmap h : 1").format(1)
    assert parse_definition_text(restricted).characters["chi"].values == (1,)


def test_algebra_axioms_checked_at_parse_time():
    # so(3) relations with the default zero p-map violate (ad x)^p = ad(x^[p])
    text = (
        "algebra so3\nprime 3\n"
        "generator x even\ngenerator y even\ngenerator z even\n"
        "bracket x y : 0 0 1\nbracket y z : 1 0 0\nbracket z x : 0 1 0\n"
    )
    assert "p-map" in _err(text)
    # a genuinely non-Jacobi table is refused with the witness triple
    text = (
        "algebra nj\nprime 3\n"
        "generator x even\ngenerator y even\ngenerator z even\n"
        "bracket x y : 0 0 1\nbracket y z : 1 0 0\nbracket x z : 1 0 0\n"
    )
    msg = _err(text)
    assert "jacobi" in msg and "b_" in msg


def test_representation_axioms_checked_at_parse_time():
    text = GOOD + "representation bad mixed 1\nrepbasis bad : 0\nrepaction bad e : 1\n"
    # [e, e] = 0 but a 1x1 nonzero even action still obeys brackets; force a
    # p-power failure instead: e^[3] = 0 yet the action cubes to itself
    msg = _err(text)
    assert "bad" in msg


DUPLICATES = [
    (["algebra twoline"], "duplicate algebra statement"),
    (["prime 3"], "duplicate prime statement"),
    (["generator e even"], "duplicate generator 'e'"),
    (["bracket e e : 0 0"] * 2, "duplicate bracket for e e"),
    (["pmap e : 0 0"] * 2, "duplicate pmap for e"),
    (["split zero :"], "duplicate split 'zero'"),
    (["representation triv zero 1"], "duplicate representation 'triv'"),
    (["repbasis triv : 1"], "duplicate repbasis for 'triv'"),
    (["repaction etriv e : 0"], "duplicate repaction for e"),
    (["character null mixed : 0"], "duplicate character 'null'"),
]


@pytest.mark.parametrize(
    "lines, message", DUPLICATES, ids=[lines[0].split()[0] for lines, _ in DUPLICATES]
)
def test_every_statement_kind_refuses_a_duplicate(lines, message):
    # the duplicate is the last line; a second statement never replaces the first
    text = GOOD + "\n".join(lines) + "\n"
    assert _err(text) == f"line {len(text.splitlines())}: {message}"


def test_rejects_primes_past_the_int64_exact_bound():
    assert "int64-exact" in _err("algebra a\nprime 4294967311\ngenerator e even\n")
    # a huge prime is refused before any primality test could hang on it
    assert "int64-exact" in _err(f"algebra a\nprime {2**89 - 1}\ngenerator e even\n")


def test_prime_bound_follows_the_largest_inner_dimension():
    p = 3037000493  # the largest prime with (p-1)^2 < 2^63
    bundle = parse_definition_text(f"algebra a\nprime {p}\ngenerator e even\npmap e : 1\n")
    assert bundle.algebra.p == p
    # a 2-dimensional representation needs 2 (p-1)^2 < 2^63
    msg = _err(
        f"algebra a\nprime {p}\ngenerator e even\nsplit zero :\n"
        "representation pair zero 2\nrepbasis pair : 0 1\n"
    )
    assert "int64-exact" in msg
