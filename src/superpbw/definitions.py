"""Line-oriented definition files for algebras, splits, representations.

The format is flat text; '#' starts a comment, blank lines are skipped.
Statements:

    algebra NAME
    prime P
    generator NAME even|odd
    bracket G1 G2 : c1 c2 ... cN
    pmap G : c1 c2 ... cN
    split NAME : G1 G2 ...
    representation RNAME SPLITNAME DIM
    repbasis RNAME : q1 ... qDIM
    repaction RNAME G : a11 a12 ... (row major, DIM*DIM entries)
    character CNAME SPLITNAME : v1 ... (one per subalgebra generator,
                                        in ambient generator order)

Generators must be declared before anything refers to them; bracket and
pmap coordinate vectors run over all generators in declaration order.
Integers may be negative; they are reduced modulo the prime.  Omitted
repaction lines default to the zero matrix.
"""

from __future__ import annotations

import numpy as np

from .algebra import Character, LieSuperAlgebra, SubalgebraSplit
from .linalg import require_int64_exact
from .modules import Representation


class DefinitionError(ValueError):
    def __init__(self, lineno, message) -> None:
        where = f"line {lineno}: " if lineno else ""
        super().__init__(f"{where}{message}")
        self.lineno = lineno


class AlgebraBundle:
    """A parsed definition: the algebra plus named splits, reps, characters."""

    def __init__(self, algebra, splits, representations, characters) -> None:
        self.algebra = algebra
        self.splits: dict[str, SubalgebraSplit] = splits
        self.representations: dict[str, Representation] = representations
        self.characters: dict[str, Character] = characters

    def instances(self):
        """Yield (split name, split, [(rep name, rep)]) for every split in
        name order, each with the representations over it in name order."""
        reps = sorted(self.representations.items())
        for sname, split in sorted(self.splits.items()):
            yield sname, split, [(rname, rep) for rname, rep in reps if rep.split is split]


def _split_colon(tokens, lineno):
    if ":" not in tokens:
        raise DefinitionError(lineno, "expected ':' in statement")
    at = tokens.index(":")
    return tokens[:at], tokens[at + 1 :]


def _ints(tokens, lineno):
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise DefinitionError(lineno, f"expected integers, got {' '.join(tokens)}") from None


def parse_definition_text(text: str) -> AlgebraBundle:
    name = None
    prime = None
    gen_names: list[str] = []
    gen_parities: list[int] = []
    brackets: dict[tuple[int, int], list[int]] = {}
    p_map: dict[int, list[int]] = {}
    splits_raw: dict[str, list[str]] = {}
    reps_raw: dict[str, dict] = {}
    chars_raw: dict[str, tuple[str, list[int]]] = {}

    def gen_index(tok, lineno):
        if tok not in gen_names:
            raise DefinitionError(lineno, f"unknown generator {tok!r}")
        return gen_names.index(tok)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kw = tokens[0]
        if kw == "algebra":
            if name is not None:
                raise DefinitionError(lineno, "duplicate algebra statement")
            if len(tokens) != 2:
                raise DefinitionError(lineno, "algebra takes one name")
            name = tokens[1]
        elif kw == "prime":
            if prime is not None:
                raise DefinitionError(lineno, "duplicate prime statement")
            prime = _ints(tokens[1:], lineno)
            if len(prime) != 1:
                raise DefinitionError(lineno, "prime takes one value")
            prime = prime[0]
        elif kw == "generator":
            if len(tokens) != 3 or tokens[2] not in ("even", "odd"):
                raise DefinitionError(lineno, "usage: generator NAME even|odd")
            if tokens[1] in gen_names:
                raise DefinitionError(lineno, f"duplicate generator {tokens[1]!r}")
            gen_names.append(tokens[1])
            gen_parities.append(0 if tokens[2] == "even" else 1)
        elif kw == "bracket":
            head, tail = _split_colon(tokens, lineno)
            if len(head) != 3:
                raise DefinitionError(lineno, "usage: bracket G1 G2 : coords")
            i, j = gen_index(head[1], lineno), gen_index(head[2], lineno)
            coords = _ints(tail, lineno)
            if len(coords) != len(gen_names):
                raise DefinitionError(lineno, f"expected {len(gen_names)} coordinates")
            if (i, j) in brackets:
                raise DefinitionError(lineno, f"duplicate bracket for {head[1]} {head[2]}")
            brackets[i, j] = coords
        elif kw == "pmap":
            head, tail = _split_colon(tokens, lineno)
            if len(head) != 2:
                raise DefinitionError(lineno, "usage: pmap G : coords")
            i = gen_index(head[1], lineno)
            coords = _ints(tail, lineno)
            if len(coords) != len(gen_names):
                raise DefinitionError(lineno, f"expected {len(gen_names)} coordinates")
            if i in p_map:
                raise DefinitionError(lineno, f"duplicate pmap for {head[1]}")
            p_map[i] = coords
        elif kw == "split":
            head, tail = _split_colon(tokens, lineno)
            if len(head) != 2:
                raise DefinitionError(lineno, "usage: split NAME : generators")
            if head[1] in splits_raw:
                raise DefinitionError(lineno, f"duplicate split {head[1]!r}")
            for t in tail:
                gen_index(t, lineno)
            splits_raw[head[1]] = list(tail)
        elif kw == "representation":
            if len(tokens) != 4:
                raise DefinitionError(lineno, "usage: representation RNAME SPLITNAME DIM")
            rname, sname, dim = tokens[1], tokens[2], _ints(tokens[3:], lineno)[0]
            if rname in reps_raw:
                raise DefinitionError(lineno, f"duplicate representation {rname!r}")
            if sname not in splits_raw:
                raise DefinitionError(lineno, f"unknown split {sname!r}")
            if dim < 1:
                raise DefinitionError(lineno, "representation dimension must be positive")
            reps_raw[rname] = {"split": sname, "dim": dim, "parities": None, "actions": {}}
        elif kw == "repbasis":
            head, tail = _split_colon(tokens, lineno)
            if len(head) != 2 or head[1] not in reps_raw:
                raise DefinitionError(lineno, "repbasis needs a declared representation")
            entry = reps_raw[head[1]]
            if entry["parities"] is not None:
                raise DefinitionError(lineno, f"duplicate repbasis for {head[1]!r}")
            qs = _ints(tail, lineno)
            if len(qs) != entry["dim"] or any(q not in (0, 1) for q in qs):
                raise DefinitionError(lineno, f"expected {entry['dim']} parities of 0 or 1")
            entry["parities"] = tuple(qs)
        elif kw == "repaction":
            head, tail = _split_colon(tokens, lineno)
            if len(head) != 3 or head[1] not in reps_raw:
                raise DefinitionError(lineno, "repaction needs a declared representation")
            entry = reps_raw[head[1]]
            g = gen_index(head[2], lineno)
            vals = _ints(tail, lineno)
            d = entry["dim"]
            if len(vals) != d * d:
                raise DefinitionError(lineno, f"expected {d * d} entries")
            if g in entry["actions"]:
                raise DefinitionError(lineno, f"duplicate repaction for {head[2]}")
            entry["actions"][g] = np.array(vals, dtype=np.int64).reshape(d, d)
        elif kw == "character":
            head, tail = _split_colon(tokens, lineno)
            if len(head) != 3:
                raise DefinitionError(lineno, "usage: character CNAME SPLITNAME : values")
            cname, sname = head[1], head[2]
            if cname in chars_raw:
                raise DefinitionError(lineno, f"duplicate character {cname!r}")
            if sname not in splits_raw:
                raise DefinitionError(lineno, f"unknown split {sname!r}")
            chars_raw[cname] = (sname, _ints(tail, lineno))
        else:
            raise DefinitionError(lineno, f"unknown keyword {kw!r}")

    if name is None:
        raise DefinitionError(0, "missing algebra statement")
    if prime is None:
        raise DefinitionError(0, "missing prime statement")
    if not gen_names:
        raise DefinitionError(0, "no generators declared")

    try:
        # before the primality test: trial division would hang on a huge prime
        require_int64_exact(prime, max([len(gen_names)] + [r["dim"] for r in reps_raw.values()]))
        algebra = LieSuperAlgebra(
            prime,
            gen_names,
            gen_parities,
            {k: tuple(v) for k, v in brackets.items()},
            {k: tuple(v) for k, v in p_map.items()},
            name=name,
        )
        splits = {
            sname: SubalgebraSplit(algebra, [gen_names.index(g) for g in gens], name=sname)
            for sname, gens in splits_raw.items()
        }
        representations = {}
        for rname, entry in reps_raw.items():
            if entry["parities"] is None:
                raise DefinitionError(0, f"representation {rname!r} has no repbasis")
            split = splits[entry["split"]]
            d = entry["dim"]
            mats = {
                h: entry["actions"].get(h, np.zeros((d, d), dtype=np.int64))
                for h in split.h_indices
            }
            for g in entry["actions"]:
                if g not in split.h_indices:
                    raise DefinitionError(
                        0, f"representation {rname!r} acts by a non-subalgebra generator"
                    )
            representations[rname] = Representation(split, entry["parities"], mats, name=rname)
        characters = {}
        for cname, (sname, values) in chars_raw.items():
            split = splits[sname]
            if len(values) != len(split.h_indices):
                raise DefinitionError(
                    0, f"character {cname!r} needs {len(split.h_indices)} values"
                )
            characters[cname] = Character(split, values, name=cname)
    except DefinitionError:
        raise
    except (ValueError, KeyError) as exc:
        raise DefinitionError(0, str(exc)) from exc

    for prop, (ok, msg) in algebra.validate().items():
        if not ok:
            raise DefinitionError(0, f"algebra violates {prop}: {msg}")
    for rname, rep in representations.items():
        for prop, (ok, msg) in rep.validate().items():
            if not ok:
                raise DefinitionError(
                    0, f"representation {rname!r} violates {prop}: {msg}"
                )
    for cname, chi in characters.items():
        if not chi.is_restricted():
            raise DefinitionError(0, f"character {cname!r} is not restricted")

    return AlgebraBundle(algebra, splits, representations, characters)


def load_definition(path) -> AlgebraBundle:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_definition_text(fh.read())


def serialize_definition(bundle: AlgebraBundle) -> str:
    alg = bundle.algebra
    lines = [f"algebra {alg.name}", f"prime {alg.p}"]
    for gname, q in zip(alg.names, alg.parities):
        lines.append(f"generator {gname} {'odd' if q else 'even'}")
    for i in range(alg.dim):
        for j in range(i, alg.dim):
            coords = alg.bracket_coords(i, j)
            if any(coords):
                body = " ".join(str(c) for c in coords)
                lines.append(f"bracket {alg.names[i]} {alg.names[j]} : {body}")
    for i in alg.even_indices:
        coords = alg.p_map[i]
        if any(coords):
            body = " ".join(str(c) for c in coords)
            lines.append(f"pmap {alg.names[i]} : {body}")
    split_names = {}
    for sname, split in bundle.splits.items():
        split_names[id(split)] = sname
        gens = " ".join(alg.names[i] for i in split.h_indices)
        lines.append(f"split {sname} :{' ' + gens if gens else ''}")
    for rname, rep in bundle.representations.items():
        lines.append(f"representation {rname} {split_names[id(rep.split)]} {rep.dim}")
        lines.append(f"repbasis {rname} : {' '.join(str(q) for q in rep.parities)}")
        for h in rep.split.h_indices:
            body = " ".join(str(int(v)) for v in rep.matrices[h].ravel())
            lines.append(f"repaction {rname} {alg.names[h]} : {body}")
    for cname, chi in bundle.characters.items():
        body = " ".join(str(v) for v in chi.values)
        lines.append(f"character {cname} {split_names[id(chi.split)]} : {body}")
    return "\n".join(lines) + "\n"
