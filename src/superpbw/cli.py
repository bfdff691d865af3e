"""Command line front end: validate, check, catalog, export.

File arguments take a path, a built-in catalog name, or '-' for standard
input.  The SUPERPBW_MAX_PRIME environment variable, when set, rejects
definitions over larger primes once the definition is parsed and validated,
before any check or export runs.  Exit codes: 0 all selected checks
passed, 1 at least one failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .catalog import CATALOG, catalog_names, load_bundle
from .checks import CheckOptions, all_passed, check_names, run_checks
from .definitions import DefinitionError, parse_definition_text, serialize_definition
from .export import TABLE_NAMES, export_tables

PRIME_CAP_VAR = "SUPERPBW_MAX_PRIME"


def _read_source(file_arg: str) -> str:
    if file_arg == "-":
        return sys.stdin.read()
    if os.path.exists(file_arg):
        try:
            with open(file_arg, "r", encoding="utf-8") as fh:
                return fh.read()
        except OSError as exc:
            raise DefinitionError(0, f"cannot read {file_arg}: {exc.strerror}")
    if file_arg in CATALOG:
        return CATALOG[file_arg]
    raise DefinitionError(0, f"no such file or catalog entry: {file_arg}")


def _load(file_arg: str):
    bundle = parse_definition_text(_read_source(file_arg))
    cap = os.environ.get(PRIME_CAP_VAR)
    if cap is not None:
        try:
            cap_value = int(cap)
        except ValueError:
            raise DefinitionError(0, f"{PRIME_CAP_VAR} must be an integer, got {cap!r}")
        if bundle.algebra.p > cap_value:
            raise DefinitionError(
                0,
                f"prime {bundle.algebra.p} exceeds the {PRIME_CAP_VAR} cap {cap_value}",
            )
    return bundle


def _cmd_validate(args) -> int:
    bundle = _load(args.file)
    alg = bundle.algebra
    print(
        f"ok: algebra {alg.name}, prime {alg.p}, dimension {alg.dim}, "
        f"{len(bundle.splits)} splits, {len(bundle.representations)} representations, "
        f"{len(bundle.characters)} characters"
    )
    return 0


def _cmd_check(args) -> int:
    bundle = _load(args.file)
    only = None
    if args.only:
        only = [name for chunk in args.only for name in chunk.split(",") if name]
    try:
        reports = run_checks(
            bundle,
            only=only,
            seed=args.seed,
            level=args.level,
            samples=args.samples,
            engine_cases=args.engine_cases,
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        print(f"known checks: {', '.join(check_names())}", file=sys.stderr)
        return 2
    if args.format == "json":
        doc = {
            "algebra": bundle.algebra.name,
            "level": args.level,
            "seed": args.seed,
            "reports": [r.machine_form() for r in reports],
            "version": __version__,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for r in reports:
            instance = " ".join(t for t in (r.algebra, r.split, r.representation) if t)
            note = r.witness if r.status == "fail" else r.details
            print(
                f"{r.status.upper():7s} {r.check:18s} {instance:28s} "
                f"{r.seconds:7.3f}s  {note}"
            )
        counts = {"pass": 0, "fail": 0, "skipped": 0}
        for r in reports:
            counts[r.status] += 1
        print(
            f"{counts['pass']} passed, {counts['fail']} failed, "
            f"{counts['skipped']} skipped"
        )
    return 0 if all_passed(reports) else 1


def _cmd_catalog(args) -> int:
    if args.dump:
        if args.dump not in CATALOG:
            print(f"error: no catalog entry {args.dump!r}", file=sys.stderr)
            return 2
        sys.stdout.write(serialize_definition(load_bundle(args.dump)))
        return 0
    for name in catalog_names():
        bundle = load_bundle(name)
        print(
            f"{name:16s} prime {bundle.algebra.p}  dimension {bundle.algebra.dim}  "
            f"splits {', '.join(sorted(bundle.splits))}"
        )
    return 0


def _cmd_export(args) -> int:
    bundle = _load(args.file)
    sys.stdout.write(export_tables(bundle, args.what))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="superpbw",
        description="Exact checks for duality of induced and coinduced "
        "representations of restricted Lie superalgebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="parse a definition and report its shape")
    p_validate.add_argument("file", help="path, catalog name, or - for stdin")

    p_check = sub.add_parser("check", help="run theorem checks on a definition")
    p_check.add_argument("file", help="path, catalog name, or - for stdin")
    p_check.add_argument(
        "--only",
        action="append",
        metavar="NAMES",
        help="comma separated check names (repeatable)",
    )
    defaults = CheckOptions()
    p_check.add_argument(
        "--seed", type=int, default=defaults.seed, help="seed for sampled checks"
    )
    p_check.add_argument(
        "--level", type=int, default=defaults.level, help="filtration level for level-r checks"
    )
    p_check.add_argument(
        "--samples", type=int, default=defaults.samples, help="sample count per sampled check"
    )
    p_check.add_argument(
        "--engine-cases",
        type=int,
        default=defaults.engine_cases,
        help=(
            "cases of the engine's one sampled property, associativity in "
            "U(g); the product of every restricted engine, the coproduct and "
            "the antipode are certified on every monomial"
        ),
    )
    p_check.add_argument(
        "--format", choices=("text", "json"), default="text", help="report form"
    )

    p_catalog = sub.add_parser("catalog", help="list or dump the built-in examples")
    p_catalog.add_argument("--dump", metavar="NAME", help="print one entry as a definition file")

    p_export = sub.add_parser("export", help="print a deterministic table")
    p_export.add_argument("file", help="path, catalog name, or - for stdin")
    p_export.add_argument("--what", required=True, choices=TABLE_NAMES)

    args = parser.parse_args(argv)
    handler = {
        "validate": _cmd_validate,
        "check": _cmd_check,
        "catalog": _cmd_catalog,
        "export": _cmd_export,
    }[args.command]
    try:
        return handler(args)
    except DefinitionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
