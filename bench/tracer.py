"""Outside-in tracer and work counters, installed on the package from outside.

Nothing under ``src/`` knows about them.  Methods are wrapped on their class;
a module-level function is wrapped in *every* ``superpbw`` module namespace
that holds it, because ``from .pbw import normal_order_split`` copies the
name into ``modules``, ``duality`` and ``checks``.  ``uninstall`` restores
the originals; a listed function that no longer exists is recorded as absent.

``Tracer`` records spans only: each call to a function of ``SPANNED`` appends
(name id, start, end, parent span id) to flat in-memory arrays, written out
when the run ends.  ``Counters`` records work counters only, with no clock, in
a separate pass, so that counting does not inflate the self time of the
spans.  The counters depend only on the calls made and repeat exactly at a
fixed seed:

* ``<name>.misses`` for the memoized ``PBWEngine`` methods: distinct argument
  keys per engine, i.e. the calls that had to compute;
* ``pbw.mul_letter.max_word``: the longest word a ``mul_letter`` miss
  straightens (the letters of the monomial plus the appended one);
* ``linalg.rref.cells``: rows x cols summed over every ``rref`` call;
* ``fp.field_ops``: calls to ``PrimeField`` arithmetic.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# metric name -> (module, attribute path); the metric names follow the layer
# (module) names of src/superpbw.
SPANNED = {
    "pbw.mul_letter": ("pbw", "PBWEngine.mul_letter"),
    "pbw.mul_mono": ("pbw", "PBWEngine.mul_mono"),
    "pbw.UElement.mul": ("pbw", "UElement.__mul__"),
    "pbw.normal_order_split": ("pbw", "normal_order_split"),
    "pbw.reorder_from_identity": ("pbw", "PBWEngine.reorder_from_identity"),
    "pbw.straighten_word": ("pbw", "PBWEngine.straighten_word"),
    "pbw.antipode_mono": ("pbw", "PBWEngine.antipode_mono"),
    "pbw.coproduct_mono": ("pbw", "PBWEngine.coproduct_mono"),
    "modules.CoordinateAlgebra.mul": ("modules", "CoordinateAlgebra.mul"),
    "modules.CoinducedModule.smul": ("modules", "CoinducedModule.smul"),
    "modules.CoinducedModule.action_matrix": ("modules", "CoinducedModule.action_matrix"),
    "modules.InducedModule.action_matrix": ("modules", "InducedModule.action_matrix"),
    "modules.Representation.h_monomial_matrix": ("modules", "Representation.h_monomial_matrix"),
    "modules.CoinducedModule.act": ("modules", "CoinducedModule.act"),
    "modules.CoinducedModule.pair_eval": ("modules", "CoinducedModule.pair_eval"),
    "linalg.SubspaceBasis.contains": ("linalg", "SubspaceBasis.contains"),
    "linalg.rref": ("linalg", "rref"),
    "linalg.nullspace": ("linalg", "nullspace"),
    "linalg.rank": ("linalg", "rank"),
    "duality.LevelEvaluator.eval": ("duality", "LevelEvaluator.eval"),
    "duality.socle_level": ("duality", "socle_level"),
    "duality.annihilator": ("duality", "annihilator"),
    "duality.ind_to_coind_map": ("duality", "ind_to_coind_map"),
    "berezin.berezinian_coinduced_check": ("berezin", "berezinian_coinduced_check"),
    "definitions.parse_definition_text": ("definitions", "parse_definition_text"),
    "algebra.LieSuperAlgebra.validate": ("algebra", "LieSuperAlgebra.validate"),
    "export.export_tables": ("export", "export_tables"),
}

# Memoized PBWEngine methods whose distinct argument keys are counted.
MEMOIZED = (
    "pbw.mul_letter",
    "pbw.mul_mono",
    "pbw.coproduct_mono",
    "pbw.antipode_mono",
    "pbw.reorder_from_identity",
)

FIELD_OPS = ("normalize", "add", "sub", "mul", "neg", "inv", "div", "factorial", "binomial")

# Layers whose self time is reported as a share of the cold pass.  A span's
# layer is the first part of its name; the root spans run.py opens around
# each run_checks call are named "run_checks.<check>", and their self time is
# the code no listed function covers, reported as layer "untraced".
LAYERS = (
    "linalg", "algebra", "pbw", "modules", "duality", "berezin", "export", "untraced",
)
ROOT_SPAN = "run_checks"


def layer_of(span_name: str) -> str:
    head = span_name.split(".", 1)[0]
    return "untraced" if head == ROOT_SPAN else head


def _resolve(module: str, path: str):
    """(owner, attribute, original) for a dotted path, or None if absent."""
    owner = importlib.import_module(f"superpbw.{module}")
    *heads, attr = path.split(".")
    for head in heads:
        owner = getattr(owner, head, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        original = owner.__dict__.get(attr)
    else:
        original = getattr(owner, attr, None)
    return None if original is None else (owner, attr, original)


class _Patcher:
    """Replaces package functions by wrappers and puts the originals back."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _targets(self):
        """Yield (name, module, attribute path, make_wrapper(name, original))."""
        raise NotImplementedError

    def install(self) -> None:
        for name, module, path, make in self._targets():
            found = _resolve(module, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, original = found
            self._patch(owner, attr, original, make(name, original))

    def _patch(self, owner, attr: str, original, replacement) -> None:
        if isinstance(owner, type):
            setattr(owner, attr, replacement)
            self._patches.append((owner, attr, original))
            return
        # a module-level function: rebind it wherever the package imported it
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "superpbw" or mod_name.startswith("superpbw."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, replacement)
                        self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class Tracer(_Patcher):
    """Span recorder; install(), run the workload, uninstall()."""

    def __init__(self) -> None:
        super().__init__()
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]

    def _targets(self):
        for name, (module, path) in SPANNED.items():
            yield name, module, path, self.wrap

    def wrap(self, name: str, fn):
        """``fn`` wrapped so that each call records one span named ``name``."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        add_name, add_parent = self.span_name.append, self.span_parent.append
        add_start, ends, add_end = self.span_start.append, self.span_end, self.span_end.append
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(ends)
            add_name(nid)
            add_parent(stack[-1])
            add_end(0.0)
            stack.append(sid)
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return wrapper

    def span_count(self) -> int:
        return len(self.span_name)

    def self_times(self, since: float = float("-inf")):
        """Per-name (calls, self seconds) over the spans started at ``since`` or later.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the code is single-threaded,
        so the children of a span in the window are in the window too.
        """
        start = np.frombuffer(self.span_start, dtype=np.float64)
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - start
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(name))
        keep = start >= since
        k = len(self.names)
        calls = np.bincount(name[keep], minlength=k)
        self_s = np.bincount(name[keep], weights=(dur - child)[keep], minlength=k)
        return {
            nm: (int(calls[i]), float(self_s[i])) for i, nm in enumerate(self.names)
        }

    def write(self, path) -> None:
        """Write every span (name id, parent id, start, end) and the name table."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


class Counters(_Patcher):
    """Work counters, no clock; install(), run the workload, uninstall()."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = dict.fromkeys(MEMOIZED, 0)
        self.misses = dict.fromkeys(MEMOIZED, 0)
        self.max_word = 0
        self.rref_cells = 0
        self.field_ops = 0

    def _targets(self):
        for name in MEMOIZED:
            yield (name, *SPANNED[name], self._count_keys)
        yield ("linalg.rref", *SPANNED["linalg.rref"], self._count_cells)
        for op in FIELD_OPS:
            yield f"fp.PrimeField.{op}", "fp", f"PrimeField.{op}", self._count_field_op

    def _count_keys(self, name: str, fn):
        seen: dict[int, tuple[object, set]] = {}

        @functools.wraps(fn)
        def wrapper(eng, *args, **kwargs):
            self.calls[name] += 1
            slot = seen.get(id(eng))
            if slot is None:
                slot = seen[id(eng)] = (eng, set())  # keep eng alive: ids stay unique
            key = (args, tuple(sorted(kwargs.items())))
            if key not in slot[1]:
                slot[1].add(key)
                self.misses[name] += 1
                if name == "pbw.mul_letter":
                    self.max_word = max(self.max_word, sum(args[0]) + 1)
            return fn(eng, *args, **kwargs)

        return wrapper

    def _count_cells(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            shape = np.shape(args[0])
            if len(shape) == 2:
                self.rref_cells += shape[0] * shape[1]
            return fn(*args, **kwargs)

        return wrapper

    def _count_field_op(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.field_ops += 1
            return fn(*args, **kwargs)

        return wrapper
