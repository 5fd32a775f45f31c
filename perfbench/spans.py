"""In-memory span recorder for the traced benchmark run.

The recorder wraps public functions of the measured slopelab modules from
outside the package.  Every call made while an item is being traced becomes
one span: function id, parent span, start and end time.  Spans live in flat
arrays until the run ends; ``dump`` writes them out and ``summary`` turns
them into per-function and per-module counts and self times.

A function reached through a ``from .x import name`` binding is rebound
too (``lattice.compare`` next to ``exactnum.compare``), and so are calls a
module makes to its own functions, since those resolve through the module
globals that the recorder replaces.  Time spent in code that is not wrapped
(private helpers, methods of the value classes, the utilities in HELPERS)
counts as self time of the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from array import array
from typing import Callable, Dict, List, Optional

MODULES = ("exactnum", "linalg", "lattice", "filtration", "gitstab", "harness")

# Entry-wise matrix and string utilities are not spans: their time belongs to
# the algorithm that calls them, so that for example the Gram recomputation
# gram_lll does through mat_vec shows as gram_lll self time.
HELPERS = frozenset((
    "linalg.frac_rows", "linalg.identity", "linalg.zeros", "linalg.transpose",
    "linalg.mat_mul", "linalg.mat_vec", "linalg.vec_dot", "linalg.mat_eq",
    "linalg.k_subsets", "linalg.submatrix", "linalg.kron", "linalg.int_rows",
    "linalg.is_symmetric", "exactnum.rat_from_str", "exactnum.rat_to_str",
))

# Report rendering is part of the verify_campaigns item and of harness time.
METHODS = (("harness", "TrialReport", "to_json"), ("harness", "TrialReport", "csv_text"))

CAMPAIGNS = (
    "check_main_theorem",
    "check_bost_kunnemann",
    "check_slope_inequalities",
    "check_bogomolov_campaign",
    "check_reduction_chain",
)

ROOT = "bench.item"


class SpanRecorder:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.active = False
        self.vectors = 0
        self.solve_useful = 0
        self.trials = 0
        self._undo: List[tuple] = []
        self._thread = threading.get_ident()
        self._root = self._wrap(ROOT, lambda fn, x: fn(x))

    def _wrap(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        fid = len(self.names)
        self.names.append(name)
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        clock = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            idx = len(fids)
            fids.append(fid)
            parents.append(rec.current)
            ends.append(0.0)
            prev = rec.current
            rec.current = idx
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                rec.current = prev
            if on_result is not None:
                on_result(prev, args, result)
            return result

        return wrapper

    # -- counters measured at the call boundary --------------------------

    def _count_vectors(self, _parent, _args, result) -> None:
        self.vectors += len(result)

    def _count_solve(self, parent, args, result) -> None:
        # Runs only after a non-singular solve; attempts are counted from the
        # spans.  Useful: the subset's affine coefficients are nonnegative.
        if parent >= 0 and self.names[self.fid[parent]].startswith("gitstab."):
            if all(a >= 0 for a in result[: len(args[1]) - 1]):
                self.solve_useful += 1

    def _count_trials(self, _parent, _args, result) -> None:
        self.trials += len(result.outcomes)

    # -- installation ----------------------------------------------------

    def install(self, package) -> None:
        """Replace the public functions of the measured modules, and every
        binding of them in any loaded slopelab module, with recording
        wrappers."""
        hooks = {
            "linalg.short_vectors_gram": self._count_vectors,
            "linalg.solve_square": self._count_solve,
        }
        for name in CAMPAIGNS:
            hooks["harness." + name] = self._count_trials
        replaced: Dict[int, Callable] = {}
        for short in MODULES:
            mod = sys.modules[package + "." + short]
            for name, obj in sorted(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                full = short + "." + name
                if full in HELPERS:
                    continue
                replaced[id(obj)] = self._wrap(full, obj, hooks.get(full))
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for name, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, wrapper)
        for short, cls_name, meth in METHODS:
            cls = getattr(sys.modules[package + "." + short], cls_name)
            original = cls.__dict__[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, self._wrap("%s.%s.%s" % (short, cls_name, meth), original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def run_item(self, fn: Callable, x):
        """Run one item as a root span; package calls inside it are traced."""
        if threading.get_ident() != self._thread:
            raise RuntimeError("the span recorder is single-threaded")
        self.active = True
        try:
            return self._root(fn, x)
        finally:
            self.active = False

    # -- output ----------------------------------------------------------

    def dump(self, path_prefix: str) -> None:
        """Write the spans: a JSON header and the four columns as raw
        native-endian arrays (int32 fid, int32 parent, float64 start, end)."""
        header = {
            "names": self.names,
            "count": len(self.fid),
            "columns": [["fid", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]],
            "clock": "time.perf_counter, seconds",
        }
        with open(path_prefix + ".json", "w") as handle:
            json.dump(header, handle)
        with open(path_prefix + ".bin", "wb") as handle:
            for column in (self.fid, self.parent, self.start, self.end):
                column.tofile(handle)

    def summary(self) -> dict:
        """Per-function calls, total and self time; per-module self time;
        ancestry-based counts."""
        n = len(self.fid)
        nfun = len(self.names)
        calls = [0] * nfun
        total = [0.0] * nfun
        child = [0.0] * n
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        for i in range(n):
            d = ends[i] - starts[i]
            f = fids[i]
            calls[f] += 1
            total[f] += d
            p = parents[i]
            if p >= 0:
                child[p] += d
        self_t = [0.0] * nfun
        for i in range(n):
            self_t[fids[i]] += ends[i] - starts[i] - child[i]
        functions = {}
        modules: Dict[str, float] = {}
        for f, name in enumerate(self.names):
            functions[name] = {"calls": calls[f], "total_s": total[f], "self_s": self_t[f]}
            module = name.split(".", 1)[0]
            modules[module] = modules.get(module, 0.0) + self_t[f]
        fid_of = {name: f for f, name in enumerate(self.names)}
        sp = fid_of.get("filtration.scalar_product", -1)
        rref = fid_of.get("linalg.rref", -1)
        solve = fid_of.get("linalg.solve_square", -1)
        rref_in_sp = 0
        attempts = 0
        for i in range(n):
            f = fids[i]
            if f == rref:
                p = parents[i]
                while p >= 0 and fids[p] != sp:
                    p = parents[p]
                rref_in_sp += p >= 0
            elif f == solve:
                p = parents[i]
                attempts += p >= 0 and self.names[fids[p]].startswith("gitstab.")
        return {
            "spans": n,
            "functions": functions,
            "modules": modules,
            "root_s": total[fid_of[ROOT]],
            "rref_in_scalar_product": rref_in_sp,
            "solve_attempts": attempts,
            "solve_useful": self.solve_useful,
            "vectors": self.vectors,
            "trials": self.trials,
        }
