"""Layer spans recorded from outside the package.

``Tracer.install`` wraps the public functions and public methods of each
k3cone module (the layers) and rebinds every name that refers to them, in
the module that defines them and in every module that imported them: a
wrapper only on ``k3cone.enumeration`` would miss the calls ``weyl`` makes
through its own ``roots_up_to_degree`` binding.  ``uninstall`` puts the
originals back.

A span is recorded when a call enters a layer from another layer or from the
benchmark; calls inside one layer only feed the counters.  Each span has a
name, start, end, parent span and operation id.  Spans are kept in memory in
flat arrays and written out once, when the run ends.  A layer's self time is
the duration of its spans minus the time their child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = (
    "enumeration", "cones", "weyl", "sterk", "groups", "orbits",
    "problem", "report", "cli", "lattice", "linalg",
)
BENCH = -1  # layer id of the benchmark's own code, at the bottom of the stack
SPAN_FIELDS = ("name", "start", "end", "parent", "op")


def _args(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


class Tracer:
    """Spans and counters for one process; at most one installed at a time."""

    def __init__(self):
        self.op = -1  # operation id stamped on new spans; -1 is set-up
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        # stack frames: [layer, span index, child time]
        self.stack = [[BENCH, -1, 0.0]]
        self.self_s = Counter()
        self.entered = Counter()
        self.counts = Counter()
        self._seen_queries: set = set()
        self._restore: list = []

    # ------------------------------------------------------------ wrapping

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, layer_id: int, qualname: str, fn, hook=None):
        tracer = self
        name_id = self._name_id(qualname)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack[-1][0] == layer_id:
                result = fn(*args, **kwargs)
            else:
                index = len(tracer.span_name)
                tracer.span_name.append(name_id)
                tracer.span_parent.append(stack[-1][1])
                tracer.span_op.append(tracer.op)
                tracer.span_end.append(0.0)
                frame = [layer_id, index, 0.0]
                stack.append(frame)
                start = clock()
                tracer.span_start.append(start)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    tracer.span_end[index] = end
                    duration = end - start
                    tracer.self_s[layer_id] += duration - frame[2]
                    tracer.entered[layer_id] += 1
                    stack[-1][2] += duration
            if hook is not None:
                hook(fn, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self) -> None:
        modules = {name: importlib.import_module(f"k3cone.{name}") for name in LAYERS}
        everywhere = [m for n, m in sys.modules.items() if n == "k3cone" or n.startswith("k3cone.")]
        hooks = self._hooks()
        for layer_id, layer in enumerate(LAYERS):
            mod = modules[layer]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") and f"{layer}.{name}" not in hooks:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    qual = f"{layer}.{name}"
                    wrapped = self._wrap(layer_id, qual, obj, hooks.get(qual))
                    for other in everywhere:
                        for key, value in list(vars(other).items()):
                            if value is obj:
                                self._restore.append((other, key, obj))
                                setattr(other, key, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    for attr, member in list(vars(obj).items()):
                        if attr.startswith("_") and attr != "__matmul__":
                            continue
                        if not inspect.isfunction(member):
                            continue
                        qual = f"{layer}.{name}.{member.__name__}"
                        wrapped = self._wrap(layer_id, qual, member, hooks.get(qual))
                        self._restore.append((obj, attr, member))
                        setattr(obj, attr, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # ------------------------------------------------------------ counters

    def _hooks(self):
        counts = self.counts

        def classes(fn, args, kwargs, result):
            a = _args(fn, args, kwargs)
            lat = a["lat"]
            key = (self.op, lat.gram, tuple(a["ample"]), a["norm"], a["bound"],
                   a.get("primitive_only", False))
            counts["enumeration.queries"] += 1
            if key in self._seen_queries:
                counts["enumeration.repeats"] += 1
            self._seen_queries.add(key)
            counts["enumeration.degrees_scanned"] += a["bound"]
            counts["enumeration.vectors_returned"] += len(result)

        def cone(fn, args, kwargs, result):
            counts["cones.normals_in"] += len(list(_args(fn, args, kwargs)["normals"]))
            counts["cones.facets_out"] += len(result.normals)

        parse = self._name_id("problem.parse_problem")

        def nef_walls(fn, args, kwargs, result):
            if any(self.span_name[frame[1]] == parse for frame in self.stack[1:]):
                counts["problem.nef_walls_calls"] += 1

        def reduce(fn, args, kwargs, result):
            counts["sterk.reductions"] += 1
            if self.stack[-1][0] == LAYERS.index("orbits"):
                counts["orbits.classes_reduced"] += 1

        def merge(fn, args, kwargs, result):
            n = len(_args(fn, args, kwargs)["reduced"])
            counts["orbits.merge_pairs"] += n * (n - 1) // 2

        def tally(key, size=None):
            def hook(fn, args, kwargs, result):
                counts[key] += 1 if size is None else size(result)
            return hook

        return {
            "enumeration.classes_up_to_degree": classes,
            "cones.cone_from_inequalities": cone,
            "weyl.nef_test": tally("weyl.nef_tests"),
            "weyl.walk_to_nef": tally("weyl.walk_steps", lambda r: len(r[1])),
            "weyl.nef_walls": nef_walls,
            "sterk.orbit_of_ample": tally("sterk.orbit_points", len),
            "sterk.reduce_to_domain": reduce,
            "sterk.group_words": tally("sterk.translates", len),
            "groups.orbit_descend": tally("groups.descend_steps", lambda r: len(r[1])),
            "orbits._merge_classes": merge,
            "lattice.Lattice.pairing": tally("lattice.pairings"),
        }

    # ------------------------------------------------------------ results

    def reset_figures(self) -> None:
        """Zero the per-layer figures (not the spans): set-up ends here."""
        self.self_s.clear()
        self.entered.clear()
        self.counts.clear()
        self._seen_queries.clear()

    def layer_metrics(self) -> dict:
        """Per-layer figures: self seconds, span counts and the counters."""
        out = {}
        for layer_id, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = self.self_s[layer_id]
            out[f"{layer}.spans"] = self.entered[layer_id]
        out.update(self.counts)
        return out

    def state(self) -> dict:
        """Everything another process needs to merge this trace."""
        return {
            "names": self.names,
            "spans": {f: getattr(self, f"span_{f}").tolist() for f in SPAN_FIELDS},
            "layers": self.layer_metrics(),
        }


def write_spans(path: Path, traces) -> None:
    """Write the spans of one run as JSON.

    ``traces`` is a list of (operation id, tracer state).  The id is None for
    the run's own tracer, whose spans carry the ids it stamped, and the
    operation's index for a traced command process, all of whose spans
    belong to that operation.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    processes = []
    for op, state in traces:
        columns = state["spans"]
        if op is not None:
            columns = dict(columns, op=[op] * len(columns["op"]))
        processes.append({"names": state["names"], "columns": columns})
    with open(path, "w") as fh:
        json.dump({"fields": SPAN_FIELDS, "processes": processes}, fh, separators=(",", ":"))
