"""In-memory spans around hqrsim's public functions, installed from outside.

`Tracer.install` wraps every public function of the eight hqrsim modules
and rebinds each name a module bound to it (so `rates.homodyne_report`,
`cli.predict` and `coherent.norm_constants` as called from
`ring_to_orthonormal` are all traced), plus `DensityMatrix` construction,
scipy's `quad` as bound in `detection`, and the window cross integral.
Nothing under `src/` changes; `uninstall` restores every binding.

Each call records a span: id, parent span, operation, name, start, end.
Self time is the span's duration minus the time covered by its child
spans. Statistics accumulate per (operation, name) while the spans
themselves are kept only when asked for, because a detection-heavy block
makes hundreds of thousands of them.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array

MODULES = ("cli", "coherent", "states", "numerics", "detection", "logic", "rates", "tables")
# callables outside the modules' __all__ that per-layer metrics need:
# (module, attribute, span name)
EXTRA = (("detection", "quad", "detection.quad"),
         ("detection", "_window_cross_integral", "detection.cross_integral"))
CLASS_INITS = (("numerics", "DensityMatrix"),)


class Tracer:
    def __init__(self):
        self.op = -1  # operation the next spans belong to
        self.keep_spans = False
        self.stats: dict[tuple[int, str], list] = {}  # (op, name) -> [calls, self_s, total_s]
        self.names: list[str] = []
        self.spans = {k: array(t) for k, t in
                      (("id", "q"), ("parent", "q"), ("op", "q"), ("name", "i"),
                       ("start", "d"), ("end", "d"))}
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        if name not in self.names:
            self.names.append(name)
        name_idx = self.names.index(name)

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                key = (self.op, name)
                entry = self.stats.get(key)
                if entry is None:
                    entry = self.stats[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dur - frame[1]
                entry[2] += dur
                if self.keep_spans:
                    s = self.spans
                    s["id"].append(sid)
                    s["parent"].append(-1 if parent is None else parent[0])
                    s["op"].append(self.op)
                    s["name"].append(name_idx)
                    s["start"].append(t0)
                    s["end"].append(t1)

        return traced

    def install(self):
        mods = {short: importlib.import_module(f"hqrsim.{short}") for short in MODULES}
        wrappers = {}  # id(original) -> (original, wrapper)
        for short, mod in mods.items():
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for short, attr, name in EXTRA:
            obj = getattr(mods[short], attr, None)
            if callable(obj):
                wrappers[id(obj)] = (obj, self._wrap(name, obj))
        for mod in [importlib.import_module("hqrsim"), *mods.values()]:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        for short, cls_name in CLASS_INITS:
            cls = getattr(mods[short], cls_name)
            self._patch(cls, "__init__", self._wrap(f"{short}.{cls_name}", cls.__init__))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take_stats(self) -> dict:
        stats, self.stats = self.stats, {}
        return stats

    def spans_doc(self) -> dict:
        """Kept spans as columns; times are perf_counter seconds."""
        doc = {k: v.tolist() for k, v in self.spans.items()}
        doc["names"] = self.names
        return doc


def stats_to_json(stats: dict) -> list:
    return [[op, name, *entry] for (op, name), entry in stats.items()]


def stats_from_json(rows: list) -> dict:
    return {(op, name): [calls, self_s, total_s] for op, name, calls, self_s, total_s in rows}


def import_times(stderr: str) -> dict[str, float]:
    """Seconds spent importing numpy, scipy and hqrsim, from `-X importtime` lines.

    Each is the summed cumulative time of the package's outermost entries:
    a numpy submodule first imported by scipy counts for numpy too.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # the header line
        label = name[1:]
        depth = (len(label) - len(label.lstrip(" "))) // 2
        entries.append((depth, int(cumulative) * 1e-6, label.strip()))
    totals = {"numpy": 0.0, "scipy": 0.0, "hqrsim": 0.0}
    ancestors: list[str] = []
    # -X importtime prints children before their parent; walk it parent-first
    for depth, seconds, name in reversed(entries):
        del ancestors[depth:]
        package = name.split(".")[0]
        if package in totals and not any(a.split(".")[0] == package for a in ancestors):
            totals[package] += seconds
        ancestors.append(name)
    return totals


def dump_child(path: str, tracer: Tracer):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"stats": stats_to_json(tracer.stats), "spans": tracer.spans_doc()}, fh)
