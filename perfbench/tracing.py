"""Spans around calls into povtrack's modules, recorded from outside.

``Tracer.install`` replaces each public function or method listed in
``TARGETS`` with a wrapper that times the call.  A module-level function
is replaced under every name that binds it in any ``povtrack`` module,
so that ``povtrack.engine.new_context`` (imported from ``situations``)
is wrapped as well as ``povtrack.situations.new_context``.
``Tracer.remove`` restores the originals.

Every call adds its duration to its caller's child time, so each
layer's self time is exact: the span's duration minus the time its
wrapped children took.  The calls at layer boundaries that happen a few
times per operation are also stored as spans (name, start, end, parent
span, run id) in flat arrays, in memory, until the run writes them out.
The per-sentence calls are counted and timed but not stored, except for
the durations of ``Engine.interpret``, kept for its percentiles.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

# (layer, module, owner within the module or None, attribute, kind).
# "span" calls are stored as spans and written out; "sample" calls keep
# their per-call durations in memory; "count" calls are only counted
# and timed.  The last two are the per-sentence calls.
TARGETS = (
    ("cli", "povtrack.cli", None, "main", "span"),
    ("corpus", "povtrack.corpus", None, "load_document", "span"),
    ("corpus", "povtrack.corpus", None, "parse_document", "span"),
    ("corpus", "povtrack.corpus", "json", "loads", "span"),
    ("corpus", "povtrack.corpus", None, "document_from_dict", "span"),
    ("corpus", "povtrack.corpus", None, "dumps_document", "span"),
    ("model", "povtrack.model", "FeatureSet", "main_clause", "count"),
    ("model", "povtrack.model", "FeatureSet", "soa_by_id", "count"),
    ("model", "povtrack.model", "FeatureSet", "clause_about", "count"),
    ("engine", "povtrack.engine", "Engine", "track_document", "span"),
    ("engine", "povtrack.engine", "Engine", "interpret", "sample"),
    ("engine", "povtrack.engine", "Engine", "choose_state_of_affairs",
     "count"),
    ("engine", "povtrack.engine", "Engine", "subjective_elements", "count"),
    ("engine", "povtrack.engine", "Engine", "advance_history", "count"),
    ("engine", "povtrack.engine", "SubjectiveHistory", "note_subjective",
     "count"),
    ("engine", "povtrack.engine", "SubjectiveHistory", "note_nonsubjective",
     "count"),
    ("situations", "povtrack.situations", None, "new_context", "count"),
    ("situations", "povtrack.situations", None, "new_context_after_break",
     "count"),
    ("evaluation", "povtrack.evaluation", None, "evaluate", "span"),
    ("evaluation", "povtrack.evaluation", None, "classify_operation",
     "count"),
    ("trace", "povtrack.trace", None, "render_step", "count"),
    ("trace", "povtrack.trace", None, "render_trace", "span"),
    ("trace", "povtrack.trace", None, "interpretation_line", "count"),
)

LAYERS = ("cli", "corpus", "model", "engine", "situations", "evaluation",
          "trace")


class _JsonProxy:
    """Stands in for the ``json`` module inside ``povtrack.corpus`` so
    that its ``json.loads`` calls can be wrapped without touching the
    real module."""

    def __init__(self, loads):
        self.loads = loads

    def __getattr__(self, name):
        return getattr(json, name)


class RunStats:
    """Counts, total time and self time per target for one run id."""

    def __init__(self, size: int):
        self.calls = [0] * size
        self.total = [0.0] * size
        self.self = [0.0] * size


class Tracer:
    def __init__(self):
        self.names = [f"{module.rsplit('.', 1)[1]}."
                      f"{owner + '.' if owner else ''}{attr}"
                      for _, module, owner, attr, _ in TARGETS]
        self.layer_of = {name: target[0]
                         for name, target in zip(self.names, TARGETS)}
        self.index = {name: i for i, name in enumerate(self.names)}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name_id = array("H")
        self.run_id = array("H")
        self.runs: list[RunStats] = []
        self.samples: dict[int, list[tuple[float, int]]] = {}
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------

    def begin_run(self) -> int:
        """Start a new run id; later calls are attributed to it."""
        self.runs.append(RunStats(len(self.names)))
        return len(self.runs) - 1

    def clear(self) -> None:
        for buffer in (self.start, self.end, self.parent, self.name_id,
                       self.run_id):
            del buffer[:]
        for durations in self.samples.values():
            durations.clear()
        self.runs.clear()

    def _wrap(self, nid: int, fn, kind: str):
        perf = time.perf_counter
        stack = self._stack
        runs = self.runs
        keep = kind == "span"
        samples = (self.samples.setdefault(nid, []) if kind == "sample"
                   else None)
        starts, ends, parents = self.start, self.end, self.parent
        name_ids, run_ids = self.name_id, self.run_id

        def wrapper(*args, **kwargs):
            # [child seconds, nearest stored span for the children]
            frame = [0.0, stack[-1][1] if stack else -1]
            if keep:
                parents.append(frame[1])
                frame[1] = len(starts)
                name_ids.append(nid)
                run_ids.append(len(runs) - 1)
                starts.append(0.0)
                ends.append(0.0)
            stack.append(frame)
            begin = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                finish = perf()
                stack.pop()
                spent = finish - begin
                if stack:
                    stack[-1][0] += spent
                stats = runs[-1]
                stats.calls[nid] += 1
                stats.total[nid] += spent
                stats.self[nid] += spent - frame[0]
                if keep:
                    starts[frame[1]] = begin
                    ends[frame[1]] = finish
                elif samples is not None:
                    samples.append((spent, len(runs) - 1))

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target.  A target the program no longer has is
        skipped and reported on standard error; its counts stay 0."""
        for nid, (_, module_name, owner, attr, kind) in enumerate(TARGETS):
            module = importlib.import_module(module_name)
            if owner == "json":
                proxy = _JsonProxy(self._wrap(nid, json.loads, kind))
                self._set(module, "json", proxy)
                continue
            holder = getattr(module, owner, None) if owner else module
            original = getattr(holder, attr, None)
            if original is None:
                print(f"perfbench: {self.names[nid]} not found, not traced",
                      file=sys.stderr)
                continue
            wrapper = self._wrap(nid, original, kind)
            if owner:
                self._set(holder, attr, wrapper)
                continue
            for loaded in list(sys.modules.values()):
                if (getattr(loaded, "__name__", "").split(".")[0] == "povtrack"
                        and vars(loaded).get(attr) is original):
                    self._set(loaded, attr, wrapper)

    def _set(self, holder, attr, value) -> None:
        self._undo.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, value)

    def remove(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    # -- reading -----------------------------------------------------------

    def calls(self, run: int, name: str) -> int:
        return self.runs[run].calls[self.index[name]]

    def total(self, run: int, name: str) -> float:
        return self.runs[run].total[self.index[name]]

    def layer_self(self, run: int) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        stats = self.runs[run]
        for name, spent in zip(self.names, stats.self):
            out[self.layer_of[name]] += spent
        return out

    def durations(self, name: str) -> list[tuple[float, int]]:
        """(seconds, run id) of every call of a "sample" target."""
        return self.samples[self.index[name]]

    def write(self, path, run_labels: list[str]) -> None:
        """Write the stored spans as tab-separated lines."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tname\tstart\tend\tparent\trun\n")
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.names[self.name_id[i]]}\t"
                          f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t"
                          f"{self.parent[i]}\t{run_labels[self.run_id[i]]}\n")
