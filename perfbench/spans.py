"""In-memory spans around the calls that cross infinitebin's module boundaries.

The tracer replaces public functions by wrappers for the length of a traced
replay and puts the originals back afterwards; no file of the program is
changed.  A span records its name, start, end, parent and run id, plus a few
attributes read from the wrapped call's result (counts the per-layer metrics
need).  Spans stay in memory until the replay ends and are then written out
as one JSON file.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from contextlib import contextmanager


def _mass_split(split):
    return {
        "peak_states": split.peak_states,
        "pruned_mass": split.pruned_mass,
        "frontier_tail": split.frontier_tail,
        "frontier_live": split.frontier_live,
        "frontier_capped": split.frontier_capped,
    }


#: (module, attribute, span name, result -> attributes).  Each attribute is
#: patched where its caller looks it up: the cli calls ``series.*``,
#: ``simulate.*`` and ``begraph.*`` through the module; series binds the
#: enumeration engines into its own namespace; simulate and begraph open
#: their streams through ``rng.stream``.
BOUNDARIES = (
    ("infinitebin.series", "enumerate_minimal", "series.enumerate_minimal", None),
    ("infinitebin.series", "curve", "series.curve", None),
    ("infinitebin.series", "stopping_tree_masses",
     "enumeration.stopping_tree_masses", _mass_split),
    ("infinitebin.series", "stopping_tree_counts",
     "enumeration.stopping_tree_counts",
     lambda tables: {"pruned_states": tables.pruned_states}),
    ("infinitebin.simulate", "run_forward", "simulate.run_forward", None),
    ("infinitebin.simulate", "tau_tail", "simulate.tau_tail", None),
    ("infinitebin.simulate", "stationary_speed", "simulate.stationary_speed",
     None),
    ("infinitebin.simulate", "perfect_sample", "simulate.perfect_sample",
     lambda sample: {"tau": sample.tau}),
    ("infinitebin.begraph", "estimate_C", "begraph.estimate_C", None),
    ("infinitebin.begraph", "longest_path", "begraph.longest_path", None),
    ("infinitebin.rng", "stream", "rng.stream", None),
)


class Tracer:
    """Span recorder; spans of one replay share ``run_id``.

    A span opened on a worker thread with no open span of its own takes as
    parent the innermost span open on the thread that created the tracer,
    which is the invocation that handed the work to the pool.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list = self._stack()
        self._patched: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            sid = len(self.spans)
            self.spans.append(None)
        record = {"id": sid, "name": name, "parent": parent,
                  "run": self.run_id, "attrs": attrs}
        stack.append(sid)
        record["start"] = time.perf_counter()
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans[sid] = record

    def wrap(self, module_name: str, attr: str, name: str, note=None) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = original(*args, **kwargs)
                if note is not None:
                    attrs.update(note(result))
                return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def install(self) -> None:
        for module_name, attr, name, note in BOUNDARIES:
            self.wrap(module_name, attr, name, note)

    def uninstall(self) -> None:
        """Put every original function back, newest patch first."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def self_times(spans: list) -> dict:
    """Span id -> duration minus the part of it its child spans cover.

    Children on pool threads may overlap each other, so the covered part is
    the length of the union of the child intervals, clipped to the parent.
    """
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for lo, hi in sorted(children.get(s["id"], ())):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out
