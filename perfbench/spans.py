"""In-memory span tracing of ribbonforge's public functions.

``Tracer.install`` replaces each listed function, in its defining module and
in every ``ribbonforge`` module that re-binds it through ``from ... import``,
by a wrapper that records one span per call: function, parent span,
operation id, start and end.  Self time is a span's duration minus the time
its child spans cover.  Spans stay in memory (up to ``span_cap``; past it
only the per-function sums are kept) and are written out by ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

# (module, attribute path) of every traced function, grouped by layer.
TRACED = (
    ("presentation", "parse_arp"),
    ("presentation", "presentation"),
    ("presentation", "ArrowPresentation.arrow_positions"),
    ("presentation", "component_vertex_sets"),
    ("presentation", "components"),
    ("presentation", "spanning_tree"),
    ("moves", "delete_edge"),
    ("moves", "contract_edge"),
    ("moves", "partial_dual"),
    ("surfaces", "trace_boundary"),
    ("surfaces", "surface_summary"),
    ("surfaces", "is_orientable"),
    ("canonical", "canonical_key"),
    ("canonical", "equivalent"),
    ("minors", "has_minor"),
    ("minors", "one_step_minors"),
    ("minors", "excluded_minor_scan"),
    ("minors", "bbar1_script"),
    ("minors", "verified_script"),
    ("minors", "replay"),
    ("links", "parse_pd"),
    ("links", "all_A_ribbon_graph"),
    ("links", "intersection_graph"),
    ("links", "represents_link"),
    ("links", "defines_plane_biseparation"),
    ("links", "brute_force_plane_dual"),
    ("enumeration", "enumerate_presentations"),
    ("enumeration", "enumerate_by_slots"),
)

OP = 0  # function id of the benchmark operation that roots each span tree


class Tracer:
    def __init__(self, span_cap: int = 50_000):
        self.names = ["op"] + [f"{mod}.{path}" for mod, path in TRACED]
        n = len(self.names)
        self.calls = [0] * n
        self.total = [0.0] * n
        self.self_time = [0.0] * n
        self.depth = [0] * n
        self.originals: dict[str, object] = {}
        self.kept = 0  # one_step_minors: classes returned
        self.candidates = 0  # one_step_minors: minors built before dedup
        self.on = False
        self.op_id = -1
        self.span_cap = span_cap
        self.dropped = 0
        self.span_fid = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # Open frames: [fid, start, child seconds, span index].
        self.stack: list[list] = []

    # -- recording ----------------------------------------------------------

    def _enter(self, fid: int) -> list:
        index = -1
        if len(self.span_fid) < self.span_cap:
            index = len(self.span_fid)
            self.span_fid.append(fid)
            self.span_parent.append(self.stack[-1][3] if self.stack else -1)
            self.span_op.append(self.op_id)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        else:
            self.dropped += 1
        self.depth[fid] += 1
        frame = [fid, 0.0, 0.0, index]
        self.stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        fid, start, child, index = frame
        # A deadline can interrupt a wrapper between its bookkeeping steps;
        # drop any frame it left open above this one.
        while self.stack and self.stack.pop() is not frame:
            pass
        duration = end - start
        self.calls[fid] += 1
        self.self_time[fid] += duration - child
        self.depth[fid] -= 1
        if not self.depth[fid]:
            self.total[fid] += duration
        if self.stack:
            self.stack[-1][2] += duration
        if index >= 0:
            self.span_start[index] = start
            self.span_end[index] = end

    def run_op(self, op_id: int, fn):
        """Call ``fn`` as one traced benchmark operation."""
        self.op_id = op_id
        self.on = True
        frame = self._enter(OP)
        try:
            return fn()
        finally:
            self._exit(frame)
            self.on = False
            del self.stack[:]
            self.depth = [0] * len(self.depth)

    def _wrap(self, fid: int, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            frame = tracer._enter(fid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return traced

    def _wrap_one_step_minors(self, fid: int, fn):
        traced = self._wrap(fid, fn)
        tracer = self

        @functools.wraps(fn)
        def counted(pres, *args, **kwargs):
            out = traced(pres, *args, **kwargs)
            if tracer.on:
                tracer.kept += len(out)
                tracer.candidates += 2 * pres.edge_count + len(pres.isolated_vertices())
            return out

        return counted

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        package = [m for name, m in sys.modules.items()
                   if name == "ribbonforge" or name.startswith("ribbonforge.")]
        for fid, (mod, path) in enumerate(TRACED, start=1):
            owner = importlib.import_module(f"ribbonforge.{mod}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self.originals[self.names[fid]] = original
            wrap = self._wrap_one_step_minors if attr == "one_step_minors" else self._wrap
            wrapped = wrap(fid, original)
            setattr(owner, attr, wrapped)
            if outer:
                continue
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    # -- output -------------------------------------------------------------

    def per_function(self) -> dict[str, dict[str, float]]:
        return {
            name: {"calls": self.calls[fid], "total_s": self.total[fid],
                   "self_s": self.self_time[fid]}
            for fid, name in enumerate(self.names)
        }

    def dump(self, path) -> None:
        spans = [
            [self.names[self.span_fid[i]], self.span_parent[i], self.span_op[i],
             self.span_start[i], self.span_end[i]]
            for i in range(len(self.span_fid))
        ]
        doc = {
            "fields": ["function", "parent", "op", "start", "end"],
            "spans": spans,
            "dropped_spans": self.dropped,
            "functions": self.per_function(),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))
