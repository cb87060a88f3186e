"""Spans around calls into declc's layers, recorded from outside the program.

`Tracer.installed()` replaces public functions and methods of the `declc`
modules with wrappers that record a span per call (name, start, end, parent
span, request index) and restores the originals on exit.  Spans are kept in
memory; `write` saves them as JSON when the run ends.  A layer's self time is
the duration of its spans minus the time their child spans cover.

Calls the oracle makes into the trace sink are not spans of their own: the
reference interpreter's event recording counts as oracle time, and only the
vm's events are counted by kind.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter

from declc import checker, codegen, lvgraph, oracle, parser, runtime, trace, vm

SPAN, COUNT, ORACLE, EMIT = "span", "count", "oracle", "emit"

# (owner, attribute, span name, mode).  Module-level functions are patched
# where their callers look them up: parse_source reads `tokenize` and
# `parse_unit` from the parser module, compile_source imports `build_graph`
# and calls `codegen.lower` at call time.
TARGETS = [
    (parser, "tokenize", "lexer", SPAN),
    (parser, "parse_unit", "parser", SPAN),
    (checker, "check", "checker", SPAN),
    (lvgraph, "build_graph", "lvgraph", SPAN),
    (codegen, "lower", "codegen", SPAN),
    (vm.Machine, "load", "vm.load", SPAN),
    (vm.Machine, "run_genfn", "vm.run_genfn", SPAN),
    (vm.Machine, "store", "vm.store", SPAN),
    (vm.Machine, "lv_cell", "vm.lv_cell", COUNT),
    (runtime.Engine, "resolve", "runtime.resolve", SPAN),
    (runtime.Engine, "fire", "runtime.fire", SPAN),
    (runtime.Engine, "handle_monitor", "runtime.handle", SPAN),
    (runtime.Engine, "handle_precondition", "runtime.handle", SPAN),
    (runtime.Engine, "handle_constraint", "runtime.handle", SPAN),
    (runtime.Engine, "handle_redefinition", "runtime.handle", SPAN),
    (runtime.Engine, "handle_dependency", "runtime.handle", SPAN),
    (runtime.Engine, "actions_before_change", "runtime.before_change", SPAN),
    (runtime.Engine, "actions_after_change", "runtime.after_change", SPAN),
    (runtime.Engine, "suspend", "runtime.object", COUNT),
    (runtime.Engine, "resume", "runtime.object", COUNT),
    (runtime.Engine, "set_updated", "runtime.object", COUNT),
    (trace.TraceSink, "emit", "trace.emit", EMIT),
    (oracle.Oracle, "load", "oracle.load", ORACLE),
    (oracle.Oracle, "call_function", "oracle.run", ORACLE),
    (oracle.Oracle, "react", "oracle.react", ORACLE),
    (oracle, "diff_traces", "oracle.diff", ORACLE),
    (oracle, "diff_memory", "oracle.diff", ORACLE),
]

REQUEST = "request"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.req: list[int] = []
        self.stack: list[int] = []
        self.request = -1          # index of the request in flight, or -1
        self.calls: Counter = Counter()    # calls per name inside requests
        self.events: Counter = Counter()   # vm trace events per kind inside requests
        self._oracle_depth = 0

    # ----------------------------------------------------------- recording

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.req.append(self.request)
        self.end.append(0)
        self.stack.append(i)
        if self.request >= 0 and not self._oracle_depth:
            self.calls[name] += 1
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int):
        self.end[i] = time.perf_counter_ns()
        self.stack.pop()

    def _wrapper(self, fn, name: str, mode: str):
        tracer = self

        if mode == COUNT:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tracer.request >= 0 and not tracer._oracle_depth:
                    tracer.calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if mode == EMIT:
                if tracer._oracle_depth:
                    return fn(*args, **kwargs)
                if tracer.request >= 0:
                    tracer.events[args[1]] += 1
            elif mode == ORACLE:
                tracer._oracle_depth += 1
            i = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(i)
                if mode == ORACLE:
                    tracer._oracle_depth -= 1
        return spanned

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, mode in TARGETS:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrapper(fn, name, mode))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    @contextlib.contextmanager
    def in_request(self, index: int):
        """Root span of one request; spans opened inside carry its index."""
        self.request = index
        i = self._open(REQUEST)
        try:
            yield
        finally:
            self._close(i)
            self.request = -1

    # ------------------------------------------------------------ analysis

    def self_ms(self, requests_only: bool = False) -> dict[str, float]:
        """Self time per span name, in ms."""
        covered = [0] * len(self.names)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            if requests_only and self.req[i] < 0:
                continue
            d = self.end[i] - self.start[i] - covered[i]
            out[name] = out.get(name, 0.0) + d / 1e6
        return out

    def max_depth(self, name: str) -> int:
        """Deepest nesting of `name` spans inside requests."""
        depth = [0] * len(self.names)
        best = 0
        for i, n in enumerate(self.names):
            p = self.parent[i]
            depth[i] = (depth[p] if p >= 0 else 0) + (n == name)
            if n == name and self.req[i] >= 0:
                best = max(best, depth[i])
        return best

    def write(self, path: str):
        index = {n: k for k, n in enumerate(dict.fromkeys(self.names))}
        with open(path, "w", encoding="utf-8") as f:
            json.dump({
                "names": list(index),
                "fields": ["name", "start_ns", "end_ns", "parent", "request"],
                "spans": [[index[n], s, e, p, r] for n, s, e, p, r in zip(
                    self.names, self.start, self.end, self.parent, self.req)],
            }, f, separators=(",", ":"))
