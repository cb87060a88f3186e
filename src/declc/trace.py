"""Trace events: the observable record of a program run.

Events serialize as JSON-lines with stable field order
{seq, kind, lvalue, cell, detail} so traces can be diffed textually.
"""

from __future__ import annotations

import json
from typing import NamedTuple

BEFORE_CHANGE = "BeforeChange"
AFTER_CHANGE = "AfterChange"
INSTALL = "Install"
CANCEL = "Cancel"
MONITOR_FIRED = "MonitorFired"
PRECOND_EVAL = "PrecondEval"
GUARD_EVAL = "GuardEval"
CONSTRAINT_APPLIED = "ConstraintApplied"
DORMANT = "Dormant"
SUSPEND = "Suspend"
RESUME = "Resume"
WARNING = "Warning"

# Kinds observable without knowledge of the incremental implementation; the
# differ compares exactly these (Install/Cancel/Dormant are rebinding-machinery
# artifacts, Suspend/Resume are object-protocol plumbing).
ORACLE_VISIBLE = (
    BEFORE_CHANGE, AFTER_CHANGE, MONITOR_FIRED, PRECOND_EVAL, GUARD_EVAL,
    CONSTRAINT_APPLIED,
)


class TraceEvent(NamedTuple):
    seq: int
    kind: str
    lvalue: str = ""   # canonical l-value / construct subject, if any
    cell: str = ""     # storage name of the affected cell, if any
    detail: str = ""

    def to_json(self) -> str:
        return json.dumps(self._asdict())


# A plain store, i.e. on a cell with no redefinitions: one record that reads
# as `BeforeChange` then `AfterChange` on its cell (see `TraceSink.emit`).
# A pure constraint's application by resolution to such a cell is one
# `ConstraintApplied` record that reads as those two after its own event.
STORE = "Store"

STRIDE = 5  # slots per record: kind, lvalue, cell, detail, value


class TraceSink:
    """Collects the events of one run.

    `emit` appends its five arguments to one flat list of slots, so a kept
    record is no object of its own and leaves the cyclic GC nothing to
    track.  `events` builds the `TraceEvent`s (numbered in emit order) the
    first time it is read after an emit, so a run whose trace nobody reads
    pays for no formatting.  With a `stream` attached each event is built,
    written and flushed as it is emitted."""

    def __init__(self, stream=None):
        self.stream = stream  # optional text stream for JSON-lines output
        self._slots: list = []
        self._built: list[TraceEvent] = []
        self._read = 0  # slots already built into `_built`

    def emit(self, kind, lvalue="", cell="", detail="", value=None):
        """Record one event.  `detail` is a string, or a `(prefix, render)`
        pair: the detail is then `prefix + render(value)`, made when the event
        is built, so `value` must not change how it renders after the emit.
        A `STORE` record stands for two events on `cell`: `BeforeChange` with
        detail `"old:" + detail(lvalue)` and `AfterChange` with
        `"new:" + detail(value)`; its `lvalue` slot holds the old value and
        its `detail` the render.  A `CONSTRAINT_APPLIED` record whose detail
        is the constraint's entry stands for three: the application, with the
        entry's `lvalue` and `detail`, then that store, rendered by
        `values.value_str`."""
        self._slots += (kind, lvalue, cell, detail, value)
        if self.stream is not None:
            n = len(self._built)
            for e in self.events[n:]:
                self.stream.write(e.to_json() + "\n")
            self.stream.flush()

    @property
    def events(self) -> list[TraceEvent]:
        slots, built = self._slots, self._built
        if self._read < len(slots):
            from .values import value_str  # values imports the engine, which imports this
            append, seq = built.append, len(built)
            new, E = tuple.__new__, TraceEvent  # skips the NamedTuple's Python __new__
            it = iter(slots[self._read:])
            for kind, lvalue, cell, detail, value in zip(it, it, it, it, it):
                if kind is STORE:
                    append(new(E, (seq, BEFORE_CHANGE, "", cell, "old:" + detail(lvalue))))
                    seq += 1
                    append(new(E, (seq, AFTER_CHANGE, "", cell, "new:" + detail(value))))
                elif detail.__class__ is str:
                    append(new(E, (seq, kind, lvalue, cell, detail)))
                elif detail.__class__ is tuple:
                    append(new(E, (seq, kind, lvalue, cell, detail[0] + detail[1](value))))
                else:  # a pure constraint's application: detail is its entry
                    append(new(E, (seq, kind, detail.lvalue, cell, detail.detail)))
                    append(new(E, (seq + 1, BEFORE_CHANGE, "", cell, "old:" + value_str(lvalue))))
                    seq += 2
                    append(new(E, (seq, AFTER_CHANGE, "", cell, "new:" + value_str(value))))
                seq += 1
            self._read = len(slots)
        return built

    def warnings(self) -> list[TraceEvent]:
        """The `Warning` events, as `events` numbers them, found by scanning
        the kind slots: the rest of the trace is not built."""
        slots = self._slots
        kinds = slots[::STRIDE]
        out, last, extra = [], 0, 0  # extra: events beyond one per record so far
        for _ in range(kinds.count(WARNING)):
            r = kinds.index(WARNING, last)
            extra += kinds[last:r].count(STORE) + 2 * sum(
                slots[k * STRIDE + 3].__class__ is not str
                for k in range(last, r) if kinds[k] is CONSTRAINT_APPLIED)
            i = r * STRIDE
            out.append(TraceEvent(r + extra, WARNING, *slots[i + 1:i + 4]))
            last = r + 1
        return out


class WarningSink(TraceSink):
    """The sink of a run whose trace nobody reads: it keeps the `Warning`
    records and drops every other, so a long run holds no record per store.
    Its events are its warnings, numbered among themselves."""

    def emit(self, kind, lvalue="", cell="", detail="", value=None):
        if kind is WARNING:
            self._slots += (kind, lvalue, cell, detail, value)


def filtered(events, kinds=ORACLE_VISIBLE) -> list[TraceEvent]:
    return [e for e in events if e.kind in kinds]
