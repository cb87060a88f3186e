"""Trace events: the observable record of a program run, and its sinks.

Events serialize as JSON-lines with stable field order
{seq, kind, lvalue, cell, detail} so traces can be diffed textually.  A
sink takes records; `_expand` alone turns records into numbered events.
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


class Applied(NamedTuple):
    """The detail of a fused `ConstraintApplied` record: what its event
    names, without the entry, which would keep its owner alive."""
    lvalue: str
    detail: str


def _expand(slots, seq: int):
    """The events of the records in `slots` (`STRIDE` slots each), numbered
    from `seq`: the one rule that turns records into events."""
    from .values import value_str  # values imports the engine, which imports this
    new, E = tuple.__new__, TraceEvent  # skips the NamedTuple's Python __new__
    it = iter(slots)
    for kind, lvalue, cell, detail, value in zip(it, it, it, it, it):
        if kind is STORE:
            yield new(E, (seq, BEFORE_CHANGE, "", cell, "old:" + detail(lvalue)))
            seq += 1
            yield new(E, (seq, AFTER_CHANGE, "", cell, "new:" + detail(value)))
        elif detail.__class__ is str:
            yield new(E, (seq, kind, lvalue, cell, detail))
        elif detail.__class__ is tuple:
            yield new(E, (seq, kind, lvalue, cell, detail[0] + detail[1](value)))
        else:  # a fused application: detail is its `Applied`
            yield new(E, (seq, kind, detail.lvalue, cell, detail.detail))
            yield new(E, (seq + 1, BEFORE_CHANGE, "", cell, "old:" + value_str(lvalue)))
            seq += 2
            yield new(E, (seq, AFTER_CHANGE, "", cell, "new:" + value_str(value)))
        seq += 1


class TraceSink:
    """Keeps every record of one run (`declc check`, tests, benchmark).

    `emit` appends its five arguments to one flat list of slots, so a kept
    record is no object of its own and leaves the cyclic GC nothing to
    track.  `events` builds the `TraceEvent`s (numbered in emit order) the
    first time it is read after an emit, so a run whose trace nobody reads
    pays for no formatting."""

    def __init__(self):
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
        is an `Applied` stands for three: the application, with that
        `lvalue` and `detail`, then that store, rendered by
        `values.value_str`."""
        self._slots += (kind, lvalue, cell, detail, value)

    @property
    def events(self) -> list[TraceEvent]:
        slots, built = self._slots, self._built
        if self._read < len(slots):
            built += _expand(slots[self._read:], len(built))
            self._read = len(slots)
        return built


class WarningSink(TraceSink):
    """The sink of `declc run`: it keeps only the `Warning` records, which
    the run prints, so a long run holds no record per store; its events are
    its warnings, numbered among themselves.  Given a `stream` (`--trace`),
    it writes each record's events there as JSON lines at emit, numbered as
    `TraceSink.events` numbers them, and flushes."""

    def __init__(self, stream=None):
        super().__init__()
        self.stream = stream
        self._seq = 0  # the number of the next streamed event

    def emit(self, kind, lvalue="", cell="", detail="", value=None):
        if self.stream is not None:
            for e in _expand((kind, lvalue, cell, detail, value), self._seq):
                self.stream.write(e.to_json() + "\n")
            self._seq = e.seq + 1
            self.stream.flush()
        if kind is WARNING:
            self._slots += (kind, lvalue, cell, detail, value)


def filtered(events, kinds=ORACLE_VISIBLE) -> list[TraceEvent]:
    return [e for e in events if e.kind in kinds]
