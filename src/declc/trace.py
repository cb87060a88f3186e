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


class TraceSink:
    """Collects the events of one run.

    `emit` only records its arguments; `events` builds the `TraceEvent`s
    (numbered in emit order) the first time it is read after an emit, so a
    run whose trace nobody reads pays for no formatting.  A `detail` is a
    string, or a `(prefix, render, value)` triple that becomes
    `prefix + render(value)` when the event is built; `value` must not change
    how it renders after the emit.  With a `stream` attached each event is
    built, written and flushed as it is emitted."""

    def __init__(self, stream=None):
        self.stream = stream  # optional text stream for JSON-lines output
        self._built: list[TraceEvent] = []
        self._recorded: list[tuple] = []  # emit arguments not built yet

    @property
    def events(self) -> list[TraceEvent]:
        if self._recorded:
            built = self._built
            seq = len(built)
            for kind, lvalue, cell, detail in self._recorded:
                if detail.__class__ is tuple:
                    prefix, render, value = detail
                    detail = prefix + render(value)
                built.append(TraceEvent(seq, kind, lvalue, cell, detail))
                seq += 1
            self._recorded = []
        return self._built

    def emit(self, kind, lvalue="", cell="", detail=""):
        self._recorded.append((kind, lvalue, cell, detail))
        if self.stream is not None:
            self.stream.write(self.events[-1].to_json() + "\n")
            self.stream.flush()


def filtered(events, kinds=ORACLE_VISIBLE) -> list[TraceEvent]:
    return [e for e in events if e.kind in kinds]
