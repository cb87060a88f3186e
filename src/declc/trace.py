"""Trace events: the observable record of a program run.

Events serialize as JSON-lines with stable field order
{seq, kind, lvalue, cell, detail} so traces can be diffed textually.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class TraceEvent:
    seq: int
    kind: str
    lvalue: str = ""   # canonical l-value / construct subject, if any
    cell: str = ""     # storage name of the affected cell, if any
    detail: str = ""

    def to_json(self) -> str:
        return json.dumps(
            {"seq": self.seq, "kind": self.kind, "lvalue": self.lvalue,
             "cell": self.cell, "detail": self.detail})

    @staticmethod
    def from_json(line: str) -> "TraceEvent":
        d = json.loads(line)
        return TraceEvent(d["seq"], d["kind"], d.get("lvalue", ""),
                          d.get("cell", ""), d.get("detail", ""))


@dataclass
class TraceSink:
    events: list[TraceEvent] = field(default_factory=list)
    stream: object = None       # optional text stream for JSON-lines output
    buffer_size: int = 0        # flush granularity when streaming; 0 = every event

    _pending: int = 0

    def emit(self, kind, lvalue="", cell="", detail=""):
        ev = TraceEvent(len(self.events), kind, lvalue, cell, detail)
        self.events.append(ev)
        if self.stream is not None:
            self.stream.write(ev.to_json() + "\n")
            self._pending += 1
            if self._pending >= max(self.buffer_size, 1) or self.buffer_size == 0:
                self.stream.flush()
                self._pending = 0
        return ev


def filtered(events, kinds=ORACLE_VISIBLE) -> list[TraceEvent]:
    return [e for e in events if e.kind in kinds]
