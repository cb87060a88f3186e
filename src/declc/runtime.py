"""Reactive-cell engine: registration lists, before/after change actions,
constraint dependency edges kept on their constraining cells, and the object
suspend/resume protocol.  Phase ordering follows the contract module."""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from operator import attrgetter

from . import trace as tr
from .contract import Wave, top_entry
from .errors import RuntimeFault


# ------------------------------------------------------------------- entries

@dataclass(eq=False)
class Entry:
    """One registered involvement: identity is the (function, owner) pair."""

    fn: str
    owner: object                  # Instance or None for file scope
    invoke: object = None          # callable; signature depends on the list
    lvalue: str = ""
    construct: int = -1

    def matches(self, other: "Entry") -> bool:
        return self.fn == other.fn and self.owner is other.owner


@dataclass(eq=False)
class ConstraintEntry(Entry):
    seq: int = -1                  # instantiation order, fixed at first install
    target: object = None          # () -> Cell, evaluated lazily at fire time
    guard: object = None           # () -> bool, or None when unguarded
    apply: object = None           # () -> None, runs the assignment via store


# --------------------------------------------------------------------- cells

@dataclass(eq=False)
class Cell:
    name: str
    value: object = None
    redefinitions: list[Entry] = field(default_factory=list)
    monitors: list[Entry] = field(default_factory=list)
    preconditions: list[Entry] = field(default_factory=list)
    constraints: list[ConstraintEntry] = field(default_factory=list)
    dependencies: list[DepEdge] = field(default_factory=list)  # by DepEdge.order
    update_hooks: list = field(default_factory=list)  # object-update notifications
    monitors_enabled: bool = True
    block: object = None           # owning Block for array elements / scalars
    index: int = 0

    def registration_count(self) -> int:
        return (len(self.redefinitions) + len(self.monitors)
                + len(self.preconditions) + len(self.constraints)
                + len(self.update_hooks))

    def __repr__(self):
        return f"Cell({self.name}={self.value!r})"


@dataclass(eq=False)
class ObjectHeader:
    n: int = 0           # suspend depth
    updated: bool = False


# --------------------------------------------------------------- dependencies

@dataclass(eq=False)
class DepEdge:
    from_cell: Cell
    entry: ConstraintEntry
    lv_ordinal: int
    live: bool = True              # cleared when the edge is removed
    order: tuple[int, int] = field(init=False)

    def __post_init__(self):
        self.order = (self.entry.seq, self.lv_ordinal)


_order = attrgetter("order")


class DependencyGraph:
    """Constraining-cell -> constraint edges.  Each edge lives on its
    constraining cell (`Cell.dependencies`), kept in firing order: instantiation
    order (entry seq, then constraining l-value ordinal).  `edges` indexes the
    live edges by that order for add/remove checks and whole-program views."""

    def __init__(self):
        self.edges: dict[tuple[int, int], DepEdge] = {}

    def add(self, from_cell: Cell, entry: ConstraintEntry, lv_ordinal: int):
        edge = DepEdge(from_cell, entry, lv_ordinal)
        if edge.order in self.edges:
            raise RuntimeFault(f"dependency edge registered twice ({entry.fn})")
        self.edges[edge.order] = edge
        # a reinstall keeps its seq, so the edge may belong mid-list
        insort(from_cell.dependencies, edge, key=_order)

    def remove(self, from_cell: Cell, entry: ConstraintEntry, lv_ordinal: int):
        edge = self.edges.pop((entry.seq, lv_ordinal), None)
        if edge is None:
            raise RuntimeFault(f"cancel of unregistered dependency ({entry.fn})")
        edge.live = False
        deps = edge.from_cell.dependencies
        del deps[bisect_left(deps, edge.order, key=_order)]

    def __len__(self):
        return len(self.edges)


# -------------------------------------------------------------------- engine

class Engine:
    """The per-machine reactive core.  The host (vm) supplies entry callbacks
    and emits Install/Cancel events; the engine owns the change protocol."""

    def __init__(self, sink: tr.TraceSink):
        self.trace = sink
        self.deps = DependencyGraph()
        self.wave = Wave()

    # --- registration -----------------------------------------------------

    def _handle(self, lst: list, entry: Entry, add: bool):
        if add:
            lst.append(entry)
        else:
            for i in range(len(lst) - 1, -1, -1):
                if lst[i].matches(entry):
                    del lst[i]
                    return
            raise RuntimeFault(f"cancel of unregistered entry {entry.fn}")

    def handle_monitor(self, cell: Cell, entry: Entry, add: bool):
        self._handle(cell.monitors, entry, add)

    def handle_precondition(self, cell: Cell, entry: Entry, add: bool):
        self._handle(cell.preconditions, entry, add)

    def handle_constraint(self, cell: Cell, entry: ConstraintEntry, add: bool):
        self._handle(cell.constraints, entry, add)

    def handle_redefinition(self, cell: Cell, entry: Entry, add: bool):
        self._handle(cell.redefinitions, entry, add)

    def handle_dependency(self, cell_from: Cell, entry: ConstraintEntry,
                          lv_ordinal: int, add: bool):
        if add:
            self.deps.add(cell_from, entry, lv_ordinal)
        else:
            self.deps.remove(cell_from, entry, lv_ordinal)

    # --- change protocol --------------------------------------------------

    def actions_before_change(self, cell: Cell):
        for r in list(cell.redefinitions):
            r.invoke(False)

    def actions_after_change(self, cell: Cell):
        # phase 1: rebinding / re-installation
        for r in list(cell.redefinitions):
            r.invoke(True)
        # phase 2: top monitor, disabled during its own execution
        if cell.monitors and cell.monitors_enabled:
            m = top_entry(cell.monitors)
            cell.monitors_enabled = False
            try:
                self.trace.emit(tr.MONITOR_FIRED, m.lvalue, cell.name,
                                f"construct:{m.construct}")
                m.invoke()
            finally:
                cell.monitors_enabled = True
        for hook in list(cell.update_hooks):
            hook()
        # phase 3: constraint resolution
        self.resolve(cell)
        # phase 4: precondition testers
        for p in list(cell.preconditions):
            p.invoke()

    def resolve(self, changed: Cell):
        for edge in list(changed.dependencies):
            if edge.live:  # else cancelled by an earlier firing in this wave
                self.fire(edge.entry, via_resolution=True)

    def fire(self, entry: ConstraintEntry, via_resolution: bool):
        """Attempt one constraint application (used by resolution and by
        install-time application)."""
        try:
            target = entry.target()
        except RuntimeFault as f:
            self.trace.emit(tr.WARNING, entry.lvalue, "",
                            f"constrained l-value unresolvable: {f.msg}")
            return
        if via_resolution and self.wave.skip(target):
            self.trace.emit(tr.WARNING, entry.lvalue, target.name,
                            "skipped: already resolved in this wave")
            return
        if top_entry(target.constraints) is not entry:
            return
        if entry.guard is not None:
            ok = entry.guard()
            if not ok:
                return
        if via_resolution:
            self.wave.mark(target)
        self.trace.emit(tr.CONSTRAINT_APPLIED, entry.lvalue, target.name,
                        f"construct:{entry.construct}")
        entry.apply()

    # --- object protocol --------------------------------------------------

    def suspend(self, header: ObjectHeader, obj_cell: Cell):
        header.n += 1
        self.trace.emit(tr.SUSPEND, "", obj_cell.name, f"n:{header.n}")

    def resume(self, header: ObjectHeader, obj_cell: Cell):
        if header.n == 0:
            raise RuntimeFault(f"resume of non-suspended object {obj_cell.name}")
        header.n -= 1
        self.trace.emit(tr.RESUME, "", obj_cell.name, f"n:{header.n}")
        if header.n == 0 and header.updated:
            header.updated = False
            self.trace.emit(tr.AFTER_CHANGE, "", obj_cell.name, "object-update")
            self.actions_after_change(obj_cell)

    def set_updated(self, header: ObjectHeader, obj_cell: Cell):
        if not header.updated:
            header.updated = True
            self.trace.emit(tr.BEFORE_CHANGE, "", obj_cell.name, "object-update")
            self.actions_before_change(obj_cell)
