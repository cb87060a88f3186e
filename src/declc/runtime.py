"""Reactive-cell engine: registration lists, the store and its change
protocol, constraint dependency edges kept on their constraining cells, and
the object suspend/resume protocol.  Phase ordering follows the contract module.

Every registration is one `Engine.handle_*(cell, registrant, add)` call.  A
registrant is a runtime entry, or for a dependency its `DepEdge`: the vm
makes one edge per (owner, dependency registration) at its first install and
keeps it, so a rebinding cancels and reinstalls the same edge, moving it
from cell to cell."""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from operator import attrgetter

from . import trace as tr
from .contract import Wave
from .errors import RuntimeFault

_N = ("n:", str)  # trace detail of Suspend/Resume: the suspension count


# ------------------------------------------------------------------- entries

@dataclass(eq=False, slots=True)
class Entry:
    """One registered involvement of an owner's entry function `fn`; the vm
    makes one per (function, owner), and a cancel removes it by identity."""

    fn: str
    owner: object                  # Instance or None for file scope
    invoke: object = None          # callable; signature depends on the list
                                   # (redefinitions: (fns, b), see Engine._rebind)
    lvalue: str = ""
    construct: int = -1
    detail: str = field(init=False, repr=False)  # of its MonitorFired/ConstraintApplied
    registered: int = field(default=0, init=False, repr=False)  # lists that hold it

    def __post_init__(self):
        self.detail = f"construct:{self.construct}"


@dataclass(eq=False, slots=True)
class ConstraintEntry(Entry):
    seq: int = -1                  # instantiation order, fixed at first install
    target: object = None          # () -> Cell, evaluated lazily at fire time
    guard: object = None           # () -> bool, or None when unguarded
    rhs: object = None             # [evaluator (frame) -> value, ...]: its right side
    frame: object = None           # the frame the right side is evaluated in
    pure: bool = False             # no side calls, so an application runs no user code


# --------------------------------------------------------------------- cells

class Cell:
    """One storage location.  Its four registration lists and its dependency
    edges (in `DepEdge.order`) start as the shared empty tuple and become a
    list at their first add (`Engine.handle_*`, `DependencyGraph.add`);
    readers test them for truthiness only.  A data member's `update_hook` is
    its object's update notification while the object lives.  `name` is
    stored: every store emits it."""

    __slots__ = ("name", "value", "redefinitions", "monitors", "preconditions",
                 "constraints", "dependencies", "update_hook", "monitors_enabled",
                 "block", "index")

    def __init__(self, name: str, value=None, block=None, index: int = 0):
        self.name = name
        self.value = value
        self.redefinitions = self.monitors = self.preconditions = ()
        self.constraints = self.dependencies = ()
        self.update_hook = None
        self.monitors_enabled = True
        self.block = block  # owning Block; a scalar's is made when its address is taken
        self.index = index

    def registration_count(self) -> int:
        return (len(self.redefinitions) + len(self.monitors)
                + len(self.preconditions) + len(self.constraints)
                + (self.update_hook is not None))

    def __repr__(self):
        return f"Cell({self.name}={self.value!r})"


@dataclass(eq=False)
class ObjectHeader:
    n: int = 0           # suspend depth
    updated: bool = False


# --------------------------------------------------------------- dependencies

class DepEdge:
    """The dependency of constraint `entry` on its constraining l-value
    `ordinal`.  The vm makes it at that registration's first install and
    keeps it for the owner's life: a cancel unlinks it from its cell and
    clears `live`, and a reinstall links it to the cell the l-value now
    denotes and sets `live` again.  `from_cell` is the cell it is, or was
    last, on."""

    __slots__ = ("from_cell", "entry", "live", "order")

    def __init__(self, entry: ConstraintEntry, ordinal: int):
        self.from_cell = None
        self.entry = entry
        self.live = False
        self.order = (entry.seq, ordinal)


_order = attrgetter("order")


class DependencyGraph:
    """Constraining-cell -> constraint edges.  Each live edge is on its
    constraining cell (`Cell.dependencies`), kept in firing order: instantiation
    order (entry seq, then constraining l-value ordinal).  There is no
    graph-wide index: the caller holds each edge, and the graph keeps only the
    number of live edges."""

    def __init__(self):
        self.live = 0

    def add(self, from_cell: Cell, edge: DepEdge):
        if edge.live:
            raise RuntimeFault(f"dependency edge registered twice ({edge.entry.fn})")
        edge.from_cell = from_cell
        edge.live = True
        self.live += 1
        deps = from_cell.dependencies
        if deps.__class__ is not list:
            from_cell.dependencies = [edge]
        elif not deps or deps[-1].order < edge.order:
            deps.append(edge)
        else:  # a reinstall keeps its seq, so the edge may belong mid-list
            insort(deps, edge, key=_order)

    def remove(self, edge: DepEdge):
        if not edge.live:
            raise RuntimeFault(f"cancel of unregistered dependency ({edge.entry.fn})")
        edge.live = False
        self.live -= 1
        deps = edge.from_cell.dependencies
        if deps[-1] is edge:
            deps.pop()
        elif deps[0] is edge:  # a run cancels its cell's edges in order
            del deps[0]
        else:
            del deps[bisect_left(deps, edge.order, key=_order)]

    def __len__(self):
        return self.live


# -------------------------------------------------------------------- engine

def _pushed(lst, entry: Entry) -> list:
    """A cell's registration list with entry on top; made at its first add."""
    entry.registered += 1
    if lst.__class__ is list:
        lst.append(entry)
        return lst
    return [entry]


def _cancel(lst, entry: Entry):
    """Remove the topmost registration of entry."""
    for i in range(len(lst) - 1, -1, -1):
        if lst[i] is entry:
            lst.pop(i).registered -= 1
            return
    raise RuntimeFault(f"cancel of unregistered entry {entry.fn}")


class Engine:
    """The per-machine reactive core.  It owns the store: every write, its
    records, its wave and its change protocol.  The vm supplies the entries'
    callbacks and emits Install/Cancel events."""

    def __init__(self, sink: tr.TraceSink):
        from .values import value_str  # values imports this module
        self.trace = sink
        self.deps = DependencyGraph()
        self.wave = Wave()
        # a store's details, rendered when the event is built: a value renders the same later
        self._render, self._old, self._new = value_str, ("old:", value_str), ("new:", value_str)

    # --- registration -----------------------------------------------------
    # One handler per kind, each `(cell, registrant, add)`: add installs the
    # registrant on cell, else cancels it there.

    def handle_monitor(self, cell: Cell, registrant: Entry, add: bool):
        if add:
            cell.monitors = _pushed(cell.monitors, registrant)
        else:
            _cancel(cell.monitors, registrant)

    def handle_precondition(self, cell: Cell, registrant: Entry, add: bool):
        if add:
            cell.preconditions = _pushed(cell.preconditions, registrant)
        else:
            _cancel(cell.preconditions, registrant)

    def handle_constraint(self, cell: Cell, registrant: ConstraintEntry, add: bool):
        if add:
            cell.constraints = _pushed(cell.constraints, registrant)
        else:
            _cancel(cell.constraints, registrant)

    def handle_redefinition(self, cell: Cell, registrant: Entry, add: bool):
        if add:
            cell.redefinitions = _pushed(cell.redefinitions, registrant)
        else:
            _cancel(cell.redefinitions, registrant)

    def handle_dependency(self, cell: Cell, registrant: DepEdge, add: bool):
        if add:
            self.deps.add(cell, registrant)
        else:
            self.deps.remove(registrant)

    # --- change protocol --------------------------------------------------
    # A phase runs over a snapshot of a non-empty list; a redefinition that
    # an earlier one cancelled is skipped.

    def store(self, cell: Cell, value):
        """A write no resolution makes (a user store, an install-time
        application) and its after-change actions, in a wave, opened if none is."""
        wave = self.wave  # Wave.enter and exit, inline
        wave.depth += 1
        try:
            self._write(cell, value)
            self.actions_after_change(cell)
        finally:
            wave.depth -= 1
            if not wave.depth and wave.in_flight:
                wave.in_flight.clear()

    def _write(self, cell: Cell, value):
        """With no redefinitions nothing is emitted between a write's two
        events, so one STORE record stands for both."""
        if cell.redefinitions:
            self.trace.emit(tr.BEFORE_CHANGE, "", cell.name, self._old, cell.value)
            self.actions_before_change(cell)
            cell.value = value
            self.trace.emit(tr.AFTER_CHANGE, "", cell.name, self._new, value)
        else:
            self.trace.emit(tr.STORE, cell.value, cell.name, self._render, value)
            cell.value = value

    def actions_before_change(self, cell: Cell):
        self._rebind(cell, False)

    def actions_after_change(self, cell: Cell):
        self.resolve(cell)  # a name of its own: perfbench's spans wrap it

    def _rebind(self, cell: Cell, b: bool):
        """Cancel (not b) or reinstall cell's redefinitions: each maximal run of
        adjacent entries of one owner is one `invoke(fns, b)` of its first
        entry.  `fns` yields the function of each entry still registered when
        the run reaches it."""
        redefs = list(cell.redefinitions)
        start, n = 0, len(redefs)
        while start < n:
            owner, end = redefs[start].owner, start + 1
            while end < n and redefs[end].owner is owner:
                end += 1
            redefs[start].invoke((r.fn for r in redefs[start:end] if r.registered), b)
            start = end

    def resolve(self, changed: Cell):
        """The after-change actions of a write of changed and of the writes
        they resolve, one level of this loop each: phases 1 and 2 and the
        update hook, then the edges the cell has now, in order, each one live
        on it at its turn (one an earlier firing moved away or added is not,
        as in the reference interpreter).  An application `fire` writes is
        the next level, so a cascade runs depth first; a level's phase 4 runs
        when its edges are done.  Entered outside any wave (after a method
        returns), each application of changed's edges is a wave of its own."""
        wave = self.wave
        outside = not wave.depth
        cell, stack = changed, None
        try:
            while True:
                # phase 1: rebinding / re-installation
                if cell.redefinitions:
                    self._rebind(cell, True)
                # phase 2: top (last registered) monitor, disabled during its execution
                if cell.monitors and cell.monitors_enabled:
                    m = cell.monitors[-1]
                    cell.monitors_enabled = False
                    try:
                        self.trace.emit(tr.MONITOR_FIRED, m.lvalue, cell.name, m.detail)
                        m.invoke()
                    finally:
                        cell.monitors_enabled = True
                if cell.update_hook is not None:
                    cell.update_hook()
                # phase 3: constraint resolution
                todo = iter(list(cell.dependencies))
                while True:
                    for edge in todo:
                        if edge.live and edge.from_cell is cell:
                            target = self.fire(edge.entry, True)
                            if target is not None:
                                break
                    else:  # cell's edges are done
                        # phase 4: precondition testers
                        if cell.preconditions:
                            for p in list(cell.preconditions):
                                p.invoke()
                        if not stack:
                            return
                        cell, todo = stack.pop()
                        if outside and not stack:  # the application's wave ends
                            wave.depth = 0
                            wave.in_flight.clear()
                        continue
                    if stack is None:
                        stack = []
                    stack.append((cell, todo))
                    cell = target
                    break
        finally:
            if outside:  # a fault may leave an application's wave open
                wave.depth = 0
                wave.in_flight.clear()

    def fire(self, entry: ConstraintEntry, via_resolution: bool):
        """Attempt one constraint application.  At install it stores through
        `store`.  By resolution it writes the target and returns it for
        `resolve`; a pure entry's application to a cell with no redefinitions
        is one `ConstraintApplied` record, read as the application and the store."""
        try:
            target = entry.target()
        except RuntimeFault as f:
            self.trace.emit(tr.WARNING, entry.lvalue, "",
                            f"constrained l-value unresolvable: {f.msg}")
            return None
        # the Wave skip and mark steps and the top-of-stack rule, inline
        wave = self.wave
        if via_resolution and id(target) in wave.in_flight:
            self.trace.emit(tr.WARNING, entry.lvalue, target.name,
                            "skipped: already resolved in this wave")
            return None
        stack = target.constraints
        if not stack or stack[-1] is not entry:
            return None
        guarded = entry.guard is not None
        if guarded and not entry.guard():
            return None
        if via_resolution:
            wave.in_flight.add(id(target))
            if entry.pure and not target.redefinitions:
                try:
                    value = entry.rhs[0](entry.frame)
                except BaseException:  # the application was under way: record it
                    self.trace.emit(tr.CONSTRAINT_APPLIED, entry.lvalue,
                                    target.name, entry.detail)
                    raise
                if not wave.depth:  # a write outside any wave opens one
                    wave.depth = 1
                self.trace.emit(tr.CONSTRAINT_APPLIED, target.value, target.name,
                                entry, value)
                target.value = value
                return target
        self.trace.emit(tr.CONSTRAINT_APPLIED, entry.lvalue, target.name,
                        entry.detail)
        if guarded:
            # the guard is user code: it may have rebound the constrained side
            target = entry.target()
        value = entry.rhs[0](entry.frame)
        if not via_resolution:
            self.store(target, value)
            return None
        if not wave.depth:
            wave.depth = 1
        self._write(target, value)
        return target

    # --- object protocol --------------------------------------------------

    def suspend(self, header: ObjectHeader, obj_cell: Cell):
        header.n += 1
        self.trace.emit(tr.SUSPEND, "", obj_cell.name, _N, header.n)

    def resume(self, header: ObjectHeader, obj_cell: Cell):
        if header.n == 0:
            raise RuntimeFault(f"resume of non-suspended object {obj_cell.name}")
        header.n -= 1
        self.trace.emit(tr.RESUME, "", obj_cell.name, _N, header.n)
        if header.n == 0 and header.updated:
            header.updated = False
            self.trace.emit(tr.AFTER_CHANGE, "", obj_cell.name, "object-update")
            self.actions_after_change(obj_cell)

    def set_updated(self, header: ObjectHeader, obj_cell: Cell):
        if not header.updated:
            header.updated = True
            self.trace.emit(tr.BEFORE_CHANGE, "", obj_cell.name, "object-update")
            self.actions_before_change(obj_cell)

    def member_changed(self, header: ObjectHeader, obj_cell: Cell):
        """The update hook of an object's members: seen at once outside a method."""
        if header.n > 0:
            self.set_updated(header, obj_cell)
        else:
            self.trace.emit(tr.BEFORE_CHANGE, "", obj_cell.name, "object-update")
            self.actions_before_change(obj_cell)
            self.trace.emit(tr.AFTER_CHANGE, "", obj_cell.name, "object-update")
            self.actions_after_change(obj_cell)
