"""The shared ordering contract for reactive evaluation.

Both the incremental runtime and the brute-force reference interpreter follow
the rules below by importing this module, so differential runs compare the
rebinding machinery, never independently re-invented orderings.

After a value is written into a cell, reactions run in four phases:

  1. Rebinding / re-installation.  Registered redefinition behavior runs in
     instantiation order; re-installing a constraint's left side re-applies
     the assignment (install semantics), nested through the full write path.
  2. Monitors.  Only the top (most recently registered, still active) monitor
     of the written cell fires, with the cell's monitors disabled for the
     duration of the body.  Object update hooks run after the user monitor.
  3. Constraint resolution.  Outgoing dependency edges fire in instantiation
     order (per constraint instance, then per constraining l-value in order
     of appearance).  An edge fires only when the constrained cell's top
     constraint is the edge's own constraint and its guard (if any) evaluates
     true.  A cell already assigned by resolution in the current wave is
     skipped (one application per wave; cycles degrade gracefully).
  4. Precondition testers.  Every tester registered on the written cell runs,
     once per triggering write, in registration order.

A "wave" is the dynamic extent of the outermost store.  Instantiation order
is chronological install order: class-scope constructs install at instance
construction, file-scope constructs at end-of-load, in declaration order
within each scope.
"""

from __future__ import annotations

from .errors import RuntimeFault


def c_div(a: int, b: int, pos=None) -> int:
    """Integer division truncating toward zero."""
    if b == 0:
        raise RuntimeFault("division by zero", pos)
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def c_mod(a: int, b: int, pos=None) -> int:
    """Remainder matching truncating division: a == c_div(a,b)*b + c_mod(a,b)."""
    if b == 0:
        raise RuntimeFault("modulo by zero", pos)
    return a - c_div(a, b) * b


class Wave:
    """In-flight bookkeeping for one cascade (rule 3 skip set)."""

    def __init__(self):
        self.depth = 0
        self.in_flight: set[int] = set()  # id() of cells assigned by resolution

    def enter(self):
        self.depth += 1

    def exit(self):
        self.depth -= 1
        if self.depth == 0:
            self.in_flight.clear()

    def skip(self, cell) -> bool:
        return id(cell) in self.in_flight

    def mark(self, cell):
        self.in_flight.add(id(cell))
