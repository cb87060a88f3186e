"""Run-time values of the vm: storage blocks, cell and object pointers,
object instances, and how a stored value renders in traces and memory
snapshots.  A function is no value: a call binds its callee's declaration."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NOPOS, RuntimeFault
from .runtime import Cell, ObjectHeader


@dataclass(eq=False)
class Block:
    name: str
    cells: list[Cell]


class CellPtr:
    """Pointer to a storage cell (element of a block)."""

    __slots__ = ("block", "offset")

    def __init__(self, block: Block, offset: int):
        self.block = block
        self.offset = offset

    def __eq__(self, other):
        return (isinstance(other, CellPtr) and other.block is self.block
                and other.offset == self.offset)

    def deref(self, pos=NOPOS) -> Cell:
        if not (0 <= self.offset < len(self.block.cells)):
            raise RuntimeFault(f"pointer outside storage '{self.block.name}'", pos)
        return self.block.cells[self.offset]


def address(cell: Cell) -> CellPtr:
    """A pointer to cell.  A scalar's one-cell block is made here, the first
    time its address is taken, and kept, so its pointers compare equal."""
    block = cell.block
    if block is None:
        block = cell.block = Block(cell.name, [cell])
    return CellPtr(block, cell.index)


class ObjPtr:
    __slots__ = ("instance",)

    def __init__(self, instance):
        self.instance = instance

    def __eq__(self, other):
        return isinstance(other, ObjPtr) and other.instance is self.instance


class Instance:
    """An object: its members by name (a Cell or a nested Instance) and its
    own cell, whose value is the object."""

    __slots__ = ("cls", "name", "header", "obj_cell", "members")

    def __init__(self, cls: str, name: str):
        self.cls = cls
        self.name = name
        self.header = ObjectHeader()
        self.obj_cell = Cell(name, self)
        self.members: dict = {}


def value_str(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        try:
            return str(v)
        except ValueError:  # past the interpreter's int-to-str digit limit
            return hex(v)
    if isinstance(v, CellPtr):
        try:
            return "&" + v.deref().name
        except RuntimeFault:
            return f"&{v.block.name}[{v.offset}]"
    return "&" + v.instance.name  # an ObjPtr
