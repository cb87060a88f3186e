"""HybridC type objects and the assignment-compatibility table."""

from __future__ import annotations

from dataclasses import dataclass


class Type:
    pass


@dataclass(frozen=True)
class Scalar(Type):
    name: str  # "int" | "bool" | "void"

    def __str__(self):
        return self.name


INT = Scalar("int")
BOOL = Scalar("bool")
VOID = Scalar("void")


@dataclass(frozen=True)
class Ptr(Type):
    pointee: Type

    def __str__(self):
        return f"{self.pointee}*"


@dataclass(frozen=True)
class Array(Type):
    elem: Type
    size: int

    def __str__(self):
        return f"{self.elem}[{self.size}]"


@dataclass(frozen=True)
class ClassType(Type):
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class FuncType(Type):
    ret: Type
    params: tuple
    cls: str | None = None  # owning class for methods

    def __str__(self):
        args = ", ".join(str(p) for p in self.params)
        return f"{self.ret}({args})"


# Scalar conversion table: which scalar may be assigned from which.  The
# language deliberately has no implicit int/bool conversions.
SCALAR_ASSIGNABLE = {
    ("int", "int"): True,
    ("int", "bool"): False,
    ("bool", "int"): False,
    ("bool", "bool"): True,
}


def assign_compatible(dst: Type, src: Type) -> bool:
    """True when a value of type src may be stored into storage of type dst."""
    if isinstance(dst, Scalar) and isinstance(src, Scalar):
        return SCALAR_ASSIGNABLE.get((dst.name, src.name), False)
    if isinstance(dst, Ptr):
        if src == NULL_T:
            return True
        return dst == src
    return False


# The type of the `null` literal; assignable to any pointer.
NULL_T = Ptr(VOID)


def is_assignable_storage(t: Type) -> bool:
    """Types whose storage can be written by an assignment."""
    return t in (INT, BOOL) or isinstance(t, Ptr)


def make_type(base: str, ptr_depth: int, array_size=None) -> Type:
    if base == "int":
        t: Type = INT
    elif base == "bool":
        t = BOOL
    elif base == "void":
        t = VOID
    else:
        t = ClassType(base)
    for _ in range(ptr_depth):
        t = Ptr(t)
    if array_size is not None:
        t = Array(t, array_size)
    return t
