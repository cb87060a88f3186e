"""L-value redefinition graphs.

Canonical strings follow the l-value grammar concatenation rules; substring
containment is tested at token granularity, so the identifier `i` never
matches inside `ii`, only inside larger l-values that contain the whole
token (`p[i]`).  For class members the canonical form carries the owner
cast prefix `((A*)owner)->m`, keeping members of distinct classes apart.
A node is keyed by its canonical string alone: a member's names its class,
and any other l-value is one node wherever it is read, from a class scope
or from file scope.

Every redefinition edge runs from a proper token sub-list of its target (an
l-value is redefined by its constituents), so the graph has no cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast
from .types import is_assignable_storage


# ------------------------------------------------------------------ nodes

@dataclass(eq=False, slots=True)
class LvNode:
    tokens: tuple[str, ...]
    expr: ast.Expr             # representative typed occurrence
    redef: list["LvNode"] = field(default_factory=list)
    dependents: list["LvNode"] = field(default_factory=list)
    str: str = field(init=False)  # the canonical string, joined once

    def __post_init__(self):
        self.str = "".join(self.tokens)

    @property
    def assignable(self) -> bool:
        return self.expr.ty is not None and is_assignable_storage(self.expr.ty)

    def __repr__(self):
        return f"LvNode({self.str!r})"


def proper_sublist(a: tuple, b: tuple) -> bool:
    """True when a is a contiguous sub-sequence of b strictly shorter than b."""
    if len(a) >= len(b):
        return False
    return any(b[i:i + len(a)] == a for i in range(len(b) - len(a) + 1))


def merge(a: list[LvNode], b: list[LvNode]) -> list[LvNode]:
    """Concatenate two l-value lists, dropping elements reduced from
    substrings (including equality) of other elements.  Each list is itself
    such a result, so with one of them empty the other is the answer."""
    if not a or not b:
        return a or b
    items = []
    for n in a + b:
        # equality drop: keep the first occurrence of a token string
        if not any(m.tokens == n.tokens for m in items):
            items.append(n)
    return [n for n in items
            if not any(m is not n and proper_sublist(n.tokens, m.tokens) for m in items)]


# -------------------------------------------------------- per-construct info

@dataclass(slots=True)
class ConstructLvs:
    """Top-level l-values of one declarative construct."""

    construct: ast.Construct
    lhs: LvNode | None = None          # constraint / monitor left side
    rhs_lvs: list[LvNode] = field(default_factory=list)   # constraint right side
    cond_lvs: list[LvNode] = field(default_factory=list)  # precondition trigger side
    cond_str: str = ""                 # precondition condition, canonical


class RedefGraph:
    """Node table plus redefinition adjacency for one translation unit."""

    def __init__(self):
        self.nodes: dict[str, LvNode] = {}    # by canonical string
        self.constructs: dict[int, ConstructLvs] = {}

    def intern(self, tokens, expr, redef) -> LvNode:
        key = "".join(tokens)
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = LvNode(tuple(tokens), expr, list(redef))
            for r in node.redef:
                if node not in r.dependents:
                    r.dependents.append(node)
        return node

    def edges(self) -> list[tuple[LvNode, LvNode]]:
        """All (redefining, redefined) pairs, deterministic order."""
        out = []
        for node in self.nodes.values():
            for r in node.redef:
                out.append((r, node))
        return out


# ----------------------------------------------------------- canonicalization

def analyze(g: RedefGraph, e: ast.Expr) -> tuple[list[str], list[LvNode]]:
    """The canonical token string and l-value list of a typed expression,
    interning its l-values' redefinition-graph nodes in g."""
    if isinstance(e, ast.Name):
        if e.binding is not None and e.binding[0] == "member":
            tokens = ["(", "(", e.binding[1], "*", ")", "owner", ")", "->", e.name]
        else:
            tokens = [e.name]
        return tokens, [g.intern(tokens, e, [])]
    if isinstance(e, ast.Deref):
        t, lvs = analyze(g, e.operand)
        tokens = ["*"] + t
        return tokens, [g.intern(tokens, e, lvs)]
    if isinstance(e, ast.Index):
        t1, l1 = analyze(g, e.base)
        t2, l2 = analyze(g, e.index)
        tokens = t1 + ["["] + t2 + ["]"]
        return tokens, [g.intern(tokens, e, merge(l1, l2))]
    if isinstance(e, ast.Dot):
        t, lvs = analyze(g, e.obj)
        tokens = t + [".", e.member]
        return tokens, [g.intern(tokens, e, lvs)]
    if isinstance(e, ast.Arrow):
        t, lvs = analyze(g, e.obj)
        tokens = t + ["->", e.member]
        return tokens, [g.intern(tokens, e, lvs)]
    # non-l-value expression forms
    if isinstance(e, ast.IntLit):
        return [str(e.value)], []
    if isinstance(e, ast.BoolLit):
        return ["true" if e.value else "false"], []
    if isinstance(e, ast.NullLit):
        return ["null"], []
    if isinstance(e, (ast.Unary, ast.AddrOf)):
        op = "&" if isinstance(e, ast.AddrOf) else e.op
        t, lvs = analyze(g, e.operand)
        return [op] + t, lvs
    if isinstance(e, ast.Binary):
        t1, l1 = analyze(g, e.left)
        t2, l2 = analyze(g, e.right)
        return t1 + [e.op] + t2, merge(l1, l2)
    # a call: a free function's name is not an l-value (contract.py), a
    # method's callee denotes its object's cell
    callee = e.callee
    if callee.__class__ is ast.Name and callee.binding[0] == "func":
        tokens, lvs = [callee.name, "("], []
    else:
        t, lvs = analyze(g, callee)
        tokens = t + ["("]
    for k, a in enumerate(e.args):
        ta, la = analyze(g, a)
        if k:
            tokens.append(",")
        tokens += ta
        lvs = merge(lvs, la)
    tokens.append(")")
    return tokens, lvs


# ------------------------------------------------------------------ building

def build_graph(unit: ast.Unit) -> RedefGraph:
    """Materialize the redefinition graph for every declarative construct of a
    checked unit.  Guard expressions are deliberately excluded: guards gate
    constraint application, they never trigger it."""
    g = RedefGraph()
    for c in unit.constructs:
        info = ConstructLvs(c)
        if isinstance(c, ast.Constraint):
            _, lvs = analyze(g, c.lhs)
            info.lhs = lvs[0]
            _, info.rhs_lvs = analyze(g, c.rhs)
        elif isinstance(c, ast.Monitor):
            _, lvs = analyze(g, c.lhs)
            info.lhs = lvs[0]
        elif isinstance(c, ast.Precond):
            tokens, info.cond_lvs = analyze(g, c.cond)
            info.cond_str = "".join(tokens)
        g.constructs[c.ordinal] = info
    return g


def to_dot(g: RedefGraph) -> str:
    """Graphviz digraph; edge direction is redefining -> redefined."""
    lines = ["digraph redef {"]
    for node in g.nodes.values():
        lines.append(f'    "{node.str}";')
    for src, dst in g.edges():
        lines.append(f'    "{src.str}" -> "{dst.str}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
