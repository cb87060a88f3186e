"""L-value redefinition graphs.

Canonical strings follow the l-value grammar concatenation rules; substring
containment is tested at token granularity, so the identifier `i` never
matches inside `ii`, only inside larger l-values that contain the whole
token (`p[i]`).  For class members the canonical form carries the owner
cast prefix `((A*)owner)->m`, keeping members of distinct classes apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast
from .types import is_assignable_storage


# ------------------------------------------------------------------ nodes

@dataclass(eq=False, slots=True)
class LvNode:
    scope: str | None          # None = file scope, else class name
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
        self.nodes: dict[tuple, LvNode] = {}
        self.constructs: dict[int, ConstructLvs] = {}

    def intern(self, scope, tokens, expr, redef) -> LvNode:
        key = (scope, "".join(tokens))
        node = self.nodes.get(key)
        if node is None:
            node = LvNode(scope, tuple(tokens), expr, list(redef))
            self.nodes[key] = node
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

class Analyzer:
    """Computes canonical token strings and l-value lists over typed
    expressions, interning redefinition-graph nodes along the way."""

    def __init__(self, graph: RedefGraph, scope: str | None):
        self.graph = graph
        self.scope = scope

    def node_scope(self, tokens) -> str | None:
        # instance-relative l-values live in the class scope, all others are global
        if self.scope is not None and "owner" in tokens:
            return self.scope
        return None

    def analyze(self, e: ast.Expr) -> tuple[list[str], list[LvNode]]:
        if isinstance(e, ast.Name):
            if e.binding is not None and e.binding[0] == "member":
                cls = e.binding[1]
                tokens = ["(", "(", cls, "*", ")", "owner", ")", "->", e.name]
            else:
                tokens = [e.name]
            node = self.graph.intern(self.node_scope(tokens), tokens, e, [])
            return tokens, [node]
        if isinstance(e, ast.Deref):
            t, lvs = self.analyze(e.operand)
            tokens = ["*"] + t
            node = self.graph.intern(self.node_scope(tokens), tokens, e, lvs)
            return tokens, [node]
        if isinstance(e, ast.Index):
            t1, l1 = self.analyze(e.base)
            t2, l2 = self.analyze(e.index)
            tokens = t1 + ["["] + t2 + ["]"]
            node = self.graph.intern(self.node_scope(tokens), tokens, e, merge(l1, l2))
            return tokens, [node]
        if isinstance(e, ast.Dot):
            t, lvs = self.analyze(e.obj)
            tokens = t + [".", e.member]
            node = self.graph.intern(self.node_scope(tokens), tokens, e, lvs)
            return tokens, [node]
        if isinstance(e, ast.Arrow):
            t, lvs = self.analyze(e.obj)
            tokens = t + ["->", e.member]
            node = self.graph.intern(self.node_scope(tokens), tokens, e, lvs)
            return tokens, [node]
        # non-l-value expression forms
        if isinstance(e, ast.IntLit):
            return [str(e.value)], []
        if isinstance(e, ast.BoolLit):
            return ["true" if e.value else "false"], []
        if isinstance(e, ast.NullLit):
            return ["null"], []
        if isinstance(e, (ast.Unary, ast.AddrOf)):
            op = "&" if isinstance(e, ast.AddrOf) else e.op
            t, lvs = self.analyze(e.operand)
            return [op] + t, lvs
        if isinstance(e, ast.Binary):
            t1, l1 = self.analyze(e.left)
            t2, l2 = self.analyze(e.right)
            return t1 + [e.op] + t2, merge(l1, l2)
        if isinstance(e, ast.Call):
            t, lvs = self.analyze(e.callee)
            tokens = t + ["("]
            for k, a in enumerate(e.args):
                ta, la = self.analyze(a)
                if k:
                    tokens.append(",")
                tokens += ta
                lvs = merge(lvs, la)
            tokens.append(")")
            return tokens, lvs
        raise TypeError(f"unknown expression {type(e).__name__}")


# ------------------------------------------------------------------ building

def build_graph(unit: ast.Unit) -> RedefGraph:
    """Materialize the redefinition graph for every declarative construct of a
    checked unit.  Guard expressions are deliberately excluded: guards gate
    constraint application, they never trigger it."""
    g = RedefGraph()
    for c in unit.constructs:
        an = Analyzer(g, c.scope)
        info = ConstructLvs(c)
        if isinstance(c, ast.Constraint):
            _, lvs = an.analyze(c.lhs)
            info.lhs = lvs[0]
            _, info.rhs_lvs = an.analyze(c.rhs)
        elif isinstance(c, ast.Monitor):
            _, lvs = an.analyze(c.lhs)
            info.lhs = lvs[0]
        elif isinstance(c, ast.Precond):
            tokens, info.cond_lvs = an.analyze(c.cond)
            info.cond_str = "".join(tokens)
        g.constructs[c.ordinal] = info
    return g


def dependents_closure(g: RedefGraph, node: LvNode) -> list[LvNode]:
    """All nodes reachable over dependents edges, preorder DFS, node excluded."""
    out, seen = [], {id(node)}

    def walk(n):
        for d in n.dependents:
            if id(d) not in seen:
                seen.add(id(d))
                out.append(d)
                walk(d)

    walk(node)
    return out


def check_acyclic(g: RedefGraph):
    """Returns None for acyclic graphs, else one offending node sequence."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {id(n): WHITE for n in g.nodes.values()}
    stack_path: list[LvNode] = []

    def visit(n) -> list[LvNode] | None:
        color[id(n)] = GREY
        stack_path.append(n)
        for d in n.dependents:
            if color[id(d)] == GREY:
                i = next(k for k, m in enumerate(stack_path) if m is d)
                return stack_path[i:] + [d]
            if color[id(d)] == WHITE:
                cycle = visit(d)
                if cycle is not None:
                    return cycle
        stack_path.pop()
        color[id(n)] = BLACK
        return None

    for n in g.nodes.values():
        if color[id(n)] == WHITE:
            cycle = visit(n)
            if cycle is not None:
                return cycle
    return None


def to_dot(g: RedefGraph) -> str:
    """Graphviz digraph; edge direction is redefining -> redefined."""
    lines = ["digraph redef {"]
    for node in g.nodes.values():
        lines.append(f'    "{node.str}";')
    for src, dst in g.edges():
        lines.append(f'    "{src.str}" -> "{dst.str}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
