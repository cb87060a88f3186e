"""Pretty-printer for HybridC syntax trees.

Re-parsing the printed text yields a structurally identical tree; the printer
is also used to embed user expressions and statements in rendered lowered code.
"""

from . import ast

_PREC = {
    "||": 1, "&&": 2, "==": 3, "!=": 3,
    "<": 4, ">": 4, "<=": 4, ">=": 4,
    "+": 5, "-": 5, "*": 6, "/": 6, "%": 6,
}
_UNARY_PREC = 7
_POSTFIX_PREC = 9


def expr_str(e, parent_prec=0) -> str:
    s, prec = _expr(e)
    if prec < parent_prec:
        return f"({s})"
    return s


def _expr(e):
    if isinstance(e, ast.IntLit):
        return str(e.value), _POSTFIX_PREC
    if isinstance(e, ast.BoolLit):
        return ("true" if e.value else "false"), _POSTFIX_PREC
    if isinstance(e, ast.NullLit):
        return "null", _POSTFIX_PREC
    if isinstance(e, ast.Name):
        return e.name, _POSTFIX_PREC
    if isinstance(e, ast.Deref):
        return "*" + expr_str(e.operand, _UNARY_PREC), _UNARY_PREC
    if isinstance(e, ast.AddrOf):
        return "&" + expr_str(e.operand, _UNARY_PREC), _UNARY_PREC
    if isinstance(e, ast.Unary):
        return e.op + expr_str(e.operand, _UNARY_PREC), _UNARY_PREC
    if isinstance(e, ast.Binary):
        p = _PREC[e.op]
        return (f"{expr_str(e.left, p)} {e.op} {expr_str(e.right, p + 1)}"), p
    if isinstance(e, ast.Call):
        args = ", ".join(expr_str(a) for a in e.args)
        return f"{expr_str(e.callee, _POSTFIX_PREC)}({args})", _POSTFIX_PREC
    if isinstance(e, ast.Index):
        return f"{expr_str(e.base, _POSTFIX_PREC)}[{expr_str(e.index)}]", _POSTFIX_PREC
    if isinstance(e, ast.Dot):
        return f"{expr_str(e.obj, _POSTFIX_PREC)}.{e.member}", _POSTFIX_PREC
    if isinstance(e, ast.Arrow):
        return f"{expr_str(e.obj, _POSTFIX_PREC)}->{e.member}", _POSTFIX_PREC
    raise TypeError(f"unknown expression node {type(e).__name__}")


def _type_str(base, depth):
    return base + "*" * depth


def _decl_str(d: ast.VarDecl) -> str:
    s = f"{_type_str(d.base_type, 0)} {'*' * d.ptr_depth}{d.name}"
    if d.array_size is not None:
        s += f"[{d.array_size}]"
    if d.init is not None:
        s += f" = {expr_str(d.init)}"
    return s + ";"


def stmt_lines(s, indent=0):
    pad = "    " * indent
    if isinstance(s, ast.Block):
        lines = [pad + "{"]
        for st in s.stmts:
            lines.extend(stmt_lines(st, indent + 1))
        lines.append(pad + "}")
        return lines
    if isinstance(s, ast.VarDecl):
        return [pad + _decl_str(s)]
    if isinstance(s, ast.Assign):
        return [pad + f"{expr_str(s.target)} = {expr_str(s.value)};"]
    if isinstance(s, ast.ExprStmt):
        return [pad + expr_str(s.expr) + ";"]
    if isinstance(s, ast.If):
        lines = [pad + f"if ({expr_str(s.cond)})"]
        lines.extend(stmt_lines(s.then, indent + 1))
        if s.orelse is not None:
            lines.append(pad + "else")
            lines.extend(stmt_lines(s.orelse, indent + 1))
        return lines
    if isinstance(s, ast.While):
        lines = [pad + f"while ({expr_str(s.cond)})"]
        lines.extend(stmt_lines(s.body, indent + 1))
        return lines
    if isinstance(s, ast.Return):
        if s.value is None:
            return [pad + "return;"]
        return [pad + f"return {expr_str(s.value)};"]
    raise TypeError(f"unknown statement node {type(s).__name__}")


def construct_lines(c, indent=0):
    pad = "    " * indent
    if isinstance(c, ast.Constraint):
        s = f"{expr_str(c.lhs)} := {expr_str(c.rhs)}"
        if c.guard is not None:
            s += f" given {expr_str(c.guard)}"
        return [pad + s + ";"]
    if isinstance(c, ast.Monitor):
        lines = [pad + f"{expr_str(c.lhs)} ::="]
        lines.extend(stmt_lines(c.body, indent))
        return lines
    if isinstance(c, ast.Precond):
        lines = [pad + f"{expr_str(c.cond)} ??"]
        lines.extend(stmt_lines(c.body, indent))
        return lines
    raise TypeError(f"unknown construct node {type(c).__name__}")


def _func_lines(f: ast.FuncDecl, indent=0):
    pad = "    " * indent
    params = ", ".join(f"{p.base_type} {'*' * p.ptr_depth}{p.name}" for p in f.params)
    lines = [pad + f"{f.ret_type} {'*' * f.ret_ptr_depth}{f.name}({params})"]
    lines.extend(stmt_lines(f.body, indent))
    return lines


def unit_str(u: ast.Unit) -> str:
    lines = []
    for d in u.decls:
        if isinstance(d, ast.VarDecl):
            lines.append(_decl_str(d))
        elif isinstance(d, ast.FuncDecl):
            lines.extend(_func_lines(d))
        elif isinstance(d, ast.ClassDecl):
            lines.append(f"class {d.name} {{")
            lines.append("private:")
            for m in d.members:
                lines.extend(["    " + _decl_str(m)])
            lines.append("public:")
            for f in d.methods:
                lines.extend(_func_lines(f, 1))
            for c in d.constructs:
                lines.extend(construct_lines(c, 1))
            lines.append("};")
        elif isinstance(d, ast.Construct):
            lines.extend(construct_lines(d))
        else:
            raise TypeError(f"unknown declaration node {type(d).__name__}")
    return "\n".join(lines) + "\n"
