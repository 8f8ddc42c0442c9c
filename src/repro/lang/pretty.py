"""Pretty printer for the object language.

Emits concrete syntax that re-parses to the same AST (a property the test
suite checks exhaustively).  Residual programs are written to disk through
this printer, so it is also the back end of the specialiser.
"""

from repro.lang.ast import App, Call, If, Lam, Lit, Prim, Var
from repro.lang.prims import PRIMS

# Precedence levels, mirroring the parser: 0 wraps nothing (top level,
# bodies of lambda/if); 8 is atom position.
_ATOM = 8
_JUXT_ARG = 8
_JUXT = 7.5  # a juxtaposition binds tighter than '@' but is not an atom


def pretty_expr(expr, prec=0):
    """Render ``expr``; parenthesise if its precedence is below ``prec``."""
    if isinstance(expr, Lit):
        return _lit(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Lam):
        body = "\\%s -> %s" % (expr.var, pretty_expr(expr.body, 0))
        return _wrap(body, 0, prec)
    if isinstance(expr, If):
        text = "if %s then %s else %s" % (
            pretty_expr(expr.cond, 0),
            pretty_expr(expr.then_branch, 0),
            pretty_expr(expr.else_branch, 0),
        )
        return _wrap(text, 0, prec)
    if isinstance(expr, App):
        text = "%s @ %s" % (pretty_expr(expr.fun, 7), pretty_expr(expr.arg, 7.5))
        return _wrap(text, 7, prec)
    if isinstance(expr, Call):
        if not expr.args:
            return expr.func
        text = "%s %s" % (
            expr.func,
            " ".join(pretty_expr(a, _JUXT_ARG) for a in expr.args),
        )
        return _wrap(text, _JUXT, prec)
    if isinstance(expr, Prim):
        return _prim(expr, prec)
    raise TypeError("not an expression: %r" % (expr,))


def _prim(expr, prec):
    info = PRIMS[expr.op]
    if info.infix and len(expr.args) == 2:
        p = info.precedence
        if info.assoc == "left":
            left_p, right_p = p, p + 1
        elif info.assoc == "right":
            left_p, right_p = p + 1, p
        else:
            left_p, right_p = p + 1, p + 1
        text = "%s %s %s" % (
            pretty_expr(expr.args[0], left_p),
            info.infix,
            pretty_expr(expr.args[1], right_p),
        )
        return _wrap(text, p, prec)
    text = "%s %s" % (
        expr.op,
        " ".join(pretty_expr(a, _JUXT_ARG) for a in expr.args),
    )
    if not expr.args:
        text = expr.op
        return text
    return _wrap(text, _JUXT, prec)


def _lit(value):
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value == ():
        return "nil"
    return str(value)


def _wrap(text, actual, required):
    if actual < required:
        return "(%s)" % text
    return text


def pretty_def(d):
    """Render one definition as a single source line."""
    head = d.name if not d.params else "%s %s" % (d.name, " ".join(d.params))
    return "%s = %s" % (head, pretty_expr(d.body))


def pretty_module(m):
    """Render a module, imports first, one definition per line."""
    header = m.name
    if m.params:
        header += "(%s)" % ", ".join("%s %d" % (n, a) for n, a in m.params)
    lines = ["module %s where" % header]
    for imp in m.imports:
        lines.append("import %s" % imp)
    if m.defs:
        lines.append("")
    for d in m.defs:
        lines.append(pretty_def(d))
    return "\n".join(lines) + "\n"


def pretty_program(p):
    """Render a whole program, modules separated by blank lines."""
    return "\n".join(pretty_module(m) for m in p.modules)
