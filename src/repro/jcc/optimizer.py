"""AST-level optimisation passes: fold, unroll, vectorise, parallelise.

These run after sema (types are annotated) and before code generation.
They exist to reproduce the binary idioms the paper's section on "handling
optimised binaries" wrestles with: unrolled bodies, vectorised main loops
with scalar tail peels, multiversioned pointer loops, and — for the Fig. 11
baselines — compiler auto-parallelisation via an OpenMP-style runtime call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.jcc import ast


@dataclass
class CountableLoop:
    """A for-loop of the canonical shape ``for (i = L; i < U; i += 1)``."""

    iter_name: str
    start: ast.Expr
    bound: ast.Expr
    inclusive: bool  # <= instead of <


def match_countable(loop: ast.For) -> CountableLoop | None:
    """Match unit-step upward countable loops (the transformable shape)."""
    init = loop.init
    if isinstance(init, ast.DeclStmt) and init.type == "int" \
            and init.init is not None:
        name = init.name
        start = init.init
    elif isinstance(init, ast.Assign) and init.op == "=" \
            and isinstance(init.target, ast.Name) \
            and init.target.type == "int":
        name = init.target.ident
        start = init.value
    else:
        return None
    cond = loop.cond
    if not (isinstance(cond, ast.Binary) and cond.op in ("<", "<=")
            and isinstance(cond.left, ast.Name)
            and cond.left.ident == name):
        return None
    step = loop.step
    if not (isinstance(step, ast.Assign)
            and isinstance(step.target, ast.Name)
            and step.target.ident == name):
        return None
    if step.op == "+=" and isinstance(step.value, ast.IntLit) \
            and step.value.value == 1:
        pass
    elif step.op == "=" and isinstance(step.value, ast.Binary) \
            and step.value.op == "+" \
            and isinstance(step.value.left, ast.Name) \
            and step.value.left.ident == name \
            and isinstance(step.value.right, ast.IntLit) \
            and step.value.right.value == 1:
        pass
    else:
        return None
    return CountableLoop(iter_name=name, start=start, bound=cond.right,
                         inclusive=(cond.op == "<="))


def _assigns_to(body: list, name: str) -> bool:
    found = False

    def visit(statement):
        nonlocal found
        if isinstance(statement, ast.Assign) \
                and isinstance(statement.target, ast.Name) \
                and statement.target.ident == name:
            found = True
        for child in _child_statements(statement):
            visit(child)

    for statement in body:
        visit(statement)
    return found


def _child_statements(statement):
    if isinstance(statement, ast.If):
        return statement.then_body + statement.else_body
    if isinstance(statement, (ast.While,)):
        return statement.body
    if isinstance(statement, ast.For):
        children = list(statement.body)
        if statement.init is not None:
            children.append(statement.init)
        if statement.step is not None:
            children.append(statement.step)
        return children
    return []


def _contains_control(body: list, kinds) -> bool:
    for statement in body:
        if isinstance(statement, kinds):
            return True
        if _contains_control(_child_statements(statement), kinds):
            return True
    return False


def _substitute(expr, name: str, replacement):
    """expr with every Name(name) replaced (returns a deep copy)."""
    expr = ast.clone(expr)

    def visit(node):
        if isinstance(node, ast.Binary):
            node.left = visit(node.left)
            node.right = visit(node.right)
        elif isinstance(node, ast.Unary):
            node.operand = visit(node.operand)
        elif isinstance(node, ast.Cast):
            node.operand = visit(node.operand)
        elif isinstance(node, ast.Index):
            node.base = visit(node.base)
            node.index = visit(node.index)
        elif isinstance(node, ast.Call):
            node.args = [visit(a) for a in node.args]
        elif isinstance(node, ast.Name) and node.ident == name:
            clone = ast.clone(replacement)
            return clone
        return node

    return visit(expr)


def _offset_iter(expr, name: str, offset: int):
    """expr with ``name`` replaced by ``name + offset``."""
    if offset == 0:
        return ast.clone(expr)
    plus = ast.Binary(op="+", left=ast.Name(ident=name),
                      right=ast.IntLit(value=offset))
    plus.left.type = "int"
    plus.right.type = "int"
    plus.type = "int"
    return _substitute(expr, name, plus)


# -- constant folding ---------------------------------------------------------------


def fold_expr(expr):
    """Bottom-up constant folding (ints and doubles)."""
    if isinstance(expr, ast.Binary):
        expr.left = fold_expr(expr.left)
        expr.right = fold_expr(expr.right)
        if isinstance(expr.left, ast.IntLit) \
                and isinstance(expr.right, ast.IntLit):
            left, right = expr.left.value, expr.right.value
            table = {"+": lambda: left + right, "-": lambda: left - right,
                     "*": lambda: left * right,
                     "/": lambda: int(left / right) if right else None,
                     "%": lambda: left - int(left / right) * right
                     if right else None,
                     "<<": lambda: left << (right & 63),
                     ">>": lambda: left >> (right & 63)}
            fn = table.get(expr.op)
            if fn is not None:
                value = fn()
                if value is not None:
                    lit = ast.IntLit(value=value)
                    lit.type = "int"
                    return lit
        if isinstance(expr.left, ast.FloatLit) \
                and isinstance(expr.right, ast.FloatLit):
            left, right = expr.left.value, expr.right.value
            table = {"+": left + right, "-": left - right,
                     "*": left * right}
            if expr.op in table:
                lit = ast.FloatLit(value=table[expr.op])
                lit.type = "double"
                return lit
    elif isinstance(expr, ast.Unary):
        expr.operand = fold_expr(expr.operand)
        if expr.op == "-" and isinstance(expr.operand, ast.IntLit):
            lit = ast.IntLit(value=-expr.operand.value)
            lit.type = "int"
            return lit
        if expr.op == "-" and isinstance(expr.operand, ast.FloatLit):
            lit = ast.FloatLit(value=-expr.operand.value)
            lit.type = "double"
            return lit
    elif isinstance(expr, ast.Cast):
        expr.operand = fold_expr(expr.operand)
        if isinstance(expr.operand, ast.IntLit) and expr.target == "double":
            lit = ast.FloatLit(value=float(expr.operand.value))
            lit.type = "double"
            return lit
    elif isinstance(expr, ast.Index):
        expr.index = fold_expr(expr.index)
    elif isinstance(expr, ast.Call):
        expr.args = [fold_expr(a) for a in expr.args]
    return expr


def fold_constants(program: ast.Program) -> None:
    def fold_statement(statement) -> None:
        if isinstance(statement, ast.DeclStmt) and statement.init:
            statement.init = fold_expr(statement.init)
        elif isinstance(statement, ast.Assign):
            statement.value = fold_expr(statement.value)
            if isinstance(statement.target, ast.Index):
                statement.target.index = fold_expr(statement.target.index)
        elif isinstance(statement, ast.ExprStmt):
            statement.expr = fold_expr(statement.expr)
        elif isinstance(statement, ast.If):
            statement.cond = fold_expr(statement.cond)
        elif isinstance(statement, ast.While):
            statement.cond = fold_expr(statement.cond)
        elif isinstance(statement, ast.For):
            if statement.cond is not None:
                statement.cond = fold_expr(statement.cond)
        elif isinstance(statement, ast.Return) and statement.value:
            statement.value = fold_expr(statement.value)
        for child in _child_statements(statement):
            fold_statement(child)

    for fn in program.functions:
        for statement in fn.body:
            fold_statement(statement)


# -- vectorisation --------------------------------------------------------------------


def _vectorisable_assign(statement, iter_name: str, body: list) -> bool:
    """a[i] op= expr where expr uses only b[i] doubles, literals, and
    loop-invariant scalar doubles."""
    if not isinstance(statement, ast.Assign):
        return False
    if statement.op not in ("=", "+=", "-=", "*=", "/="):
        return False
    target = statement.target
    if not (isinstance(target, ast.Index) and target.type == "double"
            and isinstance(target.index, ast.Name)
            and target.index.ident == iter_name
            and isinstance(target.base, ast.Name)):
        return False

    def check(expr) -> bool:
        if isinstance(expr, ast.Index):
            return (expr.type == "double"
                    and isinstance(expr.index, ast.Name)
                    and expr.index.ident == iter_name
                    and isinstance(expr.base, ast.Name))
        if isinstance(expr, ast.FloatLit):
            return True
        if isinstance(expr, ast.Name):
            return (expr.type == "double" and expr.ident != iter_name
                    and not _assigns_to(body, expr.ident))
        if isinstance(expr, ast.Binary) and expr.op in "+-*/":
            return check(expr.left) and check(expr.right)
        return False

    return check(statement.value)


def try_vectorize(loop: ast.For, lanes: int) -> list | None:
    """Vectorised main loop + scalar tail, or None if ineligible."""
    if getattr(loop, "no_vectorize", False):
        return None  # the slow copy of a multiversioned loop stays scalar
    countable = match_countable(loop)
    if countable is None or countable.inclusive:
        return None
    body = loop.body
    if not body or not all(
            _vectorisable_assign(s, countable.iter_name, body)
            for s in body):
        return None
    # The target arrays must not also be read at a different index by any
    # other statement -- with only a[i]-shaped accesses that cannot happen.
    # The iterator's declaration/assignment must still happen: keep the
    # original init statement, then let the vector loop read/advance it.
    start_ref = ast.Name(ident=countable.iter_name)
    start_ref.type = "int"
    vec = ast.VecFor(iter_name=countable.iter_name,
                     start=start_ref,
                     bound=ast.clone(countable.bound),
                     lanes=lanes,
                     body=ast.clone(body))
    # Scalar tail: continue from wherever the vector loop stopped.
    tail = ast.For(init=None, cond=ast.clone(loop.cond),
                   step=ast.clone(loop.step),
                   body=ast.clone(body))
    return [ast.clone(loop.init), vec, tail]


# -- unrolling -------------------------------------------------------------------------


def try_unroll(loop: ast.For, factor: int) -> list | None:
    """Unrolled main loop + remainder loop, or None if ineligible."""
    countable = match_countable(loop)
    if countable is None or countable.inclusive or factor < 2:
        return None
    body = loop.body
    if _contains_control(body, (ast.Break, ast.Continue, ast.Return,
                                ast.For, ast.While, ast.VecFor)):
        return None
    if _assigns_to(body, countable.iter_name):
        return None
    if len(body) > 6:
        return None
    name = countable.iter_name

    unrolled_body: list = []
    for k in range(factor):
        for statement in body:
            unrolled_body.append(_offset_statement(statement, name, k))
    main_cond = ast.Binary(
        op="<",
        left=ast.Name(ident=name),
        right=ast.Binary(op="-", left=ast.clone(countable.bound),
                         right=ast.IntLit(value=factor - 1)))
    main_cond.left.type = "int"
    main_cond.right.type = "int"
    main_cond.right.left.type = "int"
    main_cond.right.right.type = "int"
    main_cond.type = "int"
    main_step = ast.Assign(target=ast.Name(ident=name), op="+=",
                           value=ast.IntLit(value=factor))
    main_step.target.type = "int"
    main_step.value.type = "int"
    main = ast.For(init=ast.clone(loop.init), cond=main_cond,
                   step=main_step, body=unrolled_body)
    tail = ast.For(init=None, cond=ast.clone(loop.cond),
                   step=ast.clone(loop.step),
                   body=ast.clone(body))
    return [main, tail]


def _offset_statement(statement, name: str, offset: int):
    clone = ast.clone(statement)
    if isinstance(clone, ast.Assign):
        if isinstance(clone.target, ast.Index):
            clone.target.index = _offset_iter(clone.target.index, name,
                                              offset)
        clone.value = _offset_iter(clone.value, name, offset)
    elif isinstance(clone, ast.ExprStmt):
        clone.expr = _offset_iter(clone.expr, name, offset)
    elif isinstance(clone, ast.If):
        clone.cond = _offset_iter(clone.cond, name, offset)
        clone.then_body = [_offset_statement(s, name, offset)
                           for s in clone.then_body]
        clone.else_body = [_offset_statement(s, name, offset)
                           for s in clone.else_body]
    elif isinstance(clone, ast.DeclStmt) and clone.init is not None:
        clone.init = _offset_iter(clone.init, name, offset)
    return clone


# -- multiversioning (icc personality) ---------------------------------------------------


def try_multiversion(fn: ast.Function, loop: ast.For) -> list | None:
    """Duplicate a pointer loop behind a runtime overlap check.

    Reproduces the icc idiom the paper highlights for optimised binaries:
    "multiple versions of code, with the correct version selected at
    runtime based on compiler-generated runtime checks".  The fast copy is
    taken when every written pointer range is disjoint from every other;
    the slow copy (marked ``no_vectorize``) is byte-identical scalar code.
    """
    if getattr(loop, "no_vectorize", False):
        return None
    countable = match_countable(loop)
    if countable is None or countable.inclusive:
        return None
    name = countable.iter_name
    locals_ = getattr(fn, "locals", {})
    pointers_written: set[str] = set()
    pointers_read: set[str] = set()

    def scan(expr, is_target=False):
        if isinstance(expr, ast.Index) and isinstance(expr.base, ast.Name):
            base = expr.base.ident
            if locals_.get(base, "").endswith("*"):
                (pointers_written if is_target else pointers_read).add(base)
        if isinstance(expr, ast.Binary):
            scan(expr.left)
            scan(expr.right)
        elif isinstance(expr, (ast.Unary, ast.Cast)):
            scan(expr.operand)
        elif isinstance(expr, ast.Index):
            scan(expr.index)

    for statement in loop.body:
        if not isinstance(statement, ast.Assign):
            return None
        scan(statement.target, is_target=True)
        scan(statement.value)
    others = pointers_read - pointers_written
    if not pointers_written or not (pointers_written | others) \
            or len(pointers_written | others) < 2:
        return None

    def ptr(p):
        node = ast.Name(ident=p)
        node.type = locals_[p]
        return node

    def disjoint(a, b):
        # a + n <= b || b + n <= a  (element-granular pointer arithmetic)
        length = ast.clone(countable.bound)
        end_a = ast.Binary(op="+", left=ptr(a), right=length)
        end_a.type = locals_[a]
        end_b = ast.Binary(op="+", left=ptr(b),
                           right=ast.clone(length))
        end_b.type = locals_[b]
        left = ast.Binary(op="<=", left=end_a, right=ptr(b))
        left.type = "int"
        right = ast.Binary(op="<=", left=end_b, right=ptr(a))
        right.type = "int"
        both = ast.Binary(op="||", left=left, right=right)
        both.type = "int"
        return both

    cond = None
    for write in sorted(pointers_written):
        for other in sorted((pointers_written | others) - {write}):
            term = disjoint(write, other)
            if cond is None:
                cond = term
            else:
                cond = ast.Binary(op="&&", left=cond, right=term)
                cond.type = "int"
    if cond is None:
        return None
    fast = ast.clone(loop)
    slow = ast.clone(loop)
    slow.no_vectorize = True
    return [ast.If(cond=cond, then_body=[fast], else_body=[slow])]


# -- auto-parallelisation (the Fig. 11 compiler baselines) ------------------------------


_PAR_COUNTER = itertools.count()


def try_autopar(program: ast.Program, fn: ast.Function, loop: ast.For,
                n_threads: int, aggressive: bool = False) -> list | None:
    """Outline a provably independent loop into __jomp_parallel_for.

    The base mode is conservative, like ``-ftree-parallelize-loops``: only
    unit-step countable loops whose body touches global arrays at index
    ``i`` plus loop-invariant scalars, no calls, no reductions, no locals.
    ``aggressive`` (the icc personality) additionally admits per-iteration
    locals and affine read offsets (``a[i-1]``), with an explicit
    write-vs-offset-read dependence test.
    """
    countable = match_countable(loop)
    if countable is None or countable.inclusive:
        return None
    if not isinstance(countable.bound, (ast.IntLit, ast.Name)):
        return None
    name = countable.iter_name
    body = loop.body
    if _contains_control(body, (ast.Break, ast.Continue, ast.Return,
                                ast.While, ast.For, ast.VecFor)):
        return None
    global_names = {v.name for v in program.globals}
    local_names: set[str] = set()
    written_arrays: set[str] = set()
    offset_reads: list[tuple[str, int]] = []  # (array, offset)

    def index_offset(expr) -> int | None:
        """Offset c for indexes of the form i or i+c/i-c; None otherwise."""
        if isinstance(expr, ast.Name) and expr.ident == name:
            return 0
        if aggressive and isinstance(expr, ast.Binary) \
                and expr.op in "+-" \
                and isinstance(expr.left, ast.Name) \
                and expr.left.ident == name \
                and isinstance(expr.right, ast.IntLit):
            return expr.right.value if expr.op == "+" \
                else -expr.right.value
        return None

    def expr_ok(expr) -> bool:
        if isinstance(expr, (ast.IntLit, ast.FloatLit)):
            return True
        if isinstance(expr, ast.Name):
            return (expr.ident == name or expr.ident in global_names
                    or expr.ident in local_names)
        if isinstance(expr, ast.Index):
            if not (isinstance(expr.base, ast.Name)
                    and expr.base.ident in global_names):
                return False
            offset = index_offset(expr.index)
            if offset is None:
                return False
            offset_reads.append((expr.base.ident, offset))
            return True
        if isinstance(expr, ast.Binary):
            return expr.op in "+-*/" and expr_ok(expr.left) \
                and expr_ok(expr.right)
        if isinstance(expr, ast.Cast):
            return expr_ok(expr.operand)
        return False

    for statement in body:
        if aggressive and isinstance(statement, ast.DeclStmt):
            if statement.init is None or not expr_ok(statement.init):
                return None
            local_names.add(statement.name)
            continue
        if not isinstance(statement, ast.Assign):
            return None
        target = statement.target
        if not (isinstance(target, ast.Index)
                and isinstance(target.base, ast.Name)
                and target.base.ident in global_names
                and isinstance(target.index, ast.Name)
                and target.index.ident == name):
            return None
        written_arrays.add(target.base.ident)
        if not expr_ok(statement.value):
            return None
    # Dependence test: a written array read at a non-zero offset is a
    # loop-carried dependence -- reject (e.g. v[i] = v[i-1]).
    for array, offset in offset_reads:
        if array in written_arrays and offset != 0:
            return None
    # Bound must be loop-invariant and available to the outlined function.
    if isinstance(countable.bound, ast.Name) \
            and countable.bound.ident not in global_names:
        return None

    body_name = f"__par_body_{next(_PAR_COUNTER)}"
    lo = ast.Name(ident="__lo")
    lo.type = "int"
    hi = ast.Name(ident="__hi")
    hi.type = "int"
    inner_cond = ast.Binary(op="<", left=ast.Name(ident=name), right=hi)
    inner_cond.left.type = "int"
    inner_cond.type = "int"
    inner_init = ast.DeclStmt(type="int", name=name,
                              init=ast.clone(lo))
    inner_step = ast.Assign(target=ast.Name(ident=name), op="+=",
                            value=ast.IntLit(value=1))
    inner_step.target.type = "int"
    inner_step.value.type = "int"
    outlined = ast.Function(
        return_type="void", name=body_name,
        params=[("int", "__lo"), ("int", "__hi")],
        body=[ast.For(init=inner_init, cond=inner_cond, step=inner_step,
                      body=ast.clone(body))])
    outlined.locals = {"__lo": "int", "__hi": "int", name: "int"}
    program.functions.append(outlined)

    call = ast.Call(func="__jomp_parallel_for", args=[
        _func_addr(body_name),
        ast.clone(countable.start),
        ast.clone(countable.bound),
        _int_lit(n_threads),
    ])
    call.type = "void"
    return [ast.ExprStmt(expr=call)]


def _int_lit(value: int) -> ast.IntLit:
    lit = ast.IntLit(value=value)
    lit.type = "int"
    return lit


def _func_addr(name: str) -> ast.Expr:
    node = ast.FuncAddr(name=name)
    node.type = "int"
    return node


# -- pass driver -------------------------------------------------------------------------


def optimise(program: ast.Program, options) -> None:
    """Apply the configured transform pipeline in place."""
    if options.opt_level >= 2:
        fold_constants(program)
    if options.parallel:
        aggressive = options.personality == "icc"
        for fn in list(program.functions):
            fn.body = _map_loops(
                fn.body, lambda loop: try_autopar(
                    program, fn, loop, options.parallel_threads,
                    aggressive=aggressive))
    if options.opt_level >= 3:
        lanes = 4 if options.mavx else 2
        aggressive = options.personality == "icc"
        if aggressive:
            for fn in program.functions:
                fn.body = _map_loops(
                    fn.body, lambda loop: try_multiversion(fn, loop),
                    innermost_only=True)
        for fn in program.functions:
            fn.body = _map_loops(
                fn.body, lambda loop: try_vectorize(loop, lanes),
                innermost_only=True)
        factor = 4 if aggressive else 2
        for fn in program.functions:
            fn.body = _map_loops(
                fn.body, lambda loop: try_unroll(loop, factor),
                innermost_only=True)


def _map_loops(body: list, transform, innermost_only: bool = False) -> list:
    """Apply ``transform`` to For loops (bottom-up), splicing results."""
    out = []
    for statement in body:
        if isinstance(statement, ast.If):
            statement.then_body = _map_loops(statement.then_body, transform,
                                             innermost_only)
            statement.else_body = _map_loops(statement.else_body, transform,
                                             innermost_only)
            out.append(statement)
        elif isinstance(statement, ast.While):
            statement.body = _map_loops(statement.body, transform,
                                        innermost_only)
            out.append(statement)
        elif isinstance(statement, ast.For):
            statement.body = _map_loops(statement.body, transform,
                                        innermost_only)
            if innermost_only and _contains_control(
                    statement.body, (ast.For, ast.While, ast.VecFor)):
                out.append(statement)
                continue
            replacement = transform(statement)
            if replacement is None:
                out.append(statement)
            else:
                out.extend(replacement)
        else:
            out.append(statement)
    return out
