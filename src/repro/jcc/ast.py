"""Abstract syntax tree for JC.

Types are strings: ``"int"``, ``"double"``, ``"int*"``, ``"double*"``,
``"void"``.  Arrays are global-only; an array name used as a value decays
to a pointer, as in C.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# -- expressions ---------------------------------------------------------------

@dataclass
class Expr:
    # Filled in by sema.
    type: str = field(default="", init=False, compare=False)


@dataclass
class IntLit(Expr):
    value: int


@dataclass
class FloatLit(Expr):
    value: float


@dataclass
class Name(Expr):
    ident: str


@dataclass
class Index(Expr):
    base: "Expr"  # Name of an array or pointer-typed expression
    index: "Expr"


@dataclass
class Unary(Expr):
    op: str  # "-", "!"
    operand: "Expr"


@dataclass
class Binary(Expr):
    op: str  # + - * / % < <= > >= == != && || << >>
    left: "Expr"
    right: "Expr"


@dataclass
class Call(Expr):
    func: str
    args: list


@dataclass
class Cast(Expr):
    """Implicit conversion inserted by sema."""

    target: str
    operand: "Expr"


@dataclass
class FuncAddr(Expr):
    """Address of a function (synthesised by the auto-paralleliser)."""

    name: str


# -- statements -----------------------------------------------------------------

@dataclass
class Stmt:
    pass


@dataclass
class DeclStmt(Stmt):
    type: str
    name: str
    init: Expr | None = None


@dataclass
class Assign(Stmt):
    target: Expr  # Name or Index
    op: str  # "=", "+=", "-=", "*=", "/=", "%="
    value: Expr = None


@dataclass
class ExprStmt(Stmt):
    expr: Expr


@dataclass
class If(Stmt):
    cond: Expr
    then_body: list
    else_body: list = field(default_factory=list)


@dataclass
class While(Stmt):
    cond: Expr
    body: list


@dataclass
class For(Stmt):
    init: Stmt | None
    cond: Expr | None
    step: Stmt | None
    body: list


@dataclass
class Return(Stmt):
    value: Expr | None = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


# -- vectorised forms produced by the AST-level vectoriser -------------------------

@dataclass
class VecFor(Stmt):
    """A vectorised main loop: body statements operate on ``lanes`` lanes.

    ``iter_name`` steps by ``lanes``; every ``Index`` with index exactly
    the iterator is lowered to packed loads/stores.  Produced only by the
    optimiser; never by the parser.
    """

    iter_name: str
    start: Expr
    bound: Expr  # iterate while iter < bound - (lanes - 1)
    lanes: int
    body: list  # Assign statements


def clone(node):
    """A deep copy of an expression or statement, or of a list of them.

    Copies every attribute of every node (the sema-filled ``type``
    included) and recurses into nodes and lists; other values are
    immutable scalars and are shared.  This equals ``copy.deepcopy``
    because no node is reachable twice in a program tree, so deepcopy's
    memo never finds a node it has already copied.
    """
    if isinstance(node, list):
        return [clone(item) for item in node]
    if not isinstance(node, (Expr, Stmt)):
        return node
    copied = object.__new__(type(node))
    copied.__dict__.update({
        key: clone(value) if isinstance(value, (list, Expr, Stmt)) else value
        for key, value in node.__dict__.items()})
    return copied


# -- top level --------------------------------------------------------------------

@dataclass
class GlobalVar:
    type: str  # element type for arrays
    name: str
    size: int | None = None  # array length in elements, None for scalars
    init: list | None = None  # literal values


@dataclass
class Function:
    return_type: str
    name: str
    params: list  # (type, name) pairs
    body: list = field(default_factory=list)


@dataclass
class Program:
    globals: list = field(default_factory=list)
    functions: list = field(default_factory=list)
    externs: list = field(default_factory=list)  # names declared extern

    def function(self, name: str) -> Function:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(name)
