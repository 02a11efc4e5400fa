"""The jcc compile driver: JC source text → stripped JELF."""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.instructions import Opcode as O
from repro.isa.operands import Imm, Label, Mem, Reg
from repro.isa.registers import R
from repro.jbin import syscalls
from repro.jbin.asm import Assembler
from repro.jbin.image import JELF
from repro.jcc import ast
from repro.jcc.codegen import FunctionCodegen, ModuleContext
from repro.jcc.optimizer import optimise
from repro.jcc.parser import parse
from repro.jcc.regalloc import Allocation, allocate
from repro.jcc.sema import BUILTINS, analyse
from repro.telemetry.core import get_recorder


@dataclass
class CompileOptions:
    """The compiler command line."""

    opt_level: int = 3
    personality: str = "gcc"  # "gcc" or "icc"
    mavx: bool = False
    parallel: bool = False  # -ftree-parallelize-loops / -parallel
    parallel_threads: int = 8
    strip: bool = True

    @property
    def comment(self) -> str:
        flags = [f"-O{self.opt_level}"]
        if self.mavx:
            flags.append("-mavx")
        if self.parallel:
            flags.append("-parallel")
        return f"jcc-{self.personality} {' '.join(flags)}"


def compile_source(source: str,
                   options: CompileOptions | None = None) -> JELF:
    """Compile JC source to a (by default stripped) executable image.

    Telemetry (cat ``jcc``; no-ops under the default NullRecorder):
    ``jcc.parse`` (lexing, parsing and sema) and ``jcc.optimise`` once;
    ``jcc.codegen``, ``jcc.regalloc`` and ``jcc.assemble`` (emitting the
    allocated stream) per function; a last ``jcc.assemble`` for the image.
    """
    options = options or CompileOptions()
    rec = get_recorder()
    with rec.span("jcc.parse", cat="jcc"):
        program = parse(source)
        analyse(program)
    with rec.span("jcc.optimise", cat="jcc"):
        optimise(program, options)

    asm = Assembler(comment=options.comment)
    module = ModuleContext(program=program, options=options)

    _emit_globals(asm, program)
    for name in sorted(_used_builtins(program)):
        asm.import_symbol(name)

    # _start: call main, pass its return value to exit.
    asm.label("_start")
    asm.emit(O.CALL, Label("main"))
    asm.emit(O.MOV, Reg(R.rdi), Reg(R.rax))
    asm.emit(O.MOV, Reg(R.rax), Imm(syscalls.EXIT))
    asm.emit(O.SYSCALL)
    asm.emit(O.HLT)

    for fn in program.functions:
        _emit_function(asm, module, fn)

    for values, name in module.float_pool.items():
        asm.double(name, *values)

    with rec.span("jcc.assemble", cat="jcc"):
        return asm.assemble(entry="_start", strip=options.strip)


def _emit_globals(asm: Assembler, program: ast.Program) -> None:
    for var in program.globals:
        size = var.size if var.size is not None else 1
        if var.init is None:
            asm.space(var.name, size)
            continue
        if var.type == "double":
            values = [float(v) for v in var.init]
            values += [0.0] * (size - len(values))
            asm.double(var.name, *values)
        else:
            values = [int(v) for v in var.init]
            values += [0] * (size - len(values))
            asm.word(var.name, *values)


def _used_builtins(program: ast.Program) -> set[str]:
    used: set[str] = set()
    internal = {fn.name for fn in program.functions}

    def visit_expr(expr) -> None:
        if isinstance(expr, ast.Call):
            if expr.func in BUILTINS and expr.func not in internal:
                used.add(expr.func)
            for arg in expr.args:
                visit_expr(arg)
        elif isinstance(expr, ast.Binary):
            visit_expr(expr.left)
            visit_expr(expr.right)
        elif isinstance(expr, (ast.Unary, ast.Cast)):
            visit_expr(expr.operand)
        elif isinstance(expr, ast.Index):
            visit_expr(expr.base)
            visit_expr(expr.index)

    def visit_stmt(statement) -> None:
        for attr in ("init", "cond", "step", "value", "expr"):
            node = getattr(statement, attr, None)
            if isinstance(node, ast.Expr):
                visit_expr(node)
            elif isinstance(node, ast.Stmt):
                visit_stmt(node)
        if isinstance(statement, ast.Assign):
            visit_expr(statement.target)
        if isinstance(statement, ast.VecFor):
            visit_expr(statement.start)
            visit_expr(statement.bound)
        for body_attr in ("body", "then_body", "else_body"):
            for child in getattr(statement, body_attr, ()):
                visit_stmt(child)

    for fn in program.functions:
        for statement in fn.body:
            visit_stmt(statement)
    return used


def _emit_function(asm: Assembler, module: ModuleContext,
                   fn: ast.Function) -> None:
    rec = get_recorder()
    with rec.span("jcc.codegen", cat="jcc", fn=fn.name):
        code = FunctionCodegen(module, fn).generate()
    with rec.span("jcc.regalloc", cat="jcc", fn=fn.name):
        allocation = allocate(code)
    with rec.span("jcc.assemble", cat="jcc", fn=fn.name):
        _emit_allocated(asm, fn.name, allocation)


def _emit_allocated(asm: Assembler, name: str,
                    allocation: Allocation) -> None:
    saved = allocation.used_callee_saved
    frame_words = allocation.frame_words + len(saved)
    frame_bytes = frame_words * 8

    asm.label(name)
    if frame_bytes:
        asm.emit(O.SUB, Reg(R.rsp), Imm(frame_bytes))
    for index, reg in enumerate(saved):
        asm.emit(O.MOV,
                 Mem(base=R.rsp, disp=8 * (allocation.frame_words + index)),
                 Reg(reg))
    for item in allocation.stream:
        if item[0] == "label":
            asm.label(item[1])
        else:
            ins = item[1]
            asm.emit(ins.opcode, *ins.operands)
    for index, reg in enumerate(saved):
        asm.emit(O.MOV, Reg(reg),
                 Mem(base=R.rsp, disp=8 * (allocation.frame_words + index)))
    if frame_bytes:
        asm.emit(O.ADD, Reg(R.rsp), Imm(frame_bytes))
    asm.emit(O.RET)
