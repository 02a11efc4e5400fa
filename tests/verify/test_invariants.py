"""Tier 1: the IR invariant checker against clean and corrupted analyses."""

from repro.analysis import analyze_image
from repro.isa import Imm, Mem, Opcode as O, Reg
from repro.isa.operands import Label
from repro.isa.registers import R
from repro.verify import Severity, check_analysis, check_function

from tests.analysis.conftest import assemble

RAX, RCX = Reg(R.rax), Reg(R.rcx)


def array_fill_image():
    def build(a):
        a.space("arr", 64)
        a.label("_start")
        a.emit(O.MOV, RCX, Imm(0))
        a.label("loop")
        a.emit(O.MOV, Mem(index=R.rcx, scale=8, disp=Label("arr")), RCX)
        a.emit(O.INC, RCX)
        a.emit(O.CMP, RCX, Imm(64))
        a.emit(O.JL, Label("loop"))
        a.emit(O.RET)

    return assemble(build)


def nested_image():
    def build(a):
        a.label("_start")
        a.emit(O.MOV, Reg(R.rsi), Imm(0))
        a.label("outer")
        a.emit(O.MOV, RCX, Imm(0))
        a.label("inner")
        a.emit(O.ADD, RAX, RCX)
        a.emit(O.INC, RCX)
        a.emit(O.CMP, RCX, Imm(4))
        a.emit(O.JL, Label("inner"))
        a.emit(O.INC, Reg(R.rsi))
        a.emit(O.CMP, Reg(R.rsi), Imm(3))
        a.emit(O.JL, Label("outer"))
        a.emit(O.RET)

    return assemble(build)


def checks(findings):
    return {f.check for f in findings}


class TestCleanAnalyses:
    def test_single_loop_is_invariant_clean(self):
        findings = check_analysis(analyze_image(array_fill_image()))
        assert findings == []

    def test_nested_loops_are_invariant_clean(self):
        findings = check_analysis(analyze_image(nested_image()))
        assert findings == []


class TestCorruptedCFG:
    def test_bogus_successor_reported(self):
        analysis = analyze_image(array_fill_image())
        fa = next(iter(analysis.functions.values()))
        block = fa.cfg.blocks[fa.cfg.entry]
        block.succs.append(0xDEAD)
        found = checks(check_function(fa))
        assert "cfg.edge-target" in found

    def test_asymmetric_edge_reported(self):
        analysis = analyze_image(array_fill_image())
        fa = next(iter(analysis.functions.values()))
        # Drop one pred entry: the succ edge now has no mirror.
        for block in fa.cfg.blocks.values():
            if block.preds:
                block.preds.remove(block.preds[0])
                break
        found = checks(check_function(fa))
        assert "cfg.pred-symmetry" in found

    def test_terminator_arity_reported(self):
        analysis = analyze_image(array_fill_image())
        fa = next(iter(analysis.functions.values()))
        # Give the RET block a successor: 0 allowed for indirect/ret/halt.
        for start, block in fa.cfg.blocks.items():
            if block.terminator.is_ret:
                block.succs.append(fa.cfg.entry)
                fa.cfg.blocks[fa.cfg.entry].preds.append(start)
                break
        found = checks(check_function(fa))
        assert "cfg.terminator-arity" in found


class TestCorruptedDominators:
    def test_wrong_idom_reported(self):
        analysis = analyze_image(nested_image())
        fa = next(iter(analysis.functions.values()))
        # Point some non-entry block's idom at itself's child: recompute
        # disagrees (or the chain cycles) either way.
        victim = next(b for b in fa.dom.idom if fa.dom.idom[b] is not None)
        fa.dom.idom[victim] = victim
        found = checks(check_function(fa))
        assert {"dom.idom-cycle", "dom.idom-mismatch"} & found


class TestCorruptedLoops:
    def test_unknown_body_block_reported(self):
        analysis = analyze_image(array_fill_image())
        fa = next(iter(analysis.functions.values()))
        fa.loops[0].body.add(0xBEEF)
        found = checks(check_function(fa))
        assert "loop.body-blocks" in found

    def test_missing_exit_edge_reported(self):
        analysis = analyze_image(array_fill_image())
        fa = next(iter(analysis.functions.values()))
        loop = fa.loops[0]
        loop.exit_edges = []
        found = checks(check_function(fa))
        assert "loop.exit-edges" in found

    def test_duplicate_loop_ids_reported(self):
        analysis = analyze_image(nested_image())
        first_id = analysis.loops[0].loop_id
        analysis.loops[1].loop.loop_id = first_id
        found = checks(check_analysis(analysis))
        assert "loops.duplicate-id" in found


class TestNeverRaises:
    def test_checker_bug_becomes_finding(self):
        analysis = analyze_image(array_fill_image())
        fa = next(iter(analysis.functions.values()))
        # A hostile artefact: blow away the dominator info entirely.
        fa.dom = None
        findings = check_analysis(analysis)
        assert "internal.exception" in checks(findings)
        assert all(f.severity in tuple(Severity) for f in findings)


class TestCorruptedSSA:
    def test_findings_order_is_pinned(self):
        """SSA findings come out sorted by the (name, sites) repr, then by
        (block, index, use repr), whatever order the facts iterate in."""
        from repro.analysis.ssa import InstructionSSA

        analysis = analyze_image(nested_image())
        fa = next(iter(analysis.functions.values()))
        ssa = fa.ssa
        entry, outer, inner, latch, _exit = sorted(fa.cfg.blocks)
        # Two names defined twice: (2, 1) is met first, (10, 1) sorts first.
        ssa.facts[(outer, 0)].defs[2] = 1
        ssa.facts[(latch, 1)].defs[2] = 1
        ssa.facts[(inner, 2)].defs[10] = 1
        ssa.facts[(latch, 2)].defs[10] = 1
        # def_sites disagrees with the one real def of (6, 3).
        ssa.def_sites[(6, 3)] = ("ins", latch, 1)
        # Undominated uses: one in the inner header, and two at a fact
        # inserted last that sorts second, its uses out of repr order.
        ssa.facts[(inner, 0)].uses[6] = 3
        ssa.facts[(entry, 1)] = InstructionSSA(uses={1: 4, 0: 3}, defs={})
        got = [(f.check, f.location) for f in check_function(fa)]
        fn = f"fn {entry:#x}"
        assert got == [
            ("ssa.single-def", f"{fn} (10, 1)"),
            ("ssa.single-def", f"{fn} (2, 1)"),
            ("ssa.def-site", f"{fn} (6, 3)"),
            ("ssa.def-dominates-use", f"{fn} block {entry:#x} ins 1"),
            ("ssa.def-dominates-use", f"{fn} block {entry:#x} ins 1"),
            ("ssa.def-dominates-use", f"{fn} block {inner:#x} ins 0"),
            ("ssa.def-dominates-use", f"{fn} block {latch:#x} ins 1"),
        ]
        uses = [f.message.split(" not ")[0] for f in check_function(fa)
                if f.check == "ssa.def-dominates-use"]
        assert uses[:2] == ["use of (0, 3)", "use of (1, 4)"]
