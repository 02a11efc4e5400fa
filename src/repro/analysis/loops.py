"""Natural-loop detection and the loop nesting forest.

A loop is the union of the natural loops of all back edges sharing a header.
Each loop records its header, body, latches, exit edges and preheader (if
one exists); nesting is computed by body inclusion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.cfg import FunctionCFG
from repro.analysis.dominators import DominatorInfo


@dataclass(eq=False)
class Loop:
    """One natural loop inside a function (identity-hashed)."""

    header: int
    function_entry: int
    body: set[int] = field(default_factory=set)  # block starts, incl. header
    latches: set[int] = field(default_factory=set)
    # (source block, target block) edges leaving the loop.
    exit_edges: list[tuple[int, int]] = field(default_factory=list)
    preheader: int | None = None
    parent: "Loop | None" = None
    children: list["Loop"] = field(default_factory=list)
    # Stable id assigned by the analyzer across the whole binary.
    loop_id: int = -1

    @property
    def depth(self) -> int:
        depth = 0
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    @property
    def exit_blocks(self) -> set[int]:
        """Blocks inside the loop from which an exit edge leaves."""
        return {src for src, _ in self.exit_edges}

    @property
    def exit_targets(self) -> set[int]:
        return {dst for _, dst in self.exit_edges}

    def __repr__(self) -> str:
        return (f"<loop {self.loop_id} header={self.header:#x} "
                f"blocks={len(self.body)} depth={self.depth}>")


def find_loops(cfg: FunctionCFG, dom: DominatorInfo) -> list[Loop]:
    """All natural loops of a function, with nesting links resolved."""
    loops_by_header: dict[int, Loop] = {}
    for block in cfg.blocks.values():
        for succ in block.succs:
            if succ in cfg.blocks and dom.dominates(succ, block.start):
                loop = loops_by_header.setdefault(
                    succ, Loop(header=succ, function_entry=cfg.entry))
                loop.latches.add(block.start)
                _collect_body(cfg, loop, block.start)

    loops = list(loops_by_header.values())
    for loop in loops:
        loop.body.add(loop.header)
        for start in loop.body:
            for succ in cfg.blocks[start].succs:
                if succ not in loop.body:
                    loop.exit_edges.append((start, succ))
        loop.exit_edges.sort()
        outside_preds = [p for p in cfg.blocks[loop.header].preds
                         if p not in loop.body]
        if len(outside_preds) == 1:
            loop.preheader = outside_preds[0]

    # Nesting: the parent is the smallest strictly containing loop.
    for loop in loops:
        best = None
        for other in loops:
            if other is loop:
                continue
            if loop.header in other.body and loop.body <= other.body:
                if best is None or len(other.body) < len(best.body):
                    best = other
        loop.parent = best
        if best is not None:
            best.children.append(loop)
    loops.sort(key=lambda l: l.header)
    return loops


def _collect_body(cfg: FunctionCFG, loop: Loop, latch: int) -> None:
    """Add all blocks that reach the latch without passing the header."""
    if latch == loop.header or latch in loop.body:
        return
    stack = [latch]
    loop.body.add(latch)
    while stack:
        node = stack.pop()
        for pred in cfg.blocks[node].preds:
            if pred not in loop.body and pred != loop.header:
                loop.body.add(pred)
                stack.append(pred)


def outermost_loops(loops: list[Loop]) -> list[Loop]:
    """Loops with no parent (the roots of the nesting forest)."""
    return [loop for loop in loops if loop.parent is None]
