"""Tier 1: IR invariant checking over every analysed function.

Re-derives the structural facts the rest of the pipeline *assumes* and
reports divergences as findings.  The checks are deliberately independent
of the code that produced the artefacts: dominator sets are recomputed with
the naive iterative dataflow (not Cooper-Harvey-Kennedy), loop membership
is re-validated from raw CFG edges, and SSA def/use sites are re-walked
against the recomputed dominance relation.
"""

from __future__ import annotations

from repro.analysis.cfg import FunctionCFG
from repro.analysis.dominators import DominatorInfo
from repro.isa.instructions import Opcode
from repro.verify.findings import Finding, Severity

_TIER = "invariants"


def _finding(check: str, location: str, message: str,
             severity: Severity = Severity.ERROR) -> Finding:
    return Finding(tier=_TIER, check=check, severity=severity,
                   location=location, message=message)


def check_analysis(analysis) -> list[Finding]:
    """Run every invariant check over a whole :class:`BinaryAnalysis`."""
    findings: list[Finding] = []
    for entry, fa in sorted(analysis.functions.items()):
        try:
            findings.extend(check_function(fa))
        except Exception as exc:  # checker bug: diagnose, never crash
            findings.append(_finding(
                "internal.exception", f"fn {entry:#x}",
                f"invariant checker raised {type(exc).__name__}: {exc}"))
    # Cross-function facts: loop ids are unique and resolvable.
    seen_ids: dict[int, int] = {}
    for result in analysis.loops:
        loop_id = result.loop_id
        if loop_id in seen_ids:
            findings.append(_finding(
                "loops.duplicate-id", f"loop {loop_id}",
                f"loop id also assigned at header "
                f"{seen_ids[loop_id]:#x}"))
        seen_ids[loop_id] = result.loop.header
        if analysis.loop(loop_id) is not result:
            findings.append(_finding(
                "loops.id-lookup", f"loop {loop_id}",
                "analysis.loop(id) does not resolve to this result"))
    return findings


def check_function(fa) -> list[Finding]:
    """All invariant checks for one analysed function."""
    findings: list[Finding] = []
    findings.extend(_check_cfg(fa.cfg))
    reachable = set(fa.dom.rpo)
    findings.extend(_check_dominators(fa.cfg, fa.dom, reachable))
    if fa.ssa is not None:
        findings.extend(_check_ssa(fa.cfg, fa.dom, fa.ssa, reachable))
    for loop in fa.loops:
        findings.extend(_check_loop(fa.cfg, fa.dom, loop))
    return findings


# -- CFG well-formedness -----------------------------------------------------

def _check_cfg(cfg: FunctionCFG) -> list[Finding]:
    findings: list[Finding] = []
    where = f"fn {cfg.entry:#x}"
    if cfg.entry not in cfg.blocks:
        findings.append(_finding("cfg.entry", where,
                                 "entry address is not a block head"))
        return findings

    for start, block in cfg.blocks.items():
        loc = f"{where} block {start:#x}"
        if not block.instructions:
            findings.append(_finding("cfg.empty-block", loc,
                                     "block has no instructions"))
            continue
        if block.instructions[0].address != start:
            findings.append(_finding(
                "cfg.block-head", loc,
                f"first instruction at "
                f"{block.instructions[0].address:#x} != block start"))
        addr = block.instructions[0].address
        for ins in block.instructions:
            if ins.address != addr:
                findings.append(_finding(
                    "cfg.contiguity", loc,
                    f"instruction at {ins.address:#x}, expected "
                    f"{addr:#x} (gap or overlap)"))
                break
            addr += ins.size

        for succ in block.succs:
            if succ not in cfg.blocks:
                findings.append(_finding(
                    "cfg.edge-target", loc,
                    f"successor {succ:#x} is not a block head"))
            elif start not in cfg.blocks[succ].preds:
                findings.append(_finding(
                    "cfg.pred-symmetry", loc,
                    f"edge to {succ:#x} missing from its pred list"))
        for pred in block.preds:
            if pred not in cfg.blocks:
                findings.append(_finding(
                    "cfg.pred-target", loc,
                    f"predecessor {pred:#x} is not a block head"))
            elif start not in cfg.blocks[pred].succs:
                findings.append(_finding(
                    "cfg.succ-symmetry", loc,
                    f"edge from {pred:#x} missing from its succ list"))

        findings.extend(_check_terminator(block, loc))
    return findings


def _check_terminator(block, loc: str) -> list[Finding]:
    """Terminator kind must match the successor count."""
    term = block.terminator
    n = len(block.succs)
    if term.is_cond_branch:
        lo, hi, kind = 1, 2, "conditional branch"
    elif term.opcode is Opcode.JMP:
        lo, hi, kind = 0, 1, "direct jump"  # 0 = tail call
    elif term.is_indirect or term.is_ret or term.opcode is Opcode.HLT:
        lo, hi, kind = 0, 0, "indirect/return/halt"
    else:
        lo, hi, kind = 0, 1, "fallthrough"
    if not lo <= n <= hi:
        return [_finding(
            "cfg.terminator-arity", loc,
            f"{kind} terminator {term.opcode.name} has {n} successors "
            f"(expected {lo}..{hi})")]
    return []


# -- dominator tree ----------------------------------------------------------

def _dominator_sets(cfg: FunctionCFG, reachable: set[int]) -> dict[int, set]:
    """Independent recomputation: naive iterative set dataflow."""
    dom = {b: set(reachable) for b in reachable}
    dom[cfg.entry] = {cfg.entry}
    changed = True
    while changed:
        changed = False
        for b in reachable:
            if b == cfg.entry:
                continue
            preds = [p for p in cfg.blocks[b].preds if p in reachable]
            if not preds:
                new = {b}
            else:
                new = set.intersection(*(dom[p] for p in preds))
                new.add(b)
            if new != dom[b]:
                dom[b] = new
                changed = True
    return dom


def _check_dominators(cfg: FunctionCFG, dom: DominatorInfo,
                      reachable: set[int]) -> list[Finding]:
    findings: list[Finding] = []
    where = f"fn {cfg.entry:#x}"
    expected = _dominator_sets(cfg, reachable)
    for b in reachable:
        derived: set[int] = set()
        node: int | None = b
        steps = 0
        while node is not None:
            if node in derived or steps > len(reachable) + 1:
                findings.append(_finding(
                    "dom.idom-cycle", f"{where} block {b:#x}",
                    "idom chain does not terminate at the entry"))
                break
            derived.add(node)
            node = dom.idom.get(node)
            steps += 1
        else:
            if derived != expected[b]:
                missing = sorted(expected[b] - derived)
                extra = sorted(derived - expected[b])
                findings.append(_finding(
                    "dom.idom-mismatch", f"{where} block {b:#x}",
                    f"idom-derived dominator set disagrees with "
                    f"recomputation (missing {[hex(m) for m in missing]}, "
                    f"extra {[hex(e) for e in extra]})"))
    return findings


# -- SSA ----------------------------------------------------------------------

def _check_ssa(cfg: FunctionCFG, dom: DominatorInfo, ssa,
               reachable: set[int]) -> list[Finding]:
    findings: list[Finding] = []
    where = f"fn {cfg.entry:#x}"

    # One definition per SSA name, and def_sites agrees with the facts.
    def_counts: dict[tuple, list[tuple]] = {}
    for (block, index), fact in ssa.facts.items():
        for var, version in fact.defs.items():
            def_counts.setdefault((var, version), []).append(
                ("ins", block, index))
    for block, phis in ssa.phis.items():
        for phi in phis:
            def_counts.setdefault((phi.var, phi.dest), []).append(
                ("phi", block))
    # Findings are nearly always absent: walk unsorted and order only
    # what is found, by the (name, sites) repr.
    keyed: list[tuple] = []
    for name, sites in def_counts.items():
        if len(sites) > 1:
            keyed.append((repr((name, sites)), _finding(
                "ssa.single-def", f"{where} {name!r}",
                f"SSA name defined at {len(sites)} sites: {sites}")))
            continue
        recorded = ssa.def_sites.get(name)
        if recorded is not None and recorded[0] != "entry" \
                and tuple(recorded) != sites[0]:
            keyed.append((repr((name, sites)), _finding(
                "ssa.def-site", f"{where} {name!r}",
                f"def_sites records {recorded}, actual def at {sites[0]}")))
    findings.extend(finding for _key, finding in sorted(
        keyed, key=lambda pair: pair[0]))

    # Phi arity: one incoming version per CFG predecessor.
    for block, phis in ssa.phis.items():
        preds = {p for p in cfg.blocks[block].preds if p in reachable}
        for phi in phis:
            sources = set(phi.sources)
            if sources != preds:
                findings.append(_finding(
                    "ssa.phi-arity",
                    f"{where} block {block:#x} phi {phi.var!r}",
                    f"phi sources {sorted(map(hex, sources))} != "
                    f"predecessors {sorted(map(hex, preds))}"))

    # Definitions dominate uses (findings ordered by site, then use repr).
    keyed = []
    for (block, index), fact in ssa.facts.items():
        for var, version in fact.uses.items():
            site = ssa.def_sites.get((var, version))
            if site is None or site[0] == "entry":
                continue  # live-in: defined before the function body
            if site[0] == "phi":
                ok = dom.dominates(site[1], block)
            else:
                _, db, di = site
                ok = (di < index) if db == block else dom.dominates(db, block)
            if not ok:
                keyed.append(((block, index, repr((var, version))), _finding(
                    "ssa.def-dominates-use",
                    f"{where} block {block:#x} ins {index}",
                    f"use of {(var, version)!r} not dominated by its "
                    f"definition at {site}")))
    findings.extend(finding for _key, finding in sorted(
        keyed, key=lambda pair: pair[0]))
    # Phi incoming values must be defined on the incoming edge: the def
    # site has to dominate the predecessor block.
    for block, phis in ssa.phis.items():
        for phi in phis:
            for pred, version in sorted(phi.sources.items()):
                site = ssa.def_sites.get((phi.var, version))
                if site is None or site[0] == "entry":
                    continue
                db = site[1]
                if not dom.dominates(db, pred):
                    findings.append(_finding(
                        "ssa.phi-source-dominance",
                        f"{where} block {block:#x} phi {phi.var!r}",
                        f"incoming version {version} (def at {site}) does "
                        f"not dominate predecessor {pred:#x}"))
    return findings


# -- loop nest ----------------------------------------------------------------

def _check_loop(cfg: FunctionCFG, dom: DominatorInfo, loop) -> list[Finding]:
    findings: list[Finding] = []
    where = f"fn {cfg.entry:#x} loop {loop.loop_id} ({loop.header:#x})"

    unknown = [b for b in loop.body if b not in cfg.blocks]
    if unknown:
        findings.append(_finding(
            "loop.body-blocks", where,
            f"body references unknown blocks "
            f"{[hex(b) for b in sorted(unknown)]}"))
        return findings
    if loop.header not in loop.body:
        findings.append(_finding("loop.header-in-body", where,
                                 "header block is not in the loop body"))

    for latch in sorted(loop.latches):
        if latch not in loop.body:
            findings.append(_finding(
                "loop.latch-in-body", where,
                f"latch {latch:#x} outside the loop body"))
            continue
        if loop.header not in cfg.blocks[latch].succs:
            findings.append(_finding(
                "loop.back-edge", where,
                f"latch {latch:#x} has no edge to the header"))
        if not dom.dominates(loop.header, latch):
            findings.append(_finding(
                "loop.reducibility", where,
                f"header does not dominate latch {latch:#x} "
                f"(irreducible back edge)"))

    for block in sorted(loop.body):
        if not dom.dominates(loop.header, block):
            findings.append(_finding(
                "loop.reducibility", where,
                f"header does not dominate body block {block:#x} "
                f"(second loop entry)"))

    # Exit edges: recorded set == actual body->outside edges.
    actual = {(src, dst) for src in loop.body
              for dst in cfg.blocks[src].succs if dst not in loop.body}
    recorded = set(loop.exit_edges)
    for src, dst in sorted(recorded - actual):
        findings.append(_finding(
            "loop.exit-edges", where,
            f"recorded exit edge {src:#x}->{dst:#x} does not exist"))
    for src, dst in sorted(actual - recorded):
        findings.append(_finding(
            "loop.exit-edges", where,
            f"edge {src:#x}->{dst:#x} leaves the loop but is not "
            f"recorded as an exit"))

    if loop.preheader is not None:
        outside = {p for p in cfg.blocks[loop.header].preds
                   if p not in loop.body}
        if loop.preheader in loop.body or outside != {loop.preheader}:
            findings.append(_finding(
                "loop.preheader", where,
                f"preheader {loop.preheader:#x} is not the unique "
                f"outside predecessor of the header "
                f"(outside preds: {[hex(p) for p in sorted(outside)]})"))

    for child in loop.children:
        if child.parent is not loop:
            findings.append(_finding(
                "loop.nesting", where,
                f"child loop at {child.header:#x} does not point back "
                f"to this parent"))
        if not child.body <= loop.body:
            findings.append(_finding(
                "loop.nesting", where,
                f"child loop at {child.header:#x} has body blocks "
                f"outside the parent"))
    return findings
