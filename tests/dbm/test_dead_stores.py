"""The superblock dead-store pass against a brute-force reference.

``_strip_dead_stores`` decides every store in one backward pass.  The
reference below states the rule directly: a pure store to a promoted
local is dead when the next line mentioning that local is an
unconditional (8-space) overwrite that does not read it; deleting dead
stores can expose more, so the reference repeats until nothing changes.
Both must keep exactly the same lines.
"""

import re

from hypothesis import given, settings, strategies as st

from repro.dbm.superblock import _strip_dead_stores

_PURE_STORE = re.compile(
    r"^(?:    |        )([rx]\d+) = "
    r"(?:[rx]\d+|t|g\[\d+\]|x\[\d+\]|-?\d+(?:\.\d+)?)$")


def _reference(lines: list[str]) -> list[str]:
    changed = True
    while changed:
        changed = False
        dead: set[int] = set()
        for i, line in enumerate(lines):
            m = _PURE_STORE.match(line)
            if m is None:
                continue
            name = m.group(1)
            occurrence = re.compile(rf"\b{name}\b")
            kill = f"        {name} = "
            for j in range(i + 1, len(lines)):
                if occurrence.search(lines[j]):
                    if lines[j].startswith(kill) and not occurrence.search(
                            lines[j][len(kill):]):
                        dead.add(i)
                    break
        if dead:
            changed = True
            lines = [line for i, line in enumerate(lines) if i not in dead]
    return lines


# Locals that are prefixes of one another, and operands whose text holds
# a local's name without naming it (hex addresses, register-file cells).
_LOCALS = ("r1", "r10", "x4", "x40")
_OPERANDS = _LOCALS + ("t", "g[1]", "g[10]", "x[4]", "x[40]", "0", "-3",
                       "2.5", "-0.5", "0x4", "0x40", "0x1f", "0xr1")

_local = st.sampled_from(_LOCALS)
_operand = st.sampled_from(_OPERANDS)
_statement = st.one_of(
    st.builds("{} = {}".format, _local, _operand),
    st.builds("{} = {} + {}".format, _local, _operand, _operand),
    st.builds("{} = {} * 2".format, _local, _local),
    st.builds("_ws({}, {})".format, _operand, _operand),
    st.builds("if {} & 7:".format, _operand),
    st.builds("t = {}".format, _operand),
)
_line = st.builds("{}{}".format, st.sampled_from(("    ", "        ",
                                                   "            ")),
                  _statement)


@settings(max_examples=400, deadline=None)
@given(st.lists(_line, max_size=40))
def test_backward_pass_matches_fixed_point(lines):
    assert _strip_dead_stores(lines) == _reference(lines)


def test_copy_chain_collapses_in_one_pass():
    lines = [
        "    r1 = g[1]",
        "        r10 = r1",
        "        r10 = 7",
        "        r1 = 5",
        "        _ws(r1, r10)",
    ]
    # The copy into r10 is overwritten unread; without it, so is r1's
    # hoisted load (the fixed point needs a second round for that).
    assert _strip_dead_stores(lines) == _reference(lines) == lines[2:]


def test_conditional_and_self_reading_writes_keep_the_store():
    lines = [
        "        r1 = 3",
        "            r1 = 4",
        "        r10 = 2",
        "        r10 = r10 + 1",
        "        x4 = 0.5",
        "        x40 = 1.0",
        "        x4 = x40",
    ]
    assert _strip_dead_stores(lines) == [
        "        r1 = 3",
        "            r1 = 4",
        "        r10 = 2",
        "        r10 = r10 + 1",
        "        x40 = 1.0",
        "        x4 = x40",
    ]
