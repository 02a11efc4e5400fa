"""A fixed probe of how fast the machine runs Python at the moment.

The benchmark shares its machine with other work, and for stretches of
seconds to minutes the same code runs up to twice as slowly.  Each pass
runs this probe before every op it times and scales the op times by the
probe's median over the pass (see ``run._end_to_end``), which cancels most
of that drift.  The probe is fixed work that does not depend on
``repro``, so a change to Janus never moves it: it builds an unbalanced
binary search tree of 1500 nodes, allocating objects and chasing
pointers as the simulator does.  It tracks the machine better than a
tight arithmetic loop (README.md, "Run-to-run spread and bounds").
"""

from __future__ import annotations

import gc
import time

# Scaled timings are seconds on a machine where the probe takes this long.
NOMINAL_PROBE_S = 1e-3

_NODES = 1500


class _Node:
    __slots__ = ("key", "left", "right")

    def __init__(self, key: int) -> None:
        self.key = key
        self.left = self.right = None


def probe() -> float:
    """Seconds one tree build takes now, with garbage collection off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = time.perf_counter()
        root = _Node(_NODES // 3)
        for i in range(_NODES):
            key = (i * 7919) % 1000
            node = root
            while True:
                if key < node.key:
                    if node.left is None:
                        node.left = _Node(key)
                        break
                    node = node.left
                else:
                    if node.right is None:
                        node.right = _Node(key)
                        break
                    node = node.right
        return time.perf_counter() - began
    finally:
        if enabled:
            gc.enable()
