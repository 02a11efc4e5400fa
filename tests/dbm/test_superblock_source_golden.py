"""Every superblock's generated source, pinned by digest.

The golden records the sha256 of each distinct superblock
``__jit_source__``, fast and shadow, that training and a JANUS run on
eight threads form for three Fig. 7 binaries: 459.GemsFDTD has provably
8-aligned packed lanes, 436.cactusADM and 464.h264ref packed lanes
through a base register.  A change that moves any source is a change of
superblock codegen; regenerate the golden only for a deliberate one::

    PYTHONPATH=src python tests/dbm/test_superblock_source_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.dbm.superblock import _SuperblockCompiler
from repro.eval.harness import EvalHarness
from repro.pipeline import SelectionMode

GOLDEN = Path(__file__).with_name("superblock_source_golden.json")
BINARIES = ("436.cactusADM", "459.GemsFDTD", "464.h264ref")


def source_digests(name: str) -> dict[str, list[str]]:
    """Sorted digests of the fast and the shadow superblock sources."""
    digests: dict[str, set[str]] = {"fast": set(), "shadow": set()}
    build = _SuperblockCompiler.build_superblock

    def recording(compiler):
        fn = build(compiler)
        tier = "shadow" if compiler.shadow else "fast"
        digests[tier].add(
            hashlib.sha256(fn.__jit_source__.encode()).hexdigest())
        return fn

    _SuperblockCompiler.build_superblock = recording
    try:
        harness = EvalHarness()
        harness.training(name)
        harness.run(name, SelectionMode.JANUS, n_threads=8)
    finally:
        _SuperblockCompiler.build_superblock = build
    return {tier: sorted(found) for tier, found in digests.items()}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", BINARIES)
def test_superblock_sources_match_golden(name):
    assert source_digests(name) == _golden()[name]


def test_golden_covers_every_binary():
    assert sorted(_golden()) == sorted(BINARIES)


if __name__ == "__main__":
    digest = {name: source_digests(name) for name in BINARIES}
    GOLDEN.write_text(json.dumps(digest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(digest)} binaries)")
