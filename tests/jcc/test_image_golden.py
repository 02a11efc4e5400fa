"""The bytes jcc emits for every workload, pinned by digest.

The golden records the sha256 of ``JELF.serialize()`` for the 25 workloads
under eight option sets: the four static-matrix configurations (gcc -O3,
-O2, -O3 -mavx, icc -O3) plus gcc -O0, gcc -O1, gcc -O3 -parallel and icc
-O2.  Images feed every cached digest, schedule and figure, so a change
that moves one of them is a change of compiler behaviour; regenerate the
golden only for a deliberate compiler change::

    PYTHONPATH=src python tests/jcc/test_image_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.jcc import CompileOptions
from repro.workloads import all_benchmarks, compile_workload

GOLDEN = Path(__file__).with_name("image_golden.json")

# label -> CompileOptions fields
OPTION_SETS = {
    "gcc-O3": {},
    "gcc-O2": {"opt_level": 2},
    "gcc-O3-mavx": {"mavx": True},
    "icc-O3": {"personality": "icc"},
    "gcc-O0": {"opt_level": 0},
    "gcc-O1": {"opt_level": 1},
    "gcc-O3-parallel": {"parallel": True},
    "icc-O2": {"personality": "icc", "opt_level": 2},
}


def image_digest(name: str, config: str) -> str:
    image = compile_workload(name, CompileOptions(**OPTION_SETS[config]))
    return hashlib.sha256(image.serialize()).hexdigest()


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("config", list(OPTION_SETS))
def test_images_match_golden(config):
    golden = _golden()
    moved = [name for name in all_benchmarks()
             if image_digest(name, config) != golden[f"{name}/{config}"]]
    assert moved == []


def test_golden_covers_every_image():
    assert sorted(_golden()) == sorted(
        f"{name}/{config}" for name in all_benchmarks()
        for config in OPTION_SETS)


if __name__ == "__main__":
    digest = {f"{name}/{config}": image_digest(name, config)
              for name in all_benchmarks() for config in OPTION_SETS}
    GOLDEN.write_text(json.dumps(digest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(digest)} images)")
