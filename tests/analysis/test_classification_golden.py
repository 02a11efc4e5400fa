"""What the analyser decided about every loop, and why, pinned byte for byte.

The golden records each loop's id, header, category and sorted reasons for
the 25 gcc -O3 binaries and the icc -O3 images of three binaries.  A change
that moves any of them is a change of analysis behaviour; regenerate the
golden only for a deliberate soundness fix::

    PYTHONPATH=src python tests/analysis/test_classification_golden.py
"""

import json
from pathlib import Path

import pytest

from repro.analysis import analyze_image
from repro.jcc import CompileOptions
from repro.workloads import all_benchmarks, compile_workload

GOLDEN = Path(__file__).with_name("classification_golden.json")
ICC_BINARIES = ("453.povray", "462.libquantum", "470.lbm")


def _images() -> list[tuple[str, str, CompileOptions]]:
    gcc = [(name, "gcc-O3", CompileOptions()) for name in all_benchmarks()]
    icc = [(name, "icc-O3", CompileOptions(personality="icc"))
           for name in ICC_BINARIES]
    return gcc + icc


def classification_digest(name: str, options: CompileOptions) -> list:
    analysis = analyze_image(compile_workload(name, options))
    return [[result.loop_id, result.loop.header, result.category.value,
             sorted(result.reasons)]
            for result in analysis.loops]


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name,config,options", _images(),
                         ids=[f"{n}/{c}" for n, c, _ in _images()])
def test_classification_matches_golden(name, config, options):
    expected = _golden()[f"{name}/{config}"]
    assert classification_digest(name, options) == expected


def test_golden_covers_every_image():
    assert sorted(_golden()) == sorted(f"{n}/{c}" for n, c, _ in _images())


if __name__ == "__main__":
    digest = {f"{name}/{config}": classification_digest(name, options)
              for name, config, options in _images()}
    GOLDEN.write_text(json.dumps(digest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(digest)} images)")
