"""Workload registry and compilation helpers."""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

from repro.jbin.image import JELF
from repro.jcc import CompileOptions, compile_source


@dataclass(frozen=True)
class Workload:
    """One synthetic SPEC-like benchmark."""

    name: str          # SPEC-style name, e.g. "470.lbm"
    program: str       # programs/<program>.jc
    language: str      # cosmetic: the SPEC benchmark's source language
    train_inputs: tuple
    ref_inputs: tuple
    description: str = ""


def _w(name, program, language, train, ref, description=""):
    return Workload(name=name, program=program, language=language,
                    train_inputs=tuple(train), ref_inputs=tuple(ref),
                    description=description)


# The nine benchmarks the paper parallelises (Figs. 7-12, Tables I).
FIG7_BENCHMARKS = (
    "410.bwaves", "433.milc", "436.cactusADM", "437.leslie3d",
    "459.GemsFDTD", "462.libquantum", "464.h264ref", "470.lbm",
    "482.sphinx3",
)

SUITE: dict[str, Workload] = {w.name: w for w in (
    # -- the Fig. 7 set ----------------------------------------------------
    _w("410.bwaves", "bwaves", "Fortran", train=(1,), ref=(3,),
       description="CFD; hot loop calls pow@plt (STM), 1 bounds check"),
    _w("433.milc", "milc", "C", train=(2,), ref=(10,),
       description="lattice QCD; many pointer bases, init/finish bound"),
    _w("436.cactusADM", "cactusadm", "C", train=(1,), ref=(4,),
       description="numerical relativity; icc -parallel vectorises this"),
    _w("437.leslie3d", "leslie3d", "Fortran", train=(3,), ref=(12,),
       description="LES; DOALL loops too short to profit"),
    _w("459.GemsFDTD", "gemsfdtd", "Fortran", train=(1,), ref=(3,),
       description="FDTD; pointer fields need many bounds checks"),
    _w("462.libquantum", "libquantum", "C", train=(2,), ref=(10,),
       description="quantum simulation; best case ~6x"),
    _w("464.h264ref", "h264ref", "C", train=(1,), ref=(3,),
       description="video encoder; DBM-hostile call/return traffic"),
    _w("470.lbm", "lbm", "C", train=(2,), ref=(8,),
       description="lattice Boltzmann; ~98% in one stencil"),
    _w("482.sphinx3", "sphinx3", "C", train=(2,), ref=(5,),
       description="speech recognition; Amdahl-limited ~1.3x"),
    # -- the rest of the Fig. 6 suite ---------------------------------------
    _w("400.perlbench", "perlbench", "C", train=(2,), ref=(4,),
       description="interpreter dispatch; incompatible-heavy"),
    _w("401.bzip2", "bzip2", "C", train=(2,), ref=(4,),
       description="compression; carried state everywhere"),
    _w("403.gcc", "gcc_bench", "C", train=(1,), ref=(2,),
       description="compiler; irregular control flow"),
    _w("429.mcf", "mcf", "C", train=(2,), ref=(4,),
       description="network simplex; pointer chasing"),
    _w("434.zeusmp", "zeusmp", "Fortran", train=(1,), ref=(2,),
       description="astro CFD; some DOALL below the 20% line"),
    _w("435.gromacs", "gromacs", "C/Fortran", train=(1,), ref=(2,),
       description="molecular dynamics; mixed"),
    _w("444.namd", "namd", "C++", train=(1,), ref=(2,),
       description="molecular dynamics; unrecognisable iterators"),
    _w("445.gobmk", "gobmk", "C", train=(1,), ref=(2,),
       description="go; recursive search and rand"),
    _w("447.dealII", "dealii", "C++", train=(1,), ref=(2,),
       description="FEM with STL-style control flow"),
    _w("450.soplex", "soplex", "C++", train=(1,), ref=(2,),
       description="LP simplex; pivot recurrences"),
    _w("453.povray", "povray", "C++", train=(1,), ref=(2,),
       description="ray tracer; rand and virtual dispatch"),
    _w("454.calculix", "calculix", "C/Fortran", train=(1,), ref=(2,),
       description="structural FEM; mixed categories"),
    _w("456.hmmer", "hmmer", "C", train=(1,), ref=(2,),
       description="HMM dynamic programming recurrences"),
    _w("458.sjeng", "sjeng", "C", train=(1,), ref=(2,),
       description="chess; search with carried alpha/beta"),
    _w("473.astar", "astar", "C++", train=(1,), ref=(2,),
       description="pathfinding; data-dependent worklists"),
    _w("483.xalancbmk", "xalancbmk", "C++", train=(1,), ref=(2,),
       description="XSLT; DOALL loops exist but ~1% of time"),
)}


def all_benchmarks() -> list[str]:
    return sorted(SUITE)


def get_workload(name: str) -> Workload:
    return SUITE[name]


def workload_source(workload: Workload) -> str:
    path = resources.files("repro.workloads") / "programs" \
        / f"{workload.program}.jc"
    return path.read_text()


# Compiled-image cache: (name, options signature) -> image.
_IMAGE_CACHE: dict[tuple, JELF] = {}


def compile_workload(name: str,
                     options: CompileOptions | None = None) -> JELF:
    """Compile a workload (cached per option set)."""
    options = options or CompileOptions()
    key = (name, options.opt_level, options.personality, options.mavx,
           options.parallel, options.parallel_threads)
    image = _IMAGE_CACHE.get(key)
    if image is None:
        workload = get_workload(name)
        image = compile_source(workload_source(workload), options)
        _IMAGE_CACHE[key] = image
    return image
