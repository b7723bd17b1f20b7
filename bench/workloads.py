"""Benchmark workloads: synthetic 4-app mixes and the experiment each runs.

Every workload draws its traces from the same four application shapes, so
the workloads differ only in read fraction, trace length and experiment
settings. Each run uses several independent trace sets (mixes) derived
from the run seed; host times over several mixes vary far less from seed
to seed than a single mix, whose migration behaviour can flip between
flowing and stalling. A traced run uses the first TRACED_MIXES of them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

from hybridmem.runner import ExperimentConfig
from hybridmem.trace import PageClass, SynthSpec, generate

TRACED_MIXES = 4
_MIX_STRIDE = 1000              # no two seeds' mixes share an app seed below this
DRAM_BYTES = 16 << 20           # 2048 pages of 8 KiB
QUANTUM_CYCLES = 25_000         # short, so threshold and speedups adapt
MAX_CYCLES = 2_000_000          # livelock guard, over 20x the longest mix

# (name, target MPKI, page classes). The footprint is about 4x the DRAM.
# Each shape has a small, heavily used class, so promoted pages are reused
# and written while later migrations are still running.
_SHAPES = (
    ("stream", 30.0, (PageClass(pages=3072, row_hit_prob=0.7),
                      PageClass(pages=32, weight=3.0, row_hit_prob=0.5))),
    ("bursty", 15.0, (PageClass(pages=2048, burst=8, row_hit_prob=0.1),
                      PageClass(pages=32, weight=3.0, burst=4))),
    ("rowlocal", 10.0, (PageClass(pages=1536, row_hit_prob=0.9),
                        PageClass(pages=32, weight=3.0, row_hit_prob=0.9))),
    ("light", 1.0, (PageClass(pages=512, row_hit_prob=0.3),)),
)


@dataclass(frozen=True)
class Workload:
    name: str
    policy: str
    read_fraction: float
    instructions: int           # measured instructions per app
    trace_span: float           # trace length in units of `instructions`
    write_buffer: int
    mixes: int = TRACED_MIXES
    migration: bool = True
    alone: bool = True

    @property
    def ops_per_command(self) -> int:
        """Simulations per command: the mix plus one alone run per app."""
        return 1 + (len(_SHAPES) if self.alone else 0)

    def config(self, traces) -> ExperimentConfig:
        return ExperimentConfig(
            traces=tuple(str(p) for p in traces),
            policy=self.policy,
            dram_bytes=DRAM_BYTES,
            quantum_cycles=QUANTUM_CYCLES,
            measured_instructions=self.instructions,
            write_buffer=self.write_buffer,
            migration_enabled=self.migration,
            max_cycles=MAX_CYCLES,
        )


WORKLOADS = {w.name: w for w in (
    # Read-only, with a write buffer whose drain watermark (48) migration
    # writes alone (4 jobs x 8 blocks) never reach: every migration parks
    # at once, as in ROADMAP item 1, and the run is spent scoring pages.
    Workload("ubm_read", policy="ubm", read_fraction=1.0, instructions=150_000,
             trace_span=1.3, write_buffer=64),
    # Write-heavy under `all`: demand writes to promoted pages cross the
    # drain watermark, so migration blocks are most of the requests. How
    # much migrates differs from mix to mix (a mix's requests vary by about
    # 20%, at any length), so a run measures many short mixes.
    Workload("all_write", policy="all", read_fraction=0.3, instructions=25_000,
             trace_span=1.3, write_buffer=32, mixes=32),
    # The ubm_read traces, 20x longer than the simulated window, one
    # simulation with migration off: trace I/O, cores and the controller.
    Workload("nomig_longtrace", policy="ubm", read_fraction=1.0, instructions=150_000,
             trace_span=20.0, write_buffer=64, migration=False, alone=False),
)}


def specs(workload: Workload, seed: int, mix: int) -> list[SynthSpec]:
    """The four app specs of one mix; apps never share pages."""
    out = []
    first_page = 0
    for app, (name, mpki, classes) in enumerate(_SHAPES):
        out.append(SynthSpec(
            name=name, target_mpki=mpki, classes=classes,
            read_fraction=workload.read_fraction,
            seed=(seed * _MIX_STRIDE + mix) * len(_SHAPES) + app,
            first_page=first_page,
        ))
        first_page += sum(c.pages for c in classes) + 64
    return out


def write_mixes(workload: Workload, seed: int, outdir: Path) -> list[list[Path]]:
    """Generate every mix of a run as .hmt files; returns paths per mix."""
    mixes = []
    for mix in range(workload.mixes):
        paths = []
        for spec in specs(workload, seed, mix):
            insts = workload.instructions * workload.trace_span
            accesses = math.ceil(insts * spec.target_mpki / 1000)
            path = outdir / f"mix{mix}-{spec.name}.hmt"
            generate(spec, accesses).save(path)
            paths.append(path)
        mixes.append(paths)
    return mixes


def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]
