"""Experiment orchestration: single runs, alone-run management, sweeps.

A run simulates the full workload mix, then re-simulates every trace in
isolation (same configuration and policy) to obtain alone-run IPCs for the
speedup metrics. Alone runs are cached by trace digest and config hash,
which covers the policy, so sweeps do not recompute them.

`ExperimentConfig` declares the experiment's own fields (traces, device
sizes and presets, latency multipliers, queue capacities) and inherits the
rest from `simulator.RunSettings`, which `sim_config()` copies into the
`SimConfig` unchanged; every setting and its default is declared once.

Config files are INI-style. The keys of the `[experiment]` section are
exactly the `ExperimentConfig` field names, each parsed by its field's
type. The two list fields have their own formats: `traces` is a
comma-separated list of paths, `preload_dram_pages` a comma- or
space-separated list of page numbers. An optional `[sweep]` section has
`axis` (`dram_size` or `nvm_latency`) and `values` (see
`parse_sweep_values`).
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields, replace

from .controller import ControllerConfig
from .device import DeviceGeometry, load_timing
from .metrics import AppResult, EnergyReport, SimReport, config_hash
from .simulator import RunSettings, SimConfig, Simulation
from .trace import Trace


@dataclass(frozen=True)
class ExperimentConfig(RunSettings):
    """Resolved description of one experiment point."""

    traces: tuple[str, ...] = ()      # paths; in-memory traces may be passed to run()
    dram_bytes: int = 512 << 20
    nvm_bytes: int = 16 << 30
    dram_preset: str = "dram-baseline"
    nvm_preset: str = "nvm-baseline"
    t_rcd_mult: float = 1.0           # NVM activation-time scaling
    t_wr_mult: float = 1.0            # NVM write-recovery scaling
    page_bytes: int = 8192
    read_queue: int = 64
    write_buffer: int = 32
    seed: int = 0

    def sim_config(self) -> SimConfig:
        shared = {f.name: getattr(self, f.name) for f in fields(RunSettings)}
        nvm_timing = load_timing(self.nvm_preset).scaled(self.t_rcd_mult,
                                                         self.t_wr_mult)
        return SimConfig(
            dram_timing=load_timing(self.dram_preset),
            nvm_timing=nvm_timing,
            dram_geometry=DeviceGeometry(self.dram_bytes, page_bytes=self.page_bytes),
            nvm_geometry=DeviceGeometry(self.nvm_bytes, page_bytes=self.page_bytes),
            controller=ControllerConfig(read_queue_capacity=self.read_queue,
                                        write_buffer_capacity=self.write_buffer),
            **shared,
        )

    def resolved(self) -> dict:
        """The fields that define the simulated result, tuples as lists."""
        out = {}
        for f in fields(self):
            if f.name not in _RUN_CONTROL:
                value = getattr(self, f.name)
                out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


# Fields that only bound or instrument a run: kept out of resolved(), and so
# out of the report's config block, its hash and the alone-run cache key.
_RUN_CONTROL = frozenset({"max_cycles", "collect_quantum_log"})


@dataclass(frozen=True)
class SweepSpec:
    axis: str                 # "dram_size" or "nvm_latency"
    values: tuple             # sizes in bytes, or (t_rcd_mult, t_wr_mult) pairs

    def validate(self):
        if self.axis not in ("dram_size", "nvm_latency"):
            raise ValueError(f"unknown sweep axis {self.axis!r}")
        if not self.values:
            raise ValueError("sweep needs at least one value")
        for v in self.values:
            if self.axis == "dram_size":
                ok = isinstance(v, int) and v > 0
                want = "a positive byte count"
            else:
                ok = (isinstance(v, (tuple, list)) and len(v) == 2
                      and all(isinstance(x, (int, float)) and x > 0 for x in v))
                want = "a pair of positive (t_rcd_mult, t_wr_mult) multipliers"
            if not ok:
                raise ValueError(f"{self.axis} sweep value {v!r} is not {want}")
        keys = [v if self.axis == "dram_size" else tuple(v) for v in self.values]
        if sorted(keys) != keys or len(set(keys)) != len(keys):
            raise ValueError("sweep values must be strictly increasing")

    def apply(self, config: ExperimentConfig, value) -> ExperimentConfig:
        if self.axis == "dram_size":
            return replace(config, dram_bytes=int(value))
        rcd, wr = value
        return replace(config, t_rcd_mult=float(rcd), t_wr_mult=float(wr))


def _load_traces(config: ExperimentConfig, traces):
    if traces is not None:
        return list(traces)
    if not config.traces:
        raise ValueError("no traces configured")
    return [Trace.from_file(p) for p in config.traces]


def _simulate(config: ExperimentConfig, traces) -> Simulation:
    sim = Simulation(config.sim_config(), traces)
    return sim.run()


def run(config: ExperimentConfig, traces=None, alone: bool = True,
        alone_cache: dict | None = None) -> SimReport:
    """Simulate the mix; optionally add alone-run IPCs and speedup metrics."""
    traces = _load_traces(config, traces)
    sim = _simulate(config, traces)
    resolved = config.resolved()
    chash = config_hash(resolved)

    apps = []
    for i, core in enumerate(sim.cores):
        win = sim.measured_window(i)
        apps.append(AppResult(
            app_id=i,
            name=core.name,
            instructions=config.measured_instructions,
            cycles=win["cycle"],
            ipc_shared=_ipc(core, win),
            t_stall=win["t_stall"],
            t_delay=win["t_delay"],
            t_interference=win["t_interference"],
            reads=win["reads"],
            writes=win["writes"],
            row_hits=win["row_hits"],
            row_misses=win["row_misses"],
        ))

    dram_dyn, dram_stby, nvm_dyn, nvm_stby = sim.total_energy_joules()
    report = SimReport(
        policy=config.policy,
        config=resolved,
        config_hash=chash,
        elapsed_cycles=sim.cycle,
        elapsed_seconds=sim.cycle * sim.config.dram_timing.clock_period_ns * 1e-9,
        apps=apps,
        energy=EnergyReport(dram_dyn, dram_stby, nvm_dyn, nvm_stby),
        total_stall=sum(c.t_stall for c in sim.cores),
        pages_promoted=sim.engine.pages_promoted,
        pages_evicted=sim.engine.pages_evicted,
        migration_bytes=sim.engine.traffic_bytes,
    )

    if alone:
        for i, tr in enumerate(traces):
            apps[i].ipc_alone = alone_ipc(config, tr, alone_cache)
        report.compute_speedups()
    report._sim = sim  # transient handle for callers that inspect state
    return report


def _ipc(core, win: dict) -> float:
    """IPC over the measured window `win` of `core`.

    A run cut off by max_cycles before the app finished gets the rate it
    retired at since warmup, 0 if it never got past warmup.
    """
    return max(0, min(core.head, core.done_pos) - core.warm_pos) / max(1, win["cycle"])


def alone_ipc(config: ExperimentConfig, trace: Trace,
              cache: dict | None = None) -> float:
    """IPC of one trace run in isolation under the same config and policy.

    `bench/spans.py` times this by replacing it in the module, so it must
    stay a module-level function that `run` calls by its global name.
    """
    alone_cfg = replace(config, traces=())
    if cache is None:
        return _alone(alone_cfg, trace)
    key = (trace.digest(), config_hash(alone_cfg.resolved()))
    if key not in cache:
        cache[key] = _alone(alone_cfg, trace)
    return cache[key]


def _alone(alone_cfg: ExperimentConfig, trace: Trace) -> float:
    sim = _simulate(alone_cfg, [trace])
    return _ipc(sim.cores[0], sim.measured_window(0))


def sweep(config: ExperimentConfig, spec: SweepSpec, traces=None,
          alone: bool = True):
    """Run every sweep point; returns [(value, SimReport | Exception)]."""
    spec.validate()
    traces = _load_traces(config, traces)
    cache: dict = {}
    results = []
    for value in spec.values:
        point = spec.apply(config, value)
        try:
            results.append((value, run(point, traces=traces, alone=alone,
                                       alone_cache=cache)))
        except Exception as exc:  # a broken point must not kill the sweep
            results.append((value, exc))
    return results


# ---------------------------------------------------------------------------
# Config file parsing

_CONFIG_FIELDS = {f.name: f for f in fields(ExperimentConfig)}
# Parser of one INI value, by the field's annotated type.
_FROM_TEXT = {
    "str": str.strip,
    "int": int,
    "int | None": int,
    "float": float,
    "tuple[str, ...]": lambda raw: tuple(t.strip() for t in raw.split(",")
                                         if t.strip()),
    "tuple[int, ...]": lambda raw: tuple(int(t) for t in raw.replace(",", " ").split()),
}


def parse_sweep_values(axis: str, text: str, dram_unit: int = 1) -> tuple:
    """Sweep values from text.

    dram_size: sizes separated by commas or spaces, in units of `dram_unit`
    bytes; nvm_latency: 'rcd,wr;rcd,wr' multiplier pairs.
    """
    if axis == "dram_size":
        return tuple(int(v) * dram_unit for v in text.replace(",", " ").split())
    return tuple(tuple(float(x) for x in pair.replace(",", " ").split())
                 for pair in text.split(";") if pair.strip())


def load_experiment_config(path) -> tuple[ExperimentConfig, SweepSpec | None]:
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise FileNotFoundError(path)
        kwargs = {}
        if parser.has_section("experiment"):
            section = parser["experiment"]
            for key in section:
                if key not in _CONFIG_FIELDS:
                    raise ValueError(f"{path}: unknown experiment key {key!r}")
                ftype = _CONFIG_FIELDS[key].type
                try:
                    kwargs[key] = (section.getboolean(key) if ftype == "bool"
                                   else _FROM_TEXT[ftype](section[key]))
                except ValueError as exc:
                    raise ValueError(f"{path}: {key}: {exc}") from exc
        spec = None
        if parser.has_section("sweep"):
            axis = parser.get("sweep", "axis")
            spec = SweepSpec(axis, parse_sweep_values(axis, parser.get("sweep", "values")))
    except configparser.Error as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if spec is not None:
        spec.validate()
    return ExperimentConfig(**kwargs), spec
