"""Experiment orchestration: single runs, alone-run management, sweeps.

A run simulates the full workload mix, then re-simulates every trace in
isolation (same configuration and policy) to obtain alone-run IPCs for the
speedup metrics. Alone runs are cached by trace digest and config hash,
which covers the policy and names each input file by its content, so
sweeps do not recompute them.

`ExperimentConfig` declares the experiment's own fields (traces, device
sizes and presets, latency multipliers, queue capacities) and inherits the
rest from `simulator.RunSettings`, which `sim_config()` copies into the
`SimConfig` unchanged; every setting and its default is declared once, the
device and queue defaults by the `SimConfig` they build.

Config files are INI-style. The keys of the `[experiment]` section are
exactly the `ExperimentConfig` field names, each parsed by its field's
type as `fields.TYPES` says: `traces` is a comma-separated list of paths,
`preload_dram_pages` a comma- or space-separated list of page numbers.
An optional `[sweep]` section has `axis` (`dram_size` or `nvm_latency`)
and `values` (see `parse_sweep_values`).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import asdict, dataclass, fields, replace

from .controller import ControllerConfig
from .device import PRESETS, DeviceGeometry, load_timing
from .fields import read_fields
from .metrics import APP_COUNTERS, AppResult, EnergyReport, SimReport, config_hash
from .simulator import RunSettings, SimConfig, Simulation
from .trace import Trace


@dataclass(frozen=True)
class ExperimentConfig(RunSettings):
    """Resolved description of one experiment point."""

    traces: tuple[str, ...] = ()      # paths; in-memory traces may be passed to run()
    dram_bytes: int = SimConfig.dram_geometry.capacity_bytes
    nvm_bytes: int = SimConfig.nvm_geometry.capacity_bytes
    dram_preset: str = SimConfig.dram_timing.name
    nvm_preset: str = SimConfig.nvm_timing.name
    t_rcd_mult: float = 1.0           # NVM activation-time scaling
    t_wr_mult: float = 1.0            # NVM write-recovery scaling
    page_bytes: int = DeviceGeometry.page_bytes
    read_queue: int = ControllerConfig.read_queue_capacity
    write_buffer: int = ControllerConfig.write_buffer_capacity
    seed: int = 0

    def sim_config(self) -> SimConfig:
        for name in ("t_rcd_mult", "t_wr_mult"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, not {getattr(self, name)}")
        shared = {f.name: getattr(self, f.name) for f in fields(RunSettings)}
        nvm_timing = load_timing(self.nvm_preset).scaled(self.t_rcd_mult,
                                                         self.t_wr_mult)
        config = SimConfig(
            dram_timing=load_timing(self.dram_preset),
            nvm_timing=nvm_timing,
            dram_geometry=self._geometry("dram_bytes"),
            nvm_geometry=self._geometry("nvm_bytes"),
            controller=ControllerConfig(read_queue_capacity=self.read_queue,
                                        write_buffer_capacity=self.write_buffer),
            **shared,
        )
        pages, ways = config.dram_geometry.pages, config.tag_associativity
        if pages % ways:
            raise ValueError(f"dram_bytes must be a positive multiple of {ways} pages "
                             f"of {self.page_bytes} bytes, whole {ways}-way tag "
                             f"sets, not {self.dram_bytes} ({pages} pages)")
        return config

    def _geometry(self, name: str) -> DeviceGeometry:
        """The geometry of the device whose size, in whole rows, is field `name`."""
        size, banks = getattr(self, name), DeviceGeometry.banks
        # `DeviceGeometry` itself rejects a page size that is not positive.
        if self.page_bytes > 0 and (size <= 0 or size % (banks * self.page_bytes)):
            raise ValueError(f"{name} must be a positive whole number of rows, each "
                             f"{banks} banks of {self.page_bytes}-byte pages, not {size}")
        return DeviceGeometry(size, page_bytes=self.page_bytes)

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
                      and all(isinstance(x, (int, float)) and 0 < x < math.inf for x in v))
                want = "a pair of finite positive (t_rcd_mult, t_wr_mult) multipliers"
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


def run(config: ExperimentConfig, traces=None, alone: bool = True,
        alone_cache: dict | None = None) -> SimReport:
    """Simulate the mix; optionally add alone-run IPCs and speedup metrics."""
    traces = _load_traces(config, traces)
    digests = [t.digest() for t in traces]
    sim = Simulation(config.sim_config(), traces).run()

    apps = []
    for i, core in enumerate(sim.cores):
        win = sim.measured_window(i)
        apps.append(AppResult(
            app_id=i, name=core.name, instructions=config.measured_instructions,
            cycles=win["cycle"], ipc_shared=_ipc(core, win),
            **{c: win[c] for c in APP_COUNTERS}))

    dram_dyn, dram_stby, nvm_dyn, nvm_stby = sim.total_energy_joules()
    report = SimReport(
        policy=config.policy,
        config=config.resolved(),
        config_hash=_experiment_hash(config, digests),
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
        for app, trace, digest in zip(apps, traces, digests):
            app.ipc_alone = alone_ipc(config, trace, alone_cache, digest)
        report.compute_speedups()
    report._sim = sim  # transient handle for callers that inspect state
    return report


def _experiment_hash(config: ExperimentConfig, digests) -> str:
    """The report's config hash, and the alone-run cache key's, of `config`
    run on traces of `Trace.digest()`s `digests`. A path says where a file
    is, not what it holds: a trace given by path is named by its digest, a
    timing file by the `DevTiming` it loads, less its name (the path by
    default). Built-in presets and in-memory traces are named as given."""
    resolved = config.resolved()
    if config.traces:
        resolved["traces"] = list(digests)
    for key in ("dram_preset", "nvm_preset"):
        if resolved[key] not in PRESETS:
            timing = asdict(load_timing(resolved[key]))
            resolved[key] = config_hash({**timing, "name": None})
    return config_hash(resolved)


def _ipc(core, win: dict) -> float:
    """IPC over the measured window `win` of `core`.

    A run cut off by max_cycles before the app finished gets the rate it
    retired at since warmup, 0 if it never got past warmup.
    """
    return max(0, min(core.head, core.done_pos) - core.warm_pos) / max(1, win["cycle"])


def alone_ipc(config: ExperimentConfig, trace: Trace,
              cache: dict | None = None, digest: str | None = None) -> float:
    """IPC of one trace run in isolation under the same config and policy;
    `digest` is `trace.digest()`, if the caller has it.

    `bench/spans.py` times this by replacing it in the module, so it must
    stay a module-level function that `run` calls by its global name.
    """
    alone_cfg = replace(config, traces=())
    if cache is None:
        return _alone(alone_cfg, trace)
    key = (digest or trace.digest(), _experiment_hash(alone_cfg, ()))
    if key not in cache:
        cache[key] = _alone(alone_cfg, trace)
    return cache[key]


def _alone(alone_cfg: ExperimentConfig, trace: Trace) -> float:
    sim = Simulation(alone_cfg.sim_config(), [trace]).run()
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
        # `[DEFAULT]` would be copied into every section: refused as well.
        unknown = [name for name in parser.sections()
                   if name not in ("experiment", "sweep")]
        if parser.defaults():
            unknown.insert(0, parser.default_section)
        if unknown:
            raise ValueError(f"{path}: unexpected section {', '.join(unknown)}")
        section = parser["experiment"] if parser.has_section("experiment") else {}
        kwargs = read_fields(ExperimentConfig, path,
                             ((None, key, text) for key, text in section.items()))
        spec = None
        if parser.has_section("sweep"):
            unknown = [f"{key}={text!r}" for key, text in parser["sweep"].items()
                       if key not in ("axis", "values")]
            if unknown:
                raise ValueError(f"{path}: unexpected keys {', '.join(unknown)}")
            axis = parser.get("sweep", "axis")
            spec = SweepSpec(axis, parse_sweep_values(axis, parser.get("sweep", "values")))
    except configparser.Error as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if spec is not None:
        spec.validate()
    return ExperimentConfig(**kwargs), spec
