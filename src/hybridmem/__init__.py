"""Hybrid DRAM-NVM main-memory simulator with utility-based page placement."""

from .device import (
    DRAM_BASELINE, NVM_BASELINE, Bank, DevTiming, DeviceGeometry, EnergyMeter,
    READ, WRITE, ROW_HIT, ROW_MISS, load_timing,
    read_miss_latency, service_latency, write_miss_latency,
)
from .controller import ChannelController, ControllerConfig, MemRequest, SYSTEM_APP
from .core import AppCore
from .metrics import (
    AppResult, EnergyReport, MissingAloneRun, SimReport, harmonic_speedup,
    normalize_reports, perf_per_watt, unfairness, weighted_speedup,
)
from .migration import MigrationEngine, TagStore
from .policies import POLICY_NAMES, PolicyDecision, make_policy
from .runner import ExperimentConfig, SweepSpec, alone_ipc, run, sweep
from .simulator import SimConfig, Simulation
from .trace import (
    InvalidSpec, MalformedRecord, PageClass, SynthSpec, Trace, TraceError,
    TraceEvent, TraceHeader, UnsupportedVersion, generate, three_page_spec,
)
from .ubm import (
    HotPageCounters, PageStats, StatStore, ThresholdController, avg_mlp_ratio,
    estimate_speedup, mlp_quotient, quantize_speedup, sensitivity,
)

__version__ = "0.1.0"
