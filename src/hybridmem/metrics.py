"""Evaluation metrics and the end-of-run report bundle.

Speedups compare each application's shared-run IPC against its alone-run
IPC under the same configuration and policy. Reports serialize to JSON
(lossless round trip) and CSV (one row per application plus totals).

Each table's column names are declared once here: `SimReport.summary()`
is the run summary, the headline metrics that the report CSV's metric
rows, `sweep.csv` and the `hybridmem report` table list; `APP_COUNTERS`
the per-application counters; `SPEEDUPS` the metrics `normalize_reports`
compares against a baseline.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import asdict, dataclass

from .fields import json_object, read_fields


# The speedup metrics, each a `SimReport` field.
SPEEDUPS = ("weighted_speedup", "harmonic_speedup", "unfairness")
# The counters an `AppResult` copies from its application's measured window.
APP_COUNTERS = ("t_stall", "t_delay", "t_interference", "reads", "writes",
                "row_hits", "row_misses")


class MissingAloneRun(ValueError):
    """A speedup metric was requested without alone-run IPC data."""


def _check_pairs(pairs):
    if not pairs:
        raise MissingAloneRun("no applications")
    for shared, alone in pairs:
        if alone is None or alone <= 0:
            raise MissingAloneRun("alone-run IPC missing or non-positive")
        if shared <= 0:
            raise MissingAloneRun("shared-run IPC must be positive")


def weighted_speedup(pairs) -> float:
    """Sum over applications of IPC_shared / IPC_alone (system throughput)."""
    _check_pairs(pairs)
    return sum(shared / alone for shared, alone in pairs)


def harmonic_speedup(pairs) -> float:
    """N / sum(IPC_alone / IPC_shared); emphasizes turnaround time."""
    _check_pairs(pairs)
    return len(pairs) / sum(alone / shared for shared, alone in pairs)


def unfairness(pairs) -> float:
    """Maximum slowdown: max over applications of IPC_alone / IPC_shared."""
    _check_pairs(pairs)
    return max(alone / shared for shared, alone in pairs)


def perf_per_watt(wspeedup: float, total_joules: float, elapsed_seconds: float) -> float:
    if total_joules <= 0 or elapsed_seconds <= 0:
        raise ValueError("energy and elapsed time must be positive")
    return wspeedup / (total_joules / elapsed_seconds)


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass
class AppResult:
    app_id: int
    name: str
    instructions: int
    cycles: int
    ipc_shared: float
    ipc_alone: float | None = None
    t_stall: int = 0
    t_delay: int = 0
    t_interference: int = 0
    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0

    @property
    def speedup(self) -> float | None:
        if self.ipc_alone is None or self.ipc_alone <= 0:
            return None
        return self.ipc_shared / self.ipc_alone


@dataclass
class EnergyReport:
    dram_dynamic_j: float = 0.0
    dram_standby_j: float = 0.0
    nvm_dynamic_j: float = 0.0
    nvm_standby_j: float = 0.0

    @property
    def total_j(self) -> float:
        return (self.dram_dynamic_j + self.dram_standby_j
                + self.nvm_dynamic_j + self.nvm_standby_j)


@dataclass
class SimReport:
    policy: str
    config: dict
    config_hash: str
    elapsed_cycles: int
    elapsed_seconds: float
    apps: list
    energy: EnergyReport
    total_stall: int = 0
    pages_promoted: int = 0
    pages_evicted: int = 0
    migration_bytes: int = 0
    weighted_speedup: float | None = None
    harmonic_speedup: float | None = None
    unfairness: float | None = None
    perf_per_watt: float | None = None
    schema_version: int = 1

    def compute_speedups(self):
        """Fill in the speedup metrics once alone-run IPCs are present."""
        pairs = [(a.ipc_shared, a.ipc_alone) for a in self.apps]
        self.weighted_speedup = weighted_speedup(pairs)
        self.harmonic_speedup = harmonic_speedup(pairs)
        self.unfairness = unfairness(pairs)
        if self.energy.total_j > 0 and self.elapsed_seconds > 0:
            self.perf_per_watt = perf_per_watt(
                self.weighted_speedup, self.energy.total_j, self.elapsed_seconds)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "SimReport":
        """Rebuild a report; ValueError names what does not fit the schema."""
        data = _fields_of(cls, data, "report")
        data["apps"] = [AppResult(**_fields_of(AppResult, a, f"report app {i}"))
                        for i, a in enumerate(data["apps"])]
        data["energy"] = EnergyReport(**_fields_of(EnergyReport, data["energy"],
                                                   "report 'energy'"))
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "SimReport":
        return cls.from_dict(json.loads(text, object_pairs_hook=json_object))

    def summary(self) -> dict:
        """The run's headline metrics, in the order every table lists them."""
        return {
            **{m: getattr(self, m) for m in SPEEDUPS},
            "total_stall": self.total_stall,
            "pages_promoted": self.pages_promoted,
            "energy_j": self.energy.total_j,
            "perf_per_watt": self.perf_per_watt,
            "elapsed_cycles": self.elapsed_cycles,
            "pages_evicted": self.pages_evicted,
            "migration_bytes": self.migration_bytes,
        }

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["row", "app", "policy", "instructions", "cycles",
                         "ipc_shared", "ipc_alone", "speedup", *APP_COUNTERS])
        for a in self.apps:
            writer.writerow([
                "app", a.name, self.policy, a.instructions, a.cycles,
                f"{a.ipc_shared:.6f}",
                "" if a.ipc_alone is None else f"{a.ipc_alone:.6f}",
                "" if a.speedup is None else f"{a.speedup:.6f}",
                *(getattr(a, c) for c in APP_COUNTERS),
            ])
        for name, value in self.summary().items():
            writer.writerow(["metric", name, self.policy, "" if value is None else value])
        return out.getvalue()


def _fields_of(cls, data, what: str) -> dict:
    """JSON object `data` as keyword arguments of dataclass `cls`."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} is not a JSON object")
    return read_fields(cls, what, ((None, k, v) for k, v in data.items()), decoded=True)


def normalize_reports(reports, baseline_policy: str = "all"):
    """Per-metric ratios against a named baseline policy's report.

    Returns {policy: {metric: normalized value}} for the speedup metrics,
    so it takes one report per policy.
    """
    by_policy = {}
    for r in reports:
        if by_policy.setdefault(r.policy, r) is not r:
            raise ValueError(f"more than one report of policy {r.policy!r}")
    if baseline_policy not in by_policy:
        raise ValueError(f"baseline policy {baseline_policy!r} not among reports")
    base = by_policy[baseline_policy]

    def ratio(r, m):
        v, b = getattr(r, m), getattr(base, m)
        return None if (v is None or not b) else v / b
    return {r.policy: {m: ratio(r, m) for m in SPEEDUPS} for r in reports}
