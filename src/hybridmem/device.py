"""DRAM/NVM device models: per-bank row-buffer state, command timing, energy.

Both device types share one timing abstraction; they differ only in
parameter values (NVM has a much larger activation time and write-recovery
time). Latencies are specified in nanoseconds and converted to controller
cycles through the clock period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace, fields

from .fields import read_fields

# Request kinds / row-buffer outcomes. Plain ints: these sit on the
# simulator's hottest paths.
READ = 0
WRITE = 1

ROW_HIT = 0
ROW_MISS = 1

# Where a request is served.
DRAM_CHANNEL = 0
NVM_CHANNEL = 1
BUFFER_CHANNEL = 2     # serviced from the migration buffer, no bank involved

SYSTEM_APP = -1        # migration traffic; excluded from per-app accounting


@dataclass(frozen=True)
class DevTiming:
    """Timing and energy parameter set for one memory device."""

    name: str
    clock_period_ns: float   # controller clock period
    t_cl_ns: float           # column access (row-buffer read/write)
    t_rcd_ns: float          # activate: row -> row buffer
    t_rp_ns: float           # precharge
    t_wr_ns: float           # write recovery (array restore)
    array_read_pj_bit: float
    array_write_pj_bit: float
    rb_read_pj_bit: float
    rb_write_pj_bit: float
    standby_uw_bit: float

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name != "name" and not 0 < v < math.inf:
                raise ValueError(f"{f.name} must be finite and > 0, got {v!r}")

    def cycles(self, ns: float) -> int:
        """Convert a latency in ns to whole cycles (round to nearest)."""
        return int(round(ns / self.clock_period_ns))

    def scaled(self, t_rcd_mult: float = 1.0, t_wr_mult: float = 1.0) -> "DevTiming":
        """Copy with activation / write-recovery times scaled."""
        if t_rcd_mult == 1 and t_wr_mult == 1:
            return self
        return replace(
            self,
            name=f"{self.name}x{t_rcd_mult:g}/{t_wr_mult:g}",
            t_rcd_ns=self.t_rcd_ns * t_rcd_mult,
            t_wr_ns=self.t_wr_ns * t_wr_mult,
        )


@dataclass(frozen=True)
class DeviceGeometry:
    """Physical organization of one device (single channel).

    A page fills one row buffer, so the device's rows are its pages.
    """

    capacity_bytes: int
    banks: int = 8
    page_bytes: int = 8192

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ValueError(f"{f.name} must be positive, not {getattr(self, f.name)}")
        if self.capacity_bytes % (self.banks * self.page_bytes) != 0:
            raise ValueError("capacity must be a whole number of rows")

    @property
    def pages(self) -> int:
        return self.capacity_bytes // self.page_bytes

    @property
    def bits(self) -> int:
        return self.capacity_bytes * 8


class Bank:
    """One bank: an open-row latch and a busy-until horizon.

    busy_until only moves forward. A bank that tracks applications also
    sums its busy cycles and row opens per application, leaving out system
    traffic, for the controller's interference attribution. A busy span
    counts in full once occupied, so `busy_by_others` takes off the rest of
    a span still in progress; it is exact from the end of the span before.
    """

    __slots__ = (
        "open_row", "busy_until", "tracks_apps", "span_start", "span_app",
        "busy_apps", "busy_by_app", "opens_apps", "opens_by_app",
    )

    def __init__(self, tracks_apps: bool = True):
        self.open_row = None
        self.busy_until = 0
        self.tracks_apps = tracks_apps
        self.span_start = 0         # the last span is [span_start, busy_until)
        self.span_app = SYSTEM_APP
        # Busy cycles and row opens of all non-system applications, and of each.
        self.busy_apps = 0
        self.busy_by_app = {}
        self.opens_apps = 0
        self.opens_by_app = {}

    def busy_by_others(self, app_id: int, cycle: int) -> int:
        """Cycles up to `cycle` spent serving applications other than
        `app_id` and the system."""
        busy = self.busy_apps - self.busy_by_app.get(app_id, 0)
        owner = self.span_app
        if owner != app_id and owner != SYSTEM_APP:
            start = self.span_start
            rest = self.busy_until - (cycle if cycle > start else start)
            if rest > 0:
                busy -= rest
        return busy

    def opens_by_others(self, app_id: int) -> int:
        """Rows opened for applications other than `app_id` and the system."""
        return self.opens_apps - self.opens_by_app.get(app_id, 0)

    def occupy(self, app_id: int, start: int, length: int):
        """Mark the bank busy for [start, start+length) on behalf of app_id."""
        end = start + length
        if end < self.busy_until:
            raise AssertionError("bank busy_until must be non-decreasing")
        self.busy_until = end
        if self.tracks_apps:
            self.span_start = start
            self.span_app = app_id
            if app_id != SYSTEM_APP:
                self.busy_apps += length
                self.busy_by_app[app_id] = self.busy_by_app.get(app_id, 0) + length

    def open_for(self, row: int, app_id: int):
        """Record a row activation performed on behalf of app_id."""
        self.open_row = row
        if self.tracks_apps and app_id != SYSTEM_APP:
            self.opens_apps += 1
            self.opens_by_app[app_id] = self.opens_by_app.get(app_id, 0) + 1


def service_latency(timing: DevTiming, kind: int, outcome: int) -> int:
    """Bank occupancy in cycles for one request.

    Row hits are served from the row buffer (t_CL). A row miss pays
    precharge + activate + column access. Writes additionally hold the bank
    for t_WR (array restore before the next precharge can complete); the
    write buffer slot is released at the end of this full span.
    """
    ns = timing.t_cl_ns
    if outcome == ROW_MISS:
        ns += timing.t_rp_ns + timing.t_rcd_ns
    if kind == WRITE:
        ns += timing.t_wr_ns
    return timing.cycles(ns)


class EnergyMeter:
    """Dynamic + standby energy accounting for one device.

    Dynamic energy is charged per request over the transferred bits: a row
    miss pays array plus row-buffer energy per bit, a hit pays row-buffer
    energy only. A controller looks up `access_pj` once per (kind, outcome)
    and adds the entry to `dynamic_pj` at each issue. Standby energy is
    integrated over elapsed simulated time at report time.
    """

    __slots__ = ("timing", "geometry", "dynamic_pj")

    def __init__(self, timing: DevTiming, geometry: DeviceGeometry):
        self.timing = timing
        self.geometry = geometry
        self.dynamic_pj = 0.0

    def access_pj(self, bits: int, kind: int, outcome: int) -> float:
        """Dynamic energy of one access that moves `bits` bits."""
        t = self.timing
        if kind == READ:
            pj_bit = t.rb_read_pj_bit
            if outcome == ROW_MISS:
                pj_bit += t.array_read_pj_bit
        else:
            pj_bit = t.rb_write_pj_bit
            if outcome == ROW_MISS:
                pj_bit += t.array_write_pj_bit
        return bits * pj_bit

    def standby_joules(self, elapsed_cycles: int) -> float:
        seconds = elapsed_cycles * self.timing.clock_period_ns * 1e-9
        watts = self.geometry.bits * (self.timing.standby_uw_bit * 1e-6)
        return watts * seconds


# Baseline parameter sets (DDR3-style DRAM; PCM-style NVM). The NVM part
# differs in activation time, write recovery time and array energy.
DRAM_BASELINE = DevTiming(
    name="dram-baseline",
    clock_period_ns=1.875,
    t_cl_ns=15.0,
    t_rcd_ns=15.0,
    t_rp_ns=15.0,
    t_wr_ns=15.0,
    array_read_pj_bit=1.17,
    array_write_pj_bit=0.39,
    rb_read_pj_bit=0.93,
    rb_write_pj_bit=1.02,
    standby_uw_bit=21.0,
)

NVM_BASELINE = DevTiming(
    name="nvm-baseline",
    clock_period_ns=1.875,
    t_cl_ns=15.0,
    t_rcd_ns=67.5,
    t_rp_ns=15.0,
    t_wr_ns=180.0,
    array_read_pj_bit=2.47,
    array_write_pj_bit=16.82,
    rb_read_pj_bit=0.93,
    rb_write_pj_bit=1.02,
    standby_uw_bit=21.0,
)

PRESETS = {t.name: t for t in (DRAM_BASELINE, NVM_BASELINE)}


def load_timing(source) -> DevTiming:
    """Load a timing/energy preset.

    `source` is either a built-in preset name ("dram-baseline",
    "nvm-baseline") or a path to a plain-text file of `key = value` lines
    (`#` starts a comment), one per `DevTiming` field: `clock_period_ns`,
    `t_cl_ns`, `t_rcd_ns`, `t_rp_ns`, `t_wr_ns` in ns; `array_read_pj_bit`,
    `array_write_pj_bit`, `rb_read_pj_bit`, `rb_write_pj_bit` in pJ/bit;
    `standby_uw_bit` in uW/bit; and optionally `name` (default: the path).
    """
    name = str(source)
    if name in PRESETS:
        return PRESETS[name]
    entries = []
    with open(source, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{source}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            entries.append((lineno, key.strip().lower(), value.strip()))
    if all(key != "name" for _, key, _ in entries):
        entries.append((None, "name", name))
    kwargs = read_fields(DevTiming, source, entries)
    try:
        return DevTiming(**kwargs)
    except ValueError as exc:   # a value that parses but is out of range
        raise ValueError(f"{source}: {exc}") from None
