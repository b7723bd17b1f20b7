"""The cycle-level simulation engine.

Binds the cores, the two channel controllers, the migration engine and the
placement policy into one event-driven loop. Events carry an explicit
within-cycle priority so a cycle always unfolds as: completions, queue
injections, core dispatches, then a service phase (parked-request retries,
migration pumping, one command issue per channel), then quantum
bookkeeping. `dispatch` and `_complete` keep each application's request
accounting on its `AppCore`: in-flight counts, busy span, T_delay,
T_interference and request lifetimes. MLP sampling runs on a fixed period
and is batched across event gaps, which is exact because the in-flight
counts only change at events. Each core pushes its own wakes through
`_push`, only ones earlier than its pending wake (`AppCore.next_wake`),
which the loop clears.

No event is ever scheduled before the current cycle (`_push` raises), so
simulated time only moves forward. The service phase is not a heap event:
`_phase_cycle` holds the cycle it was last requested for, and the loop
enters that cycle unless a heap event comes first. It runs only where its
work can change something, and asks only the controllers whose `may_issue`
flag is set. A controller can issue only while it holds an eligible
request (a read; a write in a drain or with opportunistic writes) on a free
bank, and only three things create one: an enqueue on a free bank, a
completion, which frees its bank (a bank frees exactly at its request's
completion), and a write that starts a drain; ending a drain only narrows
eligibility. Each sets the flag, and an enqueue or completion that leaves
a flag set requests the phase in its own cycle; so does a completion while
a request is parked (the freed slot may admit it) or a migration job is
stopped on a full queue (`n_blocked`), which the phase re-pumps once a
queue it waits on has room; a finished block hands any other job its next
request. `try_issue` clears its flag and sets it again only when a request
on another bank was ready, and the phase then requests the next cycle. It
pushes each completion past `_push`'s guard: a service takes a cycle.

Page statistics -- the stat store, the MLP counters of pages with requests
in flight to NVM, and the MLP sampling that feeds them -- model hardware
that only a scoring policy needs, so a run keeps them only when migration
is on and its policy scores pages (`PlacementPolicy.scores_pages`): never
under `all`, which promotes every page, nor with migration off. That moves
no simulated output: only the policy's score and the `top_pages` debug
table read them. Each record is found by an int key: a stat-store entry
through the store's page index, a hot page's MLP counters by page and
application in one number; a sampling tick reads each record's core.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from . import ubm
from .controller import (
    BLOCK_BYTES, ChannelController, ControllerConfig, MemRequest, SYSTEM_APP,
)
from .core import AppCore
from .device import (
    BUFFER_CHANNEL, DRAM_BASELINE, NVM_BASELINE, NVM_CHANNEL,
    DevTiming, DeviceGeometry, EnergyMeter, READ, ROW_HIT, WRITE,
)
from .migration import MigrationEngine, TagStore
from .policies import PROMOTE, make_policy
from .ubm import HotPageCounters, StatStore, ThresholdController

# Event priorities (within one cycle). The service phase, which is not an
# event, runs between the cores' own wakes (`core.EV_CORE`) and the quantum
# events (see `run`).
_EV_COMPLETE = 0
_EV_INJECT = 1
_EV_QUANTUM = 3


# Cycles from a core's dispatch to its request reaching the memory
# controllers (the tag-store lookup), and for a hit in the migration buffer.
LOOKUP_CYCLES = 6
BUFFER_SERVICE_CYCLES = 1


@dataclass(frozen=True)
class RunSettings:
    """The settings that an experiment passes to the simulator unchanged.

    Both `SimConfig` and `runner.ExperimentConfig` inherit these fields, so
    each is declared, with its default, only here.
    """

    policy: str = "ubm"
    quantum_cycles: int = 1_000_000
    sampling_period: int = 30
    rob_capacity: int = 128
    mshr_capacity: int = 32
    migration_enabled: bool = True
    warmup_instructions: int = 0
    measured_instructions: int = 1_000_000
    preload_dram_pages: tuple[int, ...] = ()
    max_cycles: int | None = None
    collect_quantum_log: bool = False


@dataclass(frozen=True)
class SimConfig(RunSettings):
    """Everything a `Simulation` runs with.

    That is the `RunSettings`, the devices and controllers that
    `ExperimentConfig.sim_config()` builds from its sizes and presets, and
    three knobs that only direct callers set. Values that no configuration
    varies are constants instead: `LOOKUP_CYCLES`, `BUFFER_SERVICE_CYCLES`,
    `controller.BLOCK_BYTES`, and the `StatStore` and `MigrationEngine`
    defaults.
    """

    dram_timing: DevTiming = DRAM_BASELINE
    nvm_timing: DevTiming = NVM_BASELINE
    dram_geometry: DeviceGeometry = DeviceGeometry(512 << 20)
    nvm_geometry: DeviceGeometry = DeviceGeometry(16 << 30)
    controller: ControllerConfig = ControllerConfig()
    tag_associativity: int = 16
    migration_inflight_blocks: int = 8
    stat_decay: bool = False

    def validate(self):
        for name, least in (("quantum_cycles", 1), ("sampling_period", 1),
                            ("rob_capacity", 1), ("mshr_capacity", 1), ("max_cycles", 1),
                            ("warmup_instructions", 0), ("measured_instructions", 1)):
            value = getattr(self, name)
            if value is not None and value < least:   # max_cycles may be None
                raise ValueError(f"{name} must be at least {least}, not {value}")
        page_bytes = self.dram_geometry.page_bytes
        if page_bytes != self.nvm_geometry.page_bytes:
            raise ValueError("DRAM and NVM must share the page size")
        if page_bytes % BLOCK_BYTES:
            raise ValueError(f"page_bytes must be a positive multiple of "
                             f"{BLOCK_BYTES}, not {page_bytes}")


class Simulation:
    """One deterministic simulation instance over a fixed set of traces.

    The instance has slots and no `__dict__`: with more than 30 attributes
    in a dict, CPython 3.11 loads each through a dict lookup on the hot
    path. `bench/spans.py` times `__init__`, `run`, `dispatch` and
    `inject_migration` by replacing them on this class, so each must stay a
    method defined here.
    """

    __slots__ = (
        "config", "page_bytes", "block_bytes", "blocks_per_page", "cycle",
        "_heap", "_seq", "finished", "dram_energy", "nvm_energy", "_dram",
        "_nvm", "controllers", "tag", "engine", "policy", "keeps_page_stats",
        "store", "hot", "threshold", "latency_gaps", "cores",
        "app_issued", "sensitivities", "_quantum_snaps", "_marker_snaps", "_done_count",
        "quantum_log", "quantum_index", "_next_req_id", "_phase_cycle",
        "_next_sample", "_parked", "_free_requests",
    )

    def __init__(self, config: SimConfig, traces):
        config.validate()
        self.config = config
        self.page_bytes = config.dram_geometry.page_bytes
        self.block_bytes = BLOCK_BYTES
        self.blocks_per_page = self.page_bytes // self.block_bytes

        self.cycle = 0
        self._heap = []
        self._seq = 0
        self.finished = False

        self.dram_energy = EnergyMeter(config.dram_timing, config.dram_geometry)
        self.nvm_energy = EnergyMeter(config.nvm_timing, config.nvm_geometry)
        # With one application there is no interference to attribute.
        shared = len(traces) > 1
        self._dram = ChannelController(config.dram_timing, config.dram_geometry,
                                       config.controller, self.dram_energy, shared)
        self._nvm = ChannelController(config.nvm_timing, config.nvm_geometry,
                                      config.controller, self.nvm_energy, shared)
        self.controllers = [self._dram, self._nvm]
        self.tag = TagStore(config.dram_geometry.pages, config.tag_associativity)
        self.engine = MigrationEngine(self, self.tag, self.blocks_per_page,
                                      config.migration_inflight_blocks)
        for page in config.preload_dram_pages:
            if not self.tag.has_free_way(page):
                raise ValueError(f"preloaded page {page} overflows its DRAM set")
            self.tag.reserve(page)
            self.tag.finalize(page)

        self.policy = make_policy(config.policy)
        self.keeps_page_stats = config.migration_enabled and self.policy.scores_pages
        self.store = StatStore()
        self.threshold = ThresholdController()
        # NVM-DRAM (read, write) miss-latency gaps the policies score with.
        self.latency_gaps = ubm.latency_gaps(config.dram_timing, config.nvm_timing)

        self.cores = [
            AppCore(self, i, tr, config.rob_capacity, config.mshr_capacity,
                    config.warmup_instructions, config.measured_instructions)
            for i, tr in enumerate(traces)
        ]
        self.hot = HotPageCounters(self.cores)
        n = len(self.cores)
        # Issued demand requests by [app][kind][outcome].
        self.app_issued = [[[0, 0], [0, 0]] for _ in range(n)]
        # Each app's weight in the utility score, by app id: from the previous
        # quantum's speedup estimate (1 at first).
        self.sensitivities = [ubm.sensitivity(1.0, config.quantum_cycles)] * n
        # Counter snapshots at the last quantum boundary, and at the warmup
        # and completion markers; every counter is zero at cycle 0, which
        # stands in for an uncrossed warmup marker.
        self._quantum_snaps = [self._snapshot(i, 0) for i in range(n)]
        self._marker_snaps = [{"warm": snap} for snap in self._quantum_snaps]
        self._done_count = 0

        self.quantum_log = []
        self.quantum_index = 0

        self._next_req_id = 0
        # The latest cycle a service phase was requested for. Every request
        # is for the cycle the loop is working through (or, before `run()`,
        # for the cycle it starts at), except the phase's own request for
        # the next cycle, which it makes last; so one slot records them all.
        self._phase_cycle = -1
        self._next_sample = (config.sampling_period if self.keeps_page_stats
                             else math.inf)
        self._parked = 0
        # Finished system requests, which `inject_migration` re-arms.
        self._free_requests = []

        self._push(config.quantum_cycles, _EV_QUANTUM, None)
        for core in self.cores:
            core.run_to(0)

    # -- scheduling primitives --------------------------------------------

    def _push(self, cycle: int, prio: int, payload):
        if cycle < self.cycle:
            raise RuntimeError(f"event (priority {prio}) scheduled at cycle "
                               f"{cycle}, before the current cycle {self.cycle}")
        self._seq += 1
        heapq.heappush(self._heap, (cycle, prio, self._seq, payload))

    # -- core callbacks -----------------------------------------------------

    def dispatch(self, core: AppCore, addr: int, kind: int, cycle: int) -> MemRequest:
        self._next_req_id += 1
        req = MemRequest(self._next_req_id, core.app_id, addr // self.page_bytes, kind)
        req.mig_block = (addr % self.page_bytes) // self.block_bytes
        req.dispatch_cycle = cycle
        if not (core.outstanding_reads or core.outstanding_writes):
            core.delay_anchor = cycle
        if kind == READ:
            core.outstanding_reads += 1
        else:
            core.outstanding_writes += 1
        self._push(cycle + LOOKUP_CYCLES, _EV_INJECT, req)
        return req

    def on_app_marker(self, core: AppCore, which: str, marker_cycle: int):
        self._marker_snaps[core.app_id][which] = self._snapshot(core.app_id,
                                                                marker_cycle)
        if which == "done":
            self._done_count += 1
            if self._done_count == len(self.cores):
                self.finished = True

    # -- request flow -------------------------------------------------------

    def _inject(self, req: MemRequest, cycle: int) -> bool:
        channel = self.engine.route(req.page_id, req.mig_block)
        req.channel = channel
        if channel == BUFFER_CHANNEL:
            req.arrival_cycle = cycle
            req.completion_cycle = cycle + BUFFER_SERVICE_CYCLES
            self._push(req.completion_cycle, _EV_COMPLETE, req)
            return True
        ctrl = self.controllers[channel]
        if not ctrl.enqueue(req, cycle):
            return False
        if req.is_demand:
            if channel == NVM_CHANNEL:
                if self.keeps_page_stats:
                    self.hot.on_inject(req.page_id, req.app_id, req.kind)
            else:
                self.tag.touch(req.page_id)
        if self._dram.may_issue or self._nvm.may_issue:
            self._phase_cycle = cycle
        return True

    def _arrive(self, req: MemRequest, cycle: int):
        core = self.cores[req.app_id]
        if core.pending_inject or not self._inject(req, cycle):
            core.pending_inject.append(req)
            self._parked += 1
            core.run_to(cycle)   # a gated pipeline may begin stalling here

    def _retry_parked(self, cycle: int):
        for core in self.cores:
            pend = core.pending_inject
            progressed = False
            while pend and self._inject(pend[0], cycle):
                # Settle to `cycle` with the gate still closed, or the core
                # would resume dispatching from its stale cycle.
                if cycle > core.cycle:
                    core.advance(cycle)
                pend.popleft()
                self._parked -= 1
                progressed = True
            if progressed:
                core.run_to(cycle)

    def inject_migration(self, job, kind: int, block: int, cycle: int):
        """Queue one block of the page `job` is moving, a read from its
        source or a write to its destination; None when the queue is full.
        An admitted block adds its bytes to `engine.traffic_bytes`.

        The request re-arms a finished system request when one is free, so
        a run builds at most `MAX_JOBS * migration_inflight_blocks` of them.
        A re-arm sets every field that differs between two blocks: `id`,
        `page_id`, `kind`, `mig_job`, `mig_block`, `channel` and
        `dispatch_cycle`; `enqueue` and the issue set the bank, arrival,
        completion and outcome. `interference_delay` and `snap_*` never
        leave their defaults on system traffic, which is nobody's
        interference and suffers none. The id is drawn only once the
        request is admitted, as FR-FCFS breaks ties on it.
        """
        channel = job.dst_channel if kind == WRITE else job.src_channel
        ctrl = self.controllers[channel]
        queue = ctrl.queues[kind]
        if queue.occupancy >= queue.capacity:
            return None   # the queue is full even to migration traffic
        self._next_req_id += 1
        free = self._free_requests
        if free:
            req = free.pop()
            req.id = self._next_req_id
            req.page_id = job.moving
            req.kind = kind
        else:
            req = MemRequest(self._next_req_id, SYSTEM_APP, job.moving, kind,
                             is_demand=False)
        req.mig_job = job
        req.mig_block = block
        req.channel = channel
        req.dispatch_cycle = cycle
        ctrl.enqueue(req, cycle)
        self.engine.traffic_bytes += self.block_bytes
        if self._dram.may_issue or self._nvm.may_issue:
            self._phase_cycle = cycle
        return req

    def _complete(self, req: MemRequest, cycle: int):
        if not req.is_demand:   # a migration block, never served by the buffer
            self.controllers[req.channel].on_complete(req)
            # Free first, so the block's next request can re-arm this one;
            # nothing may read `req` after the engine has seen it.
            self._free_requests.append(req)
            if req.kind == READ:
                self.engine.finish_block_read(req.mig_job, req.mig_block, cycle)
            else:
                self.engine.finish_block_write(req.mig_job, req.mig_block, cycle)
        else:
            if req.channel != BUFFER_CHANNEL:
                self.controllers[req.channel].on_complete(req)
            core = self.cores[req.app_id]
            if req.kind == READ:
                core.outstanding_reads -= 1
            else:
                core.outstanding_writes -= 1
            # Close a finished busy span before the core resumes: a request
            # it dispatches now opens the next span.
            if not (core.outstanding_reads or core.outstanding_writes):
                self._settle_delay(core, cycle)
                core.delay_anchor = None
            if req.kind == READ:
                core.on_read_complete(req, cycle)
            core.t_interference += req.interference_delay
            core.t_outstanding += cycle - req.dispatch_cycle
            if req.channel == NVM_CHANNEL and self.config.migration_enabled:
                if self.keeps_page_stats:
                    self.hot.on_complete(req.page_id, req.app_id, req.kind, self.store)
                self._maybe_migrate(req.page_id, cycle)
        if self._dram.may_issue or self._nvm.may_issue or self._parked \
                or self.engine.n_blocked:
            self._phase_cycle = cycle

    def _maybe_migrate(self, page: int, cycle: int):
        if page in self.engine.migrating or self.tag.resident(page):
            return
        if self.policy.decide(page, self.store, self, self.threshold).action == PROMOTE:
            self.engine.request_promotion(page, cycle)

    def on_issue(self, req: MemRequest):
        """Count an issued demand request."""
        app, kind, outcome = req.app_id, req.kind, req.outcome
        self.app_issued[app][kind][outcome] += 1
        if req.channel == NVM_CHANNEL and self.keeps_page_stats:
            self.store.get_or_alloc(req.page_id, app).count_issue(kind, outcome == ROW_HIT)

    # Totals of `app_issued` by app, kept only because `bench/checks.py`
    # reads them; ROADMAP item 13 deletes them.
    app_reads = property(lambda self: [sum(app[READ]) for app in self.app_issued])
    app_writes = property(lambda self: [sum(app[WRITE]) for app in self.app_issued])

    # -- periodic work --------------------------------------------------------

    def _catch_up_samples(self, up_to: int):
        """Fire sampling ticks in (last, up_to); state is frozen in gaps."""
        first = self._next_sample
        if first >= up_to:
            return
        period = self.config.sampling_period
        ticks = (up_to - 1 - first) // period + 1
        self._next_sample = first + ticks * period
        if self.hot.entries:
            self.hot.sample(ticks)

    @staticmethod
    def _settle_delay(core: AppCore, cycle: int):
        """Close the core's open memory-busy span at `cycle` into T_delay."""
        anchor = core.delay_anchor
        if anchor is not None and cycle > anchor:
            core.t_delay += cycle - anchor
            core.delay_anchor = cycle

    def _settle(self, cycle: int):
        """Bring every core and every open stall/delay span up to `cycle`."""
        for core in self.cores:
            core.advance(cycle)   # which leaves no stall span unsettled
            self._settle_delay(core, cycle)

    def _end_quantum(self, cycle: int):
        q = self.config.quantum_cycles
        self._settle(cycle)
        total_stall = 0
        speedups = []
        for i in range(len(self.cores)):
            snap = self._snapshot(i, cycle)
            win = self._window(self._quantum_snaps[i], snap)
            self._quantum_snaps[i] = snap
            s = ubm.quantize_speedup(ubm.estimate_speedup(
                win["t_stall"], win["t_interference"], win["t_delay"], q))
            self.sensitivities[i] = ubm.sensitivity(s, q)
            speedups.append(s)
            total_stall += win["t_stall"]
        if self.policy.scores_pages:
            self.threshold.end_quantum(total_stall)
        if self.config.stat_decay:
            self.store.halve_all()
        if self.config.collect_quantum_log:
            # One flat row: its keys are the quantum log's columns.
            row = {"quantum": self.quantum_index, "cycle": cycle,
                   "total_stall": total_stall, "threshold": self.threshold.threshold,
                   "pages_promoted": self.engine.pages_promoted,
                   "pages_evicted": self.engine.pages_evicted,
                   "speedups": ";".join(map(str, speedups))}
            for device, ctrl in zip(("dram", "nvm"), self.controllers):
                row.update({f"{device}_{k}": v for k, v in ctrl.stats_snapshot().items()})
            self.quantum_log.append(row)
        self.quantum_index += 1
        self._push(cycle + q, _EV_QUANTUM, None)

    def _phase(self, cycle: int):
        if self._parked:
            self._retry_parked(cycle)
        if self.engine.n_blocked:
            self.engine.pump(cycle)
        for ctrl in self.controllers:
            if ctrl.may_issue:
                req = ctrl.try_issue(cycle)
                if req is not None:
                    if req.is_demand:
                        self.on_issue(req)
                    self._seq += 1
                    heapq.heappush(self._heap, (req.completion_cycle, _EV_COMPLETE,
                                                self._seq, req))
        if self._dram.may_issue or self._nvm.may_issue:
            self._phase_cycle = cycle + 1

    # -- main loop --------------------------------------------------------

    def run(self):
        heap = self._heap
        heappop = heapq.heappop
        max_cycles = self.config.max_cycles
        last = self.cycle - 1   # the last cycle worked through
        # The heap is never empty: it always holds the next quantum event.
        while not self.finished:
            t = heap[0][0]
            if last < self._phase_cycle < t:
                t = self._phase_cycle
            if max_cycles is not None and t > max_cycles:
                break
            if t > self._next_sample:
                self._catch_up_samples(t)
            self.cycle = t
            # The cycle's completion, injection and core events in
            # (priority, push) order, then its service phase, then its
            # quantum event. The phase pushes nothing into its own cycle:
            # every delay it schedules is at least one cycle.
            while heap[0][0] == t and heap[0][1] < _EV_QUANTUM and not self.finished:
                _, prio, _, payload = heappop(heap)
                if prio == _EV_COMPLETE:
                    self._complete(payload, t)
                elif prio == _EV_INJECT:
                    self._arrive(payload, t)
                else:   # a core's wake
                    if payload.next_wake <= t:
                        payload.next_wake = math.inf
                    payload.run_to(t)
            if self._phase_cycle == t and not self.finished:
                self._phase(t)
            if heap[0][0] == t and not self.finished:
                heappop(heap)
                self._end_quantum(t)
            last = t
        self._catch_up_samples(self.cycle + 1)
        self._settle(self.cycle)
        return self

    # -- results ----------------------------------------------------------

    def _snapshot(self, app: int, cycle: int) -> dict:
        """The app's accounting counters as they stand, stamped `cycle`."""
        (read_hits, read_misses), (write_hits, write_misses) = self.app_issued[app]
        core = self.cores[app]
        return {
            "cycle": cycle,
            "t_stall": core.t_stall,
            "t_delay": core.t_delay,
            "t_interference": core.t_interference,
            "t_outstanding": core.t_outstanding,
            "reads": read_hits + read_misses,
            "writes": write_hits + write_misses,
            "row_hits": read_hits + write_hits,
            "row_misses": read_misses + write_misses,
        }

    @staticmethod
    def _window(start: dict, end: dict) -> dict:
        """Counter deltas from snapshot `start` to snapshot `end`."""
        win = {k: end[k] - start[k] for k in start}
        # Per-request blocked shares double-count parallel waits; rescale
        # by the request-cycle integral so the interfered fraction of
        # T_delay is concurrency-weighted and never exceeds T_delay.
        if win["t_outstanding"] > 0:
            frac = win["t_interference"] / win["t_outstanding"]
            win["t_interference"] = min(win["t_delay"], int(frac * win["t_delay"]))
        return win

    def measured_window(self, app_id: int) -> dict:
        """Counter deltas between the warmup and completion markers."""
        snaps = self._marker_snaps[app_id]
        done = snaps.get("done") or self._snapshot(app_id, self.cycle)
        return self._window(snaps["warm"], done)

    def total_energy_joules(self) -> tuple[float, float, float, float]:
        c = self.cycle
        return (self.dram_energy.dynamic_pj * 1e-12,
                self.dram_energy.standby_joules(c),
                self.nvm_energy.dynamic_pj * 1e-12,
                self.nvm_energy.standby_joules(c))

    def top_pages(self, k: int = 20):
        """Highest-utility stat entries with their factor decomposition."""
        rows = []
        for e in self.store.iter_entries():
            r_read, r_write = ubm.avg_mlp_ratio(e)
            dstall = ubm.page_stall_reduction((e,), self.latency_gaps)
            rows.append({
                "page": e.page_id,
                "app": e.app_id,
                "accesses": e.access_count,
                "read_misses": e.read_misses,
                "write_misses": e.write_misses,
                "mlp_ratio_read": r_read,
                "mlp_ratio_write": r_write,
                "delta_stall": dstall,
                "utility": dstall * self.sensitivities[e.app_id],
            })
        rows.sort(key=lambda r: (-r["utility"], r["page"], r["app"]))
        return rows[:k]
