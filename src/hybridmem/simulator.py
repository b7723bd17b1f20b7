"""The cycle-level simulation engine.

Binds the cores, the two channel controllers, the migration engine and the
placement policy into one event-driven loop. Events carry an explicit
within-cycle priority so a cycle always unfolds as: completions, queue
injections, core dispatches, then a service phase (parked-request retries,
migration pumping, one command issue per channel), then quantum
bookkeeping. MLP sampling runs on a fixed period and is batched across
event gaps, which is exact because outstanding-request state only changes
at events.

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
stopped on a full queue, which the phase re-pumps (the engine counts them,
`n_blocked`; every other change to a job pumps it on the spot).
`try_issue` clears its flag and sets it again only when a request on
another bank was ready, and the phase then requests the next cycle.

Page statistics -- the stat store, the MLP counters of pages with requests
in flight to NVM, and the MLP sampling that feeds them -- model hardware
that only a scoring policy needs, so a run keeps them only when migration
is on and its policy reads them (`PlacementPolicy.uses_page_stats`):
never under `all`, which promotes every page, nor with migration off. That moves no simulated
output, because nothing but the policy's score reads the statistics; only
the `top_pages` debug table does, and it is empty on such runs.
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
    BUFFER_CHANNEL, DRAM_BASELINE, DRAM_CHANNEL, NVM_BASELINE, NVM_CHANNEL,
    DevTiming, DeviceGeometry, EnergyMeter, READ, WRITE,
)
from .migration import MigrationEngine, TagStore
from .policies import PROMOTE, make_policy
from .ubm import HotPageCounters, StatStore, ThresholdController

# Event priorities (within one cycle). The service phase, which is not an
# event, runs between the core and quantum events (see `run`).
_EV_COMPLETE = 0
_EV_INJECT = 1
_EV_CORE = 2
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
        if self.quantum_cycles <= 0 or self.sampling_period <= 0:
            raise ValueError("quantum and sampling period must be positive")
        if self.warmup_instructions + self.measured_instructions <= 0:
            raise ValueError("warmup + measured instructions must be positive")
        if self.measured_instructions <= 0:
            raise ValueError("measured instructions must be positive")
        if self.dram_geometry.page_bytes != self.nvm_geometry.page_bytes:
            raise ValueError("DRAM and NVM must share the page size")


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
        "store", "hot", "threshold", "latency_gaps", "cores", "outstanding",
        "_delay_anchor", "t_delay", "t_interference", "t_outstanding",
        "app_reads", "app_writes", "app_row_hits", "app_row_misses",
        "_sensitivity", "_quantum_snaps", "_marker_snaps", "_done_count",
        "page_stall", "quantum_log", "quantum_index", "_next_req_id",
        "_phase_cycle", "_next_sample", "_parked",
        "_free_requests",
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
        self.keeps_page_stats = (config.migration_enabled
                                 and self.policy.uses_page_stats)
        self.store = StatStore()
        self.hot = HotPageCounters()
        self.threshold = ThresholdController()
        # NVM-DRAM (read, write) miss-latency gaps the policies score with.
        self.latency_gaps = ubm.latency_gaps(config.dram_timing, config.nvm_timing)

        self.cores = [
            AppCore(self, i, tr, config.rob_capacity, config.mshr_capacity,
                    config.warmup_instructions, config.measured_instructions)
            for i, tr in enumerate(traces)
        ]
        n = len(self.cores)
        self.outstanding = [[0] * n, [0] * n]   # by [kind][app]
        self._delay_anchor = [None] * n
        self.t_delay = [0] * n
        self.t_interference = [0] * n    # sum of per-request blocked shares
        self.t_outstanding = [0] * n     # sum of per-request lifetimes
        self.app_reads = [0] * n
        self.app_writes = [0] * n
        self.app_row_hits = [0] * n
        self.app_row_misses = [0] * n
        # Weights from the previous quantum's speedup estimates (1 at first).
        self._sensitivity = [ubm.sensitivity(1.0, config.quantum_cycles)] * n
        # Counter snapshots at the last quantum boundary, and at the warmup
        # and completion markers; every counter is zero at cycle 0, which
        # stands in for an uncrossed warmup marker.
        self._quantum_snaps = [self._snapshot(i, 0) for i in range(n)]
        self._marker_snaps = [{"warm": snap} for snap in self._quantum_snaps]
        self._done_count = 0

        self.page_stall = {}              # page -> attributed stall cycles
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

    def schedule_core(self, core: AppCore, cycle: int):
        cycle = max(cycle, self.cycle)
        # Keep only the earliest pending wake per core; later duplicates are
        # re-derived when that wake fires.
        if core.next_wake is not None and core.next_wake <= cycle:
            return
        core.next_wake = cycle
        self._push(cycle, _EV_CORE, core)

    # -- scoring interface for the policy ------------------------------------

    def sensitivity(self, app_id: int) -> float:
        return self._sensitivity[app_id]

    # -- core callbacks -----------------------------------------------------

    def dispatch(self, core: AppCore, addr: int, kind: int, cycle: int) -> MemRequest:
        self._next_req_id += 1
        req = MemRequest(self._next_req_id, core.app_id, addr // self.page_bytes, kind)
        req.mig_block = (addr % self.page_bytes) // self.block_bytes
        req.dispatch_cycle = cycle
        app = core.app_id
        out = self.outstanding
        if out[READ][app] + out[WRITE][app] == 0:
            self._delay_anchor[app] = cycle
        out[kind][app] += 1
        self._push(cycle + LOOKUP_CYCLES, _EV_INJECT, req)
        return req

    def on_stall(self, core: AppCore, page: int, span: int):
        if page >= 0:
            self.page_stall[page] = self.page_stall.get(page, 0) + span

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
                    self.hot.on_inject(req.page_id, req.app_id, req.kind == WRITE)
            elif self.tag.resident(req.page_id):
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

    def inject_migration(self, job, kind: int, page: int, block: int,
                         channel: int, cycle: int):
        """Queue one block of `job`'s move; None when the queue is full.

        The request re-arms a finished system request when one is free, so
        a run builds at most `max_jobs * migration_inflight_blocks` of them.
        A re-arm sets every field that differs between two blocks: `id`,
        `page_id`, `kind`, `mig_job`, `mig_block`, `channel` and
        `dispatch_cycle`; `enqueue` and the issue set the bank, arrival,
        completion and outcome. `interference_delay` and `snap_*` never
        leave their defaults on system traffic, which is nobody's
        interference and suffers none. The id is drawn only once the
        request is admitted, as FR-FCFS breaks ties on it.
        """
        ctrl = self.controllers[channel]
        if ctrl.occupancy[kind] >= ctrl.capacity[kind][False]:
            return None   # the queue is full even to migration traffic
        self._next_req_id += 1
        free = self._free_requests
        if free:
            req = free.pop()
            req.id = self._next_req_id
            req.page_id = page
            req.kind = kind
        else:
            req = MemRequest(self._next_req_id, SYSTEM_APP, page, kind,
                             is_demand=False)
        req.mig_job = job
        req.mig_block = block
        req.channel = channel
        req.dispatch_cycle = cycle
        ctrl.enqueue(req, cycle)
        if self._dram.may_issue or self._nvm.may_issue:
            self._phase_cycle = cycle
        return req

    def _complete(self, req: MemRequest, cycle: int):
        if req.channel != BUFFER_CHANNEL:
            self.controllers[req.channel].on_complete(req)
        if not req.is_demand:
            job, block, kind = req.mig_job, req.mig_block, req.kind
            # Free first, so the block's write can re-arm this request.
            self._free_requests.append(req)
            if kind == READ:
                self.engine.finish_block_read(job, block, cycle)
            else:
                self.engine.finish_block_write(job, block, cycle)
        else:
            app = req.app_id
            out = self.outstanding
            out[req.kind][app] -= 1
            if req.kind == READ:
                self.cores[app].on_read_complete(req, cycle)
            if out[READ][app] + out[WRITE][app] == 0:
                self._settle_delay(app, cycle)
                self._delay_anchor[app] = None
            self.t_interference[app] += req.interference_delay
            self.t_outstanding[app] += cycle - req.dispatch_cycle
            if req.channel == NVM_CHANNEL and self.config.migration_enabled:
                if self.keeps_page_stats:
                    self.hot.on_complete(req.page_id, app, req.kind == WRITE,
                                         self.store)
                self._maybe_migrate(req.page_id, cycle)
        if self._dram.may_issue or self._nvm.may_issue or self._parked \
                or self.engine.n_blocked:
            self._phase_cycle = cycle

    def _maybe_migrate(self, page: int, cycle: int):
        if page in self.engine.migrating or self.tag.resident(page):
            return
        decision = self.policy.decide(page, self.store, self,
                                      self.threshold.threshold)
        if self.policy.uses_threshold:
            self.threshold.observe_score(decision.score)
        if decision.action == PROMOTE:
            self.engine.request_promotion(page, cycle)

    def on_issue(self, req: MemRequest):
        """Count an issued demand request."""
        app = req.app_id
        if req.kind == READ:
            self.app_reads[app] += 1
        else:
            self.app_writes[app] += 1
        hit = req.outcome == 0
        if hit:
            self.app_row_hits[app] += 1
        else:
            self.app_row_misses[app] += 1
        if req.channel == NVM_CHANNEL and self.keeps_page_stats:
            entry = self.store.get_or_alloc(req.page_id, app)
            entry.count_access()
            if not hit:
                entry.count_miss(req.kind == WRITE)

    def on_page_moved(self, page: int):
        self.store.invalidate_page(page)

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
            self.hot.sample(*self.outstanding, count=ticks)

    def _settle_delay(self, app: int, cycle: int):
        """Close the app's open memory-busy span at `cycle` into T_delay."""
        anchor = self._delay_anchor[app]
        if anchor is not None and cycle > anchor:
            self.t_delay[app] += cycle - anchor
            self._delay_anchor[app] = cycle

    def _settle(self, cycle: int):
        """Bring every core and every open stall/delay span up to `cycle`."""
        for i, core in enumerate(self.cores):
            core.advance(cycle)
            core.settle_open_spans()
            self._settle_delay(i, cycle)

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
            self._sensitivity[i] = ubm.sensitivity(s, q)
            speedups.append(s)
            total_stall += win["t_stall"]
        if self.policy.uses_threshold:
            self.threshold.end_quantum(total_stall)
        if self.config.stat_decay:
            self.store.halve_all()
        if self.config.collect_quantum_log:
            self.quantum_log.append({
                "quantum": self.quantum_index,
                "cycle": cycle,
                "total_stall": total_stall,
                "threshold": self.threshold.threshold,
                "speedups": list(speedups),
                "dram": self.controllers[DRAM_CHANNEL].stats_snapshot(),
                "nvm": self.controllers[NVM_CHANNEL].stats_snapshot(),
                "pages_promoted": self.engine.pages_promoted,
                "pages_evicted": self.engine.pages_evicted,
            })
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
                    self._push(req.completion_cycle, _EV_COMPLETE, req)
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
                else:
                    if payload.next_wake is not None and payload.next_wake <= t:
                        payload.next_wake = None
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
        return {
            "cycle": cycle,
            "t_stall": self.cores[app].t_stall,
            "t_delay": self.t_delay[app],
            "t_interference": self.t_interference[app],
            "t_outstanding": self.t_outstanding[app],
            "reads": self.app_reads[app],
            "writes": self.app_writes[app],
            "row_hits": self.app_row_hits[app],
            "row_misses": self.app_row_misses[app],
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
            dstall = ubm.gap_stall_reduction(e, self.latency_gaps)
            rows.append({
                "page": e.page_id,
                "app": e.app_id,
                "accesses": e.access_count,
                "read_misses": e.read_misses,
                "write_misses": e.write_misses,
                "mlp_ratio_read": r_read,
                "mlp_ratio_write": r_write,
                "delta_stall": dstall,
                "utility": dstall * self.sensitivity(e.app_id),
            })
        rows.sort(key=lambda r: (-r["utility"], r["page"], r["app"]))
        return rows[:k]
