"""Per-channel memory controller: queues, FR-FCFS scheduling, write drains.

Each channel owns a read request queue and a write buffer. Scheduling
prefers row-buffer hits, then the oldest request, one command per cycle.
Writes are deferred and drained in batches between watermarks. Queue
entries are held until the request completes, so occupancies bound the
number of in-flight requests.

Interference attribution follows stall-time-fair accounting: a request's
interference delay is the time it sat ready while its bank served other
applications' requests, plus lost arbitration slots, plus the extra row
conflict penalty when another application closed a row it would have hit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .device import (
    Bank, DevTiming, DeviceGeometry, EnergyMeter,
    READ, ROW_HIT, ROW_MISS, WRITE,
    classify_access, service_latency,
)
from .device import BUFFER_CHANNEL, DRAM_CHANNEL, NVM_CHANNEL  # noqa: F401  re-exported

SYSTEM_APP = -1        # migration traffic; excluded from per-app accounting

BLOCK_BYTES = 64       # cache-block transfer granularity
BLOCK_BITS = BLOCK_BYTES * 8


class MemRequest:
    """One memory access moving through lookup, queueing and service."""

    __slots__ = (
        "id", "app_id", "page_id", "row_id", "bank_id", "kind", "is_demand",
        "channel", "dispatch_cycle", "arrival_cycle", "issue_cycle",
        "completion_cycle", "interference_delay", "outcome",
        "snap_busy_total", "snap_busy_app", "snap_busy_sys",
        "would_hit", "snap_opens_total", "snap_opens_app", "snap_opens_sys",
        "mig_job", "mig_block", "done",
    )

    def __init__(self, req_id: int, app_id: int, page_id: int, kind: int,
                 is_demand: bool = True):
        self.id = req_id
        self.app_id = app_id
        self.page_id = page_id
        self.row_id = page_id       # one 8 KB page occupies one row
        self.bank_id = 0
        self.kind = kind
        self.is_demand = is_demand
        self.channel = -1
        self.dispatch_cycle = -1
        self.arrival_cycle = -1
        self.issue_cycle = -1
        self.completion_cycle = -1
        self.interference_delay = 0
        self.outcome = -1
        self.snap_busy_total = 0
        self.snap_busy_app = 0
        self.snap_busy_sys = 0
        self.would_hit = False
        self.snap_opens_total = 0
        self.snap_opens_app = 0
        self.snap_opens_sys = 0
        self.mig_job = None
        self.mig_block = -1
        self.done = False


@dataclass(frozen=True)
class ControllerConfig:
    read_queue_capacity: int = 64
    write_buffer_capacity: int = 32
    drain_high_watermark: float = 0.75
    drain_low_watermark: float = 0.25
    opportunistic_writes: bool = False  # issue writes outside drain mode
    # Queue slots only migration traffic may fill; without them a saturated
    # demand stream starves migrations forever.
    migration_reserve_reads: int = 4
    migration_reserve_writes: int = 2

    def __post_init__(self):
        if not 0.0 < self.drain_low_watermark < self.drain_high_watermark <= 1.0:
            raise ValueError("need 0 < low < high <= 1 for drain watermarks")
        if self.read_queue_capacity < 1 or self.write_buffer_capacity < 1:
            raise ValueError("queue capacities must be >= 1")
        if not 0 <= self.migration_reserve_reads < self.read_queue_capacity:
            raise ValueError("migration read reserve must fit in the read queue")
        if not 0 <= self.migration_reserve_writes < self.write_buffer_capacity:
            raise ValueError("migration write reserve must fit in the write buffer")
        # Demand writes alone must be able to start a drain, or a core gated
        # on a full write buffer waits forever. An idle drain (ROADMAP item 1)
        # would lift this rule.
        cap, reserve = self.write_buffer_capacity, self.migration_reserve_writes
        if cap - reserve <= self.drain_high_watermark * cap:
            raise ValueError(
                f"write buffer of {cap} with {reserve} slots reserved for migration "
                f"leaves demand writes {cap - reserve} slots, not above the drain "
                f"watermark {self.drain_high_watermark} x {cap}; no drain could start")


class ChannelController:
    """FR-FCFS controller for one device channel."""

    def __init__(self, channel: int, timing: DevTiming, geometry: DeviceGeometry,
                 config: ControllerConfig, energy: EnergyMeter):
        self.channel = channel
        self.timing = timing
        self.geometry = geometry
        self.config = config
        self.energy = energy
        self.banks = [Bank() for _ in range(geometry.banks)]
        self.latency = [[service_latency(timing, k, o) for o in (ROW_HIT, ROW_MISS)]
                        for k in (READ, WRITE)]   # by [kind][outcome]
        if min(min(row) for row in self.latency) < 1:
            raise ValueError(f"{timing.name}: a service latency rounds to 0 cycles")
        self.read_wait = [[] for _ in range(geometry.banks)]
        self.write_wait = [[] for _ in range(geometry.banks)]
        self.read_waiting = 0     # not yet issued
        self.write_waiting = 0
        self.read_occupancy = 0   # waiting + in service
        self.write_occupancy = 0
        self.draining = False
        # Set by try_issue: a request on a bank other than the last winner's
        # was ready, so the next cycle may issue too.
        self.more_ready = False
        # Whether try_issue can find an eligible request on a free bank. Set
        # by every change that can make one: an eligible request enqueued on
        # a free bank, a completion freeing a bank with eligible requests
        # waiting, a drain starting. The caller clears it when try_issue
        # finds nothing more (not more_ready).
        self.may_issue = False
        self._opportunistic = config.opportunistic_writes
        self._high = config.drain_high_watermark * config.write_buffer_capacity
        self._low = config.drain_low_watermark * config.write_buffer_capacity
        # Cumulative statistics (quantum deltas are taken by the simulator).
        self.issued_reads = 0
        self.issued_writes = 0
        self.row_hits = 0
        self.row_misses = 0
        self.queue_wait_cycles = 0

    # -- occupancy / admission ------------------------------------------------

    def has_read_space(self, demand: bool = True) -> bool:
        cap = self.config.read_queue_capacity
        if demand:
            cap -= self.config.migration_reserve_reads
        return self.read_occupancy < cap

    def has_write_space(self, demand: bool = True) -> bool:
        cap = self.config.write_buffer_capacity
        if demand:
            cap -= self.config.migration_reserve_writes
        return self.write_occupancy < cap

    def enqueue(self, req: MemRequest, cycle: int) -> bool:
        """Admit a request; False when the target queue is full."""
        if req.kind == READ:
            if not self.has_read_space(req.is_demand):
                return False
            self.read_occupancy += 1
            self.read_waiting += 1
            self.read_wait[req.bank_id].append(req)
            eligible = True
        else:
            if not self.has_write_space(req.is_demand):
                return False
            self.write_occupancy += 1
            self.write_waiting += 1
            self.write_wait[req.bank_id].append(req)
            if not self.draining and self.write_occupancy > self._high:
                self.draining = True
                self.may_issue = True   # the waiting writes now compete
            eligible = self.draining or self._opportunistic
        bank = self.banks[req.bank_id]
        if eligible and bank.busy_until <= cycle:
            self.may_issue = True
        req.arrival_cycle = cycle
        if req.app_id == SYSTEM_APP:
            return True   # _service attributes no interference to migrations
        req.snap_busy_total = bank.busy_total_at(cycle)
        req.snap_busy_app = bank.busy_app_at(cycle, req.app_id)
        req.snap_busy_sys = bank.busy_app_at(cycle, SYSTEM_APP)
        if bank.open_row == req.row_id:
            req.would_hit = True
            req.snap_opens_total = bank.opens_total
            req.snap_opens_app = bank.opens_app.get(req.app_id, 0)
            req.snap_opens_sys = bank.opens_app.get(SYSTEM_APP, 0)
        return True

    def on_complete(self, req: MemRequest):
        """Release the queue slot; for writes this is array-restore time."""
        if req.kind == READ:
            self.read_occupancy -= 1
        else:
            self.write_occupancy -= 1
            if self.draining and self.write_occupancy <= self._low:
                self.draining = False
        # The request's bank frees now (its busy span ends at completion).
        b = req.bank_id
        if self.read_wait[b] or (self.write_wait[b]
                                 and (self.draining or self._opportunistic)):
            self.may_issue = True

    # -- scheduling -----------------------------------------------------------

    def _candidates(self, wait_lists, cycle: int):
        out = []
        banks = self.banks
        for b, q in enumerate(wait_lists):
            if not q:
                continue
            bank = banks[b]
            if bank.busy_until > cycle:
                continue
            open_row = bank.open_row
            cand = None
            for r in q:
                if r.row_id == open_row:
                    cand = r
                    break
            out.append(cand if cand is not None else q[0])
        return out

    def try_issue(self, cycle: int):
        """Issue at most one request this cycle; returns it (or None).

        In drain mode writes take priority; otherwise reads do, and writes
        are only considered when enabled by opportunistic_writes.
        """
        self.more_ready = False
        if self.read_waiting == 0 and self.write_waiting == 0:
            return None
        reads = self._candidates(self.read_wait, cycle) if self.read_waiting else []
        writes_compete = self.draining or self._opportunistic
        writes = (self._candidates(self.write_wait, cycle)
                  if writes_compete and self.write_waiting else [])
        if self.draining:
            pool = writes or reads
        else:
            pool = reads or writes
        if not pool:
            return None
        if len(pool) == 1:
            winner = pool[0]
        else:
            open_rows = self.banks
            winner = min(
                pool,
                key=lambda r: (open_rows[r.bank_id].open_row != r.row_id,
                               r.arrival_cycle, r.id),
            )
        # Requests that were bank-ready and eligible this cycle but lost the
        # command slot to a different application accrue one blocked cycle.
        w_app = winner.app_id
        if w_app != SYSTEM_APP:
            for r in reads:
                if r is not winner and r.app_id not in (w_app, SYSTEM_APP):
                    r.interference_delay += 1
            for r in writes:
                if r is not winner and r.app_id not in (w_app, SYSTEM_APP):
                    r.interference_delay += 1
        # Each list holds at most one candidate per bank, so a bank other
        # than the winner's was ready iff a list holds two, or a read and a
        # write sit on different banks.
        if len(reads) > 1 or len(writes) > 1:
            self.more_ready = True
        elif reads and writes:
            self.more_ready = reads[0].bank_id != writes[0].bank_id
        self._service(winner, cycle)
        return winner

    def _service(self, req: MemRequest, cycle: int):
        bank = self.banks[req.bank_id]
        outcome = classify_access(bank, req.row_id)
        latency = self.latency[req.kind][outcome]
        req.outcome = outcome
        req.issue_cycle = cycle
        req.completion_cycle = cycle + latency
        wait = cycle - req.arrival_cycle
        self.queue_wait_cycles += wait

        if req.app_id != SYSTEM_APP:
            # Bank-conflict share of the wait: cycles the bank spent serving
            # other applications (system traffic excluded) while req waited.
            busy_total = bank.busy_total_at(cycle) - req.snap_busy_total
            busy_own = bank.busy_app_at(cycle, req.app_id) - req.snap_busy_app
            busy_sys = bank.busy_app_at(cycle, SYSTEM_APP) - req.snap_busy_sys
            blocked = busy_total - busy_own - busy_sys
            if blocked > 0:
                req.interference_delay += blocked
            # Row-locality change: req arrived with its row open but another
            # application's activation closed it before service.
            if req.would_hit and outcome == ROW_MISS:
                opens = bank.opens_total - req.snap_opens_total
                own = bank.opens_app.get(req.app_id, 0) - req.snap_opens_app
                sys_ = bank.opens_app.get(SYSTEM_APP, 0) - req.snap_opens_sys
                if opens - own - sys_ > 0:
                    req.interference_delay += latency - self.latency[req.kind][ROW_HIT]

        if req.kind == READ:
            self.read_wait[req.bank_id].remove(req)
            self.read_waiting -= 1
            self.issued_reads += 1
        else:
            self.write_wait[req.bank_id].remove(req)
            self.write_waiting -= 1
            self.issued_writes += 1
        if outcome == ROW_HIT:
            self.row_hits += 1
        else:
            self.row_misses += 1
        bank.occupy(req.app_id, cycle, latency)
        if outcome == ROW_MISS:
            bank.open_for(req.row_id, req.app_id)
        self.energy.account(BLOCK_BITS, req.kind, outcome)

    def stats_snapshot(self) -> dict:
        issued = self.issued_reads + self.issued_writes
        return {
            "issued_reads": self.issued_reads,
            "issued_writes": self.issued_writes,
            "row_hits": self.row_hits,
            "row_misses": self.row_misses,
            "row_hit_rate": self.row_hits / issued if issued else 0.0,
            "queue_wait_cycles": self.queue_wait_cycles,
        }
