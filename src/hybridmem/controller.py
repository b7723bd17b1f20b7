"""Per-channel memory controller: queues, FR-FCFS scheduling, write drains.

Each channel owns a read request queue and a write buffer, held by request
kind: the wait lists of unissued requests, one per bank that has any
(`wait[kind]`, a dict from bank to its non-empty list), and the occupancy
(`occupancy[kind]`), which holds an entry until its request completes and
so bounds the in-flight requests.
A page fills one row buffer, so a request's row is its page and its bank is
`page % banks`. Scheduling prefers row-buffer hits, then the oldest request,
one command per cycle. Writes are deferred and drained in batches between
watermarks; `eligible[WRITE]` says whether they may issue.

Interference attribution follows stall-time-fair accounting: a request's
interference delay is the time it sat ready while its bank served other
applications' requests, plus lost arbitration slots, plus the extra row
conflict penalty when another application closed a row it would have hit.
System (migration) traffic is nobody's interference and suffers none.
`enqueue` snapshots the bank's busy cycles and row opens of other
applications, and `_service` charges what they grew by while the request
waited; `try_issue` charges the lost slots. A controller that only one
application uses attributes nothing: all its bank time belongs to that
application or to the system, so every term is 0, and the controller skips
the snapshots, the charges and its banks' per-application sums.
"""

from __future__ import annotations

from dataclasses import dataclass

from .device import (
    Bank, DevTiming, DeviceGeometry, EnergyMeter,
    READ, ROW_HIT, ROW_MISS, SYSTEM_APP, WRITE, service_latency,
)
from .device import BUFFER_CHANNEL, DRAM_CHANNEL, NVM_CHANNEL  # noqa: F401  re-exported

BLOCK_BYTES = 64       # cache-block transfer granularity
BLOCK_BITS = BLOCK_BYTES * 8


class MemRequest:
    """One memory access moving through lookup, queueing and service."""

    __slots__ = (
        "id", "app_id", "page_id", "bank_id", "kind", "is_demand", "channel",
        "dispatch_cycle", "arrival_cycle", "completion_cycle",
        "interference_delay", "outcome", "snap_busy", "snap_opens", "mig_job",
        "mig_block", "done",
    )

    def __init__(self, req_id: int, app_id: int, page_id: int, kind: int,
                 is_demand: bool = True):
        self.id = req_id
        self.app_id = app_id
        self.page_id = page_id
        self.bank_id = 0
        self.kind = kind
        self.is_demand = is_demand
        self.channel = -1
        self.dispatch_cycle = -1
        self.arrival_cycle = -1
        self.completion_cycle = -1
        self.interference_delay = 0
        self.outcome = -1
        # Other applications' busy cycles and row opens on the bank at
        # arrival; snap_opens stays -1 unless the request's row was open.
        self.snap_busy = 0
        self.snap_opens = -1
        self.mig_job = None
        self.mig_block = -1
        self.done = False

    @property
    def would_hit(self) -> bool:
        """Whether the row was open at arrival, where interference counts."""
        return self.snap_opens >= 0


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
    """FR-FCFS controller for one device channel.

    `bench/spans.py` times `enqueue`, `try_issue` and `on_complete` by
    replacing them on this class, so each must stay a method defined here.
    Instances have slots, as `Simulation` does, so every attribute load on
    the request path takes the slot fast path.
    """

    __slots__ = (
        "config", "energy", "shared", "n_banks", "banks", "latency", "energy_pj",
        "wait", "occupancy", "capacity", "draining", "eligible",
        "may_issue", "_high", "_low", "issued_reads",
        "issued_writes", "row_hits", "row_misses", "queue_wait_cycles",
    )

    def __init__(self, timing: DevTiming, geometry: DeviceGeometry,
                 config: ControllerConfig, energy: EnergyMeter, shared: bool = True):
        self.config = config
        self.energy = energy
        # Whether more than one application may issue here; only then is
        # there interference to attribute.
        self.shared = shared
        self.n_banks = geometry.banks
        self.banks = [Bank(shared) for _ in range(geometry.banks)]
        self.latency = [[service_latency(timing, k, o) for o in (ROW_HIT, ROW_MISS)]
                        for k in (READ, WRITE)]   # by [kind][outcome]
        if min(min(row) for row in self.latency) < 1:
            raise ValueError(f"{timing.name}: a service latency rounds to 0 cycles")
        # Dynamic energy of one block, by [kind][outcome]; the same float
        # expression as EnergyMeter.access_pj, so the sums do not move.
        self.energy_pj = [[energy.access_pj(BLOCK_BITS, k, o)
                           for o in (ROW_HIT, ROW_MISS)] for k in (READ, WRITE)]
        # By kind: bank -> its unissued requests, for banks that hold any, so
        # a scan visits only the banks with something to issue.
        self.wait = [{}, {}]
        self.occupancy = [0, 0]   # by kind: waiting + in service
        # Slots by [kind][is_demand]: migration traffic may fill them all,
        # demand traffic leaves the migration reserve free. A request is
        # admitted while occupancy[kind] is below its entry.
        self.capacity = [(cap, cap - reserve) for cap, reserve in (
            (config.read_queue_capacity, config.migration_reserve_reads),
            (config.write_buffer_capacity, config.migration_reserve_writes))]
        self.draining = False
        # Whether a request of each kind may issue: reads always, writes in
        # a drain or with opportunistic writes.
        self.eligible = [True, config.opportunistic_writes]
        # Whether try_issue can find an eligible request on a free bank. Set
        # by every change that can make one: an eligible request enqueued on
        # a free bank, a completion freeing a bank with eligible requests
        # waiting, a drain starting. try_issue clears it, and sets it again
        # when it saw a ready request on a bank other than its winner's,
        # which the next cycle may issue.
        self.may_issue = False
        self._high = config.drain_high_watermark * config.write_buffer_capacity
        self._low = config.drain_low_watermark * config.write_buffer_capacity
        # Cumulative statistics (quantum deltas are taken by the simulator).
        self.issued_reads = 0
        self.issued_writes = 0
        self.row_hits = 0
        self.row_misses = 0
        self.queue_wait_cycles = 0

    # -- admission ------------------------------------------------------------

    def enqueue(self, req: MemRequest, cycle: int) -> bool:
        """Admit a request onto its page's bank; False when its queue is full."""
        kind = req.kind
        occupancy = self.occupancy
        if occupancy[kind] >= self.capacity[kind][req.is_demand]:
            return False
        b = req.bank_id = req.page_id % self.n_banks
        occupancy[kind] += 1
        q = self.wait[kind].get(b)
        if q is None:
            self.wait[kind][b] = [req]
        else:
            q.append(req)
        if kind == WRITE and not self.draining and occupancy[WRITE] > self._high:
            self.draining = self.eligible[WRITE] = True
            self.may_issue = True   # the waiting writes now compete
        bank = self.banks[b]
        if self.eligible[kind] and bank.busy_until <= cycle:
            self.may_issue = True
        req.arrival_cycle = cycle
        app = req.app_id
        if self.shared and app != SYSTEM_APP:
            req.snap_busy = bank.busy_by_others(app, cycle)
            if bank.open_row == req.page_id:
                req.snap_opens = bank.opens_by_others(app)
        return True

    def on_complete(self, req: MemRequest):
        """Release the queue slot; for writes this is array-restore time."""
        self.occupancy[req.kind] -= 1
        # Only a write completion can bring the write occupancy down to it.
        if self.draining and self.occupancy[WRITE] <= self._low:
            self.draining = False
            self.eligible[WRITE] = self.config.opportunistic_writes
        # The request's bank frees now (its busy span ends at completion).
        b = req.bank_id
        wait = self.wait
        if b in wait[READ] or (self.eligible[WRITE] and b in wait[WRITE]):
            self.may_issue = True

    # -- scheduling -----------------------------------------------------------

    def _candidates(self, wait, cycle: int):
        """Each free bank's first row hit, or else its oldest request.

        The banks come in the order their lists were filled, not by index;
        no result depends on that (see `try_issue`).
        """
        out = []
        banks = self.banks
        for b, q in wait.items():
            bank = banks[b]
            if bank.busy_until <= cycle:
                open_row = bank.open_row
                for r in q:
                    if r.page_id == open_row:
                        out.append(r)
                        break
                else:
                    out.append(q[0])
        return out

    def try_issue(self, cycle: int):
        """Issue at most one request this cycle; returns it (or None).

        In drain mode writes take priority; otherwise reads do, and writes
        are only considered when enabled by opportunistic_writes. Leaves
        `may_issue` set only when another bank held a ready request, so
        only then can the next cycle issue without a new enqueue or
        completion.
        """
        self.may_issue = False
        wait = self.wait
        reads = self._candidates(wait[READ], cycle) if wait[READ] else []
        writes = (self._candidates(wait[WRITE], cycle)
                  if wait[WRITE] and self.eligible[WRITE] else [])
        pool = (writes or reads) if self.draining else (reads or writes)
        if not pool:
            return None
        winner = pool[0]
        if len(pool) > 1:
            # FR-FCFS: a row hit first, then the earliest arrival, then the
            # lowest id, a total order, so the pool's order does not matter.
            banks = self.banks
            w_hit = banks[winner.bank_id].open_row == winner.page_id
            for r in pool[1:]:
                hit = banks[r.bank_id].open_row == r.page_id
                if hit != w_hit:
                    if hit:
                        winner, w_hit = r, True
                elif r.arrival_cycle < winner.arrival_cycle or (
                        r.arrival_cycle == winner.arrival_cycle and r.id < winner.id):
                    winner = r
        # Requests that were bank-ready and eligible this cycle but lost the
        # command slot to a different application accrue one blocked cycle.
        w_app = winner.app_id
        if self.shared and w_app != SYSTEM_APP:
            for r in reads + writes:
                if r is not winner and r.app_id not in (w_app, SYSTEM_APP):
                    r.interference_delay += 1
        # Each list holds at most one candidate per bank, so a bank other
        # than the winner's was ready iff a list holds two, or a read and a
        # write sit on different banks.
        if len(reads) > 1 or len(writes) > 1:
            self.may_issue = True
        elif reads and writes:
            self.may_issue = reads[0].bank_id != writes[0].bank_id
        self._service(winner, cycle)
        return winner

    def _service(self, req: MemRequest, cycle: int):
        kind, b = req.kind, req.bank_id
        bank = self.banks[b]
        outcome = ROW_HIT if bank.open_row == req.page_id else ROW_MISS
        latency = self.latency[kind][outcome]
        req.outcome = outcome
        req.completion_cycle = cycle + latency
        self.queue_wait_cycles += cycle - req.arrival_cycle

        app = req.app_id
        if self.shared and app != SYSTEM_APP:
            # Bank-conflict share of the wait: cycles the bank spent serving
            # other applications while req waited. The bank is free now, so
            # every span it counts has ended.
            req.interference_delay += bank.busy_by_others(app, cycle) - req.snap_busy
            # Row-locality change: req arrived with its row open but another
            # application's activation closed it before service.
            if outcome == ROW_MISS and 0 <= req.snap_opens < bank.opens_by_others(app):
                req.interference_delay += latency - self.latency[kind][ROW_HIT]

        wait = self.wait[kind]
        q = wait[b]
        q.remove(req)
        if not q:
            del wait[b]
        if kind == READ:
            self.issued_reads += 1
        else:
            self.issued_writes += 1
        if outcome == ROW_HIT:
            self.row_hits += 1
        else:
            self.row_misses += 1
        bank.occupy(app, cycle, latency)
        if outcome == ROW_MISS:
            bank.open_for(req.page_id, app)
        self.energy.dynamic_pj += self.energy_pj[kind][outcome]

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
