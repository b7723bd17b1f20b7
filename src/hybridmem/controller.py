"""Per-channel memory controller: queues, FR-FCFS scheduling, write drains.

Each channel owns a read request queue and a write buffer, one `KindQueue`
record per request kind (`queues[kind]`) with all the request path reads or
counts for it: the unissued requests by bank, for banks that hold any; the
occupancy, which holds an entry until its request completes and so bounds
the in-flight requests; the capacities; whether the kind may issue; and its
latency, energy and issue count per row outcome. A page fills one row
buffer, so a request's row is its page and its bank is `page % banks`.
Scheduling prefers row-buffer hits, then the oldest request, one command per
cycle. Writes are deferred and drained in batches between watermarks. Each
issue is counted once, in its record's `hits` or `misses`, and
`stats_snapshot()` derives the read, write, row-hit and row-miss totals.

Interference attribution follows stall-time-fair accounting: a request's
interference delay is the time it sat ready while its bank served other
applications' requests, plus lost arbitration slots, plus the extra row
conflict penalty when another application closed a row it would have hit.
System (migration) traffic is nobody's interference and suffers none.
`enqueue` snapshots the bank's busy cycles and row opens of other
applications, and `try_issue` charges what they grew by while the request
waited, and the lost slots. A controller that only one application uses
attributes nothing: all its bank time belongs to that application or to
the system, so every term is 0, and the controller skips the snapshots,
the charges and its banks' per-application sums.
"""

from __future__ import annotations

from dataclasses import dataclass

from .device import (
    Bank, DevTiming, DeviceGeometry, EnergyMeter,
    READ, ROW_HIT, ROW_MISS, SYSTEM_APP, WRITE, service_latency,
)
from .device import BUFFER_CHANNEL  # noqa: F401  `bench/run.py` imports it from here

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


class KindQueue:
    """One request kind's queue in a channel: one slotted record, so a
    request looks it up once and loads each field from it."""

    __slots__ = ("wait", "occupancy", "capacity", "demand_capacity", "eligible",
                 "hit_latency", "miss_latency", "hit_pj", "miss_pj", "hits", "misses")

    def __init__(self, kind: int, timing: DevTiming, energy: EnergyMeter,
                 capacity: int, reserve: int, eligible: bool):
        self.wait = {}       # bank -> its unissued requests, for banks with any
        self.occupancy = 0   # waiting + in service
        # A request is admitted while the occupancy is below its capacity:
        # migration traffic may fill every slot, demand leaves the reserve.
        self.capacity, self.demand_capacity = capacity, capacity - reserve
        self.eligible = eligible
        self.hit_latency, self.miss_latency = (service_latency(timing, kind, o)
                                               for o in (ROW_HIT, ROW_MISS))
        if min(self.hit_latency, self.miss_latency) < 1:
            raise ValueError(f"{timing.name}: a service latency rounds to 0 cycles")
        # One block's dynamic energy, as EnergyMeter.access_pj computes it.
        self.hit_pj, self.miss_pj = (energy.access_pj(BLOCK_BITS, kind, o)
                                     for o in (ROW_HIT, ROW_MISS))
        self.hits = self.misses = 0   # issued requests, cumulative


class ChannelController:
    """FR-FCFS controller for one device channel.

    `bench/spans.py` times `enqueue`, `try_issue` and `on_complete` by
    replacing them on this class, so each must stay a method defined here.
    Instances have slots, as `Simulation` does, so every attribute load on
    the request path takes the slot fast path.
    """

    __slots__ = (
        "config", "energy", "shared", "n_banks", "banks", "queues", "draining",
        "may_issue", "_high", "_low", "queue_wait_cycles",
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
        # By kind. Reads may always issue, writes in a drain or with
        # opportunistic writes.
        self.queues = (
            KindQueue(READ, timing, energy, config.read_queue_capacity,
                      config.migration_reserve_reads, True),
            KindQueue(WRITE, timing, energy, config.write_buffer_capacity,
                      config.migration_reserve_writes, config.opportunistic_writes))
        self.draining = False
        # Whether try_issue can find an eligible request on a free bank. Set
        # by every change that can make one: an eligible request enqueued on
        # a free bank, a completion freeing a bank with eligible requests
        # waiting, a drain starting. try_issue clears it, and sets it again
        # when it saw a ready request on a bank other than its winner's,
        # which the next cycle may issue.
        self.may_issue = False
        self._high = config.drain_high_watermark * config.write_buffer_capacity
        self._low = config.drain_low_watermark * config.write_buffer_capacity
        # The issued requests' cumulative queueing time.
        self.queue_wait_cycles = 0

    # -- admission ------------------------------------------------------------

    def enqueue(self, req: MemRequest, cycle: int) -> bool:
        """Admit a request onto its page's bank; False when its queue is full."""
        queue = self.queues[req.kind]
        if queue.occupancy >= (queue.demand_capacity if req.is_demand else queue.capacity):
            return False
        b = req.bank_id = req.page_id % self.n_banks
        queue.occupancy += 1
        q = queue.wait.get(b)
        if q is None:
            queue.wait[b] = [req]
        else:
            q.append(req)
        if req.kind == WRITE and not self.draining and queue.occupancy > self._high:
            self.draining = queue.eligible = True
            self.may_issue = True   # the waiting writes now compete
        bank = self.banks[b]
        if queue.eligible and bank.busy_until <= cycle:
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
        reads, writes = self.queues
        if req.kind == WRITE:   # only a write completion can end a drain
            writes.occupancy -= 1
            if self.draining and writes.occupancy <= self._low:
                self.draining = False
                writes.eligible = self.config.opportunistic_writes
        else:
            reads.occupancy -= 1
        # The request's bank frees now (its busy span ends at completion).
        b = req.bank_id
        if b in reads.wait or (writes.eligible and b in writes.wait):
            self.may_issue = True

    # -- scheduling -----------------------------------------------------------

    def try_issue(self, cycle: int):
        """Issue at most one request this cycle; returns it (or None).

        Each free bank offers its first row hit, or else its oldest request,
        of each eligible kind. In drain mode writes take priority; otherwise
        reads do, and writes are only considered when enabled by
        opportunistic_writes. Leaves `may_issue` set only when another bank
        held a ready request, so only then can the next cycle issue without
        a new enqueue or completion.
        """
        self.may_issue = False
        banks = self.banks
        ready = []      # every bank's candidates, of both kinds
        winner = None
        queues = self.queues
        for queue in queues[::-1] if self.draining else queues:
            wait = queue.wait
            if not wait or not queue.eligible:
                continue
            # The pool is the first kind with a candidate. FR-FCFS picks from
            # it a row hit, then the earliest arrival, then the lowest id: a
            # total order, so the order of the banks does not matter.
            pick = winner is None
            for b, q in wait.items():
                bank = banks[b]
                if bank.busy_until > cycle:
                    continue
                open_row = bank.open_row
                for r in q:
                    if r.page_id == open_row:
                        hit = True
                        break
                else:
                    r, hit = q[0], False
                ready.append(r)
                if not pick:
                    continue
                if winner is None:
                    winner, w_hit = r, hit
                elif hit != w_hit:
                    if hit:
                        winner, w_hit = r, True
                elif r.arrival_cycle < winner.arrival_cycle or (
                        r.arrival_cycle == winner.arrival_cycle and r.id < winner.id):
                    winner = r
        if winner is None:
            return None
        b = winner.bank_id
        # Did a bank other than the winner's hold one? A bank offers at most
        # a read and a write, so two candidates may share it, three cannot.
        n = len(ready)
        self.may_issue = n > 2 or n == 2 and ready[0].bank_id != ready[1].bank_id
        bank = banks[b]
        queue = queues[winner.kind]
        if w_hit:
            outcome, latency = ROW_HIT, queue.hit_latency
            queue.hits += 1
            self.energy.dynamic_pj += queue.hit_pj
        else:
            outcome, latency = ROW_MISS, queue.miss_latency
            queue.misses += 1
            self.energy.dynamic_pj += queue.miss_pj
        winner.outcome = outcome
        winner.completion_cycle = cycle + latency
        self.queue_wait_cycles += cycle - winner.arrival_cycle

        app = winner.app_id
        if self.shared and app != SYSTEM_APP:
            # Ready requests that lost the command slot to a different
            # application accrue one blocked cycle.
            for r in ready:
                if r is not winner and r.app_id not in (app, SYSTEM_APP):
                    r.interference_delay += 1
            # Bank-conflict share of the wait: cycles the bank spent serving
            # other applications while the winner waited. The bank is free
            # now, so every span it counts has ended.
            winner.interference_delay += bank.busy_by_others(app, cycle) - winner.snap_busy
            # Row-locality change: the winner arrived with its row open but
            # another application's activation closed it before service.
            if outcome == ROW_MISS and 0 <= winner.snap_opens < bank.opens_by_others(app):
                winner.interference_delay += latency - queue.hit_latency

        wait = queue.wait
        q = wait[b]
        q.remove(winner)
        if not q:
            del wait[b]
        bank.occupy(app, cycle, latency)
        if outcome == ROW_MISS:
            bank.open_for(winner.page_id, app)
        return winner

    # Totals of the issue counts, kept only because `bench/checks.py` reads
    # them; ROADMAP item 13 deletes them.
    issued_reads = property(lambda self: self.stats_snapshot()["issued_reads"])
    issued_writes = property(lambda self: self.stats_snapshot()["issued_writes"])
    row_hits = property(lambda self: self.stats_snapshot()["row_hits"])
    row_misses = property(lambda self: self.stats_snapshot()["row_misses"])

    def stats_snapshot(self) -> dict:
        reads, writes = self.queues
        hits, misses = reads.hits + writes.hits, reads.misses + writes.misses
        return {
            "issued_reads": reads.hits + reads.misses,
            "issued_writes": writes.hits + writes.misses,
            "row_hits": hits,
            "row_misses": misses,
            "row_hit_rate": hits / (hits + misses) if hits or misses else 0.0,
            "queue_wait_cycles": self.queue_wait_cycles,
        }
