"""DRAM tag store and the page-migration machinery.

DRAM acts as a 16-way set-associative page cache over NVM with LRU
replacement; every page starts NVM-resident. A migration job is one or two
page moves: a promotion, preceded by the write-back of the set's LRU
victim to NVM when the promotion needs a way in a full set. A job makes
one move at a time, as explicit block-granularity memory traffic: one read
per cache block from the source device and one write per block to the
destination, tagged with the reserved system application id.

The tag store holds only the resident pages, and per set the ways that
started promotions have reserved; the pages that are moving, victims and
promotions alike, are the engine's `migrating` map. A victim leaves the
tags when its job starts, and a promoted page joins them when it lands.

During a move each block carries a two-bit location (source device,
migration buffer, destination device); incoming requests for the moving
page are routed by that map, and those for a page waiting behind its
victim go to NVM. Block contents are not modeled, only their movement.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from types import MappingProxyType

from .device import BUFFER_CHANNEL, DRAM_CHANNEL, NVM_CHANNEL, READ, WRITE

# Block locations during a migration (monotonic per direction).
IN_SRC = 0
IN_BUFFER = 1
IN_DST = 2

# The set of a `TagStore` or `ubm.StatStore` that has never held a key: one
# shared, read-only mapping, so a store costs one list slot per set until a
# set is used, and a write that skips giving its set a dict fails.
EMPTY_SET = MappingProxyType({})


class TagStore:
    """Set-associative residency tags for the DRAM page cache: per set, the
    resident pages in LRU order (`_sets`) and the ways `reserve`d for
    incoming promotions (`_reserved`), each of which `finalize` fills.

    A set is `EMPTY_SET` until its first page lands; only `finalize`, the
    one write that adds a page, gives it its own dict. So a run that never
    fills a way never builds one, and every read works on either.
    """

    __slots__ = ("associativity", "num_sets", "_sets", "_reserved")

    def __init__(self, dram_pages: int, associativity: int):
        if dram_pages % associativity != 0 or dram_pages < associativity:
            raise ValueError("DRAM page count must be a multiple of the associativity")
        self.associativity = associativity
        self.num_sets = dram_pages // associativity
        # Per set: the resident pages, least recently used first.
        self._sets = [EMPTY_SET] * self.num_sets
        self._reserved = [0] * self.num_sets

    def resident(self, page_id: int) -> bool:
        return page_id in self._sets[page_id % self.num_sets]

    def touch(self, page_id: int):
        """Make a resident page its set's most recently used; else a no-op."""
        s = self._sets[page_id % self.num_sets]
        if page_id in s:
            s.move_to_end(page_id)

    def has_free_way(self, page_id: int) -> bool:
        i = page_id % self.num_sets
        return len(self._sets[i]) + self._reserved[i] < self.associativity

    def lru_victim(self, page_id: int) -> int | None:
        """Least-recently-used resident page of the set, None if none."""
        return next(iter(self._sets[page_id % self.num_sets]), None)

    def reserve(self, page_id: int):
        self._reserved[page_id % self.num_sets] += 1

    def finalize(self, page_id: int):
        i = page_id % self.num_sets
        self._reserved[i] -= 1
        s = self._sets[i]
        if s is EMPTY_SET:
            s = self._sets[i] = OrderedDict()
        s[page_id] = None
        s.move_to_end(page_id)

    def remove(self, page_id: int):
        s = self._sets[page_id % self.num_sets]
        if page_id in s:
            del s[page_id]


class MigrationJob:
    """One promotion, preceded by a victim eviction when the set was full.

    That is one or two page moves, made one at a time; `moving` is the page
    whose blocks are moving now, from `src_channel` to `dst_channel`.
    """

    __slots__ = (
        "page", "victim", "moving", "src_channel", "dst_channel", "blocks",
        "block_state", "next_read", "writes_done", "inflight", "pending_writes",
        "blocked",
    )

    def __init__(self, page: int, victim: int | None, blocks: int):
        self.page = page
        self.victim = victim
        self.blocks = blocks
        # The last pump stopped on a full queue. A move ends only after its
        # last pump injected every block, so `begin` never meets it set.
        self.blocked = False
        if victim is None:
            self.begin(page, NVM_CHANNEL, DRAM_CHANNEL)
        else:
            self.begin(victim, DRAM_CHANNEL, NVM_CHANNEL)

    def begin(self, page: int, src: int, dst: int):
        """Start moving `page` from channel `src` to channel `dst`."""
        self.moving = page
        self.src_channel = src
        self.dst_channel = dst
        self.block_state = [IN_SRC] * self.blocks
        self.next_read = 0
        self.writes_done = 0
        self.inflight = 0
        self.pending_writes = deque()

    def location(self, page: int, block: int) -> int:
        """Channel a demand access to `block` of `page` must be routed to now.

        `bench/spans.py` counts demand requests served from the migration
        buffer through the results of this call, even in its untraced run,
        so every demand access to a migrating page must go through it: a
        copy inlined elsewhere would drop them from `requests_per_s`.
        """
        if page != self.moving:
            return NVM_CHANNEL   # the promotion waits for its victim to move
        return (self.src_channel, BUFFER_CHANNEL,
                self.dst_channel)[self.block_state[block]]


class MigrationEngine:
    """Bounded-concurrency executor for page migrations.

    `bench/spans.py` times `pump`, `request_promotion`, `finish_block_read`
    and `finish_block_write` by replacing them on this class, so each must
    stay a method defined here.
    """

    MAX_JOBS = 4           # jobs under way at once
    PENDING_CAPACITY = 8   # promotions waiting for a job; more are dropped

    def __init__(self, sim, tag: TagStore, blocks_per_page: int,
                 inflight_blocks: int):
        self.sim = sim
        self.tag = tag
        self.blocks_per_page = blocks_per_page
        self.inflight_blocks = inflight_blocks
        self.jobs = []
        self.n_blocked = 0   # jobs whose `blocked` is set
        self.pending = deque()
        self.migrating = {}   # page_id -> job (promotion targets and victims)
        self.pages_promoted = 0
        self.pages_evicted = 0
        self.dropped = 0
        self.traffic_bytes = 0   # `Simulation.inject_migration` counts each block

    # -- residency ------------------------------------------------------------

    def route(self, page_id: int, block: int) -> int:
        """Channel a demand access to `block` of `page_id` goes to now."""
        job = self.migrating.get(page_id)
        # Keep the call (see `MigrationJob.location`).
        if job is not None:
            return job.location(page_id, block)
        tag = self.tag
        return DRAM_CHANNEL if page_id in tag._sets[page_id % tag.num_sets] else NVM_CHANNEL

    # -- triggering -----------------------------------------------------------

    def request_promotion(self, page_id: int, cycle: int) -> bool:
        """Queue a promotion; False if already queued or dropped (queue full).

        The page must be neither resident nor migrating, which the caller
        (`Simulation._maybe_migrate`) has checked.
        """
        if page_id in self.pending:
            return False
        if len(self.pending) >= self.PENDING_CAPACITY:
            self.dropped += 1
            return False
        self.pending.append(page_id)
        self.start_jobs(cycle)
        return True

    def start_jobs(self, cycle: int):
        # A promotion whose set has every way reserved stays pending and lets
        # those behind it start; the promotion that fills a way retries.
        i = 0
        while i < len(self.pending) and len(self.jobs) < self.MAX_JOBS:
            page = self.pending[i]
            victim = None
            if not self.tag.has_free_way(page):
                victim = self.tag.lru_victim(page)
                if victim is None:
                    i += 1
                    continue
                self.tag.remove(victim)
            del self.pending[i]
            self.tag.reserve(page)
            job = MigrationJob(page, victim, self.blocks_per_page)
            self.jobs.append(job)
            self.migrating[page] = job
            if victim is not None:
                self.migrating[victim] = job
            self.pump_job(job, cycle)

    # -- traffic pumping ------------------------------------------------------

    def pump(self, cycle: int):
        """Re-pump each stopped job that can now inject a block.

        A job stops (`blocked`) on a full queue; any other change to a job
        moves it on the spot. A pending promotion waits only while every
        way of its set is reserved; `_finish_move` starts it.
        """
        for job in self.jobs:
            if job.blocked and self._has_room(job):
                self.pump_job(job, cycle)

    def _has_room(self, job: MigrationJob) -> bool:
        """Whether `pump_job` would inject a block of `job`: it holds writes and
        the destination's write queue has a slot free to migration traffic, or
        it has reads left under the cap and the source's read queue has one
        (the test `Simulation.inject_migration` makes). A stopped job holds
        one or the other, so a pump this test refuses would change nothing."""
        ctrls = self.sim.controllers
        dst, src = ctrls[job.dst_channel].queues[WRITE], ctrls[job.src_channel].queues[READ]
        return (job.pending_writes and dst.occupancy < dst.capacity
                or job.inflight < self.inflight_blocks and job.next_read < job.blocks
                and src.occupancy < src.capacity)

    def pump_job(self, job: MigrationJob, cycle: int):
        """Inject the job's buffered writes, then reads up to the in-flight
        cap; a full queue stops the job (a full write queue still lets the
        reads try). So a job that is not stopped holds no writes and has the
        cap of reads in flight or none left: the one request `finish_block_*`
        hand it is all that a pump would inject."""
        # Buffered blocks head for the destination first; that frees buffer
        # space and bounds the job's footprint.
        blocked = False
        while job.pending_writes:
            if self.sim.inject_migration(job, WRITE, job.pending_writes[0], cycle) is None:
                blocked = True
                break
            job.pending_writes.popleft()
        while job.inflight < self.inflight_blocks and job.next_read < job.blocks:
            if self.sim.inject_migration(job, READ, job.next_read, cycle) is None:
                blocked = True
                break
            job.next_read += 1
            job.inflight += 1
        self.n_blocked += blocked - job.blocked
        job.blocked = blocked

    def finish_block_read(self, job: MigrationJob, block: int, cycle: int):
        """Hand the buffered block's write to the destination, or to a
        stopped job's pump, behind its buffered writes."""
        job.block_state[block] = IN_BUFFER
        if job.blocked:
            job.pending_writes.append(block)
            if self._has_room(job):
                self.pump_job(job, cycle)
        elif self.sim.inject_migration(job, WRITE, block, cycle) is None:
            job.pending_writes.append(block)
            job.blocked = True
            self.n_blocked += 1

    def finish_block_write(self, job: MigrationJob, block: int, cycle: int):
        """End the move after its last block; else hand the source the
        job's next read, or pump a stopped job."""
        job.block_state[block] = IN_DST
        job.writes_done += 1
        job.inflight -= 1
        if job.writes_done == job.blocks:
            self._finish_move(job, cycle)
        elif job.blocked:
            if self._has_room(job):
                self.pump_job(job, cycle)
        elif job.next_read < job.blocks:
            if self.sim.inject_migration(job, READ, job.next_read, cycle) is None:
                job.blocked = True
                self.n_blocked += 1
            else:
                job.next_read += 1
                job.inflight += 1

    def _finish_move(self, job: MigrationJob, cycle: int):
        page = job.moving
        del self.migrating[page]
        self.sim.store.invalidate_page(page)
        if page == job.victim:
            self.pages_evicted += 1
            job.begin(job.page, NVM_CHANNEL, DRAM_CHANNEL)
            self.pump_job(job, cycle)
        else:
            self.tag.finalize(page)
            self.pages_promoted += 1
            self.jobs.remove(job)
            self.start_jobs(cycle)
