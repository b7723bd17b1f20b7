"""DRAM tag store and the page-migration machinery.

DRAM acts as a 16-way set-associative page cache over NVM with LRU
replacement; every page starts NVM-resident. A migration job is one or two
page moves: a promotion, preceded by the write-back of the set's LRU
victim to NVM when the promotion needs a way in a full set. A job makes
one move at a time, as explicit block-granularity memory traffic: one read
per cache block from the source device and one write per block to the
destination, tagged with the reserved system application id.

During a move each block carries a two-bit location (source device,
migration buffer, destination device); incoming requests for the moving
page are routed by that map, and those for a page waiting behind its
victim go to NVM. Block contents are not modeled, only their movement.
"""

from __future__ import annotations

from collections import OrderedDict, deque

from .device import BUFFER_CHANNEL, DRAM_CHANNEL, NVM_CHANNEL, READ, WRITE

# Block locations during a migration (monotonic per direction).
IN_SRC = 0
IN_BUFFER = 1
IN_DST = 2

# Tag entry states.
TAG_VALID = 0
TAG_MIGRATING = 1


class MigrationError(Exception):
    pass


class NotResident(MigrationError):
    pass


class TagStore:
    """Set-associative residency tags for the DRAM page cache."""

    def __init__(self, dram_pages: int, associativity: int):
        if dram_pages % associativity != 0 or dram_pages < associativity:
            raise ValueError("DRAM page count must be a multiple of the associativity")
        self.associativity = associativity
        self.num_sets = dram_pages // associativity
        # Per set: page_id -> state, insertion order is LRU order.
        self.sets = [OrderedDict() for _ in range(self.num_sets)]

    def _set_of(self, page_id: int) -> OrderedDict:
        return self.sets[page_id % self.num_sets]

    def resident(self, page_id: int) -> bool:
        return self._set_of(page_id).get(page_id) == TAG_VALID

    def touch(self, page_id: int):
        s = self._set_of(page_id)
        if s.get(page_id) != TAG_VALID:
            raise NotResident(f"page {page_id} is not DRAM-resident")
        s.move_to_end(page_id)

    def has_free_way(self, page_id: int) -> bool:
        return len(self._set_of(page_id)) < self.associativity

    def lru_victim(self, page_id: int) -> int | None:
        """Least-recently-used valid page of the set, None if none valid."""
        for pid, state in self._set_of(page_id).items():
            if state == TAG_VALID:
                return pid
        return None

    def reserve(self, page_id: int):
        self._set_of(page_id)[page_id] = TAG_MIGRATING

    def finalize(self, page_id: int):
        s = self._set_of(page_id)
        s[page_id] = TAG_VALID
        s.move_to_end(page_id)

    def remove(self, page_id: int):
        self._set_of(page_id).pop(page_id, None)


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

    def __init__(self, sim, tag: TagStore, blocks_per_page: int,
                 inflight_blocks: int, max_jobs: int = 4,
                 pending_capacity: int = 8):
        self.sim = sim
        self.tag = tag
        self.blocks_per_page = blocks_per_page
        self.max_jobs = max_jobs
        self.pending_capacity = pending_capacity
        self.inflight_blocks = inflight_blocks
        self.jobs = []
        self.n_blocked = 0   # jobs whose `blocked` is set
        self.pending = deque()
        self.migrating = {}   # page_id -> job (promotion targets and victims)
        self.pages_promoted = 0
        self.pages_evicted = 0
        self.dropped = 0
        self.traffic_bytes = 0

    # -- residency ------------------------------------------------------------

    def route(self, page_id: int, block: int) -> int:
        """Channel a demand access to `block` of `page_id` goes to now."""
        job = self.migrating.get(page_id)
        # Keep the call (see `MigrationJob.location`).
        if job is not None:
            return job.location(page_id, block)
        return DRAM_CHANNEL if self.tag.resident(page_id) else NVM_CHANNEL

    # -- triggering -----------------------------------------------------------

    def request_promotion(self, page_id: int, cycle: int) -> bool:
        """Queue a promotion; drops the request when saturated."""
        if page_id in self.migrating or self.tag.resident(page_id):
            return False
        if page_id in self.pending:
            return False
        if len(self.pending) >= self.pending_capacity:
            self.dropped += 1
            return False
        self.pending.append(page_id)
        self.start_jobs(cycle)
        return True

    def start_jobs(self, cycle: int):
        # A promotion whose set has every way mid-migration stays pending and
        # lets those behind it start; the promotion that frees a way retries.
        i = 0
        while i < len(self.pending) and len(self.jobs) < self.max_jobs:
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
        """Re-pump the jobs stopped on a full queue (a no-op until a slot frees).

        They are the only work for a later pump: every other change to a job
        pumps it on the spot. A pending promotion waits only while every way
        of its set is mid-migration, and the promotion that frees a way
        starts it (`_finish_move`).
        """
        for job in self.jobs:
            if job.blocked:
                self.pump_job(job, cycle)

    def pump_job(self, job: MigrationJob, cycle: int):
        # Buffered blocks head for the destination first; that frees buffer
        # space and bounds the job's footprint.
        if job.blocked:
            job.blocked = False
            self.n_blocked -= 1
        blocked = False
        page = job.moving
        while job.pending_writes:
            req = self.sim.inject_migration(job, WRITE, page, job.pending_writes[0],
                                            job.dst_channel, cycle)
            if req is None:
                blocked = True
                break
            job.pending_writes.popleft()
            self.traffic_bytes += self.sim.block_bytes
        while job.inflight < self.inflight_blocks and job.next_read < job.blocks:
            req = self.sim.inject_migration(job, READ, page, job.next_read,
                                            job.src_channel, cycle)
            if req is None:
                blocked = True
                break
            job.next_read += 1
            job.inflight += 1
            self.traffic_bytes += self.sim.block_bytes
        if blocked:
            job.blocked = True
            self.n_blocked += 1

    def finish_block_read(self, job: MigrationJob, block: int, cycle: int):
        job.block_state[block] = IN_BUFFER
        job.pending_writes.append(block)
        self.pump_job(job, cycle)

    def finish_block_write(self, job: MigrationJob, block: int, cycle: int):
        job.block_state[block] = IN_DST
        job.writes_done += 1
        job.inflight -= 1
        if job.writes_done == job.blocks:
            self._finish_move(job, cycle)
        else:
            self.pump_job(job, cycle)

    def _finish_move(self, job: MigrationJob, cycle: int):
        page = job.moving
        del self.migrating[page]
        self.sim.on_page_moved(page)
        if page == job.victim:
            self.pages_evicted += 1
            job.begin(job.page, NVM_CHANNEL, DRAM_CHANNEL)
            self.pump_job(job, cycle)
        else:
            self.tag.finalize(page)
            self.pages_promoted += 1
            self.jobs.remove(job)
            self.start_jobs(cycle)
