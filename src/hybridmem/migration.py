"""DRAM tag store and the page-migration machinery.

DRAM acts as a 16-way set-associative page cache over NVM with LRU
replacement; every page starts NVM-resident. A migration moves one page as
explicit block-granularity memory traffic: one read per cache block from
the source device and one write per block to the destination, tagged with
the reserved system application id. When a promotion needs a way in a full
set, the LRU victim is written back to NVM first.

During a migration each block carries a two-bit location (source device,
migration buffer, destination device); incoming requests for the page are
routed by that map. Block contents are not modeled, only their movement.
"""

from __future__ import annotations

from collections import OrderedDict, deque

from .device import BUFFER_CHANNEL, DRAM_CHANNEL, NVM_CHANNEL, READ, WRITE

# Block locations during a migration (monotonic per direction).
IN_SRC = 0
IN_BUFFER = 1
IN_DST = 2

EVICT = 0
PROMOTE = 1

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
    """One promotion, preceded by a victim eviction when the set was full."""

    __slots__ = (
        "page", "victim", "phase", "blocks", "block_state",
        "next_read", "writes_done", "inflight", "pending_writes",
        "src_channel", "dst_channel", "blocked",
    )

    def __init__(self, page: int, victim: int | None, blocks: int):
        self.page = page
        self.victim = victim
        self.blocks = blocks
        self.phase = EVICT if victim is not None else PROMOTE
        self.block_state = [IN_SRC] * blocks
        self.next_read = 0
        self.writes_done = 0
        self.inflight = 0
        self.pending_writes = deque()
        self.blocked = False   # the last pump stopped on a full queue
        self._set_channels()

    def _set_channels(self):
        if self.phase == EVICT:
            self.src_channel, self.dst_channel = DRAM_CHANNEL, NVM_CHANNEL
        else:
            self.src_channel, self.dst_channel = NVM_CHANNEL, DRAM_CHANNEL

    def phase_page(self) -> int:
        return self.victim if self.phase == EVICT else self.page

    def location(self, page: int, block: int) -> int:
        """Channel a demand access to `block` of `page` must be routed to now."""
        if page == self.page:
            if self.phase == EVICT:
                return NVM_CHANNEL  # promotion has not started moving yet
            state = self.block_state[block]
            if state == IN_SRC:
                return NVM_CHANNEL
            if state == IN_BUFFER:
                return BUFFER_CHANNEL
            return DRAM_CHANNEL
        # victim page mid-eviction
        state = self.block_state[block]
        if state == IN_SRC:
            return DRAM_CHANNEL
        if state == IN_BUFFER:
            return BUFFER_CHANNEL
        return NVM_CHANNEL


class MigrationEngine:
    """Bounded-concurrency executor for page migrations."""

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
        while self.pending and len(self.jobs) < self.max_jobs:
            page = self.pending[0]
            if page in self.migrating or self.tag.resident(page):
                self.pending.popleft()
                continue
            victim = None
            if not self.tag.has_free_way(page):
                victim = self.tag.lru_victim(page)
                if victim is None:
                    return  # every way of the set is mid-migration; retry later
                self.tag.remove(victim)
            self.pending.popleft()
            self.tag.reserve(page)
            job = MigrationJob(page, victim, self.blocks_per_page)
            self.jobs.append(job)
            self.migrating[page] = job
            if victim is not None:
                self.migrating[victim] = job
            self.pump_job(job, cycle)

    # -- traffic pumping ------------------------------------------------------

    def can_progress(self) -> bool:
        """Whether pump could move anything once a queue slot frees."""
        if self.pending and len(self.jobs) < self.max_jobs:
            return True
        for job in self.jobs:
            if job.blocked:
                return True
        return False

    def pump(self, cycle: int):
        """Re-pump the jobs stopped on a full queue, after a slot freed."""
        for job in self.jobs:
            if job.blocked:
                self.pump_job(job, cycle)
        if self.pending:
            self.start_jobs(cycle)

    def pump_job(self, job: MigrationJob, cycle: int):
        # Buffered blocks head for the destination first; that frees buffer
        # space and bounds the job's footprint.
        job.blocked = False
        if job.pending_writes:
            page = job.phase_page()
            while job.pending_writes:
                req = self.sim.inject_migration(job, WRITE, page,
                                                job.pending_writes[0],
                                                job.dst_channel, cycle)
                if req is None:
                    job.blocked = True
                    break
                job.pending_writes.popleft()
                self.traffic_bytes += self.sim.block_bytes
        if job.inflight < self.inflight_blocks and job.next_read < job.blocks:
            page = job.phase_page()
            while (job.inflight < self.inflight_blocks
                   and job.next_read < job.blocks):
                req = self.sim.inject_migration(job, READ, page, job.next_read,
                                                job.src_channel, cycle)
                if req is None:
                    job.blocked = True
                    break
                job.next_read += 1
                job.inflight += 1
                self.traffic_bytes += self.sim.block_bytes

    def finish_block_read(self, job: MigrationJob, block: int, cycle: int):
        job.block_state[block] = IN_BUFFER
        job.pending_writes.append(block)
        self.pump_job(job, cycle)

    def finish_block_write(self, job: MigrationJob, block: int, cycle: int):
        job.block_state[block] = IN_DST
        job.writes_done += 1
        job.inflight -= 1
        if job.writes_done == job.blocks:
            self._finish_phase(job, cycle)
        else:
            self.pump_job(job, cycle)

    def _finish_phase(self, job: MigrationJob, cycle: int):
        if job.phase == EVICT:
            del self.migrating[job.victim]
            self.pages_evicted += 1
            self.sim.on_eviction_done(job.victim, cycle)
            job.phase = PROMOTE
            job._set_channels()
            job.block_state = [IN_SRC] * job.blocks
            job.next_read = 0
            job.writes_done = 0
            job.inflight = 0
            job.pending_writes.clear()
            self.pump_job(job, cycle)
        else:
            del self.migrating[job.page]
            self.tag.finalize(job.page)
            self.pages_promoted += 1
            self.jobs.remove(job)
            self.sim.on_promotion_done(job.page, cycle)
            self.start_jobs(cycle)
