"""Per-page statistics and the page-utility estimator.

A page's value is estimated as the application stall time a migration to
DRAM would save -- row-buffer misses times the device latency gap, scaled
by how much of that latency is actually exposed (the sampled MLP ratio) --
multiplied by the application's performance sensitivity. Counters mirror a
hardware budget: saturating 8-bit miss counts, a 16-bit access count, 15-bit
sample weights, and a 25-bit accumulator with 10 fractional bits for the MLP
ratio sums.
"""

from __future__ import annotations

from collections import OrderedDict

from .device import READ, ROW_MISS, WRITE, DevTiming, service_latency
from .migration import EMPTY_SET

MLP_FRAC_BITS = 10
MLP_ONE = 1 << MLP_FRAC_BITS            # 1.0 in accumulator units
MLP_ACC_MAX = (1 << 25) - 1
MLP_WEIGHT_MAX = (1 << 15) - 1
MISS_COUNT_MAX = (1 << 8) - 1
ACCESS_COUNT_MAX = (1 << 16) - 1

# Probability that buffered writes land on the critical path; fixed at 1.
WRITE_CRITICALITY_P = 1.0

SPEEDUP_QUANT = 256                     # speedups stored as 8-bit fractions
SPEEDUP_MIN = 1.0 / SPEEDUP_QUANT


class PageStats:
    """Stat-store entry for one (page, application) pair."""

    __slots__ = (
        "page_id", "app_id", "read_misses", "write_misses",
        "acc_read", "acc_write", "weight_read", "weight_write",
        "access_count",
    )

    def __init__(self, page_id: int, app_id: int):
        self.page_id = page_id
        self.app_id = app_id
        self.read_misses = self.write_misses = self.access_count = 0
        self.acc_read = self.acc_write = self.weight_read = self.weight_write = 0

    def count_issue(self, kind: int, hit: bool):
        """Count an issued request: an access, and a row miss unless `hit`."""
        if self.access_count < ACCESS_COUNT_MAX:
            self.access_count += 1
        if hit:
            return
        if kind == WRITE:
            if self.write_misses < MISS_COUNT_MAX:
                self.write_misses += 1
        elif self.read_misses < MISS_COUNT_MAX:
            self.read_misses += 1

    def add_samples(self, acc_read, weight_read, acc_write, weight_write):
        """Saturating adds; a side whose increments are both 0 is left as is."""
        if acc_read or weight_read:
            acc = self.acc_read + acc_read
            self.acc_read = acc if acc < MLP_ACC_MAX else MLP_ACC_MAX
            w = self.weight_read + weight_read
            self.weight_read = w if w < MLP_WEIGHT_MAX else MLP_WEIGHT_MAX
        if acc_write or weight_write:
            acc = self.acc_write + acc_write
            self.acc_write = acc if acc < MLP_ACC_MAX else MLP_ACC_MAX
            w = self.weight_write + weight_write
            self.weight_write = w if w < MLP_WEIGHT_MAX else MLP_WEIGHT_MAX

    def halve(self):
        for name in self.__slots__[2:]:   # every counter
            setattr(self, name, getattr(self, name) >> 1)


def avg_mlp_ratio(entry: PageStats) -> tuple[float, float]:
    """Weighted-average MLP ratios (read, write); 0 when never sampled."""
    r_read = entry.acc_read / MLP_ONE / entry.weight_read if entry.weight_read else 0.0
    r_write = entry.acc_write / MLP_ONE / entry.weight_write if entry.weight_write else 0.0
    return r_read, r_write


def latency_gaps(dram: DevTiming, nvm: DevTiming) -> tuple[int, int]:
    """NVM minus DRAM row-miss latency, for reads and for writes."""
    return tuple(service_latency(nvm, kind, ROW_MISS) - service_latency(dram, kind, ROW_MISS)
                 for kind in (READ, WRITE))


def page_stall_reduction(entries, gaps: tuple[int, int], weights=None) -> float:
    """Stall cycles per quantum that moving a page to DRAM saves, given the
    `latency_gaps`: each entry's misses times the gap and its average MLP
    ratio (`avg_mlp_ratio`), writes weighted by WRITE_CRITICALITY_P,
    summed over the page's entries, each times `weights[app_id]` if given.
    An entry without write misses skips its write term, a zero, which
    changes no sum: `total` starts as int 0, so it is never -0.0.
    """
    d_read, d_write = gaps
    total = 0
    for e in entries:
        w = e.weight_read
        saved = e.read_misses * d_read * (e.acc_read / MLP_ONE / w if w else 0.0)
        if e.write_misses:
            w = e.weight_write
            r_write = e.acc_write / MLP_ONE / w if w else 0.0
            saved += WRITE_CRITICALITY_P * e.write_misses * d_write * r_write
        total += saved if weights is None else saved * weights[e.app_id]
    return total


def estimate_speedup(t_stall: int, t_interference: int, t_delay: int,
                     quantum_cycles: int) -> float:
    """Slowdown-corrected speedup estimate for one application's quantum.

    The excess run time caused by other applications is the stall time
    scaled by the interfered fraction of the total memory-busy time.
    """
    if t_delay <= 0:
        return 1.0
    t_excess = t_stall * t_interference / t_delay
    speedup = 1.0 - t_excess / quantum_cycles
    return min(1.0, max(SPEEDUP_MIN, speedup))


def quantize_speedup(speedup: float) -> float:
    """Round to the 8-bit stored representation (multiples of 1/256)."""
    return min(SPEEDUP_QUANT, max(1, round(speedup * SPEEDUP_QUANT))) / SPEEDUP_QUANT


def sensitivity(speedup: float, quantum_cycles: int) -> float:
    """System-performance gain per cycle of stall-time reduction."""
    return speedup / quantum_cycles


class StatStore:
    """Set-associative store of PageStats, one per (page, application).

    The set index depends only on the page id, so every application's entry
    for a shared page lands in the same set. LRU replacement within each
    set: a set is an OrderedDict whose keys are its entries, least recently
    used first. A page index (`_pages`) lists each page's entries in the
    order they hold in their set, so a lookup finds a (page, application)
    entry among its page's entries, and dropping a page needs no scan of
    the set. A set is the shared `migration.EMPTY_SET` until its first
    entry; only `get_or_alloc`'s allocation gives it its own dict, so a run
    that keeps no page statistics builds none. `bench/spans.py` times
    `get_or_alloc` and `entries_for_page` by replacing them on this class,
    so each must stay a method defined here.
    """

    def __init__(self, sets: int = 64, ways: int = 32):
        self.num_sets = sets
        self.ways = ways
        self.sets = [EMPTY_SET] * sets
        self._pages = {}   # page -> [PageStats], in set (LRU) order
        self.evictions = 0

    def get_or_alloc(self, page_id: int, app_id: int) -> PageStats:
        entries = self._pages.get(page_id)
        if entries is not None:
            entry = entries[-1]
            if entry.app_id == app_id:   # the page's most recently used
                self.sets[page_id % self.num_sets].move_to_end(entry)
                return entry
            for entry in entries:
                if entry.app_id == app_id:
                    self.sets[page_id % self.num_sets].move_to_end(entry)
                    entries.remove(entry)
                    entries.append(entry)
                    return entry
        s = self.sets[page_id % self.num_sets]
        if s is EMPTY_SET:
            s = self.sets[page_id % self.num_sets] = OrderedDict()
        elif len(s) >= self.ways:
            # The set's LRU entry is also the LRU one of its page.
            victim, _ = s.popitem(last=False)
            evicted = self._pages[victim.page_id]
            del evicted[0]
            if not evicted:
                del self._pages[victim.page_id]
            self.evictions += 1
        entry = PageStats(page_id, app_id)
        s[entry] = None
        entries = self._pages.get(page_id)   # the eviction may have emptied it
        if entries is None:
            self._pages[page_id] = [entry]
        else:
            entries.append(entry)
        return entry

    def entries_for_page(self, page_id: int) -> list[PageStats]:
        """The page's entries in set order: the store's own list, read-only."""
        return self._pages.get(page_id) or []

    def invalidate_page(self, page_id: int):
        entries = self._pages.pop(page_id, None)
        if entries:
            s = self.sets[page_id % self.num_sets]
            for e in entries:
                del s[e]

    def halve_all(self):
        for e in self.iter_entries():
            e.halve()

    def iter_entries(self):
        for s in self.sets:
            yield from s


class HotPageCounters:
    """Temporary MLP counters for pages with in-flight requests to NVM.

    An entry exists exactly while its page has outstanding NVM requests of
    one application; when the last one completes the accumulated samples
    fold into the stat store and the entry disappears. A record is
    [m_read, m_write, acc_read, acc_write, weight_read, weight_write, core]:
    outstanding requests by kind (`device.READ`, `device.WRITE`), sample
    sums and weights, and the application's core, whose in-flight counts
    `sample` reads. `entries` keys each record by the int
    `page_id * len(cores) + app_id`, so a lookup builds no tuple.
    `bench/spans.py` times `sample`, `on_inject` and `on_complete` by
    replacing them on this class, so each must stay a method defined here.
    """

    __slots__ = ("entries", "cores")

    def __init__(self, cores):
        self.entries = {}  # page_id * len(cores) + app_id -> record
        self.cores = cores

    def on_inject(self, page_id: int, app_id: int, kind: int):
        key = page_id * len(self.cores) + app_id
        e = self.entries.get(key)
        if e is None:
            e = self.entries[key] = [0, 0, 0, 0, 0, 0, self.cores[app_id]]
        e[kind] += 1

    def on_complete(self, page_id: int, app_id: int, kind: int,
                    store: StatStore) -> PageStats | None:
        """Drop one outstanding request; fold into `store` on the last one.

        Returns the stat-store entry when a fold happened, else None.
        """
        key = page_id * len(self.cores) + app_id
        e = self.entries[key]
        e[kind] -= 1
        if e[0] or e[1]:
            return None
        del self.entries[key]
        entry = store.get_or_alloc(page_id, app_id)
        if e[2] or e[3] or e[4] or e[5]:
            entry.add_samples(e[2], e[4], e[3], e[5])
        return entry

    def sample(self, count: int = 1):
        """Apply `count` sampling ticks: add m/N, rounded to the grid of 10
        fractional bits (the hardware ROM step), for every hot page.

        N is the record's core's `outstanding_reads` (or `_writes`), never
        below the record's own m, as the core's count includes the page's
        requests. Ticks may be batched while the counts are unchanged
        (saturating adds commute with batching).
        """
        one = MLP_ONE
        acc_max = MLP_ACC_MAX
        w_max = MLP_WEIGHT_MAX
        for e in self.entries.values():
            m = e[0]
            if m:
                n = e[6].outstanding_reads
                a = e[2] + count * ((m * one + n // 2) // n)
                e[2] = a if a < acc_max else acc_max
                a = e[4] + count * m
                e[4] = a if a < w_max else w_max
            m = e[1]
            if m:
                n = e[6].outstanding_writes
                a = e[3] + count * ((m * one + n // 2) // n)
                e[3] = a if a < acc_max else acc_max
                a = e[5] + count * m
                e[5] = a if a < w_max else w_max


class ThresholdController:
    """Hill-climbing migration threshold driven by total stall time.

    At each quantum boundary the controller compares the quantum's total
    stall time against the previous one: if stall went down, the last
    adjustment helped and is repeated; otherwise the direction flips. The
    step is 1/16 of the running mean of the nonzero scores observed during
    the quantum, which keeps the climb scale-free across policies.
    """

    STEP_DIVISOR = 16

    def __init__(self, initial: float = 0.0):
        self.threshold = initial
        self.prev_total_stall = None
        self.prev_direction = 1   # +1 raises the threshold
        self.step = 0.0
        self._score_sum = 0.0
        self._score_count = 0

    def observe_score(self, score: float) -> bool:
        """Count a nonzero score toward the next step; whether it passes."""
        if score > 0.0:
            self._score_sum += score
            self._score_count += 1
        return score > self.threshold

    def end_quantum(self, total_stall: int):
        if self._score_count:
            self.step = self._score_sum / self._score_count / self.STEP_DIVISOR
        if self.prev_total_stall is None or total_stall < self.prev_total_stall:
            direction = self.prev_direction
        else:
            direction = -self.prev_direction
        self.threshold = max(0.0, self.threshold + direction * self.step)
        self.prev_direction = direction
        self.prev_total_stall = total_stall
        self._score_sum = 0.0
        self._score_count = 0
