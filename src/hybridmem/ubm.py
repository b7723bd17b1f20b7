"""Per-page statistics and the page-utility estimator.

A page's value is estimated as the application stall time a migration to
DRAM would save -- row-buffer misses times the device latency gap, scaled
by how much of that latency is actually exposed (the sampled MLP ratio) --
multiplied by the application's performance sensitivity. Counters mirror a
hardware budget: saturating 8-bit miss counts, 15-bit sample weights, and a
25-bit accumulator with 10 fractional bits for the MLP ratio sums.
"""

from __future__ import annotations

from collections import OrderedDict

from .device import DevTiming, read_miss_latency, write_miss_latency

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
        self.read_misses = 0
        self.write_misses = 0
        self.acc_read = 0        # units of 1/1024
        self.acc_write = 0
        self.weight_read = 0
        self.weight_write = 0
        self.access_count = 0

    def count_miss(self, is_write: bool):
        if is_write:
            if self.write_misses < MISS_COUNT_MAX:
                self.write_misses += 1
        elif self.read_misses < MISS_COUNT_MAX:
            self.read_misses += 1

    def count_access(self):
        if self.access_count < ACCESS_COUNT_MAX:
            self.access_count += 1

    def add_samples(self, acc_read, weight_read, acc_write, weight_write):
        self.acc_read = min(self.acc_read + acc_read, MLP_ACC_MAX)
        self.acc_write = min(self.acc_write + acc_write, MLP_ACC_MAX)
        self.weight_read = min(self.weight_read + weight_read, MLP_WEIGHT_MAX)
        self.weight_write = min(self.weight_write + weight_write, MLP_WEIGHT_MAX)

    def halve(self):
        self.read_misses >>= 1
        self.write_misses >>= 1
        self.acc_read >>= 1
        self.acc_write >>= 1
        self.weight_read >>= 1
        self.weight_write >>= 1
        self.access_count >>= 1


def mlp_quotient(m: int, n: int) -> int:
    """m/n rounded to the 10-fractional-bit grid (the hardware ROM step)."""
    return (m * MLP_ONE + n // 2) // n


def avg_mlp_ratio(entry: PageStats) -> tuple[float, float]:
    """Weighted-average MLP ratios (read, write); 0 when never sampled."""
    r_read = entry.acc_read / MLP_ONE / entry.weight_read if entry.weight_read else 0.0
    r_write = entry.acc_write / MLP_ONE / entry.weight_write if entry.weight_write else 0.0
    return r_read, r_write


def latency_gaps(dram: DevTiming, nvm: DevTiming) -> tuple[int, int]:
    """NVM minus DRAM row-miss latency, for reads and for writes."""
    return (read_miss_latency(nvm) - read_miss_latency(dram),
            write_miss_latency(nvm) - write_miss_latency(dram))


def gap_stall_reduction(entry: PageStats, gaps: tuple[int, int]) -> float:
    """Stall cycles saved per quantum, given the `latency_gaps`."""
    d_read, d_write = gaps
    r_read, r_write = avg_mlp_ratio(entry)
    return (entry.read_misses * d_read * r_read
            + WRITE_CRITICALITY_P * entry.write_misses * d_write * r_write)


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
    """Set-associative store of PageStats keyed by (page, application).

    The set index depends only on the page id, so every application's entry
    for a shared page lands in the same set. LRU replacement within each
    set. A page index lists each page's entries in the order they hold in
    their set, so looking up or dropping a page's entries needs no scan of
    the set.
    """

    def __init__(self, sets: int = 64, ways: int = 32):
        self.num_sets = sets
        self.ways = ways
        self.sets = [OrderedDict() for _ in range(sets)]
        self._pages = {}   # page -> [PageStats], in set (LRU) order
        self.evictions = 0

    def get_or_alloc(self, page_id: int, app_id: int) -> PageStats:
        s = self.sets[page_id % self.num_sets]
        key = (page_id, app_id)
        entry = s.get(key)
        if entry is None:
            if len(s) >= self.ways:
                # The set's LRU entry is also the LRU one of its page.
                (page, _app), _ = s.popitem(last=False)
                entries = self._pages[page]
                del entries[0]
                if not entries:
                    del self._pages[page]
                self.evictions += 1
            entry = PageStats(page_id, app_id)
            s[key] = entry
            entries = self._pages.get(page_id)
            if entries is None:
                self._pages[page_id] = [entry]
            else:
                entries.append(entry)
        else:
            s.move_to_end(key)
            entries = self._pages[page_id]
            if entries[-1] is not entry:
                entries.remove(entry)
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
                del s[(page_id, e.app_id)]

    def halve_all(self):
        for s in self.sets:
            for e in s.values():
                e.halve()

    def iter_entries(self):
        for s in self.sets:
            yield from s.values()


class HotPageCounters:
    """Temporary MLP counters for pages with in-flight requests to NVM.

    An entry exists exactly while its page has outstanding NVM requests;
    when the last one completes the accumulated samples fold into the stat
    store and the entry disappears.
    """

    __slots__ = ("entries",)

    def __init__(self):
        self.entries = {}  # (page_id, app_id) -> [m_read, m_write, acc_r, acc_w, w_r, w_w]

    def on_inject(self, page_id: int, app_id: int, is_write: bool):
        e = self.entries.get((page_id, app_id))
        if e is None:
            e = self.entries[(page_id, app_id)] = [0, 0, 0, 0, 0, 0]
        e[1 if is_write else 0] += 1

    def on_complete(self, page_id: int, app_id: int, is_write: bool,
                    store: StatStore) -> PageStats | None:
        """Drop one outstanding request; fold into `store` on the last one.

        Returns the stat-store entry when a fold happened, else None.
        """
        key = (page_id, app_id)
        e = self.entries[key]
        e[1 if is_write else 0] -= 1
        if e[0] <= 0 and e[1] <= 0:
            del self.entries[key]
            entry = store.get_or_alloc(page_id, app_id)
            if e[2] or e[3] or e[4] or e[5]:
                entry.add_samples(e[2], e[4], e[3], e[5])
            return entry
        return None

    def sample(self, reads_by_app, writes_by_app, count: int = 1):
        """Apply `count` sampling ticks: accumulate m/N for every hot page.

        reads_by_app / writes_by_app are indexable by app id and give each
        application's total outstanding request counts; ticks may be batched
        while the counts are unchanged (saturating adds commute with
        batching).
        """
        one = MLP_ONE
        acc_max = MLP_ACC_MAX
        w_max = MLP_WEIGHT_MAX
        for (page_id, app_id), e in self.entries.items():
            m = e[0]
            if m:
                n = reads_by_app[app_id]
                if n >= m:
                    e[2] = min(e[2] + count * ((m * one + n // 2) // n), acc_max)
                    e[4] = min(e[4] + count * m, w_max)
            m = e[1]
            if m:
                n = writes_by_app[app_id]
                if n >= m:
                    e[3] = min(e[3] + count * ((m * one + n // 2) // n), acc_max)
                    e[5] = min(e[5] + count * m, w_max)


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

    def observe_score(self, score: float):
        if score > 0.0:
            self._score_sum += score
            self._score_count += 1

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
