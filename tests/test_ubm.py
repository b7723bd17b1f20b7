import math
import random

import pytest
from hypothesis import example, given, strategies as st

from hybridmem.device import DRAM_BASELINE, NVM_BASELINE, READ, WRITE
from hybridmem.migration import EMPTY_SET
from hybridmem.policies import FreqPolicy, RblaPolicy, StallTimePolicy, UtilityPolicy
from hybridmem.ubm import (
    ACCESS_COUNT_MAX, HotPageCounters, MISS_COUNT_MAX, MLP_ACC_MAX, MLP_ONE,
    MLP_WEIGHT_MAX, PageStats,
    StatStore, ThresholdController, avg_mlp_ratio, estimate_speedup,
    WRITE_CRITICALITY_P, latency_gaps, page_stall_reduction,
    quantize_speedup, sensitivity,
)

ULP = 1.0 / MLP_ONE  # one unit of the 10-fractional-bit grid
BASELINE_GAPS = latency_gaps(DRAM_BASELINE, NVM_BASELINE)


def mlp_quotient(m: int, n: int) -> int:
    """The reference sample: m/n rounded to the 10-fractional-bit grid."""
    return (m * MLP_ONE + n // 2) // n


def entry(read_misses=0, write_misses=0, samples_read=(), samples_write=()):
    e = PageStats(0, 0)
    e.read_misses = read_misses
    e.write_misses = write_misses
    for m, n in samples_read:
        e.acc_read = min(e.acc_read + mlp_quotient(m, n), (1 << 25) - 1)
        e.weight_read += m
    for m, n in samples_write:
        e.acc_write = min(e.acc_write + mlp_quotient(m, n), (1 << 25) - 1)
        e.weight_write += m
    return e


# -- sampling updates ---------------------------------------------------------

class _Core:
    """An application's in-flight request counts, which `sample` reads."""

    def __init__(self, reads=0, writes=0):
        self.outstanding_reads = reads
        self.outstanding_writes = writes


def _hot(*counts):
    """Counters over cores with these (reads, writes) in flight, by app."""
    return HotPageCounters([_Core(reads, writes) for reads, writes in counts])


def _key(hot, page, app):
    return page * len(hot.cores) + app


def _record(hot, page, app):
    return hot.entries[_key(hot, page, app)]


def test_sample_full_overlap():
    hot = _hot((2, 0))
    hot.on_inject(5, 0, READ)
    hot.on_inject(5, 0, READ)
    hot.sample()  # m_read=2, N_read=2
    e = _record(hot, 5, 0)
    assert e[2] == MLP_ONE          # += 1.0
    assert e[4] == 2                # += m


def test_sample_quarter_ratio():
    hot = _hot((4, 0))
    hot.on_inject(5, 0, READ)
    hot.sample()  # m_read=1, N_read=4
    e = _record(hot, 5, 0)
    assert e[2] == MLP_ONE // 4     # += 0.25 exactly
    assert e[4] == 1


def test_sample_zero_outstanding_no_update():
    hot = _hot((3, 1))
    hot.on_inject(5, 0, WRITE)      # one write, zero reads
    hot.sample()
    e = _record(hot, 5, 0)
    assert e[2] == 0 and e[4] == 0  # read side untouched
    assert e[3] == MLP_ONE and e[5] == 1


def test_sample_batched_equals_repeated():
    cores = [_Core(2, 0)]
    a, b = HotPageCounters(cores), HotPageCounters(cores)
    for h in (a, b):
        h.on_inject(1, 0, READ)
        h.on_inject(2, 0, READ)
    for _ in range(7):
        a.sample()
    b.sample(count=7)
    assert a.entries == b.entries


def _near(top):
    """A counter value from 0 to `top`, often at or just below `top`."""
    return st.one_of(st.just(0), st.integers(max(0, top - 64), top), st.integers(0, top))


_hot_records = st.lists(st.tuples(
    st.integers(0, 2),                                  # app
    st.integers(0, 4), st.integers(0, 4),               # m_read, m_write
    _near(MLP_ACC_MAX), _near(MLP_ACC_MAX),             # acc_read, acc_write
    _near(MLP_WEIGHT_MAX), _near(MLP_WEIGHT_MAX)),      # weight_read, weight_write
    max_size=6)
_app_counts = st.lists(st.integers(0, 6), min_size=3, max_size=3)
_ticks = st.one_of(st.just(1), st.integers(1, 40), st.integers(1, 1 << 26))


@given(_hot_records, _app_counts, _app_counts, _ticks)
def test_sample_saturates_as_the_min_reference(records, reads, writes, count):
    # Each core has its hot pages' requests in flight and `reads`/`writes`
    # more, as in a run, where a core's counts include every page's.
    hot = _hot(*zip(reads, writes))
    for page, (app, m_read, m_write, *sums) in enumerate(records):
        for _ in range(m_read):
            hot.on_inject(page, app, READ)
        for _ in range(m_write):
            hot.on_inject(page, app, WRITE)
        hot.cores[app].outstanding_reads += m_read
        hot.cores[app].outstanding_writes += m_write
        if m_read or m_write:
            _record(hot, page, app)[2:6] = sums
    expected = {}
    for key, e in hot.entries.items():
        e = expected[key] = list(e)
        core = e[6]
        for side, n in ((0, core.outstanding_reads), (1, core.outstanding_writes)):
            m = e[side]
            if m:
                e[2 + side] = min(e[2 + side] + count * mlp_quotient(m, n), MLP_ACC_MAX)
                e[4 + side] = min(e[4 + side] + count * m, MLP_WEIGHT_MAX)
    hot.sample(count)
    assert hot.entries == expected


@given(_near(MLP_ACC_MAX), _near(MLP_WEIGHT_MAX), _near(MLP_ACC_MAX), _near(MLP_WEIGHT_MAX),
       st.lists(st.one_of(st.just(0), st.integers(0, 2 * MLP_ACC_MAX)),
                min_size=4, max_size=4))
def test_add_samples_saturates_as_the_min_reference(acc_r, w_r, acc_w, w_w, adds):
    e = PageStats(0, 0)
    e.acc_read, e.weight_read, e.acc_write, e.weight_write = acc_r, w_r, acc_w, w_w
    e.add_samples(*adds)
    assert (e.acc_read, e.weight_read, e.acc_write, e.weight_write) == (
        min(acc_r + adds[0], MLP_ACC_MAX), min(w_r + adds[1], MLP_WEIGHT_MAX),
        min(acc_w + adds[2], MLP_ACC_MAX), min(w_w + adds[3], MLP_WEIGHT_MAX))


def test_mlp_quotient_grid():
    def one_tick(m, n):
        hot = _hot((n, 0))
        for _ in range(m):
            hot.on_inject(0, 0, READ)
        hot.sample()
        return _record(hot, 0, 0)[2]

    assert one_tick(1, 1) == mlp_quotient(1, 1) == MLP_ONE
    assert one_tick(1, 3) == mlp_quotient(1, 3) == round(MLP_ONE / 3)
    assert one_tick(7, 9) == mlp_quotient(7, 9)
    assert abs(mlp_quotient(7, 9) / MLP_ONE - 7 / 9) <= ULP


# -- folding into the stat store ----------------------------------------------

def test_fold_adds_and_resets():
    hot = _hot((0, 0), (1, 0))
    store = StatStore()
    hot.on_inject(9, 1, READ)
    hot.sample()   # app 1: ratio 1.0, weight 1
    assert hot.on_complete(9, 1, READ, store) is not None
    assert _key(hot, 9, 1) not in hot.entries
    [e] = store.entries_for_page(9)
    assert e.app_id == 1
    assert e.acc_read == MLP_ONE and e.weight_read == 1


def test_fold_keeps_entry_while_outstanding():
    hot = _hot((0, 0), (2, 0))
    store = StatStore()
    hot.on_inject(9, 1, READ)
    hot.on_inject(9, 1, READ)
    assert hot.on_complete(9, 1, READ, store) is None
    assert _key(hot, 9, 1) in hot.entries


def test_fold_with_zero_temporaries_allocates_but_adds_nothing():
    hot = _hot((0, 0), (1, 0))
    store = StatStore()
    hot.on_inject(9, 1, READ)
    hot.on_complete(9, 1, READ, store)  # never sampled
    [e] = store.entries_for_page(9)
    assert e.app_id == 1
    assert e.acc_read == 0 and e.weight_read == 0


def test_fold_into_full_set_evicts_lru():
    store = StatStore(sets=2, ways=2)
    a = store.get_or_alloc(0, 0)   # set 0
    b = store.get_or_alloc(2, 0)   # set 0
    assert store.get_or_alloc(0, 0) is a   # refresh a; b becomes LRU
    store.get_or_alloc(4, 0)       # evicts b
    assert store.entries_for_page(2) == []
    assert store.entries_for_page(0) == [a]
    assert store.evictions == 1


# -- ratio and stall-time estimation -------------------------------------------

def test_avg_ratio_weighted_example():
    e = entry(samples_read=[(2, 2), (1, 4)])
    r_read, _ = avg_mlp_ratio(e)
    assert r_read == pytest.approx(1.25 / 3, abs=ULP)


def test_avg_ratio_identity_and_constant():
    # A lone request (m = N = 1) is fully exposed.
    e = entry(samples_read=[(1, 1)])
    assert avg_mlp_ratio(e)[0] == pytest.approx(1.0, abs=ULP)
    # Constant per-sample ratio 1/4 averages to 1/4.
    e = entry(samples_read=[(1, 4), (1, 4), (1, 4)])
    assert avg_mlp_ratio(e)[0] == pytest.approx(0.25, abs=ULP)
    # The page's own requests overlapping each other also mask latency:
    # three concurrent requests expose a third of it apiece.
    e = entry(samples_read=[(3, 3)])
    assert avg_mlp_ratio(e)[0] == pytest.approx(1 / 3, abs=ULP)


def test_avg_ratio_zero_weight_is_zero():
    assert avg_mlp_ratio(entry()) == (0.0, 0.0)


def test_stall_reduction_read_term():
    # 10 read misses at full exposure: 10 x (97.5 - 45) ns = 10 x 28 cycles.
    e = entry(read_misses=10, samples_read=[(1, 1)])
    assert page_stall_reduction((e,), BASELINE_GAPS) == pytest.approx(280.0)


def test_stall_reduction_zero_misses():
    e = entry(samples_read=[(1, 1)], samples_write=[(1, 1)])
    assert page_stall_reduction((e,), BASELINE_GAPS) == 0.0


def test_stall_reduction_linear_in_ratio():
    full = entry(read_misses=10, samples_read=[(1, 1)])
    half = entry(read_misses=10, samples_read=[(1, 2)])
    assert page_stall_reduction((half,), BASELINE_GAPS) == pytest.approx(
        page_stall_reduction((full,), BASELINE_GAPS) / 2, rel=1e-9)


def test_stall_reduction_write_term_uses_recovery_time():
    e = entry(write_misses=4, samples_write=[(1, 1)])
    # (15+67.5+15+180) - (15+15+15+15) = 217.5 ns = 116 cycles per miss
    assert page_stall_reduction((e,), BASELINE_GAPS) == pytest.approx(4 * 116.0)


class _ScoreContext:
    """The two things a policy reads from the simulation when it scores."""

    latency_gaps = (100, 100)

    def __init__(self, sens):
        self.sensitivities = sens


def _store_with(*entries):
    store = StatStore()
    for page, app, read_misses, write_misses in entries:
        e = store.get_or_alloc(page, app)
        e.read_misses, e.write_misses = read_misses, write_misses
        e.add_samples(MLP_ONE, 1, MLP_ONE, 1)   # fully exposed
    return store


def test_utility_and_shared_page_aggregation():
    # Utility is stall-time reduction times sensitivity:
    # 10 exposed misses x 100 cycles x 5e-7 per cycle.
    ubm = UtilityPolicy()
    assert ubm.score(0, _store_with((0, 0, 10, 0)),
                     _ScoreContext({0: 5e-7})) == pytest.approx(5e-4)
    assert ubm.score(0, _store_with((0, 0, 0, 0)), _ScoreContext({0: 123.0})) == 0.0
    # Shared page: per-application utilities (3e-4 and 2e-4) add.
    shared = _store_with((0, 0, 6, 0), (0, 1, 0, 4))
    assert ubm.score(0, shared, _ScoreContext({0: 5e-7, 1: 5e-7})) == pytest.approx(5e-4)


def _counter(top):
    return st.one_of(st.just(0), st.just(top), st.integers(0, top))


_page_entries = st.lists(st.fixed_dictionaries({
    "read_misses": _counter(MISS_COUNT_MAX), "write_misses": _counter(MISS_COUNT_MAX),
    "acc_read": _counter(MLP_ACC_MAX), "acc_write": _counter(MLP_ACC_MAX),
    "weight_read": _counter(MLP_WEIGHT_MAX), "weight_write": _counter(MLP_WEIGHT_MAX),
    "sensitivity": st.floats(0.0, 1.0),
}), min_size=2, max_size=6)


def _bits(x: float) -> tuple:
    """A float's value and the sign of a zero, which `==` does not tell."""
    return x, math.copysign(1.0, x)


# NVM scaled to a tenth of its activation and write-recovery time is faster
# than DRAM: the gaps are negative, so a read term may be -0.0.
FAST_NVM_GAPS = latency_gaps(DRAM_BASELINE, NVM_BASELINE.scaled(0.1, 0.1))


def test_fast_nvm_gaps_are_negative():
    assert FAST_NVM_GAPS == (-4, -3)


_UNSAMPLED_MISS = {"read_misses": 1, "write_misses": 0, "acc_read": 0, "acc_write": 0,
                   "weight_read": 0, "weight_write": 0, "sensitivity": 1.0}


def _entry_stall_reduction(e, gaps):
    """The reference: one entry's saved stall, both terms always added."""
    r_read, r_write = avg_mlp_ratio(e)
    return (e.read_misses * gaps[0] * r_read
            + WRITE_CRITICALITY_P * e.write_misses * gaps[1] * r_write)


# With gaps (-4, 3) an entry without write misses pairs a -0.0 read term with
# a +0.0 write term, the one case where skipping that write term changes the
# sign of the entry's zero.
@given(fields=_page_entries,
       gaps=st.sampled_from([BASELINE_GAPS, (100, 100), (1, 3), FAST_NVM_GAPS, (-4, 3)]))
@example(fields=[_UNSAMPLED_MISS] * 2, gaps=FAST_NVM_GAPS)   # every term is -0.0
def test_stall_scores_on_shared_pages_equal_the_reference_sum_exactly(fields, gaps):
    # The policies score a page in one loop; it must give, bit for bit, the
    # per-entry reference summed in set order, weighted and unweighted.
    store = StatStore()
    for app, f in enumerate(fields):
        e = store.get_or_alloc(7, app)
        for name, value in f.items():
            if name != "sensitivity":
                setattr(e, name, value)
    entries = store.entries_for_page(7)
    assert len(entries) == len(fields)
    ctx = _ScoreContext([f["sensitivity"] for f in fields])
    ctx.latency_gaps = gaps
    assert _bits(UtilityPolicy().score(7, store, ctx)) == _bits(sum(
        _entry_stall_reduction(e, gaps) * ctx.sensitivities[e.app_id] for e in entries))
    assert _bits(StallTimePolicy().score(7, store, ctx)) == _bits(sum(
        _entry_stall_reduction(e, gaps) for e in entries))


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2), _counter(ACCESS_COUNT_MAX),
                          _counter(MISS_COUNT_MAX), _counter(MISS_COUNT_MAX)), max_size=12))
def test_count_scores_equal_the_generator_sum(rows):
    # `freq` and `rbla` sum in a loop; the sums are of integers, so they
    # equal the generator expressions they replace, as floats.
    store = StatStore(sets=2, ways=4)
    for page, app, accesses, read_misses, write_misses in rows:
        e = store.get_or_alloc(page, app)
        e.access_count, e.read_misses, e.write_misses = accesses, read_misses, write_misses
    for page in range(4):
        entries = store.entries_for_page(page)
        freq = FreqPolicy().score(page, store, None)
        rbla = RblaPolicy().score(page, store, None)
        assert type(freq) is float and type(rbla) is float
        assert freq == float(sum(e.access_count for e in entries))
        assert rbla == float(sum(e.read_misses + e.write_misses for e in entries))


# -- speedup estimation ---------------------------------------------------------

def test_estimate_speedup_example():
    assert estimate_speedup(100, 50, 200, 1000) == pytest.approx(0.975)


def test_estimate_speedup_no_interference():
    assert estimate_speedup(500, 0, 900, 1000) == 1.0


def test_estimate_speedup_full_attribution():
    assert estimate_speedup(100, 200, 200, 1000) == pytest.approx(1 - 100 / 1000)


def test_estimate_speedup_zero_delay():
    assert estimate_speedup(0, 0, 0, 1000) == 1.0


def test_estimate_speedup_clamped():
    assert estimate_speedup(1000, 1000, 1000, 1000) == pytest.approx(1 / 256)


def test_quantize_speedup_8bit():
    assert quantize_speedup(1.0) == 1.0
    assert quantize_speedup(0.975) == pytest.approx(250 / 256)
    assert quantize_speedup(0.0001) == pytest.approx(1 / 256)


def test_sensitivity_example():
    # Execution times 6,3,3 alone vs 10 shared: sensitivities 0.06, 0.03, 0.03.
    sens = [sensitivity(t_alone / 10.0, 10) for t_alone in (6, 3, 3)]
    assert sens == pytest.approx([0.06, 0.03, 0.03])
    assert sens[0] == pytest.approx(2 * sens[1])


def test_sensitivity_uniform_when_equal_speedup():
    assert sensitivity(0.8, 1000) == sensitivity(0.8, 1000)
    assert sensitivity(1.0, 1000) == pytest.approx(1 / 1000)


# -- threshold controller --------------------------------------------------------

def make_controller(threshold=10.0, step_scores=(160.0,)):
    c = ThresholdController(initial=threshold)
    c.prev_total_stall = 1000
    c.prev_direction = 1
    for s in step_scores:
        c.observe_score(s)
    return c


def test_threshold_repeats_direction_on_improvement():
    c = make_controller()
    c.end_quantum(900)   # stall went down; keep going up
    assert c.threshold == pytest.approx(20.0)
    assert c.prev_direction == 1


def test_threshold_reverses_on_regression():
    c = make_controller()
    c.end_quantum(1100)  # stall went up; reverse
    assert c.threshold == pytest.approx(0.0)
    assert c.prev_direction == -1


def test_threshold_clamps_at_zero():
    c = ThresholdController(initial=0.0)
    c.prev_total_stall = 1000
    c.prev_direction = -1
    c.observe_score(160.0)
    c.end_quantum(900)   # keep moving down, but clamp
    assert c.threshold == 0.0


def test_threshold_one_step_per_quantum():
    c = ThresholdController()
    random.seed(0)
    prev = c.threshold
    for q in range(50):
        for _ in range(10):
            c.observe_score(random.uniform(1, 100))
        c.end_quantum(random.randrange(1000, 2000))
        assert c.threshold >= 0.0
        assert abs(c.threshold - prev) <= c.step + 1e-12
        prev = c.threshold


def test_threshold_step_is_mean_over_16():
    c = ThresholdController()
    c.observe_score(32.0)
    c.observe_score(64.0)
    c.end_quantum(100)
    assert c.step == pytest.approx(48.0 / 16)


# -- saturation ---------------------------------------------------------------

def test_miss_counters_saturate():
    e = PageStats(0, 0)
    for _ in range(ACCESS_COUNT_MAX + 50):
        e.count_issue(READ, True)   # a row hit counts no miss
    assert e.access_count == ACCESS_COUNT_MAX
    assert e.read_misses == e.write_misses == 0
    for _ in range(MISS_COUNT_MAX + 50):
        e.count_issue(READ, False)
    assert e.read_misses == MISS_COUNT_MAX and e.write_misses == 0
    for _ in range(MISS_COUNT_MAX + 50):
        e.count_issue(WRITE, False)
    assert e.write_misses == MISS_COUNT_MAX and e.access_count == ACCESS_COUNT_MAX


def test_weights_saturate():
    e = PageStats(0, 0)
    e.add_samples(0, MLP_WEIGHT_MAX + 100, 0, 0)
    assert e.weight_read == MLP_WEIGHT_MAX


def _set_scan(store, page):
    """The page's entries found by scanning its set, in set (LRU) order."""
    return [e for e in store.sets[page % store.num_sets] if e.page_id == page]


_EVEN_PAGES = st.sampled_from(range(0, 20, 2))


@given(st.lists(st.one_of(
    st.tuples(st.just("get"), _EVEN_PAGES, st.integers(0, 2)),
    st.tuples(st.just("invalidate"), _EVEN_PAGES)), max_size=80))
def test_page_index_matches_a_scan_of_the_set(ops):
    # Four sets of three ways, of which the ten even pages shared by three
    # apps reach two: entries are refreshed, evicted from full sets and
    # invalidated.
    store = StatStore(sets=4, ways=3)
    for op in ops:
        if op[0] == "get":
            entry = store.get_or_alloc(op[1], op[2])
            assert (entry.page_id, entry.app_id) == op[1:]
        else:
            store.invalidate_page(op[1])
            assert store.entries_for_page(op[1]) == []
        for page in range(0, 20, 2):
            assert store.entries_for_page(page) == _set_scan(store, page)
    assert all(len(s) <= 3 for s in store.sets)
    # A set gets a dict of its own at its first entry, and keeps it.
    touched = {op[1] % 4 for op in ops if op[0] == "get"}
    assert [s is not EMPTY_SET for s in store.sets] == [i in touched for i in range(4)]
    assert len({id(s) for s in store.sets if s is not EMPTY_SET}) == len(touched)


def _counters(e):
    return (e.access_count, e.read_misses, e.write_misses)


_STORE_PAGES = st.integers(0, 11)


@given(st.lists(st.one_of(
    st.tuples(st.just("get"), _STORE_PAGES, st.integers(0, 2),
              st.sampled_from([READ, WRITE]), st.booleans()),
    st.tuples(st.just("invalidate"), _STORE_PAGES),
    st.tuples(st.just("halve"))), max_size=100))
def test_stat_store_matches_a_per_set_lru_list(ops):
    # The reference keeps each set as a list of [page, app, accesses,
    # read misses, write misses], least recently used first: a hit moves
    # its entry to the end, an allocation into a full set evicts the head.
    store = StatStore(sets=3, ways=3)
    model = [[] for _ in range(3)]
    evictions = 0
    for op in ops:
        if op[0] == "get":
            _, page, app, kind, hit = op
            lru = model[page % 3]
            row = next((r for r in lru if r[:2] == [page, app]), None)
            victim = None
            if row is None:
                if len(lru) == 3:
                    victim = lru.pop(0)
                    evictions += 1
                row = [page, app, 0, 0, 0]
            else:
                lru.remove(row)
            lru.append(row)
            entry = store.get_or_alloc(page, app)
            assert (entry.page_id, entry.app_id) == (page, app)
            if victim is not None:
                assert victim[1] not in [e.app_id for e in
                                         store.entries_for_page(victim[0])]
            entry.count_issue(kind, hit)
            row[2] += 1
            row[3 if kind == READ else 4] += not hit
        elif op[0] == "invalidate":
            lru = model[op[1] % 3]
            lru[:] = [r for r in lru if r[0] != op[1]]
            store.invalidate_page(op[1])
        else:
            for r in (r for lru in model for r in lru):
                r[2:] = [c >> 1 for c in r[2:]]
            store.halve_all()
        assert store.evictions == evictions
        assert [[[e.page_id, e.app_id, *_counters(e)] for e in s]
                for s in store.sets] == model
        for page in range(12):
            assert [[e.page_id, e.app_id, *_counters(e)]
                    for e in store.entries_for_page(page)] == [
                r for r in model[page % 3] if r[0] == page]
    assert [[e.page_id, e.app_id] for e in store.iter_entries()] == [
        r[:2] for lru in model for r in lru]


def test_stat_store_capacity():
    store = StatStore()
    assert len(store.sets) == 64
    for p in range(5000):
        store.get_or_alloc(p, p % 3)
    assert all(len(s) == 32 for s in store.sets)   # 2048 entries, every set full
    assert store.evictions == 5000 - 2048


# -- Taylor expansion of the speedup change -----------------------------------

def test_taylor_linearization_accuracy():
    # Sensitivity is the first-order speedup gain per cycle of stall saved.
    rng = random.Random(1234)
    worst = 0.0
    for _ in range(1000):
        t_shared = rng.uniform(100.0, 1e7)
        t_alone = rng.uniform(0.1, 1.0) * t_shared
        dt = rng.uniform(1e-6, 0.01) * t_shared
        exact = t_alone / (t_shared - dt) - t_alone / t_shared
        approx = sensitivity(t_alone / t_shared, t_shared) * dt
        rel = abs(approx - exact) / exact
        worst = max(worst, rel)
    assert worst <= 0.02


# -- properties ----------------------------------------------------------------

@given(st.lists(
    st.tuples(st.integers(1, 32), st.integers(0, 31)).map(lambda t: (t[0], t[0] + t[1])),
    min_size=1, max_size=200))
def test_avg_ratio_bounded_by_one(samples):
    # m <= N for every sample: a page's outstanding requests are a subset of
    # its application's.
    e = entry(samples_read=samples)
    r, _ = avg_mlp_ratio(e)
    assert 0.0 < r <= 1.0 + ULP


@given(st.integers(0, 255), st.integers(0, 255),
       st.floats(0.001, 1.0), st.floats(0.001, 1.0))
def test_stall_reduction_monotone(read_misses, write_misses, r_read, r_write):
    def make(rm, wm, rr, rw):
        e = PageStats(0, 0)
        e.read_misses = rm
        e.write_misses = wm
        e.acc_read = int(rr * MLP_ONE)
        e.weight_read = 1
        e.acc_write = int(rw * MLP_ONE)
        e.weight_write = 1
        return page_stall_reduction((e,), BASELINE_GAPS)

    base = make(read_misses, write_misses, r_read, r_write)
    assert make(min(255, read_misses + 1), write_misses, r_read, r_write) >= base
    assert make(read_misses, min(255, write_misses + 1), r_read, r_write) >= base
    assert make(read_misses, write_misses, min(1.0, r_read + 0.01), r_write) >= base - 1e-9
