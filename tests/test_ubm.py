import random

import pytest
from hypothesis import given, strategies as st

from hybridmem.device import DRAM_BASELINE, NVM_BASELINE
from hybridmem.policies import UtilityPolicy
from hybridmem.ubm import (
    HotPageCounters, MISS_COUNT_MAX, MLP_ONE, MLP_WEIGHT_MAX, PageStats,
    StatStore, ThresholdController, avg_mlp_ratio, estimate_speedup,
    gap_stall_reduction, latency_gaps, mlp_quotient, quantize_speedup,
    sensitivity,
)

ULP = 1.0 / MLP_ONE  # one unit of the 10-fractional-bit grid
BASELINE_GAPS = latency_gaps(DRAM_BASELINE, NVM_BASELINE)


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

def test_sample_full_overlap():
    hot = HotPageCounters()
    hot.on_inject(5, 0, False)
    hot.on_inject(5, 0, False)
    hot.sample([2], [0])  # m_read=2, N_read=2
    e = hot.entries[(5, 0)]
    assert e[2] == MLP_ONE          # += 1.0
    assert e[4] == 2                # += m


def test_sample_quarter_ratio():
    hot = HotPageCounters()
    hot.on_inject(5, 0, False)
    hot.sample([4], [0])  # m_read=1, N_read=4
    e = hot.entries[(5, 0)]
    assert e[2] == MLP_ONE // 4     # += 0.25 exactly
    assert e[4] == 1


def test_sample_zero_outstanding_no_update():
    hot = HotPageCounters()
    hot.on_inject(5, 0, True)       # one write, zero reads
    hot.sample([3], [1])
    e = hot.entries[(5, 0)]
    assert e[2] == 0 and e[4] == 0  # read side untouched
    assert e[3] == MLP_ONE and e[5] == 1


def test_sample_batched_equals_repeated():
    a, b = HotPageCounters(), HotPageCounters()
    for h in (a, b):
        h.on_inject(1, 0, False)
        h.on_inject(2, 0, False)
    for _ in range(7):
        a.sample([2], [0])
    b.sample([2], [0], count=7)
    assert a.entries == b.entries


def test_mlp_quotient_grid():
    assert mlp_quotient(1, 1) == MLP_ONE
    assert mlp_quotient(1, 3) == round(MLP_ONE / 3)
    assert abs(mlp_quotient(7, 9) / MLP_ONE - 7 / 9) <= ULP


# -- folding into the stat store ----------------------------------------------

def test_fold_adds_and_resets():
    hot = HotPageCounters()
    store = StatStore()
    hot.on_inject(9, 1, False)
    hot.sample([0, 1], [0, 0])   # app 1: ratio 1.0, weight 1
    assert hot.on_complete(9, 1, False, store) is not None
    assert (9, 1) not in hot.entries
    [e] = store.entries_for_page(9)
    assert e.app_id == 1
    assert e.acc_read == MLP_ONE and e.weight_read == 1


def test_fold_keeps_entry_while_outstanding():
    hot = HotPageCounters()
    store = StatStore()
    hot.on_inject(9, 1, False)
    hot.on_inject(9, 1, False)
    assert hot.on_complete(9, 1, False, store) is None
    assert (9, 1) in hot.entries


def test_fold_with_zero_temporaries_allocates_but_adds_nothing():
    hot = HotPageCounters()
    store = StatStore()
    hot.on_inject(9, 1, False)
    hot.on_complete(9, 1, False, store)  # never sampled
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
    assert gap_stall_reduction(e, BASELINE_GAPS) == pytest.approx(280.0)


def test_stall_reduction_zero_misses():
    e = entry(samples_read=[(1, 1)], samples_write=[(1, 1)])
    assert gap_stall_reduction(e, BASELINE_GAPS) == 0.0


def test_stall_reduction_linear_in_ratio():
    full = entry(read_misses=10, samples_read=[(1, 1)])
    half = entry(read_misses=10, samples_read=[(1, 2)])
    assert gap_stall_reduction(half, BASELINE_GAPS) == pytest.approx(
        gap_stall_reduction(full, BASELINE_GAPS) / 2, rel=1e-9)


def test_stall_reduction_write_term_uses_recovery_time():
    e = entry(write_misses=4, samples_write=[(1, 1)])
    # (15+67.5+15+180) - (15+15+15+15) = 217.5 ns = 116 cycles per miss
    assert gap_stall_reduction(e, BASELINE_GAPS) == pytest.approx(4 * 116.0)


class _ScoreContext:
    """The two things a policy reads from the simulation when it scores."""

    latency_gaps = (100, 100)

    def __init__(self, sens):
        self.sens = sens

    def sensitivity(self, app_id):
        return self.sens[app_id]


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
    for _ in range(MISS_COUNT_MAX + 50):
        e.count_miss(False)
    assert e.read_misses == MISS_COUNT_MAX


def test_weights_saturate():
    e = PageStats(0, 0)
    e.add_samples(0, MLP_WEIGHT_MAX + 100, 0, 0)
    assert e.weight_read == MLP_WEIGHT_MAX


def _set_scan(store, page):
    """The page's entries found by scanning its set, in set (LRU) order."""
    return [e for (p, _a), e in store.sets[page % store.num_sets].items() if p == page]


@given(st.lists(st.one_of(
    st.tuples(st.just("get"), st.integers(0, 9), st.integers(0, 2)),
    st.tuples(st.just("invalidate"), st.integers(0, 9))), max_size=80))
def test_page_index_matches_a_scan_of_the_set(ops):
    # Two sets of three ways over ten pages shared by three apps: entries
    # are refreshed, evicted from full sets and invalidated.
    store = StatStore(sets=2, ways=3)
    for op in ops:
        if op[0] == "get":
            entry = store.get_or_alloc(op[1], op[2])
            assert (entry.page_id, entry.app_id) == op[1:]
        else:
            store.invalidate_page(op[1])
            assert store.entries_for_page(op[1]) == []
        for page in range(10):
            assert store.entries_for_page(page) == _set_scan(store, page)
    assert all(len(s) <= 3 for s in store.sets)


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
        return gap_stall_reduction(e, BASELINE_GAPS)

    base = make(read_misses, write_misses, r_read, r_write)
    assert make(min(255, read_misses + 1), write_misses, r_read, r_write) >= base
    assert make(read_misses, min(255, write_misses + 1), r_read, r_write) >= base
    assert make(read_misses, write_misses, min(1.0, r_read + 0.01), r_write) >= base - 1e-9
