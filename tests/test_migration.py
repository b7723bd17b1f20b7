"""Unit tests of the DRAM tag store and the migration engine's promotion
queue, and of the engine's block hand-off against a reference engine."""

from collections import OrderedDict

import pytest
from hypothesis import given, strategies as st

from hybridmem import simulator
from hybridmem.device import READ, DeviceGeometry
from hybridmem.migration import EMPTY_SET, IN_BUFFER, IN_DST, MigrationEngine, TagStore
from hybridmem.simulator import SimConfig, Simulation
from hybridmem.trace import Trace, TraceHeader

from test_simulator import _FUZZ, _SPREAD, _fuzz_case, _spread_case, _state_digest

# A 4-way store of two sets: pages 0, 2, 4, 6 and 8 all map to set 0.
SET0 = (0, 2, 4, 6)


def _preloaded(*pages) -> TagStore:
    tag = TagStore(8, 4)
    for page in pages:
        tag.reserve(page)
        tag.finalize(page)
    return tag


def _lru_order(tag: TagStore, page: int) -> list:
    """Empty `page`'s set by evicting its LRU page each time; the pages in order."""
    order = []
    while (victim := tag.lru_victim(page)) is not None:
        order.append(victim)
        tag.remove(victim)
    return order


def test_touch_makes_a_page_most_recently_used():
    tag = _preloaded(*SET0)
    assert tag.lru_victim(8) == 0
    tag.touch(0)
    tag.touch(4)
    assert _lru_order(tag, 8) == [2, 6, 0, 4]


def test_touch_of_a_page_not_resident_changes_nothing():
    tag = _preloaded(0, 2)
    tag.reserve(4)
    tag.touch(4)
    tag.touch(6)
    assert not tag.resident(4) and not tag.resident(6)
    assert _lru_order(tag, 0) == [0, 2]


def test_lru_victim_skips_reserved_ways():
    tag = TagStore(8, 4)
    tag.reserve(0)
    tag.reserve(2)
    tag.finalize(2)
    assert tag.lru_victim(4) == 2
    for page in (4, 6):
        tag.reserve(page)
    assert tag.lru_victim(4) == 2
    tag.remove(2)
    assert tag.lru_victim(4) is None   # every way reserved


def test_has_free_way_counts_reserved_ways():
    tag = _preloaded(0)
    tag.reserve(2)
    tag.reserve(4)
    assert tag.has_free_way(6)
    tag.reserve(6)
    assert not tag.has_free_way(8)
    assert tag.has_free_way(1)         # the other set is empty
    assert not any(tag.resident(p) for p in (2, 4, 6))


def test_preload_makes_its_page_resident_and_most_recently_used():
    tag = _preloaded(0, 2)
    tag.reserve(4)
    tag.touch(0)                       # while 4 is reserved
    tag.finalize(4)
    assert tag.resident(4)
    assert _lru_order(tag, 4) == [2, 0, 4]


def test_remove_frees_a_way():
    tag = _preloaded(*SET0)
    assert not tag.has_free_way(8)
    tag.remove(4)
    assert tag.has_free_way(8) and not tag.resident(4)
    assert _lru_order(tag, 8) == [0, 2, 6]


# Eight 2-way sets, and twelve pages that reach only sets 0-2, four per set.
_TAG_OPS = st.lists(st.tuples(
    st.sampled_from(["reserve", "finalize", "remove", "touch", "lru_victim",
                     "has_free_way", "resident"]),
    st.sampled_from([s + 8 * k for s in range(3) for k in range(4)])), max_size=60)


@given(_TAG_OPS)
def test_tag_store_matches_an_eager_reference(ops):
    # The reference gives every set its dict up front. A promotion reserves a
    # way only while its set has one free and lands only on a reserved way,
    # as `MigrationEngine` does; an op whose rule fails is skipped.
    tag = TagStore(16, 2)
    ref, reserved, landed = [OrderedDict() for _ in range(8)], [0] * 8, set()
    for op, page in ops:
        s, i = ref[page % 8], page % 8
        free = len(s) + reserved[i] < 2
        if op == "reserve":
            if not free or page in s:
                continue
            reserved[i] += 1
        elif op == "finalize":
            if not reserved[i] or page in s:
                continue
            reserved[i] -= 1
            s[page] = None
            landed.add(i)
        elif op == "remove":
            s.pop(page, None)
        elif op == "touch" and page in s:
            s.move_to_end(page)
        want = {"lru_victim": next(iter(s), None), "has_free_way": free,
                "resident": page in s}.get(op)
        assert getattr(tag, op)(page) == want
        assert [list(t) for t in tag._sets] == [list(r) for r in ref]
        assert tag._reserved == reserved
    # Only a set a page has landed in has a dict of its own; the rest,
    # sets 3-7 among them, are still the shared empty mapping.
    assert [s is not EMPTY_SET for s in tag._sets] == [i in landed for i in range(8)]
    assert len({id(s) for s in tag._sets if s is not EMPTY_SET}) == len(landed)


# -- promotion queue ---------------------------------------------------------------

def _idle_engine():
    """The engine of an unrun simulation with a 2-way tag store, whose one
    app issues nothing; pages `_same_set(i)` all map to one set."""
    idle = Trace(TraceHeader("idle", 10**9, 8192), [10**9 - 1], [0], [READ])
    sim = Simulation(SimConfig(measured_instructions=10**9, tag_associativity=2),
                     [idle])
    return sim.engine


def _same_set(i: int) -> int:
    return 7 + i * (DeviceGeometry(512 << 20).pages // 2)


def test_request_promotion_of_a_pending_page_is_refused_and_not_dropped():
    # Two promotions take both ways of the set, so the third waits.
    engine = _idle_engine()
    for i in range(3):
        assert engine.request_promotion(_same_set(i), cycle=0)
    assert list(engine.pending) == [_same_set(2)]
    assert not engine.request_promotion(_same_set(2), cycle=0)
    assert list(engine.pending) == [_same_set(2)] and engine.dropped == 0


def test_a_ninth_pending_promotion_is_dropped():
    engine = _idle_engine()
    for i in range(10):
        assert engine.request_promotion(_same_set(i), cycle=0)
    assert len(engine.jobs) == 2 and len(engine.pending) == 8
    assert engine.dropped == 0
    assert not engine.request_promotion(_same_set(10), cycle=0)
    assert engine.dropped == 1 and len(engine.pending) == 8


# -- block hand-off ------------------------------------------------------------------

class _ReferenceEngine(MigrationEngine):
    """The engine without the block hand-off or the re-pump gate: each
    finished block goes through `pump_job`, and `pump` re-pumps every
    stopped job."""

    def pump(self, cycle):
        for job in self.jobs:
            if job.blocked:
                self.pump_job(job, cycle)

    def finish_block_read(self, job, block, cycle):
        job.block_state[block] = IN_BUFFER
        job.pending_writes.append(block)
        self.pump_job(job, cycle)

    def finish_block_write(self, job, block, cycle):
        job.block_state[block] = IN_DST
        job.writes_done += 1
        job.inflight -= 1
        if job.writes_done == job.blocks:
            self._finish_move(job, cycle)
        else:
            self.pump_job(job, cycle)


# Every spread case and fuzz case that migrates.
_MIGRATING = ([case for case, (fields, _) in _SPREAD.items()
               if fields.get("migration_enabled", True)]
              + [seed for seed in _FUZZ if _fuzz_case(seed)[0].migration_enabled])


@pytest.mark.parametrize("case", _MIGRATING,
                         ids=lambda case: case if case in _SPREAD else f"fuzz-{case}")
def test_block_hand_off_runs_as_the_reference_engine(case, monkeypatch):
    config, traces = _spread_case(case) if case in _SPREAD else _fuzz_case(case)
    digest = _state_digest(Simulation(config, traces).run())
    monkeypatch.setattr(simulator, "MigrationEngine", _ReferenceEngine)
    reference = Simulation(config, traces).run()
    assert type(reference.engine) is _ReferenceEngine
    assert reference.engine.traffic_bytes > 0
    assert _state_digest(reference) == digest
