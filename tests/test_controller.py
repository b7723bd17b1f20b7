from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from hybridmem.controller import (
    BLOCK_BITS, ChannelController, ControllerConfig, MemRequest, SYSTEM_APP,
)
from hybridmem.device import (
    DeviceGeometry, NVM_BASELINE, READ, WRITE, ROW_HIT, ROW_MISS, EnergyMeter,
    service_latency,
)

GEO = DeviceGeometry(64 << 20)


def make_controller(**cfg):
    config = ControllerConfig(**cfg)
    energy = EnergyMeter(NVM_BASELINE, GEO)
    return ChannelController(NVM_BASELINE, GEO, config, energy)


def req(req_id, page, kind=READ, app=0, demand=True):
    return MemRequest(req_id, app, page, kind, is_demand=demand)


def _served(c, r, cycle=0):
    assert c.enqueue(r, cycle)
    assert c.try_issue(cycle) is r
    return r


def test_request_to_the_open_row_is_a_hit():
    c = make_controller()
    c.banks[7].open_for(7, app_id=0)    # page 7 maps to bank 7
    assert _served(c, req(1, 7)).outcome == ROW_HIT


def test_request_to_another_row_is_a_miss():
    c = make_controller()
    c.banks[7].open_for(7, app_id=0)
    assert _served(c, req(1, 15)).outcome == ROW_MISS   # bank 7, row 15


def test_request_to_a_closed_bank_is_a_miss():
    c = make_controller()
    assert c.banks[7].open_row is None
    assert _served(c, req(1, 7)).outcome == ROW_MISS


def test_same_row_back_to_back_hits():
    c = make_controller()
    first = _served(c, req(1, 12))
    assert first.outcome == ROW_MISS
    second = _served(c, req(2, 12), first.completion_cycle)
    assert second.outcome == ROW_HIT
    assert _served(c, req(3, 12), second.completion_cycle).outcome == ROW_HIT


def test_issued_blocks_add_their_access_energy_in_any_order():
    # The controller charges each block the meter's own per-access energy,
    # bit for bit, and the same accesses in another order sum the same.
    seq = [(READ, ROW_MISS), (WRITE, ROW_HIT), (READ, ROW_HIT), (WRITE, ROW_MISS)]
    totals = []
    for order in (seq, seq[::-1]):
        c = make_controller(opportunistic_writes=True)
        expected = 0.0
        for bank, (kind, outcome) in enumerate(order):
            if outcome == ROW_HIT:
                c.banks[bank].open_for(bank, app_id=0)
            assert _served(c, req(bank, bank, kind)).outcome == outcome
            expected += c.energy.access_pj(BLOCK_BITS, kind, outcome)
        assert c.energy.dynamic_pj == expected
        totals.append(expected)
    assert totals[0] == pytest.approx(totals[1])


def test_fr_fcfs_prefers_row_hit_over_older_miss():
    c = make_controller()
    c.banks[0].open_for(16, app_id=0)   # page 16 maps to bank 0, row open
    older_miss = req(1, 8)              # bank 0, different row
    newer_hit = req(2, 16)
    assert c.enqueue(older_miss, 5)
    assert c.enqueue(newer_hit, 9)
    winner = c.try_issue(10)
    assert winner is newer_hit
    assert winner.outcome == ROW_HIT


def test_fr_fcfs_fcfs_tiebreak_between_hits():
    c = make_controller()
    c.banks[0].open_for(8, app_id=0)
    a = req(1, 8)
    b = req(2, 8)
    c.enqueue(a, 5)
    c.enqueue(b, 9)
    assert c.try_issue(10) is a


def test_empty_queue_issues_nothing():
    c = make_controller()
    assert c.try_issue(0) is None


def test_one_issue_per_cycle_and_bank_busy():
    c = make_controller()
    a = req(1, 0)   # bank 0
    b = req(2, 1)   # bank 1
    c.enqueue(a, 0)
    c.enqueue(b, 0)
    assert c.try_issue(0) is a
    assert c.try_issue(0) is b      # second command slot modeled per call
    # Bank 0 is now busy until its service completes.
    c2 = req(3, 8)  # bank 0 again
    c.enqueue(c2, 1)
    assert c.try_issue(1) is None
    assert c.try_issue(a.completion_cycle) is c2


def test_completion_frees_queue_slot():
    c = make_controller(read_queue_capacity=2, migration_reserve_reads=1)
    a, b = req(1, 0), req(2, 1)
    assert c.enqueue(a, 0)
    assert not c.enqueue(b, 0)       # demand cap = capacity - reserve
    mig = req(3, 2, demand=False)
    assert c.enqueue(mig, 0)         # reserve slot admits migration traffic
    c.try_issue(0)
    assert not c.enqueue(req(4, 3, demand=False), 0)   # a holds its slot in service
    c.on_complete(a)
    c.on_complete(mig)
    assert c.enqueue(b, a.completion_cycle)


def test_drain_watermark_strictly_exceeds():
    c = make_controller(write_buffer_capacity=32, drain_high_watermark=0.75,
                        migration_reserve_writes=0)
    for i in range(24):
        assert c.enqueue(req(i, i, kind=WRITE), 0)
    assert not c.draining            # 24 == 0.75 * 32: not yet
    assert c.enqueue(req(99, 99, kind=WRITE), 0)
    assert c.draining                # 24 -> 25 crosses the watermark


def test_full_buffer_forces_drain_and_low_watermark_exits():
    c = make_controller(write_buffer_capacity=8, drain_high_watermark=0.8,
                        drain_low_watermark=0.25, migration_reserve_writes=0)
    writes = [req(i, i, kind=WRITE) for i in range(8)]
    for w in writes:
        assert c.enqueue(w, 0)
    assert c.draining
    # Draining prefers writes; completions below the low watermark stop it.
    t = 0
    while c.queues[WRITE].occupancy > 2:
        w = c.try_issue(t)
        if w is None:
            t += 1
            continue
        assert w.kind == WRITE
        c.on_complete(w)
        t = max(t, w.completion_cycle)
    assert not c.draining


def test_writes_not_issued_outside_drain_by_default():
    c = make_controller()
    c.enqueue(req(1, 0, kind=WRITE), 0)
    assert c.try_issue(0) is None
    c2 = make_controller(opportunistic_writes=True)
    c2.enqueue(req(1, 0, kind=WRITE), 0)
    assert c2.try_issue(0) is not None


def test_solo_app_has_zero_interference():
    c = make_controller()
    reqs = [req(i, i % 4, app=0) for i in range(10)]
    t = 0
    pending = list(reqs)
    for r in pending:
        c.enqueue(r, t)
    done = 0
    while done < len(reqs):
        w = c.try_issue(t)
        if w is not None:
            done += 1
        t += 1
    assert all(r.interference_delay == 0 for r in reqs)


def test_same_app_blocking_excluded():
    c = make_controller()
    a = req(1, 0, app=3)
    b = req(2, 8, app=3)   # same bank, same app
    c.enqueue(a, 0)
    c.enqueue(b, 0)
    c.try_issue(0)
    assert c.try_issue(a.completion_cycle) is b
    assert b.interference_delay == 0


def test_bank_conflict_blamed_on_other_app():
    c = make_controller()
    a = req(1, 0, app=0)
    b = req(2, 8, app=1)   # same bank, other app
    c.enqueue(a, 0)
    c.enqueue(b, 0)
    c.try_issue(0)
    c.try_issue(a.completion_cycle)
    # b waited out a's whole service on the bank.
    assert b.interference_delay >= a.completion_cycle - 1


def test_system_traffic_not_charged():
    c = make_controller()
    mig = req(1, 0, app=SYSTEM_APP, demand=False)
    b = req(2, 8, app=1)
    c.enqueue(mig, 0)
    c.enqueue(b, 0)
    c.try_issue(0)
    c.try_issue(mig.completion_cycle)
    assert b.interference_delay == 0


def test_row_conversion_penalty():
    c = make_controller()
    c.banks[0].open_for(16, app_id=1)    # row 16 open on bank 0
    victim = req(1, 16, app=1)           # would hit
    closer = req(2, 8, app=2)            # other app closes the row
    c.enqueue(closer, 0)
    c.enqueue(victim, 0)
    w1 = c.try_issue(0)                  # closer is older; both miss/hit?
    # closer misses (row 16 open, wants row 8): victim is the row hit and
    # wins FR-FCFS, so force the order: issue closer first by aging.
    assert w1 is victim                  # row hit wins first
    assert victim.interference_delay == 0

    # Now the conversion case: arrange arrival so the miss issues first.
    c2 = make_controller()
    c2.banks[0].open_for(16, app_id=1)
    closer = req(1, 8, app=2)
    c2.enqueue(closer, 0)
    w = c2.try_issue(0)
    assert w is closer
    victim = req(2, 16, app=1)           # arrives while row 16 still open?
    # Row already switched by the activation of row 8: arrival sees a miss,
    # so no conversion is recorded.
    c2.enqueue(victim, 1)
    assert victim.snap_opens == -1       # no would-hit snapshot

    c3 = make_controller()
    c3.banks[0].open_for(16, app_id=1)
    victim = req(1, 16, app=1)
    c3.enqueue(victim, 0)                # would-hit snapshot taken
    closer = req(2, 8, app=2)
    c3.enqueue(closer, 0)
    # Make the bank busy with the closer first despite FR-FCFS by issuing
    # at a cycle where only the closer is eligible: simulate by directly
    # servicing the closer.
    c3.queues[READ].wait[0].remove(victim)
    w = c3.try_issue(0)
    assert w is closer
    c3.queues[READ].wait[0] = [victim]   # closer's issue emptied bank 0's list
    w2 = c3.try_issue(closer.completion_cycle)
    assert w2 is victim
    assert victim.outcome == ROW_MISS
    extra = (service_latency(NVM_BASELINE, READ, ROW_MISS)
             - service_latency(NVM_BASELINE, READ, ROW_HIT))
    assert victim.interference_delay >= extra


def test_lost_arbitration_slot_counted():
    c = make_controller()
    a = req(1, 0, app=0)   # bank 0
    b = req(2, 1, app=1)   # bank 1, both bank-ready
    c.enqueue(a, 0)
    c.enqueue(b, 0)
    w = c.try_issue(0)
    assert w is a          # older
    assert b.interference_delay == 1


def test_next_cycle_flag_needs_a_ready_request_on_another_bank():
    c = make_controller()
    assert c.try_issue(0) is None and not c.may_issue
    a, b = req(1, 0), req(2, 1)        # banks 0 and 1
    c.enqueue(a, 0)
    c.enqueue(b, 0)
    assert c.try_issue(0) is a
    assert c.may_issue                 # b's bank was ready too
    assert c.try_issue(1) is b
    assert not c.may_issue             # b was the only ready request
    d, e = req(3, 2), req(4, 10)       # both on bank 2
    c.enqueue(d, 2)
    c.enqueue(e, 2)
    assert c.try_issue(2) is d
    assert not c.may_issue             # e waits for d's bank to free


def test_issue_flag_set_only_when_a_request_may_issue():
    c = make_controller()
    a, b = req(1, 0), req(2, 8)          # both on bank 0
    c.enqueue(a, 0)
    assert c.may_issue                   # bank 0 was free
    assert c.try_issue(0) is a and not c.may_issue
    c.enqueue(b, 1)
    assert not c.may_issue               # bank 0 is busy with a
    c.on_complete(a)                     # bank 0 frees with b waiting
    assert c.may_issue
    assert c.try_issue(a.completion_cycle) is b


def test_write_starting_a_drain_sets_the_issue_flag():
    c = make_controller()                # a drain starts above 24 writes
    c.enqueue(req(1, 0), 0)
    assert c.try_issue(0) is not None    # bank 0 is busy from here on
    for i in range(24):                  # banks 1-7, free but writes wait
        assert c.enqueue(req(i + 2, 8 * i + 1 + i % 7, kind=WRITE), 1)
    assert not c.may_issue and not c.draining
    assert c.enqueue(req(30, 8, kind=WRITE), 1)   # onto busy bank 0
    assert c.draining and c.may_issue
    assert c.try_issue(1).kind == WRITE


def test_deterministic_schedule():
    def run_once():
        c = make_controller()
        order = []
        reqs = [req(i, p, app=i % 2) for i, p in enumerate([0, 8, 1, 9, 2, 3])]
        for i, r in enumerate(reqs):
            c.enqueue(r, i // 2)
        t = 0
        while len(order) < len(reqs):
            w = c.try_issue(t)
            if w is not None:
                order.append(w.id)
            t += 1
        return order

    assert run_once() == run_once()


def test_config_validation():
    with pytest.raises(ValueError):
        ControllerConfig(drain_high_watermark=0.2, drain_low_watermark=0.5)
    with pytest.raises(ValueError):
        ControllerConfig(read_queue_capacity=0)
    with pytest.raises(ValueError):
        ControllerConfig(migration_reserve_reads=64)


def test_zero_cycle_service_latency_is_rejected():
    # A bank must stay busy past its issue cycle: the simulator's service
    # phase relies on every bank freeing at a later completion event.
    fast = replace(NVM_BASELINE, name="fast", t_cl_ns=0.5)
    with pytest.raises(ValueError, match="fast: a service latency rounds to 0"):
        ChannelController(fast, GEO, ControllerConfig(), EnergyMeter(fast, GEO))


def test_write_buffer_too_small_to_start_a_drain_is_rejected():
    # 8 - 2 reserved slots = 6 demand slots, and a drain starts above 6.
    with pytest.raises(ValueError, match="write buffer of 8 with 2 slots reserved"):
        ControllerConfig(write_buffer_capacity=8)
    ControllerConfig(write_buffer_capacity=9)
    ControllerConfig(write_buffer_capacity=8, migration_reserve_writes=1)


# A controller run is a list of steps: enqueue a request (page, kind, whether
# it is demand traffic, and its application if so), try to issue at the
# current cycle, or complete the request in service that finishes first,
# which moves the clock to its completion.
_ENQUEUE, _ISSUE, _COMPLETE = range(3)
_steps = st.lists(st.one_of(
    st.tuples(st.just(_ENQUEUE), st.integers(0, 40), st.sampled_from([READ, WRITE]),
              st.booleans(), st.sampled_from([0, 1])),
    st.tuples(st.just(_ISSUE)),
    st.tuples(st.just(_COMPLETE))), max_size=150)


@given(steps=_steps, opportunistic=st.booleans())
def test_queue_state_by_kind_matches_the_requests_it_holds(steps, opportunistic):
    capacity = {READ: (6, 2), WRITE: (8, 1)}   # (capacity, migration reserve)
    c = make_controller(read_queue_capacity=6, migration_reserve_reads=2,
                        write_buffer_capacity=8, migration_reserve_writes=1,
                        opportunistic_writes=opportunistic)
    in_service = []
    cycle = 0
    for i, step in enumerate(steps):
        if step[0] == _ENQUEUE:
            _, page, kind, demand, app = step
            r = req(i, page, kind, app if demand else SYSTEM_APP, demand)
            cap, reserve = capacity[kind]
            space = c.queues[kind].occupancy < (cap - reserve if demand else cap)
            assert c.enqueue(r, cycle) == space
        elif step[0] == _ISSUE:
            r = c.try_issue(cycle)
            if r is not None:
                in_service.append(r)
        elif in_service:
            r = min(in_service, key=lambda r: (r.completion_cycle, r.id))
            in_service.remove(r)
            cycle = max(cycle, r.completion_cycle)
            c.on_complete(r)
        for kind, queue in zip((READ, WRITE), c.queues):
            held = [(b, r) for b, q in queue.wait.items() for r in q]
            assert all(queue.wait.values())   # only banks with waiting requests
            assert queue.occupancy == len(held) + sum(r.kind == kind
                                                      for r in in_service)
            assert all(r.bank_id == b == r.page_id % GEO.banks for b, r in held)
            assert queue.occupancy <= capacity[kind][0]
