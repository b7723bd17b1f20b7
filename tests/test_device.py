import math

import pytest
from hypothesis import given, strategies as st

from hybridmem.device import (
    DRAM_BASELINE, NVM_BASELINE, SYSTEM_APP, Bank, DevTiming, DeviceGeometry,
    EnergyMeter, READ, WRITE, ROW_HIT, ROW_MISS, classify_access, load_timing,
    service_latency,
)


def test_classify_open_row_hit():
    bank = Bank()
    bank.open_for(7, app_id=0)
    assert classify_access(bank, 7) == ROW_HIT


def test_classify_other_row_miss():
    bank = Bank()
    bank.open_for(7, app_id=0)
    assert classify_access(bank, 9) == ROW_MISS


def test_classify_closed_row_miss():
    bank = Bank()
    assert bank.open_row is None
    assert classify_access(bank, 7) == ROW_MISS


def test_dram_read_miss_latency_cycles():
    # 15 + 15 + 15 ns at 1.875 ns/cycle
    assert service_latency(DRAM_BASELINE, READ, ROW_MISS) == 24


def test_nvm_read_miss_latency_cycles():
    # 15 + 67.5 + 15 ns
    assert service_latency(NVM_BASELINE, READ, ROW_MISS) == 52


def test_row_hit_read_latency_equal_across_devices():
    assert (service_latency(DRAM_BASELINE, READ, ROW_HIT)
            == service_latency(NVM_BASELINE, READ, ROW_HIT) == 8)


def test_nvm_miss_strictly_slower_than_dram():
    for kind in (READ, WRITE):
        assert (service_latency(NVM_BASELINE, kind, ROW_MISS)
                > service_latency(DRAM_BASELINE, kind, ROW_MISS))


def test_write_carries_recovery_time():
    # Array restore holds the bank for t_WR past the column access.
    dram_wr = service_latency(DRAM_BASELINE, WRITE, ROW_MISS)
    assert dram_wr == 24 + 8            # miss path + 15 ns restore
    nvm_wr = service_latency(NVM_BASELINE, WRITE, ROW_MISS)
    assert nvm_wr == 52 + 96            # 180 ns restore dominates


def test_timing_preset_invariants():
    assert NVM_BASELINE.t_rcd_ns > DRAM_BASELINE.t_rcd_ns
    assert NVM_BASELINE.t_wr_ns > DRAM_BASELINE.t_wr_ns


def test_scaled_multipliers():
    t = NVM_BASELINE.scaled(t_rcd_mult=2.0, t_wr_mult=0.5)
    assert t.t_rcd_ns == 135.0
    assert t.t_wr_ns == 90.0
    assert t.t_cl_ns == NVM_BASELINE.t_cl_ns
    assert t.name == "nvm-baselinex2/0.5"


def test_unit_multipliers_keep_the_timing():
    assert NVM_BASELINE.scaled(1.0, 1.0) is NVM_BASELINE


def test_timing_rejects_nonpositive_fields():
    with pytest.raises(ValueError):
        DevTiming("bad", 1.875, 15, 0, 15, 15, 1, 1, 1, 1, 21)


def test_energy_nvm_write_miss():
    m = EnergyMeter(NVM_BASELINE, DeviceGeometry(1 << 20))
    m.account(512, WRITE, ROW_MISS)
    assert m.dynamic_pj == pytest.approx(512 * (16.82 + 1.02))


def test_energy_dram_read_hit():
    m = EnergyMeter(DRAM_BASELINE, DeviceGeometry(1 << 20))
    m.account(512, READ, ROW_HIT)
    assert m.dynamic_pj == pytest.approx(512 * 0.93)


def test_standby_energy_zero_elapsed():
    m = EnergyMeter(DRAM_BASELINE, DeviceGeometry(1 << 20))
    assert m.standby_joules(0) == 0.0


def test_standby_energy_scales_with_capacity_and_time():
    m = EnergyMeter(DRAM_BASELINE, DeviceGeometry(1 << 20))
    one = m.standby_joules(1000)
    assert one == pytest.approx((1 << 23) * 21e-6 * 1000 * 1.875e-9)
    assert m.standby_joules(2000) == pytest.approx(2 * one)


def test_energy_additive_and_bank_order_independent():
    # Same multiset of accesses in a different order yields the same total.
    seq = [(READ, ROW_MISS), (WRITE, ROW_HIT), (READ, ROW_HIT), (WRITE, ROW_MISS)]
    a = EnergyMeter(NVM_BASELINE, DeviceGeometry(1 << 20))
    b = EnergyMeter(NVM_BASELINE, DeviceGeometry(1 << 20))
    for kind, outcome in seq:
        a.account(512, kind, outcome)
    for kind, outcome in reversed(seq):
        b.account(512, kind, outcome)
    assert a.dynamic_pj == pytest.approx(b.dynamic_pj)


def test_same_row_back_to_back_hits():
    bank = Bank()
    assert classify_access(bank, 12) == ROW_MISS
    bank.open_for(12, app_id=0)
    assert classify_access(bank, 12) == ROW_HIT
    assert classify_access(bank, 12) == ROW_HIT


def test_bank_busy_until_monotone():
    bank = Bank()
    bank.occupy(0, 10, 24)
    assert bank.busy_until == 34
    with pytest.raises(AssertionError):
        bank.occupy(1, 0, 5)


def test_bank_busy_prefix_sums():
    bank = Bank()
    bank.occupy(0, 0, 10)
    bank.occupy(1, 10, 20)
    assert bank.busy_by_others(2, 30) == 30    # both apps' spans
    assert bank.busy_by_others(1, 30) == 10    # app 0's
    assert bank.busy_by_others(0, 30) == 20    # app 1's
    assert bank.busy_by_others(0, 15) == 5     # mid-span: the rest is taken off


# Spans follow each other as the controller issues them. Each is drawn as
# (gap after the previous span, length, owner, whether it opens a row, and
# query offsets from the previous span's end: before, inside and after it).
_spans = st.lists(st.tuples(st.integers(0, 20), st.integers(1, 30),
                            st.sampled_from([0, 1, 2, SYSTEM_APP]), st.booleans(),
                            st.lists(st.integers(0, 60), min_size=1, max_size=3)),
                  min_size=1, max_size=12)


@given(spans=_spans, observer=st.sampled_from([0, 1, 2]))
def test_bank_snapshots_match_a_sum_over_recorded_spans(spans, observer):
    bank = Bank()
    recorded = []   # (start, end, app)
    opened = []     # app of each row open
    end = 0
    for gap, length, app, opens_row, offsets in spans:
        prev_end, start = end, end + gap
        end = start + length
        bank.occupy(app, start, length)
        recorded.append((start, end, app))
        if opens_row:
            bank.open_for(start, app)
            opened.append(app)
        others = [(s, e) for s, e, a in recorded if a not in (observer, SYSTEM_APP)]
        for offset in offsets:
            cycle = prev_end + offset
            assert bank.busy_by_others(observer, cycle) == sum(
                max(0, min(cycle, e) - s) for s, e in others)
        assert bank.opens_by_others(observer) == sum(
            a not in (observer, SYSTEM_APP) for a in opened)


def test_geometry_validation():
    g = DeviceGeometry(512 << 20)
    assert g.pages == 65536
    with pytest.raises(ValueError):
        DeviceGeometry(8192 + 1)  # not a whole number of rows
    DeviceGeometry(8 * 8192)      # one row in each of the 8 banks
    with pytest.raises(ValueError):
        DeviceGeometry(4 * 8192)  # rows that do not fill every bank


def test_builtin_presets_by_name():
    assert load_timing("dram-baseline") is DRAM_BASELINE
    assert load_timing("nvm-baseline") is NVM_BASELINE


def test_preset_file_round_trip(tmp_path):
    path = tmp_path / "custom.cfg"
    path.write_text(
        "name = custom\n"
        "clock_period = 1.875\n"
        "t_cl = 15\n"
        "t_rcd = 30   # twice dram\n"
        "t_rp = 15\n"
        "t_wr = 45\n"
        "array_read_energy = 2.0\n"
        "array_write_energy = 8.0\n"
        "rb_read_energy = 0.93\n"
        "rb_write_energy = 1.02\n"
        "standby_power = 21\n"
    )
    t = load_timing(path)
    assert t.name == "custom"
    assert t.t_rcd_ns == 30.0
    assert service_latency(t, READ, ROW_MISS) == DRAM_BASELINE.cycles(60.0)


def test_preset_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("t_cl = 15\nbogus_key = 3\n")
    with pytest.raises(ValueError, match="unknown key"):
        load_timing(bad)
    partial = tmp_path / "partial.cfg"
    partial.write_text("t_cl = 15\n")
    with pytest.raises(ValueError, match="missing keys"):
        load_timing(partial)
