import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from hybridmem.device import (
    DRAM_BASELINE, NVM_BASELINE, SYSTEM_APP, Bank, DevTiming, DeviceGeometry,
    EnergyMeter, READ, WRITE, ROW_HIT, ROW_MISS, load_timing, service_latency,
)


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


@pytest.mark.parametrize("t_rcd_ns", [-15, float("inf"), float("nan")])
def test_timing_rejects_a_field_that_is_not_finite_and_positive(t_rcd_ns):
    # An infinite latency used to pass, then overflow in `cycles`.
    with pytest.raises(ValueError, match="^t_rcd_ns must be finite and > 0, got "):
        DevTiming("bad", 1.875, 15, t_rcd_ns, 15, 15, 1, 1, 1, 1, 21)


def test_energy_nvm_write_miss():
    m = EnergyMeter(NVM_BASELINE, DeviceGeometry(1 << 20))
    assert m.access_pj(512, WRITE, ROW_MISS) == pytest.approx(512 * (16.82 + 1.02))


def test_energy_dram_read_hit():
    m = EnergyMeter(DRAM_BASELINE, DeviceGeometry(1 << 20))
    assert m.access_pj(512, READ, ROW_HIT) == pytest.approx(512 * 0.93)


def test_standby_energy_zero_elapsed():
    m = EnergyMeter(DRAM_BASELINE, DeviceGeometry(1 << 20))
    assert m.standby_joules(0) == 0.0


def test_standby_energy_scales_with_capacity_and_time():
    m = EnergyMeter(DRAM_BASELINE, DeviceGeometry(1 << 20))
    one = m.standby_joules(1000)
    assert one == pytest.approx((1 << 23) * 21e-6 * 1000 * 1.875e-9)
    assert m.standby_joules(2000) == pytest.approx(2 * one)


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
        "clock_period_ns = 1.875\n"
        "t_cl_ns = 15\n"
        "t_rcd_ns = 30   # twice dram\n"
        "t_rp_ns = 15\n"
        "t_wr_ns = 45\n"
        "array_read_pj_bit = 2.0\n"
        "array_write_pj_bit = 8.0\n"
        "rb_read_pj_bit = 0.93\n"
        "rb_write_pj_bit = 1.02\n"
        "standby_uw_bit = 21\n"
    )
    t = load_timing(path)
    assert t.name == "custom"
    assert t.t_rcd_ns == 30.0
    assert service_latency(t, READ, ROW_MISS) == DRAM_BASELINE.cycles(60.0)


def test_preset_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("t_cl_ns = 15\nbogus_key = 3\n")
    with pytest.raises(ValueError, match="unexpected keys bogus_key"):
        load_timing(bad)
    partial = tmp_path / "partial.cfg"
    partial.write_text("t_cl_ns = 15\n")
    with pytest.raises(ValueError, match="missing keys"):
        load_timing(partial)
    repeated = tmp_path / "repeated.cfg"
    repeated.write_text("t_cl_ns = 15\nt_cl_ns = 20\n")
    with pytest.raises(ValueError, match=f"^{repeated}:2: repeated key t_cl_ns='20'; "):
        load_timing(repeated)
    no_value = tmp_path / "no_value.cfg"
    no_value.write_text("t_cl_ns = 15\nt_rcd_ns 15\n")
    with pytest.raises(ValueError, match=f"^{no_value}:2: expected 'key = value'$"):
        load_timing(no_value)


def test_timing_file_round_trip_sets_every_field(tmp_path):
    # Each key is a DevTiming field name; the values match neither preset.
    names = [f.name for f in dataclasses.fields(DevTiming)]
    timing = DevTiming("custom", *(1.5 + i for i in range(len(names) - 1)))
    path = tmp_path / "custom.cfg"
    path.write_text("".join(f"{n} = {getattr(timing, n)}\n" for n in names))
    assert load_timing(path) == timing


def test_preset_file_value_that_is_not_a_number_names_its_line(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("# custom\nt_cl_ns = abc\n")
    with pytest.raises(ValueError) as err:
        load_timing(bad)
    assert str(err.value).startswith(f"{bad}:2: t_cl_ns is 'abc', not float; ")
