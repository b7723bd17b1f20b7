import struct

import pytest

from hybridmem.core import AppCore
from hybridmem.device import READ, WRITE
from hybridmem.trace import (
    InvalidSpec, MalformedRecord, PageClass, SynthSpec, Trace, TraceError,
    TraceEvent, TraceHeader, UnsupportedVersion, generate, three_page_spec,
)


def make_spec(**kw):
    base = dict(name="t", target_mpki=10.0,
                classes=(PageClass(pages=16),), seed=1)
    base.update(kw)
    return SynthSpec(**base)


@pytest.mark.parametrize("ext", ["hmt", "hmtx"])
def test_round_trip(tmp_path, ext):
    trace = generate(make_spec(), 500)
    path = tmp_path / f"t.{ext}"
    trace.save(path)
    back = Trace.from_file(path)
    assert back.events == trace.events
    assert back.header.instructions == trace.header.instructions
    assert back.header.app == trace.header.app


def test_empty_body_valid_header(tmp_path):
    path = tmp_path / "empty.hmt"
    path.write_bytes(b"HMT1\napp=x\ninstructions=10\naddress_space=8192\n%%\n")
    trace = Trace.from_file(path)
    assert list(trace.events) == []
    assert trace.header.app == "x"


def test_gap_zero_means_back_to_back(tmp_path):
    path = tmp_path / "t.hmtx"
    path.write_bytes(b"HMTX1\napp=x\ninstructions=4\naddress_space=65536\n%%\n"
                     b"2 0x2000 R\n0 0x4000 W\n")
    events = list(Trace.from_file(path).events)
    assert events == [TraceEvent(2, 0x2000, READ), TraceEvent(0, 0x4000, WRITE)]


def test_truncated_binary_record_reports_offset(tmp_path):
    trace = generate(make_spec(), 3)
    path = tmp_path / "t.hmt"
    trace.save(path)
    data = path.read_bytes()
    path.write_bytes(data[:-5])  # chop mid-record
    with pytest.raises(MalformedRecord) as err:
        Trace.from_file(path)
    body = data.index(b"%%\n") + 3
    assert err.value.offset == body + 2 * 13  # third record is the bad one


def test_malformed_text_record(tmp_path):
    path = tmp_path / "t.hmtx"
    path.write_bytes(b"HMTX1\napp=x\ninstructions=1\naddress_space=8192\n%%\n"
                     b"5 0x0 Q\n")
    with pytest.raises(MalformedRecord):
        Trace.from_file(path)


def test_unsupported_version(tmp_path):
    path = tmp_path / "t.hmt"
    path.write_bytes(b"HMT9\napp=x\ninstructions=1\naddress_space=1\n%%\n")
    with pytest.raises(UnsupportedVersion):
        Trace.from_file(path)


def test_bad_kind_byte_offset(tmp_path):
    path = tmp_path / "t.hmt"
    body = struct.pack("<IQB", 1, 0, 7)
    path.write_bytes(b"HMT1\napp=x\ninstructions=2\naddress_space=8192\n%%\n" + body)
    with pytest.raises(MalformedRecord):
        Trace.from_file(path)


def test_generator_deterministic():
    a = generate(make_spec(seed=42), 2000)
    b = generate(make_spec(seed=42), 2000)
    assert a.events == b.events
    c = generate(make_spec(seed=43), 2000)
    assert c.events != a.events


def test_generator_byte_identical_file(tmp_path):
    p1, p2 = tmp_path / "a.hmt", tmp_path / "b.hmt"
    generate(make_spec(seed=5), 1000).save(p1)
    generate(make_spec(seed=5), 1000).save(p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("mpki", [1.0, 3.6, 10.0, 50.0])
def test_generator_hits_target_mpki(mpki):
    trace = generate(make_spec(target_mpki=mpki), 5000)
    assert trace.mpki == pytest.approx(mpki, rel=0.10)


def test_intensity_classes_straddle_cut():
    # Memory-intensive (>= 3.6 MPKI) and non-intensive traces for mixes.
    hot = generate(make_spec(target_mpki=30.0), 2000)
    cold = generate(make_spec(target_mpki=1.0), 2000)
    assert hot.mpki >= 3.6
    assert cold.mpki < 3.6


def test_read_fraction_respected():
    trace = generate(make_spec(read_fraction=1.0), 1000)
    assert all(e.kind == READ for e in trace.events)
    trace = generate(make_spec(read_fraction=0.0), 1000)
    assert all(e.kind == WRITE for e in trace.events)


def test_burst_groups_are_back_to_back_distinct_pages():
    spec = make_spec(classes=(PageClass(pages=8, burst=4),))
    trace = generate(spec, 400)
    events = trace.events
    i = 0
    while i < len(events):
        assert events[i].inst_gap >= 0
        group = [events[i]]
        j = i + 1
        while j < len(events) and events[j].inst_gap == 0:
            group.append(events[j])
            j += 1
        if len(group) == 4:
            pages = {e.address // spec.page_bytes for e in group}
            assert len(pages) == 4
        i = j


def test_row_hit_prob_one_repeats_page():
    spec = make_spec(classes=(PageClass(pages=8, row_hit_prob=1.0),))
    trace = generate(spec, 200)
    pages = {e.address // spec.page_bytes for e in trace.events}
    assert len(pages) == 1  # never moves off the first page


def test_invalid_specs_rejected():
    with pytest.raises(InvalidSpec):
        generate(make_spec(target_mpki=0), 10)
    with pytest.raises(InvalidSpec):
        make_spec(classes=(PageClass(pages=2, burst=4),)).validate()
    with pytest.raises(InvalidSpec):
        make_spec(classes=(PageClass(pages=2, row_hit_prob=1.5),)).validate()
    with pytest.raises(InvalidSpec):
        generate(make_spec(), 0)


def test_three_page_structure():
    spec = three_page_spec(seed=0)
    trace = generate(spec, 1800)
    pages = sorted({e.address // spec.page_bytes for e in trace.events})
    assert pages == [0, 1, 2, 8, 9, 10, 16, 17, 18]
    counts = {}
    for e in trace.events:
        p = e.address // spec.page_bytes
        counts[p] = counts.get(p, 0) + 1
    # Equal per-page access counts (within round-robin remainder).
    assert max(counts.values()) - min(counts.values()) <= 2
    assert all(e.kind == READ for e in trace.events)


def test_header_validation():
    with pytest.raises(Exception):
        TraceHeader(app="x", instructions=0, address_space=1).validate()


# -- columns ------------------------------------------------------------------

EXTREMES = ([0, 2**32 - 1, 7], [2**64 - 1, 0, 0x2000], [READ, WRITE, WRITE])


@pytest.mark.parametrize("ext", ["hmt", "hmtx"])
def test_columns_round_trip_at_field_extremes(tmp_path, ext):
    trace = Trace(TraceHeader("x", 10**10, 2**64 - 1), *EXTREMES)
    path = tmp_path / f"t.{ext}"
    trace.save(path)
    back = Trace.from_file(path)
    assert back.gaps.tolist() == EXTREMES[0]
    assert back.addresses.tolist() == EXTREMES[1]
    assert list(back.kinds) == EXTREMES[2]
    assert back.gaps.itemsize == 4 and back.addresses.itemsize == 8
    assert isinstance(back.kinds, bytes)


def test_binary_body_is_packed_little_endian_records(tmp_path):
    trace = Trace(TraceHeader("x", 10**10, 2**64 - 1), *EXTREMES)
    path = tmp_path / "t.hmt"
    trace.save(path)
    data = path.read_bytes()
    body = data[data.index(b"%%\n") + 3:]
    assert body == b"".join(struct.pack("<IQB", *e) for e in zip(*EXTREMES))


def test_generated_hmt_resaves_byte_identically(tmp_path):
    first, second = tmp_path / "a.hmt", tmp_path / "b.hmt"
    generate(make_spec(seed=5, read_fraction=0.5), 1000).save(first)
    Trace.from_file(first).save(second)
    assert second.read_bytes() == first.read_bytes()


def test_digest_is_pinned():
    # Alone-run cache keys; recorded when records were packed one by one.
    assert generate(make_spec(), 1000).digest() == "da171a1f986015e7"
    trace = generate(make_spec(seed=5, read_fraction=0.5), 1000)
    assert trace.digest() == "9af39c3b89e2ce5a"


def test_events_view_length_and_records():
    trace = generate(make_spec(), 500)
    events = trace.events
    assert len(events) == trace.accesses == 500
    assert events[3] == TraceEvent(trace.gaps[3], trace.addresses[3], trace.kinds[3])
    assert events[-1] == list(events)[-1]
    assert events[1:3] == list(events)[1:3]


def test_core_shares_trace_columns():
    trace = generate(make_spec(), 100)
    core = AppCore(None, 0, trace, 128, 32, 0, 1_000_000)
    assert core.gaps is trace.gaps
    assert core.addrs is trace.addresses
    assert core.kinds is trace.kinds


@pytest.mark.parametrize("record, reason", [
    (b"4294967296 0x0 R", "gap 4294967296"),
    (b"0 0x10000000000000000 W", "address 0x10000000000000000"),
    (b"-1 0x0 R", "gap -1"),
])
def test_text_record_out_of_range_reports_offset(tmp_path, record, reason):
    path = tmp_path / "t.hmtx"
    head = b"HMTX1\napp=x\ninstructions=9\naddress_space=8192\n%%\n1 0x0 R\n"
    path.write_bytes(head + record + b"\n")
    with pytest.raises(MalformedRecord, match=reason) as err:
        Trace.from_file(path)
    assert err.value.offset == len(head)


@pytest.mark.parametrize("gaps, addresses, named", [
    ([2**32], [0], "gap 4294967296"),
    ([0], [2**64], "address 18446744073709551616"),
    ([0], [-5], "address -5"),
])
def test_constructor_rejects_values_that_do_not_fit(gaps, addresses, named):
    with pytest.raises(TraceError, match=named):
        Trace(TraceHeader("x", 10, 8192), gaps, addresses, [READ])


def test_constructor_rejects_bad_kinds_and_ragged_columns():
    header = TraceHeader("x", 10, 8192)
    with pytest.raises(TraceError, match="kind 7"):
        Trace(header, [0], [0], [7])
    with pytest.raises(TraceError, match="differ in length"):
        Trace(header, [0, 1], [0], [READ])


@pytest.mark.parametrize("spec, named", [
    # 1e-7 MPKI asks for about 1e10 instructions between accesses.
    (make_spec(target_mpki=1e-7), "gap"),
    (make_spec(first_page=2**64 // 8192), "address"),
])
def test_generator_rejects_values_that_do_not_fit(spec, named):
    with pytest.raises(TraceError, match=named):
        generate(spec, 3)


@pytest.mark.parametrize("key, value, message", [
    ("instructions", "ten", "header instructions='ten' is not an integer"),
    ("address_space", "ten", "header address_space='ten' is not an integer"),
    ("instructions", "0", "instruction count must be > 0"),
])
def test_bad_header_value_names_path_and_key(tmp_path, key, value, message):
    values = {"instructions": "10", "address_space": "8192", key: value}
    path = tmp_path / "t.hmt"
    path.write_bytes(f"HMT1\napp=x\ninstructions={values['instructions']}\n"
                     f"address_space={values['address_space']}\n%%\n".encode())
    with pytest.raises(TraceError) as err:
        Trace.from_file(path)
    assert str(err.value) == f"{path}: {message}"
