"""Trace file formats and the synthetic workload generator.

A trace is a per-application stream of last-level-cache-miss events:
(instructions since the previous event, byte address, read/write). Two
on-disk formats share a small text header: `.hmt` packs records as binary
little-endian (u32 gap, u64 address, u8 kind; 13 bytes, unpadded), `.hmtx`
keeps one record per line for hand-written test traces.

In memory a `Trace` holds its records as three columns of equal length:
`gaps` (an `array` of u32), `addresses` (an `array` of u64) and `kinds`
(`bytes` of READ/WRITE), in native byte order. The `.hmt` loader fills them
from the file body with strided slices (byte j of every 13-byte record at
once), so no Python code runs per record, and the core indexes the columns
directly. `Trace.events` is a read-only view of the records as
`TraceEvent` tuples, built on access.

The generator produces traces from a class-based spec with controllable
memory intensity (MPKI), row-buffer locality (same-row run lengths), and
per-page parallelism (back-to-back bursts over distinct pages).
"""

from __future__ import annotations

import hashlib
import random
import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .device import READ, WRITE

MAGIC_BINARY = "HMT1"
MAGIC_TEXT = "HMTX1"
HEADER_END = "%%"

# Column typecodes by item size; the C type behind each letter varies by host.
_GAP_TYPE = next(t for t in "IL" if array(t).itemsize == 4)
_ADDR_TYPE = next(t for t in "LQ" if array(t).itemsize == 8)
# Byte offset of each numeric column in a 13-byte `.hmt` record; the kind
# byte comes last.
_LAYOUT = ((0, _GAP_TYPE), (4, _ADDR_TYPE))
_KIND_AT = 12
_RECORD_BYTES = 13
_KINDS = bytes((READ, WRITE))


class TraceError(Exception):
    pass


class UnsupportedVersion(TraceError):
    pass


class MalformedRecord(TraceError):
    """Raised with the byte offset of the first bad record."""

    def __init__(self, path, offset: int, reason: str):
        self.offset = offset
        super().__init__(f"{path}: malformed record at byte {offset}: {reason}")


class TraceEvent(NamedTuple):
    inst_gap: int
    address: int
    kind: int  # READ or WRITE


@dataclass
class TraceHeader:
    app: str
    instructions: int
    address_space: int
    version: str = MAGIC_BINARY

    def validate(self):
        if self.version not in (MAGIC_BINARY, MAGIC_TEXT):
            raise UnsupportedVersion(f"unknown trace version {self.version!r}")
        if self.instructions <= 0:
            raise TraceError("instruction count must be > 0")


def _field_max(typecode: str) -> int:
    return (1 << 8 * array(typecode).itemsize) - 1


def _column(typecode: str, values, name: str) -> array:
    """`values` as an unsigned column; TraceError names a value that won't fit."""
    if isinstance(values, array) and values.typecode == typecode:
        return values
    try:
        return array(typecode, values)
    except OverflowError:
        top = _field_max(typecode)
        bad = next(v for v in values if not 0 <= v <= top)
        raise TraceError(f"{name} {bad} is outside [0, {top}]") from None


@dataclass
class Trace:
    """A fully materialized trace (what the simulator consumes).

    The columns may be given as any sequences of ints; `from_file` passes
    ready arrays, which are kept without a copy.
    """

    header: TraceHeader
    gaps: array
    addresses: array
    kinds: bytes

    def __post_init__(self):
        self.gaps = _column(_GAP_TYPE, self.gaps, "gap")
        self.addresses = _column(_ADDR_TYPE, self.addresses, "address")
        self.kinds = bytes(self.kinds)
        bad = self.kinds.translate(None, _KINDS)
        if bad:
            raise TraceError(f"kind {bad[0]} is neither READ nor WRITE")
        if not len(self.gaps) == len(self.addresses) == len(self.kinds):
            raise TraceError("trace columns differ in length")

    @property
    def events(self) -> "TraceEvents":
        return TraceEvents(self)

    @property
    def accesses(self) -> int:
        return len(self.kinds)

    @property
    def mpki(self) -> float:
        return 1000.0 * len(self.kinds) / self.header.instructions

    @classmethod
    def from_file(cls, path) -> "Trace":
        """Load a `.hmt` or `.hmtx` trace; its magic line picks the format.

        `bench/spans.py` times this by replacing it on the class, so it
        must stay a classmethod defined here.

        Raises MalformedRecord with the byte offset of the first bad record
        and UnsupportedVersion for unknown magics.
        """
        with open(path, "rb") as fh:
            header, offset = _read_header(fh, path)
            if header.version == MAGIC_BINARY:
                columns = _binary_columns(fh.read(), path, offset)
            else:
                columns = _text_columns(fh, path, offset)
        return cls(header, *columns)

    def save(self, path):
        """Write the trace; the extension picks the format (.hmt or .hmtx)."""
        binary = not str(path).endswith(".hmtx")
        with open(path, "wb") as fh:
            fh.write(_format_header(MAGIC_BINARY if binary else MAGIC_TEXT,
                                    self.header))
            if binary:
                fh.write(self._body())
            else:
                for g, a, k in zip(self.gaps, self.addresses, self.kinds):
                    fh.write(f"{g} {a:#x} {'R' if k == READ else 'W'}\n".encode("ascii"))

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(f"{self.header.app}|{self.header.instructions}|"
                 f"{self.header.address_space}".encode())
        h.update(self._body())
        return h.hexdigest()[:16]

    def _body(self) -> bytearray:
        """The `.hmt` body: columns interleaved into little-endian records."""
        size = _RECORD_BYTES
        body = bytearray(len(self.kinds) * size)
        body[_KIND_AT::size] = self.kinds
        for (start, _), col in zip(_LAYOUT, (self.gaps, self.addresses)):
            if sys.byteorder == "big":
                col = array(col.typecode, col)
                col.byteswap()
            raw, width = col.tobytes(), col.itemsize
            for j in range(width):
                body[start + j::size] = raw[j::width]
        return body


class TraceEvents(Sequence):
    """Read-only view of a trace's records as TraceEvent tuples."""

    __slots__ = ("_trace",)

    def __init__(self, trace: Trace):
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace.kinds)

    def __getitem__(self, i):
        t = self._trace
        if isinstance(i, slice):
            return list(map(TraceEvent, t.gaps[i], t.addresses[i], t.kinds[i]))
        return TraceEvent(t.gaps[i], t.addresses[i], t.kinds[i])

    def __iter__(self):
        t = self._trace
        return map(TraceEvent, t.gaps, t.addresses, t.kinds)

    def __eq__(self, other):
        if isinstance(other, TraceEvents):
            a, b = self._trace, other._trace
            return (a.gaps, a.addresses, a.kinds) == (b.gaps, b.addresses, b.kinds)
        if isinstance(other, Sequence):
            return list(self) == list(other)
        return NotImplemented


def _format_header(magic: str, header: TraceHeader) -> bytes:
    lines = [
        magic,
        f"app={header.app}",
        f"instructions={header.instructions}",
        f"address_space={header.address_space}",
        HEADER_END,
    ]
    return ("\n".join(lines) + "\n").encode("ascii")


def _read_header(fh, path) -> tuple[TraceHeader, int]:
    """Parse the text header; returns (header, byte offset of the body)."""
    fields = {}
    magic = None
    offset = 0
    while True:
        line = fh.readline()
        if not line:
            raise TraceError(f"{path}: truncated header")
        offset += len(line)
        text = line.decode("ascii", errors="replace").strip()
        if magic is None:
            magic = text
            if magic not in (MAGIC_BINARY, MAGIC_TEXT):
                raise UnsupportedVersion(f"{path}: unknown trace version {magic!r}")
            continue
        if text == HEADER_END:
            break
        key, _, value = text.partition("=")
        fields[key.strip()] = value.strip()

    def integer(key):
        try:
            return int(fields[key])
        except ValueError:
            raise TraceError(f"{path}: header {key}={fields[key]!r} "
                             f"is not an integer") from None

    try:
        header = TraceHeader(
            app=fields["app"],
            instructions=integer("instructions"),
            address_space=integer("address_space"),
            version=magic,
        )
    except KeyError as e:
        raise TraceError(f"{path}: header missing {e}") from None
    try:
        header.validate()
    except TraceError as e:
        raise TraceError(f"{path}: {e}") from None
    return header, offset


def _binary_columns(body: bytes, path, offset) -> tuple:
    """Split a `.hmt` body into (gaps, addresses, kinds) columns."""
    size = _RECORD_BYTES
    n, rem = divmod(len(body), size)
    if rem:
        raise MalformedRecord(path, offset + n * size, "truncated record")
    kinds = body[_KIND_AT::size]
    if kinds.translate(None, _KINDS):
        i, k = next((i, k) for i, k in enumerate(kinds) if k not in _KINDS)
        raise MalformedRecord(path, offset + i * size, f"bad kind byte {k}")
    columns = []
    for start, typecode in _LAYOUT:
        col = array(typecode)
        width = col.itemsize
        raw = bytearray(n * width)
        for j in range(width):
            raw[j::width] = body[start + j::size]
        col.frombytes(raw)
        if sys.byteorder == "big":
            col.byteswap()
        columns.append(col)
    return (*columns, kinds)


def _text_columns(fh, path, offset) -> tuple:
    """Parse `.hmtx` lines into (gaps, addresses, kinds) columns."""
    codes = {"R": READ, "W": WRITE}
    gap_max, addr_max = _field_max(_GAP_TYPE), _field_max(_ADDR_TYPE)
    gaps, addrs, kinds = [], [], bytearray()
    for raw in fh:
        line = raw.decode("ascii", errors="replace").split("#", 1)[0].strip()
        if line:
            parts = line.split()
            try:
                if len(parts) != 3:
                    raise ValueError("expected 'gap address kind'")
                gap = int(parts[0])
                addr = int(parts[1], 0)
                kind = codes[parts[2].upper()]
                if not 0 <= gap <= gap_max:
                    raise ValueError(f"gap {gap} is outside [0, {gap_max}]")
                if not 0 <= addr <= addr_max:
                    raise ValueError(f"address {addr:#x} is outside [0, {addr_max:#x}]")
            except (ValueError, KeyError) as e:
                raise MalformedRecord(path, offset, str(e)) from None
            gaps.append(gap)
            addrs.append(addr)
            kinds.append(kind)
        offset += len(raw)
    return gaps, addrs, kinds


# ---------------------------------------------------------------------------
# Synthetic workload generation


class InvalidSpec(TraceError):
    pass


@dataclass(frozen=True)
class PageClass:
    """One page population with uniform access behavior.

    burst > 1 issues that many back-to-back accesses to distinct pages of
    the class, which is what creates overlapping (high-MLP) requests.
    row_hit_prob sets the fraction of accesses that reuse the currently
    open row (same page back to back).
    page_stride spaces out the class's page ids; a stride equal to the bank
    count pins every page of the class onto a single bank. page_ids takes
    precedence over the stride when explicit placement is needed.
    """

    pages: int
    weight: float = 1.0
    row_hit_prob: float = 0.0
    burst: int = 1
    read_fraction: float | None = None
    page_stride: int = 1
    page_ids: tuple[int, ...] | None = None

    def validate(self):
        if self.pages < 1 or self.burst < 1 or self.page_stride < 1:
            raise InvalidSpec("pages, burst and page_stride must be >= 1")
        if self.page_ids is not None and len(self.page_ids) != self.pages:
            raise InvalidSpec("page_ids length must match the page count")
        if not 0.0 <= self.row_hit_prob <= 1.0:
            raise InvalidSpec("row_hit_prob must be in [0, 1]")
        if self.read_fraction is not None and not 0.0 <= self.read_fraction <= 1.0:
            raise InvalidSpec("read_fraction must be in [0, 1]")
        if not 0 < self.weight < float("inf"):   # NaN fails too
            raise InvalidSpec(f"class weight must be finite and > 0, not {self.weight}")
        if self.burst > self.pages:
            raise InvalidSpec("burst cannot exceed the class page count")


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic application trace."""

    name: str
    target_mpki: float
    classes: tuple[PageClass, ...]
    read_fraction: float = 0.7
    seed: int = 0
    page_bytes: int = 8192
    block_bytes: int = 64
    first_page: int = 0
    interleave: str = "weighted"  # or "round_robin"

    def validate(self):
        # Each access is itself an instruction, so no trace exceeds 1000 MPKI.
        if not 0 < self.target_mpki <= 1000:   # NaN fails too
            raise InvalidSpec(f"target MPKI must be in (0, 1000], not {self.target_mpki}")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise InvalidSpec("read_fraction must be in [0, 1]")
        if not self.classes:
            raise InvalidSpec("at least one page class required")
        if self.interleave not in ("weighted", "round_robin"):
            raise InvalidSpec(f"unknown interleave mode {self.interleave!r}")
        for c in self.classes:
            c.validate()


class _ClassState:
    __slots__ = ("cls", "page_ids", "cursor", "current_set", "offset")

    def __init__(self, cls: PageClass, page_ids: list):
        self.cls = cls
        self.page_ids = page_ids
        self.cursor = 0
        self.current_set = None
        self.offset = 0

    def next_set(self, reuse: bool) -> list:
        if reuse and self.current_set is not None:
            return self.current_set
        k = self.cls.burst
        n = len(self.page_ids)
        pages = [self.page_ids[(self.cursor + i) % n] for i in range(k)]
        self.cursor = (self.cursor + k) % n
        self.current_set = pages
        return pages


def generate(spec: SynthSpec, accesses: int) -> Trace:
    """Produce a trace with `accesses` memory events.

    Deterministic for a fixed spec (the seed lives in the spec). The mean
    instruction gap between access groups is set so the trace lands on the
    target MPKI; per-group gaps get +/-50% jitter around that mean.
    """
    spec.validate()
    if accesses <= 0:
        raise InvalidSpec("accesses must be > 0")
    rng = random.Random(spec.seed)

    states = []
    next_page = spec.first_page
    for cls in spec.classes:
        if cls.page_ids is not None:
            ids = [spec.first_page + p for p in cls.page_ids]
        else:
            ids = [next_page + i * cls.page_stride for i in range(cls.pages)]
        next_page = max(next_page, max(ids) + cls.page_stride)
        states.append(_ClassState(cls, ids))
    weights = [c.weight for c in spec.classes]
    blocks_per_page = max(1, spec.page_bytes // spec.block_bytes)

    # Instructions owed per access so total instructions hit the MPKI
    # target; each access itself counts as one instruction.
    per_access = 1000.0 / spec.target_mpki - 1.0

    gaps, addrs, kinds = [], [], bytearray()
    owed = 0.0
    emitted = 0
    rr = 0
    while emitted < accesses:
        if spec.interleave == "round_robin":
            st = states[rr % len(states)]
            rr += 1
        else:
            st = rng.choices(states, weights)[0]
        reuse = rng.random() < st.cls.row_hit_prob
        pages = st.next_set(reuse)
        group = pages[: accesses - emitted]

        owed += per_access * len(group)
        jitter = 0.5 + rng.random()  # uniform in [0.5, 1.5)
        gap = int(owed * jitter)
        gap = min(gap, int(owed)) if owed >= 1 else 0
        owed -= gap

        rf = st.cls.read_fraction
        if rf is None:
            rf = spec.read_fraction
        for i, page in enumerate(group):
            st.offset = (st.offset + 1) % blocks_per_page
            gaps.append(gap if i == 0 else 0)
            addrs.append(page * spec.page_bytes + st.offset * spec.block_bytes)
            kinds.append(READ if rng.random() < rf else WRITE)
        emitted += len(group)

    total_insts = sum(gaps) + len(gaps)
    header = TraceHeader(
        app=spec.name,
        instructions=total_insts,
        address_space=next_page * spec.page_bytes,
    )
    return Trace(header, gaps, addrs, kinds)


def three_page_spec(
    seed: int = 0,
    mpki: float = 2.0,
    first_page: int = 0,
    banks: int = 8,
    read_only: bool = True,
) -> SynthSpec:
    """Spec for the three-page parallelism scenario.

    One class of lone pages whose requests never overlap with anything, and
    one class of page pairs whose requests always overlap pairwise. Pages
    within each class rotate rows on shared banks so that every access is a
    row-buffer miss; per-page access counts come out equal. Three pages
    rotate on each bank so the all-miss property survives migrating one
    whole page group (two rows still alternate on the bank afterwards).
    """
    iso_bank = 2
    isolated = PageClass(
        pages=3,
        page_ids=tuple(iso_bank + i * banks for i in range(3)),
        burst=1, weight=1.0,
    )
    # Three pairs across banks 0 and 1: (0,1), (8,9), (16,17).
    paired = PageClass(
        pages=6,
        page_ids=tuple(i * banks + j for i in range(3) for j in (0, 1)),
        burst=2, weight=1.0,
    )
    return SynthSpec(
        name="three-page",
        target_mpki=mpki,
        classes=(isolated, paired),
        read_fraction=1.0 if read_only else 0.7,
        seed=seed,
        first_page=first_page,
        interleave="round_robin",
    )
