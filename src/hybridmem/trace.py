"""Trace file formats and the synthetic workload generator.

A trace is a per-application stream of last-level-cache-miss events:
(instructions since the previous event, byte address, read/write). Two
on-disk formats share a small text header: `.hmt` packs records as binary
little-endian (u32 gap, u64 address, u8 kind), `.hmtx` keeps one record per
line for hand-written test traces.

The generator produces traces from a class-based spec with controllable
memory intensity (MPKI), row-buffer locality (same-row run lengths), and
per-page parallelism (back-to-back bursts over distinct pages).
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass
from functools import partial
from typing import Iterator, NamedTuple

from .device import READ, WRITE

MAGIC_BINARY = "HMT1"
MAGIC_TEXT = "HMTX1"
HEADER_END = "%%"
_RECORD = struct.Struct("<IQB")


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


# TraceEvent from a 3-tuple, in C; TraceEvent._make is a Python call.
_new_event = partial(tuple.__new__, TraceEvent)


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


@dataclass
class Trace:
    """A fully materialized trace (what the simulator consumes)."""

    header: TraceHeader
    events: list  # list[TraceEvent]

    @property
    def accesses(self) -> int:
        return len(self.events)

    @property
    def mpki(self) -> float:
        return 1000.0 * len(self.events) / self.header.instructions

    @classmethod
    def from_file(cls, path) -> "Trace":
        header, stream = load_trace(path)
        return cls(header, list(stream))

    def save(self, path):
        save_trace(path, self.header, self.events)

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(f"{self.header.app}|{self.header.instructions}|"
                 f"{self.header.address_space}".encode())
        pack = _RECORD.pack
        h.update(b"".join(pack(g, a, k) for g, a, k in self.events))
        return h.hexdigest()[:16]


def _format_header(magic: str, header: TraceHeader) -> bytes:
    lines = [
        magic,
        f"app={header.app}",
        f"instructions={header.instructions}",
        f"address_space={header.address_space}",
        HEADER_END,
    ]
    return ("\n".join(lines) + "\n").encode("ascii")


def save_trace(path, header: TraceHeader, events):
    """Write a trace; the extension picks the format (.hmt or .hmtx)."""
    binary = not str(path).endswith(".hmtx")
    magic = MAGIC_BINARY if binary else MAGIC_TEXT
    with open(path, "wb") as fh:
        fh.write(_format_header(magic, header))
        if binary:
            pack = _RECORD.pack
            fh.write(b"".join(pack(g, a, k) for g, a, k in events))
        else:
            for g, a, k in events:
                fh.write(f"{g} {a:#x} {'R' if k == READ else 'W'}\n".encode("ascii"))


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
    try:
        header = TraceHeader(
            app=fields["app"],
            instructions=int(fields["instructions"]),
            address_space=int(fields["address_space"]),
            version=magic,
        )
    except KeyError as e:
        raise TraceError(f"{path}: header missing {e}") from None
    header.validate()
    return header, offset


def load_trace(path):
    """Open a trace; returns (header, event iterator).

    The iterator raises MalformedRecord with the byte offset of the first
    bad record and UnsupportedVersion for unknown magics.
    """
    fh = open(path, "rb")
    try:
        header, body_offset = _read_header(fh, path)
    except Exception:
        fh.close()
        raise
    if header.version == MAGIC_BINARY:
        stream = _iter_binary(fh, path, body_offset)
    else:
        stream = _iter_text(fh, path, body_offset)
    return header, stream


def _iter_binary(fh, path, offset) -> Iterator[TraceEvent]:
    size = _RECORD.size
    with fh:
        body = fh.read()
    n, rem = divmod(len(body), size)
    if rem:
        raise MalformedRecord(path, offset + n * size, "truncated record")
    kinds = body[size - 1::size]
    if kinds.translate(None, bytes((READ, WRITE))):
        i, k = next((i, k) for i, k in enumerate(kinds) if k not in (READ, WRITE))
        raise MalformedRecord(path, offset + i * size, f"bad kind byte {k}")
    yield from map(_new_event, _RECORD.iter_unpack(body))


def _iter_text(fh, path, offset) -> Iterator[TraceEvent]:
    kinds = {"R": READ, "W": WRITE}
    with fh:
        for raw in fh:
            line = raw.decode("ascii", errors="replace").split("#", 1)[0].strip()
            if line:
                parts = line.split()
                try:
                    if len(parts) != 3:
                        raise ValueError("expected 'gap address kind'")
                    gap = int(parts[0])
                    addr = int(parts[1], 0)
                    kind = kinds[parts[2].upper()]
                    if gap < 0 or addr < 0:
                        raise ValueError("negative field")
                except (ValueError, KeyError) as e:
                    raise MalformedRecord(path, offset, str(e)) from None
                yield TraceEvent(gap, addr, kind)
            offset += len(raw)


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
        if self.weight <= 0:
            raise InvalidSpec("class weight must be > 0")
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
        if self.target_mpki <= 0:
            raise InvalidSpec("target MPKI must be > 0")
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
    if per_access < 0:
        per_access = 0.0

    events = []
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
            addr = page * spec.page_bytes + st.offset * spec.block_bytes
            kind = READ if rng.random() < rf else WRITE
            events.append(TraceEvent(gap if i == 0 else 0, addr, kind))
        emitted += len(group)

    total_insts = sum(e.inst_gap for e in events) + len(events)
    header = TraceHeader(
        app=spec.name,
        instructions=total_insts,
        address_space=next_page * spec.page_bytes,
    )
    return Trace(header, events)


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
