"""Trace-driven application core.

Models a reorder buffer as a sliding window over the instruction stream:
the tail admits instructions (and dispatches memory operations) at the
issue width, the head retires them at the same width. A read blocks the
head until its data returns; those blocked cycles are the stall time.
Stores retire immediately, but an un-injectable request (full write buffer
or full read queue) gates further memory dispatch, and a pipeline fully
drained behind a gated write also counts as stall time.

Between memory events both pointers move linearly at the retire width, so
the core advances in closed-form segments rather than cycle by cycle.
Boundary cycles with partial retirement count as unstalled.
"""

from __future__ import annotations

from collections import deque

from .device import READ, WRITE

STALL_NONE = 0
STALL_HEAD = 1   # incomplete read at the head of the window
STALL_WB = 2     # pipeline drained behind a write awaiting a buffer slot


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class AppCore:
    # `bench/spans.py` times `run_to`, `advance` and `on_read_complete` by
    # replacing them on this class, so each must stay a method defined here.
    RETIRE_WIDTH = 3

    def __init__(self, sim, app_id: int, trace, rob_capacity: int,
                 mshr_capacity: int, warmup_instructions: int,
                 measured_instructions: int):
        self.sim = sim
        self.app_id = app_id
        self.name = trace.header.app
        if not trace.kinds:
            raise ValueError(f"trace for app {app_id} has no events")
        # The trace's own columns, shared: the core only reads them.
        self.gaps = trace.gaps
        self.addrs = trace.addresses
        self.kinds = trace.kinds
        self.n_events = len(trace.kinds)
        self.idx = 0

        self.rob_capacity = rob_capacity
        self.mshr_capacity = mshr_capacity
        self.cycle = 0
        self.head = 0   # instructions retired
        self.tail = 0   # instructions admitted to the window
        self.next_mem_pos = self.gaps[0]
        # (position, request) of the reads dispatched since the oldest
        # incomplete one, in dispatch order: the front is always incomplete.
        self.window_reads = deque()
        self.pending_inject = deque()  # requests parked on a full queue
        self.outstanding_reads = 0     # MSHR occupancy, dispatch -> completion
        self.tail_block = None         # None | 'mshr' | 'gate' | 'rob'
        self.head_pin = None           # request the head is blocked on
        self.next_wake = None          # earliest pending simulator wake

        # Stall accounting: one open span at a time, settled on transitions.
        self.stall_mode = STALL_NONE
        self.stall_anchor = 0
        self.stall_page = -1
        self.t_stall = 0

        self.warm_pos = warmup_instructions
        self.done_pos = warmup_instructions + measured_instructions
        # Head position of the next uncrossed marker: warm, then done, then
        # inf. With no warmup the warm marker is crossed at cycle 0.
        self.next_marker = self.warm_pos if warmup_instructions else self.done_pos

    # -- trajectory pieces ----------------------------------------------------

    def _head_stop(self):
        """Position where the head must pause next (None = unbounded)."""
        wr = self.window_reads
        stop = wr[0][0] if wr else None
        if self.tail_block is not None:
            stop = self.tail if stop is None else min(stop, self.tail)
        return stop

    def _record_markers(self, old_head: int, new_head: int, seg_start: int):
        """Report each marker the head crosses moving from `old_head`, at
        cycle `seg_start`, to `new_head`, which reaches `next_marker`.

        The warm marker is stamped with the cycle in which its instruction
        starts retiring, rounded down, and the done marker with the cycle
        that retires its instruction, rounded up; so the measured window
        never comes out shorter than its instructions at the retire width.
        """
        w = self.RETIRE_WIDTH
        if self.next_marker == self.warm_pos:
            self.next_marker = self.done_pos
            self.sim.on_app_marker(
                self, "warm", seg_start + (self.warm_pos - old_head) // w)
        if self.next_marker <= new_head:
            self.next_marker = float("inf")
            self.sim.on_app_marker(
                self, "done", seg_start + _ceil_div(self.done_pos - old_head, w))

    def _try_dispatch(self):
        """Admit instructions at the tail; dispatch memory ops while possible."""
        while self.tail == self.next_mem_pos:
            if self.tail >= self.head + self.rob_capacity:
                self.tail_block = "rob"
                return
            if self.pending_inject:
                self.tail_block = "gate"
                return
            kind = self.kinds[self.idx]
            if kind == READ and self.outstanding_reads >= self.mshr_capacity:
                self.tail_block = "mshr"
                return
            addr = self.addrs[self.idx]
            pos = self.next_mem_pos
            self.tail = pos + 1
            self.idx += 1
            if self.idx == self.n_events:
                self.idx = 0
            self.next_mem_pos = self.tail + self.gaps[self.idx]
            req = self.sim.dispatch(self, addr, kind, self.cycle)
            if kind == READ:
                self.outstanding_reads += 1
                self.window_reads.append((pos, req))
        self.tail_block = None

    def _refresh_stall(self):
        mode = STALL_NONE
        page = -1
        if self.head_pin is not None:
            mode, page = STALL_HEAD, self.head_pin.page_id
        elif self.head == self.tail and self.tail_block == "gate" \
                and self.pending_inject:
            blocker = self.pending_inject[0]
            mode = STALL_WB if blocker.kind == WRITE else STALL_HEAD
            page = blocker.page_id
        elif self.head == self.tail and self.tail_block == "mshr":
            mode = STALL_HEAD
            page = self.addrs[self.idx] // self.sim.page_bytes
        if mode != self.stall_mode or page != self.stall_page:
            self.settle_stall(self.cycle)
            self.stall_mode = mode
            self.stall_page = page

    def settle_stall(self, now: int):
        if self.stall_mode != STALL_NONE and now > self.stall_anchor:
            span = now - self.stall_anchor
            self.t_stall += span
            self.sim.on_stall(self, self.stall_page, span)
        self.stall_anchor = now

    # -- main advance ---------------------------------------------------------

    def advance(self, now: int):
        """Move the core through closed-form segments up to cycle `now`.

        Each segment runs until the next point where the trajectory bends:
        the head reaching its stop, the tail reaching the next memory op,
        or a full window starting to drain. Every segment lasts at least one
        cycle, because each bound lies strictly ahead of its pointer.
        """
        if now <= self.cycle:
            return
        w = self.RETIRE_WIDTH
        wr = self.window_reads
        while self.cycle < now:
            if self.tail == self.next_mem_pos:   # a blocked tail sits here too
                self._try_dispatch()
            cycle, head, tail = self.cycle, self.head, self.tail
            # Head stop: the oldest incomplete read, else a blocked tail.
            stop = None
            if wr:
                stop, req = wr[0]
                if stop == head and self.head_pin is None:
                    self.head_pin = req
            tail_block = self.tail_block
            if tail_block is not None and (stop is None or tail < stop):
                stop = tail
            head_free = self.head_pin is None
            self._refresh_stall()

            t_next = now
            if head_free and stop is not None and stop > head:
                t = cycle - (head - stop) // w
                if t < t_next:
                    t_next = t
            if tail_block is None:
                # The tail is free only short of the next memory op.
                t = cycle - (tail - self.next_mem_pos) // w
                if t < t_next:
                    t_next = t
            elif tail_block == "rob" and head_free:
                # Retirement frees window slots; dispatch resumes mid-run.
                need = tail - self.rob_capacity + 1
                if need > head:
                    t = cycle - (head - need) // w
                    if t < t_next:
                        t_next = t

            dt = t_next - cycle
            if tail_block is None:
                tail += w * dt
                if tail > self.next_mem_pos:
                    tail = self.next_mem_pos
                self.tail = tail
            if head_free:
                new_head = head + w * dt
                if stop is not None and stop < new_head:
                    new_head = stop
                if tail < new_head:
                    new_head = tail
                if new_head > head:
                    if new_head >= self.next_marker:
                        self._record_markers(head, new_head, cycle)
                    self.head = new_head
            self.cycle = t_next
        self.settle_open_spans()

    def settle_open_spans(self):
        if self.stall_mode != STALL_NONE:
            self.settle_stall(self.cycle)

    # -- wakeups --------------------------------------------------------------

    def on_read_complete(self, req, now: int):
        # Settle up to `now` with the read still outstanding, then release it.
        if now > self.cycle:
            self.advance(now)
        req.done = True
        self.outstanding_reads -= 1
        wr = self.window_reads
        while wr and wr[0][1].done:
            wr.popleft()
        if self.head_pin is req:
            self.head_pin = None
        if self.tail == self.next_mem_pos:
            self._try_dispatch()
        self._refresh_stall()
        self.schedule_next()

    def run_to(self, now: int):
        """Advance to `now`, perform due dispatches, plan the next wake."""
        if now > self.cycle:
            self.advance(now)
        if self.tail == self.next_mem_pos:
            self._try_dispatch()
        self._refresh_stall()
        self.schedule_next()

    def schedule_next(self):
        w = self.RETIRE_WIDTH
        cycle, head = self.cycle, self.head
        if self.tail_block is None:
            # After a dispatch attempt a free tail is short of the next op.
            self.sim.schedule_core(self, cycle - (self.tail - self.next_mem_pos) // w)
        if self.head_pin is not None:
            return
        # Free head runs that need a proactive wake unless a head stop cuts
        # them short: a full window draining until dispatch resumes, and a
        # run toward an uncrossed marker (a blocked core is woken by
        # completions and injections).
        rob_need = (self.tail - self.rob_capacity + 1
                    if self.tail_block == "rob" else head)
        marker = self.next_marker
        if marker > self.tail:
            marker = head
        if rob_need > head or marker > head:
            stop = self._head_stop()
            for target in (rob_need, marker):
                if target > head and (stop is None or stop >= target):
                    self.sim.schedule_core(self, cycle - (head - target) // w)
