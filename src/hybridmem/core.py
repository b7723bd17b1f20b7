"""Trace-driven application core.

Models a reorder buffer as a sliding window over the instruction stream:
the tail admits instructions (and dispatches memory operations) at the
issue width, the head retires them at the same width. A read blocks the
head until its data returns; those blocked cycles are the stall time.
Stores retire immediately, but an un-injectable request (full write buffer
or full read queue) gates further memory dispatch, and a pipeline fully
drained behind a gated write also counts as stall time. The core also holds
its application's request accounting, which `Simulation` keeps.

Between memory events both pointers move linearly at the retire width, so
the core advances to any cycle in one closed-form step rather than cycle by
cycle: every bend but the head reaching its stop has a planned wake, and no
caller advances past one (`AppCore.advance`). Boundary cycles with partial
retirement count as unstalled.

A core schedules its own wakes: at the cycle its free tail reaches the next
memory op, a full window frees a slot, or its free head reaches a marker,
it pushes one through `Simulation._push` unless an earlier or equal one is
pending (`next_wake`). Completions and injections wake a blocked core.

A core reads its trace's columns in place and replays the trace from the
start when it runs out. A trace loaded from a `.hmt` file decodes its
records on demand, so the core holds only a decoded prefix (`n_ready`
records); dispatch tests for the end of it where it tested for the end of
the trace, and there fetches the next chunk (`Trace.decode_to`) or wraps.
"""

from __future__ import annotations

from collections import deque

from .device import READ, WRITE

# Stall modes: what the open stall span waits on. Only the total over all
# modes is counted (`t_stall`); a change of mode settles the open span.
STALL_NONE = 0
STALL_HEAD = 1   # a read: at the head, or parked on a full queue
STALL_WB = 2     # pipeline drained behind a write awaiting a buffer slot
EV_CORE = 2      # heap priority of a core's wake (see `simulator`)


class AppCore:
    """One application's core; slots keep its attribute loads fast.

    `bench/spans.py` times `run_to`, `advance` and `on_read_complete` by
    replacing them on this class, so each must stay a method defined here.
    """

    __slots__ = (
        "sim", "app_id", "name", "trace", "gaps", "addrs", "kinds", "n_ready",
        "idx",
        "rob_capacity", "mshr_capacity", "cycle", "head", "tail",
        "next_mem_pos", "window_reads", "pending_inject", "outstanding_reads",
        "outstanding_writes", "tail_block", "head_pin", "next_wake", "stall_mode",
        "stall_anchor", "t_stall", "delay_anchor", "t_delay", "t_interference",
        "t_outstanding", "warm_pos", "done_pos", "next_marker",
    )
    RETIRE_WIDTH = 3

    def __init__(self, sim, app_id: int, trace, rob_capacity: int,
                 mshr_capacity: int, warmup_instructions: int,
                 measured_instructions: int):
        self.sim = sim
        self.app_id = app_id
        self.name = trace.header.app
        if not trace.kinds:
            raise ValueError(f"trace for app {app_id} has no events")
        # The trace's own columns, shared: the core only reads them. Only
        # the first `n_ready` records of `gaps` and `addrs` are decoded yet.
        self.trace = trace
        self.gaps, self.addrs = trace.decoded_columns
        self.kinds = trace.kinds
        self.n_ready = trace.decode_to(0)
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
        self.tail_block = None         # None | 'mshr' | 'gate' | 'rob'
        self.head_pin = None           # request the head is blocked on
        self.next_wake = float("inf")  # earliest pending wake event

        # Stall accounting: one open span at a time, from `stall_anchor` in
        # `stall_mode`, settled into `t_stall` when the mode changes.
        self.stall_mode = STALL_NONE
        self.stall_anchor = 0
        self.t_stall = 0
        # The simulator's request accounting: demand requests from dispatch to
        # completion (the reads are the MSHR occupancy), the memory-busy span
        # open since `delay_anchor` (None while none is), T_delay, and the sums
        # of per-request blocked shares and of request lifetimes.
        self.outstanding_reads = self.outstanding_writes = 0
        self.delay_anchor = None
        self.t_delay = self.t_interference = self.t_outstanding = 0

        self.warm_pos = warmup_instructions
        self.done_pos = warmup_instructions + measured_instructions
        # Head position of the next uncrossed marker: warm, then done, then
        # inf. With no warmup the warm marker is crossed at cycle 0.
        self.next_marker = self.warm_pos if warmup_instructions else self.done_pos

    # -- trajectory pieces ----------------------------------------------------

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
                self, "done", seg_start - (old_head - self.done_pos) // w)

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
            if self.idx == self.n_ready:
                # Past the decoded prefix: decode the next chunk, or wrap
                # once the whole trace is decoded.
                self.n_ready = self.trace.decode_to(self.idx)
                if self.idx == self.n_ready:
                    self.idx = 0
            self.next_mem_pos = self.tail + self.gaps[self.idx]
            req = self.sim.dispatch(self, addr, kind, self.cycle)
            if kind == READ:
                self.window_reads.append((pos, req))
        self.tail_block = None

    def _refresh_stall(self):
        # Skipped while the head is free short of the tail and no span is open.
        # A tail blocked on full MSHRs needs no mode of its own: the head
        # stops at the oldest of their incomplete reads, short of the tail.
        mode = STALL_NONE
        if self.head_pin is not None:
            mode = STALL_HEAD
        elif self.head == self.tail and self.tail_block == "gate" \
                and self.pending_inject:
            mode = STALL_WB if self.pending_inject[0].kind == WRITE else STALL_HEAD
        if mode != self.stall_mode:
            self.settle_stall(self.cycle)
            self.stall_mode = mode

    def settle_stall(self, now: int):
        if self.stall_mode != STALL_NONE and now > self.stall_anchor:
            self.t_stall += now - self.stall_anchor
        self.stall_anchor = now

    # -- main advance ---------------------------------------------------------

    def advance(self, now: int):
        """Move the core to cycle `now` in one closed-form step.

        The free tail and the free head each move `RETIRE_WIDTH` per cycle,
        the tail capped at the next memory op and the head at its stop and
        at the tail. This is exact because `_resume` plans a wake at every
        bend the core foresees -- the free tail reaching its next memory op
        and a full window freeing a slot -- and every caller (`run_to`,
        `on_read_complete`, `Simulation._retry_parked`, `Simulation._settle`)
        calls at or before it. So no dispatch falls inside the step, and the
        one bend left is the free head reaching its stop, which pins it to
        a read or stalls it behind the blocked tail from the cycle it
        arrives.
        """
        cycle = self.cycle
        if now <= cycle:
            return
        w = self.RETIRE_WIDTH
        dist = w * (now - cycle)
        tail = self.tail
        if self.tail_block is None:
            tail += dist
            if tail > self.next_mem_pos:
                tail = self.next_mem_pos
            self.tail = tail
        if self.head_pin is None:
            head = self.head
            # Head stop: the oldest incomplete read, else a blocked tail. A
            # free tail only caps the head.
            wr = self.window_reads
            stop = wr[0][0] if wr else tail
            new_head = head + dist
            if new_head >= stop:
                new_head = stop
            if new_head >= self.next_marker:
                self._record_markers(head, new_head, cycle)
            self.head = new_head
            if new_head == stop and (wr or self.tail_block is not None):
                # At its stop before `now`, perhaps since before this step:
                # pin it there from the cycle it arrived.
                reached = cycle - (head - stop) // w
                if reached < now:
                    self.cycle = reached
                    if wr:
                        self.head_pin = wr[0][1]
                    self._refresh_stall()
        self.cycle = now
        # Settle the open stall span, so it is always settled up to `cycle`.
        if self.stall_mode:
            self.settle_stall(now)

    # -- wakeups --------------------------------------------------------------

    def on_read_complete(self, req, now: int):
        # Settle up to `now` with the read still incomplete, then release it.
        if now > self.cycle:
            self.advance(now)
        req.done = True
        wr = self.window_reads
        while wr and wr[0][1].done:
            wr.popleft()
        if self.head_pin is req:
            self.head_pin = None
        self._resume()

    def run_to(self, now: int):
        """Advance to `now`, perform due dispatches, plan the next wake."""
        if now > self.cycle:
            self.advance(now)
        self._resume()

    def _resume(self):
        """Due dispatches, the stall mode and the next wake."""
        if self.tail == self.next_mem_pos:
            self._try_dispatch()
        head, tail = self.head, self.tail
        if self.head_pin is not None or head == tail or self.stall_mode:
            self._refresh_stall()
        w = self.RETIRE_WIDTH
        cycle = self.cycle
        if self.tail_block is None:
            # After a dispatch attempt a free tail is short of the next op.
            t = cycle - (tail - self.next_mem_pos) // w
            if t < self.next_wake:
                self.next_wake = t
                self.sim._push(t, EV_CORE, self)
        if self.head_pin is not None:
            return
        # Free head runs that need a proactive wake unless a head stop cuts
        # them short: a full window draining until dispatch resumes, and a
        # run toward an uncrossed marker (a blocked core is woken by
        # completions and injections).
        rob_need = (tail - self.rob_capacity + 1
                    if self.tail_block == "rob" else head)
        marker = self.next_marker
        if marker > tail:
            marker = head
        if rob_need > head or marker > head:
            # Head stop: the oldest incomplete read, else a blocked tail.
            wr = self.window_reads
            stop = wr[0][0] if wr else None
            if self.tail_block is not None and (stop is None or tail < stop):
                stop = tail
            for target in (rob_need, marker):
                if target > head and (stop is None or stop >= target):
                    t = cycle - (head - target) // w
                    if t < self.next_wake:
                        self.next_wake = t
                        self.sim._push(t, EV_CORE, self)
