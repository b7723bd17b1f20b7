"""Host-speed yardstick: a fixed piece of simulator-like Python work.

The benchmark shares a machine whose speed for one process swings by up to
2x over tens of seconds, as other tenants load the shared cores and caches.
A run's median command time follows those swings, so ten runs of the same
code spread wider than any useful bound. The yardstick is timed between
commands, in the same process; the benchmark scales its host times by the
yardstick's nominal time over its mean time in the same run, so a slow
stretch of the host slows both and cancels.

The work imitates the simulator's hot loop without using its code: cores
with a miss window issue page accesses, per-bank queues are scanned for row
hits, events go through a heap and an LRU tag store decides DRAM hits. It
never changes, so it measures the host and not the code under test; its
result is checked so that a broken yardstick cannot pass unnoticed.
"""

from __future__ import annotations

import heapq
import random
from collections import OrderedDict

NOMINAL_S = 0.2     # yardstick time the benchmark scales host times to
RESULT = (60000, 483202, 14627, 31330)   # what run() returns

_BANKS = 16
_CORES = 4
_WINDOW = 6         # outstanding misses per core
_TAGS = 1024        # LRU tag store entries
_EV_CORE, _EV_DONE = 0, 1


class _Req:
    __slots__ = ("core", "page", "bank", "row", "arrival", "done")

    def __init__(self, core, page, arrival):
        self.core = core
        self.page = page
        self.bank = page // 8 % _BANKS     # 8 consecutive pages share a row
        self.row = page // (8 * _BANKS)
        self.arrival = arrival
        self.done = -1


class _Bank:
    __slots__ = ("open_row", "busy", "queue")

    def __init__(self):
        self.open_row = -1
        self.busy = False
        self.queue = []


def run(requests: int = 60000, seed: int = 7) -> tuple:
    """Simulate `requests` accesses; returns (served, latency sum, row hits, DRAM hits)."""
    rng = random.Random(seed)
    banks = [_Bank() for _ in range(_BANKS)]
    tags = OrderedDict()
    counts = {}
    outstanding = [0] * _CORES
    stream = [0] * _CORES
    heap = [(c, _EV_CORE, c, c) for c in range(_CORES)]
    seq = _CORES
    issued = served = latency = row_hits = dram_hits = 0

    def start(bank, now):
        nonlocal seq, row_hits
        pick = 0
        for i, req in enumerate(bank.queue):
            if req.row == bank.open_row:
                pick = i
                break
        req = bank.queue.pop(pick)
        if req.row == bank.open_row:
            row_hits += 1
            req.done = now + 4
        else:
            bank.open_row = req.row
            req.done = now + 11
        bank.busy = True
        heapq.heappush(heap, (req.done, _EV_DONE, seq, req))
        seq += 1

    while heap:
        now, kind, _, payload = heapq.heappop(heap)
        if kind == _EV_CORE:
            core = payload
            while outstanding[core] < _WINDOW and issued < requests:
                draw = rng.random()
                if draw < 0.5:
                    page = rng.randrange(32)
                elif draw < 0.8:
                    page = stream[core] = (stream[core] + 1) % 4096
                else:
                    page = rng.randrange(4096)
                page += core * 4096
                issued += 1
                counts[page] = counts.get(page, 0) + 1
                if page in tags:
                    tags.move_to_end(page)
                    dram_hits += 1
                    continue
                tags[page] = counts[page]
                if len(tags) > _TAGS:
                    tags.popitem(last=False)
                req = _Req(core, page, now)
                outstanding[core] += 1
                bank = banks[req.bank]
                bank.queue.append(req)
                if not bank.busy:
                    start(bank, now)
        else:
            req = payload
            bank = banks[req.bank]
            bank.busy = False
            served += 1
            latency += req.done - req.arrival
            outstanding[req.core] -= 1
            heapq.heappush(heap, (now + 1 + rng.randrange(8), _EV_CORE, seq, req.core))
            seq += 1
            if bank.queue:
                start(bank, now)
    return served + dram_hits, latency, row_hits, dram_hits
