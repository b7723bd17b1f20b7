"""Spans recorded from outside the simulator, by wrapping its entry points.

A Tracer replaces the listed functions with timing wrappers for the length
of a `with` block and restores them afterwards; the simulator's own code is
not touched. Each call is a span. The tracer keeps the open spans on a
stack, charges each closed span's duration to its parent, and derives self
time as the duration minus the time covered by child spans.

Spans of the coarse entry points (trace load, Simulation construction and
run, alone runs, the command) are kept whole: name, start, end, parent.
Fine-grained spans, hundreds of thousands per command, are folded into
per-(root, name) totals instead, where root is the nearest enclosing kept
span, so a run's memory stays bounded and self time can still be split
between the simulation loop and set-up.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from hybridmem import core, controller, migration, policies, runner, simulator, trace, ubm

# (owner, attribute, span name) of the coarse entry points. The untraced
# run wraps only these; they are called a few times per command.
COARSE = (
    (trace.Trace, "from_file", "Trace.from_file"),
    (simulator.Simulation, "__init__", "Simulation.__init__"),
    (simulator.Simulation, "run", "Simulation.run"),
    (runner, "alone_ipc", "runner.alone_ipc"),
)


def _methods(owner, *names):
    return tuple((owner, n, f"{owner.__name__}.{n}") for n in names)


# Demand requests served from the migration buffer are counted from the
# routing decision, so the untraced run wraps it too; it is called only
# for pages that are mid-migration.
ROUTING = _methods(migration.MigrationJob, "location")

# Fine-grained entry points of each layer, wrapped only in the traced run.
LAYERS = {
    "core": _methods(core.AppCore, "run_to", "advance", "on_read_complete"),
    "controller": _methods(controller.ChannelController,
                           "enqueue", "try_issue", "on_complete"),
    "migration": _methods(migration.MigrationEngine, "pump", "request_promotion",
                          "finish_block_read", "finish_block_write") + ROUTING,
    "policies": tuple(
        (cls, "decide", f"{cls.__name__}.decide")
        for cls in (policies.PlacementPolicy,
                    *policies.PlacementPolicy.__subclasses__())
        if "decide" in vars(cls)),
    "ubm.sample": _methods(ubm.HotPageCounters, "sample", "on_inject", "on_complete"),
    "ubm.store": _methods(ubm.StatStore, "get_or_alloc", "entries_for_page"),
    "simulator": _methods(simulator.Simulation, "dispatch", "inject_migration"),
}
UNTRACED = COARSE + ROUTING
TRACED = COARSE + tuple(t for group in LAYERS.values() for t in group)


def names(layer: str) -> frozenset:
    return frozenset(name for _, _, name in LAYERS[layer])


KEPT = frozenset(name for _, _, name in COARSE) | {"command"}
ANY_ROOT = object()


class Tracer:
    """Wraps `targets` while active; `hooks` maps span names to result hooks.

    A hook is called as hook(args, result) after each call of that name.
    """

    def __init__(self, targets, hooks):
        self.targets = tuple(targets)
        self.hooks = hooks
        self._saved = []
        self.reset()

    def reset(self):
        self.stack = []      # open spans: [child time, kept-span index or None]
        self.kept = []       # indices of the open kept spans, innermost last
        self.spans = []      # kept spans: [name, start, end, parent, self]
        self.totals = {}     # (root name, span name) -> [calls, incl, self]

    # -- patching -----------------------------------------------------------

    def __enter__(self):
        for owner, attr, name in self.targets:
            raw = vars(owner)[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = self._wrap(name, fn)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
        return False

    # -- spans ----------------------------------------------------------------

    def _open(self, name, start):
        if name in KEPT:
            kept = self.kept
            self.spans.append([name, start, None, kept[-1] if kept else None, 0.0])
            kept.append(len(self.spans) - 1)
            self.stack.append([0.0, kept[-1]])
        else:
            self.stack.append([0.0, None])

    def _close(self, name, start, end):
        stack = self.stack
        child, index = stack.pop()
        dur = end - start
        if stack:
            stack[-1][0] += dur
        if index is not None:
            self.kept.pop()
            span = self.spans[index]
            span[2] = end
            span[4] = dur - child
        kept = self.kept
        root = self.spans[kept[-1]][0] if kept else None
        tot = self.totals.get((root, name))
        if tot is None:
            tot = self.totals[(root, name)] = [0, 0.0, 0.0]
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - child

    def _wrap(self, name, fn):
        clock = time.perf_counter
        open_, close = self._open, self._close
        hook = self.hooks.get(name)

        def wrapper(*args, **kwargs):
            start = clock()
            open_(name, start)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(name, start, clock())
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        start = time.perf_counter()
        self._open(name, start)
        try:
            yield
        finally:
            self._close(name, start, time.perf_counter())

    # -- queries --------------------------------------------------------------

    def _sum(self, field, names, root):
        if isinstance(names, str):
            names = (names,)
        return sum(t[field] for (r, n), t in self.totals.items()
                   if n in names and (root is ANY_ROOT or r == root))

    def calls(self, names, root=ANY_ROOT) -> int:
        """Calls of the named spans, optionally only those under `root`."""
        return self._sum(0, names, root)

    def incl(self, names, root=ANY_ROOT) -> float:
        return self._sum(1, names, root)

    def self_time(self, names, root=ANY_ROOT) -> float:
        return self._sum(2, names, root)

    def record(self) -> dict:
        """The spans and totals so far, in a form json can write."""
        return {
            "spans": self.spans,
            "totals": [[r, n, *t] for (r, n), t in sorted(
                self.totals.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))],
        }

