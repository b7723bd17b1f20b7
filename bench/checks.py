"""Output checks, the path-independent report digest, per-simulation counts.

A simulation is one operation. It fails when it stops at max_cycles before
every app retired its measured instructions, or when its results break one
of the invariants below. The mix simulation also fails when its report does
not survive a JSON round trip.
"""

from __future__ import annotations

import hashlib
import json

from hybridmem.core import AppCore
from hybridmem.metrics import SimReport


def app_failures(label, ipc, cycles, t_stall, t_delay, t_interference) -> list[str]:
    out = []
    if ipc is None or not 0 < ipc <= AppCore.RETIRE_WIDTH:
        out.append(f"{label}: IPC {ipc} outside (0, {AppCore.RETIRE_WIDTH}]")
    if t_interference > t_delay:
        out.append(f"{label}: t_interference {t_interference} > t_delay {t_delay}")
    if t_stall > cycles:
        out.append(f"{label}: t_stall {t_stall} > cycles {cycles}")
    return out


def _unfinished(label, sim) -> list[str]:
    if sim.finished:
        return []
    return [f"{label}: stopped at cycle {sim.cycle} before every app retired "
            "its measured instructions"]


def mix_failures(report: SimReport, report_json: str, sim) -> list[str]:
    out = _unfinished("mix", sim)
    try:
        if SimReport.from_json(report_json) != report:
            out.append("mix: report JSON does not round-trip")
    except (TypeError, ValueError, KeyError) as exc:
        out.append(f"mix: report JSON does not load: {exc!r}")
    for a in report.apps:
        out += app_failures(f"mix app {a.app_id}", a.ipc_shared, a.cycles,
                            a.t_stall, a.t_delay, a.t_interference)
    return out


def alone_failures(report: SimReport, sims) -> list[list[str]]:
    """Failures of each alone run, in app order.

    `sims` are the alone Simulations in app order; an alone run whose
    Simulation was not seen is checked through its report IPC only.
    """
    out = []
    for a in report.apps:
        label = f"alone app {a.app_id}"
        if a.app_id < len(sims):
            sim = sims[a.app_id]
            win = sim.measured_window(0)
            fails = _unfinished(label, sim) + app_failures(
                label, a.ipc_alone, win["cycle"], win["t_stall"],
                win["t_delay"], win["t_interference"])
        else:
            fails = app_failures(label, a.ipc_alone, 1, 0, 0, 0)
        out.append(fails)
    return out


def report_digest(report_json: str, trace_digests) -> str:
    """Digest of the report with the trace paths replaced by content digests.

    The paths, and the config hash computed over them, change with the
    working directory; everything else in the report depends only on the
    code and the traces.
    """
    data = json.loads(report_json)
    data["config"]["traces"] = list(trace_digests)
    data["config_hash"] = None
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def sim_counts(sim) -> dict:
    """Modelled counts of one finished Simulation."""
    ctrls = sim.controllers
    engine = sim.engine
    return {
        "instructions": sum(c.head for c in sim.cores),
        "cycles": sim.cycle,
        "issued": sum(c.issued_reads + c.issued_writes for c in ctrls),
        "demand_issued": sum(sim.app_reads) + sum(sim.app_writes),
        "row_hits": sum(c.row_hits for c in ctrls),
        "row_misses": sum(c.row_misses for c in ctrls),
        "queue_wait_cycles": sum(c.queue_wait_cycles for c in ctrls),
        "stall_cycles": sum(c.t_stall for c in sim.cores),
        "blocks": engine.traffic_bytes // sim.block_bytes,
        "pages_promoted": engine.pages_promoted,
        "pages_evicted": engine.pages_evicted,
        "dropped": engine.dropped,
        "jobs_open_at_end": len(engine.jobs),
        "store_evictions": sim.store.evictions,
        # Heap pushes; -1 where the event queue has no push counter.
        "events": getattr(sim, "_seq", -1),
    }
