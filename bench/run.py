#!/usr/bin/env python3
"""Fixed-seed benchmark of the hybridmem simulator.

Run from the repository root:

    python3 bench/run.py --workload ubm_read --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 1

One command is what `hybridmem run` does: `runner.run` on an
ExperimentConfig whose traces are .hmt files, then JSON and CSV report
serialisation. Trace loading, the mix simulation and the alone runs are
inside the timed window. Commands run one at a time, round-robin over the
run's trace mixes, after an untimed warm-up command on the first mix, until
--seconds have passed. Every command's outputs are checked (see checks.py)
and repeated commands of one mix must give the same report digest. Before
each untraced command the host-speed yardstick (yardstick.py) is timed; the
end-to-end host times are scaled by its nominal over its mean time.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1
alternates untraced and traced rounds over the first TRACED_MIXES mixes and
prints the per-layer metrics;
its spans go to .bench_out/. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    from hybridmem import runner
    from hybridmem.controller import BUFFER_CHANNEL
    from hybridmem.policies import PROMOTE
except ImportError as exc:
    sys.exit(f"bench: cannot import hybridmem from {ROOT / 'src'}: {exc}")

import checks
import spans
import yardstick
from spans import Tracer
from workloads import TRACED_MIXES, WORKLOADS, file_digest, write_mixes

HARD_LIMIT_S = 140      # stop starting commands; a run must end within 180 s
GENERATE_TIMEOUT_S = 120
RUN = "Simulation.run"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
BUILD_SEEDS = tuple(range(1, 11))   # seeds used while the benchmark was tuned
HELD_OUT_SEED = 1000


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# One command


class Probe:
    """Per-command observations made through the tracer's result hooks."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.sims = []          # Simulations in run order: mix, then alone runs
        self.events_loaded = 0
        self.buffered = 0       # demand requests served from the migration buffer
        self.promoted = 0       # policy decisions to promote

    def hooks(self) -> dict:
        hooks = {
            "Simulation.run": lambda args, result: self.sims.append(args[0]),
            "Trace.from_file": self._loaded,
            "MigrationJob.location": self._routed,
        }
        for name in spans.names("policies"):
            hooks[name] = self._decided
        return hooks

    def _loaded(self, args, result):
        self.events_loaded += len(result.events)

    def _routed(self, args, result):
        if result == BUFFER_CHANNEL:
            self.buffered += 1

    def _decided(self, args, result):
        if result.action == PROMOTE:
            self.promoted += 1


def run_command(workload, config, trace_digests, tracer, probe) -> dict:
    """Run one command; return its timings, counts and check results."""
    probe.reset()
    ops = workload.ops_per_command
    # The previous command's Simulations are cyclic garbage; free them
    # outside the timed window so neither its time nor the peak RSS carries
    # over, as when `hybridmem run` starts in a fresh process.
    gc.collect()
    with tracer.span("command"):
        start = time.perf_counter()
        try:
            report = runner.run(config, alone=workload.alone)
            report_json = report.to_json()
            report.to_csv()
        except Exception:  # the run must go on; count the failure
            traceback.print_exc(file=sys.stderr)
            return {"ops": ops, "failed": ops, "failures": ["command raised"]}
        wall = time.perf_counter() - start

    fails = [checks.mix_failures(report, report_json, probe.sims[0])]
    if workload.alone:
        fails += checks.alone_failures(report, probe.sims[1:])
    counts = [checks.sim_counts(sim) for sim in probe.sims]
    total = {k: sum(c[k] for c in counts) for k in counts[0]}
    run_s = tracer.incl(RUN)
    requests = total["issued"] + probe.buffered
    return {
        "ops": ops,
        "failed": sum(1 for f in fails if f),
        "failures": [msg for f in fails for msg in f],
        "wall": wall,
        "setup": tracer.incl(("Trace.from_file", "Simulation.__init__")),
        "run_s": run_s,
        "kips": total["instructions"] / 1000 / run_s,
        "cycles_per_s": total["cycles"] / run_s,
        "requests_per_s": requests / run_s,
        "requests": requests,
        "counts": total,
        "digest": checks.report_digest(report_json, trace_digests),
        "weighted_speedup": report.weighted_speedup or 0.0,
        "elapsed_cycles": report.elapsed_cycles,
    }


def layer_metrics(cmd, tracer, probe) -> dict:
    """Per-layer metrics of one traced command."""
    c = cmd["counts"]
    self_in_run = lambda layer: tracer.self_time(spans.names(layer), root=RUN)
    try_issue = tracer.calls("ChannelController.try_issue")
    pump = tracer.calls("MigrationEngine.pump")
    decide = tracer.calls(spans.names("policies"))
    run_s = tracer.incl(RUN)
    sim_self = tracer.self_time(RUN) + self_in_run("simulator")
    all_in_run = tracer.self_time({n for (r, n) in tracer.totals if r == RUN}, root=RUN)
    out = {
        "trace.load_s": tracer.incl("Trace.from_file"),
        "trace.events": probe.events_loaded,
        "core.self_s": self_in_run("core"),
        "core.calls": tracer.calls(spans.names("core")),
        "core.stall_cycles": c["stall_cycles"],
        "controller.self_s": self_in_run("controller"),
        "controller.try_issue_calls": try_issue,
        "controller.issued": c["issued"],
        "controller.issue_yield": c["issued"] / try_issue if try_issue else 0.0,
        "controller.queue_wait_cycles": c["queue_wait_cycles"],
        "controller.row_hit_rate": c["row_hits"] / max(1, c["row_hits"] + c["row_misses"]),
        "migration.self_s": self_in_run("migration"),
        "migration.pump_calls": pump,
        "migration.blocks": c["blocks"],
        "migration.pump_yield": c["blocks"] / pump if pump else 0.0,
        "migration.pages_promoted": c["pages_promoted"],
        "migration.pages_evicted": c["pages_evicted"],
        "migration.dropped": c["dropped"],
        "migration.jobs_open_at_end": c["jobs_open_at_end"],
        "policies.self_s": self_in_run("policies"),
        "policies.decide_calls": decide,
        "policies.promote_frac": probe.promoted / decide if decide else 0.0,
        "ubm.sample_s": self_in_run("ubm.sample"),
        "ubm.sample_calls": tracer.calls("HotPageCounters.sample"),
        "ubm.store_s": self_in_run("ubm.store"),
        "ubm.store_evictions": c["store_evictions"],
        "simulator.self_s": sim_self,
        "simulator.init_s": tracer.incl("Simulation.__init__"),
        "simulator.run_s": run_s,
        "simulator.accounted_frac": (all_in_run + tracer.self_time(RUN)) / run_s,
        "simulator.events": c["events"],
        "runner.mix_s": tracer.incl(("Simulation.__init__", RUN), root="command"),
        "runner.alone_s": tracer.incl("runner.alone_ipc"),
        "runner.alone_runs": tracer.calls("runner.alone_ipc"),
        "metrics.weighted_speedup": cmd["weighted_speedup"],
        "metrics.elapsed_cycles": cmd["elapsed_cycles"],
        "requests.total": cmd["requests"],
        "requests.buffer": probe.buffered,
        "requests.migration_frac":
            (c["issued"] - c["demand_issued"]) / max(1, cmd["requests"]),
    }
    wall = cmd["wall"]
    out["share.trace"] = out["trace.load_s"] / wall
    out["share.alone"] = out["runner.alone_s"] / wall
    out["share.policy_store"] = (out["policies.self_s"] + out["ubm.store_s"]) / wall
    return out


# ---------------------------------------------------------------------------
# One run


def generate(workload, seed: int, workdir: Path) -> list[list[Path]]:
    """Write the run's traces from a child process.

    The generator's memory then stays out of this process's peak RSS.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--generate", str(workdir),
           "--workload", workload.name, "--seed", str(seed),
           "--instructions", str(workload.instructions)]
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=GENERATE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"trace generation failed:\n{done.stderr}")
    return [[Path(p) for p in mix] for mix in json.loads(done.stdout)]


def _tail(values, better: str):
    """Highest percentile with at least ten samples beyond it, on the bad side.

    Returns (label, value) or None when there are too few samples.
    """
    n = len(values)
    p = math.floor(100 * (1 - 10 / n)) if n else 0
    if p <= 50:
        return None
    ranked = sorted(values, reverse=(better == "higher"))
    return f"p{p if better == 'lower' else 100 - p}", ranked[math.ceil(p * n / 100) - 1]


def measure(workload, seed: int, seconds: float, trace: bool, out=print) -> dict:
    """Run one benchmark run and return its result object."""
    workdir = ROOT / ".bench_work" / f"{workload.name}-s{seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        mixes = generate(workload, seed, workdir)
        if trace:
            mixes = mixes[:TRACED_MIXES]
        configs = [workload.config(paths) for paths in mixes]
        digests = [[file_digest(p) for p in paths] for paths in mixes]
        return _measure(workload, seed, seconds, trace, configs, digests, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def time_yardstick() -> float:
    gc.collect()
    start = time.perf_counter()
    result = yardstick.run()
    elapsed = time.perf_counter() - start
    if result != yardstick.RESULT:
        sys.exit(f"bench: yardstick returned {result}, not {yardstick.RESULT}")
    return elapsed


def _measure(workload, seed, seconds, trace, configs, trace_digests, out) -> dict:
    probe = Probe()
    plain = Tracer(spans.UNTRACED, probe.hooks())
    traced = Tracer(spans.TRACED, probe.hooks())
    untraced_cmds, traced_cmds, layers, records = [], [], [], []
    yardstick_s = []
    first_digest = {}
    failures = []
    attempted = failed = rounds = 0
    start = time.perf_counter()

    def command(mix, tracing, timed=True):
        nonlocal attempted, failed, failures
        tracer = traced if tracing else plain
        if not tracing and timed:
            yardstick_s.append(time_yardstick())
        with tracer:
            cmd = run_command(workload, configs[mix], trace_digests[mix], tracer, probe)
        attempted += cmd["ops"]
        if "digest" in cmd:
            ref = first_digest.setdefault(mix, cmd["digest"])
            if cmd["digest"] != ref and not cmd["failed"]:
                cmd["failed"] = 1
                cmd["failures"].append(f"mix {mix}: report digest changed "
                                       f"from {ref} to {cmd['digest']}")
            if tracing:
                traced_cmds.append(cmd)
                layers.append(layer_metrics(cmd, tracer, probe))
                records.append(tracer.record())
            elif timed:
                untraced_cmds.append(cmd)
        failed += cmd["failed"]
        failures += cmd["failures"]
        tracer.reset()

    def finished(round_done: bool) -> bool:
        elapsed = time.perf_counter() - start
        if elapsed > HARD_LIMIT_S:
            return True
        # A traced run stops only between rounds, so its per-layer means
        # weigh every mix equally; every mix runs twice, untraced and traced.
        return elapsed >= seconds and (rounds >= 2 and round_done or not trace)

    if not trace:
        # Untimed warm-up; the first timed command repeats this mix, so its
        # report digest is checked on every run.
        command(0, tracing=False, timed=False)
    stop = False
    while not stop:
        for mix in range(len(configs)):
            command(mix, tracing=trace and rounds % 2 == 1)
            if finished(round_done=False):
                stop = True
                break
        else:
            rounds += 1
            stop = finished(round_done=True)

    for msg in failures[:20]:
        print(f"bench: FAILED {msg}", file=sys.stderr)
    spec = _spec()
    out(f"workload {workload.name} seed {seed}: {len(configs)} mixes, "
        f"{len(untraced_cmds)} untraced + {len(traced_cmds)} traced commands")
    out(f"  {'fail_rate':<18} {failed / max(1, attempted):>14.6g} {'ratio':<6} "
        f"{failed} failed / {attempted} simulations attempted")
    if trace:
        digest = "".join(first_digest[mix] for mix in sorted(first_digest))
        metrics = _layer_summary(layers, digest, untraced_cmds, traced_cmds,
                                 yardstick_s, spec, out)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"spans-{workload.name}-seed{seed}.json", "w") as fh:
            json.dump(records, fh)
    else:
        metrics = _end_to_end(untraced_cmds, yardstick_s, spec, out)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _end_to_end(cmds, yardstick_s, spec, out) -> dict:
    """The run's end-to-end metrics, scaled to the yardstick's nominal speed.

    Values are totals over the run, not medians: the host flips between a
    fast and a slow state, and the median command and the median yardstick
    of one stretch can fall in different states, while totals over the
    same interleaved stretch cannot. Totals also weigh every mix by its
    share of the work, whichever mixes fall in the middle.
    """
    ref = statistics.fmean(yardstick_s)
    scale = yardstick.NOMINAL_S / ref
    out(f"  {'yardstick':<18} {ref:>14.6g} s      mean, host times below are "
        f"scaled by {yardstick.NOMINAL_S:g} s / this = {scale:.4g}, n={len(yardstick_s)}")
    each = lambda key: [c[key] for c in cmds]
    run_s = sum(each("run_s"))
    total = lambda key: sum(c["counts"][key] for c in cmds)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # name: (per-command samples, run value, power of the scale it takes:
    # times scale with it, rates inversely, memory not at all)
    defs = {
        "wall_s": (each("wall"), statistics.fmean(each("wall")), 1),
        "setup_s": (each("setup"), statistics.fmean(each("setup")), 1),
        "sim_kips": (each("kips"), total("instructions") / 1000 / run_s, -1),
        "sim_cycles_per_s": (each("cycles_per_s"), total("cycles") / run_s, -1),
        "requests_per_s": (each("requests_per_s"), sum(each("requests")) / run_s, -1),
        "peak_rss_mb": ([rss], rss, 0),
    }
    metrics = {}
    for m in spec["end_to_end"]:
        samples, raw, power = defs[m["name"]]
        factor = scale ** power
        value = raw * factor
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        values = [v * factor for v in samples]
        tail = _tail(values, m["better"])
        tail_text = f", {tail[0]} {tail[1]:.6g}" if tail else ""
        raw_text = f", unscaled {raw:.6g}" if factor != 1 else ""
        out(f"  {m['name']:<18} {value:>14.6g} {m['unit']:<6} over the run; per command: "
            f"median {statistics.median(values):.6g}{tail_text}, n={len(values)}{raw_text}")
    return metrics


def _layer_summary(layers, digest, untraced_cmds, traced_cmds, yardstick_s,
                   spec, out) -> dict:
    by_name = {k: statistics.fmean(d[k] for d in layers) for k in layers[0]}
    # The mixes' digests folded into a 48-bit integer, exact as a JSON number.
    by_name["metrics.report_digest"] = int(
        hashlib.sha256(digest.encode()).hexdigest()[:12], 16)
    traced_wall = statistics.median(c["wall"] for c in traced_cmds)
    untraced_wall = statistics.median(c["wall"] for c in untraced_cmds)
    by_name["tracing.wall_s"] = traced_wall
    by_name["tracing.overhead_s"] = traced_wall - untraced_wall
    by_name["host.yardstick_s"] = statistics.median(yardstick_s)
    metrics = {}
    for m in spec["per_layer"]:
        value = by_name[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        out(f"  {m['name']:<30} {value:>16.6g} {m['unit']}")
    return metrics


# ---------------------------------------------------------------------------
# Entry point


def _run_all(args) -> int:
    """Each workload in its own process, so peak RSS does not carry over."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status |= subprocess.run(cmd, timeout=300).returncode
    return status


def _record() -> int:
    """Write the modelled outputs and purpose record of every workload."""
    recorded = [m["name"] for m in _spec()["per_layer"] if m["unit"] != "s"]
    ref = {"build_seeds": list(BUILD_SEEDS), "held_out_seed": HELD_OUT_SEED,
           "workloads": {}}
    for name, workload in WORKLOADS.items():
        runs = ref["workloads"][name] = {}
        for seed in (*BUILD_SEEDS, HELD_OUT_SEED):
            result = measure(workload, seed, 0, trace=True, out=lambda line: None)
            if not result["correct"]:
                print(f"bench: {name} seed {seed} failed its checks", file=sys.stderr)
                return 1
            runs[str(seed)] = {k: result["metrics"][k]["value"] for k in recorded}
            print(name, seed, runs[str(seed)]["metrics.report_digest"], flush=True)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help=f"rewrite {REFERENCE.name} for seeds 1-10 and {HELD_OUT_SEED}")
    p.add_argument("--generate", metavar="DIR", help=argparse.SUPPRESS)
    p.add_argument("--instructions", type=int, help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.record:
        return _record()
    if args.workload is None:
        p.error("--workload is required")
    if args.workload == "all":
        return _run_all(args)
    workload = WORKLOADS[args.workload]
    if args.instructions is not None:   # set by generate() for its child
        workload = replace(workload, instructions=args.instructions)
    if args.generate:
        mixes = write_mixes(workload, args.seed, Path(args.generate))
        print(json.dumps([[str(p) for p in mix] for mix in mixes]))
        return 0
    result = measure(workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
