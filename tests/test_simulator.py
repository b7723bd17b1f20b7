"""Tests of the simulator's event loop and request path."""

import hashlib
import json
import math
import random
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hybridmem import runner, simulator
from hybridmem.controller import BLOCK_BYTES, ChannelController, ControllerConfig, MemRequest
from hybridmem.core import AppCore
from hybridmem.device import (
    BUFFER_CHANNEL, DRAM_CHANNEL, NVM_CHANNEL, READ, DeviceGeometry,
)
from hybridmem.migration import EMPTY_SET
from hybridmem.policies import POLICY_NAMES, StallTimePolicy, UtilityPolicy
from hybridmem.runner import ExperimentConfig
from hybridmem.simulator import SimConfig, Simulation
from hybridmem.trace import (
    _FIRST_CHUNK, PageClass, SynthSpec, Trace, TraceHeader, generate,
)
from hybridmem.ubm import HotPageCounters


def _gated_write_spec(seed: int) -> SynthSpec:
    """One write-heavy app whose core gates on the full NVM write buffer."""
    return SynthSpec(name="stream", target_mpki=30.0, read_fraction=0.3, seed=seed,
                     classes=(PageClass(3072, row_hit_prob=0.7),
                              PageClass(32, weight=3.0, row_hit_prob=0.5)))


def _gated_write_config() -> ExperimentConfig:
    return ExperimentConfig(policy="all", dram_bytes=16 << 20, write_buffer=32,
                            quantum_cycles=25_000, measured_instructions=25_000)


class _TimeWatch(Simulation):
    """Records every event scheduled before the current cycle."""

    def __init__(self, config, traces):
        self.past_events = []
        super().__init__(config, traces)

    def _push(self, cycle, prio, payload):
        if cycle < self.cycle:
            self.past_events.append((cycle, prio, self.cycle))
        super()._push(cycle, prio, payload)


def test_gated_core_never_dispatches_in_the_past():
    config = _gated_write_config().sim_config()
    for seed in range(1, 6):
        sim = _TimeWatch(config, [generate(_gated_write_spec(seed), 1000)]).run()
        assert sim.finished
        assert sim.past_events == [], f"seed {seed}: {sim.past_events[:3]}"


def test_event_before_the_current_cycle_is_rejected():
    sim = Simulation(_gated_write_config().sim_config(),
                     [generate(_gated_write_spec(1), 100)])
    sim.cycle = 10
    with pytest.raises(RuntimeError, match=r"priority 1\) scheduled at cycle 9,"):
        sim._push(9, 1, None)


class _PhaseOrder(Simulation):
    """Records, in order, the cycle of every service phase and quantum end."""

    def __init__(self, config, traces):
        self.calls = []
        super().__init__(config, traces)

    def _phase(self, cycle):
        self.calls.append((cycle, "phase"))
        super()._phase(cycle)

    def _end_quantum(self, cycle):
        self.calls.append((cycle, "quantum"))
        super()._end_quantum(cycle)


def test_a_cycle_runs_one_phase_and_runs_it_before_the_quantum():
    # A 500-cycle quantum makes many quantum ends share a cycle with a phase.
    config = replace(_small_config(policy="all"), quantum_cycles=500)
    sim = _PhaseOrder(config, _spread_mix(read_fraction=0.7)).run()
    assert sim.finished and sim.engine.pages_promoted > 0
    phases = [c for c, what in sim.calls if what == "phase"]
    assert len(phases) == len(set(phases)), "a cycle ran two service phases"
    shared = set(phases) & {c for c, what in sim.calls if what == "quantum"}
    assert len(shared) > 5
    for c in shared:
        assert sim.calls.index((c, "phase")) < sim.calls.index((c, "quantum"))


def test_a_ready_request_on_a_second_bank_issues_in_the_next_cycle(monkeypatch):
    # Two promotions requested before `run()` queue block reads on NVM banks
    # 1 and 2. The service phase they request runs at cycle 0 and issues one
    # read; the other bank's read issues at cycle 1, a cycle in which no
    # completion, injection or core event falls.
    sim = _idle_simulation()
    events, issued = [], []

    def recorded(name, method):
        def wrapper(self, *args):
            events.append((args[-1], name))
            return method(self, *args)
        return wrapper

    for owner, name in ((Simulation, "_complete"), (Simulation, "_arrive"),
                        (Simulation, "_phase"), (AppCore, "run_to")):
        monkeypatch.setattr(owner, name, recorded(name, getattr(owner, name)))

    def try_issue(ctrl, cycle, method=ChannelController.try_issue):
        req = method(ctrl, cycle)
        if req is not None:
            issued.append((cycle, ctrl, req.bank_id))
        return req

    monkeypatch.setattr(ChannelController, "try_issue", try_issue)
    for page in (1, 2):
        assert sim.engine.request_promotion(page, cycle=0)
    sim.config = replace(sim.config, max_cycles=1)
    sim.run()
    assert events[0] == (0, "_phase")
    assert issued == [(0, sim._nvm, 1), (1, sim._nvm, 2)]
    assert [e for e in events if e[0] == 1] == [(1, "_phase")]


def test_simulation_instances_have_no_dict():
    # Slots keep every attribute load of the hot methods on the fast path
    # (a dict past 30 attributes is not); test subclasses still add theirs.
    sim = Simulation(_small_config(), _spread_mix(read_fraction=0.7))
    assert not hasattr(sim, "__dict__")
    with pytest.raises(AttributeError):
        sim.unlisted = 1


def test_core_instances_have_no_dict():
    for core in Simulation(_small_config(), _spread_mix(read_fraction=0.7)).cores:
        assert not hasattr(core, "__dict__")
        with pytest.raises(AttributeError):
            core.unlisted = 1


def test_controller_instances_have_no_dict():
    # Nor do their per-kind queue records, which every request reads.
    for ctrl in Simulation(_small_config(), _spread_mix(read_fraction=0.7)).controllers:
        for record in (ctrl, *ctrl.queues):
            assert not hasattr(record, "__dict__")
            with pytest.raises(AttributeError):
                record.unlisted = 1


# -- the benchmark's tracing hooks and counts -----------------------------------
# `bench/spans.py` times each layer by replacing the methods it lists on their
# classes. A hot path that stops calling one of them (fused into its caller,
# say) would read 0 in that layer's metrics without failing anything else.
# `bench/checks.py` reads the simulator's counters by name, so a rename would
# otherwise fail only the bench's own slow self-test.

def _bench_module(name: str):
    """`bench/<name>.py`, executed from its source without writing anything."""
    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    # A dataclass looks its module up while it is being built.
    sys.modules[module.__name__] = module
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def test_every_traced_method_is_defined_on_its_class():
    spans = _bench_module("spans")
    missing = [name for owner, attr, name in spans.TRACED if attr not in vars(owner)]
    assert not missing


def test_every_traced_layer_method_is_called_on_a_short_mix(monkeypatch):
    spans = _bench_module("spans")
    layers = ("core", "policies", "ubm.sample", "ubm.store")
    calls = {}

    def counting(fn, name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for layer in layers:
        for owner, attr, name in spans.LAYERS[layer]:
            calls[name] = 0
            monkeypatch.setattr(owner, attr, counting(vars(owner)[attr], name))
    # `ubm` calls every method of these layers but `AllPolicy.decide`.
    for policy in ("ubm", "all"):
        assert Simulation(_small_config(policy=policy), _spread_mix(0.7)).run().finished
    assert not [name for name, n in calls.items() if n == 0]


def _nomig_longtrace_case():
    """A `nomig_longtrace` mix (bench/workloads.py): four applications,
    migration off, traces 20 windows long; a window of 10,000 instructions."""
    workloads = _bench_module("workloads")
    workload = replace(workloads.WORKLOADS["nomig_longtrace"], instructions=10_000)
    span = workload.instructions * workload.trace_span
    traces = [generate(spec, math.ceil(span * spec.target_mpki / 1000))
              for spec in workloads.specs(workload, seed=1, mix=0)]
    return workload.config(()).sim_config(), traces


@pytest.mark.parametrize("case", ["ubm", "one-application-all-writes", "nomig_longtrace"])
def test_bench_counts_match_the_simulators_own_state(case):
    if case == "ubm":   # two applications, migrating
        config, traces = _spread_case(case)
    elif case == "nomig_longtrace":
        config, traces = _nomig_longtrace_case()
    else:
        fields, read_fraction, _ = _ALONE["all-writes"]
        config, traces = _small_config(**fields), _spread_mix(read_fraction)[:1]
    sim = _Injections(config, traces).run()
    counts = _bench_module("checks").sim_counts(sim)
    snapshots = [ctrl.stats_snapshot() for ctrl in sim.controllers]
    migrates = config.migration_enabled
    assert sim.finished and (sim.engine.pages_promoted > 0) == migrates
    # The issue counts as each controller's per-kind records hold them.
    assert counts["issued"] == sum(q.hits + q.misses for ctrl in sim.controllers
                                   for q in ctrl.queues)
    assert counts["demand_issued"] == sum(n for app in sim.app_issued
                                          for by_kind in app for n in by_kind)
    assert (counts["demand_issued"] < counts["issued"]) == migrates
    assert counts["instructions"] >= len(sim.cores) * config.measured_instructions
    assert counts["row_hits"] == sum(snap["row_hits"] for snap in snapshots)
    assert counts["row_misses"] == sum(snap["row_misses"] for snap in snapshots)
    assert counts["row_hits"] + counts["row_misses"] == counts["issued"]
    assert counts["blocks"] == len(sim.injected)


# -- golden reports --------------------------------------------------------------
# Digests of the report JSON of two small scenarios. A change to the request
# path that keeps the simulated behaviour must leave them as they are.

def _digest(report) -> str:
    return hashlib.sha256(report.to_json().encode()).hexdigest()[:16]


def _reloaded(traces, tmp_path):
    """`traces` saved as `.hmt` files and loaded back, their records undecoded."""
    paths = [tmp_path / f"app{i}.hmt" for i in range(len(traces))]
    for trace, path in zip(traces, paths):
        trace.save(path)
    return [Trace.from_file(path) for path in paths]


def test_golden_write_heavy_all(tmp_path):
    # In memory, then through the `.hmt` loader, which decodes on demand.
    traces = [generate(_gated_write_spec(1), 1000)]
    for mix in (traces, _reloaded(traces, tmp_path)):
        report = runner.run(_gated_write_config(), traces=mix)
        assert _digest(report) == "a77bf7998aa77e4e"


def _read_only_mix():
    return [generate(SynthSpec(name=f"app{i}", target_mpki=20.0 + 10 * i,
                               read_fraction=1.0, seed=i, first_page=300 * i,
                               classes=(PageClass(pages=256, burst=2, row_hit_prob=0.3),
                                        PageClass(pages=16, weight=3.0))), 1500)
            for i in range(2)]


def _read_only_config(**fields) -> ExperimentConfig:
    return ExperimentConfig(**{"policy": "ubm", "dram_bytes": 1 << 20,
                               "nvm_bytes": 16 << 20, "quantum_cycles": 5000,
                               "measured_instructions": 30_000, **fields})


def test_golden_read_only_ubm(tmp_path):
    traces = _read_only_mix()
    for mix in (traces, _reloaded(traces, tmp_path)):
        report = runner.run(_read_only_config(), traces=mix)
        assert report.apps[0].ipc_shared > 0
        assert _digest(report) == "a74893ff58d6d563"


class _BusyMeter(Simulation):
    """Records every demand request and the cycle each one completes."""

    def __init__(self, config, traces):
        self.dispatched = []
        self.completed = {}
        super().__init__(config, traces)

    def dispatch(self, core, addr, kind, cycle):
        req = super().dispatch(core, addr, kind, cycle)
        self.dispatched.append(req)
        return req

    def _complete(self, req, cycle):
        if req.is_demand:
            self.completed[req] = cycle
        super()._complete(req, cycle)

    def busy_cycles(self, app: int) -> int:
        """Cycles in which `app` had a demand request outstanding."""
        total = end = 0
        for start, stop in sorted((r.dispatch_cycle, self.completed.get(r, self.cycle))
                                  for r in self.dispatched if r.app_id == app):
            if stop > end:
                total += stop - max(start, end)
                end = stop
        return total


def test_t_delay_counts_every_cycle_with_a_request_outstanding():
    # One quantum spans the run. A read whose completion empties the app's
    # requests lets its core dispatch again in the same call; that opens
    # the next busy span only after the finished one is counted.
    config = _read_only_config(quantum_cycles=10**9).sim_config()
    sim = _BusyMeter(config, _read_only_mix()).run()
    assert sim.finished
    assert [core.t_delay for core in sim.cores] == [sim.busy_cycles(i)
                                                    for i in range(len(sim.cores))]


class _SampledHot(HotPageCounters):
    """MLP counters that record whether every sampling tick saw each
    application's in-flight demand reads and writes, and no hot record
    with more of them than its core."""

    def __init__(self, sim):
        super().__init__(sim.cores)
        self.sim = sim

    def sample(self, count=1):
        sim = self.sim
        sim.samples += 1
        counts = [[core.outstanding_reads, core.outstanding_writes] for core in self.cores]
        if counts != sim.in_flight:
            sim.wrong.append((sim.cycle, "sample", counts))
        sim.check_hot_records()
        super().sample(count)


class _InFlight(_BusyMeter):
    """Counts each application's demand reads and writes dispatched and not
    yet completed (`in_flight`), and records in `wrong` every dispatch or
    completion after which a core's `outstanding_reads`/`outstanding_writes`
    differ from them, or its busy span is not open exactly while one is.
    Its sampler (`_SampledHot`) adds every sampling tick at which a hot
    page's record holds more in-flight reads or writes than its core: the
    core's counts are what `HotPageCounters.sample` divides by."""

    def __init__(self, config, traces):
        self.in_flight = [[0, 0] for _ in traces]   # by [app][kind]
        self.wrong = []
        self.checks = self.samples = 0
        super().__init__(config, traces)
        self.hot = _SampledHot(self)

    def dispatch(self, core, addr, kind, cycle):
        req = super().dispatch(core, addr, kind, cycle)
        self.in_flight[core.app_id][kind] += 1
        self._check(req)
        return req

    def _complete(self, req, cycle):
        # Before the completion runs: its core may dispatch inside it.
        if req.is_demand:
            self.in_flight[req.app_id][req.kind] -= 1
        super()._complete(req, cycle)
        self._check(req)

    def _check(self, req):
        self.checks += 1
        for core, (reads, writes) in zip(self.cores, self.in_flight):
            if ((core.outstanding_reads, core.outstanding_writes) != (reads, writes)
                    or (core.delay_anchor is None) != (reads + writes == 0)):
                self.wrong.append((self.cycle, core.app_id, req.id, reads, writes))

    def check_hot_records(self):
        # Not after each dispatch: one nested in a completion runs after the
        # core's count went down but before the page's record did.
        apps = len(self.cores)
        for key, (m_read, m_write, *_, core) in self.hot.entries.items():
            if (core is not self.cores[key % apps] or m_read > core.outstanding_reads
                    or m_write > core.outstanding_writes or not m_read + m_write):
                self.wrong.append((self.cycle, "hot record", key, m_read, m_write))


@pytest.mark.parametrize("group", ["spread", "fuzz", "gated-write"])
def test_in_flight_counts_are_the_dispatched_requests_not_yet_completed(group):
    # Each core holds its application's only in-flight counts; the busy
    # spans (T_delay) and the MLP sampler both read them.
    cases = {"spread": lambda: [_spread_case(case) for case in _SPREAD],
             "fuzz": lambda: [_fuzz_case(seed) for seed in _FUZZ],
             "gated-write": lambda: [(_gated_write_config().sim_config(),
                                      [generate(_gated_write_spec(1), 1000)])]}[group]()
    checks = samples = writes = 0
    for config, traces in cases:
        sim = _InFlight(config, traces).run()
        assert sim.wrong == []
        assert [core.t_delay for core in sim.cores] == [sim.busy_cycles(i)
                                                        for i in range(len(sim.cores))]
        checks, samples = checks + sim.checks, samples + sim.samples
        writes += sum(app[1][0] + app[1][1] for app in sim.app_issued)
    assert checks > 1000 and writes > 100
    assert (samples > 100) == (group != "gated-write")   # `all` keeps no statistics


def test_loaded_long_trace_runs_as_in_memory_and_decodes_a_prefix(tmp_path):
    # Each trace spans at least 20 measured windows (600 accesses per window
    # for app 0, 360 for app 1).
    config = _small_config(policy="ubm")
    traces = _spread_mix(0.7, accesses=12_000)
    loaded = _reloaded(traces, tmp_path)
    digest = _state_digest(Simulation(config, traces).run())
    assert _state_digest(Simulation(config, loaded).run()) == digest
    assert all(len(t.decoded_columns[0]) < t.accesses for t in loaded)


def test_loaded_short_trace_wraps_across_a_chunk_boundary(tmp_path):
    # Both cores replay one loaded trace of a first chunk and a short second
    # one: each core decodes or finds decoded the chunk past its index, and
    # wraps only at the end of the trace.
    config = _small_config(policy="ubm", measured_instructions=40_000)
    traces = _spread_mix(0.7, accesses=_FIRST_CHUNK + 100)[:1]
    loaded = _reloaded(traces, tmp_path)
    sim = Simulation(config, loaded * 2).run()
    assert sim.finished
    assert all(core.head > loaded[0].header.instructions for core in sim.cores)
    assert _state_digest(sim) == _state_digest(Simulation(config, traces * 2).run())


# Digests of the simulation state after sixteen small runs that together
# cover every policy, opportunistic writes on and off, write buffers of 9 to
# 64 entries, 1 to 16 in-flight migration blocks, warmup, stat decay, runs
# with migration off and a run cut off by max_cycles. With migration off no
# policy acts, so `ubm` and `freq` share a digest; `all` ignores the stat
# store, so decaying it leaves `all`'s digest as it is.
_SPREAD = {
    "all": ({"policy": "all"}, "8644ccc29d8ffda3"),
    "freq": ({"policy": "freq"}, "54be8208c4f7c8dc"),
    "rbla-warmup": ({"policy": "rbla", "warmup_instructions": 5000}, "09c6686f1a62b255"),
    "ubm-st-decay": ({"policy": "ubm-st", "stat_decay": True}, "436266247ff6b639"),
    "ubm": ({"policy": "ubm"}, "01e57bf8d2bf0be6"),
    "all-opportunistic-wb9": ({"policy": "all", "write_buffer_capacity": 9,
                               "opportunistic_writes": True}, "ee0ebb448fdf8729"),
    "freq-inflight1": ({"policy": "freq", "migration_inflight_blocks": 1},
                       "5d65a3c46c07c693"),
    "ubm-wb64-inflight16": ({"policy": "ubm", "write_buffer_capacity": 64,
                             "migration_inflight_blocks": 16}, "ba2fad4a9b7cff4a"),
    "rbla-opportunistic-inflight16": ({"policy": "rbla", "opportunistic_writes": True,
                                       "migration_inflight_blocks": 16},
                                      "f89d777632dd395a"),
    "ubm-st-opportunistic-wb16": ({"policy": "ubm-st", "write_buffer_capacity": 16,
                                   "opportunistic_writes": True,
                                   "migration_inflight_blocks": 2}, "01d3e7e8a7d01cfd"),
    "ubm-read-only-decay-warmup": ({"policy": "ubm", "read_fraction": 1.0,
                                    "stat_decay": True, "warmup_instructions": 3000},
                                   "d91dd1ade7434a56"),
    "all-cut-off": ({"policy": "all", "max_cycles": 6000}, "760e6a06af0659c0"),
    "ubm-no-migration": ({"policy": "ubm", "migration_enabled": False},
                         "e43d4eadb6a1fc6a"),
    "freq-no-migration": ({"policy": "freq", "migration_enabled": False},
                          "e43d4eadb6a1fc6a"),
    "ubm-read-only-no-migration-warmup": ({"policy": "ubm", "read_fraction": 1.0,
                                           "migration_enabled": False,
                                           "warmup_instructions": 3000},
                                          "a236cd23e76b2fe2"),
    "all-decay": ({"policy": "all", "stat_decay": True}, "8644ccc29d8ffda3"),
}


def _small_config(**fields) -> SimConfig:
    """A small configuration; `fields` override its defaults."""
    return SimConfig(**{"dram_geometry": DeviceGeometry(1 << 20),
                        "nvm_geometry": DeviceGeometry(16 << 20),
                        "quantum_cycles": 5000, "measured_instructions": 20_000,
                        **fields})


def _spread_mix(read_fraction: float, accesses: int = 1500):
    return [generate(SynthSpec(name=f"app{i}", target_mpki=30.0 - 12 * i,
                               read_fraction=read_fraction, seed=7 + i,
                               first_page=400 * i,
                               classes=(PageClass(pages=384, burst=1 + 3 * i,
                                                  row_hit_prob=0.4),
                                        PageClass(pages=24, weight=3.0,
                                                  row_hit_prob=0.6))), accesses)
            for i in range(2)]


def _state_digest(sim: Simulation) -> str:
    state = {
        "cycle": sim.cycle,
        "finished": sim.finished,
        "windows": [sim.measured_window(i) for i in range(len(sim.cores))],
        "stall": [core.t_stall for core in sim.cores],
        "controllers": [ctrl.stats_snapshot() for ctrl in sim.controllers],
        "engine": [sim.engine.pages_promoted, sim.engine.pages_evicted,
                   sim.engine.dropped, sim.engine.traffic_bytes],
        "energy": sim.total_energy_joules(),
        "threshold": sim.threshold.threshold,
    }
    return hashlib.sha256(json.dumps(state, sort_keys=True).encode()).hexdigest()[:16]


@pytest.mark.parametrize("case", list(_SPREAD))
def test_golden_config_spread(case):
    config, traces = _spread_case(case)
    sim = Simulation(config, traces).run()
    assert sim.finished == (config.max_cycles is None)
    assert _state_digest(sim) == _SPREAD[case][1]


def _spread_case(case: str):
    """The configuration and mix of one `_SPREAD` case."""
    fields = dict(_SPREAD[case][0])
    read_fraction = fields.pop("read_fraction", 0.7)
    controller = ControllerConfig(**{k: fields.pop(k) for k in
                                     ("write_buffer_capacity", "opportunistic_writes")
                                     if k in fields})
    return _small_config(controller=controller, **fields), _spread_mix(read_fraction)


class _Completions(Simulation):
    """Records every completed request."""

    def __init__(self, config, traces):
        self.completed = []
        super().__init__(config, traces)

    def _complete(self, req, cycle):
        self.completed.append(req)
        super()._complete(req, cycle)


# Digests of one-application runs, like every alone run: the mixes above
# run two applications, and the golden reports see an alone run only
# through `ipc_alone`. With one application every interference term is 0.
_ALONE = {
    "all-writes": ({"policy": "all"}, 0.7, "57d876b746bf79e1"),
    "ubm-read-only": ({"policy": "ubm"}, 1.0, "e268e34c4cd25ab9"),
}


@pytest.mark.parametrize("case", list(_ALONE))
def test_golden_one_application(case):
    fields, read_fraction, digest = _ALONE[case]
    sim = _Completions(_small_config(**fields), _spread_mix(read_fraction)[:1]).run()
    assert sim.finished
    assert _state_digest(sim) == digest
    demand = [r for r in sim.completed if r.is_demand]
    assert demand and all(r.interference_delay == 0 for r in demand)
    assert sim.cores[0].t_interference == 0
    assert sim.measured_window(0)["t_interference"] == 0


# Digests of sixteen small runs whose configurations are drawn from fixed
# seeds, beyond the hand-picked cases above: 1-3 applications, every
# policy, write buffers of 9-64 entries with opportunistic writes on and
# off, 1-16 in-flight blocks, tag associativity 2-16, preloaded pages,
# warmup and migration off. Every app reads at least 30% of the time (see
# the pure-writer defect below).
_FUZZ = {
    1: "5fe54082f78b5b21", 3: "b60a70ab0954aad3", 5: "5a29baa919d2dc48",
    8: "de815ee484be73d8", 9: "7b6d45d6350a6b89", 14: "33cde47c16019448",
    16: "645c187c3d796939", 17: "6c41762c078a6aab", 19: "a4dc19be2d91a8fa",
    23: "08b015348b37dc68", 24: "916c235662e44aa1", 26: "e2cbbd0988249cbb",
    27: "c51efe0d1f7c0370", 32: "d7291aaa63d9baf8", 35: "e971798ed103af1c",
    40: "a10747d604daf535",
}


def _fuzz_case(seed: int):
    """A small configuration and mix drawn from `seed`."""
    rng = random.Random(seed)
    traces = [generate(SynthSpec(
        name=f"app{i}", target_mpki=rng.uniform(5.0, 35.0),
        read_fraction=rng.choice((0.3, 0.5, 0.7, 0.9, 1.0)), seed=rng.randrange(1000),
        first_page=300 * i,
        classes=(PageClass(rng.randint(32, 256), burst=rng.randint(1, 4),
                           row_hit_prob=rng.uniform(0.0, 0.8)),
                 PageClass(rng.randint(8, 32), weight=rng.uniform(1.0, 4.0),
                           row_hit_prob=rng.uniform(0.0, 0.8)))), 1000)
        for i in range(rng.randint(1, 3))]
    dram = DeviceGeometry(1 << 20)
    assoc = rng.choice((2, 4, 8, 16))
    controller = ControllerConfig(
        write_buffer_capacity=rng.choice((9, 16, 32, 64, rng.randint(10, 63))),
        opportunistic_writes=rng.random() < 0.5)
    config = SimConfig(
        policy=rng.choice(POLICY_NAMES), dram_geometry=dram,
        nvm_geometry=DeviceGeometry(16 << 20), controller=controller,
        quantum_cycles=rng.choice((1000, 2000, 5000)),
        migration_enabled=rng.random() < 0.8,
        warmup_instructions=rng.choice((0, 0, 1000, 2000)),
        measured_instructions=rng.randint(5000, 10000),
        migration_inflight_blocks=rng.choice((1, 16, rng.randint(2, 15))),
        tag_associativity=assoc,
        # One page per set, so no set overflows.
        preload_dram_pages=tuple(rng.sample(range(dram.pages // assoc),
                                            rng.choice((0, 0, 4, 8)))),
        stat_decay=rng.random() < 0.3)
    return config, traces


@pytest.mark.parametrize("seed", list(_FUZZ))
def test_fuzzed_config_digest(seed):
    config, traces = _fuzz_case(seed)
    sim = Simulation(config, traces).run()
    assert sim.finished
    assert _state_digest(sim) == _FUZZ[seed]


def test_fuzzed_configs_cover_the_drawn_space():
    cases = [_fuzz_case(seed) for seed in _FUZZ]
    configs = [config for config, _ in cases]

    def seen(field):
        return {field(c) for c in configs}

    assert {len(traces) for _, traces in cases} == {1, 2, 3}
    assert {c.policy for c in configs if c.migration_enabled} == set(POLICY_NAMES)
    assert seen(lambda c: c.migration_enabled) == {True, False}
    assert seen(lambda c: c.controller.opportunistic_writes) == {True, False}
    assert {9, 64} <= seen(lambda c: c.controller.write_buffer_capacity)
    assert {1, 16} <= seen(lambda c: c.migration_inflight_blocks)
    assert {2, 16} <= seen(lambda c: c.tag_associativity)
    assert seen(lambda c: bool(c.preload_dram_pages)) == {True, False}
    assert seen(lambda c: c.warmup_instructions > 0) == {True, False}


def test_read_only_mix_asks_controllers_only_when_they_issue(monkeypatch):
    sim = Simulation(_small_config(migration_enabled=False),
                     _spread_mix(read_fraction=1.0))
    results = []

    def counted(ctrl, cycle, try_issue=ChannelController.try_issue):
        results.append(try_issue(ctrl, cycle))
        return results[-1]

    monkeypatch.setattr(ChannelController, "try_issue", counted)
    sim.run()
    assert sim.finished and len(results) > 500
    assert all(r is not None for r in results)


class _Injections(Simulation):
    """Records the id of every injected migration request, and every one
    not addressed to its job's moving page on the move's source channel
    (reads) or destination channel (writes); every completion after which
    the engine's count of stopped jobs is off, or a job that is not stopped
    holds buffered writes or could take more reads; and every re-pump of a
    stopped job, from `MigrationEngine.pump` or from its own block's
    completion, that injected nothing. A job that a completion starts
    (`_finish_move`) is not a re-pump."""

    def __init__(self, config, traces):
        self.injected = []
        self.misaddressed = []
        self.miscounted = []
        self.broken = []
        self.repumps = 0
        self.completion_repumps = 0
        self.wasted = []
        super().__init__(config, traces)
        engine = self.engine
        caller = []   # innermost engine method on the stack that may re-pump

        def within(name, method):
            def wrapped(*args):
                caller.append(name)
                try:
                    return method(*args)
                finally:
                    caller.pop()
            return wrapped

        def pump_job(job, cycle, pump_job=engine.pump_job):
            before = engine.traffic_bytes
            pump_job(job, cycle)
            if caller and caller[-1] is not None:
                self.repumps += 1
                self.completion_repumps += caller[-1] == "finish"
                if engine.traffic_bytes == before:
                    self.wasted.append((caller[-1], cycle))

        engine.pump = within("pump", engine.pump)
        engine.finish_block_read = within("finish", engine.finish_block_read)
        engine.finish_block_write = within("finish", engine.finish_block_write)
        engine._finish_move = within(None, engine._finish_move)
        engine.pump_job = pump_job

    def inject_migration(self, job, kind, block, cycle):
        req = super().inject_migration(job, kind, block, cycle)
        if req is not None:
            self.injected.append(req.id)
            # A victim moves from DRAM to NVM, a promotion from NVM to DRAM.
            src, dst = ((DRAM_CHANNEL, NVM_CHANNEL) if job.moving == job.victim
                        else (NVM_CHANNEL, DRAM_CHANNEL))
            channel = src if kind == READ else dst
            if (req.page_id, req.channel, req.mig_block) != (job.moving, channel, block):
                self.misaddressed.append((cycle, job.page, kind, block))
        return req

    def check_blocks(self):
        """Every admitted block was addressed from its job and counted once."""
        assert self.misaddressed == []
        assert self.engine.traffic_bytes == BLOCK_BYTES * len(self.injected)

    def _complete(self, req, cycle):
        super()._complete(req, cycle)
        engine = self.engine
        if engine.n_blocked != sum(job.blocked for job in engine.jobs):
            self.miscounted.append(cycle)
        for job in engine.jobs:
            if not job.blocked and (job.pending_writes or (
                    job.inflight != engine.inflight_blocks and job.next_read != job.blocks)):
                self.broken.append((cycle, job.page))


def test_finished_migration_requests_are_reused_with_fresh_ids(monkeypatch):
    built = []

    class Counted(MemRequest):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if not self.is_demand:
                built.append(self)

    monkeypatch.setattr(simulator, "MemRequest", Counted)
    config, traces = _spread_case("all-opportunistic-wb9")
    sim = _Injections(config, traces).run()
    assert sim.finished and len(sim.injected) > 10_000
    assert len(built) <= sim.engine.MAX_JOBS * config.migration_inflight_blocks
    # FR-FCFS breaks ties on the id, so a re-armed request takes a new one.
    assert all(a < b for a, b in zip(sim.injected, sim.injected[1:]))
    assert sim.miscounted == []
    sim.check_blocks()


@pytest.mark.parametrize("case", ["all-opportunistic-wb9", "write-heavy-golden"])
def test_migration_jobs_keep_their_invariants_and_repump_only_to_inject(case):
    # The block hand-off skips `pump_job` for a job that is not stopped, which
    # is exact only while such a job has nothing else to inject.
    if case == "write-heavy-golden":
        config = _gated_write_config().sim_config()
        traces = [generate(_gated_write_spec(1), 1000)]
    else:
        config, traces = _spread_case(case)
    sim = _Injections(config, traces).run()
    assert sim.finished and sim.engine.pages_promoted > 0
    assert sim.broken == [] and sim.miscounted == []
    assert sim.repumps > sim.completion_repumps > 0 and sim.wasted == []
    sim.check_blocks()


# -- the core ---------------------------------------------------------------------

class _CheckedCore(AppCore):
    """An `AppCore` whose every `advance(now)` that moves it is checked not
    to pass a planned wake: it dispatches nothing, a free tail reaches its
    next memory op at or after `now`, and a full window whose free head can
    reach the slot that resumes dispatch frees it at or after `now`."""

    __slots__ = ()

    def advance(self, now):
        sim, cycle, w = self.sim, self.cycle, self.RETIRE_WIDTH
        if now > cycle:
            bend = None
            if self.tail_block is None:
                bend = "tail"
                due = cycle - (self.tail - self.next_mem_pos) // w
            elif self.tail_block == "rob" and self.head_pin is None:
                need = self.tail - self.rob_capacity + 1
                wr = self.window_reads
                if (wr[0][0] if wr else self.tail) >= need:
                    bend = "rob"
                    due = cycle - (self.head - need) // w
            if bend is not None:
                sim.checked[bend] += 1
                if now > due:
                    sim.passed.append((self.app_id, cycle, now, bend))
        dispatched = sim._next_req_id
        super().advance(now)
        if sim._next_req_id != dispatched:
            sim.passed.append((self.app_id, cycle, now, "dispatch"))
        # A core that passed a wake may never dispatch again: end the run.
        sim.finished |= bool(sim.passed)


class _Advances(Simulation):
    """Runs `_CheckedCore`s; records the first `advance` that passed a
    planned wake in `passed`, and counts the calls checked against each
    bend."""

    def __init__(self, config, traces):
        self.passed = []
        self.checked = {"tail": 0, "rob": 0}
        super().__init__(config, traces)
        for core in self.cores:
            core.__class__ = _CheckedCore


def _mshr_bound_case(mshr_capacity: int):
    """One app reading in bursts of 16 pages at 200 MPKI, migration off."""
    trace = generate(SynthSpec(name="bursts", target_mpki=200.0, read_fraction=1.0,
                               classes=(PageClass(pages=2048, burst=16,
                                                  row_hit_prob=0.2),)), 4000)
    return _small_config(migration_enabled=False, mshr_capacity=mshr_capacity), [trace]


@pytest.mark.parametrize("group", ["spread", "fuzz", "mshr-bound"])
def test_no_advance_passes_a_planned_wake(group):
    cases = {"spread": lambda: [_spread_case(case) for case in _SPREAD],
             "fuzz": lambda: [_fuzz_case(seed) for seed in _FUZZ],
             "mshr-bound": lambda: [_mshr_bound_case(2)]}[group]()
    checked = {"tail": 0, "rob": 0}
    for config, traces in cases:
        sim = _Advances(config, traces).run()
        assert sim.passed == []
        for bend, n in sim.checked.items():
            checked[bend] += n
    # The MSHR-bound mix never fills its window.
    assert checked["tail"] > 100 and (checked["rob"] > 0) == (group != "mshr-bound")


def test_a_binding_mshr_limit_blocks_the_core_and_caps_its_ipc(monkeypatch):
    blocked = []

    def try_dispatch(core, method=AppCore._try_dispatch):
        method(core)
        if core.tail_block == "mshr":
            blocked.append(core.cycle)

    monkeypatch.setattr(AppCore, "_try_dispatch", try_dispatch)
    ipcs = []
    for mshrs in (1, 2, 32):
        sim = Simulation(*_mshr_bound_case(mshrs)).run()
        assert sim.finished
        ipcs.append(sim.config.measured_instructions / sim.measured_window(0)["cycle"])
        if mshrs < 32:
            assert blocked, f"{mshrs} MSHRs never blocked the core"
        blocked.clear()
    assert ipcs[0] < ipcs[1] < ipcs[2]


# -- migration liveness ------------------------------------------------------------

def _idle_simulation(**fields) -> Simulation:
    """One app that issues nothing, so the only traffic is what a test injects."""
    idle = Trace(TraceHeader("idle", 10**9, 8192), [10**9 - 1], [0], [READ])
    return Simulation(SimConfig(measured_instructions=10**9, **fields), [idle])


# Three pages of one set of a 2-way tag store over the default DRAM.
_SETS = DeviceGeometry(512 << 20).pages // 2
_SET_PAGES = tuple(7 + i * _SETS for i in range(3))


def test_job_blocked_on_full_write_buffer_is_repumped_and_finishes():
    # A single promotion. Its block writes overflow a 4-slot DRAM write
    # buffer; writes issue outside drain mode, so every completed write
    # frees a slot for the stalled job.
    controller = ControllerConfig(write_buffer_capacity=4, migration_reserve_writes=0,
                                  opportunistic_writes=True)
    sim = _idle_simulation(controller=controller, max_cycles=20_000)
    engine = sim.engine
    blocked = []
    pump_job = engine.pump_job

    def watched(job, cycle):
        pump_job(job, cycle)
        blocked.append(job.blocked)

    engine.pump_job = watched
    assert engine.request_promotion(page_id=77, cycle=0)
    sim.run()
    assert any(blocked), "the job never stopped on the full write buffer"
    assert engine.pages_promoted == 1 and not engine.jobs
    assert sim.tag.resident(77)


def test_demand_routing_follows_each_block_of_an_eviction_then_its_promotion():
    # `victim` is the LRU way of a full 2-way set, so promoting `page` into
    # that set first evicts it. The engine of an unrun simulation is driven
    # block by block; its pumped requests stay queued and never complete.
    victim, kept, page = _SET_PAGES
    sim = _idle_simulation(tag_associativity=2, preload_dram_pages=(victim, kept))
    engine = sim.engine
    assert engine.request_promotion(page, cycle=0)
    job = engine.migrating[page]
    assert engine.migrating[victim] is job and job.victim == victim
    n = sim.blocks_per_page

    def routes(p):
        return [engine.route(p, b) for b in range(n)]

    for moved, src, dst in ((victim, DRAM_CHANNEL, NVM_CHANNEL),
                            (page, NVM_CHANNEL, DRAM_CHANNEL)):
        for b in range(n):
            assert routes(moved) == [dst] * b + [src] * (n - b)
            engine.finish_block_read(job, b, cycle=0)
            assert routes(moved) == [dst] * b + [BUFFER_CHANNEL] + [src] * (n - b - 1)
            if moved == victim:
                assert routes(page) == [NVM_CHANNEL] * n   # waits for the victim
            engine.finish_block_write(job, b, cycle=0)
        assert routes(moved) == [dst] * n
    assert engine.pages_evicted == 1 and engine.pages_promoted == 1
    assert not engine.jobs and not engine.migrating
    assert sim.tag.resident(page) and not sim.tag.resident(victim)


def test_promotion_waiting_on_a_set_of_migrating_ways_starts_when_one_finishes():
    # Three promotions into one 2-way set: the first two take both ways, so
    # the third waits in `pending` with no victim to evict until the first
    # promotion finishes and its page becomes the set's LRU resident page.
    first, second, third = _SET_PAGES
    sim = _idle_simulation(controller=ControllerConfig(opportunistic_writes=True),
                           tag_associativity=2, max_cycles=200_000)
    engine = sim.engine
    for p in _SET_PAGES:
        assert engine.request_promotion(p, cycle=0)
    assert list(engine.pending) == [third] and len(engine.jobs) == 2
    started = []
    finish_block_write = engine.finish_block_write

    def watched(job, block, cycle):
        if not started:
            assert list(engine.pending) == [third] and third not in engine.migrating
        promoted = engine.pages_promoted
        finish_block_write(job, block, cycle)
        if not started and engine.pages_promoted > promoted:
            started.append((job.page, engine.migrating[third].victim))
            assert not engine.pending

    engine.finish_block_write = watched
    sim.run()
    assert started == [(first, first)]
    assert engine.pages_promoted == 3 and engine.pages_evicted == 1
    assert not engine.jobs and not engine.pending and not engine.migrating
    assert sim.tag.resident(second) and sim.tag.resident(third)
    assert engine.route(first, 0) == NVM_CHANNEL


def test_a_promotion_waiting_on_its_set_does_not_hold_back_the_next():
    # The third page of the set waits, both ways mid-migration; page 8's set
    # has free ways and two job slots are idle, so its promotion starts.
    sim = _idle_simulation(tag_associativity=2)
    engine = sim.engine
    for p in _SET_PAGES + (8,):
        assert engine.request_promotion(p, cycle=0)
    assert sorted(job.page for job in engine.jobs) == sorted(_SET_PAGES[:2] + (8,))
    assert list(engine.pending) == [_SET_PAGES[2]]


def test_top_pages_utility_is_the_policy_score():
    sim = Simulation(_small_config(policy="ubm"), _spread_mix(0.7)).run()
    rows = [r for r in sim.top_pages(50)
            if len(sim.store.entries_for_page(r["page"])) == 1]
    assert rows and rows[0]["utility"] > 0
    for r in rows:
        assert r["utility"] == UtilityPolicy().score(r["page"], sim.store, sim)
        assert r["delta_stall"] == StallTimePolicy().score(r["page"], sim.store, sim)


# -- page statistics -------------------------------------------------------------

@pytest.mark.parametrize("fields", [{"policy": "ubm", "migration_enabled": False},
                                    {"policy": "all"}], ids=["no-migration", "all"])
def test_runs_whose_policy_reads_no_page_statistics_keep_none(fields, monkeypatch):
    samples = []
    monkeypatch.setattr(HotPageCounters, "sample",
                        lambda self, *args, **kwargs: samples.append(args))
    sim = Simulation(_small_config(**fields), _spread_mix(0.7)).run()
    assert sim.finished and not sim.keeps_page_stats
    assert sim.engine.pages_promoted > 0 or not sim.config.migration_enabled
    assert list(sim.store.iter_entries()) == [] and sim.hot.entries == {}
    assert samples == []
    assert sim.top_pages(5) == []


@pytest.mark.parametrize("policy", ["freq", "rbla", "ubm-st", "ubm"])
def test_policies_that_score_pages_keep_page_statistics(policy):
    sim = Simulation(_small_config(policy=policy), _spread_mix(0.7)).run()
    assert sim.keeps_page_stats
    entries = list(sim.store.iter_entries())
    assert entries and any(e.weight_read for e in entries)   # samples folded in
    assert len(sim.top_pages(5)) == 5


@pytest.mark.parametrize("fields", [{"policy": "ubm", "migration_enabled": False},
                                    {"policy": "all"}], ids=["no-migration", "all"])
def test_sets_that_never_hold_a_key_build_no_dict(fields):
    # A 4 GiB DRAM has 32,768 tag sets. A run with no page statistics fills
    # no stat set, and one with migration off no tag set either.
    config = _small_config(dram_geometry=DeviceGeometry(4 << 30),
                           nvm_geometry=DeviceGeometry(16 << 30), **fields)
    sim = Simulation(config, _spread_mix(0.7))
    assert len(sim.tag._sets) == 32_768
    assert all(s is EMPTY_SET for s in sim.tag._sets + sim.store.sets)
    sim.run()
    assert sim.finished and all(s is EMPTY_SET for s in sim.store.sets)
    landed = any(s is not EMPTY_SET for s in sim.tag._sets)
    assert landed == config.migration_enabled == (sim.engine.pages_promoted > 0)


# -- end-to-end properties ---------------------------------------------------------
# Random small mixes under every policy, with migration on and off. One
# known defect is left out of the drawn space, pinned by a test below:
# every app reads at least 30% of the time (as much as the most
# write-heavy bench shape).

_apps = st.lists(st.builds(
    dict, mpki=st.floats(2.0, 40.0), read_fraction=st.floats(0.3, 1.0),
    pages=st.integers(16, 256), burst=st.integers(1, 4),
    row_hit_prob=st.floats(0.0, 0.9), seed=st.integers(0, 1000)),
    min_size=1, max_size=3)


def _small_mix(apps):
    return [generate(SynthSpec(name=f"app{i}", target_mpki=a["mpki"],
                               read_fraction=a["read_fraction"], seed=a["seed"],
                               first_page=300 * i,
                               classes=(PageClass(a["pages"], burst=a["burst"],
                                                  row_hit_prob=a["row_hit_prob"]),
                                        PageClass(16, weight=2.0))), 400)
            for i, a in enumerate(apps)]


@settings(max_examples=100, deadline=None)
@given(apps=_apps, policy=st.sampled_from(POLICY_NAMES),
       migration_enabled=st.booleans(), stat_decay=st.booleans(),
       quantum_cycles=st.integers(1000, 20_000), sampling_period=st.integers(5, 60),
       warmup_instructions=st.integers(0, 2000),
       measured_instructions=st.integers(1000, 4000),
       write_buffer_capacity=st.integers(9, 64), opportunistic_writes=st.booleans(),
       migration_inflight_blocks=st.integers(1, 16))
def test_every_run_finishes_within_the_accounting_bounds(
        apps, write_buffer_capacity, opportunistic_writes, **fields):
    controller = ControllerConfig(write_buffer_capacity=write_buffer_capacity,
                                  opportunistic_writes=opportunistic_writes)
    config = SimConfig(dram_geometry=DeviceGeometry(1 << 20),
                       nvm_geometry=DeviceGeometry(16 << 20), controller=controller,
                       max_cycles=2_000_000, **fields)
    sim = Simulation(config, _small_mix(apps)).run()
    assert sim.finished
    for i, core in enumerate(sim.cores):
        win = sim.measured_window(i)
        assert 0 < runner._ipc(core, win) <= AppCore.RETIRE_WIDTH
        assert win["t_stall"] <= win["cycle"]
        assert win["t_interference"] <= win["t_delay"]


def test_an_app_without_memory_events_in_its_window_never_stalls():
    # The first app's warmup and measured window both lie in the gap before
    # its only memory access, while the second app keeps memory busy.
    idle = Trace(TraceHeader("idle", 10**6, 8192), [10**6 - 1], [0], [READ])
    config = _small_config(warmup_instructions=2000)
    sim = Simulation(config, [idle, _spread_mix(0.7)[1]]).run()
    assert sim.finished and sim.cores[1].t_stall > 0
    win = sim.measured_window(0)
    assert win["cycle"] > 0 and win["reads"] + win["writes"] == 0
    assert win["t_stall"] == 0 and win["t_delay"] == 0


def test_ipc_after_warmup_stays_within_the_retire_width():
    # Instruction 1 retires in cycle 1 beside instructions 2 and 3, so a
    # warmup marker rounded up to cycle 1 would leave 1000 instructions in
    # 333 cycles.
    config = _small_config(quantum_cycles=1000, warmup_instructions=1,
                           measured_instructions=1000, migration_enabled=False)
    sim = Simulation(config, _small_mix([dict(mpki=2.0, read_fraction=0.0, pages=16,
                                              burst=1, row_hit_prob=0.0, seed=0)]))
    sim.run()
    assert sim.finished
    ipc = runner._ipc(sim.cores[0], sim.measured_window(0))
    assert ipc <= AppCore.RETIRE_WIDTH


# -- known defects -------------------------------------------------------------
# Each test pins a defect that is not fixed yet. It fails while the defect
# stands; once fixed, strict xfail fails the run until the marker goes, and
# the property test above can draw the case.

@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a write drain lasts while a writer refills the buffer, "
                   "and a ready write always beats a read")
def test_a_pure_writer_does_not_starve_reads():
    traces = [generate(SynthSpec(name="writer", target_mpki=30.0, read_fraction=0.0,
                                 seed=1, classes=(PageClass(128, burst=4),)), 400),
              generate(SynthSpec(name="reader", target_mpki=10.0, read_fraction=1.0,
                                 seed=2, first_page=300,
                                 classes=(PageClass(128),)), 400)]
    config = _small_config(measured_instructions=5000, migration_enabled=False,
                           max_cycles=100_000)
    sim = Simulation(config, traces).run()
    assert sim.finished   # the reader stops at 781 instructions, 7 reads issued
