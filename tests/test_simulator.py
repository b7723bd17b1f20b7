"""Tests of the simulator's event loop and request path."""

import hashlib
import json

import pytest

from hybridmem import runner
from hybridmem.controller import ControllerConfig
from hybridmem.device import READ, DeviceGeometry
from hybridmem.policies import UtilityPolicy
from hybridmem.runner import ExperimentConfig
from hybridmem.simulator import SimConfig, Simulation
from hybridmem.trace import (
    PageClass, SynthSpec, Trace, TraceHeader, generate,
)


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


# -- golden reports --------------------------------------------------------------
# Digests of the report JSON of two small scenarios. A change to the request
# path that keeps the simulated behaviour must leave them as they are.

def _digest(report) -> str:
    return hashlib.sha256(report.to_json().encode()).hexdigest()[:16]


def test_golden_write_heavy_all():
    trace = generate(_gated_write_spec(1), 1000)
    report = runner.run(_gated_write_config(), traces=[trace])
    assert _digest(report) == "a77bf7998aa77e4e"


def test_golden_read_only_ubm():
    traces = [generate(SynthSpec(name=f"app{i}", target_mpki=20.0 + 10 * i,
                                 read_fraction=1.0, seed=i, first_page=300 * i,
                                 classes=(PageClass(pages=256, burst=2, row_hit_prob=0.3),
                                          PageClass(pages=16, weight=3.0))), 1500)
              for i in range(2)]
    config = ExperimentConfig(policy="ubm", dram_bytes=1 << 20, nvm_bytes=16 << 20,
                              quantum_cycles=5000, measured_instructions=30_000)
    report = runner.run(config, traces=traces)
    assert report.apps[0].ipc_shared > 0
    assert _digest(report) == "20a082909f476688"


# Digests of the simulation state after twelve small runs that together
# cover every policy, opportunistic writes on and off, write buffers of 9 to
# 64 entries, 1 to 16 in-flight migration blocks, warmup, stat decay and a
# run cut off by max_cycles.
_SPREAD = {
    "all": ({"policy": "all"}, "a27dc5b876636e8b"),
    "freq": ({"policy": "freq"}, "38b9c7a82dd4feb7"),
    "rbla-warmup": ({"policy": "rbla", "warmup_instructions": 5000}, "a72dc874186fa692"),
    "ubm-st-decay": ({"policy": "ubm-st", "stat_decay": True}, "677329228fc707e4"),
    "ubm": ({"policy": "ubm"}, "d23dfdd91e7e993b"),
    "all-opportunistic-wb9": ({"policy": "all", "write_buffer_capacity": 9,
                               "opportunistic_writes": True}, "c83678aff2b29756"),
    "freq-inflight1": ({"policy": "freq", "migration_inflight_blocks": 1},
                       "10347f3128f744a5"),
    "ubm-wb64-inflight16": ({"policy": "ubm", "write_buffer_capacity": 64,
                             "migration_inflight_blocks": 16}, "26dc2e214c2a351c"),
    "rbla-opportunistic-inflight16": ({"policy": "rbla", "opportunistic_writes": True,
                                       "migration_inflight_blocks": 16},
                                      "72d52337c124a01b"),
    "ubm-st-opportunistic-wb16": ({"policy": "ubm-st", "write_buffer_capacity": 16,
                                   "opportunistic_writes": True,
                                   "migration_inflight_blocks": 2}, "401eec9c0e0dca1b"),
    "ubm-read-only-decay-warmup": ({"policy": "ubm", "read_fraction": 1.0,
                                    "stat_decay": True, "warmup_instructions": 3000},
                                   "a227c85af1613507"),
    "all-cut-off": ({"policy": "all", "max_cycles": 6000}, "9fc6ff3f733b27d1"),
}


def _spread_mix(read_fraction: float):
    return [generate(SynthSpec(name=f"app{i}", target_mpki=30.0 - 12 * i,
                               read_fraction=read_fraction, seed=7 + i,
                               first_page=400 * i,
                               classes=(PageClass(pages=384, burst=1 + 3 * i,
                                                  row_hit_prob=0.4),
                                        PageClass(pages=24, weight=3.0,
                                                  row_hit_prob=0.6))), 1500)
            for i in range(2)]


def _state_digest(sim: Simulation) -> str:
    state = {
        "cycle": sim.cycle,
        "finished": sim.finished,
        "windows": [sim.measured_window(i) for i in range(len(sim.cores))],
        "stall": [core.t_stall for core in sim.cores],
        "page_stall": sorted(sim.page_stall.items()),
        "controllers": [ctrl.stats_snapshot() for ctrl in sim.controllers],
        "engine": [sim.engine.pages_promoted, sim.engine.pages_evicted,
                   sim.engine.dropped, sim.engine.traffic_bytes],
        "energy": sim.total_energy_joules(),
        "threshold": sim.threshold.threshold,
    }
    return hashlib.sha256(json.dumps(state, sort_keys=True).encode()).hexdigest()[:16]


@pytest.mark.parametrize("case", list(_SPREAD))
def test_golden_config_spread(case):
    fields, digest = _SPREAD[case]
    fields = dict(fields)
    read_fraction = fields.pop("read_fraction", 0.7)
    controller = ControllerConfig(**{k: fields.pop(k) for k in
                                     ("write_buffer_capacity", "opportunistic_writes")
                                     if k in fields})
    config = SimConfig(dram_geometry=DeviceGeometry(1 << 20),
                       nvm_geometry=DeviceGeometry(16 << 20), controller=controller,
                       quantum_cycles=5000, measured_instructions=20_000, **fields)
    sim = Simulation(config, _spread_mix(read_fraction)).run()
    assert sim.finished == (config.max_cycles is None)
    assert _state_digest(sim) == digest


def test_read_only_mix_asks_controllers_only_when_they_issue():
    config = SimConfig(dram_geometry=DeviceGeometry(1 << 20),
                       nvm_geometry=DeviceGeometry(16 << 20), migration_enabled=False,
                       quantum_cycles=5000, measured_instructions=20_000)
    sim = Simulation(config, _spread_mix(read_fraction=1.0))
    results = []
    for ctrl in sim.controllers:
        def counted(cycle, try_issue=ctrl.try_issue):
            results.append(try_issue(cycle))
            return results[-1]
        ctrl.try_issue = counted
    sim.run()
    assert sim.finished and len(results) > 500
    assert all(r is not None for r in results)


# -- migration liveness ------------------------------------------------------------

def test_job_blocked_on_full_write_buffer_is_repumped_and_finishes():
    # One idle app, so the only traffic is a single promotion. Its block
    # writes overflow a 4-slot DRAM write buffer; writes issue outside drain
    # mode, so every completed write frees a slot for the stalled job.
    idle = Trace(TraceHeader("idle", 10**9, 8192), [10**9 - 1], [0], [READ])
    controller = ControllerConfig(write_buffer_capacity=4, migration_reserve_writes=0,
                                  opportunistic_writes=True)
    config = SimConfig(controller=controller, measured_instructions=10**9,
                       max_cycles=20_000)
    sim = Simulation(config, [idle])
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


def test_top_pages_utility_is_the_policy_score():
    config = SimConfig(dram_geometry=DeviceGeometry(1 << 20),
                       nvm_geometry=DeviceGeometry(16 << 20), policy="ubm",
                       quantum_cycles=5000, measured_instructions=20_000)
    sim = Simulation(config, _spread_mix(0.7)).run()
    rows = [r for r in sim.top_pages(50)
            if len(sim.store.entries_for_page(r["page"])) == 1]
    assert rows and rows[0]["utility"] > 0
    for r in rows:
        assert r["utility"] == UtilityPolicy().score(r["page"], sim.store, sim)
