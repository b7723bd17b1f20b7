"""Tests of the simulator's event loop and request path."""

import hashlib

import pytest

from hybridmem import runner
from hybridmem.controller import ControllerConfig
from hybridmem.device import READ
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
