import json

import pytest

from hybridmem import cli
from hybridmem.metrics import (
    AppResult, EnergyReport, MissingAloneRun, SimReport, harmonic_speedup,
    normalize_reports, perf_per_watt, unfairness, weighted_speedup,
)


def ipc_pairs_from_times(t_shared, t_alone):
    """Fixed work: IPC is inversely proportional to execution time."""
    work = 1000.0
    return [(work / s, work / a) for s, a in zip(t_shared, t_alone)]


# Three applications with alone times 6, 3, 3 sharing the system for 10 each.
FIG5_BASE = ipc_pairs_from_times([10, 10, 10], [6, 3, 3])


def test_weighted_speedup_baseline():
    assert weighted_speedup(FIG5_BASE) == pytest.approx(1.2, abs=5e-4)


def test_weighted_speedup_after_migrating_a():
    pairs = ipc_pairs_from_times([9, 10, 10], [6, 3, 3])
    assert weighted_speedup(pairs) == pytest.approx(1.267, abs=5e-4)


def test_weighted_speedup_after_migrating_b():
    pairs = ipc_pairs_from_times([10, 9, 10], [6, 3, 3])
    assert weighted_speedup(pairs) == pytest.approx(1.233, abs=5e-4)


def test_unfairness_baseline():
    assert unfairness(FIG5_BASE) == pytest.approx(10 / 3, abs=5e-4)


def test_unfairness_identity_and_max():
    assert unfairness([(1.0, 1.0), (2.0, 2.0)]) == 1.0
    assert unfairness([(0.5, 1.0), (1.0, 1.0)]) == 2.0


def test_harmonic_identities():
    assert harmonic_speedup([(0.7, 1.0)] * 4) == pytest.approx(0.7)
    assert harmonic_speedup([(0.5, 1.0), (1.0, 1.0)]) == pytest.approx(2 / 3)
    assert harmonic_speedup([(0.31, 1.0)]) == pytest.approx(0.31)


def test_harmonic_below_arithmetic_mean():
    pairs = [(0.3, 1.0), (0.9, 1.0), (0.6, 1.0)]
    mean = sum(s / a for s, a in pairs) / len(pairs)
    assert harmonic_speedup(pairs) <= mean


def test_missing_alone_run():
    with pytest.raises(MissingAloneRun):
        weighted_speedup([(1.0, None)])
    with pytest.raises(MissingAloneRun):
        harmonic_speedup([])
    with pytest.raises(MissingAloneRun):
        weighted_speedup([(1.0, 0.0)])


def test_perf_per_watt_ratio_contract():
    base = perf_per_watt(2.0, 10.0, 1.0)
    assert perf_per_watt(2.0, 5.0, 1.0) == pytest.approx(2 * base)
    with pytest.raises(ValueError):
        perf_per_watt(2.0, 0.0, 1.0)


def make_report(policy="ubm", ipc_alone=0.5):
    return SimReport(
        policy=policy,
        config={"policy": policy, "seed": 1},
        config_hash="abc",
        elapsed_cycles=1000,
        elapsed_seconds=1000 * 1.875e-9,
        apps=[AppResult(app_id=0, name="a", instructions=100, cycles=900,
                        ipc_shared=0.4, ipc_alone=ipc_alone, t_stall=10,
                        t_delay=20, t_interference=5)],
        energy=EnergyReport(1e-6, 2e-6, 3e-6, 4e-6),
        total_stall=10,
    )


def test_report_round_trip():
    rep = make_report()
    rep.compute_speedups()
    back = SimReport.from_json(rep.to_json())
    assert back.to_json() == rep.to_json()
    assert back.apps[0].speedup == pytest.approx(0.8)


def _damaged(change):
    data = make_report().to_dict()
    change(data)
    return data


@pytest.mark.parametrize("data, message", [
    ({"policy": "ubm"}, r"^report: missing keys config, config_hash, .*apps, energy$"),
    ([1, 2], r"^report is not a JSON object$"),
    (_damaged(lambda d: d.update(extra=1)), r"^report: unexpected keys extra$"),
    (_damaged(lambda d: d["apps"][0].pop("cycles")), r"^report app 0: missing keys cycles$"),
    (_damaged(lambda d: d.update(apps=3)), r"^report 'apps' is not a list$"),
    (_damaged(lambda d: d["energy"].update(x=0)), r"^report 'energy': unexpected keys x$"),
    (_damaged(lambda d: d["energy"].update(nvm_standby_j="x")),
     r"^report 'energy': nvm_standby_j is \"x\", not float$"),
    (_damaged(lambda d: d["apps"][0].update(ipc_shared=None)),
     r"^report app 0: ipc_shared is null, not float$"),
    (_damaged(lambda d: d["apps"][0].update(cycles=1.5, reads=True)),
     r"^report app 0: cycles is 1.5, not int; reads is true, not int$"),
    (_damaged(lambda d: d.update(config=[], weighted_speedup="2")),
     r"^report: config is \[\], not dict; weighted_speedup is \"2\", not float \| None$"),
])
def test_report_from_dict_names_what_does_not_fit(data, message):
    with pytest.raises(ValueError, match=message):
        SimReport.from_dict(data)


@pytest.mark.parametrize("change, message", [
    (lambda d: d["energy"].update(nvm_standby_j="x"),
     'report \'energy\': nvm_standby_j is "x", not float'),
    (lambda d: d["apps"][0].update(ipc_shared=None),
     "report app 0: ipc_shared is null, not float"),
])
def test_cli_report_rejects_a_value_of_the_wrong_type(tmp_path, capsys, change, message):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(_damaged(change)))
    assert cli.main(["report", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_report_accepts_ints_for_floats_and_null_for_optionals():
    data = make_report().to_dict()
    data["elapsed_seconds"] = 2
    data["apps"][0]["ipc_alone"] = None
    rep = SimReport.from_dict(data)
    assert rep.elapsed_seconds == 2 and rep.apps[0].ipc_alone is None


def test_report_csv_contains_apps_and_metrics():
    rep = make_report()
    rep.compute_speedups()
    csv_text = rep.to_csv()
    assert "weighted_speedup" in csv_text
    assert "a,ubm" in csv_text


def test_report_invariants():
    rep = make_report()
    rep.compute_speedups()
    a = rep.apps[0]
    assert 0 < a.speedup <= 1.0 + 1e-9
    assert rep.unfairness >= 1.0
    assert a.t_interference <= a.t_delay


def test_normalize_against_baseline():
    base = make_report(policy="all", ipc_alone=0.8)
    other = make_report(policy="ubm", ipc_alone=0.5)
    for r in (base, other):
        r.compute_speedups()
    table = normalize_reports([base, other], "all")
    assert table["all"]["weighted_speedup"] == pytest.approx(1.0)
    assert table["ubm"]["weighted_speedup"] == pytest.approx(
        other.weighted_speedup / base.weighted_speedup)
    with pytest.raises(ValueError):
        normalize_reports([other], "freq")


def test_energy_total():
    e = EnergyReport(1.0, 2.0, 3.0, 4.0)
    assert e.total_j == 10.0
