"""End-to-end tests of the runner and the CLI: trace -> simulation -> report."""

import argparse
import ast
import csv
import dataclasses
import re
from pathlib import Path

import pytest

import hybridmem
from hybridmem import cli, runner
from hybridmem.device import NVM_BASELINE, DevTiming
from hybridmem.fields import TYPES
from hybridmem.metrics import AppResult, EnergyReport, SimReport
from hybridmem.migration import TagStore
from hybridmem.runner import ExperimentConfig, load_experiment_config
from hybridmem.simulator import RunSettings, SimConfig
from hybridmem.trace import PageClass, SynthSpec, Trace, TraceHeader, generate

SRC = Path(hybridmem.__file__).resolve().parent


def _write_traces(tmp_path, n=2, accesses=1500):
    paths = []
    for i in range(n):
        spec = SynthSpec(name=f"app{i}", target_mpki=20.0 + 10 * i,
                         classes=(PageClass(pages=96, burst=2, row_hit_prob=0.3),
                                  PageClass(pages=16, weight=3.0)),
                         seed=i, first_page=200 * i)
        path = tmp_path / f"app{i}.hmt"
        generate(spec, accesses).save(path)
        paths.append(str(path))
    return tuple(paths)


def _tiny_config(traces, **overrides) -> ExperimentConfig:
    base = dict(traces=traces, dram_bytes=1 << 20, nvm_bytes=16 << 20,
                quantum_cycles=5000, warmup_instructions=2000,
                measured_instructions=20000)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_is_deterministic(tmp_path):
    config = _tiny_config(_write_traces(tmp_path))
    first = runner.run(config).to_json()
    second = runner.run(config).to_json()
    assert first == second
    assert runner.run(config).weighted_speedup > 0


def test_cut_off_run_and_alone_run_share_one_ipc_rule(tmp_path):
    traces = _write_traces(tmp_path, n=1)
    trace = Trace.from_file(traces[0])
    for max_cycles in (200, 3000):   # before and after the warmup marker
        config = _tiny_config(traces, max_cycles=max_cycles)
        report = runner.run(config, alone=False)
        ipc = report.apps[0].ipc_shared
        assert ipc >= 0
        assert ipc == runner.alone_ipc(config, trace)
        if max_cycles == 200:
            assert ipc == 0


# -- config file ---------------------------------------------------------------

def _non_default(f):
    default = f.default
    if f.type == "bool":
        return not default
    if f.type == "tuple[str, ...]":
        return ("a.hmt", "b.hmt")
    if f.type == "tuple[int, ...]":
        return (3, 5)
    if f.type == "float":
        return default + 0.5
    if f.type == "str":
        return {"policy": "freq"}.get(f.name, default + "-x")
    return 7 if default is None else 2 * (default or 1)   # sizes stay whole MiB


def _ini_text(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(map(str, value))
    return str(value)


def test_ini_round_trip_and_cli_flags_match(tmp_path):
    values = {f.name: _non_default(f) for f in dataclasses.fields(ExperimentConfig)}
    expected = ExperimentConfig(**values)
    assert all(getattr(expected, f.name) != f.default
               for f in dataclasses.fields(ExperimentConfig))

    ini = tmp_path / "exp.ini"
    ini.write_text("[experiment]\n" + "".join(
        f"{k} = {_ini_text(v)}\n" for k, v in values.items()))
    loaded, spec = load_experiment_config(ini)
    assert spec is None
    assert loaded == expected

    # Every field with a CLI flag is set by its flag, the rest by a file.
    flags = {"policy": "--policy", "quantum_cycles": "--quantum",
             "warmup_instructions": "--warmup",
             "measured_instructions": "--measured",
             "t_rcd_mult": "--t-rcd-mult", "t_wr_mult": "--t-wr-mult",
             "seed": "--seed"}
    mib_flags = {"dram_bytes": "--dram-mb", "nvm_bytes": "--nvm-mb"}
    argv = ["run", "--quantum-log"]
    argv += [a for t in values["traces"] for a in ("--trace", t)]
    argv += [a for k, flag in flags.items() for a in (flag, str(values[k]))]
    argv += [a for k, flag in mib_flags.items() for a in (flag, str(values[k] >> 20))]
    on_cli = {"traces", "collect_quantum_log", *flags, *mib_flags}
    rest = tmp_path / "rest.ini"
    rest.write_text("[experiment]\n" + "".join(
        f"{k} = {_ini_text(v)}\n" for k, v in values.items() if k not in on_cli))
    args = cli.build_parser().parse_args(argv + ["--config", str(rest)])
    from_cli, _ = cli._resolve_config(args)
    assert from_cli == expected


@pytest.mark.parametrize("text, message", [
    ("policy = ubm\n", "no section headers"),
    ("[sweep]\naxis = dram_size\n", "No option 'values'"),
    ("[sweep]\naxis = nvm_latency\nvalues = 1,1,1; 2,2,2\n",
     "nvm_latency sweep value (1.0, 1.0, 1.0) is not a pair"),
    ("[sweep]\naxis = dram_size\nvalues = 0 1024\n",
     "dram_size sweep value 0 is not a positive byte count"),
    # Every experiment field has a default, so none can be missing.
    ("[experiment]\ncolour = red\n", "unexpected keys colour='red'"),
    ("[experimnet]\npolicy = all\n", "unexpected section experimnet"),
    ("[DEFAULT]\npolicy = all\n[experiment]\n", "unexpected section DEFAULT"),
    ("[sweep]\naxis = dram_size\nvalues = 1048576\nvaleus = 2097152\n",
     "unexpected keys valeus='2097152'"),
    ("[experiment]\npolicy = ubm\npolicy = all\n",
     "option 'policy' in section 'experiment' already exists"),
    ("[experiment]\nmigration_enabled = maybe\n", "migration_enabled is 'maybe', not bool"),
])
def test_bad_config_fails_with_clear_message(tmp_path, capsys, text, message):
    ini = tmp_path / "bad.ini"
    ini.write_text(text)
    with pytest.raises(ValueError, match=re.escape(message)):
        load_experiment_config(ini)
    assert cli.main(["sweep", "--config", str(ini)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_write_buffer_without_room_for_a_drain_fails_with_clear_message(tmp_path, capsys):
    with pytest.raises(ValueError, match="no drain could start"):
        ExperimentConfig(write_buffer=8).sim_config()
    # The CLI has no write-buffer flag; the value comes from a config file.
    ini = tmp_path / "small.ini"
    ini.write_text("[experiment]\n"
                   f"traces = {_write_traces(tmp_path, n=1)[0]}\n"
                   "write_buffer = 8\n")
    assert cli.main(["run", "--config", str(ini), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no drain could start" in err


@pytest.mark.parametrize("setting, message", [
    ("rob_capacity = 0", "rob_capacity must be at least 1, not 0"),
    ("mshr_capacity = 0", "mshr_capacity must be at least 1, not 0"),
    ("warmup_instructions = -3000", "warmup_instructions must be at least 0, not -3000"),
    ("page_bytes = 0", "page_bytes must be positive, not 0"),
    ("page_bytes = -8192", "page_bytes must be positive, not -8192"),
    ("page_bytes = 32", "page_bytes must be a positive multiple of 64, not 32"),
    ("max_cycles = -5", "max_cycles must be at least 1, not -5"),
    ("max_cycles = 0", "max_cycles must be at least 1, not 0"),
    ("dram_bytes = 0", "dram_bytes must be a positive whole number of rows, "
                       "each 8 banks of 8192-byte pages, not 0"),
    ("nvm_bytes = 100000", "nvm_bytes must be a positive whole number of rows, "
                           "each 8 banks of 8192-byte pages, not 100000"),
    ("dram_bytes = 65536", "dram_bytes must be a positive multiple of 16 pages of "
                           "8192 bytes, whole 16-way tag sets, not 65536 (8 pages)"),
    # The multipliers once failed naming the NVM timing field they scale, or
    # with a traceback when infinite.
    ("t_rcd_mult = 0", "t_rcd_mult must be finite and > 0, not 0.0"),
    ("t_wr_mult = -2", "t_wr_mult must be finite and > 0, not -2.0"),
    ("t_rcd_mult = inf", "t_rcd_mult must be finite and > 0, not inf"),
    ("t_wr_mult = nan", "t_wr_mult must be finite and > 0, not nan"),
])
def test_run_setting_the_simulator_cannot_run_fails_with_clear_message(
        tmp_path, capsys, setting, message):
    # Each used to hang, crash or report nonsense; `all` moves every page.
    ini = tmp_path / "bad.ini"
    ini.write_text("[experiment]\npolicy = all\n"
                   f"traces = {_write_traces(tmp_path, n=1)[0]}\n{setting}\n")
    assert cli.main(["run", "--config", str(ini), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("flags, message", [
    (["--t-rcd-mult", "inf"], "t_rcd_mult must be finite and > 0, not inf"),
    (["--t-rcd-mult", "0"], "t_rcd_mult must be finite and > 0, not 0.0"),
    (["--t-wr-mult", "0"], "t_wr_mult must be finite and > 0, not 0.0"),
])
def test_cli_multiplier_the_simulator_cannot_run_fails_naming_it(tmp_path, capsys,
                                                                 flags, message):
    trace = _write_traces(tmp_path, n=1)[0]
    assert cli.main(["run", "--trace", trace, "--no-alone", *flags,
                     "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_timing_file_with_an_infinite_latency_fails_with_clear_message(tmp_path, capsys):
    timing = tmp_path / "inf.cfg"
    timing.write_text("".join(f"{f.name} = {getattr(NVM_BASELINE, f.name)}\n"
                              for f in dataclasses.fields(DevTiming))
                      .replace(f"t_rcd_ns = {NVM_BASELINE.t_rcd_ns}", "t_rcd_ns = inf"))
    ini = tmp_path / "exp.ini"
    ini.write_text(f"[experiment]\ntraces = {_write_traces(tmp_path, n=1)[0]}\n"
                   f"nvm_preset = {timing}\n")
    assert cli.main(["run", "--config", str(ini), "--no-alone",
                     "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (f"error: {timing}: t_rcd_ns must be finite "
                                       f"and > 0, got inf\n")


def test_bad_trace_header_fails_with_path_and_key(tmp_path, capsys):
    trace = tmp_path / "bad.hmt"
    trace.write_bytes(b"HMT1\napp=x\ninstructions=ten\naddress_space=8192\n%%\n")
    assert cli.main(["run", "--trace", str(trace), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {trace}: instructions is 'ten', not int\n"


def test_run_of_a_trace_without_records_fails_with_clear_message(tmp_path, capsys):
    trace = tmp_path / "empty.hmt"
    trace.write_bytes(b"HMT1\napp=x\ninstructions=10\naddress_space=8192\n%%\n")
    assert cli.main(["run", "--trace", str(trace), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: trace for app 0 has no events\n"


# -- CLI -------------------------------------------------------------------------

def test_cli_tracegen_run_report(tmp_path, capsys):
    traces = []
    for i, mpki in enumerate((25, 8)):
        path = tmp_path / f"t{i}.hmt"
        assert cli.main(["tracegen", "--out", str(path), "--accesses", "1500",
                         "--mpki", str(mpki), "--pages", "128",
                         "--seed", str(i)]) == 0
        traces += ["--trace", str(path)]
    out = tmp_path / "out"
    common = traces + ["--dram-mb", "1", "--nvm-mb", "16", "--quantum", "5000",
                       "--measured", "20000"]
    assert cli.main(["run", *common, "--policy", "ubm", "--out", str(out / "ubm"),
                     "--debug-pages", "5"]) == 0
    assert cli.main(["run", *common, "--policy", "all", "--out", str(out / "all")]) == 0
    for policy in ("ubm", "all"):
        assert (out / policy / "report.json").is_file()
        assert (out / policy / "report.csv").is_file()
        assert not (out / policy / "quantum_log.csv").exists()
    assert len((out / "ubm" / "top_pages.csv").read_text().splitlines()) == 6
    assert "note:" not in capsys.readouterr().err

    merged = tmp_path / "merged.csv"
    assert cli.main(["report", str(out / "ubm" / "report.json"),
                     str(out / "all" / "report.json"), "--baseline", "all",
                     "--out", str(merged)]) == 0
    lines = merged.read_text().splitlines()
    assert lines[0].startswith("policy,config_hash,weighted_speedup")
    assert lines[1].startswith("ubm,") and lines[2].startswith("all,")
    assert any(line.startswith("all,1.0,1.0,1.0") for line in lines)


def test_config_hash_names_each_trace_by_its_content(tmp_path):
    # One trace or timing file under two paths is one experiment; a
    # one-record or one-value change is not.
    first = tmp_path / "a" / "t.hmt"
    first.parent.mkdir()
    assert cli.main(["tracegen", "--out", str(first), "--accesses", "1500",
                     "--pages", "128"]) == 0
    trace = Trace.from_file(first)
    copy, changed = tmp_path / "b" / "t.hmt", tmp_path / "c" / "t.hmt"
    copy.parent.mkdir()
    copy.write_bytes(first.read_bytes())
    changed.parent.mkdir()
    addresses = trace.addresses
    addresses[-1] += 64
    Trace(trace.header, trace.gaps, addresses, trace.kinds).save(changed)
    reports = []
    for path in (first, copy, changed):
        out = tmp_path / "out" / path.parent.name
        assert cli.main(["run", "--trace", str(path), "--dram-mb", "1", "--nvm-mb", "16",
                         "--quantum", "5000", "--measured", "20000", "--no-alone",
                         "--out", str(out)]) == 0
        reports.append(SimReport.from_json((out / "report.json").read_text()))
    assert reports[0].config_hash == reports[1].config_hash != reports[2].config_hash
    assert reports[0].config["traces"] == [str(first)]

    values = {f.name: getattr(NVM_BASELINE, f.name)
              for f in dataclasses.fields(DevTiming) if f.name != "name"}
    timing_files = []
    for name, t_rcd_ns in (("a", values["t_rcd_ns"]), ("b", values["t_rcd_ns"]), ("c", 70.0)):
        path = tmp_path / name / "nvm.timing"
        path.write_text("".join(f"{key} = {value}\n" for key, value in
                                {**values, "t_rcd_ns": t_rcd_ns}.items()))
        timing_files.append(path)
    cache, hashes, alone_runs = {}, [], []
    for path in timing_files:
        report = runner.run(_tiny_config((str(first),), nvm_preset=str(path)),
                            alone_cache=cache)
        assert report.config["nvm_preset"] == str(path)
        hashes.append(report.config_hash)
        alone_runs.append(len(cache))
    assert hashes[0] == hashes[1] != hashes[2]
    assert alone_runs == [1, 1, 2]


def test_cli_rejects_a_negative_debug_pages_count(tmp_path, capsys):
    traces = _write_traces(tmp_path, n=1)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--trace", traces[0], "--debug-pages", "-3",
                  "--out", str(out)])
    assert exc.value.code == 2
    assert "error: argument --debug-pages: must be 0 or more, not -3" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--mpki", "0"], "target MPKI must be in (0, 1000], not 0.0"),
    (["--preset", "three-page", "--mpki", "0"],
     "target MPKI must be in (0, 1000], not 0.0"),
    (["--mpki", "nan"], "target MPKI must be in (0, 1000], not nan"),
    (["--mpki", "inf"], "target MPKI must be in (0, 1000], not inf"),
    (["--mpki", "1001"], "target MPKI must be in (0, 1000], not 1001.0"),
    (["--page-class", "pages=4,weight=nan"],
     "class weight must be finite and > 0, not nan"),
    (["--page-class", "pages=4,weight=inf"],
     "class weight must be finite and > 0, not inf"),
    (["--page-class", "pages"], "--page-class: pages is '', not int"),
    (["--page-class", "pages=64,weight="], "--page-class: weight is '', not float"),
    (["--page-class", "pages=x"], "--page-class: pages is 'x', not int"),
    (["--page-class", "pages=4,colour=red"], "--page-class: unexpected keys colour='red'"),
    (["--page-class", "burst=2"], "--page-class: missing keys pages"),
    (["--page-class", "pages=4,pages=8"], "--page-class: repeated key pages='8'"),
], ids=["mpki-0", "three-page-mpki-0", "mpki-nan", "mpki-inf", "mpki-1001",
        "weight-nan", "weight-inf", "no-value", "empty-value", "not-an-int",
        "unknown-field", "no-pages", "repeated-field"])
def test_cli_tracegen_rejects_a_bad_spec(tmp_path, capsys, flags, message):
    out = tmp_path / "t.hmt"
    assert cli.main(["tracegen", "--out", str(out), "--accesses", "100", *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_page_class_spec_round_trip_sets_every_field():
    cls = PageClass(pages=3, weight=2.5, row_hit_prob=0.25, burst=2,
                    read_fraction=0.5, page_stride=4, page_ids=(1, 5, 9))
    assert all(getattr(cls, f.name) != f.default for f in dataclasses.fields(cls))
    text = {f.name: getattr(cls, f.name) for f in dataclasses.fields(cls)}
    text["page_ids"] = " ".join(map(str, cls.page_ids))
    spec = ",".join(f"{k}={v}" for k, v in text.items())
    assert cli._parse_class(spec) == cls


def test_cli_tracegen_without_spec_flags_uses_the_declared_defaults(tmp_path):
    out = tmp_path / "t.hmt"
    assert cli.main(["tracegen", "--out", str(out), "--accesses", "300"]) == 0
    spec = SynthSpec(name="synth", target_mpki=10.0, classes=(PageClass(pages=1024),))
    assert Trace.from_file(out).digest() == generate(spec, 300).digest()


def test_cli_tracegen_rejects_an_unknown_preset(tmp_path, capsys):
    out = tmp_path / "t.hmt"
    with pytest.raises(SystemExit) as exc:
        cli.main(["tracegen", "--out", str(out), "--preset", "bogus"])
    assert exc.value.code == 2
    assert "error: argument --preset: invalid choice: 'bogus'" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("ini, flags, why", [
    ("", ["--policy", "all"], "policy all reads none"),
    ("migration_enabled = false\n", [], "migration is off"),
], ids=["all", "no-migration"])
def test_cli_debug_pages_says_why_a_run_has_no_page_rows(tmp_path, capsys, ini,
                                                         flags, why):
    traces = _write_traces(tmp_path, n=1)
    config = tmp_path / "exp.ini"
    config.write_text(f"[experiment]\ntraces = {traces[0]}\n"
                      "dram_bytes = 1048576\nnvm_bytes = 16777216\n"
                      "quantum_cycles = 5000\nmeasured_instructions = 20000\n" + ini)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), *flags, "--no-alone",
                     "--debug-pages", "5", "--out", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == ["note: top_pages.csv has no rows: the run kept no page "
                   f"statistics ({why})"]
    assert (out / "top_pages.csv").read_text() == ""


@pytest.mark.parametrize("text, message", [
    ('{"policy": "ubm"}', "report: missing keys config, "),
    ("[1, 2]", "report is not a JSON object"),
    ("{", "Expecting property name"),
    ('{"policy": "ubm", "policy": "all"}', 'repeated key policy="all"'),
])
def test_cli_report_on_a_json_that_is_not_a_report(tmp_path, capsys, text, message):
    path = tmp_path / "report.json"
    path.write_text(text)
    assert cli.main(["report", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and message in err


def test_quantum_log_from_config_file_is_written(tmp_path):
    traces = _write_traces(tmp_path, n=1)
    ini = tmp_path / "exp.ini"
    ini.write_text("[experiment]\n"
                   f"traces = {traces[0]}\n"
                   "dram_bytes = 1048576\nnvm_bytes = 16777216\n"
                   "quantum_cycles = 5000\nmeasured_instructions = 20000\n"
                   "collect_quantum_log = true\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(ini), "--no-alone",
                     "--out", str(out)]) == 0
    rows = (out / "quantum_log.csv").read_text().splitlines()
    assert rows[0].startswith("quantum,cycle,total_stall,threshold")
    assert len(rows) > 2


def test_quantum_log_columns_are_the_keys_of_its_rows(tmp_path):
    config = _tiny_config(_write_traces(tmp_path), collect_quantum_log=True)
    report = runner.run(config, alone=False)
    rows = report._sim.quantum_log
    cli._write_run_outputs(report, tmp_path, argparse.Namespace(debug_pages=0))
    with open(tmp_path / "quantum_log.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert len(rows) > 1 and all(list(row) == header for row in rows)
    assert header[:4] == ["quantum", "cycle", "total_stall", "threshold"]
    assert {"dram_row_hit_rate", "nvm_row_hit_rate"} <= set(header)


def _metric_rows(report_csv: Path) -> dict:
    with open(report_csv, newline="") as fh:
        return {row[1]: row[3] for row in csv.reader(fh) if row[0] == "metric"}


def test_cli_sweep_writes_one_report_per_point_and_a_summary_row_each(tmp_path):
    traces = _write_traces(tmp_path)
    out = tmp_path / "out"
    argv = ["sweep", *(a for t in traces for a in ("--trace", t)), "--nvm-mb", "16",
            "--quantum", "5000", "--warmup", "2000", "--measured", "20000",
            "--axis", "dram_size", "--values", "1,2", "--out", str(out)]
    assert cli.main(argv) == 0
    points = ["1048576", "2097152"]
    assert sorted(p.name for p in out.glob("report_*.json")) == [
        f"report_{p}.json" for p in points]
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["point"] for row in rows] == points
    for row in rows:
        metrics = _metric_rows(out / f"report_{row['point']}.csv")
        assert {k: row[k] for k in metrics} == metrics

    merged = tmp_path / "merged.csv"
    jsons = [str(out / f"report_{p}.json") for p in points]
    assert cli.main(["report", *jsons, "--out", str(merged)]) == 0
    summary = SimReport.from_json(Path(jsons[0]).read_text()).summary()
    assert merged.read_text().splitlines()[0] == ",".join(
        ["policy", "config_hash", *summary])


def test_cli_nvm_latency_sweep_sets_both_multipliers_at_each_point(tmp_path):
    traces = _write_traces(tmp_path, n=1)
    out = tmp_path / "out"
    argv = ["sweep", "--trace", traces[0], "--nvm-mb", "16", "--quantum", "5000",
            "--measured", "20000", "--axis", "nvm_latency", "--values", "1,1;2,3",
            "--no-alone", "--out", str(out)]
    assert cli.main(argv) == 0
    for tag, rcd, wr in (("1.0x1.0", 1.0, 1.0), ("2.0x3.0", 2.0, 3.0)):
        config = SimReport.from_json((out / f"report_{tag}.json").read_text()).config
        assert (config["t_rcd_mult"], config["t_wr_mult"]) == (rcd, wr)


def _sweep_ini(tmp_path, sweep: str) -> Path:
    ini = tmp_path / "exp.ini"
    ini.write_text(f"[experiment]\ntraces = {_write_traces(tmp_path, n=1)[0]}\n"
                   "nvm_bytes = 16777216\nquantum_cycles = 5000\n"
                   "measured_instructions = 20000\n" + sweep)
    return ini


def test_cli_sweep_values_replace_the_configured_axis_values(tmp_path):
    ini = _sweep_ini(tmp_path, "[sweep]\naxis = dram_size\nvalues = 1048576\n")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(ini), "--values", "2", "--no-alone",
                     "--out", str(out)]) == 0
    assert [p.name for p in out.glob("report_*.json")] == ["report_2097152.json"]


def test_cli_sweep_point_the_simulator_rejects_writes_an_error_row(tmp_path, capsys):
    # 1056768 bytes is not a whole number of DRAM rows.
    ini = _sweep_ini(tmp_path, "[sweep]\naxis = dram_size\nvalues = 1048576 1056768\n")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(ini), "--no-alone",
                     "--out", str(out)]) == 1
    assert [p.name for p in out.glob("report_*.json")] == ["report_1048576.json"]
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["point"] for row in rows] == ["1048576", "1056768"]
    assert not rows[0]["error"] and "whole number of rows" in rows[1]["error"]
    assert f"point 1056768: FAILED: {rows[1]['error']}" in capsys.readouterr().err


@pytest.mark.parametrize("axis, values, message", [
    ("dram_latency", (1 << 20,), "unknown sweep axis 'dram_latency'"),
    ("dram_size", (), "sweep needs at least one value"),
    ("dram_size", (2 << 20, 1 << 20), "sweep values must be strictly increasing"),
    ("nvm_latency", ((1, 1), (1, 1)), "sweep values must be strictly increasing"),
    ("nvm_latency", ((1, 1), (1, float("inf"))), "nvm_latency sweep value (1, inf) is "
     "not a pair of finite positive (t_rcd_mult, t_wr_mult) multipliers"),
])
def test_sweep_spec_rejects_what_it_cannot_sweep(axis, values, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        runner.SweepSpec(axis, values).validate()


def test_cli_sweep_of_an_infinite_multiplier_fails_before_any_point(tmp_path, capsys):
    # It used to run the finite point and report the other as
    # `FAILED: cannot convert float infinity to integer`.
    ini = _sweep_ini(tmp_path, "")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(ini), "--axis", "nvm_latency",
                     "--values", "1,1;1,inf", "--no-alone", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: nvm_latency sweep value (1.0, inf) is not a pair of finite positive "
        "(t_rcd_mult, t_wr_mult) multipliers\n")
    assert not list(out.glob("report_*.json"))


def test_cli_sweep_values_without_any_axis_fail_naming_the_flag(tmp_path, capsys):
    ini = _sweep_ini(tmp_path, "")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(ini), "--values", "1,2",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--axis" in err
    assert not out.exists()


# -- one declaration per setting -------------------------------------------------

@pytest.mark.parametrize("cls", [ExperimentConfig, DevTiming, TraceHeader, PageClass,
                                 SimReport, AppResult, EnergyReport],
                         ids=lambda cls: cls.__name__)
def test_every_settings_annotation_has_a_row(cls):
    # A field declared with a new annotation must say how it reads.
    for f in dataclasses.fields(cls):
        assert f.type.removesuffix(" | None") in TYPES, f"{cls.__name__}.{f.name}"


def test_default_experiment_is_the_default_simulation():
    # Pins the defaults the two configs cannot share by inheritance: device
    # sizes, timing presets, queue capacities and the page size.
    assert ExperimentConfig().sim_config() == SimConfig()


def test_no_setting_is_declared_twice():
    own = {cls: set(vars(cls).get("__annotations__", {}))
           for cls in (RunSettings, ExperimentConfig, SimConfig)}
    assert not own[ExperimentConfig] & own[SimConfig]
    assert not (own[ExperimentConfig] | own[SimConfig]) & own[RunSettings]


# -- source rules ----------------------------------------------------------------

@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_imports_inside_functions(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    offenders = [
        f"{module}:{node.lineno}"
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not offenders, f"import inside a function body: {offenders}"


@pytest.mark.parametrize("cls, owner", [(Trace, "trace.py"),
                                        (TagStore, "migration.py")])
def test_only_the_owning_module_reads_private_state(cls, owner):
    # A loaded trace decodes its records on demand; code elsewhere that read
    # its body or decode state would see a part of the trace, or none. The
    # tag store's sets and reservations change only through its methods and
    # the engine that owns which pages are moving.
    private = {name for name in cls.__slots__ if name.startswith("_")}
    offenders = [
        f"{path.name}:{node.lineno} .{node.attr}"
        for path in sorted(SRC.glob("*.py")) if path.name != owner
        for node in ast.walk(ast.parse(path.read_text(), filename=path.name))
        if isinstance(node, ast.Attribute) and node.attr in private
    ]
    assert private and not offenders, f"private {cls.__name__} state read: {offenders}"


def test_every_slot_is_read():
    # A `__slots__` field that nothing loads is state the model never uses.
    slots, loads = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=path.name)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets):
                for elt in node.value.elts:
                    slots[elt.value] = f"{path.name}:{elt.lineno}"
    unread = sorted(f"{name} ({where})" for name, where in slots.items()
                    if name not in loads)
    assert not unread, f"__slots__ fields never read: {unread}"
