"""End-to-end tests of the runner and the CLI: trace -> simulation -> report."""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

import hybridmem
from hybridmem import cli, runner
from hybridmem.runner import ExperimentConfig, load_experiment_config
from hybridmem.simulator import RunSettings, SimConfig
from hybridmem.trace import PageClass, SynthSpec, generate

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
    trace = hybridmem.Trace.from_file(traces[0])
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


def test_bad_trace_header_fails_with_path_and_key(tmp_path, capsys):
    trace = tmp_path / "bad.hmt"
    trace.write_bytes(b"HMT1\napp=x\ninstructions=ten\naddress_space=8192\n%%\n")
    assert cli.main(["run", "--trace", str(trace), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {trace}: ") and "instructions='ten'" in err


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
    (["--page-class", "pages"], "class field 'pages' needs a value"),
    (["--page-class", "pages=64,weight="], "class field 'weight' needs a value"),
    (["--page-class", "pages=x"], "class field 'pages' needs int value, got 'x'"),
    (["--page-class", "colour=red"], "unknown class field 'colour'"),
], ids=["mpki-0", "three-page-mpki-0", "mpki-nan", "mpki-inf", "mpki-1001",
        "weight-nan", "weight-inf", "no-value", "empty-value", "not-an-int",
        "unknown-field"])
def test_cli_tracegen_rejects_a_bad_spec(tmp_path, capsys, flags, message):
    out = tmp_path / "t.hmt"
    assert cli.main(["tracegen", "--out", str(out), "--accesses", "100", *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
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


# -- one declaration per setting -------------------------------------------------

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
