"""Self-test of the benchmark at a tiny size.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts src/ on the path)
import checks  # noqa: E402
import yardstick  # noqa: E402
from hybridmem import runner  # noqa: E402
from hybridmem.core import AppCore  # noqa: E402
from workloads import WORKLOADS, file_digest, write_mixes  # noqa: E402

TINY = 4000   # measured instructions per app
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    return replace(WORKLOADS[name], instructions=TINY)


def measure(name, trace):
    lines = []
    result = run.measure(tiny(name), seed=0, seconds=0, trace=trace, out=lines.append)
    return result, "\n".join(lines)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_prints_by_name_with_unit(name):
    result, text = measure(name, trace=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
        line = next(l for l in text.splitlines() if l.split()[:1] == [m["name"]])
        assert f" {m['unit']} " in line and "n=" in line
    assert "fail_rate" in text
    json.dumps(result)


def test_traced_run_layers_and_accounting():
    by_workload = {}
    for name in WORKLOADS:
        result, text = measure(name, trace=True)
        assert result["correct"]
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
        for m in SPEC["per_layer"]:
            assert m["name"] in text
        assert metrics["simulator.accounted_frac"] == pytest.approx(1.0, abs=1e-9)
        by_workload[name] = metrics
    nomig = by_workload["nomig_longtrace"]
    assert nomig["migration.blocks"] == 0 and nomig["policies.decide_calls"] == 0
    assert nomig["runner.alone_runs"] == 0
    assert by_workload["ubm_read"]["runner.alone_runs"] == 4
    assert by_workload["all_write"]["policies.promote_frac"] == 1.0


def test_broken_report_counts_as_failed_operation(monkeypatch):
    real_run = runner.run

    def broken(config, **kwargs):
        report = real_run(config, **kwargs)
        report.apps[0].ipc_shared = AppCore.RETIRE_WIDTH + 1
        return report

    monkeypatch.setattr(runner, "run", broken)
    result, text = measure("ubm_read", trace=False)
    assert not result["correct"]
    assert 1 <= result["failed"] < result["attempted"]


def test_yardstick_result_is_fixed():
    assert yardstick.run() == yardstick.RESULT
    assert yardstick.run(seed=8) != yardstick.RESULT


def test_checks_flag_each_invariant():
    assert checks.app_failures("a", 1.0, 100, 10, 20, 5) == []
    assert checks.app_failures("a", 0.0, 100, 10, 20, 5)
    assert checks.app_failures("a", AppCore.RETIRE_WIDTH + 0.5, 100, 10, 20, 5)
    assert checks.app_failures("a", None, 100, 10, 20, 5)
    assert checks.app_failures("a", 1.0, 100, 10, 20, 21)
    assert checks.app_failures("a", 1.0, 100, 101, 200, 5)


def test_digest_ignores_trace_paths(tmp_path):
    workload = tiny("ubm_read")
    digests, texts = [], []
    for sub in ("a", "b"):
        outdir = tmp_path / sub
        outdir.mkdir()
        paths = write_mixes(workload, 3, outdir)[0]
        report = runner.run(workload.config(paths))
        texts.append(report.to_json())
        digests.append(checks.report_digest(texts[-1], [file_digest(p) for p in paths]))
    assert texts[0] != texts[1]
    assert digests[0] == digests[1]


def test_fails_without_the_simulator(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ubm_read", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert done.stdout.strip() == ""
