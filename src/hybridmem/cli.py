"""Command-line interface: run, sweep, tracegen, report.

Every table the commands write takes its columns from the rows it is given:
`sweep.csv` rows and the `report` table list each run's
`SimReport.summary()`, and the quantum log writes the simulator's rows as
they are.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import sys
from pathlib import Path

from . import runner
from .fields import read_fields
from .metrics import SPEEDUPS, SimReport, normalize_reports
from .policies import POLICY_NAMES
from .trace import PageClass, SynthSpec, TraceError, generate, three_page_spec


def _mib(text: str) -> int:
    return int(text) << 20


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, not {value}")
    return value


def _add_override_args(p: argparse.ArgumentParser):
    # Each override's dest is the ExperimentConfig field it sets; an
    # override left out keeps the config file's value (default None).
    p.add_argument("--config", help="experiment config file (INI-style)")
    p.add_argument("--trace", dest="traces", action="append",
                   help="trace file; repeat for each application")
    p.add_argument("--policy", choices=POLICY_NAMES)
    p.add_argument("--dram-mb", dest="dram_bytes", type=_mib, help="DRAM size in MiB")
    p.add_argument("--nvm-mb", dest="nvm_bytes", type=_mib, help="NVM size in MiB")
    p.add_argument("--quantum", dest="quantum_cycles", type=int,
                   help="management quantum in cycles")
    p.add_argument("--warmup", dest="warmup_instructions", type=int,
                   help="warmup instructions per app")
    p.add_argument("--measured", dest="measured_instructions", type=int,
                   help="measured instructions per app")
    p.add_argument("--t-rcd-mult", type=float, help="NVM activation multiplier")
    p.add_argument("--t-wr-mult", type=float, help="NVM write-recovery multiplier")
    p.add_argument("--seed", type=int)
    p.add_argument("--no-alone", action="store_true",
                   help="skip alone runs (no speedup metrics)")
    p.add_argument("--quantum-log", dest="collect_quantum_log", action="store_true",
                   default=None, help="write per-quantum statistics CSV")
    p.add_argument("--debug-pages", type=_nonnegative, metavar="K", default=0,
                   help="dump the top-K pages by utility to top_pages.csv "
                        "(0: off); it has no rows when the run keeps no page "
                        "statistics: under policy all or with migration off")
    p.add_argument("--out", default="results", help="output directory")


def _resolve_config(args) -> tuple[runner.ExperimentConfig, runner.SweepSpec | None]:
    if args.config:
        config, spec = runner.load_experiment_config(args.config)
    else:
        config, spec = runner.ExperimentConfig(), None
    updates = {}
    for f in dataclasses.fields(config):
        value = getattr(args, f.name, None)
        if value is not None:
            updates[f.name] = tuple(value) if isinstance(value, list) else value
    return dataclasses.replace(config, **updates), spec


def _write_csv(path: Path, rows: list[dict]):
    """Write dict rows under the union of their keys, in first-seen order;
    no rows make an empty file."""
    with open(path, "w", newline="") as fh:
        if rows:
            w = csv.DictWriter(fh, fieldnames=dict.fromkeys(k for r in rows for k in r))
            w.writeheader()
            w.writerows(rows)


def _write_run_outputs(report: SimReport, outdir: Path, args, suffix: str = ""):
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / f"report{suffix}.json").write_text(report.to_json())
    (outdir / f"report{suffix}.csv").write_text(report.to_csv())
    sim = getattr(report, "_sim", None)
    if sim is None:
        return
    if sim.quantum_log:
        _write_csv(outdir / f"quantum_log{suffix}.csv", sim.quantum_log)
    if args.debug_pages:
        if not sim.keeps_page_stats:
            why = ("migration is off" if not sim.config.migration_enabled
                   else f"policy {sim.config.policy} reads none")
            print(f"note: top_pages{suffix}.csv has no rows: the run kept no "
                  f"page statistics ({why})", file=sys.stderr)
        _write_csv(outdir / f"top_pages{suffix}.csv", sim.top_pages(args.debug_pages))


def cmd_run(args) -> int:
    config, _ = _resolve_config(args)
    report = runner.run(config, alone=not args.no_alone)
    _write_run_outputs(report, Path(args.out), args)
    ws = report.weighted_speedup
    print(f"policy={report.policy} cycles={report.elapsed_cycles}"
          + (f" wspeedup={ws:.4f}" if ws is not None else "")
          + f" promoted={report.pages_promoted}")
    return 0


def cmd_sweep(args) -> int:
    config, spec = _resolve_config(args)
    axis = args.axis or (spec and spec.axis)
    if not axis:
        print("error: sweep needs an axis: give --axis with --values, or a "
              "[sweep] section", file=sys.stderr)
        return 2
    if args.axis or args.values is not None:
        # Flags replace the configured axis, its values or both.
        spec = runner.SweepSpec(axis, runner.parse_sweep_values(
            axis, args.values or "", 1 << 20))
    results = runner.sweep(config, spec, alone=not args.no_alone)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    ok = True
    rows = []
    for value, result in results:
        tag = value if spec.axis == "dram_size" else "x".join(map(str, value))
        if isinstance(result, Exception):
            ok = False
            print(f"point {tag}: FAILED: {result}", file=sys.stderr)
            rows.append({"point": tag, "error": str(result)})
            continue
        _write_run_outputs(result, outdir, args, suffix=f"_{tag}")
        rows.append({"point": tag, "policy": result.policy, **result.summary()})
        print(f"point {tag}: wspeedup={result.weighted_speedup}")
    _write_csv(outdir / "sweep.csv", rows)
    return 0 if ok else 1


def _parse_class(text: str) -> PageClass:
    """A `--page-class` spec: comma-separated `PageClass` `field=value` items."""
    entries = [(None, key.strip(), value.strip())
               for key, _, value in (item.partition("=") for item in text.split(","))]
    return PageClass(**read_fields(PageClass, "--page-class", entries))


def cmd_tracegen(args) -> int:
    if args.preset == "three-page":
        spec = three_page_spec(seed=args.seed,
                               mpki=2.0 if args.mpki is None else args.mpki)
    else:
        classes = tuple(_parse_class(c) for c in (args.page_class or []))
        if not classes:
            classes = (PageClass(pages=args.pages, row_hit_prob=args.row_hit_prob,
                                 burst=args.burst),)
        spec = SynthSpec(
            name=args.name,
            target_mpki=10.0 if args.mpki is None else args.mpki,
            classes=classes,
            read_fraction=args.read_fraction,
            seed=args.seed,
        )
    trace = generate(spec, args.accesses)
    trace.save(args.out)
    print(f"wrote {args.out}: {trace.accesses} accesses, "
          f"{trace.header.instructions} instructions, mpki={trace.mpki:.2f}")
    return 0


def cmd_report(args) -> int:
    reports = []
    for path in args.reports:
        text = Path(path).read_text()
        try:
            reports.append(SimReport.from_json(text))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(["policy", "config_hash", *reports[0].summary()])
    for r in reports:
        w.writerow([r.policy, r.config_hash, *r.summary().values()])
    if args.baseline:
        normalized = normalize_reports(reports, args.baseline)
        w.writerow([])
        w.writerow(["policy", *(f"norm_{m}" for m in SPEEDUPS)])
        for policy, row in normalized.items():
            w.writerow([policy, *row.values()])
    text = out.getvalue()
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hybridmem",
        description="Hybrid DRAM-NVM main-memory simulator with "
                    "utility-based page placement.")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="simulate one workload mix")
    _add_override_args(pr)
    pr.set_defaults(func=cmd_run)

    ps = sub.add_parser("sweep", help="run a DRAM-size or NVM-latency sweep")
    _add_override_args(ps)
    ps.add_argument("--axis", choices=["dram_size", "nvm_latency"])
    ps.add_argument("--values",
                    help="dram_size: MiB list '64,128'; nvm_latency: "
                         "'rcd,wr;rcd,wr' multiplier pairs")
    ps.set_defaults(func=cmd_sweep)

    pt = sub.add_parser("tracegen", help="generate a synthetic trace")
    pt.add_argument("--out", required=True, help="output file (.hmt or .hmtx)")
    pt.add_argument("--preset", choices=("three-page",), help="named scenario")
    pt.add_argument("--name", default="synth")
    pt.add_argument("--accesses", type=int, default=100_000)
    pt.add_argument("--mpki", type=float)
    pt.add_argument("--pages", type=int, default=1024)
    pt.add_argument("--burst", type=int, default=PageClass.burst)
    pt.add_argument("--row-hit-prob", type=float, default=PageClass.row_hit_prob)
    pt.add_argument("--read-fraction", type=float, default=SynthSpec.read_fraction)
    pt.add_argument("--seed", type=int, default=SynthSpec.seed)
    pt.add_argument("--page-class", action="append",
                    help="class spec 'pages=64,burst=4,row_hit_prob=0.5,weight=1', "
                         "one item per PageClass field (page_ids space-separated); "
                         "repeatable")
    pt.set_defaults(func=cmd_tracegen)

    pp = sub.add_parser("report", help="merge and normalize run reports")
    pp.add_argument("reports", nargs="+", help="report.json files")
    pp.add_argument("--baseline", help="policy to normalize against (e.g. all)")
    pp.add_argument("--out", help="output CSV path (default: stdout)")
    pp.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
