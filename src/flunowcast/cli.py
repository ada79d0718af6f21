"""Command-line front end for the nowcasting pipeline.

Exit codes: 0 success, 1 data error (one stderr line naming its
DataError subclass), 2 usage error (argparse prints the grammar). Files
are written only to paths named in flags; stdout carries human-readable summaries.

Each subparser names its command's handler (`set_defaults(run=...)`). `run` alone
touches files: it reads the inputs if the command defines `--cases`, has the handler
build every output as bytes, then writes them, so a refusal leaves no file. An I/O
failure on a later output leaves the earlier ones; a temporary file and a rename would
change how `--out /dev/stdout`, pipes, symlinks and read-only existing files behave.

The module imports at its top only what the parser and `run` need; each command
imports the modules it runs, so a one-shot call compiles and runs no other.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys

from .errors import DataError, InvalidConfig
from .ingest import parse_cases_csv, parse_trends_csv
from .timeseries import ALPHA, DEFAULT_SHIFTS, MAX_SHIFT, Weekly, WeekStamp


def _expecting(form: str, parse):
    """`parse` as an argparse type whose ValueError (a number's) or InvalidConfig
    (a week stamp's) becomes a usage error naming the expected form."""
    def checked(text: str):
        try:
            return parse(text)
        except (ValueError, InvalidConfig):
            raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}") from None
    return checked


def _parse_shift(text: str) -> int:
    k = int(text)
    if abs(k) > MAX_SHIFT:
        raise argparse.ArgumentTypeError(f"shift {k} is beyond +/-{MAX_SHIFT} weeks")
    return k


def _parse_shift_range(text: str) -> list[int]:
    """Parse '-2..2' (inclusive) or a comma list '-2,-1,0,1,2' of distinct shifts."""
    if ".." in text:
        lo, hi = map(_parse_shift, text.split("..", 1))
        if lo > hi:
            raise argparse.ArgumentTypeError(f"empty shift range {text!r}")
        return list(range(lo, hi + 1))
    shifts = [_parse_shift(p) for p in text.split(",")]
    if len(set(shifts)) < len(shifts):
        raise argparse.ArgumentTypeError(f"repeated shift in {text!r}")
    return shifts


def _parse_triples(text: str, first=float) -> tuple[tuple[float, float, float], ...]:
    """Parse 'a:b:c[,a:b:c...]' into triples, a converted by `first`."""
    out = []
    for part in text.split(","):
        a, b, c = part.split(":")
        out.append((first(a), float(b), float(c)))
    return tuple(out)


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None


def _write(path: str, data: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror}") from None


def _print(text: str) -> None:
    try:
        print(text, flush=True)
    except OSError as exc:
        # the interpreter flushes stdout again as it exits; devnull takes what is left there,
        # so that the failure is reported once (Python's signal docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise DataError(f"cannot write stdout: {exc.strerror}") from None


def _add_common(p, shift=False, shifts=False, alpha_help="significance level of the gate"):
    p.add_argument("--cases", required=True, help="case-count CSV (week,cases)")
    p.add_argument("--panel", required=True, help="search-volume panel CSV")
    p.add_argument("--alpha", type=float, default=ALPHA, help=alpha_help)
    if shift:
        p.add_argument("--shift", type=_expecting("an integer shift", _parse_shift), default=0,
                       help="week shift, -2..2")
    if shifts:
        p.add_argument("--shifts", type=_expecting("lo..hi or a comma list of integer shifts",
                                                   _parse_shift_range),
                       default=list(DEFAULT_SHIFTS),
                       help="shift range, e.g. -2..2")


@functools.cache  # built once per process; parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flunowcast",
        description="Search-query influenza nowcasting pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("correlate", help="per-query overall and annual correlations")
    p.set_defaults(run=_cmd_correlate)
    _add_common(p, shift=True)
    p.add_argument("--out", required=True, help="output table CSV")
    p.add_argument("--sidecar", help="optional JSON sidecar with p-values and NA reasons")

    p = sub.add_parser("shift-scan", help="year x shift x query correlation grid")
    p.set_defaults(run=_cmd_shift_scan)
    _add_common(p, shifts=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sidecar")

    p = sub.add_parser("select", help="greedy query-subset selection across shifts")
    p.set_defaults(run=_cmd_select)
    _add_common(p, shifts=True)
    p.add_argument("--out", required=True, help="selection result JSON")

    p = sub.add_parser("fit", help="fit the model and report coefficient statistics")
    p.set_defaults(run=_cmd_fit)
    _add_common(p, shift=True, alpha_help="1 - alpha confidence interval level "
                                          "(p-values do not depend on it)")
    p.add_argument("--queries", help="comma-separated query subset (default: whole panel)")
    p.add_argument("--out", required=True, help="coefficient table CSV")

    p = sub.add_parser("nowcast", help="model estimates plus objective-by-shift table")
    p.set_defaults(run=_cmd_nowcast)
    _add_common(p, shifts=True)
    p.add_argument("--mode", choices=["full", "rolling"], default="full")
    p.add_argument("--warmup", type=int,
                   help="rolling warmup weeks (default: first fittable week from queries + 4)")
    p.add_argument("--clamp", action="store_true", help="clamp negative estimates to zero")
    p.add_argument("--out-estimates", required=True, help="estimates + actual figure CSV")
    p.add_argument("--out-table", required=True, help="objective-by-shift table CSV")

    # each scenario flag's dest is a ScenarioConfig field; one left out takes its default
    p = sub.add_parser("synth", help="generate a synthetic scenario as CSV fixtures",
                       argument_default=argparse.SUPPRESS)
    p.set_defaults(run=_cmd_synth)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--weeks", type=int, required=True)
    p.add_argument("--peaks", dest="epidemic_peaks", metavar="PEAKS", required=True,
                   type=_expecting("center:height:width[,...]", _parse_triples),
                   help="center:height:width[,center:height:width...]")
    p.add_argument("--lead", dest="lead_weeks", metavar="LEAD", type=int)
    p.add_argument("--spikes", dest="media_spikes", metavar="SPIKES", type=_expecting(
                       "week:magnitude:decay[,...] with an integer week",
                       functools.partial(_parse_triples, first=int)),
                   help="week:magnitude:decay[,...]")
    p.add_argument("--decay", dest="attention_decay", metavar="DECAY", type=float)
    p.add_argument("--noise-sd", type=float)
    p.add_argument("--signal-queries", dest="n_signal_queries", metavar="SIGNAL_QUERIES",
                   type=int)
    p.add_argument("--noise-queries", dest="n_noise_queries", metavar="NOISE_QUERIES", type=int)
    p.add_argument("--start", type=_expecting("an ISO week YYYY-Www", WeekStamp.parse))
    p.add_argument("--out-cases", required=True)
    p.add_argument("--out-panel", required=True)

    p = sub.add_parser("report-fig", help="long-format figure data for cases + panel")
    p.set_defaults(run=_cmd_report_fig)
    p.add_argument("--cases", required=True)
    p.add_argument("--panel", required=True)
    p.add_argument("--out", required=True)

    return parser


def _cmd_correlate(args, cases, panel):
    from . import report
    table = report.table_overall_annual(panel, cases, args.alpha, args.shift)
    return ([(args.out, table.to_csv()), (args.sidecar, table.to_sidecar_json())],
            f"correlate: {len(panel.labels)} queries x {len(cases.matrix)} weeks -> {args.out}")


def _cmd_shift_scan(args, cases, panel):
    from . import report
    table = report.table_shift_scan(panel, cases, tuple(args.shifts), args.alpha)
    return ([(args.out, table.to_csv()), (args.sidecar, table.to_sidecar_json())],
            f"shift-scan: shifts {args.shifts} -> {args.out}")


def _cmd_select(args, cases, panel):
    import json
    from . import selection
    result = selection.greedy_select(panel, cases, args.shifts, args.alpha)
    trace = [{"step": s, "added": l, "objective": o} for s, l, o in result.trace]
    payload = {"chosen": list(result.chosen_labels), "shift": result.best_shift,
               "objective": result.objective, "trace": trace}
    return ([(args.out, (json.dumps(payload, indent=2, ensure_ascii=False) + "\n").encode())],
            f"select: {len(result.chosen_labels)} queries at shift {result.best_shift:+d}, "
            f"objective {result.objective:.4f}")


def _cmd_fit(args, cases, panel):
    from . import report
    from .regress import fit_ols
    if args.queries:
        panel = panel.subset(args.queries.split(","))
    fit = fit_ols(panel, cases, args.shift)
    return ([(args.out, report.table_coefficients(fit, args.alpha).to_csv())],
            f"fit: {len(panel.labels)} queries, r^2 {fit.r_squared:.4f} -> {args.out}")


def _cmd_nowcast(args, cases, panel):
    import numpy as np
    from . import report, selection, stats
    from .regress import fit_ols, predict, rolling_weekly_fit
    sel = selection.greedy_select(panel, cases, args.shifts, args.alpha)
    sub = panel.subset(list(sel.chosen_labels))
    if args.mode == "rolling":
        estimates = rolling_weekly_fit(sub, cases, sel.best_shift, warmup=args.warmup)
    else:
        estimates = predict(fit_ols(sub, cases, sel.best_shift), sub)
    shown, overall = [], "NA"
    if estimates is not None:
        if args.clamp:
            estimates = Weekly(estimates.start, estimates.labels, np.maximum(estimates.matrix, 0.0))
        rows = stats.paired_rows(estimates, cases, 0)
        ev = stats.gated_columns([rows], args.alpha)[0]
        shown = [estimates]
        overall = "NA" if ev.reason[0] else f"{ev.r[0]:.2f}"
    figure = report.figure_data(shown + [cases])
    table = report.table_model_by_shift(sub, cases, tuple(args.shifts))
    return ([(args.out_estimates, figure), (args.out_table, table.to_csv())],
            f"nowcast ({args.mode}): queries {','.join(sel.chosen_labels)} "
            f"shift {sel.best_shift:+d} overall r {overall}")


def _cmd_synth(args):
    from dataclasses import fields
    from . import synth
    from .ingest import write_cases_csv, write_trends_csv
    parsed = vars(args)
    cfg = synth.ScenarioConfig(**{f.name: parsed[f.name] for f in fields(synth.ScenarioConfig)
                                  if f.name in parsed})
    cases, panel = synth.generate(cfg)
    return ([(args.out_cases, write_cases_csv(cases)), (args.out_panel, write_trends_csv(panel))],
            f"synth: seed {cfg.seed}, {cfg.weeks} weeks, "
            f"{len(panel.labels)} queries -> {args.out_cases}, {args.out_panel}")


def _cmd_report_fig(args, cases, panel):
    from . import report
    return ([(args.out, report.figure_data([cases, panel]))],
            f"report-fig: {1 + len(panel.labels)} series -> {args.out}")


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        inputs = ([parse_cases_csv(_read(args.cases)), parse_trends_csv(_read(args.panel))]
                  if "cases" in args else [])  # cases first, so a bad cases file is reported
        outputs, summary = args.run(args, *inputs)
        for path, data in outputs:  # written in flag order, once every one is built
            if path is not None:
                _write(path, data)
        _print(summary)
    except DataError as exc:  # any other exception is a bug, and its traceback shows
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    gc.freeze()  # one call per process: its collections and exit's teardown then skip the imports
    sys.exit(run())
