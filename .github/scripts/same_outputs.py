"""Fail unless two source trees give the same outputs on every benchmark call.

    python3 .github/scripts/same_outputs.py BASE_SRC HEAD_SRC

BASE_SRC and HEAD_SRC are `src` directories, each holding the
`flunowcast` package. Every call list of `perfbench/workloads.py` (this
checkout's) runs on seeds 42, 1, 7 and 13, once under each tree, as
`python -m flunowcast` children in a fresh work directory. Each call's
exit code, stdout, stderr and the bytes of each file it writes must be
the same under both trees; the first differences are printed and the
script exits 1.

Then fixed edits of the seed-42 readme files, each one refused or read
at an edge of the CSV grammar (a 16-digit cell, CRLF, a missing final
newline, an invalid or malformed week stamp, two breaks in one row or in
two rows, ...), go through the readme's `correlate` call under both
trees, with the same comparison. Last, calls
that no workload makes run on the readme files, edited or not: clamped and
default-warmup nowcasts, rolling warmups below the minimum and past every
week, `fit --queries` and at alpha 1e-300, `correlate` and `shift-scan` with
their sidecars on a one-query panel (`week,signal_1`: the Pearson sums of a
single column) and on a panel whose `signal_2` is 50 in every row (ZeroVariance
lanes among the others), `fit` on that panel and on the cases' first 4 weeks
(a collinear design, too few rows), `shift-scan` over an empty range,
queries named `cases` or `estimates`, a panel inside the cases' range and
ranges that are disjoint, outputs into a missing directory, `select` and
`nowcast` over reordered or partial shift lists and at alpha 0.5 (the order
greedy selection visits shifts in, and noise-heavy candidate pools), and
`synth` with its optional flags left out, each set off its default, or
`--peaks` missing.
The parser's own text is compared too: `--help` of the root and of each
command, no arguments, and an unknown command.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "perfbench"))
import workloads  # noqa: E402

SEEDS = (42, 1, 7, 13)


def edit_lines(change):
    """An edit that applies `change` to the list of the file's lines."""
    def edit(data: bytes) -> bytes:
        lines = data.split(b"\n")
        change(lines)
        return b"\n".join(lines)
    return edit


def edit_cell(row: int, col: int, value):
    """An edit that sets cell `col` of line `row` (0 is the header) to
    `value`, bytes or a function of the cell's bytes."""
    def change(lines: list[bytes]) -> None:
        cells = lines[row].split(b",")
        cells[col] = value(cells[col]) if callable(value) else value
        lines[row] = b",".join(cells)
    return edit_lines(change)


def edits(*steps):
    """An edit that applies each of `steps` in turn."""
    def edit(data: bytes) -> bytes:
        for step in steps:
            data = step(data)
        return data
    return edit


# (what, file, edit) of each edge input
EDGE_INPUTS = [
    ("a 16-digit cell", "panel.csv", edit_cell(5, 1, b"1" * 16)),
    ("a zero-padded 16-digit cell", "panel.csv", edit_cell(5, 1, b"0" * 14 + b"42")),
    ("+5", "panel.csv", edit_cell(5, 2, b"+5")),
    ("an empty cell", "panel.csv", edit_cell(5, 3, b"")),
    ("101", "panel.csv", edit_cell(5, 1, b"101")),
    ("-1 in a count", "cases.csv", edit_cell(5, 1, b"-1")),
    ("a count of 2**53 + 1", "cases.csv", edit_cell(5, 1, b"%d" % (2 ** 53 + 1))),
    ("a dropped case row", "cases.csv", edit_lines(lambda lines: lines.pop(5))),
    ("a duplicated panel row", "panel.csv", edit_lines(lambda lines: lines.insert(5, lines[5]))),
    ("a swapped panel row", "panel.csv", edit_lines(lambda lines: lines.insert(6, lines.pop(5)))),
    ("2009-W54", "panel.csv", edit_cell(5, 0, b"2009-W54")),
    ("CRLF", "panel.csv", lambda data: data.replace(b"\n", b"\r\n")),
    ("an invalid UTF-8 byte", "panel.csv", edit_cell(5, 1, b"\xff")),
    ("a missing final newline", "panel.csv", lambda data: data[:-1]),
    ("a trailing blank line", "panel.csv", lambda data: data + b"\n"),
    ("a 25-digit negative count", "cases.csv", edit_cell(5, 1, b"-" + b"9" * 25)),
    ("a count of 2**53", "cases.csv", edit_cell(5, 1, b"%d" % 2 ** 53)),
    ("a zero-padded 25-digit volume", "panel.csv", edit_cell(5, 1, b"0" * 23 + b"42")),
    ("a 5,000-digit cell", "panel.csv", edit_cell(5, 1, b"0" * 4998 + b"42")),
    ("an extra cell, then a bad stamp", "panel.csv",
     edits(edit_cell(5, 1, lambda cell: cell + b",7"), edit_cell(8, 0, b"2009-W54"))),
    # one digit short in a cell and one over in a later stamp
    ("1e2, then a 10-byte stamp", "panel.csv",
     edits(edit_cell(5, 1, b"1e2"), edit_cell(6, 0, lambda stamp: stamp + b"-1"))),
    ("an empty line mid-file", "panel.csv", edit_lines(lambda lines: lines.insert(5, b""))),
    ("a header-only panel", "panel.csv", lambda data: data[:data.index(b"\n") + 1]),
    # week stamps at the edges of the ISO calendar and of the stamp form
    ("0000-W01", "panel.csv", edit_cell(5, 0, b"0000-W01")),
    ("2009-W00", "cases.csv", edit_cell(5, 0, b"2009-W00")),
    ("2010-W53", "panel.csv", edit_cell(5, 0, b"2010-W53")),
    ("2009-W53, a real week out of order", "cases.csv", edit_cell(5, 0, b"2009-W53")),
    ("2009-W53, a real week out of order", "panel.csv", edit_cell(5, 0, b"2009-W53")),
    ("2009-w05", "panel.csv", edit_cell(5, 0, b"2009-w05")),
    ("a full-width digit in a stamp", "cases.csv", edit_cell(5, 0, "２009-W05".encode())),
    # the rule a row breaks first, and the break of the first bad row
    ("-", "panel.csv", edit_cell(5, 1, b"-")),
    ("--5", "panel.csv", edit_cell(5, 1, b"--5")),
    ("5-", "panel.csv", edit_cell(5, 2, b"5-")),
    ("a superscript two", "panel.csv", edit_cell(5, 3, "²".encode())),
    ("x, then 5,000 digits", "panel.csv", edit_cell(5, 1, b"x" + b"1" * 5000)),
    ("a 5,000-digit cell, then x", "panel.csv",
     edits(edit_cell(5, 1, b"1" * 5000), edit_cell(5, 2, b"x"))),
    ("x, then a 5,000-digit cell", "panel.csv",
     edits(edit_cell(5, 1, b"x"), edit_cell(5, 2, b"1" * 5000))),
    ("an extra cell and a bad stamp in one row", "panel.csv",
     edits(edit_cell(5, 1, lambda cell: cell + b",7"), edit_cell(5, 0, b"2009-W54"))),
    ("a bad stamp and x in one row", "panel.csv",
     edits(edit_cell(5, 0, b"2009-W54"), edit_cell(5, 2, b"x"))),
    ("101, then x two rows on", "panel.csv",
     edits(edit_cell(5, 1, b"101"), edit_cell(7, 1, b"x"))),
    ("a dropped case row, then a count of 1.5", "cases.csv",
     edits(edit_lines(lambda lines: lines.pop(5)), edit_cell(8, 1, b"1.5"))),
    ("- as a count", "cases.csv", edit_cell(5, 1, b"-")),
    ("- then 5,000 ones as a count", "cases.csv", edit_cell(5, 1, b"-" + b"1" * 5000)),
]


def keep_rows(first: int, last: int):
    """An edit that keeps the header and data rows first..last - 1 (0 the first)."""
    def change(lines: list[bytes]) -> None:
        lines[1:] = [*lines[1 + first:1 + last], b""]
    return edit_lines(change)


def square_counts(lines: list[bytes]) -> None:
    """Each case count c as c * c // 100: a convex response, whose linear
    fit dips below zero, so that a clamp has estimates to raise."""
    for i in range(1, len(lines) - 1):
        week, count = lines[i].split(b",")
        lines[i] = b"%s,%d" % (week, int(count) ** 2 // 100)


INPUTS = workloads.INPUTS
ESTIMATES = ("estimates.csv", "evaluation.csv")


def nowcast(*options: str) -> workloads.Call:
    argv = ("nowcast", *INPUTS, *options, "--out-estimates", ESTIMATES[0], "--out-table",
            ESTIMATES[1])
    return workloads.Call(argv, ESTIMATES)


def fit(*options: str) -> workloads.Call:
    return workloads.Call(("fit", *INPUTS, *options, "--out", "coefficients.csv"),
                          ("coefficients.csv",))


def select(*options: str) -> workloads.Call:
    return workloads.Call(("select", *INPUTS, *options, "--out", "selection.json"),
                          ("selection.json",))


def scenario(*options: str) -> workloads.Call:
    outputs = ("new-cases.csv", "new-panel.csv")
    argv = ("synth", "--seed", "42", "--weeks", "60", *options, "--out-cases", outputs[0],
            "--out-panel", outputs[1])
    return workloads.Call(argv, outputs)


def each_row(change):
    """An edit that applies `change` to the list of cells of every line but a last empty one."""
    def rows(lines: list[bytes]) -> None:
        for i, line in enumerate(lines):
            if line:
                cells = line.split(b",")
                change(cells)
                lines[i] = b",".join(cells)
    return edit_lines(rows)


def first_query(cells: list[bytes]) -> None:
    del cells[2:]


def flat_second_query(cells: list[bytes]) -> None:
    if cells[0] != b"week":
        cells[2] = b"50"


CORRELATE = workloads.calls("readme", 42)[1]
SCAN = workloads.Call(("shift-scan", *INPUTS, "--shifts=-2..2", "--out", "scan.csv",
                       "--sidecar", "scan.json"), ("scan.csv", "scan.json"))
REPORT_FIG = workloads.Call(("report-fig", *INPUTS, "--out", "figure.csv"), ("figure.csv",))
INSIDE = {"panel.csv": keep_rows(20, 240)}  # the panel starts later and ends earlier
DISJOINT = {"cases.csv": keep_rows(0, 100), "panel.csv": keep_rows(150, 261)}
COMMANDS = ("correlate", "shift-scan", "select", "fit", "nowcast", "synth", "report-fig")

# (what, {file: edit}, call) of each call on the readme files that no workload makes
EDGE_CALLS = [
    ("clamped nowcast of squared counts", {"cases.csv": edit_lines(square_counts)},
     nowcast("--clamp")),
    ("clamped rolling nowcast", {}, nowcast("--mode", "rolling", "--warmup", "40", "--clamp")),
    ("rolling nowcast, default warmup", {}, nowcast("--mode", "rolling")),
    ("rolling nowcast, warmup below the minimum", {},
     nowcast("--mode", "rolling", "--warmup", "2")),
    ("rolling nowcast, warmup past every week", {},
     nowcast("--mode", "rolling", "--warmup", "300")),
    ("fit at alpha 1e-300", {}, fit("--shift", "2", "--alpha", "1e-300")),
    # a one-query panel sums a single column; a constant query gives ZeroVariance lanes
    *((f"{call.command} on {what}", {"panel.csv": each_row(change)}, call)
      for what, change in (("a one-query panel", first_query),
                           ("a panel whose signal_2 is 50 in every row", flat_second_query))
      for call in (CORRELATE, SCAN)),
    ("shift-scan over an empty range", {},
     workloads.Call(("shift-scan", *INPUTS, "--shifts=2..-2", "--out", "scan.csv"),
                    ("scan.csv",))),
    ("fit of two queries in reverse order", {}, fit("--queries", "signal_2,signal_1")),
    ("fit of a missing query", {}, fit("--queries", "signal_1,flu")),
    *((f"{call.command} with a query named {name}", {"panel.csv": edit_cell(0, 2, name.encode())},
       call) for name in ("cases", "estimates") for call in (REPORT_FIG, nowcast())),
    ("correlate on a panel inside the cases' range", INSIDE, CORRELATE),
    ("fit on a panel inside the cases' range", INSIDE, fit("--shift", "2")),
    ("nowcast on a panel inside the cases' range", INSIDE, nowcast()),
    ("rolling nowcast on a panel inside the cases' range", INSIDE, nowcast("--mode", "rolling")),
    ("report-fig on a panel inside the cases' range", INSIDE, REPORT_FIG),
    ("fit on disjoint ranges", DISJOINT, fit()),
    # fit's two refusals: a constant query is collinear with the intercept; too few rows
    ("fit on a panel whose signal_2 is 50 in every row", {"panel.csv": each_row(flat_second_query)},
     fit()),
    ("fit on the first 4 weeks of cases", {"cases.csv": keep_rows(0, 4)}, fit()),
    ("nowcast on disjoint ranges", DISJOINT, nowcast()),
    ("report-fig on disjoint ranges", DISJOINT, REPORT_FIG),
    ("correlate with its sidecar in a missing directory", {},
     workloads.Call(("correlate", *INPUTS, "--out", "table.csv", "--sidecar", "nodir/table.json"),
                    ("table.csv", "nodir/table.json"))),
    ("nowcast with its table in a missing directory", {},
     workloads.Call(("nowcast", *INPUTS, "--out-estimates", "estimates.csv",
                     "--out-table", "nodir/t.csv"), ("estimates.csv", "nodir/t.csv"))),
    *((f"{call.command} {' '.join(options)}", {}, call)
      for options in (("--shifts", "2,-2,0"), ("--shifts", "0,1"), ("--alpha", "0.5"))
      for call in (select(*options), nowcast(*options))),
    ("synth with its optional flags left out", {}, scenario("--peaks", "10:300:3,40:500:4")),
    ("synth with every flag off its default", {},
     scenario("--peaks", "10:300:3,40:500:4", "--lead", "3", "--spikes", "15:40:2,45:20:0",
              "--decay", "0.8", "--noise-sd", "0.3", "--signal-queries", "4",
              "--noise-queries", "2", "--start", "2012-W30")),
    ("synth without --peaks", {}, scenario("--lead", "3")),
    *((" ".join(argv), {}, workloads.Call(argv, ()))
      for argv in (("--help",), *((c, "--help") for c in COMMANDS))),
    ("no arguments", {}, workloads.Call((), ())),
    ("an unknown command", {}, workloads.Call(("nosuch",), ())),
]


def edge_runs() -> list[tuple[str, dict, workloads.Call]]:
    """(what, {file: edit}, call) of each edge input through correlate, then of EDGE_CALLS."""
    return [(f"correlate with {what} in {name}", {name: edit}, CORRELATE)
            for what, name, edit in EDGE_INPUTS] + EDGE_CALLS


def run_call(src: Path, workdir: str, call: workloads.Call) -> tuple:
    """(exit code, stdout, stderr, {output: bytes or None}) of one call."""
    proc = subprocess.run([sys.executable, "-m", "flunowcast", *call.argv],
                          cwd=workdir, env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True)
    files = {name: (Path(workdir) / name).read_bytes()
             if (Path(workdir) / name).is_file() else None for name in call.outputs}
    return proc.returncode, proc.stdout, proc.stderr, files


def run_pass(src: Path, workload: str, seed: int) -> list[tuple]:
    """run_call's result for each call of one pass."""
    with tempfile.TemporaryDirectory() as workdir:
        return [run_call(src, workdir, call) for call in workloads.calls(workload, seed)]


def run_edges(src: Path) -> list[tuple]:
    """run_call's result for each edge run, on the seed-42 readme files it edits."""
    synth = workloads.calls("readme", 42)[0]
    with tempfile.TemporaryDirectory() as workdir:
        run_call(src, workdir, synth)
        original = {name: (Path(workdir) / name).read_bytes() for name in synth.outputs}
    results = []
    for _, edits, call in edge_runs():
        with tempfile.TemporaryDirectory() as workdir:
            for file, data in original.items():
                (Path(workdir) / file).write_bytes(edits[file](data) if file in edits else data)
            results.append(run_call(src, workdir, call))
    return results


def differences(base: tuple, head: tuple) -> list[str]:
    fields = [what for what, b, h in zip(("exit code", "stdout", "stderr"), base, head) if b != h]
    return fields + [name for name in base[3] if base[3][name] != head[3][name]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_src", type=Path)
    parser.add_argument("head_src", type=Path)
    args = parser.parse_args()
    for src in (args.base_src, args.head_src):
        if not (src / "flunowcast" / "cli.py").is_file():
            parser.error(f"{src} holds no flunowcast package")
    checked, failed = 0, 0
    for workload in sorted(workloads.WORKLOADS):
        for seed in SEEDS:
            calls = workloads.calls(workload, seed)
            base = run_pass(args.base_src.resolve(), workload, seed)
            head = run_pass(args.head_src.resolve(), workload, seed)
            for call, b, h in zip(calls, base, head):
                checked += 1
                if diff := differences(b, h):
                    failed += 1
                    print(f"DIFFERS {workload} seed {seed}: flunowcast {' '.join(call.argv)}: "
                          f"{', '.join(diff)}")
    base, head = run_edges(args.base_src.resolve()), run_edges(args.head_src.resolve())
    for (what, _, _), b, h in zip(edge_runs(), base, head):
        checked += 1
        if diff := differences(b, h):
            failed += 1
            print(f"DIFFERS on readme seed 42, {what}: {', '.join(diff)}")
    print(f"{checked - failed} of {checked} calls gave the same exit code, stdout, stderr "
          f"and output bytes under both trees")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
