import argparse
import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st
from scipy import stats as scipy_stats

from flunowcast import cli, errors, ingest, report, stats, synth
from flunowcast.cli import run
from flunowcast.ingest import parse_cases_csv, parse_trends_csv, write_cases_csv, write_trends_csv
from flunowcast.timeseries import WeekStamp

from .oracles import definitional_pearson, normal_equations_ols
from .test_ingest import mutated_csv


def synth_files(tmp_path, extra=()):
    tmp_path.mkdir(exist_ok=True)
    cases = tmp_path / "cases.csv"
    panel = tmp_path / "panel.csv"
    code = run([
        "synth", "--seed", "42", "--weeks", "150",
        "--peaks", "25:800:3,70:1100:4,120:900:3",
        "--lead", "2", "--signal-queries", "2", "--noise-sd", "0.05",
        "--out-cases", str(cases), "--out-panel", str(panel),
        *extra,
    ])
    assert code == 0
    return cases, panel


def run_python(args, cwd, stdout=subprocess.PIPE, **env):
    """Run the interpreter with `args` in a child process that imports this checkout's package,
    with `env` set on top of this process's environment (None unsets a variable)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])), **env}
    return subprocess.run([sys.executable, *args], cwd=cwd,
                          env={k: v for k, v in env.items() if v is not None},
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120)


def run_process(argv, cwd):
    """Run `python -m flunowcast` in a child process, as a user does, and
    check what the user sees: no traceback and no warning text on stderr,
    and on exit 1 exactly one line, `error: <DataError subclass>: ...`.
    Warnings that Python prints to stderr are visible only from a child."""
    proc = run_python(["-m", "flunowcast", *argv], cwd)
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr, proc.stderr
    if proc.returncode == 1:
        assert_one_error_line(proc.stderr)
    return proc


def assert_one_error_line(stderr):
    """Exit 1's stderr: exactly one line, `error: <DataError subclass>: ...`."""
    line = re.fullmatch(r"error: (\w+): .+\n", stderr)
    assert line, stderr
    error = getattr(errors, line[1], None)
    assert isinstance(error, type) and issubclass(error, errors.DataError), stderr


class TestProcess:
    SYNTH = ["synth", "--seed", "1", "--weeks", "30", "--out-cases", "cases.csv",
             "--out-panel", "panel.csv"]

    @pytest.mark.parametrize("options", [
        ["--peaks", "20:800:nan"],
        ["--peaks", "20:inf:3"],
        ["--peaks", "10:50:3", "--spikes", "10:nan:2"],
        ["--peaks", "10:50:3", "--noise-sd", "inf"],
        # counts past 2**53, which the case parser rejects
        ["--peaks", "20:1e17:3"],
        ["--peaks", "20:1e308:3,20:1e308:3"],
        # query volumes whose 0-100 rescaling overflows
        ["--peaks", "10:50:3", "--spikes", "10:1e308:2"],
        ["--peaks", "10:50:3", "--spikes", "10:1e308:2,10:1e308:2"],
    ], ids=shlex.join)
    def test_synth_writes_nothing_its_parser_rejects(self, tmp_path, options):
        proc = run_process(self.SYNTH + options, tmp_path)
        assert proc.returncode == 1 and proc.stderr.startswith("error: InvalidConfig: ")
        assert list(tmp_path.iterdir()) == []

    def test_a_negative_spike_decay_is_refused(self, tmp_path):
        proc = run_process(self.SYNTH + ["--peaks", "10:50:3", "--spikes", "3:5:-1"], tmp_path)
        assert proc.returncode == 1
        assert proc.stderr == "error: InvalidConfig: spike decays must be non-negative\n"
        assert list(tmp_path.iterdir()) == []

    def test_a_negative_seed_is_refused(self, tmp_path):
        # PCG64 would refuse it with a bare ValueError
        proc = run_process(["synth", "--seed", "-1", *self.SYNTH[3:], "--peaks", "10:50:3"],
                           tmp_path)
        assert proc.returncode == 1
        assert proc.stderr == "error: InvalidConfig: seed must be non-negative\n"
        assert list(tmp_path.iterdir()) == []

    def test_a_needle_peak_overflows_silently(self, tmp_path):
        # ((t - center) / width) ** 2 overflows to inf, whose exp(-inf) is 0
        assert run_process(self.SYNTH + ["--peaks", "20:800:1e-300"], tmp_path).returncode == 0

    def test_a_count_of_5000_digits_is_a_malformed_row(self, tmp_path):
        _, panel = synth_files(tmp_path)
        (tmp_path / "big.csv").write_text(f"week,cases\n2009-W01,1\n2009-W02,{'9' * 5000}\n")
        proc = run_process(["correlate", "--cases", "big.csv", "--panel", str(panel),
                            "--out", "table.csv"], tmp_path)
        assert proc.returncode == 1
        assert proc.stderr == "error: MalformedRow: line 3: integer of 5000 digits is too long\n"

    def test_estimates_past_9999_w52_are_a_data_error(self, tmp_path):
        # full-mode estimates at shift +2 run two weeks past cases that end at 9999-W52
        assert run_process(["synth", "--seed", "1", "--weeks", "52", "--peaks", "20:800:3",
                            "--start", "9999-W01", "--out-cases", "c.csv",
                            "--out-panel", "p.csv"], tmp_path).returncode == 0
        proc = run_process(["nowcast", "--cases", "c.csv", "--panel", "p.csv",
                            "--out-estimates", "e.csv", "--out-table", "t.csv"], tmp_path)
        assert proc.returncode == 1
        assert proc.stderr == ("error: InvalidConfig: +53 weeks from 9999-W01 "
                               "is outside 0001-W01..9999-W52\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv", "p.csv"]

    def test_estimates_before_0001_w01_are_a_data_error(self, tmp_path):
        # full-mode estimates at shift -2 start two weeks before a panel that starts at 0001-W01
        assert run_process(["synth", "--seed", "1", "--weeks", "52", "--peaks", "20:800:3",
                            "--start", "0001-W01", "--out-cases", "c.csv",
                            "--out-panel", "p.csv"], tmp_path).returncode == 0
        proc = run_process(["nowcast", "--cases", "c.csv", "--panel", "p.csv", "--shifts=-2",
                            "--out-estimates", "e.csv", "--out-table", "t.csv"], tmp_path)
        assert proc.returncode == 1
        assert proc.stderr == ("error: InvalidConfig: -2 weeks from 0001-W01 "
                               "is outside 0001-W01..9999-W52\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv", "p.csv"]


@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
def test_a_closed_stdout_is_one_error_line(tmp_path, unbuffered):
    # unbuffered, print itself meets the closed pipe; buffered, the flush does, and
    # unflushed text would fail again as the interpreter exits
    synth_files(tmp_path)
    read, write = os.pipe()
    os.close(read)  # the reader is gone, as when `| head -n 0` has exited
    try:
        proc = run_python(["-m", "flunowcast", "select", "--cases", "cases.csv",
                           "--panel", "panel.csv", "--out", "selection.json"], tmp_path,
                          stdout=write, PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (
        1, "error: DataError: cannot write stdout: Broken pipe\n")
    assert json.loads((tmp_path / "selection.json").read_text())["chosen"]  # written before


class TestFreeze:
    """`main()`, the entry of a one-shot call, freezes the imported modules
    before the command runs; importing the CLI and calling `run()`, as
    library callers and the benchmark's warm worker do, leave the collector
    as it was. Each check runs in a child, so this process is never frozen."""

    def test_main_freezes_before_the_command(self, tmp_path):
        proc = run_python(["-c", "import gc\nfrom flunowcast import cli\n"
                           "cli.run = lambda: print(gc.get_freeze_count()) or 0\n"
                           "cli.main()"], tmp_path)
        assert proc.returncode == 0 and int(proc.stdout) > 0, proc.stderr

    def test_import_and_run_freeze_nothing(self, tmp_path):
        argv = TestProcess.SYNTH + ["--peaks", "10:50:3"]
        proc = run_python(["-c", "import gc\nfrom flunowcast import cli\n"
                           f"print(gc.get_freeze_count(), cli.run({argv!r}), "
                           "gc.get_freeze_count())"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 0 0"


class TestImports:
    """`cli` imports at its top only what its parser and `run` need, and each
    command imports the modules it runs, so a cold call compiles and runs no
    module it does not use. Each check runs in a fresh child."""

    PARSER = {"cli", "errors", "ingest", "timeseries"}
    TABLES = PARSER | {"regress", "report", "stats"}
    LOADED = {"synth": PARSER | {"synth"}, "select": PARSER | {"regress", "selection", "stats"},
              "fit": TABLES, "correlate": TABLES, "shift-scan": TABLES, "report-fig": TABLES,
              "nowcast": TABLES | {"selection"}}

    @staticmethod
    def loaded_after(code, cwd):
        """The flunowcast.* modules loaded once `code` has run in a child, and whether json is."""
        proc = run_python(["-c", f"import sys\n{code}\nprint(*sorted(m for m in sys.modules "
                           "if m.startswith('flunowcast.')), 'json' in sys.modules)"], cwd)
        assert proc.returncode == 0, proc.stderr
        *modules, json_loaded = proc.stdout.splitlines()[-1].split()
        return {m.removeprefix("flunowcast.") for m in modules}, json_loaded == "True"

    def test_importing_the_cli_loads_only_what_its_parser_needs(self, tmp_path):
        assert self.loaded_after("import flunowcast.cli", tmp_path) == (self.PARSER, False)

    @pytest.mark.parametrize("command", sorted(LOADED))
    def test_each_command_loads_only_the_modules_it_runs(self, tmp_path, command):
        if command == "synth":
            argv = ["synth", "--seed", "1", "--weeks", "30", "--peaks", "10:50:3"]
        else:
            synth_files(tmp_path)
            argv = [command, "--cases", "cases.csv", "--panel", "panel.csv"]
        code = f"from flunowcast import cli\nassert cli.run({argv + OUTPUTS[command]!r}) == 0"
        modules, json_loaded = self.loaded_after(code, tmp_path)
        assert modules == self.LOADED[command]
        assert not (command == "synth" and json_loaded)


class TestSynth:
    def test_deterministic_outputs(self, tmp_path):
        c1, p1 = synth_files(tmp_path / "a")
        c2, p2 = synth_files(tmp_path / "b")
        assert c1.read_bytes() == c2.read_bytes()
        assert p1.read_bytes() == p2.read_bytes()

    def test_writes_parseable_fixtures(self, tmp_path):
        from flunowcast.ingest import parse_cases_csv, parse_trends_csv

        cases, panel = synth_files(tmp_path)
        assert parse_cases_csv(cases.read_bytes()).matrix.shape == (150, 1)
        assert parse_trends_csv(panel.read_bytes()).labels == ("signal_1", "signal_2")

    def test_flags_left_out_take_the_config_defaults(self, tmp_path):
        cases, panel = tmp_path / "cases.csv", tmp_path / "panel.csv"
        assert run(["synth", "--seed", "3", "--weeks", "40", "--peaks", "10:50:3,30:80:4",
                    "--out-cases", str(cases), "--out-panel", str(panel)]) == 0
        want_cases, want_panel = synth.generate(synth.ScenarioConfig(
            seed=3, weeks=40, epidemic_peaks=((10.0, 50.0, 3.0), (30.0, 80.0, 4.0))))
        assert cases.read_bytes() == write_cases_csv(want_cases)
        assert panel.read_bytes() == write_trends_csv(want_panel)

    def test_usage_names_the_flags_not_the_config_fields(self, capsys):
        assert run(["synth", "--help"]) == 0
        usage = " ".join(capsys.readouterr().out.split("\n\n")[0].split())
        assert usage == (
            "usage: flunowcast synth [-h] --seed SEED --weeks WEEKS --peaks PEAKS [--lead LEAD] "
            "[--spikes SPIKES] [--decay DECAY] [--noise-sd NOISE_SD] "
            "[--signal-queries SIGNAL_QUERIES] [--noise-queries NOISE_QUERIES] [--start START] "
            "--out-cases OUT_CASES --out-panel OUT_PANEL")

    @pytest.mark.parametrize("week", ["inf", "nan", "10.9"])
    def test_spike_week_must_be_an_integer(self, tmp_path, capsys, week):
        cases, panel = tmp_path / "cases.csv", tmp_path / "panel.csv"
        assert run(["synth", "--seed", "1", "--weeks", "30", "--peaks", "10:50:3",
                    "--spikes", f"{week}:50:2", "--out-cases", str(cases),
                    "--out-panel", str(panel)]) == 2
        assert (f"argument --spikes: expected week:magnitude:decay[,...] with an integer week, "
                f"got '{week}:50:2'") in capsys.readouterr().err
        assert not cases.exists() and not panel.exists()

    @pytest.mark.parametrize("option, value, form", [
        ("--peaks", "1:2", "center:height:width[,...]"),
        ("--peaks", "10:50:x", "center:height:width[,...]"),
        ("--spikes", "1:2", "week:magnitude:decay[,...] with an integer week"),
        ("--start", "2009-W1", "an ISO week YYYY-Www"),
        ("--start", "2009-W54", "an ISO week YYYY-Www"),
    ])
    def test_a_bad_value_names_the_expected_form(self, tmp_path, capsys, option, value, form):
        cases, panel = tmp_path / "cases.csv", tmp_path / "panel.csv"
        argv = {"--peaks": "10:50:3", option: value}
        assert run(["synth", "--seed", "1", "--weeks", "30", *sum(argv.items(), ()),
                    "--out-cases", str(cases), "--out-panel", str(panel)]) == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument {option}: expected {form}, got {value!r}\n")
        assert not cases.exists() and not panel.exists()

    @pytest.mark.parametrize("option, message", [
        ("--spikes=10:-5:2", "spike magnitudes must be non-negative"),
        ("--lead=-1", "lead_weeks must be non-negative"),
        ("--signal-queries=-1", "query counts must be non-negative"),
    ])
    def test_a_negative_magnitude_lead_or_count_is_one_error_line(self, tmp_path, capsys,
                                                                  option, message):
        cases, panel = tmp_path / "cases.csv", tmp_path / "panel.csv"
        assert run(["synth", "--seed", "1", "--weeks", "30", "--peaks", "10:50:3", option,
                    "--out-cases", str(cases), "--out-panel", str(panel)]) == 1
        assert capsys.readouterr().err == f"error: InvalidConfig: {message}\n"
        assert not cases.exists() and not panel.exists()


class TestCorrelate:
    def test_lead_fixture_top_query(self, tmp_path, capsys):
        cases, panel = synth_files(tmp_path)
        out = tmp_path / "table.csv"
        sidecar = tmp_path / "table.json"
        code = run([
            "correlate", "--cases", str(cases), "--panel", str(panel),
            "--shift", "2", "--out", str(out), "--sidecar", str(sidecar),
        ])
        assert code == 0
        detail = json.loads(sidecar.read_text())
        assert detail[0]["overall"]["value"] >= 0.999

    @pytest.mark.parametrize("command", ["correlate", "shift-scan"])
    @pytest.mark.parametrize("alpha", ["0.05", "0.001"])
    def test_footnote_names_the_gate(self, tmp_path, command, alpha):
        cases, panel = synth_files(tmp_path)
        out = tmp_path / "table.csv"
        assert run([
            command, "--cases", str(cases), "--panel", str(panel),
            "--alpha", alpha, "--out", str(out),
        ]) == 0
        assert out.read_text().splitlines()[-2:] == ["NA: Not applicable", f"p<{alpha}"]

    def test_missing_required_flag_is_usage_error(self, tmp_path, capsys):
        code = run(["correlate", "--panel", "p.csv", "--out", "t.csv"])
        assert code == 2

    @pytest.mark.parametrize("argv, reason", [
        (["shift-scan", "--shifts=1,1"], "repeated shift in '1,1'"),
        (["shift-scan", "--shifts=-3..2"], "shift -3 is beyond +/-2 weeks"),
        (["correlate", "--shift", "3"], "shift 3 is beyond +/-2 weeks"),
        (["correlate", "--shift", "x"], "expected an integer shift, got 'x'"),
        (["shift-scan", "--shifts=1..x"],
         "expected lo..hi or a comma list of integer shifts, got '1..x'"),
        (["shift-scan", "--shifts=0,,1"],
         "expected lo..hi or a comma list of integer shifts, got '0,,1'"),
        (["shift-scan", "--shifts=2..-2"], "empty shift range '2..-2'"),
    ])
    def test_bad_shift_is_usage_error(self, tmp_path, capsys, argv, reason):
        cases, panel = synth_files(tmp_path)
        out = tmp_path / "t.csv"
        capsys.readouterr()
        assert run([*argv, "--cases", str(cases), "--panel", str(panel), "--out", str(out)]) == 2
        assert capsys.readouterr().err.endswith(f"error: argument {argv[1].split('=')[0]}: "
                                                f"{reason}\n")
        assert not out.exists()

    def test_unreadable_file_is_data_error(self, tmp_path):
        code = run([
            "correlate", "--cases", str(tmp_path / "nope.csv"),
            "--panel", str(tmp_path / "nope2.csv"), "--out", str(tmp_path / "t.csv"),
        ])
        assert code == 1

    def test_unwritable_output_is_data_error(self, tmp_path, capsys):
        cases, panel = synth_files(tmp_path)
        capsys.readouterr()
        code = run([
            "correlate", "--cases", str(cases), "--panel", str(panel),
            "--out", str(tmp_path / "no-such-dir" / "t.csv"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DataError: cannot write ")
        assert err.count("\n") == 1

    def test_malformed_input_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"not,a,header\n")
        code = run([
            "correlate", "--cases", str(bad), "--panel", str(bad),
            "--out", str(tmp_path / "t.csv"),
        ])
        assert code == 1

    def test_case_count_too_large_for_a_float_is_one_error_line(self, tmp_path, capsys):
        cases, panel = synth_files(tmp_path)
        lines = cases.read_text().split("\n")
        lines[2] = lines[2].split(",")[0] + "," + "9" * 400
        cases.write_text("\n".join(lines))
        capsys.readouterr()
        code = run([
            "correlate", "--cases", str(cases), "--panel", str(panel),
            "--out", str(tmp_path / "t.csv"),
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: MalformedRow: line 3: case count above 2**53\n"
        assert not (tmp_path / "t.csv").exists()


def refuse(*args):
    raise errors.DataError("refused")


@pytest.mark.parametrize("argv, target", [
    (["correlate", "--out", "t.csv", "--sidecar", "t.json"], (report.Table, "to_sidecar_json")),
    (["shift-scan", "--out", "s.csv", "--sidecar", "s.json"], (report.Table, "to_sidecar_json")),
    (["nowcast", "--out-estimates", "e.csv", "--out-table", "t.csv"],
     (report, "table_model_by_shift")),
    (["synth", "--seed", "1", "--weeks", "30", "--peaks", "10:50:3",
      "--out-cases", "c.csv", "--out-panel", "p.csv"], (ingest, "write_trends_csv")),
], ids=["correlate", "shift-scan", "nowcast", "synth"])
def test_a_refusal_while_outputs_are_built_writes_no_file(tmp_path, monkeypatch, capsys,
                                                           argv, target):
    # the builder of the last output refuses once the first output is built
    cases, panel = synth_files(tmp_path / "in")
    inputs = [] if argv[0] == "synth" else ["--cases", str(cases), "--panel", str(panel)]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(*target, refuse)
    capsys.readouterr()
    assert run([argv[0], *inputs, *argv[1:]]) == 1
    assert capsys.readouterr().err == "error: DataError: refused\n"
    assert [p.name for p in tmp_path.iterdir()] == ["in"]


class TestPipelineCommands:
    @pytest.fixture()
    def fixtures(self, tmp_path):
        return synth_files(tmp_path)

    def test_shift_scan(self, fixtures, tmp_path):
        cases, panel = fixtures
        out = tmp_path / "scan.csv"
        assert run([
            "shift-scan", "--cases", str(cases), "--panel", str(panel),
            "--shifts=-2..2", "--out", str(out),
        ]) == 0
        text = out.read_text()
        assert "2-week lagging" in text and "2-week preceding" in text

    def test_the_parser_built_once_keeps_its_defaults(self, fixtures, tmp_path, capsys):
        # one parser serves every call of a process, so calls share its default --shifts list
        cases, panel = fixtures

        def nowcast(name, *options):
            est, table = tmp_path / f"{name}-est.csv", tmp_path / f"{name}-table.csv"
            code = run(["nowcast", "--cases", str(cases), "--panel", str(panel), *options,
                        "--out-estimates", str(est), "--out-table", str(table)])
            out = capsys.readouterr().out
            return (code, out, est.read_bytes(), table.read_bytes()) if code == 0 else code

        first = nowcast("first")
        assert first[0] == 0
        assert nowcast("usage", "--shifts=-1..1", "--mode", "weekly") == 2
        assert nowcast("narrow", "--shifts=-1..1")[3].count(b"-week") == 3
        assert nowcast("again") == first

    def test_select(self, fixtures, tmp_path):
        cases, panel = fixtures
        out = tmp_path / "sel.json"
        assert run([
            "select", "--cases", str(cases), "--panel", str(panel), "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["shift"] == 2
        assert payload["objective"] >= 0.999
        assert payload["trace"][0]["step"] == 1

    def test_fit(self, fixtures, tmp_path):
        cases, panel = fixtures
        out = tmp_path / "fit.csv"
        assert run([
            "fit", "--cases", str(cases), "--panel", str(panel),
            "--shift", "2", "--queries", "signal_1", "--out", str(out),
        ]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "term,estimate,std_error,ci_low,ci_high,p_value"
        assert lines[1].startswith("(intercept),")

    def test_fit_names_a_repeated_query(self, fixtures, tmp_path, capsys):
        cases, panel = fixtures
        capsys.readouterr()
        assert run([
            "fit", "--cases", str(cases), "--panel", str(panel),
            "--queries", "signal_1,signal_2,signal_1", "--out", str(tmp_path / "fit.csv"),
        ]) == 1
        assert capsys.readouterr().err == (
            "error: InvalidConfig: panel labels must be distinct: 'signal_1' is repeated\n")
        assert not (tmp_path / "fit.csv").exists()

    @pytest.mark.parametrize("alpha", ["0", "1.5", "-1", "nan"])
    def test_fit_rejects_alpha_outside_unit_interval(self, fixtures, tmp_path, capsys, alpha):
        cases, panel = fixtures
        capsys.readouterr()
        assert run([
            "fit", "--cases", str(cases), "--panel", str(panel),
            f"--alpha={alpha}", "--out", str(tmp_path / "fit.csv"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "fit.csv").exists()

    def test_fit_at_the_smallest_alpha_prints_finite_intervals(self, fixtures, tmp_path):
        cases, panel = fixtures
        out = tmp_path / "fit.csv"
        assert run([
            "fit", "--cases", str(cases), "--panel", str(panel),
            "--alpha=5e-324", "--out", str(out),
        ]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:-1]]
        assert rows and all(math.isfinite(float(v)) for row in rows for v in row[3:5])

    @pytest.mark.parametrize("argv, expected", [
        (["select", "--out", "sel.json"], 0),
        (["nowcast", "--mode", "full", "--out-estimates", "e.csv", "--out-table", "t.csv"], 0),
        (["nowcast", "--mode", "rolling", "--warmup", "40",
          "--out-estimates", "e.csv", "--out-table", "t.csv"], 0),
        (["fit", "--shift", "2", "--out", "fit.csv"], 1),
    ])
    def test_critical_value_only_where_fit_prints_intervals(
            self, fixtures, tmp_path, monkeypatch, argv, expected):
        cases, panel = fixtures
        real, calls = stats.t_critical, []
        monkeypatch.setattr(stats, "t_critical", lambda *a: calls.append(a) or real(*a))
        monkeypatch.chdir(tmp_path)
        assert run(argv[:1] + ["--cases", str(cases), "--panel", str(panel)] + argv[1:]) == 0
        assert len(calls) == expected

    @pytest.mark.parametrize("mode", ["full", "rolling"])
    def test_nowcast(self, fixtures, tmp_path, mode):
        cases, panel = fixtures
        est = tmp_path / f"est_{mode}.csv"
        table = tmp_path / f"table_{mode}.csv"
        # warmup spans the first epidemic wave so the first rolling
        # window has query variation to fit on
        assert run([
            "nowcast", "--cases", str(cases), "--panel", str(panel),
            "--mode", mode, "--warmup", "40",
            "--out-estimates", str(est), "--out-table", str(table),
        ]) == 0
        assert est.read_text().startswith("week,label,value")
        assert "2-week lagging" in table.read_text()

    def test_report_fig(self, fixtures, tmp_path):
        cases, panel = fixtures
        out = tmp_path / "fig.csv"
        assert run([
            "report-fig", "--cases", str(cases), "--panel", str(panel), "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "week,label,value"
        assert len(lines) - 1 == 150 * 3  # cases + two queries

    def test_every_subcommand_is_reproducible(self, fixtures, tmp_path):
        cases, panel = fixtures
        outputs = {}
        for tag in ("one", "two"):
            d = tmp_path / tag
            d.mkdir()
            run(["correlate", "--cases", str(cases), "--panel", str(panel),
                 "--out", str(d / "corr.csv"), "--sidecar", str(d / "corr.json")])
            run(["shift-scan", "--cases", str(cases), "--panel", str(panel),
                 "--out", str(d / "scan.csv")])
            run(["select", "--cases", str(cases), "--panel", str(panel),
                 "--out", str(d / "sel.json")])
            run(["fit", "--cases", str(cases), "--panel", str(panel),
                 "--shift", "2", "--out", str(d / "fit.csv")])
            run(["nowcast", "--cases", str(cases), "--panel", str(panel),
                 "--out-estimates", str(d / "est.csv"), "--out-table", str(d / "tab.csv")])
            run(["report-fig", "--cases", str(cases), "--panel", str(panel),
                 "--out", str(d / "fig.csv")])
            outputs[tag] = {
                p.name: p.read_bytes() for p in sorted(d.iterdir())
            }
        assert outputs["one"] == outputs["two"]


# every command that reads inputs, with each of its outputs named: 11 files
PREFIX_CALLS = [
    ["correlate", "--shift", "2", "--out", "correlate.csv", "--sidecar", "correlate.json"],
    ["shift-scan", "--out", "scan.csv", "--sidecar", "scan.json"],
    ["select", "--out", "select.json"],
    ["fit", "--shift", "2", "--out", "fit.csv"],
    *(["nowcast", "--mode", mode, "--out-estimates", f"{mode}-estimates.csv",
       "--out-table", f"{mode}-table.csv"] for mode in ("full", "rolling")),
    ["report-fig", "--out", "figure.csv"],
]


def test_prefixed_query_labels_change_no_byte_but_the_prefix(tmp_path, monkeypatch, capsys):
    # a metamorphic relation: "zz_" keeps the queries in their order and after the
    # labels "cases" and "estimates", so no ranking, tie-break or figure row moves
    cases, panel = synth_files(tmp_path / "plain", ["--signal-queries", "4",
                                                    "--noise-queries", "4", "--noise-sd", "0.5"])
    header, rows = panel.read_bytes().split(b"\n", 1)
    (tmp_path / "zz").mkdir()
    (tmp_path / "zz" / "cases.csv").write_bytes(cases.read_bytes())
    (tmp_path / "zz" / "panel.csv").write_bytes(header.replace(b",", b",zz_") + b"\n" + rows)
    seen = {}
    for tree in ("plain", "zz"):
        monkeypatch.chdir(tmp_path / tree)
        capsys.readouterr()
        for command, *options in PREFIX_CALLS:
            assert run([command, "--cases", "cases.csv", "--panel", "panel.csv", *options]) == 0
        seen[tree] = [capsys.readouterr().out.encode()] + [
            p.read_bytes() for p in sorted(Path().iterdir()) if p.name not in ("cases.csv",
                                                                              "panel.csv")]
    assert len(seen["zz"]) == 1 + 11
    assert seen["zz"] != seen["plain"]
    assert [data.replace(b"zz_", b"") for data in seen["zz"]] == seen["plain"]


def shifted_design(cases, panel, k):
    """Search volumes at week t and cases at week t+k, paired by week stamp."""
    case_at = {cases.start.add(i): v for i, v in enumerate(cases.values)}
    weeks = [panel.start.add(i) for i in range(len(panel.matrix))]
    keep = [i for i, w in enumerate(weeks) if w.add(k) in case_at]
    X = np.array([panel.matrix[i] for i in keep], dtype=float)
    return X, np.array([case_at[weeks[i].add(k)] for i in keep], dtype=float)


class TestAgainstOracles:
    """Printed CLI outputs against tests/oracles.py and scipy."""

    @pytest.fixture()
    def fixtures(self, tmp_path):
        cases, panel = synth_files(tmp_path, ["--noise-queries", "2"])
        return cases, panel, parse_cases_csv(cases.read_bytes()), parse_trends_csv(panel.read_bytes())

    @pytest.mark.parametrize("alpha", [0.05, 0.10])
    def test_fit_table(self, fixtures, tmp_path, alpha):
        cases, panel, y, queries = fixtures
        out = tmp_path / "fit.csv"
        assert run([
            "fit", "--cases", str(cases), "--panel", str(panel),
            "--shift", "2", "--alpha", str(alpha), "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:-1]]

        X, yv = shifted_design(y, queries, 2)
        beta = normal_equations_ols(X, yv)
        A = np.hstack([np.ones((len(yv), 1)), X])
        resid = yv - A @ beta
        dof = len(yv) - A.shape[1]
        se = np.sqrt(resid @ resid / dof * np.diag(np.linalg.inv(A.T @ A)))
        tq = scipy_stats.t.ppf(1 - alpha / 2, dof)

        assert f"residual_dof={dof} " in lines[-1]
        assert [r[0] for r in rows] == ["(intercept)", *queries.labels]
        for row, b, s in zip(rows, beta, se):
            est, std_error, lo, hi, p = map(float, row[1:])
            # printed to 6 significant digits
            assert est == pytest.approx(b, rel=1e-5)
            assert std_error == pytest.approx(s, rel=1e-5)
            slack = 1e-8 * (abs(b) + tq * s)
            assert lo == pytest.approx(b - tq * s, rel=1e-5, abs=slack)
            assert hi == pytest.approx(b + tq * s, rel=1e-5, abs=slack)
            assert p == pytest.approx(2 * scipy_stats.t.sf(abs(b / s), dof), rel=1e-5, abs=1e-12)

    def test_correlate_sidecar_overall(self, fixtures, tmp_path):
        cases, panel, y, queries = fixtures
        sidecar = tmp_path / "table.json"
        assert run([
            "correlate", "--cases", str(cases), "--panel", str(panel), "--shift", "2",
            "--out", str(tmp_path / "table.csv"), "--sidecar", str(sidecar),
        ]) == 0
        detail = json.loads(sidecar.read_text())
        X, yv = shifted_design(y, queries, 2)
        assert [d["query"] for d in detail] == list(queries.labels)
        for j, d in enumerate(detail):
            assert d["overall"]["n"] == len(yv)
            assert abs(d["overall"]["value"] - definitional_pearson(X[:, j], yv)) <= 1e-12


def readme_commands() -> list[list[str]]:
    """Every `flunowcast ...` command in README's sh blocks, in order."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in text.split("```sh\n")[1:]:
        body = block.split("```", 1)[0].replace("\\\n", " ")
        commands += [shlex.split(line, comments=True) for line in body.splitlines()
                     if line.startswith("flunowcast ")]
    return commands


def test_readme_examples_run(tmp_path, monkeypatch):
    commands = readme_commands()
    subparsers, = (action for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
    assert {argv[1] for argv in commands} == set(subparsers.choices)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert run(argv[1:]) == 0, " ".join(argv)


class TestNowcastOnReadmeFixture:
    @pytest.fixture()
    def inputs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        synth_argv = next(argv for argv in readme_commands() if argv[1] == "synth")
        assert run(synth_argv[1:]) == 0
        return ["--cases", "cases.csv", "--panel", "panel.csv"]

    @pytest.mark.parametrize("mode", ["full", "rolling"])
    def test_clamp_zeroes_negative_estimates(self, inputs, mode):
        files = {}
        for flag in ([], ["--clamp"]):
            out = f"est{''.join(flag)}.csv"
            assert run(["nowcast", *inputs, "--mode", mode, "--warmup", "40", *flag,
                        "--out-estimates", out, "--out-table", "table.csv"]) == 0
            files[tuple(flag)] = Path(out).read_text().splitlines()
        negative = [line for line in files[()] if ",estimates,-" in line]
        # on this fixture only the rolling estimates dip below zero
        assert bool(negative) == (mode == "rolling")
        expected = [line.rsplit(",", 1)[0] + ",0.00" if line in negative else line
                    for line in files[()]]
        assert files[("--clamp",)] == expected

    def test_rolling_without_estimated_weeks(self, inputs, capsys):
        # the fixture has 259 fitted weeks at the chosen shift of +2
        assert run(["nowcast", *inputs, "--mode", "rolling", "--warmup", "300",
                    "--out-estimates", "est.csv", "--out-table", "table.csv"]) == 0
        rows = Path("est.csv").read_text().splitlines()
        assert rows[0] == "week,label,value"
        assert {row.split(",")[1] for row in rows[1:]} == {"cases"}
        assert capsys.readouterr().out.endswith("overall r NA\n")


class TestPastTheCalendar:
    """Weeks after 9999-W52 are a data error: exit 1, one line, no file."""

    def assert_one_line_error(self, capsys, error, *paths):
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}: ") and err.count("\n") == 1
        assert not any(p.exists() for p in paths)

    def test_synth_past_9999_w52(self, tmp_path, capsys):
        cases, panel = tmp_path / "cases.csv", tmp_path / "panel.csv"
        assert run(["synth", "--seed", "1", "--weeks", "20", "--peaks", "5:10:2",
                    "--start", "9999-W50", "--out-cases", str(cases),
                    "--out-panel", str(panel)]) == 1
        self.assert_one_line_error(capsys, "InvalidConfig", cases, panel)

    @pytest.mark.parametrize("horizon", [["--weeks", "999999999999"],
                                         ["--weeks", "30", "--lead", "999999999999"]])
    def test_synth_rejects_a_horizon_too_long_to_allocate(self, tmp_path, capsys, horizon):
        # the config is checked before generate sizes any array by the horizon
        cases, panel = tmp_path / "cases.csv", tmp_path / "panel.csv"
        assert run(["synth", "--seed", "1", *horizon, "--peaks", "5:10:2",
                    "--out-cases", str(cases), "--out-panel", str(panel)]) == 1
        self.assert_one_line_error(capsys, "InvalidConfig", cases, panel)

    def test_nowcast_estimates_past_9999_w52(self, tmp_path, capsys):
        # 52 weeks of cases end at 9999-W52; estimates at shift +2 run two weeks past it
        cases, panel = synth_files(tmp_path, ["--weeks", "52", "--start", "9999-W01"])
        inputs = ["--cases", str(cases), "--panel", str(panel)]
        assert run(["select", *inputs, "--out", str(tmp_path / "sel.json")]) == 0
        assert json.loads((tmp_path / "sel.json").read_text())["shift"] == 2
        capsys.readouterr()
        est, table = tmp_path / "est.csv", tmp_path / "table.csv"
        assert run(["nowcast", *inputs, "--out-estimates", str(est),
                    "--out-table", str(table)]) == 1
        self.assert_one_line_error(capsys, "InvalidConfig", est, table)


def test_rolling_selection_sees_the_weeks_it_estimates(tmp_path, monkeypatch, capsys):
    """Rolling mode refits only the coefficients on earlier weeks: the
    queries are chosen once from all weeks, so changing cases after week t
    changes the chosen set and with it estimates at weeks <= t."""
    monkeypatch.chdir(tmp_path)
    start, n, t = WeekStamp(2015, 1), 80, 40
    rng = np.random.default_rng(1)
    cases = rng.integers(10, 200, n)
    before_t = np.arange(n) < t
    # query a tracks the cases before t, query b the cases from t on
    a = np.where(before_t, cases // 2, rng.integers(0, 100, n))
    b = np.where(before_t, rng.integers(0, 100, n), cases // 2)
    Path("panel.csv").write_text(
        "week,a,b\n" + "".join(f"{start.add(i)},{x},{y}\n" for i, (x, y) in enumerate(zip(a, b))))
    later = cases.copy()
    later[t + 1:] = rng.integers(10, 200, n - t - 1)

    runs = []
    for tag, values in (("base", cases), ("later", later)):
        Path(f"{tag}.csv").write_text(
            "week,cases\n" + "".join(f"{start.add(i)},{v}\n" for i, v in enumerate(values)))
        assert run(["nowcast", "--cases", f"{tag}.csv", "--panel", "panel.csv", "--shifts=0",
                    "--mode", "rolling", "--warmup", "10",
                    "--out-estimates", f"est-{tag}.csv", "--out-table", "table.csv"]) == 0
        rows = [line.split(",") for line in Path(f"est-{tag}.csv").read_text().splitlines()]
        runs.append((capsys.readouterr().out,
                     {w: v for w, label, v in rows if label == "estimates"}))
    (base_out, base), (later_out, after) = runs
    assert " queries a,b " in base_out and " queries a " in later_out
    up_to_t = [str(start.add(i)) for i in range(10, t + 1)]
    assert any(base[w] != after[w] for w in up_to_t)


# each flag's in-range values, then its edges and out-of-range values, some of
# which do not parse (a usage error)
FLAG_VALUES = {
    "--alpha": (["0.05", "0.001", "0.5"], ["0", "1", "1.5", "-1", "nan", "inf", "x"]),
    "--shift": (["-2", "0", "1", "2"], ["-3", "3", "1.5", "x"]),
    "--shifts": (["-2..2", "0..2", "-1,1", "2"], ["3..1", "0,0", "-3..0", "1..x"]),
    "--mode": (["full", "rolling"], ["weekly"]),
    "--warmup": (["5", "12"], ["-3", "0", "10000", "x"]),
    "--seed": (["0", "42", str(2 ** 70)], ["-5", "-1", "1.5"]),
    "--weeks": (["20", "52", "300"], ["-3", "0", "19"]),
    "--peaks": (["20:800:3", "10:50:3,40:900:4", "20:800:1e-300"],
                ["20:800:nan", "20:inf:3", "10:50:0", "20:1e17:3", "20:1e308:3,20:1e308:3",
                 "1:2"]),
    "--lead": (["0", "2"], ["-1", "400"]),
    "--spikes": (["10:5:2", "3:5:0"], ["3:5:-1", "10:1e308:2", "10:nan:2", "10.9:1:1",
                                       f"1{'0' * 400}:1:1"]),
    "--decay": (["0.5", "1"], ["0", "1.5", "nan"]),
    "--noise-sd": (["0", "0.05"], ["-1", "inf"]),
    "--signal-queries": (["0", "3", "6"], ["-1"]),
    "--noise-queries": (["0", "6"], ["-1"]),
    "--start": (["2009-W01", "0001-W01", "9999-W33", "2015-W53"], ["9999-W52", "2009-W60", "x"]),
}
OPTIONAL = {
    "synth": ["--lead", "--spikes", "--decay", "--noise-sd", "--signal-queries",
              "--noise-queries", "--start"],
    "nowcast": ["--alpha", "--shifts", "--mode", "--warmup", "--clamp"],
    "select": ["--alpha", "--shifts"],
    "fit": ["--alpha", "--shift", "--queries"],
    "correlate": ["--alpha", "--shift", "--sidecar"],
    "shift-scan": ["--alpha", "--shifts", "--sidecar"],
    "report-fig": [],
}
OUTPUTS = {
    "correlate": ["--out", "out.csv"], "shift-scan": ["--out", "out.csv"],
    "select": ["--out", "out.json"], "fit": ["--out", "out.csv"],
    "nowcast": ["--out-estimates", "est.csv", "--out-table", "table.csv"],
    "report-fig": ["--out", "out.csv"],
    "synth": ["--out-cases", "new-cases.csv", "--out-panel", "new-panel.csv"],
}


def flag_value(flag):
    """A value of `flag`, in range more often than not."""
    good, bad = FLAG_VALUES[flag]
    return st.sampled_from(good) | st.sampled_from(good + bad)


@st.composite
def scenario_files(draw):
    """cases.csv and panel.csv of a synth scenario of at most 300 weeks and
    12 queries, ending at 9999-W52 or starting at 0001-W01 among others; the
    panel maybe cut to a window of its weeks, and one file maybe mutated."""
    # the first value of each list is the one hypothesis starts from: a scenario that selects
    weeks, signal = draw(st.integers(20, 300)), draw(st.sampled_from([3, 1, 6, 0]))
    start = draw(st.sampled_from([WeekStamp(2009, 1), WeekStamp(1, 1),
                                  WeekStamp(9999, 52).add(1 - weeks)]))
    peak = (draw(st.sampled_from([weeks // 2, 0, weeks])),
            draw(st.sampled_from([900.0, 50.0, 0.0])), draw(st.sampled_from([4.0, 1.0])))
    cases, panel = synth.generate(synth.ScenarioConfig(
        seed=draw(st.integers(0, 2 ** 32)), weeks=weeks, epidemic_peaks=(peak,),
        lead_weeks=draw(st.integers(0, 3)), noise_sd=draw(st.sampled_from([0.05, 0.0, 1.0])),
        n_signal_queries=signal, n_noise_queries=draw(st.integers(int(signal == 0), 6)),
        start=start))
    rows = write_trends_csv(panel).decode().splitlines(keepends=True)
    if draw(st.booleans()):  # a window of the panel's weeks, down to one week
        lo = draw(st.integers(1, len(rows) - 1))
        rows = rows[:1] + rows[lo:draw(st.integers(lo + 1, len(rows)))]
    files = {"cases.csv": write_cases_csv(cases).decode(), "panel.csv": "".join(rows)}
    mutated = draw(st.sampled_from([None, None, "cases.csv", "panel.csv"]))
    return {name: draw(mutated_csv(text)) if name == mutated else text.encode()
            for name, text in files.items()}


@st.composite
def cli_calls(draw):
    """(input files, argv) of one command, its flags drawn from FLAG_VALUES."""
    # synth, whose seven flags are the most to draw, about half the time
    command = draw(st.just("synth") | st.sampled_from(list(OPTIONAL)))
    if command == "synth":
        files, argv = {}, [command]
        for flag in ("--seed", "--weeks", "--peaks"):
            argv.append(f"{flag}={draw(flag_value(flag))}")
    else:
        files = draw(scenario_files())
        argv = [command, "--cases", "cases.csv", "--panel", "panel.csv"]
    flags = OPTIONAL[command] and draw(st.lists(st.sampled_from(OPTIONAL[command]), max_size=4))
    for flag in flags:  # a flag drawn twice is given twice, and argparse keeps the last
        if flag == "--clamp":
            argv.append(flag)
        elif flag == "--sidecar":
            argv += [flag, "sidecar.json"]
        elif flag == "--queries":  # the panel's labels, repeated ones and a missing one too
            labels = files["panel.csv"].split(b"\n", 1)[0].decode().split(",")[1:]
            queries = draw(st.lists(st.sampled_from(labels + ["missing"]), min_size=1, max_size=4))
            argv.append(f"{flag}={','.join(queries)}")
        else:
            argv.append(f"{flag}={draw(flag_value(flag))}")
    return files, argv + OUTPUTS[command]


@st.composite
def mutated_bytes(draw, data):
    """`data` with one to four runs of up to three bytes replaced by up to three
    others (an insert or a deletion where either run is empty): arbitrary bytes,
    or ones the CSV grammar turns on (non-UTF-8, CR, LF, comma, minus)."""
    data = bytearray(data)
    some = st.sampled_from([b"\xff", b"\xc3", b"\r", b"\n", b",", b"-"]) | st.binary(max_size=3)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(data)))
        data[i:i + draw(st.integers(0, 3))] = draw(some)
    return bytes(data)


def run_in(files, argv):
    """(exit code, stderr) of `run(argv)` in a directory holding `files`, whose
    names and the other .csv and .json paths of argv are read inside it."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            Path(tmp, name).write_bytes(data)
        argv = [str(Path(tmp, a)) if a.endswith((".csv", ".json")) else a for a in argv]
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            return run(argv), err.getvalue()


class TestFuzz:
    """Any drawn command, run in this process, exits 0, 1 or 2; exit 1 is
    one `error: <DataError subclass>: ...` line, and nothing escapes `run`."""

    @given(cli_calls())
    @settings(max_examples=500, deadline=None)
    def test_every_exit_is_0_1_or_2(self, call):
        files, argv = call
        code, err = run_in(files, argv)
        # pytest --hypothesis-show-statistics lists how often each outcome was drawn
        event(f"{argv[0]} exit {code}" + (f" {err.split(':')[1]}" if code == 1 else ""))
        assert code in (0, 1, 2), (argv, code)
        if code == 1:
            assert_one_error_line(err)

    @given(st.sampled_from([c for c in OUTPUTS if c != "synth"]), scenario_files(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bytes_exit_0_or_1(self, command, files, data):
        name = data.draw(st.sampled_from(sorted(files)))
        files[name] = data.draw(mutated_bytes(files[name]))
        argv = [command, "--cases", "cases.csv", "--panel", "panel.csv", *OUTPUTS[command]]
        code, err = run_in(files, argv)
        assert code in (0, 1), (argv, code, err)
        if code == 1:
            assert_one_error_line(err)

    def test_a_bug_escapes_run(self, tmp_path, monkeypatch):
        cases, panel = synth_files(tmp_path)

        def misshapen_fit(*args):
            return np.ones((2, 3)) @ np.ones((2, 3))

        monkeypatch.setattr("flunowcast.regress.fit_ols", misshapen_fit)
        with pytest.raises(ValueError, match="matmul"):
            run(["fit", "--cases", str(cases), "--panel", str(panel),
                 "--out", str(tmp_path / "fit.csv")])
