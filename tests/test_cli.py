import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

from flunowcast import errors, stats
from flunowcast.cli import _COMMANDS, run
from flunowcast.ingest import parse_cases_csv, parse_trends_csv
from flunowcast.timeseries import WeekStamp

from .oracles import definitional_pearson, normal_equations_ols


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


def run_process(argv, cwd):
    """Run `python -m flunowcast` in a child process, as a user does, and
    check what the user sees: no traceback and no warning text on stderr,
    and on exit 1 exactly one line, `error: <DataError subclass>: ...`.
    Warnings that Python prints to stderr are visible only from a child."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "flunowcast", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr, proc.stderr
    if proc.returncode == 1:
        line = re.fullmatch(r"error: (\w+): .+\n", proc.stderr)
        assert line, proc.stderr
        error = getattr(errors, line[1], None)
        assert isinstance(error, type) and issubclass(error, errors.DataError), proc.stderr
    return proc


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


class TestSynth:
    def test_deterministic_outputs(self, tmp_path):
        c1, p1 = synth_files(tmp_path / "a")
        c2, p2 = synth_files(tmp_path / "b")
        assert c1.read_bytes() == c2.read_bytes()
        assert p1.read_bytes() == p2.read_bytes()

    def test_writes_parseable_fixtures(self, tmp_path):
        from flunowcast.ingest import parse_cases_csv, parse_trends_csv

        cases, panel = synth_files(tmp_path)
        assert len(parse_cases_csv(cases.read_bytes())) == 150
        assert parse_trends_csv(panel.read_bytes()).labels == ("signal_1", "signal_2")

    @pytest.mark.parametrize("week", ["inf", "nan", "10.9"])
    def test_spike_week_must_be_an_integer(self, tmp_path, capsys, week):
        cases, panel = tmp_path / "cases.csv", tmp_path / "panel.csv"
        assert run(["synth", "--seed", "1", "--weeks", "30", "--peaks", "10:50:3",
                    "--spikes", f"{week}:50:2", "--out-cases", str(cases),
                    "--out-panel", str(panel)]) == 2
        assert f"argument --spikes: invalid _parse_spikes value: '{week}:50:2'" in (
            capsys.readouterr().err)
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
            "error: ValueError: panel labels must be distinct: 'signal_1' is repeated\n")
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


def shifted_design(cases, panel, k):
    """Search volumes at week t and cases at week t+k, paired by week stamp."""
    case_at = {cases.start.add(i): v for i, v in enumerate(cases.values)}
    weeks = [panel.start.add(i) for i in range(len(panel.matrix))]
    keep = [i for i, w in enumerate(weeks) if w.add(k) in case_at]
    X = np.array([[sr.values[i] for sr in panel.series] for i in keep], dtype=float)
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
    assert {argv[1] for argv in commands} == set(_COMMANDS)
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
        self.assert_one_line_error(capsys, "ValueError", est, table)


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
