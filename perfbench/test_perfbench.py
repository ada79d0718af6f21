"""Tests of the benchmark's own logic.

  python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from workloads import Call  # noqa: E402

# ---- span arithmetic --------------------------------------------------------

#   0 cli.run                      [0, 10]
#   |- 1 regress.fit_ols           [1, 6]
#   |  |- 2 stats.t_critical       [2, 5]
#   |     |- 3 stats.student_t...  [3, 4]
#   |- 4 stats.student_t...        [7, 9]
TREE_NAMES = ["cli.run", "regress.fit_ols", spans.T_CRITICAL, spans.P_VALUE, spans.P_VALUE]
TREE_PARENT = [-1, 0, 1, 2, 0]
TREE_START = [0.0, 1.0, 2.0, 3.0, 7.0]
TREE_END = [10.0, 6.0, 5.0, 4.0, 9.0]


def test_self_times_subtract_direct_children_only():
    assert spans.self_times(TREE_PARENT, TREE_START, TREE_END) == [3.0, 2.0, 2.0, 1.0, 2.0]


def test_inside_follows_the_whole_ancestor_chain():
    assert spans.inside(TREE_PARENT, TREE_NAMES, "regress.fit_ols") == [
        False, False, True, True, False]


def test_layer_metrics_on_a_hand_built_tree():
    m = spans.layer_metrics(TREE_NAMES, TREE_PARENT, TREE_START, TREE_END, {})
    assert m["cli.glue_s"] == 3.0
    assert m["regress.fit_s"] == 2.0
    assert m["regress.self_s"] == 2.0
    assert m["stats.self_s"] == 5.0
    assert m["stats.p_value_calls"] == 2
    assert m["stats.p_value_s"] == 3.0  # inclusive
    assert m["stats.t_critical_s"] == 3.0  # inclusive of its p-value call
    assert m["stats.p_value_useful_ratio"] == 0.5
    assert m["trace.total_s"] == 10.0
    assert m["trace.spans"] == 5
    assert m["selection.self_s"] == 0.0
    assert spans.self_time_balance(m) == 0.0


def test_tracer_wraps_every_binding_and_restores_them(tmp_path, monkeypatch):
    from flunowcast import cli, regress, report, selection

    original = regress.in_sample_objective
    tracer = spans.Tracer()
    tracer.install()
    try:
        for mod in (regress, report, selection):
            assert mod.in_sample_objective is not original
            assert mod.in_sample_objective.__wrapped__ is original
        monkeypatch.chdir(tmp_path)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(["synth", "--seed", "1", "--weeks", "30", "--peaks", "10:50:3",
                            "--out-cases", "c.csv", "--out-panel", "p.csv"])
    finally:
        tracer.uninstall()
    assert code == 0
    for mod in (regress, report, selection):
        assert mod.in_sample_objective is original
    names = tracer.span_names()
    assert names[0] == "cli.run" and list(tracer.parent).count(-1) == 1
    assert "synth.generate" in names and spans.ADD in names
    m = spans.layer_metrics(names, tracer.parent, tracer.start, tracer.end, tracer.counters)
    assert abs(spans.self_time_balance(m)) < 1e-9
    assert m["ingest.write_s"] > 0 and m["regress.fit_calls"] == 0


# ---- correctness check ------------------------------------------------------

def _reference_for(workdir: Path, call: Call) -> dict:
    return {n: check.reference_entry(n, (workdir / n).read_bytes()) for n in call.outputs}


def test_check_flags_a_one_byte_change_to_a_csv(tmp_path):
    call = Call(("report-fig",), ("figure.csv",))
    (tmp_path / "figure.csv").write_bytes(b"week,label,value\n2015-W01,cases,12.00\n")
    reference = _reference_for(tmp_path, call)
    assert check.check_call(call, tmp_path, reference) == []
    (tmp_path / "figure.csv").write_bytes(b"week,label,value\n2015-W01,cases,12.01\n")
    assert check.check_call(call, tmp_path, reference) == [
        "figure.csv: not byte-identical to the reference"]


def test_check_compares_json_after_parsing_with_a_relative_tolerance(tmp_path):
    call = Call(("select",), ("selection.json",))
    path = tmp_path / "selection.json"
    path.write_text(json.dumps({"chosen": ["a"], "shift": 2, "objective": 0.9}))
    reference = _reference_for(tmp_path, call)
    path.write_text(json.dumps({"chosen": ["a"], "shift": 2, "objective": 0.9 * (1 + 1e-12)},
                               indent=2))
    assert check.check_call(call, tmp_path, reference) == []
    path.write_text(json.dumps({"chosen": ["a"], "shift": 2, "objective": 0.8}))
    assert check.check_call(call, tmp_path, reference) != []


def test_check_flags_a_missing_output(tmp_path):
    call = Call(("report-fig",), ("figure.csv",))
    assert check.check_call(call, tmp_path, None) == ["figure.csv: missing"]


def test_independent_checks_catch_wrong_values(tmp_path, monkeypatch):
    from flunowcast import cli

    monkeypatch.chdir(tmp_path)
    argvs = [["synth", "--seed", "3", "--weeks", "80", "--peaks", "20:300:3,60:500:4",
              "--noise-sd", "0.2", "--signal-queries", "2", "--noise-queries", "1",
              "--out-cases", "cases.csv", "--out-panel", "panel.csv"],
             ["fit", "--cases", "cases.csv", "--panel", "panel.csv", "--shift", "2",
              "--out", "coefficients.csv"],
             ["correlate", "--cases", "cases.csv", "--panel", "panel.csv", "--shift", "2",
              "--out", "table.csv", "--sidecar", "table.json"]]
    with contextlib.redirect_stdout(io.StringIO()):
        assert [cli.run(a) for a in argvs] == [0, 0, 0]
    fit = Call(tuple(argvs[1]), ("coefficients.csv",))
    corr = Call(tuple(argvs[2]), ("table.csv", "table.json"))
    assert check.check_call(fit, tmp_path, None) == []
    assert check.check_call(corr, tmp_path, None) == []

    coef = tmp_path / "coefficients.csv"
    rows = coef.read_text().splitlines()
    cells = rows[2].split(",")
    cells[1] = f"{float(cells[1]) * 1.001:.6g}"
    coef.write_text("\n".join(rows[:2] + [",".join(cells)] + rows[3:]) + "\n")
    assert any("lstsq" in p for p in check.check_call(fit, tmp_path, None))

    table = tmp_path / "table.csv"
    rows = table.read_text().splitlines()
    cells = rows[1].split(",")
    cells[1] = f"{float(cells[1]) - 0.02:.2f}"
    table.write_text("\n".join(rows[:1] + [",".join(cells)] + rows[2:]) + "\n")
    assert any("corrcoef" in p for p in check.check_call(corr, tmp_path, None))


@pytest.mark.parametrize("printed, exact, ok", [
    ("1.23457", 1.234567, True),
    ("1.23456", 1.234567, False),
    ("-0.000123457", -0.0001234567, True),
    ("0", 0.0, True),
])
def test_within_printed_precision(printed, exact, ok):
    assert check._within_printed(printed, exact) is ok


# ---- peak RSS ---------------------------------------------------------------

def test_peak_rss_is_read_per_child(tmp_path):
    # A child's ru_maxrss includes its spawner's memory at spawn time, so
    # the children are spawned from a small interpreter, like run.py's.
    script = f"""
import json, sys
from pathlib import Path
import run
tmp = Path({str(tmp_path)!r})
big = "b = bytearray(96 << 20); b[::4096] = b'x' * len(b[::4096])"
out = [run.spawn_and_wait([sys.executable, "-c", code], tmp, {{}}, tmp / "err")
       for code in (big, "pass")]
print(json.dumps([o[2:] for o in out]))
"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "perfbench"))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    (code_big, rss_big), (code_small, rss_small) = json.loads(out)
    assert code_big == code_small == 0
    # the small child ran after the big one, so a RUSAGE_CHILDREN maximum
    # would report the big child's peak for it
    assert rss_big - rss_small > 64 << 10  # KiB


def test_run_py_does_not_import_numpy():
    # a large launcher would set a floor under every child's peak RSS
    out = subprocess.run(
        [sys.executable, "-c", "import sys, run; print('numpy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "perfbench")), check=True,
        stdout=subprocess.PIPE, text=True).stdout
    assert out.strip() == "False"


def test_spawn_and_wait_reports_the_exit_code(tmp_path):
    _, _, code, _ = run.spawn_and_wait([sys.executable, "-c", "raise SystemExit(3)"],
                                       tmp_path, dict(os.environ), tmp_path / "err")
    assert code == 3


def test_the_reference_covers_every_output():
    import workloads

    for name in workloads.WORKLOADS:
        reference = check.load_reference(name)
        outputs = {o for c in workloads.calls(name, workloads.DEFAULT_SEED) for o in c.outputs}
        assert set(reference) == outputs


# ---- speed scaling ------------------------------------------------------------

def test_scaled_removes_the_loops_and_applies_their_mean_speed():
    ref = speed.REFERENCE_S
    sampler = speed.Sampler()
    sampler.samples = [(0.5, ref), (1.5, 2 * ref), (9.0, ref)]
    # two loops inside [0, 2]: one at reference speed, one at half of it
    assert sampler.scaled(2.0, 0.0, 2.0) == pytest.approx((2.0 - 3 * ref) * 0.75)
    # an interval holding no loop takes the speed of the nearest ones
    assert sampler.scaled(0.1, 2.0, 2.1) == pytest.approx(0.1 * 0.75)
