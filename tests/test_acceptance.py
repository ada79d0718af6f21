"""Acceptance gate: one test per release criterion, each printing a
PASS line (run with `pytest -s tests/test_acceptance.py` to see them).

The criteria are property-based plus qualitative-shape replication on
committed synthetic scenarios; tolerances are pinned here and nowhere
else.
"""

import json
import math
import time

import numpy as np
import pytest

from flunowcast.cli import run as cli_run
from flunowcast.errors import DataError
from flunowcast.ingest import (
    parse_cases_csv,
    parse_trends_csv,
    write_cases_csv,
    write_trends_csv,
)
from flunowcast.regress import (
    fit_ols,
    in_sample_objective,
    predict,
    rolling_weekly_fit,
)
from flunowcast.report import table_model_by_shift, table_overall_annual
from flunowcast.selection import greedy_select
from flunowcast.stats import gated_columns, paired_rows
from flunowcast.synth import ScenarioConfig, generate
from flunowcast.timeseries import ALPHA, paired

from .frames import W0, panel_of, ws
from .oracles import (
    correlation_p_value,
    definitional_pearson,
    exhaustive_best_subset,
    normal_equations_ols,
    permutation_p_value,
)

SHIFTS = [-2, -1, 0, 1, 2]

# committed scenario: three queries leading cases by two weeks over the
# 261-week study span, light noise
LEAD_SCENARIO = ScenarioConfig(
    seed=42, weeks=261,
    epidemic_peaks=((20, 800, 3), (50, 1200, 4), (110, 900, 3),
                    (160, 400, 3), (215, 300, 3)),
    lead_weeks=2, noise_sd=0.05, n_signal_queries=3, n_noise_queries=0,
)

# committed scenario: strong first season, attention decay pushing later
# years below the quantization floor
DECAY_SCENARIO = ScenarioConfig(
    seed=7, weeks=261,
    epidemic_peaks=((20, 800, 3), (50, 1200, 4), (110, 900, 3)),
    lead_weeks=0, attention_decay=0.2, noise_sd=0.05, n_signal_queries=3,
)


def _report(num, text):
    print(f"\nACCEPTANCE {num} PASS: {text}")


def test_criterion_1_correlation_oracle():
    """Pearson r matches the definitional formula to 1e-12 on 1000 series."""
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(10, 262))
        x = rng.uniform(-100, 100, size=n)
        y = rng.uniform(-100, 100, size=n)
        res = gated_columns([(x[:, None], y)], ALPHA)[0]
        assert res.n == n
        worst = max(worst, abs(res.r[0] - definitional_pearson(x, y)))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 5.0
    _report(1, f"1000 series, max |dr| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_significance_oracle():
    """t-test p agrees with a 10,000-draw permutation test within 0.02."""
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(50):
        n = int(rng.integers(20, 120))
        x = rng.normal(size=n)
        slope = rng.uniform(-0.6, 0.6)
        y = slope * x + rng.normal(size=n)
        r = definitional_pearson(x, y)
        p_t = correlation_p_value(r, n)
        p_perm = permutation_p_value(x, y, n_perm=10_000, seed=2000 + i)
        worst = max(worst, abs(p_t - p_perm))
    elapsed = time.perf_counter() - t0
    assert worst <= 0.02
    assert elapsed < 60.0
    _report(2, f"50 fixtures, max |dp| = {worst:.4f}, {elapsed:.2f}s")


def test_criterion_3_ols_oracle():
    """fit_ols matches a normal-equations solver; residuals orthogonal."""
    rng = np.random.default_rng(1003)
    t0 = time.perf_counter()
    for _ in range(200):
        nq = int(rng.integers(1, 7))
        m = int(rng.integers(nq + 3, 201))
        X = rng.uniform(0, 1, size=(m, nq))
        y_vals = rng.uniform(0, 1, size=m)
        panel = panel_of((f"q{j}", X[:, j]) for j in range(nq))
        fit = fit_ols(panel, ws(y_vals), 0)
        expected = normal_equations_ols(X, y_vals)
        np.testing.assert_allclose(fit.betas, expected, rtol=1e-9, atol=1e-12)
        resid = y_vals - predict(fit, panel).values
        assert abs(resid.sum()) <= 1e-8
        for j in range(nq):
            assert abs(resid @ X[:, j]) <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(3, f"200 panels vs normal-equations oracle, {elapsed:.2f}s")


def test_criterion_4_greedy_oracle():
    """Greedy never beats exhaustive search; equals it on reachable fixtures."""
    rng = np.random.default_rng(1004)
    checked = 0
    for trial in range(100):
        n_cand = int(rng.integers(2, 11))
        m = 60
        y_vals = rng.uniform(0, 100, size=m)
        cols = {}
        for i in range(n_cand):
            w = rng.uniform(0, 1)
            cols[f"q{i}"] = np.clip(
                w * y_vals + rng.normal(0, 40, size=m), 0, None
            )
        panel = panel_of(sorted(cols.items()))
        try:
            result = greedy_select(panel, ws(y_vals), [0])
        except DataError:
            continue
        objs = [o for _, _, o in result.trace]
        assert all(b > a for a, b in zip(objs, objs[1:])), "trace not monotone"
        _, best_r = exhaustive_best_subset(cols, y_vals)
        assert result.objective <= best_r + 1e-9
        checked += 1
    assert checked >= 80

    # reachable-path fixtures: the optimum is the top-ranked query alone
    for i in range(10):
        g = np.random.default_rng(5000 + i)
        y_vals = g.uniform(10, 100, size=60)
        cols = {"signal": y_vals.copy()}
        for j in range(4):
            cols[f"noise{j}"] = g.uniform(0, 100, size=60)
        panel = panel_of(sorted(cols.items()))
        result = greedy_select(panel, ws(y_vals), [0])
        _, best_r = exhaustive_best_subset(cols, y_vals)
        assert abs(result.objective - best_r) <= 1e-9
    _report(4, f"{checked} random instances bounded by exhaustive optimum, "
               "10 reachable fixtures matched exactly")


def test_criterion_5_shift_structure():
    """Per-query r rises strictly from -2 to +2 on the +2-lead scenario."""
    t0 = time.perf_counter()
    cases, panel = generate(LEAD_SCENARIO)
    assert len(cases.matrix) == 261
    for label in panel.labels:
        rs = []
        for k in (-2, -1, 0, 1, 2):
            X, yv, _ = paired(panel.subset([label]), cases, k)
            rs.append(definitional_pearson(X[:, 0], yv))
        assert all(b > a for a, b in zip(rs, rs[1:])), f"{label} not strictly rising"

    chosen = panel.subset(list(greedy_select(panel, cases, SHIFTS).chosen_labels))
    # the argmax from the objectives themselves: two-decimal cells can tie
    objs = {k: in_sample_objective(*paired_rows(chosen, cases, k))
            for k in SHIFTS}
    assert max(objs, key=objs.get) == 2
    assert table_model_by_shift(chosen, cases, tuple(SHIFTS)).rows[0][1:] == tuple(
        f"{objs[k]:.2f}" for k in SHIFTS)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(5, f"strict shift ordering for {len(panel.labels)} queries, "
               f"model objective peaks at +2, {elapsed:.2f}s")


def test_criterion_6_model_strength():
    """Full-period objective clears 0.70 at +2 but not at -2."""
    cases, panel = generate(LEAD_SCENARIO)
    sel = greedy_select(panel, cases, SHIFTS)
    sub = panel.subset(list(sel.chosen_labels))
    obj_plus2 = in_sample_objective(*paired_rows(sub, cases, 2))
    obj_minus2 = in_sample_objective(*paired_rows(sub, cases, -2))
    assert obj_plus2 > 0.70
    assert obj_minus2 <= 0.70
    # determinism per seed
    cases_b, panel_b = generate(LEAD_SCENARIO)
    assert cases_b == cases and panel_b == panel
    _report(6, f"objective at +2 = {obj_plus2:.3f} (> 0.70), "
               f"at -2 = {obj_minus2:.3f} (<= 0.70)")


def test_criterion_7_failure_mode():
    """Attention decay reproduces the late-year NA collapse."""
    cases, panel = generate(DECAY_SCENARIO)
    years = sorted({int(str(cases.start.add(i))[:4]) for i in range(len(cases.matrix))})
    first, last_two = years[0], years[-2:]
    table = table_overall_annual(panel, cases)
    for label, row in zip(panel.labels, json.loads(table.to_sidecar_json())):
        assert row["years"][str(first)]["value"] > 0.6, f"{label} weak in year 1"
        for yr in last_two:
            res = row["years"][str(yr)]
            assert res["na_reason"] or res["value"] < 0.3, f"{label} still usable in {yr}"
    _report(7, f"year {first} r > 0.6 for all queries; years {last_two} all NA or r < 0.3")


def test_criterion_8_no_lookahead():
    """Future perturbations never move rolling estimates at week t."""
    rng = np.random.default_rng(1008)
    base_y = rng.uniform(0, 300, size=80)
    X = rng.uniform(0, 100, size=(80, 2))
    panel = panel_of((f"q{j}", X[:, j]) for j in range(2))
    base = rolling_weekly_fit(panel, ws(base_y), 0, warmup=10)
    first = base.start - W0
    for _ in range(20):
        t = int(rng.integers(11, 79))
        # cases from week t on, query volumes from t+1 on: week t's own
        # volumes are the nowcast input, not lookahead
        y_pert = base_y.copy()
        y_pert[t:] += rng.uniform(50, 500, size=80 - t)
        X_pert = X.copy()
        X_pert[t + 1:] = rng.uniform(0, 100, size=(79 - t, 2))
        panel_pert = panel_of((f"q{j}", X_pert[:, j]) for j in range(2))
        after = rolling_weekly_fit(panel_pert, ws(y_pert), 0, warmup=10)
        # estimates of weeks <= t, matched by week offset from the start
        assert after.start == base.start
        assert np.array_equal(base.values[:t + 1 - first], after.values[:t + 1 - first])
    _report(8, "20 future-perturbation draws, estimates at t bit-identical")


def test_criterion_9_round_trip_and_fuzz():
    """Serialization round-trips; parsers only ever fail structurally."""
    for scenario in (LEAD_SCENARIO, DECAY_SCENARIO):
        cases, panel = generate(scenario)
        assert parse_cases_csv(write_cases_csv(cases)) == cases
        assert parse_trends_csv(write_trends_csv(panel)) == panel

    rng = np.random.default_rng(1009)
    headers = [b"", b"week,cases\n", b"week,q1,q2\n", b"query,language,source\n"]
    parsers = (parse_trends_csv, parse_cases_csv)
    for i in range(10_000):
        blob = rng.bytes(int(rng.integers(0, 120)))
        if i % 4 == 0:
            blob = headers[int(rng.integers(0, 4))] + blob
        for parser in parsers:
            try:
                parser(blob)
            except DataError:
                pass
    _report(9, "fixtures round-trip; 10,000 fuzz inputs x 2 parsers, "
               "structured errors only")


def test_criterion_10_cli_determinism(tmp_path):
    """Every subcommand run twice yields byte-identical outputs."""
    fix = tmp_path / "fix"
    fix.mkdir()
    cases_path = fix / "cases.csv"
    panel_path = fix / "panel.csv"

    def run_all(d):
        d.mkdir()
        synth_args = [
            "synth", "--seed", "42", "--weeks", "261",
            "--peaks", "20:800:3,50:1200:4,110:900:3,160:400:3,215:300:3",
            "--lead", "2", "--noise-sd", "0.05", "--signal-queries", "3",
            "--out-cases", str(d / "cases.csv"), "--out-panel", str(d / "panel.csv"),
        ]
        assert cli_run(synth_args) == 0
        cases_path.write_bytes((d / "cases.csv").read_bytes())
        panel_path.write_bytes((d / "panel.csv").read_bytes())
        commands = [
            ["correlate", "--cases", str(cases_path), "--panel", str(panel_path),
             "--out", str(d / "corr.csv"), "--sidecar", str(d / "corr.json")],
            ["shift-scan", "--cases", str(cases_path), "--panel", str(panel_path),
             "--out", str(d / "scan.csv")],
            ["select", "--cases", str(cases_path), "--panel", str(panel_path),
             "--out", str(d / "sel.json")],
            ["fit", "--cases", str(cases_path), "--panel", str(panel_path),
             "--shift", "2", "--out", str(d / "fit.csv")],
            ["nowcast", "--cases", str(cases_path), "--panel", str(panel_path),
             "--out-estimates", str(d / "est.csv"), "--out-table", str(d / "tab.csv")],
            ["report-fig", "--cases", str(cases_path), "--panel", str(panel_path),
             "--out", str(d / "fig.csv")],
        ]
        for argv in commands:
            assert cli_run(argv) == 0, argv[0]
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    first = run_all(tmp_path / "one")
    second = run_all(tmp_path / "two")
    assert first == second
    _report(10, f"{len(first)} output files byte-identical across reruns "
                "of all 7 subcommands")
