import json

import numpy as np
import pytest

from flunowcast.errors import InvalidConfig
from flunowcast.ingest import (
    parse_cases_csv,
    parse_trends_csv,
    write_cases_csv,
    write_trends_csv,
)
from flunowcast.report import table_overall_annual
from flunowcast.selection import greedy_select
from flunowcast.stats import gated_columns, paired_rows
from flunowcast.synth import ScenarioConfig, _spike_pulse, generate
from flunowcast.timeseries import ALPHA, WeekStamp

PEAKS = ((20, 800, 3), (60, 1200, 4), (110, 900, 3))


def scenario(**overrides):
    base = dict(
        seed=42, weeks=150, epidemic_peaks=PEAKS, lead_weeks=2,
        noise_sd=0.0, n_signal_queries=2, n_noise_queries=0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def lanes(panel, cases, k):
    """The gate's lanes of every query against the cases at shift k."""
    return gated_columns([paired_rows(panel, cases, k)], ALPHA)[0]


class TestConfigValidation:
    def test_too_few_weeks(self):
        with pytest.raises(InvalidConfig):
            scenario(weeks=5)

    def test_bad_width(self):
        with pytest.raises(InvalidConfig):
            scenario(epidemic_peaks=((10, 100, 0),))

    def test_bad_decay(self):
        with pytest.raises(InvalidConfig):
            scenario(attention_decay=0.0)
        with pytest.raises(InvalidConfig):
            scenario(attention_decay=1.5)

    def test_spike_decay(self):
        with pytest.raises(InvalidConfig, match="spike decays must be non-negative"):
            scenario(media_spikes=((10, 5.0, -1.0),))
        # a decay of 0 is a one-week pulse
        pulse = _spike_pulse(scenario(media_spikes=((10, 5.0, 0.0),)), 20)
        assert np.flatnonzero(pulse).tolist() == [10] and pulse[10] == 5.0

    def test_negative_seed(self):
        with pytest.raises(InvalidConfig, match="^seed must be non-negative$"):
            scenario(seed=-1)
        generate(scenario(seed=0))

    def test_weeks_must_end_by_9999_w52(self):
        generate(scenario(weeks=52, start=WeekStamp(9999, 1)))
        with pytest.raises(InvalidConfig, match="^[+]52 weeks from 9999-W01 is outside "):
            scenario(weeks=53, start=WeekStamp(9999, 1))

    def test_no_queries(self):
        with pytest.raises(InvalidConfig):
            scenario(n_signal_queries=0, n_noise_queries=0)

    @pytest.mark.parametrize("field", [
        {"epidemic_peaks": ((20, 800, float("nan")),)},
        {"epidemic_peaks": ((20, float("inf"), 3),)},
        {"epidemic_peaks": ((float("-inf"), 800, 3),)},
        {"media_spikes": ((10, float("nan"), 2),)},
        {"media_spikes": ((10, 5, float("inf")),)},
        # an int week past the largest float
        {"media_spikes": ((10 ** 400, 5, 2),)},
        {"noise_sd": float("inf")},
        {"noise_sd": float("nan")},
    ])
    def test_non_finite_numbers(self, field):
        with pytest.raises(InvalidConfig, match="must be finite"):
            scenario(**field)

    def test_counts_above_2_53_are_not_generated(self):
        # the case parser rejects them; at 1e17 every peak week is past the bound
        with pytest.raises(InvalidConfig, match=r"exceeds 2\*\*53"):
            generate(scenario(epidemic_peaks=((20, 1e17, 3),)))
        # lead weeks are generated past the cases: a peak there is bounded too
        with pytest.raises(InvalidConfig, match=r"exceeds 2\*\*53"):
            generate(scenario(weeks=30, lead_weeks=5, epidemic_peaks=((33, 1e17, 1),)))
        cases, _ = generate(scenario(epidemic_peaks=((20, 9e15, 3),)))
        assert parse_cases_csv(write_cases_csv(cases)) == cases

    def test_volumes_too_large_to_rescale_are_not_generated(self):
        for spikes in (((10, 1e308, 2),), ((10, 1e308, 2), (10, 1e308, 2))):
            with pytest.raises(InvalidConfig, match="too large to rescale"):
                generate(scenario(media_spikes=spikes))
        _, panel = generate(scenario(media_spikes=((10, 1e305, 2),)))
        assert panel.matrix.max() == 100.0


class TestGenerate:
    def test_noiseless_lead_gives_near_perfect_correlation(self):
        cases, panel = generate(scenario())
        res = lanes(panel, cases, 2)
        assert res.reason[0] == 0
        assert res.r[0] >= 0.999

    def test_wrong_shift_is_strictly_worse(self):
        cases, panel = generate(scenario())
        r2 = lanes(panel, cases, 2).r[0]
        r0 = lanes(panel, cases, 0).r[0]
        assert r0 < r2

    def test_attention_decay_crushes_late_volume(self):
        cfg = scenario(
            weeks=261, attention_decay=0.2, lead_weeks=0,
            epidemic_peaks=((20, 800, 3), (70, 1000, 4), (120, 900, 3),
                            (170, 800, 3), (230, 900, 3)),
        )
        _, panel = generate(cfg)
        vals = np.array(panel.matrix[:, 0])
        year1_mean = vals[:52].mean()
        year5_mean = vals[209:].mean()
        assert year5_mean < 0.1 * year1_mean

    def test_bit_identical_per_seed(self):
        a_cases, a_panel = generate(scenario(noise_sd=0.3, n_noise_queries=2))
        b_cases, b_panel = generate(scenario(noise_sd=0.3, n_noise_queries=2))
        assert a_cases == b_cases
        assert a_panel == b_panel

    def test_different_seed_differs(self):
        a = generate(scenario(noise_sd=0.3))[0]
        b = generate(scenario(noise_sd=0.3, seed=43))[0]
        assert a != b

    def test_output_survives_ingest_round_trip(self):
        cases, panel = generate(scenario(noise_sd=0.2, n_noise_queries=1))
        assert parse_cases_csv(write_cases_csv(cases)) == cases
        assert parse_trends_csv(write_trends_csv(panel)) == panel

    def test_volumes_are_integer_0_100(self):
        _, panel = generate(scenario(noise_sd=0.5, n_noise_queries=2))
        for column in panel.matrix.T:
            assert all(v == int(v) and 0 <= v <= 100 for v in column)

    def test_media_spike_raises_volume_without_cases(self):
        quiet = scenario(media_spikes=(), lead_weeks=0)
        spiky = scenario(media_spikes=((140, 500.0, 4.0),), lead_weeks=0)
        _, p_quiet = generate(quiet)
        _, p_spiky = generate(spiky)
        # week 140 is far from every epidemic peak: only the spike acts there
        assert p_spiky.matrix[140, 0] > p_quiet.matrix[140, 0]

    @pytest.mark.parametrize("lead", [0, 1, 2, 4])
    def test_greedy_recovers_capped_lead(self, lead):
        cfg = scenario(lead_weeks=lead)
        cases, panel = generate(cfg)
        sel = greedy_select(panel, cases, [-2, -1, 0, 1, 2])
        assert sel.best_shift == min(lead, 2)

    def test_case_counts_are_nonnegative_integers(self):
        cases, _ = generate(scenario(noise_sd=1.0))
        assert all(v >= 0 and v == int(v) for v in cases.values)

    def test_default_start_week(self):
        cases, panel = generate(scenario())
        assert cases.start == WeekStamp(2009, 1)
        assert panel.start == cases.start


class TestFailureModes:
    """The two failure modes of search-based flu estimates (Lazer et al.,
    "The Parable of Google Flu", Science 343, 2014), on fixed seeds."""

    FIVE_SEASONS = ((20, 800, 3), (70, 1000, 4), (120, 900, 3), (170, 800, 3), (230, 900, 3))

    @pytest.mark.parametrize("seed", [7, 42])
    def test_attention_decay_kills_late_year_cells(self, seed):
        # every year has a season, so only the decay can silence later years
        dead = []
        for decay in (1.0, 0.2, 0.05):
            cases, panel = generate(scenario(
                seed=seed, weeks=261, epidemic_peaks=self.FIVE_SEASONS, lead_weeks=0,
                attention_decay=decay, noise_sd=0.05, n_signal_queries=3,
            ))
            table = table_overall_annual(panel, cases)
            dead.append(sum(
                1
                for row in json.loads(table.to_sidecar_json())
                for cell in list(row["years"].values())[1:]
                if cell["na_reason"] is not None or cell["value"] < 0.3
            ))
        assert dead[0] < dead[1] < dead[2], dead

    @pytest.mark.parametrize("seed", [7, 42])
    def test_media_spike_lowers_overall_r_at_true_lead(self, seed):
        # the spike sits between seasons, where cases are near zero
        rs = []
        for magnitude in (0.0, 100.0, 400.0, 1600.0):
            cases, panel = generate(scenario(
                seed=seed, noise_sd=0.05, media_spikes=((85, magnitude, 4.0),),
            ))
            rs.append(lanes(panel, cases, 2).r.tolist())
        for query_rs in zip(*rs):
            assert all(b < a for a, b in zip(query_rs, query_rs[1:])), query_rs
