"""Seeded synthetic generator of coupled case and search-volume series.

Cases are a sum of Gaussian epidemic bumps plus level-dependent noise.
Signal queries track cases a few weeks early, degraded by the two
failure modes the real data exhibits: media-driven spikes uncorrelated
with incidence, and multi-year attention decay that pushes volumes
below the integer quantization floor. Noise queries are pure noise.

All randomness comes from one PCG64 stream per scenario, so a config
reproduces its output bit for bit.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfig
from .ingest import MAX_CASES
from .timeseries import Weekly, WeekStamp, iso_years, scale_0_100

DEFAULT_START = WeekStamp(2009, 1)


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    weeks: int
    epidemic_peaks: tuple[tuple[float, float, float], ...]  # (center week, height, width)
    lead_weeks: int = 2
    media_spikes: tuple[tuple[int, float, float], ...] = ()  # (week, magnitude, decay weeks)
    attention_decay: float = 1.0  # per-year multiplier on query volume
    noise_sd: float = 0.0
    n_signal_queries: int = 3
    n_noise_queries: int = 0
    start: WeekStamp = field(default=DEFAULT_START)

    def __post_init__(self):
        if self.seed < 0:  # PCG64 takes only non-negative seeds
            raise InvalidConfig("seed must be non-negative")
        if self.weeks < 20:
            raise InvalidConfig("scenario needs at least 20 weeks")
        rows = (*self.epidemic_peaks, *self.media_spikes, (self.noise_sd,))
        # finite as a float: a spike week is an int, which may be too large for one
        if not all(abs(v) <= sys.float_info.max for row in rows for v in row):
            raise InvalidConfig("peaks, spikes and noise_sd must be finite")
        if any(w <= 0 for _, _, w in self.epidemic_peaks):
            raise InvalidConfig("peak widths must be positive")
        if any(m < 0 for _, m, _ in self.media_spikes):
            raise InvalidConfig("spike magnitudes must be non-negative")
        if any(d < 0 for _, _, d in self.media_spikes):  # 0 is a one-week pulse
            raise InvalidConfig("spike decays must be non-negative")
        if not 0.0 < self.attention_decay <= 1.0:
            raise InvalidConfig("attention_decay must be in (0, 1]")
        if self.noise_sd < 0:
            raise InvalidConfig("noise_sd must be non-negative")
        if self.lead_weeks < 0:
            raise InvalidConfig("lead_weeks must be non-negative")
        # checked before generate allocates: the lead weeks are generated
        # past the cases but never stamped, so only the weeks meet the calendar
        if self.lead_weeks > self.weeks:
            raise InvalidConfig(f"lead_weeks {self.lead_weeks} exceeds weeks {self.weeks}")
        self.start.add(self.weeks - 1)
        if self.n_signal_queries < 0 or self.n_noise_queries < 0:
            raise InvalidConfig("query counts must be non-negative")
        if self.n_signal_queries + self.n_noise_queries < 1:
            raise InvalidConfig("scenario needs at least one query")


def _bump_level(cfg: ScenarioConfig, horizon: int) -> np.ndarray:
    t = np.arange(horizon, dtype=float)
    level = np.zeros(horizon)
    for center, height, width in cfg.epidemic_peaks:
        level += height * np.exp(-0.5 * ((t - center) / width) ** 2)
    return level


def _spike_pulse(cfg: ScenarioConfig, horizon: int) -> np.ndarray:
    t = np.arange(horizon, dtype=float)
    pulse = np.zeros(horizon)
    for week, magnitude, decay in cfg.media_spikes:
        mask = t >= week
        pulse[mask] += magnitude * np.exp(-(t[mask] - week) / max(decay, 1e-9))
    return pulse


def generate(cfg: ScenarioConfig) -> tuple[Weekly, Weekly]:
    """Produce (cases, panel) for the scenario, deterministically per seed."""
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    horizon = cfg.weeks + cfg.lead_weeks

    # overflow is silent: a tiny width's exp(-inf) is the right 0, and the
    # inf or nan of huge peaks fails the bound below
    with np.errstate(over="ignore", invalid="ignore"):
        level = _bump_level(cfg, horizon)
        case_noise = rng.normal(0.0, 1.0, size=horizon) * cfg.noise_sd * np.sqrt(level + 1.0)
        cases_ext = np.maximum(np.rint(level + case_noise), 0.0)
    # the case parser's bound, on the lead weeks too: they feed the queries
    if not (cases_ext <= MAX_CASES).all():
        raise InvalidConfig("a generated case count exceeds 2**53")
    cases = Weekly(cfg.start, ("cases",), cases_ext[:cfg.weeks, None])

    years = iso_years(cfg.start, cfg.weeks)
    decay = cfg.attention_decay ** (years - years[0])

    labels, columns = [], []
    # as for the cases: huge spikes or noise overflow silently and fail the bound below
    with np.errstate(over="ignore", invalid="ignore"):
        pulse = _spike_pulse(cfg, cfg.weeks)
        for i in range(cfg.n_signal_queries):
            # amplitude alone would cancel under 0-100 rescaling, so each
            # query also gets a baseline offset to keep columns distinct
            scale = 1.0 / (1.0 + 0.5 * i)
            offset = 2.5 * i
            lead_source = cases_ext[cfg.lead_weeks:cfg.lead_weeks + cfg.weeks]
            raw = scale * lead_source * decay + offset + pulse
            raw += rng.normal(0.0, 1.0, size=cfg.weeks) * cfg.noise_sd * np.sqrt(raw.clip(0) + 1.0)
            labels.append(f"signal_{i + 1}")
            columns.append(np.maximum(raw, 0.0))
        # the rescaling's first product, 100 * volume, must stay finite
        if not all(np.isfinite(100.0 * c).all() for c in columns):
            raise InvalidConfig("a generated query volume is too large to rescale to 0-100")
    for i in range(cfg.n_noise_queries):
        labels.append(f"noise_{i + 1}")
        columns.append(rng.uniform(0.0, 100.0, size=cfg.weeks))

    return cases, Weekly(cfg.start, labels, scale_0_100(np.column_stack(columns)))
