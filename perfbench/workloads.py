"""The benchmark's workloads: fixed, seeded lists of `flunowcast` CLI calls.

Every call of a pass runs in one work directory and names its files
relative to it. Each call writes its own output files, so after a pass
every output can be checked against what produced it.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 42

P5 = "20:800:3,50:1200:4,110:900:3,160:400:3,215:300:3"
P10 = P5 + ",270:700:3,320:900:4,375:500:3,425:600:3,480:800:3"

# the file pair every later call of a pass reads
INPUTS = ("--cases", "cases.csv", "--panel", "panel.csv")


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    outputs: tuple[str, ...]  # files the call writes, relative to the work dir

    @property
    def command(self) -> str:
        return self.argv[0]


def _synth(seed: int, *options: str) -> Call:
    argv = ("synth", "--seed", str(seed), *options,
            "--out-cases", "cases.csv", "--out-panel", "panel.csv")
    return Call(argv, ("cases.csv", "panel.csv"))


def _readme(seed: int) -> list[Call]:
    # the README's first-run path, end to end
    return [
        _synth(seed, "--weeks", "261", "--peaks", P5, "--lead", "2",
               "--noise-sd", "0.05", "--signal-queries", "3"),
        Call(("correlate", *INPUTS, "--shift", "2", "--out", "table.csv",
              "--sidecar", "table.json"), ("table.csv", "table.json")),
        Call(("shift-scan", *INPUTS, "--shifts=-2..2", "--out", "scan.csv"), ("scan.csv",)),
        Call(("select", *INPUTS, "--out", "selection.json"), ("selection.json",)),
        Call(("fit", *INPUTS, "--shift", "2", "--out", "coefficients.csv"),
             ("coefficients.csv",)),
        Call(("nowcast", *INPUTS, "--out-estimates", "estimates.csv",
              "--out-table", "evaluation.csv"), ("estimates.csv", "evaluation.csv")),
        Call(("nowcast", *INPUTS, "--mode", "rolling", "--warmup", "40",
              "--out-estimates", "rolling-estimates.csv",
              "--out-table", "rolling-evaluation.csv"),
             ("rolling-estimates.csv", "rolling-evaluation.csv")),
        Call(("report-fig", *INPUTS, "--out", "figure.csv"), ("figure.csv",)),
    ]


def _screen(seed: int) -> list[Call]:
    # a wide panel: parsing, alignment, Pearson and tables; no fitting
    return [
        _synth(seed, "--weeks", "520", "--peaks", P10, "--lead", "2",
               "--noise-sd", "0.05", "--signal-queries", "5", "--noise-queries", "95"),
        Call(("correlate", *INPUTS, "--shift", "2", "--out", "table.csv",
              "--sidecar", "table.json"), ("table.csv", "table.json")),
        Call(("shift-scan", *INPUTS, "--shifts=-2..2", "--out", "scan.csv",
              "--sidecar", "scan.json"), ("scan.csv", "scan.json")),
        Call(("report-fig", *INPUTS, "--out", "figure.csv"), ("figure.csv",)),
    ]


def _select(seed: int) -> list[Call]:
    # Greedy-heavy. The gate is Bonferroni-strict (about 0.05 over 20
    # queries x 5 shifts): at the default 0.05, zero to three of the 12
    # noise queries pass by chance depending on the seed, and each one that
    # does adds a round of candidate fits, so the work per pass would swing
    # with the seed rather than with the code.
    gate = ("--alpha", "0.001")
    return [
        _synth(seed, "--weeks", "261", "--peaks", P5, "--lead", "2",
               "--noise-sd", "0.5", "--signal-queries", "8", "--noise-queries", "12"),
        Call(("select", *INPUTS, *gate, "--out", "selection.json"), ("selection.json",)),
        Call(("nowcast", *INPUTS, *gate, "--mode", "rolling", "--warmup", "40",
              "--out-estimates", "rolling-estimates.csv",
              "--out-table", "rolling-evaluation.csv"),
             ("rolling-estimates.csv", "rolling-evaluation.csv")),
        Call(("fit", *INPUTS, "--shift", "2", "--out", "coefficients.csv"),
             ("coefficients.csv",)),
    ]


WORKLOADS = {"readme": _readme, "screen": _screen, "select": _select}


def calls(workload: str, seed: int) -> list[Call]:
    """The call list of one pass of `workload` on the scenario of `seed`."""
    return WORKLOADS[workload](seed)
