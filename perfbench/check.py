"""Correctness checks on the files a pass wrote.

Two kinds, both independent of `flunowcast` code:

* On the default seed, every output is compared with the reference
  recorded from the seed commit (`reference/<workload>.json.gz`, written
  by `record_reference.py`). CSV files must be byte-identical; JSON is
  compared after parsing, floats within 1e-9 relative.
* On any seed, some values are recomputed with numpy: `fit` coefficients
  against `np.linalg.lstsq`, the overall `correlate` cells against
  `np.corrcoef`, and `select` choosing shift +2.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import Call

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
JSON_REL_TOL = 1e-9
CELL_TOL = 0.005  # the table cells are rounded to two decimals
SELECTED_SHIFT = 2  # synth leads the cases by two weeks


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def reference_entry(name: str, data: bytes) -> dict:
    """What the reference keeps of one output file."""
    entry = {"sha256": sha256(data)}
    if name.endswith(".json"):
        entry["json"] = json.loads(data)
    return entry


def load_reference(workload: str) -> dict:
    with gzip.open(REFERENCE_DIR / f"{workload}.json.gz", "rt", encoding="utf-8") as fh:
        return json.load(fh)


def json_close(a, b, rel: float = JSON_REL_TOL) -> bool:
    """Structural equality with floats compared to a relative tolerance."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if isinstance(a, int) and isinstance(b, int):
            return a == b
        return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(json_close(a[k], b[k], rel) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(json_close(x, y, rel) for x, y in zip(a, b))
    return a == b


def compare_to_reference(name: str, data: bytes, expected: dict) -> str | None:
    """A problem description, or None when the output matches its reference."""
    if name.endswith(".json"):
        try:
            got = json.loads(data)
        except ValueError as exc:
            return f"{name}: not JSON ({exc})"
        if not json_close(got, expected["json"]):
            return f"{name}: differs from the reference beyond {JSON_REL_TOL:g} relative"
        return None
    if sha256(data) != expected["sha256"]:
        return f"{name}: not byte-identical to the reference"
    return None


# ---- independent recomputation ------------------------------------------

def _read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def read_scenario(workdir: Path) -> tuple[np.ndarray, list[str], np.ndarray]:
    """(cases, query labels, panel as weeks x queries) from the synth files.

    synth writes both files over the same weeks, so rows line up.
    """
    _, case_rows = _read_rows(workdir / "cases.csv")
    header, panel_rows = _read_rows(workdir / "panel.csv")
    if [r[0] for r in case_rows] != [r[0] for r in panel_rows]:
        raise ValueError("cases.csv and panel.csv cover different weeks")
    cases = np.array([float(r[1]) for r in case_rows])
    panel = np.array([[float(v) for v in r[1:]] for r in panel_rows])
    return cases, header[1:], panel


def shifted(x: np.ndarray, y: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows x_t paired with y_{t+k}, for aligned x and y."""
    n = len(y)
    return (x[:n - k], y[k:]) if k >= 0 else (x[-k:], y[:n + k])


def _within_printed(printed: str, exact: float, digits: int = 6) -> bool:
    """Does `printed` (a %.{digits}g string) agree with `exact` to its precision?"""
    value = float(printed)
    if exact == 0.0:
        return abs(value) <= 1e-8
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(exact))) - digits + 1)
    return abs(value - exact) <= half_unit * (1 + 1e-8) + 1e-8 * abs(exact)


def check_fit(workdir: Path, shift: int) -> list[str]:
    cases, labels, panel = read_scenario(workdir)
    _, rows = _read_rows(workdir / "coefficients.csv")
    terms = {r[0]: r for r in rows if not r[0].startswith("#")}
    x, y = shifted(panel, cases, shift)
    design = np.hstack([np.ones((len(y), 1)), x])
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    problems = []
    for name, b in zip(["(intercept)"] + labels, beta):
        if name not in terms:
            problems.append(f"coefficients.csv: no row for {name}")
        elif not _within_printed(terms[name][1], float(b)):
            problems.append(f"coefficients.csv: {name} = {terms[name][1]}, lstsq gives {b:.9g}")
    return problems


def check_correlate(workdir: Path, shift: int) -> list[str]:
    cases, labels, panel = read_scenario(workdir)
    header, rows = _read_rows(workdir / "table.csv")
    sidecar = json.loads((workdir / "table.json").read_text(encoding="utf-8"))
    overall = {r[0]: r[1] for r in rows if len(r) == len(header)}
    detail = {entry["query"]: entry["overall"] for entry in sidecar}
    problems = []
    for j, label in enumerate(labels):
        x, y = shifted(panel[:, j], cases, shift)
        if np.std(x) == 0.0 or np.std(y) == 0.0:
            if detail[label]["na_reason"] != "ZeroVariance":
                problems.append(f"table.json: {label} has zero variance but no NA reason")
            continue
        r = float(np.corrcoef(x, y)[0, 1])
        cell = overall.get(label)
        if cell is None:
            problems.append(f"table.csv: no row for {label}")
        elif cell == "NA":
            value = detail[label]["value"]
            if detail[label]["na_reason"] is None or value is None or abs(value - r) > 1e-9:
                problems.append(f"table.json: {label} NA cell inconsistent with r = {r:.6f}")
        elif abs(float(cell) - r) > CELL_TOL + 1e-12:
            problems.append(f"table.csv: {label} overall {cell}, corrcoef gives {r:.6f}")
    return problems


def check_select(workdir: Path) -> list[str]:
    chosen = json.loads((workdir / "selection.json").read_text(encoding="utf-8"))
    if chosen["shift"] != SELECTED_SHIFT:
        return [f"selection.json: shift {chosen['shift']:+d}, expected +{SELECTED_SHIFT}"]
    return []


def _shift_of(call: Call) -> int:
    return int(call.argv[call.argv.index("--shift") + 1])


def independent_checks(call: Call, workdir: Path) -> list[str]:
    if call.command == "fit":
        return check_fit(workdir, _shift_of(call))
    if call.command == "correlate":
        return check_correlate(workdir, _shift_of(call))
    if call.command == "select":
        return check_select(workdir)
    return []


def check_call(call: Call, workdir: Path, reference: dict | None) -> list[str]:
    """Problems with the outputs `call` left in `workdir`; empty when correct.

    `reference` maps output names to reference entries; pass None on a
    seed that has no recorded reference.
    """
    problems = []
    for name in call.outputs:
        path = workdir / name
        if not path.is_file():
            problems.append(f"{name}: missing")
            continue
        if reference is not None:
            problem = compare_to_reference(name, path.read_bytes(), reference[name])
            if problem:
                problems.append(problem)
    if problems:
        return problems
    try:
        return independent_checks(call, workdir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{call.command}: outputs unreadable ({type(exc).__name__}: {exc})"]
