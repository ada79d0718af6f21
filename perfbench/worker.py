"""A warm in-process client: runs a workload's calls through `flunowcast.cli.run`.

Started by run.py with the package's `src` on PYTHONPATH. It reads one
JSON command per line on stdin and answers with one JSON line on stdout:

  {"op": "pass"}                  one pass; answers each call's time, its start and
                                  end on the machine's monotonic clock, and exit code
  {"op": "trace", "spans": path}  the same pass with every layer wrapped in spans;
                                  also answers the per-layer metrics, and writes the
                                  spans to `path` when it is given
  {"op": "check", "workdir": path} checks what each call left in `path` (check.py);
                                  answers one list of problems per call
  {"op": "quit"}

The CLI's own stdout is captured, so stdout carries only the answers.
The checks run here rather than in run.py so that run.py never imports
numpy: a child's peak RSS (ru_maxrss) includes the memory of the process
that spawned it, so a large launcher would hide the children's.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path
from time import perf_counter

import check
import spans
import workloads


def run_pass(cli, calls) -> dict:
    times, codes, windows = [], [], []
    sink = io.StringIO()
    for call in calls:
        with contextlib.redirect_stdout(sink):
            t0 = perf_counter()
            code = cli.run(list(call.argv))
            t1 = perf_counter()
        times.append(t1 - t0)
        windows.append((t0, t1))
        codes.append(code)
        sink.seek(0)
        sink.truncate()
    return {"times": times, "codes": codes, "windows": windows}


def traced_pass(cli, calls, tracer: spans.Tracer, spans_path: str | None) -> dict:
    tracer.reset()
    tracer.install()
    try:
        answer = run_pass(cli, calls)
    finally:
        tracer.uninstall()
    names = tracer.span_names()
    answer["metrics"] = spans.layer_metrics(names, tracer.parent, tracer.start, tracer.end,
                                            tracer.counters)
    answer["roots"] = sorted({n for n, p in zip(names, tracer.parent) if p < 0})
    if spans_path:
        tracer.write(Path(spans_path))
    return answer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    os.chdir(args.workdir)
    from flunowcast import cli

    calls = workloads.calls(args.workload, args.seed)
    reference = (check.load_reference(args.workload)
                 if args.seed == workloads.DEFAULT_SEED else None)
    tracer = spans.Tracer()
    for line in sys.stdin:
        command = json.loads(line)
        if command["op"] == "quit":
            break
        if command["op"] == "trace":
            answer = traced_pass(cli, calls, tracer, command.get("spans"))
        elif command["op"] == "check":
            workdir = Path(command["workdir"])
            answer = {"problems": [check.check_call(c, workdir, reference) for c in calls]}
        else:
            answer = run_pass(cli, calls)
        print(json.dumps(answer), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
