"""The flunowcast benchmark: seeded CLI workloads, timed end to end and traced per layer.

Run it from the root of a checkout (the directory holding `src/`):

  python3 perfbench/run.py --workload readme --seed 42 --seconds 30 --trace 0

Load model: a closed loop with one client. Each call starts only after
the previous one has ended, so at most one child runs at a time.

With `--trace 0` a run repeats rounds of: five `import flunowcast.cli`
children (setup_s), one pass of fresh `python -m flunowcast` children
(run_s, peak_rss_mb) and one pass through `flunowcast.cli.run` in a warm
worker process that had one untimed warm-up pass (warm_run_s). Each
metric is the median over the rounds, each call's time first scaled to a
fixed machine speed (speed.py). With `--trace 1` the warm worker alternates
untraced and traced passes instead, and the per-layer metrics are
medians over the traced passes, in unscaled seconds (see spans.py).

Every pass's outputs are checked (see check.py); a call fails if it exits
non-zero or its outputs fail the check. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The run's
facts (machine, versions, samples) go to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import spans
import speed
import workloads

BENCH_DIR = Path(__file__).resolve().parent
CALL_TIMEOUT_S = 90.0  # one CLI call or one warm pass
RUN_LIMIT_S = 120.0  # no new round starts after this, whatever --seconds says
MIN_ROUNDS = 2
SETUP_SAMPLES_PER_ROUND = 5
SETUP_ARGV = ("-c", "import flunowcast.cli")


def _kill_after(proc: subprocess.Popen, seconds: float) -> threading.Timer:
    timer = threading.Timer(seconds, proc.kill)
    timer.daemon = True
    timer.start()
    return timer


def spawn_and_wait(argv: list[str], cwd: Path, env: dict, stderr_path: Path):
    """Run one child to its end: (start, end, exit code, its own peak RSS in KiB).

    The RSS comes from that child's rusage (os.wait4), not the
    RUSAGE_CHILDREN maximum over every child so far.
    """
    with open(stderr_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = _kill_after(proc, CALL_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t1 = perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return t0, t1, proc.returncode, usage.ru_maxrss


class Worker:
    """The warm in-process client (worker.py), one per run."""

    def __init__(self, root: Path, workload: str, seed: int, workdir: Path, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
             "--seed", str(seed), "--workdir", str(workdir)],
            cwd=root, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def ask(self, command: dict) -> dict:
        timer = _kill_after(self.proc, CALL_TIMEOUT_S)
        try:
            self.proc.stdin.write(json.dumps(command) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        finally:
            timer.cancel()
        if not line:
            raise RuntimeError("warm worker ended without answering")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(json.dumps({"op": "quit"}) + "\n")
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Run:
    """One benchmark run: its inputs, its tallies and its samples."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.calls = workloads.calls(workload, seed)
        self.out_dir = root / ".perfbench"
        self.workdir = self.out_dir / "work" / f"{workload}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {}  # per metric, one value per round
        self.wall: dict[str, list[float]] = {}  # the same, unscaled
        self.sampler: speed.Sampler | None = None
        self.worker: Worker | None = None

    def add(self, metric: str, value: float, windows: list | None = None) -> None:
        """Record one sample; a time is scaled over its calls' (start, end) windows."""
        self.samples.setdefault(metric, []).append(
            value if windows is None else
            sum(self.sampler.scaled(t1 - t0, t0, t1) for t0, t1 in windows))
        if windows is not None:
            self.wall.setdefault(metric, []).append(value)

    def fresh_dir(self, name: str) -> Path:
        path = self.workdir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def tally(self, workdir: Path, codes: list[int]) -> None:
        """Count the calls of one pass and check what each one wrote."""
        checked = self.worker.ask({"op": "check", "workdir": str(workdir)})["problems"]
        for call, code, problems in zip(self.calls, codes, checked):
            self.attempted += 1
            if code != 0:
                problems = [f"exit code {code}"]
            if problems:
                self.failed += 1
                for problem in problems:
                    print(f"FAILED {call.command}: {problem}", file=sys.stderr)

    def setup_sample(self) -> tuple[float, list]:
        """One child that only imports flunowcast.cli: (wall seconds, [its window])."""
        t0, t1, code, _ = spawn_and_wait([sys.executable, *SETUP_ARGV], self.workdir,
                                         self.env, self.workdir / "setup.err")
        if code != 0:
            raise RuntimeError(f"'import flunowcast.cli' exited {code}")
        return t1 - t0, [(t0, t1)]

    def cold_pass(self) -> tuple[float, list, float]:
        """One pass of fresh CLI children: (wall s, call windows, highest child peak RSS in MB)."""
        workdir = self.fresh_dir("cold")
        windows, peak_kib, codes = [], 0, []
        for i, call in enumerate(self.calls):
            t0, t1, code, rss = spawn_and_wait(
                [sys.executable, "-m", "flunowcast", *call.argv], workdir, self.env,
                self.workdir / f"call{i}.err")
            windows.append((t0, t1))
            if code != 0:
                sys.stderr.write((self.workdir / f"call{i}.err").read_text(errors="replace"))
            peak_kib = max(peak_kib, rss)
            codes.append(code)
        self.tally(workdir, codes)
        return sum(t1 - t0 for t0, t1 in windows), windows, peak_kib * 1024 / 1e6

    def warm_pass(self, workdir: Path, op: str = "pass", **extra) -> dict:
        for name in os.listdir(workdir):
            (workdir / name).unlink()
        answer = self.worker.ask({"op": op, **extra})
        self.tally(workdir, answer["codes"])
        answer["total"] = sum(answer["times"])
        return answer

    def rounds(self, seconds: float, one_round) -> None:
        """Repeat `one_round` while another one is predicted to end within `seconds`."""
        t_start = perf_counter()
        done = 0
        while True:
            elapsed = perf_counter() - t_start
            if done >= MIN_ROUNDS and (elapsed + elapsed / done > seconds
                                       or elapsed > RUN_LIMIT_S):
                return
            one_round()
            done += 1

    @contextlib.contextmanager
    def warm_worker(self):
        """Start the warm worker, give it its untimed warm-up pass, yield its work dir."""
        warm_dir = self.fresh_dir("warm")
        self.worker = Worker(self.root, self.workload, self.seed, warm_dir, self.env)
        try:
            self.warm_pass(warm_dir)
            yield warm_dir
        finally:
            self.worker.close()

    def measure_end_to_end(self, seconds: float) -> dict:
        with self.warm_worker() as warm_dir:
            self.setup_sample()  # untimed: fills the bytecode cache

            def one_round():
                for _ in range(SETUP_SAMPLES_PER_ROUND):
                    self.add("setup_s", *self.setup_sample())
                run_s, windows, rss_mb = self.cold_pass()
                self.add("run_s", run_s, windows)
                self.add("peak_rss_mb", rss_mb)
                warm = self.warm_pass(warm_dir)
                self.add("warm_run_s", warm["total"], warm["windows"])

            with speed.Sampler() as self.sampler:
                self.rounds(seconds, one_round)
        return {name: statistics.median(values) for name, values in self.samples.items()}

    def measure_layers(self, seconds: float) -> tuple[dict, list[str]]:
        traced: list[dict] = []
        spans_path = self.out_dir / f"spans-{self.workload}.npz"
        with self.warm_worker() as warm_dir:

            def one_round():
                self.add("untraced_s", self.warm_pass(warm_dir)["total"])
                answer = self.warm_pass(warm_dir, "trace", spans=str(spans_path))
                self.add("traced_s", answer["total"])
                traced.append(answer)

            self.rounds(seconds, one_round)
        problems = trace_problems(traced)
        metrics = {name: statistics.median(a["metrics"][name] for a in traced)
                   for name in traced[0]["metrics"]}
        metrics["trace.overhead_s"] = (statistics.median(self.samples["traced_s"])
                                       - statistics.median(self.samples["untraced_s"]))
        return metrics, problems


def trace_problems(traced: list[dict]) -> list[str]:
    """Consistency checks on the traced passes; empty when they hold."""
    problems = []
    first = traced[0]["metrics"]
    for answer in traced:
        m = answer["metrics"]
        balance = spans.self_time_balance(m)
        if abs(balance) > 1e-9 * max(m["trace.total_s"], 1.0):
            problems.append(f"self times + cli.glue_s miss the traced total by {balance:g} s")
        if m["trace.total_s"] > answer["total"]:
            problems.append("root spans last longer than the calls that hold them")
        if answer["roots"] != [spans.ROOT]:
            problems.append(f"spans outside cli.run: {answer['roots']}")
        changed = [k for k in m if not k.endswith("_s") and m[k] != first[k]]
        if changed:
            problems.append(f"counts differ between traced passes: {changed}")
    return problems


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric == "ingest.bytes_read":
        return "bytes"
    if metric == "peak_rss_mb":
        return "MB"
    return "count"


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def run_facts(root: Path, seed: int) -> dict:
    """What the numbers were measured on; recorded beside them, not as metrics."""
    import numpy as np  # only after the children ran; see peak_rss_mb in the README

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ.get(k) for k in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    src = root / "src" / "flunowcast"
    lines = {p.stem: len(p.read_text(encoding="utf-8").splitlines())
             for p in sorted(src.glob("*.py"))}
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": threads,
        "commit": git_commit(root),
        "seed": seed,
        "src_lines": {"total": sum(lines.values()), **lines},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "flunowcast" / "cli.py").is_file():
        print(f"error: {root} holds no src/flunowcast; run from the root of a checkout",
              file=sys.stderr)
        return 2

    # every process of the run shares one CPU, so the speed sampler
    # measures the CPU the calls run on (speed.py)
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    run = Run(root, args.workload, args.seed)
    problems: list[str] = []
    try:
        run.workdir.mkdir(parents=True, exist_ok=True)
        if args.trace:
            values, problems = run.measure_layers(args.seconds)
        else:
            values = run.measure_end_to_end(args.seconds)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.workdir.parent.rmdir()
    for problem in problems:
        print(f"FAILED trace check: {problem}", file=sys.stderr)

    metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}
    result = {
        "correct": run.failed == 0 and not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    # every child's peak RSS includes this much of this process's memory
    launcher_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "facts": run_facts(root, args.seed),
        "error_rate": run.failed / run.attempted,
        "pinned_cpu": cpu,
        "launcher_peak_rss_mb": launcher_rss_mb,
        "samples": run.samples,
        "sample_counts": {k: len(v) for k, v in run.samples.items()},
        "wall_samples": run.wall,
        "speed_samples": run.sampler.samples if run.sampler else [],
        "trace_problems": problems,
        "result": result,
    }
    results = run.out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
