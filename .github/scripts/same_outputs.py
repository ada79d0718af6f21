"""Fail unless two source trees give the same outputs on every benchmark call.

    python3 .github/scripts/same_outputs.py BASE_SRC HEAD_SRC

BASE_SRC and HEAD_SRC are `src` directories, each holding the
`flunowcast` package. Every call list of `perfbench/workloads.py` (this
checkout's) runs on seeds 42, 1, 7 and 13, once under each tree, as
`python -m flunowcast` children in a fresh work directory. Each call's
exit code, stdout, stderr and the bytes of each file it writes must be
the same under both trees; the first differences are printed and the
script exits 1.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "perfbench"))
import workloads  # noqa: E402

SEEDS = (42, 1, 7, 13)


def run_pass(src: Path, workload: str, seed: int) -> list[tuple]:
    """(exit code, stdout, stderr, {output: bytes or None}) of each call of one pass."""
    env = dict(os.environ, PYTHONPATH=str(src))
    results = []
    with tempfile.TemporaryDirectory() as workdir:
        for call in workloads.calls(workload, seed):
            proc = subprocess.run([sys.executable, "-m", "flunowcast", *call.argv],
                                  cwd=workdir, env=env, capture_output=True)
            files = {name: (Path(workdir) / name).read_bytes()
                     if (Path(workdir) / name).is_file() else None for name in call.outputs}
            results.append((proc.returncode, proc.stdout, proc.stderr, files))
    return results


def differences(base: tuple, head: tuple) -> list[str]:
    fields = [what for what, b, h in zip(("exit code", "stdout", "stderr"), base, head) if b != h]
    return fields + [name for name in base[3] if base[3][name] != head[3][name]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_src", type=Path)
    parser.add_argument("head_src", type=Path)
    args = parser.parse_args()
    for src in (args.base_src, args.head_src):
        if not (src / "flunowcast" / "cli.py").is_file():
            parser.error(f"{src} holds no flunowcast package")
    checked, failed = 0, 0
    for workload in sorted(workloads.WORKLOADS):
        for seed in SEEDS:
            calls = workloads.calls(workload, seed)
            base = run_pass(args.base_src.resolve(), workload, seed)
            head = run_pass(args.head_src.resolve(), workload, seed)
            for call, b, h in zip(calls, base, head):
                checked += 1
                if diff := differences(b, h):
                    failed += 1
                    print(f"DIFFERS {workload} seed {seed}: flunowcast {' '.join(call.argv)}: "
                          f"{', '.join(diff)}")
    print(f"{checked - failed} of {checked} calls gave the same exit code, stdout, stderr "
          f"and output bytes under both trees")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
