"""Record the reference outputs of every workload on the default seed.

Run from the root of a checkout of the commit whose outputs are the
reference (the benchmark's baseline), then commit `perfbench/reference/`:

  python3 perfbench/record_reference.py

Each workload's calls run once as `python -m flunowcast` children; the
reference keeps a SHA-256 of every output and the parsed content of the
JSON ones (see check.reference_entry).
"""

from __future__ import annotations

import gzip
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import check
import workloads


def record(root: Path, workload: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    entries = {}
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        for call in workloads.calls(workload, workloads.DEFAULT_SEED):
            subprocess.run([sys.executable, "-m", "flunowcast", *call.argv], cwd=tmp,
                           env=env, check=True, stdout=subprocess.DEVNULL)
            for name in call.outputs:
                entries[name] = check.reference_entry(name, (Path(tmp) / name).read_bytes())
    return entries


def main() -> int:
    root = Path.cwd()
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        data = json.dumps(record(root, workload), sort_keys=True).encode("utf-8")
        path = check.REFERENCE_DIR / f"{workload}.json.gz"
        with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(data)
        print(f"{path.relative_to(root)}: {path.stat().st_size} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
