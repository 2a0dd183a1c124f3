"""Regenerate pins.json:  python3 perfbench/pin.py SEED [SEED ...]

Runs every workload once per seed through the CLI, requires the checks
that need no pin to pass, and records the sha256 digests that checks.py
compares on later runs of those seeds. Re-pin only when a change of
output bytes is intended, and say why where the change is described.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(seeds: list[int]) -> int:
    pins = {}
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        for w in WORKLOADS.values():
            for seed in seeds:
                r = run.Run(w, seed, work, None)
                out = work / f"{w.name}-{seed}"
                o = run.spawn([sys.executable, "-c", run.CLI] + r.cli_args(out), r.env,
                              work / f"{w.name}-{seed}-log")
                problems = (checks.check(out, w, seed, r.config_text, None) if o.code == 0
                            else [f"exit code {o.code}"])
                if problems:
                    print(f"{w.name} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                pins.setdefault(w.name, {})[str(seed)] = checks.digests(out, w)
                print(f"{w.name} seed {seed}: pinned", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks.PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n",
                                encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
