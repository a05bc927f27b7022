"""Record one change's benchmark as a ``BENCH_*.json`` file.

Runs the command and workloads that ``BENCHMARK.json`` declares in two
checkouts, the parent commit and the change, alternating them: for each
seed and workload both sides run back to back, the parent first on even
seed positions and the change first on odd ones, so the host's speed
swings fall on both alike. Each checkout runs its own ``perfbench/`` and
``src/``. Run from the repository root, with both checkouts made by
``git clone`` (so their commits can be read):

    python3 bench_history/record.py --parent ../parent --change . \\
        --seeds 1001 1002 1003 1004 1005 --seconds 8 \\
        --out bench_history/BENCH_my-change.json 2> record.log

The file holds, per workload and side, the median and quartiles of every
end-to-end metric of ``BENCHMARK.json`` plus the values of each run; per
metric, the number of seed pairs the change won; each run's ``correct``
flag and failure count; the seeds, the run length, both commits and the
Python, numpy, platform and CPU-count versions of the host. Per workload
and side it also summarises the raw (unscaled) call p50 and the
calibration kernel p50 that each run prints: perfbench divides call times
by that kernel, so a scaled metric can move with the kernel alone.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path


def commit(checkout: Path) -> str:
    """HEAD of ``checkout``, marked ``+dirty`` if tracked files differ from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True, check=True).stdout.strip()

    try:
        head = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + ("+dirty" if dirty else "")


# The line perfbench/run.py prints before its metrics.
CALIBRATION_LINE = re.compile(r"raw \(unscaled\) call p50 (\S+) ms, calibration kernel p50 (\S+) ms")


def run_once(checkout: Path, command, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; returns the JSON of its last output line, plus
    ``raw_ms_p50`` and ``kernel_ms_p50`` from its calibration line (None
    without one)."""
    cmd = list(command) + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    found = [m for m in map(CALIBRATION_LINE.match, lines) if m]
    res["raw_ms_p50"], res["kernel_ms_p50"] = (map(float, found[-1].groups()) if found
                                               else (None, None))
    return res


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def calibration(values: list) -> dict:
    """``summary`` in ms of one calibration value over the runs, or only
    the runs when some printed none."""
    return dict(summary(values) if None not in values else {"runs": values}, unit="ms")


def progress(line: str):
    """Print one progress line to stderr at once, even when stderr is a file."""
    print(line, file=sys.stderr, flush=True)


def record(spec: dict, parent: Path, change: Path, seeds, seconds: float, log=progress) -> dict:
    metrics = spec["end_to_end"]
    sides = {"parent": parent, "change": change}
    workloads = {}
    for w in spec["workloads"]:
        name = w["name"]
        runs = {side: [] for side in sides}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                res = run_once(sides[side], spec["command"], name, seed, seconds)
                runs[side].append(res)
                log(f"{name} seed {seed} {side}: correct {res['correct']}, "
                    f"call_ms_p50 {res['metrics']['call_ms_p50']['value']:.4g}")
        entry = {}
        for side in sides:
            entry[side] = {m["name"]: dict(summary([r["metrics"][m["name"]]["value"]
                                                    for r in runs[side]]), unit=m["unit"])
                           for m in metrics}
        entry["change_won_pairs"] = {}
        for m in metrics:
            sign = 1.0 if m["better"] == "lower" else -1.0
            pairs = zip(entry["parent"][m["name"]]["runs"], entry["change"][m["name"]]["runs"])
            entry["change_won_pairs"][m["name"]] = sum(sign * (c - p) < 0 for p, c in pairs)
        entry["calibration"] = {side: {key: calibration([r.get(key) for r in runs[side]])
                                       for key in ("raw_ms_p50", "kernel_ms_p50")}
                                for side in sides}
        entry["correct"] = {side: [r["correct"] for r in runs[side]] for side in sides}
        entry["failed"] = {side: [r["failed"] for r in runs[side]] for side in sides}
        workloads[name] = entry
    import numpy as np

    return {
        "command": spec["command"],
        "commits": {side: commit(path) for side, path in sides.items()},
        "seeds": list(seeds),
        "run_seconds": seconds,
        "order": "per seed and workload, parent first at even seed positions, change first "
                 "at odd ones",
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "platform": platform.platform(), "nproc": os.cpu_count()},
        "workloads": workloads,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="record a BENCH_*.json for one change")
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if len(args.seeds) < 2 or len(set(args.seeds)) != len(args.seeds):
        print("error: need at least two distinct seeds (for quartiles)", file=sys.stderr)
        return 2
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        result = record(spec, args.parent.resolve(), args.change.resolve(), args.seeds,
                        args.seconds)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
