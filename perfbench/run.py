"""Benchmark of graphtcn: batch-1 prediction at small and crowd scale, and
training throughput, with a separate traced run for per-layer numbers.

Run from the repository root:

    python3 perfbench/run.py --workload infer_small --seed 1 --seconds 10 --trace 0

The benchmark writes seeded inputs (scene files in ``frame ped x y`` form,
and for the inference workloads a checkpoint saved with ``GraphTCN(cfg)``
and ``save_checkpoint``) under ``.bench_work/``, then runs the workload in
single-threaded child processes, one at a time: one that runs the closed
loop, and eight that only do the program's set-up (for ``setup_s``), half
before it and half after it. The last line of standard output is the JSON
result; the lines before it give the environment and every metric by name
and unit. A traced run (``--trace 1``) prints the per-layer metrics
instead and writes its spans to ``.bench_out/trace-<workload>-s<seed>.tsv``.

Workloads (closed loop, one caller):

* ``infer_small``: ``GraphTCN.predict`` with N=8, M=4 over 4 windows.
* ``infer_crowd``: the same with N=64, M=20.
* ``train_mixed``: ``training.train`` with default widths and M=20 over 8
  scenes of N = 2, 4, ..., 16 walkers (40 windows an epoch).

End-to-end metrics (``--trace 0``); a "call" is one ``predict`` on the
inference workloads and one optimizer step (noise, forward, backward,
Adam) on ``train_mixed``:

* ``call_ms_p50``, ``call_ms_p90``: latency of one call.
* ``calls_per_s``: calls completed per second of call time.
* ``setup_s``: process start to the end of the program's set-up (import,
  ``load_checkpoint``, ``model_from_checkpoint``, ``load_windows``; for
  ``train_mixed`` what ``train()`` does before its first step), median of
  eight processes. Not scaled: it did not follow the calibration kernel
  (scaling made it noisier), so it carries the host's swings.
* ``peak_rss_mb``: peak resident memory of the process that ran the loop.

Call times are at reference speed: each timed call is bracketed by runs of
a fixed calibration kernel (``common.calibrate`` plus the oracle forward of
one window) and scaled by ``kernel_ref_ms / kernel time``. This cancels
most of the host's speed swings (2x on a shared 2-vCPU host); the raw
medians are printed too. Failures are the ``failed`` count of the result;
every call is checked against an independent numpy forward
(``oracle.py``), and training against central differences and its loss
log. ``selftest.py`` shows that injected faults are counted.

The traced run spends 30% of ``--seconds`` on the workload untraced and
45% on it with spans at each layer's public entry points (``tracing.py``);
the tracing overhead is the difference of the two p50s. Then it probes the
layers the workload does not run: a few training steps on the inference
workloads' windows, or saving, loading and predicting with the trained
weights on ``train_mixed``. Per-layer times are per predict call or per
training step, at reference speed. Last, it counts tensor ops, their output
bytes (computed from array sizes) and tape nodes, and requires every count
to repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 8  # half before the timed run, half after it
TIME_LIMIT_S = 170.0


def make_inputs(work: Path, spec, seed: int):
    """Scene files, and for inference a checkpoint plus its weights as npz."""
    import numpy as np

    from common import scene_tracks, write_scene
    from graphtcn.checkpoint import save_checkpoint
    from graphtcn.config import ModelConfig
    from graphtcn.model import GraphTCN

    cfg = ModelConfig(samples=spec["samples"], seed=seed)
    (work / "scenes").mkdir(parents=True)
    for name, tracks in scene_tracks(seed, spec, cfg.t_obs + cfg.t_pred).items():
        write_scene(work / "scenes" / f"{name}.txt", tracks)
    if spec["kind"] == "infer":
        model = GraphTCN(cfg)
        save_checkpoint(work / "model.ckpt", model.params, cfg)
        # The oracle's own copy of the weights, independent of the format.
        np.savez(work / "weights.npz", **model.params.state_arrays())


def run_worker(args, work: Path, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--work", str(work), "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--fault", args.fault]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{mode} process exceeded the time limit") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def environment() -> dict:
    import numpy as np

    from graphtcn.cli import _THREAD_VARS

    return {"python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "threads": {v: os.environ[v] for v in _THREAD_VARS}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="graphtcn benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fault", choices=("none", "nudge", "drop-grad"), default="none",
                    help="inject a fault (self-test only)")
    args = ap.parse_args(argv)
    started = time.monotonic()

    root = Path.cwd()
    if not (root / "src" / "graphtcn" / "__init__.py").is_file():
        print("error: run from a graphtcn checkout (src/graphtcn not found)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(HERE)]
    from graphtcn.cli import _THREAD_VARS

    for var in _THREAD_VARS:
        os.environ[var] = "1"
    from common import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]

    work = root / ".bench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    deadline = started + TIME_LIMIT_S
    try:
        make_inputs(work, spec, args.seed)
        n_setups = 0 if args.trace else SETUP_RUNS // 2
        setups = [run_worker(args, work, "setup", deadline) for _ in range(n_setups)]
        res = run_worker(args, work, "run", deadline)
        setups += [run_worker(args, work, "setup", deadline) for _ in range(n_setups)]
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in res["metrics"].items()}
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(s["setup_s"] for s in setups),
                              "unit": "s"}
        metrics["peak_rss_mb"] = {"value": res["peak_rss_mb"], "unit": "MB"}

    print("env " + json.dumps(environment()))
    if "raw_ms_p50" in res:
        print(f"raw (unscaled) call p50 {res['raw_ms_p50']:.4f} ms, "
              f"calibration kernel p50 {res['cal_ms_p50']:.4f} ms "
              f"(reference {spec['kernel_ref_ms']} ms)")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    for note in res["notes"] + res["problems"]:
        print(f"FAIL: {note}")
    correct = res["failed"] == 0 and not res["problems"]
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
