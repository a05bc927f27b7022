"""One workload process: program set-up, the timed closed loop, checks.

Started by ``run.py``, one at a time; prints one JSON line. Modes:

* ``setup``: import graphtcn and do the program's set-up, then report the
  time from ``--t0`` (taken by the parent just before it started this
  process) to the end of set-up.
* ``run``: set-up, then the workload for ``--seconds``, untraced
  (``--trace 0``) or as a traced run (``--trace 1``).

Each timed call is preceded by the calibration kernel (see ``common``);
times are reported at reference speed. A call fails if it raises, returns
a non-finite value or disagrees with the oracle.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _pin_threads():
    """Single-threaded BLAS/OpenMP, set before numpy is first imported."""
    sys.path[:0] = [str(Path.cwd() / "src"), str(HERE)]
    from graphtcn.cli import _THREAD_VARS

    for var in _THREAD_VARS:
        os.environ[var] = "1"


class StopRun(BaseException):
    """Raised from a hook to end ``train()`` at a step boundary."""


def _report_exception(what: str):
    print(f"{what}:\n{traceback.format_exc()}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Program set-up


def setup_infer(work: Path, spec):
    """What a deployment does before its first prediction."""
    from common import scene_names
    from graphtcn import checkpoint, data, training

    model = training.model_from_checkpoint(checkpoint.load_checkpoint(work / "model.ckpt"))
    cfg = model.cfg
    windows = data.load_windows(work / "scenes", scene_names(spec), cfg.t_obs, cfg.t_pred,
                                stride=cfg.stride, frame_step=cfg.frame_step)
    return model, windows


def train_config(spec, seed: int):
    from graphtcn.config import ModelConfig

    # train() runs until a hook stops it, so epochs only has to be large.
    return ModelConfig(samples=spec["samples"], seed=seed, epochs=1_000_000)


class TrainHooks:
    """Times optimizer steps inside ``training.train`` from outside.

    A step starts when train() draws its noise (``GraphTCN.draw_noise``)
    and ends when ``Adam.step`` returns; the calibration kernel runs just
    before the start (``kernel`` takes the model and returns its ms). The
    first draw marks the end of train()'s set-up.
    At the first step boundary after ``budget_s`` seconds of steps, once
    ``min_epochs`` epochs have been logged, the hook ends train().
    """

    def __init__(self, budget_s: float, min_epochs: int = 0, setup_only: bool = False,
                 tracer=None, kernel=None):
        from tracing import Patches

        self.patches = Patches()
        self.kernel = kernel
        self.budget_s = budget_s
        self.min_epochs = min_epochs
        self.setup_only = setup_only
        self.tracer = tracer
        self.model = None
        self.setup_end = None
        self.deadline = None
        self.starts, self.ends, self.cals, self.log = [], [], [], []

    def _draw(self, fn):
        def draw(model, rng, n_peds):
            now = time.perf_counter()
            if self.model is None:
                self.setup_end = time.monotonic()
                self.model = model
                if self.setup_only:
                    raise StopRun
                self.deadline = now + self.budget_s
            elif now >= self.deadline and len(self.log) >= self.min_epochs:
                raise StopRun
            self.cals.append(self.kernel(model))
            if self.tracer is not None:
                self.tracer.call = ("step", len(self.starts))
            self.starts.append(time.perf_counter())
            return fn(model, rng, n_peds)

        return draw

    def _step(self, fn):
        def step(opt):
            fn(opt)
            self.ends.append(time.perf_counter())

        return step

    def run(self, cfg, data_dir: Path, scenes):
        from graphtcn import data, model, optim, training

        self.patches.replace(model.GraphTCN, "draw_noise", self._draw)
        self.patches.replace(optim.Adam, "step", self._step)
        try:
            training.train(cfg, data.Split(tuple(scenes), scenes[0]), data_dir,
                           progress=self.log.append)
        except StopRun:
            pass
        finally:
            self.patches.uninstall()

    def step_ms(self) -> list:
        """Per completed step: (raw ms, kernel ms)."""
        return [((e - s) * 1e3, c) for s, e, c in zip(self.starts, self.ends, self.cals)]


# ---------------------------------------------------------------------------
# Loops and checks


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, ok: bool, what: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what and len(self.notes) < 20:
                self.notes.append(what)


def make_kernel(positions, cfg, params=None):
    """The calibration kernel (``common.calibrate``) with the oracle forward
    of one fixed window, the largest of the workload. Returns a callable
    taking the model (whose weights stand in when ``params`` is None) and
    returning the kernel's ms."""
    import oracle
    from common import calibrate

    pos = max(positions, key=len)

    def kernel(model=None):
        p = params if params is not None else {k: t.data for k, t in model.params.items()}
        return calibrate(lambda: oracle.encode(p, pos, cfg))

    return kernel


def predict_loop(model, windows, oracle_in, m: int, seed: int, phase: int, budget_s: float,
                 tally: Tally, kernel, tracer=None) -> list:
    """Closed loop of batch-1 predict calls, cycling over the windows.

    Every call is checked against the oracle decoding of the noise the call
    drew. Returns (raw ms, kernel ms) per call; the calibration kernel runs
    just before the call.
    """
    import numpy as np

    import oracle

    ref, encs, origins = oracle_in
    cfg = model.cfg
    out = []
    deadline = time.perf_counter() + budget_s
    i = 0
    while time.perf_counter() < deadline or i < len(windows):
        w = i % len(windows)
        key = [seed, phase, i]
        rng = np.random.default_rng(key)
        if tracer is not None:
            tracer.call = ("predict", i)
        cal = kernel()
        t0 = time.perf_counter()
        try:
            pred, _ = model.predict(windows[w], m, rng)
            ok = True
        except Exception:
            ok = False
            if tally.failed == 0:
                _report_exception("predict raised")
        t1 = time.perf_counter()
        out.append(((t1 - t0) * 1e3, cal))
        if ok:
            want = oracle.decode(ref, encs[w], oracle.draw_noise(key, m, cfg), origins[w], cfg.t_pred)
            ok = oracle.agrees(pred.trajectories, want)
        tally.add(ok, f"predict {i} (window {w}) raised or disagrees with the oracle")
        i += 1
    return out


def prepare_oracle(ref: dict, expected: list, cfg):
    import oracle

    encs = [oracle.encode(ref, pos, cfg) for pos in expected]
    origins = [pos[:, cfg.t_obs - 1] for pos in expected]
    return ref, encs, origins


def expected_windows(seed: int, spec, cfg) -> list:
    import common

    t_total = cfg.t_obs + cfg.t_pred
    return common.expected_windows(common.scene_tracks(seed, spec, t_total), t_total)


def check_windows(windows, expected, tally: Tally):
    """The loader must return exactly the generated windows, in order.

    The loop pairs program windows with oracle windows, so a mismatch in
    number ends the run.
    """
    import numpy as np

    if len(windows) != len(expected):
        raise SystemExit(f"error: load_windows gave {len(windows)} windows, "
                         f"expected {len(expected)}")
    ok = all(np.array_equal(w.positions, e) for w, e in zip(windows, expected))
    tally.add(ok, "load_windows positions differ from the generated tracks")


def grad_check(model, window, seed: int) -> str:
    """Tape gradient of one training step vs central differences.

    One seeded entry of every parameter tensor; returns '' or the name of
    the first tensor that disagrees beyond 1e-6 + 1e-3 * |numeric|.
    """
    import numpy as np

    from graphtcn import tensor as T

    rng = np.random.default_rng([seed, 11])
    noise = model.draw_noise(rng, window.n_peds)
    with T.Tape() as tape:
        loss, _ = model.window_loss(window, 1, noise)
        model.params.zero_grads()
        T.backward(loss, tape)
    h = 1e-5
    for name, p in model.params.items():
        idx = int(rng.integers(p.data.size))
        flat = p.data.reshape(-1)
        analytic = float(p.grad.reshape(-1)[idx])
        orig = flat[idx]
        flat[idx] = orig + h
        f_plus = model.window_loss(window, 1, noise)[0].item()
        flat[idx] = orig - h
        f_minus = model.window_loss(window, 1, noise)[0].item()
        flat[idx] = orig
        numeric = (f_plus - f_minus) / (2 * h)
        if not abs(analytic - numeric) <= 1e-6 + 1e-3 * abs(numeric):
            return f"{name}[{idx}]: tape {analytic!r} vs central difference {numeric!r}"
    return ""


def check_loss_log(log: list) -> str:
    losses = [float(line.split("\t")[1]) for line in log]
    if len(losses) < 2:
        return f"only {len(losses)} epochs logged"
    if not all(math.isfinite(v) for v in losses) or not losses[-1] < losses[0]:
        return f"loss log not finite and decreasing: {losses}"
    return ""


def count_ops(model, windows, seed: int) -> tuple:
    """Exact op counts per predict and per training step.

    Each window is run twice; every count must repeat exactly (ops and
    tape nodes across all windows, output bytes per window). Returns
    (metrics, problems).
    """
    import numpy as np

    from graphtcn import tensor as T
    from tracing import OpCounter

    counter = OpCounter()
    counter.install()
    pred, step = [], []
    try:
        for w in windows:
            runs = []
            for r in range(2):
                counter.take()
                model.predict(w, model.cfg.samples, np.random.default_rng([seed, r]))
                runs.append(counter.take())
            pred.append(runs)
            runs = []
            for r in range(2):
                noise = model.draw_noise(np.random.default_rng([seed, r]), w.n_peds)
                counter.take()
                with T.Tape() as tape:
                    loss, _ = model.window_loss(w, 1, noise)
                    model.params.zero_grads()
                    T.backward(loss, tape)
                runs.append((counter.take()[0], len(tape.nodes)))
            step.append(runs)
    finally:
        counter.uninstall()
    problems = []
    pred_ops = {c[0] for runs in pred for c in runs}
    step_counts = {c for runs in step for c in runs}
    if len(pred_ops) != 1 or any(runs[0] != runs[1] for runs in pred):
        problems.append(f"predict counts do not repeat: {pred}")
    if len(step_counts) != 1:
        problems.append(f"step counts do not repeat: {step}")
    metrics = {
        "tensor.ops_per_predict": (min(pred_ops), "count"),
        "tensor.out_mb_per_predict": (statistics.fmean(runs[0][1] for runs in pred) / 1e6, "MB"),
        "tensor.ops_per_step": (min(step_counts)[0], "count"),
        "tensor.tape_nodes_per_step": (min(step_counts)[1], "count"),
    }
    return metrics, problems


# ---------------------------------------------------------------------------
# Summaries


def factors(samples, ref_ms: float) -> list:
    """Per (raw ms, kernel ms) sample: the factor to reference speed.

    The kernel runs just before each call, so each call is bracketed by
    the kernel runs before and after it; the factor uses both.
    """
    cals = [cal for _, cal in samples]
    after = cals[1:] + cals[-1:]
    return [2.0 * ref_ms / (c0 + c1) for c0, c1 in zip(cals, after)]


def scaled(samples, ref_ms: float) -> list:
    """(raw ms, kernel ms) -> ms at reference speed."""
    return [raw * f for (raw, _), f in zip(samples, factors(samples, ref_ms))]


def latency(samples, ref_ms: float) -> dict:
    ms = scaled(samples, ref_ms)
    return {
        "call_ms_p50": (statistics.median(ms), "ms"),
        "call_ms_p90": (statistics.quantiles(ms, n=10)[8], "ms"),
        "calls_per_s": (1e3 * len(ms) / sum(ms), "1/s"),
    }


def per_call(tracer, phase: str, scale: dict) -> tuple:
    """Inclusive and self ms per call of ``phase``, by span name."""
    total, own = Counter(), Counter()
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        call = span[1]
        if isinstance(call, tuple) and call[0] == phase:
            total[span[0]] += (span[4] - span[3]) * 1e3 * scale[call]
            own[span[0]] += self_s * 1e3 * scale[call]
    n = sum(1 for c in scale if c[0] == phase)
    return ({k: v / n for k, v in total.items()}, {k: v / n for k, v in own.items()})


# ---------------------------------------------------------------------------
# Workloads


def run_infer(args, spec, work: Path) -> dict:
    import numpy as np

    import common

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.call = "setup"
    model, windows = setup_infer(work, spec)
    if tracer is not None:
        tracer.uninstall()
    cfg, m, ref_ms = model.cfg, spec["samples"], spec["kernel_ref_ms"]
    if args.fault == "nudge":
        model.params["embed.W"].data.flat[0] += 1e-6

    tally = Tally()
    expected = expected_windows(args.seed, spec, cfg)
    check_windows(windows, expected, tally)
    with np.load(work / "weights.npz") as z:
        ref = {k: z[k] for k in z.files}
    oracle_in = prepare_oracle(ref, expected, cfg)
    kernel = make_kernel(expected, cfg, ref)

    if not args.trace:
        calls = predict_loop(model, windows, oracle_in, m, args.seed, 0, args.seconds, tally,
                             kernel)
        return {"tally": tally, "metrics": latency(calls, ref_ms), "raw": calls}

    budget = args.seconds
    untraced = predict_loop(model, windows, oracle_in, m, args.seed, 0, 0.3 * budget, tally,
                            kernel)
    tracer.install()
    traced = predict_loop(model, windows, oracle_in, m, args.seed, 1, 0.45 * budget, tally,
                          kernel, tracer)
    # The training layers, probed on this workload's windows.
    tracer.call = "setup"
    probe = TrainHooks(0.2 * budget, tracer=tracer, kernel=kernel)
    probe.run(cfg, work / "scenes", common.scene_names(spec))
    tracer.uninstall()
    return traced_metrics(args, spec, tally, tracer, untraced, traced, probe, model, windows)


def run_train(args, spec, work: Path) -> dict:
    import common
    from graphtcn import tensor, training

    tally = Tally()
    cfg = train_config(spec, args.seed)
    scenes = common.scene_names(spec)
    expected = expected_windows(args.seed, spec, cfg)
    kernel = make_kernel(expected, cfg)
    if args.fault == "drop-grad":
        drop_gradient(tensor, training)

    if not args.trace:
        hooks = TrainHooks(args.seconds, min_epochs=2, kernel=kernel)
        try:
            hooks.run(cfg, work / "scenes", scenes)
        except Exception:
            _report_exception("train() raised")
            tally.add(False, "train() raised")
        steps = hooks.step_ms()
        if not steps:
            raise SystemExit("error: no training step completed")
        for _ in steps:
            tally.add(True)
        check_training(hooks, expected, args.seed, tally)
        return {"tally": tally, "metrics": latency(steps, spec["kernel_ref_ms"]), "raw": steps}

    from graphtcn import checkpoint
    from tracing import Tracer

    budget = args.seconds
    untraced = TrainHooks(0.3 * budget, kernel=kernel)
    untraced.run(cfg, work / "scenes", scenes)
    tracer = Tracer()
    tracer.install()
    tracer.call = "setup"
    traced = TrainHooks(0.45 * budget, tracer=tracer, kernel=kernel)
    traced.run(cfg, work / "scenes", scenes)
    for _ in traced.step_ms():
        tally.add(True)
    # Deployment of the trained weights: save, load, predict.
    tracer.call = "setup"
    ref = traced.model.params.state_arrays()
    checkpoint.save_checkpoint(work / "model.ckpt", traced.model.params, cfg)
    model, windows = setup_infer(work, spec)
    check_windows(windows, expected, tally)
    predicted = predict_loop(model, windows, prepare_oracle(ref, expected, cfg), spec["samples"],
                             args.seed, 2, 0.15 * budget, tally, make_kernel(expected, cfg, ref),
                             tracer)
    tracer.uninstall()
    return traced_metrics(args, spec, tally, tracer, untraced.step_ms(), traced.step_ms(),
                          traced, model, windows[::spec["windows"]], predicted=predicted)


def drop_gradient(tensor, training):
    """Self-test fault: backward skips the first recorded op (the input
    embedding), so its weights get no gradient."""
    original = tensor.backward

    def backward(root, tape):
        tape.nodes = tape.nodes[1:]
        original(root, tape)

    tensor.backward = backward
    training.backward = backward


def check_training(hooks, expected, seed: int, tally: Tally):
    """Gradient of one step vs central differences; finite falling loss log.

    The gradient is checked on the smallest window, where the fewest
    attention logits sit near a kink of leaky_relu.
    """
    from graphtcn.data import SequenceWindow

    pos = min(expected, key=len)
    window = SequenceWindow("check", 0, pos, list(range(len(pos))))
    problem = grad_check(hooks.model, window, seed)
    tally.add(not problem, f"gradient check: {problem}")
    problem = check_loss_log(hooks.log)
    tally.add(not problem, f"loss log: {problem}")


def traced_metrics(args, spec, tally: Tally, tracer, untraced, traced, stepper, model,
                   count_windows, predicted=None) -> dict:
    """Per-layer metrics of a traced run.

    ``untraced`` and ``traced`` are (raw ms, kernel ms) samples of the
    workload's own operation; ``predicted`` holds the predict calls when
    they are not the workload's own operation. Spans outside the calls
    (set-up) are scaled by the run's median kernel time.
    """
    from tracing import LAYERS, SPAN_NAMES

    ref_ms = spec["kernel_ref_ms"]
    pred_calls = traced if predicted is None else predicted
    step_calls = stepper.step_ms()
    scale = {("predict", i): f for i, f in enumerate(factors(pred_calls, ref_ms))}
    scale.update({("step", i): f for i, f in enumerate(factors(step_calls, ref_ms))})
    p_tot, p_self = per_call(tracer, "predict", scale)
    s_tot, _ = per_call(tracer, "step", scale)
    all_cals = [c for _, c in pred_calls + step_calls]
    run_scale = ref_ms / statistics.median(all_cals)

    def span_s(name):
        return statistics.median(s[4] - s[3] for s in tracer.spans if s[0] == name) * run_scale

    metrics = {
        "model.predict_ms": (p_tot["model.predict"], "ms"),
        "model.predict_self_ms": (p_self["model.predict"], "ms"),
        "data.features_ms": (p_tot["data.build_features"], "ms"),
        "graph_attention.spatial_ms": (p_tot["graph_attention.spatial"], "ms"),
        "graph_attention.spatial_self_ms": (p_self["graph_attention.spatial"], "ms"),
        "graph_attention.gal1_ms": (p_tot["graph_attention.gal1"], "ms"),
        "graph_attention.gal2_ms": (p_tot["graph_attention.gal2"], "ms"),
        "temporal_conv.tcn_ms": (p_tot["temporal_conv.tcn"], "ms"),
        "decoders.decode_ms": (p_tot["decoders.mlp"] + p_tot["decoders.relative_to_absolute"], "ms"),
        "training.step_ms": (statistics.fmean(scaled(step_calls, ref_ms)), "ms"),
        "model.window_loss_ms": (s_tot["model.window_loss"], "ms"),
        "metrics.variety_loss_ms": (s_tot["metrics.variety_loss"], "ms"),
        "tensor.backward_ms": (s_tot["tensor.backward"], "ms"),
        "optim.adam_step_ms": (s_tot["optim.adam_step"], "ms"),
        "data.load_s": (span_s("data.load_windows"), "s"),
        "checkpoint.load_s": (span_s("checkpoint.load"), "s"),
        "trace.overhead_ms": (statistics.median(scaled(traced, ref_ms))
                              - statistics.median(scaled(untraced, ref_ms)), "ms"),
        "host.kernel_ms": (statistics.median(all_cals), "ms"),
    }
    counts, problems = count_ops(model, count_windows, args.seed)
    metrics.update(counts)
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = (tracer.errors[layer], "count")
    missing = sorted(SPAN_NAMES - {s[0] for s in tracer.spans})
    if missing:
        problems.append(f"spans never fired: {missing}")
    out_dir = Path.cwd() / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write_tsv(out_dir / f"trace-{args.workload}-s{args.seed}.tsv")
    return {"tally": tally, "metrics": metrics, "problems": problems}


def main(argv=None) -> int:
    _pin_threads()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fault", choices=("none", "nudge", "drop-grad"), default="none")
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args(argv)
    from common import WORKLOADS, scene_names

    spec = WORKLOADS[args.workload]

    if args.mode == "setup":
        if spec["kind"] == "infer":
            setup_infer(args.work, spec)
            end = time.monotonic()
        else:
            hooks = TrainHooks(0.0, setup_only=True)
            hooks.run(train_config(spec, args.seed), args.work / "scenes", scene_names(spec))
            end = hooks.setup_end

        print(json.dumps({"setup_s": end - args.t0}))
        return 0

    run = run_infer if spec["kind"] == "infer" else run_train
    res = run(args, spec, args.work)
    tally = res["tally"]
    out = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "notes": tally.notes,
        "problems": res.get("problems", []),
        "metrics": res["metrics"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if res.get("raw"):
        out["raw_ms_p50"] = statistics.median(r for r, _ in res["raw"])
        out["cal_ms_p50"] = statistics.median(c for _, c in res["raw"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
