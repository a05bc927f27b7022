"""Command-line surface.

Subcommands: train, eval, bench, dump-attn, plot. Imports of the numeric
stack happen inside each handler so that ``bench`` can pin BLAS and OpenMP
thread counts before numpy is first loaded.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="graphtcn",
                                  description="Pedestrian trajectory prediction pipeline")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train on all scenes except the held-out one")
    p.add_argument("--data", required=True, help="directory of scene .txt files")
    p.add_argument("--leave-out", required=True, help="scene held out for evaluation")
    p.add_argument("--config", help="key=value config file (defaults otherwise)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--log", help="loss log path (default: OUT.log)")
    p.set_defaults(run=_cmd_train)

    p = sub.add_parser("eval", help="best-of-M metrics on the held-out scene")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--leave-out", required=True)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0, help="noise seed for sampling")
    p.add_argument("--dump-traj", help="write a trajectory dump of the first window")
    p.set_defaults(run=_cmd_eval)

    p = sub.add_parser("bench", help="single-threaded batch-1 inference timing")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--repeats", type=int, required=True)
    p.add_argument("--scene", help="scene to time (default: first discovered)")
    p.add_argument("--samples", type=int, default=4)
    p.add_argument("--warmup", type=int, default=10)
    p.set_defaults(run=_cmd_bench)

    p = sub.add_parser("dump-attn", help="write attention matrices for one window")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--window-id", required=True, help="SCENE:START_FRAME")
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_dump_attn)

    p = sub.add_parser("plot", help="render a dump file to SVG")
    p.add_argument("--kind", required=True, choices=["trajectories", "samples", "attention"])
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_plot)
    return top


def _check_outputs(outputs: dict, inputs: dict, data=None):
    """Refuse, before any input is read, an output path that is a directory,
    whose parent is not one, that discover_scenes would take for a scene in
    ``data`` (a *.txt file there), or that names the same file as an input or
    an earlier output. Both map a flag to its path; an unset one is skipped."""
    from .errors import ConfigError

    seen = {os.path.realpath(path): flag for flag, path in inputs.items() if path is not None}
    for flag, path in outputs.items():
        if path is None:
            continue
        if Path(path).is_dir():
            raise ConfigError(f"cannot write {path!r}: it is a directory")
        parent = Path(path).parent
        if not parent.is_dir():
            raise ConfigError(f"cannot write {path!r}: {str(parent)!r} is not a directory")
        if (data is not None and Path(path).name.endswith(".txt")
                and os.path.realpath(parent) == os.path.realpath(data)):
            raise ConfigError(f"cannot write {path!r}: --data would read it as a scene")
        other = seen.setdefault(os.path.realpath(path), flag)
        if other != flag:
            raise ConfigError(f"cannot write {path!r}: {flag} and {other} name the same file")


def _cmd_train(args) -> int:
    from .config import ModelConfig, check_key
    from .data import discover_scenes, hold_out
    from .training import train

    if args.seed is not None:
        check_key("seed", args.seed)
    log_path = args.log if args.log else args.out + ".log"
    _check_outputs({"--out": args.out, "--log": log_path}, {"--config": args.config}, args.data)
    cfg = ModelConfig.from_file(args.config) if args.config else ModelConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    split = hold_out(discover_scenes(args.data), args.leave_out)
    train(cfg, split, args.data, out_path=args.out, log_path=log_path,
          progress=lambda line: print(line, flush=True))
    print(f"checkpoint written to {args.out}")
    print(f"loss log written to {log_path}")
    return 0


def _cmd_eval(args) -> int:
    from .checkpoint import load_checkpoint
    from .data import discover_scenes, hold_out
    from .training import check_eval_args, evaluate_dataset, model_from_checkpoint

    check_eval_args(args.samples, args.seed)
    _check_outputs({"--dump-traj": args.dump_traj}, {"--ckpt": args.ckpt}, args.data)
    ckpt = load_checkpoint(args.ckpt)
    model = model_from_checkpoint(ckpt)
    split = hold_out(discover_scenes(args.data), args.leave_out)
    report = evaluate_dataset(model, split, args.data, args.samples, seed=args.seed)
    print(report.format_table(), end="")
    if args.dump_traj:
        from .dumps import write_trajectory_dump

        window, pred_set = report.first
        write_trajectory_dump(args.dump_traj, window, pred_set, model.cfg.t_obs)
        print(f"trajectory dump written to {args.dump_traj}")
    return 0


def _cmd_bench(args) -> int:
    for var in _THREAD_VARS:
        os.environ.setdefault(var, "1")
    from .checkpoint import load_checkpoint
    from .data import discover_scenes, load_scene_windows
    from .errors import DataError
    from .training import benchmark_inference, check_bench_args, model_from_checkpoint

    check_bench_args(args.repeats, args.samples, args.warmup)
    model = model_from_checkpoint(load_checkpoint(args.ckpt))
    cfg = model.cfg
    scene = args.scene if args.scene else discover_scenes(args.data)[0]
    windows = load_scene_windows(args.data, scene, cfg.t_obs, cfg.t_pred,
                                 stride=cfg.stride, frame_step=cfg.frame_step)
    if not windows:
        raise DataError(f"scene {scene!r} has no window of {cfg.t_obs + cfg.t_pred} steps")
    report = benchmark_inference(model, windows[0], args.repeats, m=args.samples,
                                 warmup=args.warmup)
    print(f"scene\t{scene} (window {windows[0].start_frame})")
    print(report.format_report(), end="")
    return 0


def _cmd_dump_attn(args) -> int:
    from .checkpoint import load_checkpoint
    from .dumps import write_attention_dump
    from .data import load_scene_windows
    from .errors import ConfigError, ContractError, DataError
    from .training import model_from_checkpoint

    _check_outputs({"--out": args.out}, {"--ckpt": args.ckpt}, args.data)
    # The start frame follows the last ":", so a scene name may hold one.
    scene, sep, start = args.window_id.rpartition(":")
    try:
        if not sep:
            raise ValueError(args.window_id)
        start = int(start)
    except ValueError:
        raise ConfigError("--window-id must be SCENE:START_FRAME") from None
    model = model_from_checkpoint(load_checkpoint(args.ckpt))
    cfg = model.cfg
    windows = load_scene_windows(args.data, scene, cfg.t_obs, cfg.t_pred,
                                 stride=cfg.stride, frame_step=cfg.frame_step)
    matches = [w for w in windows if w.start_frame == start]
    if not matches:
        starts = [w.start_frame for w in windows]
        raise DataError(f"no window starting at {start} in {scene}; have {starts}")
    window = matches[0]
    _, attn = model.encode(window)
    if attn is None:
        raise ContractError("this checkpoint's variant has no attention to dump")
    write_attention_dump(args.out, window, attn, cfg.t_obs)
    print(f"attention dump written to {args.out}")
    return 0


def _cmd_plot(args) -> int:
    from .viz import emit_plot

    _check_outputs({"--out": args.out}, {"--in": args.in_path})
    out = emit_plot(args.kind, args.in_path, args.out)
    print(f"plot written to {out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from .errors import GraphTCNError

    try:
        return args.run(args)
    except (GraphTCNError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
