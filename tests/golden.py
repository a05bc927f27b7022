"""Golden numbers: what training, evaluation and prediction compute, pinned.

For each of the four variants x ``decoder_hidden`` {0, 16} (default config
otherwise, with ``samples = 5``, seed 3 and 2 epochs), ``compute`` trains on
the synthetic scenes with ``zara1_like`` held out and records:

- the SHA-256 of the checkpoint bytes and of the TSV loss log;
- the loss log's values;
- the L2 norm of the parameter buffer;
- best-of-20 ADE/FDE on ``zara1_like`` from ``evaluate_dataset`` (noise
  seed 3);
- the trajectories of one M = 4 ``predict`` on ``crossing:0`` (noise
  seed 3).

The fixture ``golden.json`` holds these values and the fingerprint of the
platform that made them: the numpy version, the BLAS and SIMD entries of
``np.show_config()`` and ``platform.machine()``. ``test_golden.py`` checks
the fixture with ``compute`` and ``mismatches`` from this module, so
generation and checking share one code path. Where the fingerprint
matches, every hash and every number must be equal ("exact" mode);
elsewhere BLAS kernels and numpy's SIMD exp/tanh may round differently,
so every number must agree to 1e-9 relative to the largest magnitude of
its quantity ("values" mode) and hashes are not compared.

Rewrite the fixture with::

    PYTHONPATH=src python tests/golden.py --write

Regenerating it is a numerics change: it needs its own CHANGES.md entry
saying which numbers moved and why. It is never a way to make the tests
pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np

from graphtcn.config import VARIANTS, ModelConfig
from graphtcn.data import discover_scenes, load_scene_windows, make_splits
from graphtcn.training import evaluate_dataset, train

DATA_DIR = Path(__file__).resolve().parent.parent / "data" / "synthetic"
FIXTURE = Path(__file__).resolve().parent / "golden.json"
HELD_OUT = "zara1_like"
HIDDEN = (0, 16)
SEED = 3
REL_TOL = 1e-9


def config_names() -> list[str]:
    return [f"{variant}/h{hidden}" for variant in VARIANTS for hidden in HIDDEN]


def fingerprint() -> dict:
    """The platform facts that decide the bytes: numpy, BLAS, SIMD, CPU."""
    try:
        deps = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its config
        deps = {}
    blas = deps.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "simd": deps.get("SIMD Extensions"),
        "machine": platform.machine(),
    }


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def compute(name: str) -> dict:
    """Train, evaluate and predict for one configuration ``VARIANT/hH``."""
    variant, hidden = name.split("/h")
    cfg = ModelConfig(variant=variant, decoder_hidden=int(hidden), samples=5,
                      seed=SEED, epochs=2)
    split = next(s for s in make_splits(discover_scenes(DATA_DIR)) if s.test_scene == HELD_OUT)
    with tempfile.TemporaryDirectory() as tmp:
        ckpt, log = Path(tmp) / "model.ckpt", Path(tmp) / "model.log"
        model = train(cfg, split, DATA_DIR, out_path=ckpt, log_path=log).model
        hashes = {"checkpoint_sha256": _sha256(ckpt), "log_sha256": _sha256(log)}
        log_values = [[float(v) for v in line.split("\t")]
                      for line in log.read_text(encoding="utf-8").splitlines()]
    report = evaluate_dataset(model, split, DATA_DIR, 20, seed=SEED)
    window = load_scene_windows(DATA_DIR, "crossing", cfg.t_obs, cfg.t_pred)[0]
    pred_set, _ = model.predict(window, 4, np.random.default_rng(SEED))
    return {
        **hashes,
        "log": log_values,
        "param_norm": float(np.linalg.norm(model.params.flat()[0])),
        "ade": report.rows[0][1],
        "fde": report.rows[0][2],
        "predict": pred_set.trajectories.tolist(),
    }


def mismatches(expected: dict, actual: dict, exact: bool) -> list[str]:
    """What differs between two ``compute`` results, one line per quantity."""
    out = []
    for key, want in expected.items():
        got = actual[key]
        if key.endswith("_sha256"):
            if exact and got != want:
                out.append(f"{key}: {got} != {want}")
            continue
        a, b = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        if a.shape != b.shape:
            out.append(f"{key}: shape {a.shape} != {b.shape}")
            continue
        diff, scale = float(np.max(np.abs(a - b))), float(np.max(np.abs(b)))
        if exact and a.tobytes() != b.tobytes():
            out.append(f"{key}: not byte-equal, max |diff| {diff!r}")
        elif not exact and not diff <= REL_TOL * scale:  # NaN fails too
            out.append(f"{key}: max |diff| {diff!r} over {REL_TOL} x {scale!r}")
    return out


def load_fixture() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def write_fixture():
    """Recompute every configuration and rewrite ``golden.json``."""
    lines = ["{", f' "fingerprint": {json.dumps(fingerprint(), sort_keys=True)},',
             ' "configs": {']
    names = config_names()
    for i, name in enumerate(names):
        comma = "," if i < len(names) - 1 else ""
        lines.append(f"  {json.dumps(name)}: {json.dumps(compute(name))}{comma}")
    lines += [" }", "}"]
    FIXTURE.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Rewrite golden.json from the current code.")
    parser.add_argument("--write", action="store_true", required=True,
                        help="confirm that the fixture is to be rewritten")
    parser.parse_args()
    write_fixture()
    print(f"wrote {FIXTURE}")
