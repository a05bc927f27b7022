"""Checkpoint binary format: round trips, corruption detection."""

import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import golden
from graphtcn.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from graphtcn.config import ModelConfig
from graphtcn.data import SequenceWindow, discover_scenes, hold_out
from graphtcn.errors import (
    CheckpointCorruptError,
    CheckpointFormatError,
    ConfigError,
    GraphTCNError,
)
from graphtcn.model import GraphTCN
from graphtcn.tensor import ParameterStore
from graphtcn.training import model_from_checkpoint, train

# A pinned version-1 file (4.6 KB), made from the repository root with
#   PYTHONPATH=src python -m graphtcn.cli train --data data/synthetic \
#       --leave-out zara1_like --config tests/frozen_v1.cfg \
#       --out tests/frozen_v1.ckpt --log /dev/null
# Regenerating it is a numerics or format change, like golden.json's.
FROZEN_V1 = Path(__file__).resolve().parent / "frozen_v1.ckpt"
FROZEN_MODE = "exact" if golden.load_fixture()["fingerprint"] == golden.fingerprint() else "values"


def small_cfg():
    return ModelConfig(t_obs=4, t_pred=2, embed_dim=6, gal1_heads=1, gal1_out=3,
                       gal2_heads=1, gal2_out=4, tcn_channels=3, tcn_layers=1,
                       tcn_kernel=2, noise_dim=2, samples=2, epochs=1, seed=3)


def toy_store():
    s = ParameterStore()
    s.add("alpha.W", np.arange(6, dtype=float).reshape(2, 3))
    s.add("alpha.b", np.array([0.5, -0.5, 0.25]))
    s.add("beta", np.full((2, 2, 2), np.pi))
    return s


def test_round_trip_values_and_config(tmp_path):
    path = tmp_path / "m.ckpt"
    cfg = small_cfg()
    save_checkpoint(path, toy_store(), cfg)
    ckpt = load_checkpoint(path)
    assert ckpt.config.to_text() == cfg.to_text()
    assert list(ckpt.arrays) == ["alpha.W", "alpha.b", "beta"]
    for name, arr in ckpt.arrays.items():
        assert arr.dtype == np.float64
    np.testing.assert_array_equal(ckpt.arrays["beta"], np.full((2, 2, 2), np.pi))


def test_save_load_save_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    cfg = small_cfg()
    save_checkpoint(p1, toy_store(), cfg)
    ckpt = load_checkpoint(p1)
    store = ParameterStore()
    for name, arr in ckpt.arrays.items():
        store.add(name, arr)
    save_checkpoint(p2, store, ckpt.config)
    assert p1.read_bytes() == p2.read_bytes()


def test_int_valued_float_fields_save_load_save_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    cfg = ModelConfig(lr=1, kl_weight_late=0)
    cfg.kl_weight_early = 1
    save_checkpoint(p1, toy_store(), cfg)
    ckpt = load_checkpoint(p1)
    save_checkpoint(p2, toy_store(), ckpt.config)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, toy_store(), small_cfg())
    blob = path.read_bytes()
    path.write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_bad_version(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, toy_store(), small_cfg())
    blob = path.read_bytes()
    path.write_bytes(blob[:4] + struct.pack("<I", 99) + blob[8:])
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_truncation_detected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, toy_store(), small_cfg())
    blob = path.read_bytes()
    # Cuts inside and at the end of each integer field: version [4, 8),
    # config length [8, 12), then, after the config text, parameter count,
    # and the first parameter's name length, rank and its two dims.
    text_end = 12 + struct.unpack("<I", blob[8:12])[0]
    name_end = text_end + 6 + len("alpha.W")
    fields = [6, 8, 10, 12, text_end + 2, text_end + 4, text_end + 5, text_end + 6,
              name_end, name_end + 1, name_end + 5, name_end + 9]
    for cut in [3, len(blob) // 2, len(blob) - 1] + fields:
        path.write_bytes(blob[:cut])
        with pytest.raises(CheckpointCorruptError, match="truncated"):
            load_checkpoint(path)


def test_rank_zero_parameter_reads_no_dims(tmp_path):
    # Handcraft a scalar entry: rank 0, no dims, one value.
    cfg_bytes = small_cfg().to_text().encode()
    entry = (struct.pack("<H", 1) + b"s" + struct.pack("<B", 0)
             + np.array(2.5).tobytes())
    blob = (MAGIC + struct.pack("<I", 1) + struct.pack("<I", len(cfg_bytes))
            + cfg_bytes + struct.pack("<I", 1) + entry)
    path = tmp_path / "scalar.ckpt"
    path.write_bytes(blob)
    # The value follows the rank byte directly; no trailing bytes remain.
    s = load_checkpoint(path).arrays["s"]
    assert s.shape == () and s.item() == 2.5


def test_rank_zero_parameter_round_trips(tmp_path):
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    store = toy_store()
    store.add("s", np.array(2.5))
    save_checkpoint(p1, store, small_cfg())
    ckpt = load_checkpoint(p1)
    store.load_arrays(ckpt.arrays)
    save_checkpoint(p2, store, ckpt.config)
    assert p1.read_bytes() == p2.read_bytes()


def test_trailing_bytes_detected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, toy_store(), small_cfg())
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointCorruptError):
        load_checkpoint(path)


def test_duplicate_parameter_detected(tmp_path):
    # Handcraft a file whose parameter table lists the same name twice.
    cfg_bytes = small_cfg().to_text().encode()
    name = b"w"
    arr = np.array([1.0])
    entry = (struct.pack("<H", len(name)) + name + struct.pack("<B", 1)
             + struct.pack("<I", 1) + arr.tobytes())
    blob = (MAGIC + struct.pack("<I", 1) + struct.pack("<I", len(cfg_bytes))
            + cfg_bytes + struct.pack("<I", 2) + entry + entry)
    path = tmp_path / "dup.ckpt"
    path.write_bytes(blob)
    with pytest.raises(CheckpointCorruptError):
        load_checkpoint(path)


@pytest.mark.parametrize("rank", [33, 65])
def test_rank_past_32_detected(tmp_path, rank):
    # Zero-size dims ask for no values, so only the rank can be refused:
    # numpy holds 32 dims before 2.0 and 64 since, and reshape raised a
    # bare ValueError past that.
    cfg_bytes = small_cfg().to_text().encode()
    entry = (struct.pack("<H", 1) + b"w" + struct.pack("<B", rank)
             + struct.pack(f"<{rank}I", *[0] * rank))
    blob = (MAGIC + struct.pack("<I", 1) + struct.pack("<I", len(cfg_bytes))
            + cfg_bytes + struct.pack("<I", 1) + entry)
    path = tmp_path / "rank.ckpt"
    path.write_bytes(blob)
    with pytest.raises(CheckpointCorruptError, match=f"^parameter 'w' has rank {rank}, past 32$"):
        load_checkpoint(path)


def test_dims_whose_product_overflows_int64_detected(tmp_path):
    # (2**32 - 1)**2 values wrap an int64 element count; the exact count
    # asks for far more bytes than the file holds.
    cfg_bytes = small_cfg().to_text().encode()
    name = b"w"
    entry = (struct.pack("<H", len(name)) + name + struct.pack("<B", 2)
             + struct.pack("<2I", 2**32 - 1, 2**32 - 1) + np.zeros(4).tobytes())
    blob = (MAGIC + struct.pack("<I", 1) + struct.pack("<I", len(cfg_bytes))
            + cfg_bytes + struct.pack("<I", 1) + entry)
    path = tmp_path / "huge.ckpt"
    path.write_bytes(blob)
    with pytest.raises(CheckpointCorruptError, match="truncated"):
        load_checkpoint(path)


def test_zero_size_dims_past_numpys_array_size_detected(tmp_path):
    # A zero dim asks for no values, so the read succeeds, but numpy
    # refused the shape with a bare ValueError ("array is too big").
    dims = (0, 2**32 - 1, 2**32 - 1)
    cfg_bytes = small_cfg().to_text().encode()
    entry = (struct.pack("<H", 1) + b"w" + struct.pack("<B", 3) + struct.pack("<3I", *dims))
    blob = (MAGIC + struct.pack("<I", 1) + struct.pack("<I", len(cfg_bytes))
            + cfg_bytes + struct.pack("<I", 1) + entry)
    path = tmp_path / "zero.ckpt"
    path.write_bytes(blob)
    message = r"^parameter 'w' has dims \(0, 4294967295, 4294967295\), too big for an array$"
    with pytest.raises(CheckpointCorruptError, match=message):
        load_checkpoint(path)


def test_non_utf8_text_detected(tmp_path):
    path = tmp_path / "m.ckpt"
    cfg = small_cfg()
    save_checkpoint(path, toy_store(), cfg)
    blob = path.read_bytes()
    cfg_len = struct.unpack("<I", blob[8:12])[0]
    name_at = 12 + cfg_len + 4 + 2  # after the parameter count and name length
    assert blob[name_at:name_at + 7] == b"alpha.W"
    for offset, what in ((12, "config text"), (name_at, "parameter name")):
        path.write_bytes(blob[:offset] + b"\xff" + blob[offset + 1:])
        with pytest.raises(CheckpointCorruptError, match=what):
            load_checkpoint(path)


def test_config_text_with_nan_lr_rejected_by_name(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, toy_store(), small_cfg())
    blob = path.read_bytes()
    cfg_len = struct.unpack("<I", blob[8:12])[0]
    text = blob[12:12 + cfg_len]
    assert b"lr = 0.0001\n" in text
    text = text.replace(b"lr = 0.0001\n", b"lr = nan\n")
    path.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + cfg_len:])
    with pytest.raises(ConfigError, match="lr must be finite"):
        load_checkpoint(path)


def test_config_text_with_huge_tcn_layers_rejected_by_name(tmp_path):
    # With no dilations line, the config would build one dilation per layer.
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, toy_store(), small_cfg())
    blob = path.read_bytes()
    cfg_len = struct.unpack("<I", blob[8:12])[0]
    text = blob[12:12 + cfg_len]
    assert b"tcn_layers = 1\n" in text and b"tcn_dilations = 1\n" in text
    text = text.replace(b"tcn_layers = 1\n", b"tcn_layers = 1000000000000000\n")
    text = text.replace(b"tcn_dilations = 1\n", b"")
    path.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + cfg_len:])
    with pytest.raises(ConfigError, match="^tcn_layers must be <= 1024, got 1000000000000000$"):
        load_checkpoint(path)


def test_config_text_with_huge_width_fails_by_name(tmp_path):
    # A width has no cap of its own: the config loads, and the model's
    # parameter store refuses it before any array of that size is built.
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, toy_store(), small_cfg())
    blob = path.read_bytes()
    cfg_len = struct.unpack("<I", blob[8:12])[0]
    text = blob[12:12 + cfg_len]
    assert b"embed_dim = 6\n" in text
    text = text.replace(b"embed_dim = 6\n", b"embed_dim = 1000000000000000\n")
    path.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + cfg_len:])
    ckpt = load_checkpoint(path)
    assert ckpt.config.embed_dim == 10**15
    message = "^parameter store would hold 4000000000000000 values, past its budget of 16777216$"
    with pytest.raises(ConfigError, match=message):
        model_from_checkpoint(ckpt)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_parameter_detected(tmp_path, bad):
    store = toy_store()
    store["alpha.b"].data[1] = bad
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, store, small_cfg())
    with pytest.raises(CheckpointCorruptError, match="'alpha.b'"):
        load_checkpoint(path)


def test_model_round_trip_predicts_identically(tmp_path):
    cfg = small_cfg()
    model = GraphTCN(cfg)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model.params, cfg)
    clone = model_from_checkpoint(load_checkpoint(path))

    rng = np.random.default_rng(1)
    pos = rng.normal(size=(3, 6, 2))
    w = SequenceWindow("s", 0, pos, (1, 2, 3))
    a, _ = model.predict(w, 3, np.random.default_rng(7))
    b, _ = clone.predict(w, 3, np.random.default_rng(7))
    assert np.array_equal(a.trajectories, b.trajectories)


def test_model_round_trip_all_params_exact(tmp_path):
    cfg = small_cfg()
    model = GraphTCN(cfg)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model.params, cfg)
    ckpt = load_checkpoint(path)
    assert set(ckpt.arrays) == set(dict(model.params.items()))
    for name, _ in model.params.items():
        assert np.array_equal(ckpt.arrays[name], model.params[name].data), name


def test_frozen_v1_checkpoint_saves_back_to_its_bytes(tmp_path):
    ckpt = load_checkpoint(FROZEN_V1)
    save_checkpoint(tmp_path / "again.ckpt", model_from_checkpoint(ckpt).params, ckpt.config)
    assert (tmp_path / "again.ckpt").read_bytes() == FROZEN_V1.read_bytes()


@pytest.mark.parametrize("mode", [FROZEN_MODE])
def test_frozen_v1_checkpoint_equals_a_fresh_train(mode):
    # Exact where golden.json's platform fingerprint matches, else 1e-9
    # relative, as in test_golden.py.
    ckpt = load_checkpoint(FROZEN_V1)
    split = hold_out(discover_scenes(golden.DATA_DIR), "zara1_like")
    fresh = train(ckpt.config, split, golden.DATA_DIR).model.params.state_arrays()
    assert list(fresh) == list(ckpt.arrays)
    bad = golden.mismatches(ckpt.arrays, fresh, mode == "exact")
    assert not bad, f"{mode} mode:\n" + "\n".join(bad)


@st.composite
def damaged(draw, blob: bytes) -> bytes:
    """``blob`` truncated, or with 1-3 bits flipped or 1-3 bytes overwritten,
    half of them in the first 512 bytes (header, config text, first names).
    It never grows, so a width in its config text gains a digit or two at most."""
    how = draw(st.sampled_from(["truncate", "flip", "overwrite"]))
    if how == "truncate":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    out = bytearray(blob)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, 511) | st.integers(0, len(blob) - 1))
        out[i] = (out[i] ^ 1 << draw(st.integers(0, 7)) if how == "flip"
                  else draw(st.integers(0, 255)))
    return bytes(out)


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """The pinned v1 file's bytes and a tiny graphtcn_g checkpoint's, and a
    path for a damaged copy."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = ModelConfig(t_obs=4, t_pred=3, embed_dim=4, gal1_heads=1, gal1_out=4, gal2_heads=1,
                      gal2_out=4, tcn_channels=4, tcn_layers=2, tcn_kernel=2, noise_dim=2,
                      future_embed_dim=3, decoder_hidden=2, samples=2, variant="graphtcn_g")
    save_checkpoint(root / "g.ckpt", GraphTCN(cfg).params, cfg)
    return [FROZEN_V1.read_bytes(), (root / "g.ckpt").read_bytes()], root / "damaged.ckpt"


@given(st.data())
@settings(max_examples=250, deadline=None)
def test_damaged_checkpoint_loads_or_fails_by_name(checkpoints, data):
    # A checkpoint comes from outside the program: whatever its bytes, it
    # loads into a model, or fails with a GraphTCNError naming the fault.
    blobs, path = checkpoints
    path.write_bytes(data.draw(st.sampled_from(blobs).flatmap(damaged)))
    try:
        model_from_checkpoint(load_checkpoint(path))
    except GraphTCNError:
        pass
