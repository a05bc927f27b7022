"""Parameters in compute layout, and the op counts that layout gives.

Attention heads and TCN gate+filter pairs run on parameter blocks;
every checkpoint name is a C-contiguous view into its block. The count pins check no timing: they fail when an op
(say, a concat that rebuilds a weight layout) creeps back into predict or
a training step.
"""

import inspect

import numpy as np
import pytest

from graphtcn import tensor as T
from graphtcn.config import ModelConfig
from graphtcn.data import SequenceWindow
from graphtcn.model import GraphTCN

CONFIGS = [
    {"variant": "graphtcn"},
    {"variant": "graphtcn_g"},
    {"variant": "no_efgat"},
    {"variant": "vanilla_gat"},
    {"decoder_hidden": 16},
    {"gal1_heads": 3},
    {"gal2_heads": 2},
]
IDS = ["-".join(f"{k}={v}" for k, v in over.items()) for over in CONFIGS]


def make_window(cfg, n=4, seed=0):
    rng = np.random.default_rng(seed)
    pos = np.cumsum(rng.normal(scale=0.3, size=(n, cfg.t_obs + cfg.t_pred, 2)), axis=1)
    return SequenceWindow("synth", 0, pos, tuple(range(n)))


def same_memory(a, b):
    """Both arrays are C-contiguous and cover the same bytes."""
    return (a.flags.c_contiguous and b.flags.c_contiguous and a.nbytes == b.nbytes
            and a.__array_interface__["data"][0] == b.__array_interface__["data"][0])


def block_slices(model):
    """name -> (data, grad) slice of the block each placed name lives in."""
    out = {}
    layers = [model.spatial.gal1, model.spatial.gal2] if model.spatial else []
    for layer in layers:
        for key, blk in layer.blocks.items():
            for k in range(layer.heads):
                out[f"{layer.prefix}.h{k}.{key}"] = blk.data[k], blk.grad[k]
    for i, layer in enumerate(model.tcn.layers):
        c = layer.b.shape[0] // 2
        for half, part in enumerate(("gate", "filt")):
            rows = slice(half * c, (half + 1) * c)
            out[f"tcn.l{i}.{part}.W"] = layer.W.data[rows], layer.W.grad[rows]
            out[f"tcn.l{i}.{part}.b"] = layer.b.data[rows], layer.b.grad[rows]
    return out


@pytest.mark.parametrize("over", CONFIGS, ids=IDS)
def test_named_entries_are_contiguous_views_of_their_blocks(over):
    model = GraphTCN(ModelConfig(seed=7, **over))
    store = model.params
    values = store.state_arrays()
    for phase in ("built", "grown"):
        data, grad = store.flat()
        slices = block_slices(model)
        for name, t in store.items():
            assert t.data.flags.c_contiguous and t.grad.flags.c_contiguous, (phase, name)
            assert np.shares_memory(t.data, data) and np.shares_memory(t.grad, grad), (phase, name)
            if name in slices:
                d, g = slices[name]
                assert same_memory(t.data, d) and same_memory(t.grad, g), (phase, name)
            if name in values:
                np.testing.assert_array_equal(t.data, values[name])
        # Every value of the buffers belongs to exactly one name.
        assert store.n_values() == sum(t.size for t in store.tensors())
        store.add(f"after_{phase}", np.zeros(store.n_values() + 1))   # moves the buffers
    assert len(slices) == (
        sum(len(layer.blocks) * layer.heads for layer in (model.spatial.gal1, model.spatial.gal2))
        if model.spatial else 0) + 4 * len(model.tcn.layers)


@pytest.mark.parametrize("over", CONFIGS, ids=IDS)
def test_block_gradients_equal_stacked_named_gradients(over):
    cfg = ModelConfig(samples=3, seed=8, **over)
    model = GraphTCN(cfg)
    store = model.params
    window = make_window(cfg)
    noise = model.draw_noise(np.random.default_rng(9), window.n_peds)
    with T.Tape() as tape:
        loss, _ = model.window_loss(window, 1, noise)
        store.zero_grads()
        T.backward(loss, tape)
    layers = [model.spatial.gal1, model.spatial.gal2] if model.spatial else []
    for layer in layers:
        for key, blk in layer.blocks.items():
            named = [store[f"{layer.prefix}.h{k}.{key}"] for k in range(layer.heads)]
            assert np.array_equal(blk.grad, np.stack([t.grad.reshape(blk.shape[1:]) for t in named]))
            assert np.array_equal(blk.data, np.stack([t.data.reshape(blk.shape[1:]) for t in named]))
            assert np.any(blk.grad != 0.0), (layer.prefix, key)
    for i, layer in enumerate(model.tcn.layers):
        for part, blk in (("W", layer.W), ("b", layer.b)):
            named = [store[f"tcn.l{i}.{half}.{part}"] for half in ("gate", "filt")]
            assert np.array_equal(blk.grad, np.concatenate([t.grad for t in named]))
            assert np.array_equal(blk.data, np.concatenate([t.data for t in named]))
            assert np.any(blk.grad != 0.0), (i, part)


def count_outermost_ops(monkeypatch):
    """Wrap every public op of graphtcn.tensor; returns a one-item list
    holding the number of outermost op calls since the wrap."""
    count, depth = [0], [0]

    def wrap(fn):
        def counted(*args, **kwargs):
            depth[0] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                depth[0] -= 1
            if depth[0] == 0:
                count[0] += 1
            return out

        return counted

    for name, obj in list(vars(T).items()):
        if (inspect.isfunction(obj) and obj.__module__ == T.__name__ and not name.startswith("_")
                and name not in ("backward", "finite_difference_check")):
            monkeypatch.setattr(T, name, wrap(obj))
    return count


def test_predict_op_count_is_pinned(monkeypatch):
    # Default config, N=8 pedestrians, M=4 samples (the infer_small regime).
    model = GraphTCN(ModelConfig())
    window = make_window(model.cfg, n=8, seed=1)
    count = count_outermost_ops(monkeypatch)
    model.predict(window, 4, np.random.default_rng(2))
    assert count[0] == 26


def test_training_step_tape_node_count_is_pinned():
    model = GraphTCN(ModelConfig())
    window = make_window(model.cfg, n=8, seed=3)
    noise = model.draw_noise(np.random.default_rng(4), window.n_peds)
    with T.Tape() as tape:
        loss, _ = model.window_loss(window, 1, noise)
    assert len(tape.nodes) == 27
