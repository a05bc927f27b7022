"""Parameters in compute layout, and the op counts that layout gives.

Attention heads and TCN gate+filter pairs run on parameter blocks;
every checkpoint name is a C-contiguous view into its block. The count pins check no timing: they fail when an op
(say, a concat that rebuilds a weight layout) creeps back into predict or
a training step. Each attention layer and each TCN layer is one op. The
memory pin checks that a crowd predict's peak stays no higher than with
the chains of ops those layer ops fused.
"""

import inspect
import tracemalloc

import numpy as np
import pytest

from graphtcn import tensor as T
from graphtcn.config import ModelConfig
from graphtcn.data import SequenceWindow, bucket_windows
from graphtcn.errors import ConfigError
from graphtcn.init import add_affine
from graphtcn.model import GraphTCN

import chain_ops

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
    layers = [model.spatial.gal1, model.spatial.gal2] if model.spatial.gal1 is not None else []
    for layer in layers:
        for key, blk in layer.blocks.items():
            for k in range(layer.heads):
                out[f"{layer.prefix}.h{k}.{key}"] = blk.data[k], blk.grad[k]
    for i, (W, b, _) in enumerate(model.tcn.layers):
        c = b.shape[0] // 2
        for half, part in enumerate(("gate", "filt")):
            rows = slice(half * c, (half + 1) * c)
            out[f"tcn.l{i}.{part}.W"] = W.data[rows], W.grad[rows]
            out[f"tcn.l{i}.{part}.b"] = b.data[rows], b.grad[rows]
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
        assert store.n_values() == sum(t.data.size for _, t in store.items())
        store.add(f"after_{phase}", np.zeros(store.n_values() + 1))   # moves the buffers
    assert len(slices) == (
        sum(len(layer.blocks) * layer.heads for layer in (model.spatial.gal1, model.spatial.gal2))
        if model.spatial.gal1 is not None else 0) + 4 * len(model.tcn.layers)


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
    layers = [model.spatial.gal1, model.spatial.gal2] if model.spatial.gal1 is not None else []
    for layer in layers:
        for key, blk in layer.blocks.items():
            named = [store[f"{layer.prefix}.h{k}.{key}"] for k in range(layer.heads)]
            assert np.array_equal(blk.grad, np.stack([t.grad.reshape(blk.shape[1:]) for t in named]))
            assert np.array_equal(blk.data, np.stack([t.data.reshape(blk.shape[1:]) for t in named]))
            assert np.any(blk.grad != 0.0), (layer.prefix, key)
    for i, (W, b, _) in enumerate(model.tcn.layers):
        for part, blk in (("W", W), ("b", b)):
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
    # Default config, N=8 pedestrians, M=4 samples (the infer_small regime);
    # then a bucket of three such windows, which runs through the same ops.
    model = GraphTCN(ModelConfig())
    window = make_window(model.cfg, n=8, seed=1)
    count = count_outermost_ops(monkeypatch)
    model.predict(window, 4, np.random.default_rng(2))
    assert count[0] == 12
    bucket, = bucket_windows([make_window(model.cfg, n=8, seed=s) for s in (1, 2, 3)])
    rng = np.random.default_rng(2)
    noise = np.stack([model.decoder.noise(rng, 4, 8) for _ in range(3)], axis=1)
    count[0] = 0
    trajectories, _ = model.sample(bucket, noise)
    assert count[0] == 12 and trajectories.shape == (4, 3, 8, model.cfg.t_pred, 2)


def training_step(model):
    window = make_window(model.cfg, n=8, seed=3)
    noise = model.draw_noise(np.random.default_rng(4), window.n_peds)
    with T.Tape() as tape:
        model.window_loss(window, 1, noise)
    return tape


def test_training_step_tape_node_count_is_pinned():
    assert len(training_step(GraphTCN(ModelConfig())).nodes) == 13


def test_training_step_op_count_is_pinned(monkeypatch):
    model = GraphTCN(ModelConfig())
    count = count_outermost_ops(monkeypatch)
    training_step(model)
    assert count[0] == 13


def crowd_predict_peak(model, window) -> int:
    """tracemalloc's peak over one N=64, M=20 predict, after a warm-up call."""
    model.predict(window, 20, np.random.default_rng(6))
    tracemalloc.start()
    try:
        model.predict(window, 20, np.random.default_rng(6))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_crowd_predict_peak_is_no_higher_than_with_the_op_chains(monkeypatch):
    # Default config, N=64, M=20: the infer_crowd regime. Off the tape the
    # layer ops drop their temporaries where the chains they fuse
    # (chain_ops) dropped them, so the peak of traced allocations is no
    # higher than with those chains swapped back in. Both peaks are taken
    # in one process, so the bound holds on any numpy. Python 3.11 with
    # numpy 2.4 reads 1.537 MB here against the chains' 1.552 MB.
    model = GraphTCN(ModelConfig())
    window = make_window(model.cfg, n=64, seed=5)
    fused = crowd_predict_peak(model, window)
    monkeypatch.setattr(T, "attention_layer", chain_ops.attention_layer)
    monkeypatch.setattr(T, "gated_conv", chain_ops.gated_conv)
    assert fused <= crowd_predict_peak(model, window)


def test_store_stays_within_its_budget(monkeypatch):
    # A small budget stands in for the real 2**24, so no large array is built.
    monkeypatch.setattr(T, "PARAMETER_BUDGET", 100)
    store = T.ParameterStore()
    store.reserve((60,))
    store.reserve((3, 10))   # the buffers grow to the budget, not to twice 60
    assert store._data.size == store._grad.size == 100
    with pytest.raises(ConfigError, match="^parameter store would hold 101 values, past its budget of 100$"):
        store.add("over", np.zeros(11))
    assert store.n_values() == 90 and len(store) == 0
    store.add("fits", np.ones(10))
    assert store.n_values() == 100


def test_default_model_is_far_inside_the_budget():
    assert T.PARAMETER_BUDGET == 2**24
    assert GraphTCN(ModelConfig()).params.n_values() == 18792


def test_add_affine_reserves_before_it_draws():
    # The oversized weight is refused before xavier_uniform builds it, so
    # nothing is drawn and nothing is registered.
    store, rng = T.ParameterStore(), np.random.default_rng(0)
    with pytest.raises(ConfigError, match=f"would hold {4 * 10**15} values, past its budget of {2**24}$"):
        add_affine(store, "embed", 4, 10**15, rng)
    assert len(store) == 0 and store.n_values() == 0
    assert rng.random() == np.random.default_rng(0).random()
