"""The flat-buffer Adam against the per-parameter loop it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphtcn.config import ModelConfig
from graphtcn.data import SequenceWindow
from graphtcn.errors import ContractError
from graphtcn.model import GraphTCN
from graphtcn.optim import Adam
from graphtcn.tensor import ParameterStore, Tape, backward

from oracles import adam_oracle


def test_matches_oracle_on_graphtcn_store():
    cfg = ModelConfig(samples=3, seed=5)
    model = GraphTCN(cfg)
    rng = np.random.default_rng(6)
    pos = np.cumsum(rng.normal(scale=0.3, size=(3, cfg.t_obs + cfg.t_pred, 2)), axis=1)
    window = SequenceWindow("synth", 0, pos, (1, 2, 3))
    start = model.params.state_arrays()
    opt = Adam(model.params, lr=cfg.lr)
    grad_steps = []
    for step in range(5):
        noise = model.draw_noise(rng, window.n_peds)
        with Tape() as tape:
            loss, _ = model.window_loss(window, 1, noise)
            model.params.zero_grads()
            backward(loss, tape)
        if step == 2:
            # A gradient the caller writes into its view is the one used.
            model.params["gal1.h0.val.W"].grad *= -2.0
        grad_steps.append({name: p.grad.copy() for name, p in model.params.items()})
        opt.step()
    expected = adam_oracle(start, grad_steps, lr=cfg.lr)
    for name, p in model.params.items():
        assert np.array_equal(p.data, expected[name]), name


def test_store_grown_after_adam_is_rejected():
    store = ParameterStore()
    store.add("w", np.ones(3))
    opt = Adam(store, lr=0.1)
    store.add("late", np.ones(2))
    with pytest.raises(ContractError):
        opt.step()


def test_store_with_a_block_reserved_after_adam_is_rejected():
    store = ParameterStore()
    store.add("w", np.ones(3))
    opt = Adam(store, lr=0.1)
    store.reserve((2, 2))
    with pytest.raises(ContractError):
        opt.step()


shapes = st.lists(st.lists(st.integers(1, 4), max_size=3).map(tuple), min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(shapes=shapes, n_steps=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       lr=st.floats(1e-4, 1.0), overwrite=st.booleans())
def test_matches_oracle_on_random_stores(shapes, n_steps, seed, lr, overwrite):
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    for i, shape in enumerate(shapes):
        store.add(f"p{i}", rng.normal(size=shape))
    start = store.state_arrays()
    opt = Adam(store, lr=lr)
    grad_steps = []
    for _ in range(n_steps):
        store.zero_grads()
        for _, p in store.items():
            p.grad += rng.normal(scale=10.0 ** rng.integers(-4, 4), size=p.data.shape)
        if overwrite:
            p = store[f"p{rng.integers(len(shapes))}"]
            p.grad[...] = rng.normal(size=p.data.shape)
        grad_steps.append({name: p.grad.copy() for name, p in store.items()})
        opt.step()
    expected = adam_oracle(start, grad_steps, lr=lr)
    for name, p in store.items():
        assert np.array_equal(p.data, expected[name]), name
