"""Adam update rule checks against hand-computed moments."""

import numpy as np
import pytest

from graphtcn.errors import ContractError
from graphtcn.optim import Adam
from graphtcn.tensor import ParameterStore


def store_with(data, grad):
    s = ParameterStore()
    t = s.add("w", np.array(data, dtype=float))
    t.grad[...] = grad
    return s, t


def test_first_step_is_signed_lr():
    # Bias correction makes step 1 exactly -lr * g / (|g| + eps).
    s, t = store_with(data=[1.0, 2.0, 3.0], grad=[0.5, -2.0, 0.0])
    opt = Adam(s, lr=0.1)
    opt.step()
    g = np.array([0.5, -2.0, 0.0])
    expected = np.array([1.0, 2.0, 3.0]) - 0.1 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(t.data, expected, rtol=0, atol=1e-15)


def test_zero_grad_no_motion():
    s, t = store_with(data=[4.0, -1.0], grad=[0.0, 0.0])
    Adam(s, lr=0.5).step()
    assert np.array_equal(t.data, [4.0, -1.0])


def test_two_steps_match_reference_formula():
    g1, g2 = 1.0, -3.0
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    s, t = store_with(data=[0.0], grad=[g1])
    opt = Adam(s, lr=lr)
    opt.step()
    m = (1 - b1) * g1
    v = (1 - b2) * g1 * g1
    x = 0.0 - lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
    t.grad[:] = g2
    opt.step()
    m = b1 * m + (1 - b1) * g2
    v = b2 * v + (1 - b2) * g2 * g2
    x = x - lr * (m / (1 - b1**2)) / (np.sqrt(v / (1 - b2**2)) + eps)
    assert t.data[0] == pytest.approx(x, rel=1e-15)


def test_twin_runs_bit_identical():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(3, 4))
    stores = []
    for _ in range(2):
        s = ParameterStore()
        s.add("w", data.copy())
        stores.append(s)
    opts = [Adam(s, lr=0.003) for s in stores]
    for step in range(5):
        g = np.random.default_rng(step).normal(size=(3, 4))
        for s in stores:
            s["w"].grad[:] = g
        for o in opts:
            o.step()
    # Adam saw the gradients: the weights moved, and by the same bits.
    assert not (stores[0]["w"].data == data).any()
    assert np.array_equal(stores[0]["w"].data, stores[1]["w"].data)


def test_updates_in_place():
    s, t = store_with(data=[1.0], grad=[1.0])
    buf = t.data
    Adam(s, lr=0.1).step()
    assert buf is t.data  # same buffer, mutated


def test_rejects_nonpositive_lr():
    s, _ = store_with(data=[1.0], grad=[1.0])
    with pytest.raises(ContractError):
        Adam(s, lr=0.0)


@pytest.mark.parametrize("lr", [np.nan, np.inf])
def test_rejects_non_finite_lr(lr):
    s, _ = store_with(data=[1.0], grad=[1.0])
    with pytest.raises(ContractError, match="finite"):
        Adam(s, lr=lr)


def test_step_magnitude_bounded_by_lr():
    # Adam's per-coordinate step is ~lr regardless of gradient scale.
    s, t = store_with(data=[0.0], grad=[1e12])
    Adam(s, lr=0.25).step()
    assert abs(t.data[0]) <= 0.25 + 1e-9
