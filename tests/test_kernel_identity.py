"""Select-free kernels against the select forms they replace, byte for byte.

leaky_relu, sigmoid and the pair softmax compute without np.where or
masked ufuncs. Their forward values and input gradients must equal the
select forms in ``oracles`` in every byte (so the sign of zero counts),
and a model whose kernels are swapped for those forms must predict,
attend and train to the same bytes. The model reaches the pair softmax
only through attention_layer, so both the kernel tests and the swap use
its private kernel ``_pair_softmax``. The same holds for the layer ops
themselves: a model whose attention_layer and gated_conv are swapped for
the op chains they fuse (``chain_ops``) gives the same bytes.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from graphtcn import tensor as T
from graphtcn.config import ModelConfig
from graphtcn.data import SequenceWindow
from graphtcn.model import GraphTCN

import chain_ops
from oracles import leaky_select, pair_softmax_select, sigmoid_select
from test_tensor import leaf

SPECIAL = [0.0, -0.0, 1.0, -1.0, 745.0, -745.0, 5e-324, -5e-324, 1e300, -1e300]


def values(*extra):
    return st.one_of(st.sampled_from(SPECIAL + list(extra)),
                     st.floats(-1e3, 1e3), st.floats(allow_nan=False, allow_infinity=False))


def arrays(elements):
    return hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=6),
                      elements=elements)


def op_with_grads(op, inputs, g):
    """op(*inputs) and the input gradients its backward rule writes for
    output gradient ``g``. The inputs start without a gradient buffer, so
    each gradient is stored as written, not added into zeros (which would
    turn -0.0 into 0.0)."""
    ts = [leaf(a) for a in inputs]
    for t in ts:
        t.grad = None
    with T.Tape() as tape:
        out = op(*ts)
    assert len(tape.nodes) == 1
    tape.nodes[0].backward(g)
    return out.data, [t.grad for t in ts]


def same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestLeaky:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    @example(data=None)
    def test_matches_select_form(self, data):
        if data is None:
            x = np.array([0.0, -0.0, np.inf, -np.inf, -3.0, 3.0, -5e-324])
            g = np.array([1.0, -2.0, 0.5, -0.0, 0.0, 3.0, -1.0])
        else:
            x = data.draw(arrays(values(np.inf, -np.inf)))
            g = data.draw(hnp.arrays(np.float64, x.shape, elements=values()))
        y, (gx,) = op_with_grads(T.leaky_relu, [x], g)
        ref_y, factor = leaky_select(x)
        assert same_bytes(y, ref_y)
        assert same_bytes(gx, g * factor)

    def test_nan_passes_through_like_the_select_form(self):
        x = np.array([np.nan, -np.nan, 1.0])
        y, (gx,) = op_with_grads(T.leaky_relu, [x], np.ones(3))
        ref_y, factor = leaky_select(x)
        assert same_bytes(y, ref_y) and same_bytes(gx, factor)


class TestSigmoid:
    @settings(max_examples=100, deadline=None)
    @given(d=arrays(values(np.inf, -np.inf, np.nan, 744.5, -744.5, 709.8, -709.8)))
    @example(d=np.array([0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 746.0, -746.0]))
    def test_matches_select_form(self, d):
        assert same_bytes(T._sigmoid(d), sigmoid_select(d))
        assert same_bytes(T.sigmoid(d).data, sigmoid_select(d))


def pair_scores(draw, shape):
    """Scores with frequent ties (a few sampled values), and each row
    shifted to be all-negative, all-positive or straddling zero."""
    tied = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 2.0])
    elements = st.one_of(tied, st.floats(-30.0, 30.0), st.sampled_from([5e-324, -5e-324]))
    src = draw(hnp.arrays(np.float64, shape, elements=elements))
    dst = draw(hnp.arrays(np.float64, shape, elements=elements))
    shift = draw(hnp.arrays(np.float64, shape, elements=st.sampled_from([-100.0, 0.0, 100.0])))
    return src + shift, dst


def kernel_with_grads(src, dst, g):
    """The pair softmax kernel's attention and the (src, dst) gradients
    its backward maps ``g`` to."""
    y, grads = T._pair_softmax(src, dst, True)
    return y, grads(g)


class TestPairSoftmax:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), shape=hnp.array_shapes(min_dims=1, max_dims=3, max_side=5))
    def test_matches_select_form(self, data, shape):
        src, dst = pair_scores(data.draw, shape)
        # Moderate gradients: the softmax backward sums g * y over a row,
        # which would overflow near the float64 limit in both forms.
        moderate = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e3, 1e3))
        g = data.draw(hnp.arrays(np.float64, shape + shape[-1:], elements=moderate))
        y, (gs, gd) = kernel_with_grads(src, dst, g)
        ref_y, backward = pair_softmax_select(src.copy(), dst.copy())
        ref_gs, ref_gd = backward(g)
        assert same_bytes(y, ref_y)
        assert same_bytes(gs, ref_gs) and same_bytes(gd, ref_gd)

    @pytest.mark.parametrize("src,dst", [
        ([-3.0, -1.0, 2.0], [1.0, 1.0, -4.0]),         # tied maximum, every row
        ([-9.0, -7.0, -8.0], [1.0, 0.5, -2.0]),         # all-negative rows
        ([9.0, 7.0, 8.0], [1.0, 0.5, -2.0]),            # all-positive rows
        ([0.0, -0.0, 1.0], [-0.0, 0.0, -1.0]),          # signed zeros on the kink
        ([4.0], [-6.0]),                                # N = 1
    ])
    def test_hand_cases(self, src, dst):
        src, dst = np.array(src), np.array(dst)
        g = np.linspace(-1.0, 1.0, src.size ** 2).reshape(src.size, src.size)
        y, (gs, gd) = kernel_with_grads(src, dst, g)
        ref_y, backward = pair_softmax_select(src.copy(), dst.copy())
        ref_gs, ref_gd = backward(g)
        assert same_bytes(y, ref_y)
        assert same_bytes(gs, ref_gs) and same_bytes(gd, ref_gd)

    def test_non_finite_scores_give_nan_at_the_same_places(self):
        # Both forms give NaN rows for infinite or NaN scores; only the NaN
        # bit patterns may differ. Every other value matches, signs included.
        special = np.array([np.inf, -np.inf, np.nan, -0.0, 3.0, -3.0, 1e308])
        grid = np.stack(np.meshgrid(special, special, special, special), -1).reshape(-1, 4)
        g = np.array([[1.0, -2.0], [0.5, -0.0]])
        with np.errstate(all="ignore"):
            for row in grid:
                src, dst = row[:2], row[2:]
                y, (gs, gd) = kernel_with_grads(src, dst, g)
                ref_y, backward = pair_softmax_select(src.copy(), dst.copy())
                for a, b in zip((y, gs, gd), (ref_y, *backward(g))):
                    assert np.array_equal(np.isnan(a), np.isnan(b))
                    ok = ~np.isnan(a)
                    assert same_bytes(a[ok], b[ok])


# ---------------------------------------------------------------------------
# Whole model with the select forms swapped in


def leaky_relu_select_op(x):
    x = T._as_tensor(x)
    y, factor = leaky_select(x.data)
    return T._unary(x, y, lambda g: g * factor)


def pair_softmax_select_kernel(s, d, record):
    return pair_softmax_select(s, d)


def model_bytes(variant, hidden, n):
    """Prediction, attention, loss and the whole gradient buffer, as bytes."""
    cfg = ModelConfig(variant=variant, decoder_hidden=hidden)
    model = GraphTCN(cfg)
    rng = np.random.default_rng(n)
    pos = np.cumsum(rng.normal(scale=0.3, size=(n, cfg.t_obs + cfg.t_pred, 2)), axis=1)
    window = SequenceWindow("synth", 0, pos, tuple(range(n)))
    pred, attn = model.predict(window, 20, np.random.default_rng(1))
    noise = model.draw_noise(np.random.default_rng(2), n)
    with T.Tape() as tape:
        loss, _ = model.window_loss(window, 1, noise)
        model.params.zero_grads()
        T.backward(loss, tape)
    parts = [pred.trajectories, loss.data, model.params.flat()[1]]
    parts += [] if attn is None else list(attn)
    return [p.tobytes() for p in parts]


@pytest.mark.parametrize("n", [1, 2, 8, 64])
@pytest.mark.parametrize("hidden", [0, 16])
@pytest.mark.parametrize("variant", ["graphtcn", "graphtcn_g", "no_efgat", "vanilla_gat"])
def test_model_matches_select_kernels(monkeypatch, variant, hidden, n):
    fast = model_bytes(variant, hidden, n)
    monkeypatch.setattr(T, "leaky_relu", leaky_relu_select_op)
    monkeypatch.setattr(T, "_sigmoid", sigmoid_select)
    monkeypatch.setattr(T, "_pair_softmax", pair_softmax_select_kernel)
    assert model_bytes(variant, hidden, n) == fast


@pytest.mark.parametrize("n", [1, 2, 8, 64])
@pytest.mark.parametrize("hidden", [0, 16])
@pytest.mark.parametrize("variant", ["graphtcn", "graphtcn_g", "no_efgat", "vanilla_gat"])
def test_model_matches_layer_op_chains(monkeypatch, variant, hidden, n):
    fused = model_bytes(variant, hidden, n)
    monkeypatch.setattr(T, "attention_layer", chain_ops.attention_layer)
    monkeypatch.setattr(T, "gated_conv", chain_ops.gated_conv)
    assert model_bytes(variant, hidden, n) == fused
