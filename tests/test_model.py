"""Full-model composition tests: variants, shapes, loss wiring, sampling."""

import numpy as np
import pytest

from graphtcn.config import ModelConfig
from graphtcn.data import SequenceWindow
from graphtcn.errors import ContractError
from graphtcn.model import GraphTCN
from graphtcn.tensor import Tape, backward


def tiny_cfg(**over):
    base = dict(
        t_obs=4, t_pred=3, embed_dim=8, gal1_heads=1, gal1_out=4,
        gal2_heads=1, gal2_out=4, tcn_channels=4, tcn_layers=2,
        tcn_kernel=2, noise_dim=2, future_embed_dim=3, samples=2,
        epochs=1, seed=7,
    )
    base.update(over)
    return ModelConfig(**base)


def make_window(n=3, t_total=7, seed=0):
    rng = np.random.default_rng(seed)
    start = rng.normal(size=(n, 1, 2))
    vel = rng.normal(scale=0.1, size=(n, 1, 2))
    steps = np.arange(t_total).reshape(1, t_total, 1)
    pos = start + vel * steps + rng.normal(scale=0.01, size=(n, t_total, 2))
    return SequenceWindow("synth", 0, pos, tuple(range(1, n + 1)))


def zero_params(model):
    for t in model.params.tensors():
        t.data[:] = 0.0


# Construction per variant -------------------------------------------------

def test_plain_variant_params():
    model = GraphTCN(tiny_cfg())
    names = model.params.names()
    assert any(n.startswith("gal1.") for n in names)
    assert any(n.startswith("gal2.") for n in names)
    assert any(n.startswith("tcn.") for n in names)
    assert "dec.out.W" in names
    assert "dec.posterior.W" not in names


def test_latent_variant_params():
    model = GraphTCN(tiny_cfg(variant="graphtcn_g"))
    names = model.params.names()
    assert "dec.posterior.W" in names
    assert "dec.future.W" in names


def test_no_efgat_variant_skips_attention():
    model = GraphTCN(tiny_cfg(variant="no_efgat"))
    names = model.params.names()
    assert model.spatial is None
    assert "embed.W" in names
    assert not any(n.startswith("gal") for n in names)


def test_vanilla_gat_has_no_edge_params():
    model = GraphTCN(tiny_cfg(variant="vanilla_gat"))
    for name in model.params.names():
        assert ".edge." not in name
        assert not name.endswith(".ae")


def test_same_seed_same_init():
    a = GraphTCN(tiny_cfg())
    b = GraphTCN(tiny_cfg())
    for name in a.params.names():
        assert np.array_equal(a.params[name].data, b.params[name].data)


# Encoding ------------------------------------------------------------------

def test_encode_shape():
    cfg = tiny_cfg()
    model = GraphTCN(cfg)
    h, attn = model.encode(make_window())
    assert h.data.shape == (3, cfg.t_obs, cfg.tcn_channels)
    assert len(attn) == 2
    assert attn[0].shape == (1, cfg.t_obs, 3, 3)


def test_encode_rejects_short_window():
    model = GraphTCN(tiny_cfg())
    with pytest.raises(ContractError):
        model.encode(make_window(t_total=5))


def test_no_efgat_encode_has_no_attention():
    model = GraphTCN(tiny_cfg(variant="no_efgat"))
    h, attn = model.encode(make_window())
    assert attn is None
    assert h.data.shape == (3, 4, 4)


def test_no_efgat_ignores_other_pedestrians():
    # Without the spatial layer each pedestrian is encoded and decoded
    # from its own track alone. Rewriting everyone else's trajectory must
    # not change a single bit of pedestrian 0's output (same-shape arrays
    # keep the BLAS kernels identical, so bit-exact is a fair ask).
    model = GraphTCN(tiny_cfg(variant="no_efgat"))
    a = make_window(n=4)
    b_pos = a.positions.copy()
    b_pos[1:] = make_window(n=4, seed=5).positions[1:] * 2.5 + 7.0
    b = SequenceWindow(a.scene_name, a.start_frame, b_pos, a.ped_ids)
    h_a, _ = model.encode(a)
    h_b, _ = model.encode(b)
    pred_a, _ = model.predict(a, 2, np.random.default_rng(9))
    pred_b, _ = model.predict(b, 2, np.random.default_rng(9))
    assert np.array_equal(h_a.data[0], h_b.data[0])
    assert np.array_equal(pred_a.trajectories[:, 0], pred_b.trajectories[:, 0])
    assert not np.array_equal(h_a.data[1], h_b.data[1])


def test_no_efgat_single_vs_crowd():
    # Dropping the rest of the crowd changes array shapes, which lets the
    # BLAS pick different reduction orders; agreement is to rounding, not
    # always to the bit.
    model = GraphTCN(tiny_cfg(variant="no_efgat"))
    crowd = make_window(n=4)
    h_crowd, _ = model.encode(crowd)
    pred_crowd, _ = model.predict(crowd, 2, np.random.default_rng(9))
    for i in range(crowd.n_peds):
        solo = SequenceWindow(crowd.scene_name, crowd.start_frame,
                              crowd.positions[i : i + 1],
                              (crowd.ped_ids[i],))
        h_solo, _ = model.encode(solo)
        pred_solo, _ = model.predict(solo, 2, np.random.default_rng(9))
        np.testing.assert_allclose(h_solo.data[0], h_crowd.data[i],
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(pred_solo.trajectories[:, 0],
                                   pred_crowd.trajectories[:, i],
                                   rtol=0.0, atol=1e-12)


def test_vanilla_gat_ignores_positions():
    # Same input features, different coordinates: the edge-free attention
    # must not notice, the edge-feature attention must.
    from graphtcn.data import build_features

    w = make_window()
    feats = build_features(w, 4)
    pos_a = w.positions[:, :4, :]
    pos_b = pos_a * 3.0 + 1.0
    plain = GraphTCN(tiny_cfg())
    vanilla = GraphTCN(tiny_cfg(variant="vanilla_gat"))
    va, _ = vanilla.spatial.forward(feats, pos_a)
    vb, _ = vanilla.spatial.forward(feats, pos_b)
    assert np.array_equal(va.data, vb.data)
    pa, _ = plain.spatial.forward(feats, pos_a)
    pb, _ = plain.spatial.forward(feats, pos_b)
    assert not np.array_equal(pa.data, pb.data)


# Noise ----------------------------------------------------------------------

def test_draw_noise_plain_shape():
    cfg = tiny_cfg()
    model = GraphTCN(cfg)
    noise = model.draw_noise(np.random.default_rng(0), n_peds=3)
    assert len(noise) == cfg.samples
    assert all(z.shape == (cfg.t_obs, cfg.noise_dim) for z in noise)


def test_draw_noise_latent_shape():
    cfg = tiny_cfg(variant="graphtcn_g")
    model = GraphTCN(cfg)
    noise = model.draw_noise(np.random.default_rng(0), n_peds=5)
    assert len(noise) == cfg.samples
    assert all(z.shape == (5, cfg.future_embed_dim) for z in noise)


@pytest.mark.parametrize("variant", ["graphtcn", "graphtcn_g"])
def test_draw_noise_block_is_consecutive_single_draws(variant):
    cfg = tiny_cfg(variant=variant, samples=3)
    block = GraphTCN(cfg).draw_noise(np.random.default_rng(4), n_peds=5)
    rng = np.random.default_rng(4)
    shape = (5, cfg.future_embed_dim) if variant == "graphtcn_g" else (cfg.t_obs, cfg.noise_dim)
    assert np.array_equal(block, np.stack([rng.standard_normal(shape) for _ in range(3)]))


# Loss ------------------------------------------------------------------------

def test_window_loss_rejects_wrong_noise_count():
    model = GraphTCN(tiny_cfg())
    w = make_window()
    noise = model.draw_noise(np.random.default_rng(0), 3)
    with pytest.raises(ContractError):
        model.window_loss(w, 1, noise[:1])


def test_latent_loss_combines_kl_schedule():
    cfg = tiny_cfg(variant="graphtcn_g")
    model = GraphTCN(cfg)
    w = make_window()
    noise = model.draw_noise(np.random.default_rng(3), 3)
    loss_early, parts = model.window_loss(w, epoch=1, noise=noise)
    loss_late, parts_late = model.window_loss(w, epoch=30, noise=noise)
    assert parts["kl"] >= 0.0
    assert loss_early.item() == pytest.approx(
        parts["variety"] + 0.5 * parts["kl"], rel=1e-12)
    assert loss_late.item() == pytest.approx(
        parts_late["variety"] + 0.2 * parts_late["kl"], rel=1e-12)


def test_zero_model_loss_is_distance_to_origin():
    # All-zero parameters decode to the origin, so the variety loss is the
    # mean distance between the last observed point and the future steps.
    cfg = tiny_cfg()
    model = GraphTCN(cfg)
    zero_params(model)
    w = make_window()
    noise = model.draw_noise(np.random.default_rng(0), 3)
    loss, parts = model.window_loss(w, 1, noise)
    origin = w.positions[:, cfg.t_obs - 1, :]
    gt = w.positions[:, cfg.t_obs:, :]
    expected = np.linalg.norm(gt - origin[:, None, :], axis=2).mean()
    assert loss.item() == pytest.approx(expected, abs=1e-12)


def test_loss_replay_is_deterministic():
    cfg = tiny_cfg()
    model = GraphTCN(cfg)
    w = make_window()
    noise = model.draw_noise(np.random.default_rng(9), 3)
    a, _ = model.window_loss(w, 1, noise)
    b, _ = model.window_loss(w, 1, noise)
    assert a.item() == b.item()


@pytest.mark.parametrize("variant", ["graphtcn", "graphtcn_g", "no_efgat", "vanilla_gat"])
def test_backward_fills_all_grads(variant):
    cfg = tiny_cfg(variant=variant)
    model = GraphTCN(cfg)
    w = make_window()
    noise = model.draw_noise(np.random.default_rng(1), 3)
    model.params.zero_grads()
    with Tape() as tape:
        loss, _ = model.window_loss(w, 1, noise)
        backward(loss, tape)
    for name in model.params.names():
        g = model.params[name].grad
        assert g is not None and np.all(np.isfinite(g)), name


@pytest.mark.parametrize("variant", ["graphtcn", "graphtcn_g", "no_efgat", "vanilla_gat"])
def test_backward_leaves_gradients_only_in_the_store_buffer(variant):
    model = GraphTCN(tiny_cfg(variant=variant))
    noise = model.draw_noise(np.random.default_rng(2), 3)
    model.params.zero_grads()
    with Tape() as tape:
        loss, _ = model.window_loss(make_window(), 1, noise)
        backward(loss, tape)
    assert tape.nodes and all(node.out.grad is None for node in tape.nodes)
    grad = model.params.flat()[1]
    assert grad.any()
    for name, p in model.params.items():
        assert np.shares_memory(p.grad, grad), name


# Prediction -------------------------------------------------------------------

def test_predict_shapes_and_origin():
    cfg = tiny_cfg()
    model = GraphTCN(cfg)
    w = make_window()
    ps, attn = model.predict(w, 5, np.random.default_rng(0))
    assert ps.trajectories.shape == (5, 3, cfg.t_pred, 2)
    assert ps.sample_count == 5
    # Offsets are decoded from each pedestrian's last observed position.
    origin = w.positions[:, cfg.t_obs - 1, :]
    h, _ = model.encode(w)
    delta = model.decoder.forward(h, model.decoder.noise(np.random.default_rng(0), 5, w.n_peds))
    assert np.array_equal(ps.trajectories, delta.data + origin[:, None, :])
    assert attn is not None


def test_predict_rejects_bad_m():
    model = GraphTCN(tiny_cfg())
    with pytest.raises(ContractError):
        model.predict(make_window(), 0, np.random.default_rng(0))


def test_predict_seed_reproducible():
    model = GraphTCN(tiny_cfg())
    w = make_window()
    a, _ = model.predict(w, 3, np.random.default_rng(42))
    b, _ = model.predict(w, 3, np.random.default_rng(42))
    assert np.array_equal(a.trajectories, b.trajectories)


def test_zero_model_predicts_origin():
    cfg = tiny_cfg()
    model = GraphTCN(cfg)
    zero_params(model)
    w = make_window()
    ps, _ = model.predict(w, 2, np.random.default_rng(0))
    origin = w.positions[:, cfg.t_obs - 1, :]
    expected = np.broadcast_to(origin[None, :, None, :], ps.trajectories.shape)
    assert np.array_equal(ps.trajectories, expected)


def test_samples_differ_for_random_model():
    model = GraphTCN(tiny_cfg(seed=11))
    ps, _ = model.predict(make_window(), 4, np.random.default_rng(5))
    assert not np.array_equal(ps.trajectories[0], ps.trajectories[1])
