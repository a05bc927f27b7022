"""Full-model composition tests: variants, shapes, loss wiring, sampling,
the whole training step against the loop oracles, and metamorphic relations."""

import warnings
from pathlib import Path

import numpy as np
import pytest

from graphtcn.config import VARIANTS, ModelConfig
from graphtcn.data import SequenceWindow, bucket_windows, load_scene_windows, load_windows
from graphtcn.errors import ConfigError, ContractError
from graphtcn.model import GraphTCN
from graphtcn.tensor import Tape, backward, best_of_m_ade, reduce_sum
from oracles import min_of_m_oracle, sample_oracle, window_loss_oracle

DATA_DIR = Path(__file__).resolve().parent.parent / "data" / "synthetic"


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
    for _, t in model.params.items():
        t.data[:] = 0.0


# Construction per variant -------------------------------------------------

def test_plain_variant_params():
    model = GraphTCN(tiny_cfg())
    names = dict(model.params.items())
    assert any(n.startswith("gal1.") for n in names)
    assert any(n.startswith("gal2.") for n in names)
    assert any(n.startswith("tcn.") for n in names)
    assert "dec.out.W" in names
    assert "dec.posterior.W" not in names


def test_latent_variant_params():
    model = GraphTCN(tiny_cfg(variant="graphtcn_g"))
    names = dict(model.params.items())
    assert "dec.posterior.W" in names
    assert "dec.future.W" in names


def test_no_efgat_variant_skips_attention():
    model = GraphTCN(tiny_cfg(variant="no_efgat"))
    names = dict(model.params.items())
    assert model.spatial.gal1 is None and model.spatial.gal2 is None
    assert "embed.W" in names
    assert not any(n.startswith("gal") for n in names)


def test_vanilla_gat_has_no_edge_params():
    model = GraphTCN(tiny_cfg(variant="vanilla_gat"))
    for name, _ in model.params.items():
        assert ".edge." not in name
        assert not name.endswith(".ae")


@pytest.mark.parametrize("variant", ["graphtcn", "graphtcn_g", "no_efgat", "vanilla_gat"])
def test_spatial_out_dim_feeds_the_first_tcn_layer(variant):
    model = GraphTCN(tiny_cfg(variant=variant))
    assert model.spatial.out_dim == model.tcn.layers[0][0].shape[1]
    default = GraphTCN(ModelConfig(variant=variant))
    assert default.spatial.out_dim == default.tcn.layers[0][0].shape[1]
    assert default.spatial.out_dim == (64 if variant == "no_efgat" else 32)


def test_same_seed_same_init():
    a = GraphTCN(tiny_cfg())
    b = GraphTCN(tiny_cfg())
    for name, _ in a.params.items():
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
    # encode reads only the observed steps, so only a window shorter than
    # t_obs is too short for it.
    model = GraphTCN(tiny_cfg())
    with pytest.raises(ContractError):
        model.encode(make_window(t_total=3))


@pytest.mark.parametrize("hidden", [0, 16])
@pytest.mark.parametrize("variant", ["graphtcn", "graphtcn_g", "no_efgat", "vanilla_gat"])
def test_predict_needs_only_the_observed_steps(variant, hidden):
    cfg = ModelConfig(variant=variant, decoder_hidden=hidden)
    model = GraphTCN(cfg)
    windows = load_scene_windows(DATA_DIR, "crossing", cfg.t_obs, cfg.t_pred)
    assert windows
    for full in windows:
        observed = SequenceWindow(full.scene_name, full.start_frame,
                                  full.positions[:, :cfg.t_obs], full.ped_ids)
        pred_a, attn_a = model.predict(full, 4, np.random.default_rng(5))
        pred_b, attn_b = model.predict(observed, 4, np.random.default_rng(5))
        assert pred_a.trajectories.tobytes() == pred_b.trajectories.tobytes()
        assert (attn_a is None) == (attn_b is None)
        for a, b in zip(attn_a or [], attn_b or []):
            assert a.tobytes() == b.tobytes()


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

def test_window_loss_rejects_observed_only_window():
    cfg = tiny_cfg()
    model = GraphTCN(cfg)
    noise = model.draw_noise(np.random.default_rng(0), 3)
    with pytest.raises(ContractError, match="window has 4 steps, config needs 7"):
        model.window_loss(make_window(t_total=cfg.t_obs), 1, noise)


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
    for name, _ in model.params.items():
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
    # Offsets are decoded from each pedestrian's last observed position.
    origin = w.positions[:, cfg.t_obs - 1, :]
    h, _ = model.encode(w)
    delta = model.decoder.forward(h, model.decoder.noise(np.random.default_rng(0), 5, w.n_peds))
    assert np.array_equal(ps.trajectories, delta.data + origin[:, None, :])
    assert attn is not None


def test_predict_rejects_bad_m():
    model = GraphTCN(tiny_cfg())
    with pytest.raises(ConfigError, match="^samples must be >= 1, got 0$"):
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


# Whole training step against the loop oracles --------------------------------

STEP = 1e-30


def loss_and_gradient(model, window, epoch, noise):
    """window_loss's value and a copy of each parameter's gradient, by name."""
    model.params.zero_grads()
    with Tape() as tape:
        loss, _ = model.window_loss(window, epoch, noise)
        backward(loss, tape)
    return loss.item(), {name: t.grad.copy() for name, t in model.params.items()}


@pytest.mark.parametrize("hidden", [0, 16])
@pytest.mark.parametrize("variant", VARIANTS)
def test_training_step_gradient_matches_complex_step(variant, hidden):
    # The tape's directional derivative grad L . v against the complex step
    # Im L(theta + i*h*v) / h of the independent loop forward. The complex
    # step subtracts nothing, so at h = 1e-30 both agree to rounding. A
    # complex-to-float cast in the oracle would drop the derivative; with
    # warnings as errors it fails instead. Both KL weights are reached.
    # Last, the prediction path over a bucket of three windows, through
    # every op's window axis: the sum of each window's best-of-M ADE over
    # its own draws.
    cfg = ModelConfig(t_obs=4, t_pred=3, embed_dim=8, gal1_heads=2, gal1_out=4,
                      gal2_heads=1, gal2_out=4, tcn_channels=4, tcn_layers=2,
                      tcn_kernel=3, noise_dim=2, samples=3, epochs=1, seed=12,
                      variant=variant, decoder_hidden=hidden)
    model = GraphTCN(cfg)
    window = make_window(n=3, t_total=7, seed=3)
    noise = model.draw_noise(np.random.default_rng(4), window.n_peds)
    theta = model.params.state_arrays()
    rng = np.random.default_rng(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for epoch in (1, cfg.kl_switch_epoch + 1):
            value, grad = loss_and_gradient(model, window, epoch, noise)
            for _ in range(2):
                v = {name: rng.standard_normal(a.shape) for name, a in theta.items()}
                p = {name: a + 1j * STEP * v[name] for name, a in theta.items()}
                cs_loss = window_loss_oracle(p, window.positions, cfg, noise, epoch)
                cs = cs_loss.imag / STEP
                an = sum(float(np.sum(grad[name] * v[name])) for name in theta)
                assert abs(cs_loss.real - value) <= 1e-12
                assert abs(cs - an) <= 1e-12 * (1.0 + abs(an)), (epoch, cs, an)

        windows = [window] + [make_window(n=3, t_total=7, seed=s) for s in (6, 7)]
        bucket, = bucket_windows(windows)
        draws = [model.decoder.noise(rng, cfg.samples, 3) for _ in windows]
        model.params.zero_grads()
        with Tape() as tape:
            trajectories, _ = model.sample(bucket, np.stack(draws, axis=1))
            loss = reduce_sum(best_of_m_ade(trajectories, model.ground_truth(bucket)))
            backward(loss, tape)
        grad = {name: t.grad.copy() for name, t in model.params.items()}
        for _ in range(2):
            v = {name: rng.standard_normal(a.shape) for name, a in theta.items()}
            p = {name: a + 1j * STEP * v[name] for name, a in theta.items()}
            cs_loss = sum(min_of_m_oracle(sample_oracle(p, w.positions, cfg, d),
                                          w.positions[:, cfg.t_obs:])[0]
                          for w, d in zip(windows, draws))
            cs = cs_loss.imag / STEP
            an = sum(float(np.sum(grad[name] * v[name])) for name in theta)
            assert abs(cs_loss.real - loss.item()) <= 1e-12
            assert abs(cs - an) <= 1e-12 * (1.0 + abs(an)), ("bucket", cs, an)


# Metamorphic relations of the whole pipeline -----------------------------------

def bench8_model(variant):
    cfg = ModelConfig(variant=variant, samples=5, seed=3)
    return GraphTCN(cfg), load_windows(DATA_DIR, ["bench8"], cfg.t_obs, cfg.t_pred)[0]


def flat(grads):
    return np.concatenate([g.ravel() for g in grads.values()])


def relative_gap(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


@pytest.mark.parametrize("variant", VARIANTS)
def test_permuting_pedestrians_permutes_the_pipeline(variant):
    # Pedestrians form a set: reordering them permutes the trajectories and
    # keeps the loss and the parameter gradient, to rounding (sums over
    # pedestrians change order).
    # graphtcn_g draws one latent per pedestrian, so its latents permute
    # too; predict draws its own, so its relation goes through encode and
    # decoder.forward.
    model, window = bench8_model(variant)
    perm = np.random.default_rng(3).permutation(window.n_peds)
    assert (perm != np.arange(window.n_peds)).any()
    permuted = SequenceWindow(window.scene_name, window.start_frame, window.positions[perm],
                              [window.ped_ids[i] for i in perm])
    noise = model.draw_noise(np.random.default_rng(3), window.n_peds)
    latent = variant == "graphtcn_g"
    value, grads = loss_and_gradient(model, window, 1, noise)
    value_p, grads_p = loss_and_gradient(model, permuted, 1, noise[:, perm] if latent else noise)
    assert abs(value_p - value) <= 1e-12 * abs(value)
    assert relative_gap(flat(grads_p), flat(grads)) <= 1e-12

    if latent:
        z = model.decoder.noise(np.random.default_rng(5), 5, window.n_peds)

        def sample(w, draws):
            h, _ = model.encode(w)
            return model.decoder.forward(h, draws).data + w.positions[:, model.cfg.t_obs - 1, None]

        trajs, trajs_p = sample(window, z), sample(permuted, z[:, perm])
    else:
        trajs = model.predict(window, 5, np.random.default_rng(5))[0].trajectories
        trajs_p = model.predict(permuted, 5, np.random.default_rng(5))[0].trajectories
    assert relative_gap(trajs_p, trajs[:, perm]) <= 1e-12


@pytest.mark.parametrize("variant", VARIANTS)
def test_shifting_frame_and_pedestrian_ids_changes_nothing(variant, tmp_path):
    # Ids only name rows: shifted ids give the same window, so the loss,
    # the gradient and predict keep every bit.
    model, window = bench8_model(variant)
    rows = []
    for line in (DATA_DIR / "bench8.txt").read_text().splitlines():
        frame, ped, x, y = line.split()
        rows.append(f"{int(frame) + 1000} {int(ped) + 10**6} {x} {y}\n")
    (tmp_path / "bench8.txt").write_text("".join(rows))
    shifted = load_windows(tmp_path, ["bench8"], model.cfg.t_obs, model.cfg.t_pred)[0]
    assert shifted.start_frame == window.start_frame + 1000
    assert shifted.ped_ids == [i + 10**6 for i in window.ped_ids]
    noise = model.draw_noise(np.random.default_rng(3), window.n_peds)
    value, grads = loss_and_gradient(model, window, 1, noise)
    value_s, grads_s = loss_and_gradient(model, shifted, 1, noise)
    assert value_s == value
    assert flat(grads_s).tobytes() == flat(grads).tobytes()
    trajs = model.predict(window, 5, np.random.default_rng(5))[0].trajectories
    trajs_s = model.predict(shifted, 5, np.random.default_rng(5))[0].trajectories
    assert trajs_s.tobytes() == trajs.tobytes()
