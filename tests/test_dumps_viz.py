"""Dump text formats and the SVG emitter."""

import re
from pathlib import Path

import numpy as np
import pytest

from graphtcn.config import ModelConfig
from graphtcn.data import SequenceWindow, load_scene_windows
from graphtcn.decoders import PredictionSet
from graphtcn.dumps import (
    format_attention_dump,
    format_trajectory_dump,
    parse_attention_dump,
    parse_trajectory_dump,
    write_attention_dump,
    write_trajectory_dump,
)
from graphtcn.errors import ContractError, ParseError
from graphtcn.model import GraphTCN
from graphtcn.viz import emit_plot, render_attention, render_trajectories

DATA_DIR = Path(__file__).resolve().parent.parent / "data" / "synthetic"


def fast_cfg(**over):
    base = dict(
        embed_dim=6, gal1_heads=2, gal1_out=3, gal2_heads=1, gal2_out=4,
        tcn_channels=3, tcn_layers=1, tcn_kernel=2, noise_dim=2, samples=2,
        epochs=1, seed=2,
    )
    base.update(over)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def crossing_setup():
    cfg = fast_cfg()
    model = GraphTCN(cfg)
    window = load_scene_windows(DATA_DIR, "crossing", cfg.t_obs, cfg.t_pred)[0]
    _, attn = model.encode(window)
    pred, _ = model.predict(window, 3, np.random.default_rng(0))
    return cfg, model, window, attn, pred


# Attention dumps ------------------------------------------------------------

def test_attention_dump_round_trip(crossing_setup):
    cfg, _, window, attn, _ = crossing_setup
    text = format_attention_dump(window, attn, cfg.t_obs)
    positions, entries = parse_attention_dump(text)
    assert set(positions) == set(range(cfg.t_obs))
    n = window.n_peds
    # layer 0: 2 heads, layer 1: 1 head, all t_obs steps, n*n entries each
    assert len(entries) == (2 + 1) * cfg.t_obs * n * n
    for layer_idx, layer in enumerate(attn):
        heads, steps, _, _ = layer.shape
        for (l, k, t, i, j, w) in entries:
            if l == layer_idx:
                assert w == layer[k, t, i, j]  # repr round trip is exact
    for t, per_ped in positions.items():
        for ped, (x, y) in per_ped.items():
            assert x == window.positions[ped, t, 0]
            assert y == window.positions[ped, t, 1]


def test_attention_rows_sum_to_one(crossing_setup):
    cfg, _, window, attn, _ = crossing_setup
    text = format_attention_dump(window, attn, cfg.t_obs)
    _, entries = parse_attention_dump(text)
    sums = {}
    for (l, k, t, i, j, w) in entries:
        sums[(l, k, t, i)] = sums.get((l, k, t, i), 0.0) + w
    assert all(abs(s - 1.0) < 1e-9 for s in sums.values())


def test_crossing_attention_asymmetric(crossing_setup):
    cfg, _, window, attn, _ = crossing_setup
    a = attn[0][0]  # first layer, first head: [T, N, N]
    assert any(a[t, 0, 1] != a[t, 1, 0] for t in range(cfg.t_obs))


def test_attention_dump_rejects_garbage():
    with pytest.raises(ParseError) as err:
        parse_attention_dump("P\t0\t0\t1.0\t2.0\nwhat is this\n")
    assert "line 2" in str(err.value)


@pytest.mark.parametrize("row", [
    "P\tx\t0\t1.0\t2.0",          # step not an integer
    "P\t0\t1.5\t1.0\t2.0",        # ped index not an integer
    "P\t0\t0\tabc\t2.0",          # coordinate not a number
    "P\t0\t0\t1.0\tnan",          # coordinate not finite
    "A\t0\t0\t0\t0\tj\t0.5",      # column index not an integer
    "A\t0\t0\t0\t0\t1\tinf",      # weight not finite
])
def test_attention_dump_bad_field_names_the_line(row):
    with pytest.raises(ParseError, match="line 2: "):
        parse_attention_dump("P\t0\t0\t1.0\t2.0\n" + row + "\n")


def test_attention_dump_skips_comments_and_blanks():
    positions, entries = parse_attention_dump("# hi\n\nP\t0\t1\t3.5\t-1.25\n")
    assert positions == {0: {1: (3.5, -1.25)}}
    assert entries == []


# Trajectory dumps -------------------------------------------------------------

def test_trajectory_dump_round_trip(crossing_setup):
    cfg, _, window, _, pred = crossing_setup
    text = format_trajectory_dump(window, pred, cfg.t_obs)
    obs, gt, samples = parse_trajectory_dump(text)
    n = window.n_peds
    assert set(obs) == set(range(n))
    assert all(len(v) == cfg.t_obs for v in obs.values())
    assert all(len(v) == cfg.t_pred for v in gt.values())
    assert set(samples) == {0, 1, 2}
    for m, per_ped in samples.items():
        for ped, pts in per_ped.items():
            for (step, x, y) in pts:
                t = step - cfg.t_obs
                assert x == pred.trajectories[m, ped, t, 0]
                assert y == pred.trajectories[m, ped, t, 1]
    # GT steps continue where observation ends
    assert gt[0][0][0] == cfg.t_obs


def test_trajectory_dump_without_predictions(crossing_setup):
    # A dump whose S rows were removed still parses its O and G rows.
    cfg, _, window, _, pred = crossing_setup
    full = format_trajectory_dump(window, pred, cfg.t_obs)
    text = "".join(line for line in full.splitlines(keepends=True)
                   if not line.startswith("S\t"))
    full_obs, full_gt, _ = parse_trajectory_dump(full)
    obs, gt, samples = parse_trajectory_dump(text)
    assert obs and gt and samples == {}
    assert obs == full_obs and gt == full_gt


def test_trajectory_dump_rejects_bad_row():
    with pytest.raises(ParseError):
        parse_trajectory_dump("O\t0\t0\t1.0\n")


@pytest.mark.parametrize("row", [
    "O\t0\tt\t1.0\t2.0",          # step not an integer
    "G\t0\t3\t1.0\t-inf",         # coordinate not finite
    "S\t0\t0\t3\tnan\t2.0",        # sample coordinate not finite
    "S\tm\t0\t3\t1.0\t2.0",        # sample index not an integer
])
def test_trajectory_dump_bad_field_names_the_line(row):
    with pytest.raises(ParseError, match="line 2: "):
        parse_trajectory_dump("O\t0\t0\t1.0\t2.0\n" + row + "\n")


def test_emit_plot_rejects_non_utf8_dump(tmp_path):
    dump = tmp_path / "d.txt"
    dump.write_bytes(b"O\t0\t0\t1.0\t2.0\n\xfe\n")
    with pytest.raises(ParseError, match=r"d\.txt: invalid UTF-8 at byte offset 14"):
        emit_plot("trajectories", dump, tmp_path / "out.svg")
    assert not (tmp_path / "out.svg").exists()


def tiny_dump_window():
    """2 pedestrians over 2 observed steps and 1 future step."""
    pos = np.array([[[0.5, -1.0], [0.1, 2.0], [3.0, 4.25]],
                    [[1.0, 0.0], [1.5, 1 / 3], [-2.0, 7.0]]])
    return SequenceWindow("tiny", 40, pos, (7, 9))


def test_attention_dump_text_is_pinned():
    attn = [np.arange(8.0).reshape(1, 2, 2, 2) / 8, np.full((1, 2, 2, 2), 0.1)]
    expected = "\n".join([
        "# attention dump",
        "# window tiny:40 peds 2 steps 2",
        "# P step ped x y / A layer head step i j weight",
        "P\t0\t0\t0.5\t-1.0", "P\t0\t1\t1.0\t0.0",
        "P\t1\t0\t0.1\t2.0", "P\t1\t1\t1.5\t0.3333333333333333",
        "A\t0\t0\t0\t0\t0\t0.0", "A\t0\t0\t0\t0\t1\t0.125",
        "A\t0\t0\t0\t1\t0\t0.25", "A\t0\t0\t0\t1\t1\t0.375",
        "A\t0\t0\t1\t0\t0\t0.5", "A\t0\t0\t1\t0\t1\t0.625",
        "A\t0\t0\t1\t1\t0\t0.75", "A\t0\t0\t1\t1\t1\t0.875",
    ] + [f"A\t1\t0\t{t}\t{i}\t{j}\t0.1" for t in range(2) for i in range(2)
         for j in range(2)]) + "\n"
    assert format_attention_dump(tiny_dump_window(), attn, 2) == expected


def test_trajectory_dump_text_is_pinned():
    pred = PredictionSet(np.array([[[[0.25, -0.5]], [[1e-17, 12.0]]]]))
    expected = "\n".join([
        "# trajectory dump",
        "# window tiny:40 peds 2",
        "# O ped step x y / G ped step x y / S sample ped step x y",
        "O\t0\t0\t0.5\t-1.0", "O\t0\t1\t0.1\t2.0",
        "O\t1\t0\t1.0\t0.0", "O\t1\t1\t1.5\t0.3333333333333333",
        "G\t0\t2\t3.0\t4.25", "G\t1\t2\t-2.0\t7.0",
        "S\t0\t0\t2\t0.25\t-0.5", "S\t0\t1\t2\t1e-17\t12.0",
    ]) + "\n"
    assert format_trajectory_dump(tiny_dump_window(), pred, 2) == expected


@pytest.mark.parametrize("scene", ["b\x85b", "b\fb", "b\u2028b"], ids=["x85", "f", "u2028"])
def test_dumps_round_trip_a_scene_name_with_a_separator(tmp_path, scene):
    # The name lands in a comment header; only \n and \r may end a line.
    tiny = tiny_dump_window()
    window = SequenceWindow(scene, tiny.start_frame, tiny.positions, tiny.ped_ids)
    attn = [np.full((1, 2, 2, 2), 0.5)]
    pred = PredictionSet(np.array([[[[0.25, -0.5]], [[1e-17, 12.0]]]]))
    traj_in, attn_in = tmp_path / "traj.txt", tmp_path / "attn.txt"
    write_trajectory_dump(traj_in, window, pred, 2)
    write_attention_dump(attn_in, window, attn, 2)
    obs, gt, samples = parse_trajectory_dump(traj_in.read_text(encoding="utf-8"))
    assert obs[1] == [(0, 1.0, 0.0), (1, 1.5, 1 / 3)] and gt[0] == [(2, 3.0, 4.25)]
    assert samples == {0: {0: [(2, 0.25, -0.5)], 1: [(2, 1e-17, 12.0)]}}
    positions, entries = parse_attention_dump(attn_in.read_text(encoding="utf-8"))
    assert positions == {0: {0: (0.5, -1.0), 1: (1.0, 0.0)}, 1: {0: (0.1, 2.0), 1: (1.5, 1 / 3)}}
    assert len(entries) == 8
    for kind, src in [("trajectories", traj_in), ("samples", traj_in), ("attention", attn_in)]:
        assert emit_plot(kind, src, tmp_path / f"{kind}.svg").read_text().startswith("<svg")


def test_dump_writers(tmp_path, crossing_setup):
    cfg, _, window, attn, pred = crossing_setup
    a, t = tmp_path / "a.txt", tmp_path / "t.txt"
    write_attention_dump(a, window, attn, cfg.t_obs)
    write_trajectory_dump(t, window, pred, cfg.t_obs)
    assert a.read_text().startswith("# attention dump")
    assert t.read_text().startswith("# trajectory dump")


# SVG rendering ----------------------------------------------------------------

def test_svg_deterministic(crossing_setup):
    cfg, _, window, _, pred = crossing_setup
    text = format_trajectory_dump(window, pred, cfg.t_obs)
    assert render_trajectories(text, True) == render_trajectories(text, True)


def test_svg_polyline_counts(crossing_setup):
    cfg, _, window, _, pred = crossing_setup
    text = format_trajectory_dump(window, pred, cfg.t_obs)
    n = window.n_peds
    without = render_trajectories(text, include_samples=False)
    with_samples = render_trajectories(text, include_samples=True)
    assert without.count("<polyline") == 2 * n  # observed + gt per ped
    assert with_samples.count("<polyline") == 2 * n + 3 * n
    assert "stroke-dasharray" not in without
    assert with_samples.count("stroke-dasharray") == 3 * n


def test_svg_well_formed(crossing_setup):
    import xml.etree.ElementTree as ET

    cfg, _, window, attn, pred = crossing_setup
    traj = render_trajectories(format_trajectory_dump(window, pred, cfg.t_obs), True)
    att = render_attention(format_attention_dump(window, attn, cfg.t_obs))
    for svg in (traj, att):
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")


def test_attention_svg_marks_all_peds(crossing_setup):
    cfg, _, window, attn, _ = crossing_setup
    svg = render_attention(format_attention_dump(window, attn, cfg.t_obs))
    assert svg.count("<circle") == window.n_peds
    assert "#d62728" in svg  # target pedestrian highlighted


def test_attention_svg_labels_row_0_of_head_0_in_the_last_layer(crossing_setup):
    cfg, _, window, attn, _ = crossing_setup
    svg = render_attention(format_attention_dump(window, attn, cfg.t_obs))
    labels = re.findall(r">(\d+):([-0-9.]+)</text>", svg)
    assert labels == [(str(j), f"{w:.3f}") for j, w in enumerate(attn[-1][0, -1, 0])]


def test_attention_svg_bad_selection(crossing_setup):
    # Without the rows it draws (row 0 of head 0 in the last layer at the
    # last step) the dump has nothing to plot.
    cfg, _, window, attn, _ = crossing_setup
    text = format_attention_dump(window, attn, cfg.t_obs)
    drawn = f"A\t{len(attn) - 1}\t0\t{cfg.t_obs - 1}\t0\t"
    kept = "".join(line for line in text.splitlines(keepends=True) if not line.startswith(drawn))
    assert len(kept) < len(text)
    with pytest.raises(ContractError):
        render_attention(kept)


def test_render_empty_dump_rejected():
    with pytest.raises(ParseError):
        render_trajectories("# nothing\n", include_samples=False)
    with pytest.raises(ParseError):
        render_attention("P\t0\t0\t1.0\t2.0\n")


def test_emit_plot_kinds(tmp_path, crossing_setup):
    cfg, _, window, attn, pred = crossing_setup
    traj_in = tmp_path / "traj.txt"
    attn_in = tmp_path / "attn.txt"
    write_trajectory_dump(traj_in, window, pred, cfg.t_obs)
    write_attention_dump(attn_in, window, attn, cfg.t_obs)
    for kind, src in [("trajectories", traj_in), ("samples", traj_in), ("attention", attn_in)]:
        out = tmp_path / f"{kind}.svg"
        emit_plot(kind, src, out)
        body = out.read_text()
        assert body.startswith("<svg") and body.rstrip().endswith("</svg>")


def test_emit_plot_unknown_kind(tmp_path, crossing_setup):
    cfg, _, window, _, pred = crossing_setup
    src = tmp_path / "traj.txt"
    write_trajectory_dump(src, window, pred, cfg.t_obs)
    with pytest.raises(ContractError):
        emit_plot("heatmap", src, tmp_path / "x.svg")
