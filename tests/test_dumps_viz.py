"""Dump records and the SVG emitter."""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphtcn.config import ModelConfig
from graphtcn.data import SequenceWindow, load_scene_windows
from graphtcn.dumps import (
    format_attention_dump,
    format_trajectory_dump,
    parse_attention_dump,
    parse_trajectory_dump,
    write_attention_dump,
    write_trajectory_dump,
)
from graphtcn.errors import ContractError, GraphTCNError, ParseError
from graphtcn.metrics import PredictionSet
from graphtcn.model import GraphTCN
from graphtcn.viz import emit_plot, render_attention, render_trajectories
from test_data import IN_LINE_SEPARATORS, LINE_BREAKS

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
    record = parse_attention_dump(format_attention_dump(window, attn, cfg.t_obs))
    assert (record["kind"], record["scene"], record["start_frame"], record["t_obs"]) == (
        "attention", "crossing", window.start_frame, cfg.t_obs)
    # layer 0: 2 heads, layer 1: 1 head; repr round trip is exact
    assert [layer.shape for layer in record["attention"]] == [layer.shape for layer in attn]
    for got, want in zip(record["attention"], attn):
        assert got.tobytes() == want.tobytes()
    assert record["positions"].tobytes() == window.positions[:, :cfg.t_obs].tobytes()


def test_attention_rows_sum_to_one(crossing_setup):
    cfg, _, window, attn, _ = crossing_setup
    for layer in parse_attention_dump(format_attention_dump(window, attn, cfg.t_obs))["attention"]:
        np.testing.assert_allclose(layer.sum(axis=-1), 1.0, rtol=0, atol=1e-9)


def test_crossing_attention_asymmetric(crossing_setup):
    cfg, _, window, attn, _ = crossing_setup
    a = attn[0][0]  # first layer, first head: [T, N, N]
    assert any(a[t, 0, 1] != a[t, 1, 0] for t in range(cfg.t_obs))


def test_attention_dump_rejects_garbage():
    with pytest.raises(ParseError) as err:
        parse_attention_dump(TINY_ATTENTION_LINE + "what is this\n")
    assert str(err.value) == "line 2: a dump holds one record, on one line"


@pytest.mark.parametrize("row", [
    "P\tx\t0\t1.0\t2.0",          # step not an integer
    "P\t0\t1.5\t1.0\t2.0",        # ped index not an integer
    "P\t0\t0\tabc\t2.0",          # coordinate not a number
    "P\t0\t0\t1.0\tnan",          # coordinate not finite
    "A\t0\t0\t0\t0\tj\t0.5",      # column index not an integer
    "A\t0\t0\t0\t0\t1\tinf",      # weight not finite
])
def test_attention_dump_bad_field_names_the_line(row):
    # A row of the retired tab-separated format, good or bad, is no record.
    with pytest.raises(ParseError, match="^line 2: not a JSON record: Expecting value at column 1$"):
        parse_attention_dump("# attention dump\n" + row + "\n")


def test_attention_dump_skips_comments_and_blanks():
    record = parse_attention_dump("# hi\n\n" + TINY_ATTENTION_LINE + "\n# bye\n")
    assert record["positions"].tolist() == [[[0.5, -1.0], [0.1, 2.0]], [[1.0, 0.0], [1.5, 1 / 3]]]


# Trajectory dumps -------------------------------------------------------------

def test_trajectory_dump_round_trip(crossing_setup):
    cfg, _, window, _, pred = crossing_setup
    record = parse_trajectory_dump(format_trajectory_dump(window, pred, cfg.t_obs))
    assert (record["kind"], record["scene"], record["start_frame"], record["t_obs"]) == (
        "trajectories", "crossing", window.start_frame, cfg.t_obs)
    # Observed then ground truth in one array; repr round trip is exact
    assert record["positions"].shape == (window.n_peds, cfg.t_obs + cfg.t_pred, 2)
    assert record["positions"].tobytes() == window.positions.tobytes()
    assert record["samples"].shape == (3, window.n_peds, cfg.t_pred, 2)
    assert record["samples"].tobytes() == pred.trajectories.tobytes()


def test_trajectory_dump_without_predictions(crossing_setup):
    # A record holds at least one sample: an empty or missing samples array
    # is refused by name.
    cfg, _, window, _, pred = crossing_setup
    record = json.loads(format_trajectory_dump(window, pred, cfg.t_obs))
    record["samples"] = []
    with pytest.raises(ParseError, match=r"^line 1: samples must be a \[\*, 2, 12, 2\] array of floats$"):
        parse_trajectory_dump(json.dumps(record))
    del record["samples"]
    with pytest.raises(ParseError, match="^line 1: trajectories record keys must be "):
        parse_trajectory_dump(json.dumps(record))


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
    # A row of the retired tab-separated format, good or bad, is no record.
    with pytest.raises(ParseError, match="^line 2: not a JSON record: Expecting value at column 1$"):
        parse_trajectory_dump("# trajectory dump\n" + row + "\n")


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


TINY_ATTENTION = [np.arange(8.0).reshape(1, 2, 2, 2) / 8, np.full((1, 2, 2, 2), 0.1)]
TINY_PRED = PredictionSet(np.array([[[[0.25, -0.5]], [[1e-17, 12.0]]]]))
TINY_ATTENTION_LINE = (
    '{"kind": "attention", "scene": "tiny", "start_frame": 40, "t_obs": 2, '
    '"positions": [[[0.5, -1.0], [0.1, 2.0]], [[1.0, 0.0], [1.5, 0.3333333333333333]]], '
    '"attention": [[[[[0.0, 0.125], [0.25, 0.375]], [[0.5, 0.625], [0.75, 0.875]]]], '
    '[[[[0.1, 0.1], [0.1, 0.1]], [[0.1, 0.1], [0.1, 0.1]]]]]}\n')
TINY_TRAJECTORY_LINE = (
    '{"kind": "trajectories", "scene": "tiny", "start_frame": 40, "t_obs": 2, '
    '"positions": [[[0.5, -1.0], [0.1, 2.0], [3.0, 4.25]], '
    '[[1.0, 0.0], [1.5, 0.3333333333333333], [-2.0, 7.0]]], '
    '"samples": [[[[0.25, -0.5]], [[1e-17, 12.0]]]]}\n')


def test_attention_dump_text_is_pinned():
    assert format_attention_dump(tiny_dump_window(), TINY_ATTENTION, 2) == TINY_ATTENTION_LINE


def test_trajectory_dump_text_is_pinned():
    assert format_trajectory_dump(tiny_dump_window(), TINY_PRED, 2) == TINY_TRAJECTORY_LINE


@pytest.mark.parametrize("parse, text", [
    (parse_attention_dump, "# attention dump\n# window tiny:40 peds 2 steps 2\n"
     "# P step ped x y / A layer head step i j weight\n"
     "P\t0\t0\t0.5\t-1.0\nP\t0\t1\t1.0\t0.0\nA\t0\t0\t0\t0\t0\t0.0\n"),
    (parse_trajectory_dump, "# trajectory dump\n# window tiny:40 peds 2\n"
     "# O ped step x y / G ped step x y / S sample ped step x y\n"
     "O\t0\t0\t0.5\t-1.0\nG\t0\t2\t3.0\t4.25\nS\t0\t0\t2\t0.25\t-0.5\n"),
], ids=["attention", "trajectories"])
def test_old_format_dump_is_refused(tmp_path, parse, text):
    # The tab-separated format that predates the JSON record is never misread.
    message = "line 4: not a JSON record: Expecting value at column 1"
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse(text)
    (tmp_path / "old.txt").write_text(text)
    kinds = ["attention"] if parse is parse_attention_dump else ["trajectories", "samples"]
    for kind in kinds:
        with pytest.raises(ParseError, match=f"^{message}$"):
            emit_plot(kind, tmp_path / "old.txt", tmp_path / "old.svg")
    assert not (tmp_path / "old.svg").exists()


def _edit(line, old, new):
    assert old in line
    return line.replace(old, new, 1)


ARRAY_OF_FLOATS = "attention layer 0 must be a [*, 2, 2, 2] array of floats"
KEYS = "['kind', 'scene', 'start_frame', 't_obs', 'positions', "
HEADER = "need a string scene, an integer start_frame and an integer t_obs >= 1"


def _case(case_id, parse, text, message):
    return pytest.param(parse, text, message, id=case_id)


@pytest.mark.parametrize("parse, text, message", [
    _case("nan", parse_attention_dump, _edit(TINY_ATTENTION_LINE, "0.125", "NaN"),
          "non-finite value NaN"),
    _case("infinity", parse_attention_dump, _edit(TINY_ATTENTION_LINE, "0.125", "Infinity"),
          "non-finite value Infinity"),
    _case("minus-infinity", parse_trajectory_dump, _edit(TINY_TRAJECTORY_LINE, "12.0", "-Infinity"),
          "non-finite value -Infinity"),
    _case("1e999", parse_attention_dump, _edit(TINY_ATTENTION_LINE, "0.125", "1e999"),
          "attention layer 0 holds a non-finite value"),
    _case("minus-1e999", parse_trajectory_dump, _edit(TINY_TRAJECTORY_LINE, "4.25", "-1e999"),
          "positions holds a non-finite value"),
    _case("bool", parse_attention_dump, _edit(TINY_ATTENTION_LINE, "0.125", "true"), ARRAY_OF_FLOATS),
    _case("string", parse_attention_dump, _edit(TINY_ATTENTION_LINE, "0.125", '"0.125"'),
          ARRAY_OF_FLOATS),
    _case("null", parse_attention_dump, _edit(TINY_ATTENTION_LINE, "0.125", "null"), ARRAY_OF_FLOATS),
    _case("int", parse_attention_dump, _edit(TINY_ATTENTION_LINE, "0.125", "1"), ARRAY_OF_FLOATS),
    _case("ragged", parse_attention_dump, _edit(TINY_ATTENTION_LINE, "[0.0, 0.125]", "[0.0]"),
          ARRAY_OF_FLOATS),
    _case("deeper", parse_attention_dump,
          _edit(TINY_ATTENTION_LINE, "[0.0, 0.125]", "[[0.0, 0.125]]"), ARRAY_OF_FLOATS),
    _case("positions-steps", parse_attention_dump,
          _edit(TINY_ATTENTION_LINE, '"t_obs": 2', '"t_obs": 3'),
          "positions must be a [*, 3, 2] array of floats"),
    _case("no-future", parse_trajectory_dump,
          _edit(TINY_TRAJECTORY_LINE, '"t_obs": 2', '"t_obs": 3'),
          "positions must hold more than t_obs = 3 steps, got 3"),
    _case("samples-peds", parse_trajectory_dump,
          _edit(TINY_TRAJECTORY_LINE, "[[[[0.25, -0.5]], [[1e-17, 12.0]]]]", "[[[[0.25, -0.5]]]]"),
          "samples must be a [*, 2, 1, 2] array of floats"),
    _case("empty-layer", parse_attention_dump,
          _edit(TINY_ATTENTION_LINE, '"attention": [', '"attention": [[], '), ARRAY_OF_FLOATS),
    _case("no-layer", parse_attention_dump,
          '{"kind": "attention", "scene": "tiny", "start_frame": 40, "t_obs": 2, '
          '"positions": [[[0.5, -1.0], [0.1, 2.0]]], "attention": []}',
          "attention must be a list of one array per layer"),
    _case("syntax", parse_attention_dump, '{"kind": "attention" "scene"}',
          "not a JSON record: Expecting ',' delimiter at column 22"),
    _case("missing-key", parse_attention_dump, _edit(TINY_ATTENTION_LINE, '"start_frame": 40, ', ""),
          f"attention record keys must be {KEYS}'attention'], "
          "got ['kind', 'scene', 't_obs', 'positions', 'attention']"),
    _case("extra-key", parse_trajectory_dump,
          _edit(TINY_TRAJECTORY_LINE, '{"kind"', '{"x\\n": 1, "kind"'),
          f"trajectories record keys must be {KEYS}'samples'], got ['x\\n', 'kind', "
          "'scene', 'start_frame', 't_obs', 'positions', 'samples']"),
    _case("other-kind", parse_attention_dump, TINY_TRAJECTORY_LINE,
          "not a JSON object of kind 'attention'"),
    _case("not-an-object", parse_trajectory_dump, "[1.0, 2.0]",
          "not a JSON object of kind 'trajectories'"),
    _case("bool-t_obs", parse_attention_dump,
          _edit(TINY_ATTENTION_LINE, '"t_obs": 2', '"t_obs": true'), HEADER),
    _case("zero-t_obs", parse_attention_dump,
          _edit(TINY_ATTENTION_LINE, '"t_obs": 2', '"t_obs": 0'), HEADER),
    _case("number-scene", parse_trajectory_dump,
          _edit(TINY_TRAJECTORY_LINE, '"scene": "tiny"', '"scene": 7'), HEADER),
    _case("float-start", parse_trajectory_dump,
          _edit(TINY_TRAJECTORY_LINE, '"start_frame": 40', '"start_frame": 4.0'), HEADER),
    _case("deep", parse_attention_dump, "[" * 100000,
          "maximum recursion depth exceeded while decoding a JSON array from a unicode string"),
])
def test_bad_record_fails_by_name(parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"line 1: {message}"


@pytest.mark.parametrize("text, message", [
    ("", "line 1: no attention record before the end of the dump"),
    ("# one\n\n", "line 3: no attention record before the end of the dump"),
    (TINY_ATTENTION_LINE * 2, "line 2: a dump holds one record, on one line"),
    ("# one\n" + TINY_ATTENTION_LINE + "\n# two\n{}\n", "line 5: a dump holds one record, on one line"),
], ids=["empty", "comments-only", "two-records", "record-then-object"])
def test_a_dump_holds_exactly_one_record(text, message):
    with pytest.raises(ParseError) as err:
        parse_attention_dump(text)
    assert str(err.value) == message


def test_writing_a_non_finite_value_fails_by_name():
    attn = [np.full((1, 2, 2, 2), 0.5), np.full((1, 2, 2, 2), np.nan)]
    with pytest.raises(GraphTCNError, match="^cannot write the attention dump: Out of range float"):
        format_attention_dump(tiny_dump_window(), attn, 2)
    tiny = tiny_dump_window()
    tiny.positions[1, 2, 0] = np.inf  # a future point; PredictionSet refuses non-finite samples
    with pytest.raises(ContractError, match="^cannot write the trajectories dump: Out of range float"):
        format_trajectory_dump(tiny, TINY_PRED, 2)


# Any JSON value: the inputs a hand-edited or foreign file can hold.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12)
# Nested lists of floats of any shape: ragged, of the wrong rank or of the wrong extent.
FLOAT_LISTS = st.recursive(st.floats(allow_nan=False, allow_infinity=False),
                           lambda inner: st.lists(inner, min_size=1, max_size=3), max_leaves=24)
TINY_LINES = {"attention": TINY_ATTENTION_LINE, "trajectories": TINY_TRAJECTORY_LINE}
PARSERS = {"attention": parse_attention_dump, "trajectories": parse_trajectory_dump}


@st.composite
def edited_records(draw):
    """A tiny record of either kind with one key dropped, replaced or added,
    or one position replaced, as (kind, text). An infinity is written as
    ``Infinity`` or as ``1e999``, which ``json`` reads as a float."""
    kind = draw(st.sampled_from(sorted(TINY_LINES)))
    record = json.loads(TINY_LINES[kind])
    key = draw(st.sampled_from([*record, "extra"]))
    edit = draw(st.sampled_from(["drop", "replace", "leaf"]))
    if edit == "drop":
        record.pop(key, None)
    elif edit == "replace":
        record[key] = draw(JSON_VALUES | FLOAT_LISTS)
    else:
        record["positions"][draw(st.integers(0, 1))][0][draw(st.integers(0, 1))] = draw(JSON_VALUES)
    text = json.dumps(record)
    return kind, text.replace("Infinity", "1e999") if draw(st.booleans()) else text


def _parses_or_fails_by_name(call):
    try:
        call()
    except ParseError as e:
        assert re.fullmatch(r"line \d+: [^\n]+", str(e)), str(e)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(sorted(PARSERS)), text=st.text(max_size=40))
def test_any_text_parses_or_fails_by_name(kind, text):
    _parses_or_fails_by_name(lambda: PARSERS[kind](text))


@settings(max_examples=120, deadline=None)
@given(edited=edited_records())
def test_any_edited_record_parses_or_fails_by_name(edited):
    kind, text = edited
    _parses_or_fails_by_name(lambda: PARSERS[kind](text))


@pytest.fixture(scope="module")
def plot_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("plot")


@settings(max_examples=40, deadline=None)
@given(text=st.text(max_size=40) | edited_records().map(lambda edited: edited[1]),
       kind=st.sampled_from(["trajectories", "samples", "attention"]))
def test_emit_plot_renders_or_fails_by_name(plot_dir, text, kind):
    (plot_dir / "in.jsonl").write_text(text, encoding="utf-8")
    _parses_or_fails_by_name(lambda: emit_plot(kind, plot_dir / "in.jsonl", plot_dir / "out.svg"))


# sha256 of the SVG that ``emit_plot`` renders from each tiny dump. The
# inputs are dyadic or exact repr floats, so the bytes are the same on every
# platform, and a change to the dump format must leave every plot as it was.
TINY_SVG_SHA256 = {
    "attention": "4d356840c81115b480a6664359a70dbd138a376b329ca3fa3b298eaaea574743",
    "trajectories": "8bb619af15697193fedd6cbe3f91b98beaf40d3cfbdc9cf45ac59ff98faded63",
    "samples": "c1aad5747a1be669a2c9b826ee7ce8accfea51e191bcf1a2bc135e6d9c657390",
}


def test_tiny_dump_svgs_are_pinned(tmp_path):
    window = tiny_dump_window()
    # The last layer holds two heads with distinct weights, so the plot shows
    # which head, step and row it reads.
    attn = [np.full((1, 2, 2, 2), 0.1), np.arange(16.0).reshape(2, 2, 2, 2) / 16]
    pred = PredictionSet(np.array([[[[0.25, -0.5], [1.0, 0.5]], [[1e-17, 12.0], [2.0, 6.5]]],
                                   [[[0.5, -1.5], [0.75, -2.0]], [[-1.0, 3.0], [-1.5, 2.5]]]]))
    write_attention_dump(tmp_path / "attn", window, attn, 2)
    write_trajectory_dump(tmp_path / "traj", window, PredictionSet(pred.trajectories[:, :, 1:]), 2)
    # One observed step leaves two future steps, so each sample is a dashed line.
    write_trajectory_dump(tmp_path / "samples", window, pred, 1)
    for kind, src in [("attention", "attn"), ("trajectories", "traj"), ("samples", "samples")]:
        svg = emit_plot(kind, tmp_path / src, tmp_path / f"{kind}.svg").read_bytes()
        assert hashlib.sha256(svg).hexdigest() == TINY_SVG_SHA256[kind], kind


SEPARATOR_IDS = {
    "\n": "n", "\r\n": "rn", "\r": "r", "\v": "v", "\f": "f", "\x1c": "x1c", "\x1d": "x1d",
    "\x1e": "x1e", "\x85": "x85", "\u2028": "u2028", "\u2029": "u2029",
    "\t": "t", ":": "colon", '"': "quote", "\\": "backslash",
}
SEPARATORS = LINE_BREAKS + IN_LINE_SEPARATORS + ["\t", ":", '"', "\\"]


@pytest.mark.parametrize("sep", SEPARATORS, ids=[SEPARATOR_IDS[sep] for sep in SEPARATORS])
def test_dumps_round_trip_a_scene_name_with_a_separator(tmp_path, sep):
    # json.dumps escapes the name, so nothing in it can end the record's line.
    tiny = tiny_dump_window()
    scene = f"b{sep}b"
    window = SequenceWindow(scene, tiny.start_frame, tiny.positions, tiny.ped_ids)
    traj_in, attn_in = tmp_path / "traj.jsonl", tmp_path / "attn.jsonl"
    write_trajectory_dump(traj_in, window, TINY_PRED, 2)
    write_attention_dump(attn_in, window, TINY_ATTENTION, 2)
    traj = parse_trajectory_dump(traj_in.read_text(encoding="utf-8"))
    attn = parse_attention_dump(attn_in.read_text(encoding="utf-8"))
    assert traj["scene"] == attn["scene"] == scene
    assert traj["positions"].tolist() == tiny.positions.tolist()
    assert traj["samples"].tolist() == TINY_PRED.trajectories.tolist()
    assert [layer.tolist() for layer in attn["attention"]] == [a.tolist() for a in TINY_ATTENTION]
    for kind, src in [("trajectories", traj_in), ("samples", traj_in), ("attention", attn_in)]:
        assert emit_plot(kind, src, tmp_path / f"{kind}.svg").read_text().startswith("<svg")


def test_dump_writers(tmp_path, crossing_setup):
    cfg, _, window, attn, pred = crossing_setup
    a, t = tmp_path / "a.jsonl", tmp_path / "t.jsonl"
    write_attention_dump(a, window, attn, cfg.t_obs)
    write_trajectory_dump(t, window, pred, cfg.t_obs)
    for path, kind in [(a, "attention"), (t, "trajectories")]:
        text = path.read_text()
        assert text.startswith(f'{{"kind": "{kind}", "scene": "crossing", "start_frame": 0, ')
        assert text.endswith("]}\n") and text.count("\n") == 1


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
    # The plot reads row 0 of head 0 in the last layer at the last step. A
    # last layer without that step is refused by name, not drawn from another.
    cfg, _, window, attn, _ = crossing_setup
    record = json.loads(format_attention_dump(window, attn, cfg.t_obs))
    record["attention"][-1] = [head[:-1] for head in record["attention"][-1]]
    n = window.n_peds
    with pytest.raises(ParseError) as err:
        render_attention(json.dumps(record))
    assert str(err.value) == (f"line 1: attention layer {len(attn) - 1} must be a "
                              f"[*, {cfg.t_obs}, {n}, {n}] array of floats")


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
