"""Parsing, resampling, windowing, splits, and feature construction."""

import codecs
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from graphtcn import data as D
from graphtcn.config import ModelConfig
from graphtcn.dumps import parse_trajectory_dump
from graphtcn.errors import (
    ConfigError,
    ContractError,
    DataError,
    DuplicateRecordError,
    GraphTCNError,
    ParseError,
)
from graphtcn.fixtures import write_synthetic_scenes
from oracles import windows_oracle

COMMITTED_SCENES = Path(__file__).resolve().parent.parent / "data" / "synthetic"


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scenes")
    write_synthetic_scenes(out)
    return out


class TestParse:
    def test_basic_line(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("0 1 7.23 4.91\n")
        assert D.parse_trajectory_file(p) == _scene([(0, 1, 7.23, 4.91)])

    def test_empty_file(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("")
        assert D.parse_trajectory_file(p) == {}

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("# header\n\n10 2 1.0 2.0\n   \n# trailing\n")
        assert D.parse_trajectory_file(p) == _scene([(10, 2, 1.0, 2.0)])

    def test_float_formatted_ids_accepted(self, tmp_path):
        # Public dumps often write "840.0 1.0 ...".
        p = tmp_path / "s.txt"
        p.write_text("840.0 1.0 8.46 3.59\n")
        assert D.parse_trajectory_file(p) == _scene([(840, 1, 8.46, 3.59)])

    def test_frames_past_two_to_the_53_stay_apart(self, tmp_path):
        # float reads both as 2**53, which made them one duplicate record.
        p = tmp_path / "s.txt"
        p.write_text("9007199254740992 1 0.0 0.0\n9007199254740993 1 1.0 0.0\n")
        assert list(D.parse_trajectory_file(p)) == [9007199254740992, 9007199254740993]

    def test_lone_frame_past_two_to_the_53_keeps_its_frame(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("9007199254740993 1 0.0 0.0\n")
        assert list(D.parse_trajectory_file(p)) == [9007199254740993]

    def test_float_formatted_id_past_two_to_the_53_is_exact(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("9007199254740993.0 9007199254740995.0 0.0 0.0\n")
        expected = _scene([(9007199254740993, 9007199254740995, 0.0, 0.0)])
        assert D.parse_trajectory_file(p) == expected

    @pytest.mark.parametrize("token,value", [
        ("1e3", 1000), ("8.4e2", 840), ("-0", 0), ("100000000000000000000", 10**20)])
    def test_id_is_the_integer_its_text_denotes(self, tmp_path, token, value):
        p = tmp_path / "s.txt"
        p.write_text(f"{token} {token} 0.0 0.0\n")
        assert D.parse_trajectory_file(p) == _scene([(value, value, 0.0, 0.0)])

    @pytest.mark.parametrize("token,message", [
        ("abc", "is not numeric"), ("840.0000000000000001", "is not an integer"),
        ("nan", "is not an integer"), ("inf", "is not an integer"),
        ("1e999999999", "is not an integer"), ("1e-99999999999999999999", "is not an integer"),
        ("-1", "must be non-negative"), ("-1.0", "must be non-negative")])
    def test_id_that_is_not_an_integer_is_refused(self, tmp_path, token, message):
        p = tmp_path / "s.txt"
        p.write_text(f"{token} 1 0.0 0.0\n")
        with pytest.raises(ParseError, match=f"line 1: frame .*{message}"):
            D.parse_trajectory_file(p)

    def test_malformed_coordinate(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("0 1 abc 4\n")
        with pytest.raises(ParseError, match="line 1"):
            D.parse_trajectory_file(p)

    def test_universal_newlines(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_bytes(b"0 1 1.0 2.0\r\n1 1 1.5 2.0\r2 1 2.0 2.0\n")
        assert list(D.parse_trajectory_file(p)) == [0, 1, 2]

    def test_non_utf8_bytes_name_the_file_and_offset(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_bytes(b"0 1 1.0 2.0\n1 1 \xff 2.0\n")
        with pytest.raises(ParseError, match=r"s\.txt: invalid UTF-8 at byte offset 16"):
            D.parse_trajectory_file(p)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        body = b"0 1 1.0 2.0\n10 1 1.5 2.5\n10 2 3.0 4.0\n"
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(body)
        marked.write_bytes(codecs.BOM_UTF8 + body)
        assert D.parse_trajectory_file(marked) == D.parse_trajectory_file(plain)

    def test_bad_byte_after_a_byte_order_mark_names_its_file_offset(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_bytes(codecs.BOM_UTF8 + b"0 1 \xff 2.0\n")
        with pytest.raises(ParseError, match=r"s\.txt: invalid UTF-8 at byte offset 7"):
            D.parse_trajectory_file(p)

    @pytest.mark.parametrize("row", ["0 1 2.0", "0 1 2.0 3.0 4.0", "10 1 1.5 0.0 2.5 0.1 0 0.1"],
                             ids=["3", "5", "8"])
    def test_wrong_field_count(self, tmp_path, row):
        # Only frame, id, x and y: an extra column (ETH obsmat's height,
        # here 0.0) would otherwise be dropped or read as a coordinate.
        p = tmp_path / "s.txt"
        p.write_text(row + "\n")
        with pytest.raises(ParseError, match=f"^line 1: expected 4 fields, got {len(row.split())}$"):
            D.parse_trajectory_file(p)

    def test_fractional_frame_rejected(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("0.5 1 2.0 3.0\n")
        with pytest.raises(ParseError):
            D.parse_trajectory_file(p)

    def test_duplicate_frame_ped(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("0 1 2.0 3.0\n0 1 2.5 3.5\n")
        with pytest.raises(DuplicateRecordError, match="line 2"):
            D.parse_trajectory_file(p)

    def test_order_preserved(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("20 1 0 0\n0 1 1 1\n10 2 2 2\n")
        assert list(D.parse_trajectory_file(p)) == [20, 0, 10]

    def test_frames_out_of_order_parse_to_every_row_once(self, tmp_path):
        # Frames 20 and 0 each come back after another frame's row.
        rows = [(20, 5, 0.5, 0.0), (0, 1, 1.0, 1.0), (20, 2, 2.0, 2.0), (10, 2, 3.0, 3.0),
                (0, 3, 4.0, 4.0), (20, 1, 5.0, 5.0)]
        p = tmp_path / "s.txt"
        p.write_text("".join(f"{f} {i} {x} {y}\n" for f, i, x, y in rows))
        scene = D.parse_trajectory_file(p)
        parsed = [(f, i, *xy) for f, peds in scene.items() for i, xy in peds.items()]
        # Grouped by frame in order of first row, each frame's rows in line order.
        assert parsed == [rows[i] for i in (0, 2, 5, 1, 4, 3)]
        assert scene == _scene(rows)


LINE_BREAKS = ["\n", "\r\n", "\r"]
# Characters str.splitlines also breaks at; in a text file they are no line end.
IN_LINE_SEPARATORS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _read_scene_text(tmp_path, text):
    p = tmp_path / "s.txt"
    p.write_bytes(text.encode("utf-8"))
    D.parse_trajectory_file(p)


@pytest.mark.parametrize("reader, message", [
    (_read_scene_text, "expected 4 fields, got 2"),
    (lambda _, text: ModelConfig.from_text(text), "expected 'key = value', got 'bad row'"),
    (lambda _, text: parse_trajectory_dump(text),
     "not a JSON record: Expecting value at column 1"),
], ids=["scene", "config", "dump"])
@pytest.mark.parametrize("sep", LINE_BREAKS + IN_LINE_SEPARATORS,
                         ids=lambda sep: sep.encode("unicode_escape").decode())
def test_every_reader_numbers_physical_lines(tmp_path, reader, message, sep):
    # Line 1 is a comment ending in the separator; a line break ends it
    # there, any other separator is part of it and "\n" ends it.
    first = "# one" + sep + ("" if sep in LINE_BREAKS else "\n")
    with pytest.raises(GraphTCNError) as err:
        reader(tmp_path, first + "bad row\n")
    assert str(err.value) == f"line 2: {message}"


def _rec(frame, ped=1, x=0.0, y=0.0):
    return frame, ped, x, y


def _scene(rows):
    """The ``{frame: {ped_id: (x, y)}}`` map of ``(frame, ped_id, x, y)``
    rows, inserted in row order, as parse_trajectory_file builds it."""
    scene = {}
    for frame, ped, x, y in rows:
        scene.setdefault(frame, {})[ped] = (x, y)
    return scene


def _oracle_key(scene, t_obs, t_pred, stride, frame_step):
    """The oracle's windows as ``_windows_key`` lists them, or DataError
    where the oracle rejects the scene."""
    wins = windows_oracle(scene, t_obs, t_pred, stride, frame_step)
    return DataError if wins is None else [(start, ids, pos.tobytes()) for start, ids, pos in wins]


def _windows_key(scene, t_obs, t_pred, stride, frame_step):
    """extract_windows' windows as (start_frame, ped_ids, position bytes),
    or DataError if it raises one."""
    try:
        return TestFrameGrid._key(
            D.extract_windows(scene, t_obs, t_pred, stride, frame_step=frame_step))
    except DataError:
        return DataError


class TestResample:
    """The frames a window's rows read, frame_step apart."""

    @staticmethod
    def _row_frames(recs, t_obs, t_pred, frame_step):
        # Each test record carries its frame in x.
        (w,) = D.extract_windows(_scene(recs), t_obs, t_pred, frame_step=frame_step)
        return w.positions[0, :, 0].tolist()

    def test_full_grid_kept(self):
        recs = [_rec(f, x=float(f)) for f in (0, 10, 20, 30)]
        assert self._row_frames(recs, 2, 2, 10) == [0.0, 10.0, 20.0, 30.0]

    def test_step_one_identity(self):
        recs = [_rec(f, x=float(f)) for f in (3, 4, 5, 6)]
        assert self._row_frames(recs, 2, 2, 1) == [3.0, 4.0, 5.0, 6.0]

    def test_off_grid_dropped(self):
        recs = [_rec(f, x=float(f)) for f in (0, 5, 10)]
        assert self._row_frames(recs, 1, 1, 10) == [0.0, 10.0]

    def test_anchored_at_min_frame(self):
        recs = [_rec(f, x=float(f)) for f in (7, 17, 22, 27)]
        assert self._row_frames(recs, 2, 1, 10) == [7.0, 17.0, 27.0]

    def test_bad_step(self):
        with pytest.raises(ContractError):
            D.extract_windows(_scene([_rec(0)]), 8, 12, frame_step=0)


class TestWindows:
    def test_exact_span_single_window(self):
        recs = [_rec(f * 10, ped=1, x=float(f), y=0.0) for f in range(20)]
        wins = D.extract_windows(_scene(recs), 8, 12, 1)
        assert len(wins) == 1
        assert wins[0].n_peds == 1 and wins[0].positions.shape[1] == 20

    def test_partial_presence_excluded(self):
        recs = [_rec(f * 10, ped=1, x=float(f)) for f in range(20)]
        recs += [_rec(f * 10, ped=2, x=-1.0) for f in range(10)]
        wins = D.extract_windows(_scene(recs), 8, 12, 1)
        assert len(wins) == 1 and wins[0].ped_ids == [1]

    def test_21_frames_two_windows(self):
        recs = [_rec(f * 10, ped=1, x=float(f)) for f in range(21)]
        wins = D.extract_windows(_scene(recs), 8, 12, 1)
        assert len(wins) == 2
        assert [w.start_frame for w in wins] == [0, 10]

    def test_stride_advances_start(self):
        recs = [_rec(f * 10, ped=1, x=float(f)) for f in range(26)]
        wins = D.extract_windows(_scene(recs), 8, 12, 3)
        assert [w.start_frame for w in wins] == [0, 30, 60]

    def test_empty_gap_blocks_windows(self):
        # Nobody recorded at frame 100: no window may bridge it.
        recs = [_rec(f * 10, ped=1, x=float(f)) for f in range(25) if f != 10]
        wins = D.extract_windows(_scene(recs), 4, 4, 1)
        assert all(not (w.start_frame <= 100 <= w.start_frame + 7 * 10) for w in wins)

    def test_positions_copied_exactly(self):
        rng = np.random.default_rng(0)
        coords = {(f, p): tuple(rng.normal(size=2)) for f in range(20) for p in (1, 2)}
        recs = [(f * 10, p, *coords[(f, p)]) for f in range(20) for p in (1, 2)]
        wins = D.extract_windows(_scene(recs), 8, 12, 1)
        (w,) = wins
        for i, pid in enumerate(w.ped_ids):
            for t in range(20):
                assert tuple(w.positions[i, t]) == coords[(t, pid)]

    def test_ped_ids_sorted(self):
        recs = []
        for f in range(20):
            recs += [_rec(f * 10, ped=9, x=1.0), _rec(f * 10, ped=2, x=2.0)]
        (w,) = D.extract_windows(_scene(recs), 8, 12, 1)
        assert w.ped_ids == [2, 9]

    @given(st.integers(20, 60), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_window_count_formula_with_spanning_ped(self, n_frames, stride):
        recs = [_rec(f * 10, ped=1, x=float(f)) for f in range(n_frames)]
        wins = D.extract_windows(_scene(recs), 8, 12, stride)
        n_starts = n_frames - 20 + 1
        assert len(wins) == (n_starts + stride - 1) // stride

    def test_empty_records(self):
        assert D.extract_windows({}, 8, 12, 1) == []

    @given(st.integers(0, 2**32 - 1), st.integers(1, 20), st.integers(1, 80), st.integers(0, 3),
           st.integers(1, 40), st.integers(0, 3), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    # Frames 42 and 43 at frame_step 2: no frame has a record frame_step
    # later, so both sides reject the scene.
    @example(seed=0, stored_step=1, n_frames=2, n_stray=0, frame_step=2, multiple=0, stride=1,
             t_obs=1, t_pred=1)
    def test_matches_the_oracle_on_sparse_scenes(self, seed, stored_step, n_frames, n_stray,
                                                 frame_step, multiple, stride, t_obs, t_pred):
        # Up to 6 pedestrians with ids far apart (so a set's own order is
        # not sorted), each kept at about 4 in 5 stored frames, plus stray
        # rows at any frame, on the stored lattice or off it. A nonzero
        # ``multiple`` steps by that multiple of the stored spacing, which
        # fits the data; any other frame_step mostly does not, and then
        # extract_windows must raise exactly where the oracle rejects.
        if multiple:
            frame_step = multiple * stored_step
        rng = np.random.default_rng(seed)
        base = int(rng.integers(0, 50))
        peds = rng.choice(10**6, size=int(rng.integers(1, 7)), replace=False)
        keys = {(base + k * stored_step, int(p)) for k in range(n_frames) for p in peds
                if rng.random() < 0.8}
        keys |= {(int(f), int(rng.choice(peds)))
                 for f in rng.integers(0, base + n_frames * stored_step + 1, size=n_stray)}
        recs = [(f, p, *rng.normal(size=2)) for f, p in sorted(keys)]
        rng.shuffle(recs)
        # Inserted in shuffled order: frames, and the ids within a frame,
        # arrive out of order.
        scene = _scene(recs)
        args = (scene, t_obs, t_pred, stride, frame_step)
        assert _windows_key(*args) == _oracle_key(*args)


class TestSplits:
    def test_five_scenes_five_splits(self):
        names = ["eth", "hotel", "univ", "zara1", "zara2"]
        splits = D.make_splits(names)
        assert len(splits) == 5
        for s, name in zip(splits, names):
            assert s.test_scene == name
            assert name not in s.train_scenes
            assert set(s.train_scenes) | {s.test_scene} == set(names)

    def test_two_scenes(self):
        assert len(D.make_splits(["a", "b"])) == 2

    def test_one_scene_rejected(self):
        with pytest.raises(ConfigError):
            D.make_splits(["only"])

    def test_duplicates_rejected(self):
        with pytest.raises(ConfigError):
            D.make_splits(["a", "a"])


class TestFeatures:
    def _window(self, positions):
        positions = np.asarray(positions, dtype=np.float64)
        return D.SequenceWindow("s", 0, positions, list(range(positions.shape[0])))

    def test_stationary_zero_deltas(self):
        pos = np.tile([[2.0, 3.0]], (1, 20, 1)).reshape(1, 20, 2)
        feats = D.build_features(self._window(pos), 8).data
        assert (feats[:, :, 2:] == 0.0).all()
        assert (feats[0, :, 0] == 2.0).all() and (feats[0, :, 1] == 3.0).all()

    def test_unit_step_feature(self):
        pos = np.zeros((1, 20, 2))
        pos[0, 1] = [1.0, 0.0]
        feats = D.build_features(self._window(pos), 8).data
        np.testing.assert_array_equal(feats[0, 1], [1.0, 0.0, 1.0, 0.0])

    def test_first_step_delta_zero(self):
        rng = np.random.default_rng(1)
        pos = rng.normal(size=(3, 20, 2))
        feats = D.build_features(self._window(pos), 8).data
        assert (feats[:, 0, 2:] == 0.0).all()

    def test_deltas_telescope_on_grid(self):
        # Dyadic coordinates make the telescoped sum exact in float64.
        rng = np.random.default_rng(2)
        pos = rng.integers(-4096, 4096, size=(4, 20, 2)) / 1024.0
        feats = D.build_features(self._window(pos), 8).data
        total = feats[:, 1:8, 2:].sum(axis=1)
        np.testing.assert_array_equal(total, pos[:, 7] - pos[:, 0])

    def test_t_obs_bounds_checked(self):
        w = self._window(np.zeros((1, 5, 2)))
        with pytest.raises(ContractError):
            D.build_features(w, 6)


class TestSceneLoading:
    def test_discover_scenes(self, scene_dir):
        names = D.discover_scenes(scene_dir)
        assert names == ["bench8", "crossing", "groupmerge", "linear", "zara1_like"]

    def test_directory_named_txt_is_no_scene(self, tmp_path):
        (tmp_path / "a.txt").write_text("0 1 0.0 0.0\n")
        (tmp_path / "junk.txt").mkdir()
        assert D.discover_scenes(tmp_path) == ["a"]

    def test_missing_dir(self, tmp_path):
        with pytest.raises(DataError):
            D.discover_scenes(tmp_path / "nope")

    def test_missing_scene_file(self, scene_dir):
        with pytest.raises(DataError):
            D.load_scene_windows(scene_dir, "ghost", 8, 12)

    def test_bundled_window_counts(self, scene_dir):
        expected = {"linear": 1, "crossing": 1, "groupmerge": 7, "zara1_like": 100, "bench8": 1}
        for name, count in expected.items():
            wins = D.load_scene_windows(scene_dir, name, 8, 12, stride=1, frame_step=10)
            assert len(wins) == count, name

    def test_bench8_has_eight_peds(self, scene_dir):
        (w,) = D.load_scene_windows(scene_dir, "bench8", 8, 12)
        assert w.n_peds == 8

    def test_load_windows_concatenates(self, scene_dir):
        wins = D.load_windows(scene_dir, ["linear", "groupmerge"], 8, 12)
        assert len(wins) == 8
        assert {w.scene_name for w in wins} == {"linear", "groupmerge"}

    def test_committed_fixtures_match_generator(self, scene_dir):
        committed = sorted((p.name, p.read_bytes()) for p in COMMITTED_SCENES.glob("*.txt"))
        fresh = sorted((p.name, p.read_bytes()) for p in scene_dir.glob("*.txt"))
        assert len(committed) == 5
        assert committed == fresh


class TestFrameGrid:
    """The frames windows stand on, for bundled scenes stored every 10th frame."""

    @staticmethod
    def _key(windows):
        return [(w.start_frame, w.ped_ids, w.positions.tobytes()) for w in windows]

    @staticmethod
    def _assert_on_grid(windows, path, step):
        """Row t of each window is the record at start_frame + t * step."""
        scene = D.parse_trajectory_file(path)
        for w in windows:
            for i, pid in enumerate(w.ped_ids):
                for t in range(w.positions.shape[1]):
                    assert tuple(w.positions[i, t]) == scene[w.start_frame + t * step][pid]

    def test_unit_step_gives_the_stored_grid(self, scene_dir):
        # Rows stand exactly frame_step frames apart: no recorded frame is
        # one frame after another, so a unit step fails by name, and only
        # the stored spacing gives the stored grid.
        for name in D.discover_scenes(scene_dir):
            with pytest.raises(DataError, match=f"^scene '{name}': .* frame_step = 1 apart; "
                               "the smallest gap between its frames is 10$"):
                D.load_scene_windows(scene_dir, name, 8, 12, frame_step=1)
            stored = D.load_scene_windows(scene_dir, name, 8, 12, frame_step=10)
            assert stored, name
            self._assert_on_grid(stored, scene_dir / f"{name}.txt", 10)

    def test_double_step_halves_the_grid(self, scene_dir):
        wins = D.load_scene_windows(scene_dir, "zara1_like", 8, 12, frame_step=20)
        assert len(wins) == 41
        self._assert_on_grid(wins, scene_dir / "zara1_like.txt", 20)

    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("frame_step", [1, 5, 10, 15, 20, 30])
    def test_bundled_scenes_match_the_oracle(self, scene_dir, frame_step, stride):
        # Both sides reject a step that is not a multiple of the stored 10.
        for name in D.discover_scenes(scene_dir):
            scene = D.parse_trajectory_file(scene_dir / f"{name}.txt")
            key = _windows_key(scene, 8, 12, stride, frame_step)
            assert (key is DataError) == (frame_step % 10 != 0), name
            assert key == _oracle_key(scene, 8, 12, stride, frame_step), name

    @pytest.mark.parametrize("frame_step", [10, 20])
    def test_no_window_bridges_a_gap(self, scene_dir, tmp_path, frame_step):
        # Cut frames 510..590 out of zara1_like: the windows left are
        # exactly the full scene's windows that stay clear of the cut.
        lines = (scene_dir / "zara1_like.txt").read_text().splitlines(keepends=True)
        kept = [ln for ln in lines if not 500 < int(ln.split()[0]) < 600]
        (tmp_path / "gappy.txt").write_text("".join(kept))
        full = D.load_scene_windows(scene_dir, "zara1_like", 8, 12, frame_step=frame_step)
        gappy = D.load_scene_windows(tmp_path, "gappy", 8, 12, frame_step=frame_step)
        clear = [w for w in full
                 if w.start_frame + 19 * frame_step <= 500 or w.start_frame >= 600]
        assert len(clear) < len(full)
        assert self._key(gappy) == self._key(clear)


    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("frame_step", [10, 20])
    def test_a_far_frame_adds_no_window(self, scene_dir, frame_step, stride):
        # One more record at frame 10**20, on the kept lattice, shares no
        # window: the windows are the scene's own, and the frames between
        # are never visited.
        scene = D.parse_trajectory_file(scene_dir / "zara1_like.txt")
        far = {**scene, **_scene([(10**20, 1, 0.0, 0.0)])}
        wins = D.extract_windows(far, 8, 12, stride, frame_step=frame_step)
        assert wins and self._key(wins) == self._key(
            D.extract_windows(scene, 8, 12, stride, frame_step=frame_step))


class TestGridSpacing:
    """Grid spacing on dense, sparse and off-lattice scenes.

    Rows stand exactly ``frame_step`` frames apart, from the first frame
    that yields a window. A scene whose frames hold no such pair fails by
    name rather than yield no windows.
    """

    @pytest.fixture
    def dense_dir(self, tmp_path):
        # Two walkers recorded at every frame from 0 to 299.
        rows = [f"{f} {p} {f / 8 + p} {p / 2}\n" for f in range(300) for p in (1, 2)]
        (tmp_path / "dense.txt").write_text("".join(rows))
        return tmp_path

    @pytest.mark.parametrize("frame_step,count", [(1, 281), (10, 11), (15, 1)])
    def test_dense_scene(self, dense_dir, frame_step, count):
        wins = D.load_scene_windows(dense_dir, "dense", 8, 12, frame_step=frame_step)
        assert len(wins) == count
        assert all(w.ped_ids == [1, 2] for w in wins)
        TestFrameGrid._assert_on_grid(wins, dense_dir / "dense.txt", frame_step)

    def test_step_off_the_stored_grid(self, scene_dir):
        # The 15-frame lattice meets the 10-frame records every 30 frames,
        # but no record lies 15 frames after another: 15 fails, and 30
        # gives the windows on that coarser grid.
        with pytest.raises(DataError, match="^scene 'zara1_like': .* frame_step = 15 apart; "
                           "the smallest gap between its frames is 10$"):
            D.load_scene_windows(scene_dir, "zara1_like", 8, 12, frame_step=15)
        wins = D.load_scene_windows(scene_dir, "zara1_like", 8, 12, frame_step=30)
        assert len(wins) == 21
        TestFrameGrid._assert_on_grid(wins, scene_dir / "zara1_like.txt", 30)

    def test_one_off_grid_record_narrows_the_unit_grid(self, tmp_path):
        # Records every 10th frame plus one at frame 25: at frame_step=1
        # no record lies one frame after another, and the message gives the
        # 5-frame gap; at 10 the stray record is off the lattice.
        rows = [f"{f * 10} 1 {f} 0\n" for f in range(40)] + ["25 2 0 0\n"]
        (tmp_path / "extra.txt").write_text("".join(rows))
        with pytest.raises(DataError, match="^scene 'extra': .* frame_step = 1 apart; "
                           "the smallest gap between its frames is 5$"):
            D.load_scene_windows(tmp_path, "extra", 8, 12, frame_step=1)
        assert len(D.load_scene_windows(tmp_path, "extra", 8, 12, frame_step=10)) == 21

    @pytest.mark.parametrize("strays", [(3,), (3, 13)])
    def test_a_stray_row_before_the_first_window_moves_nothing(self, strays):
        # Two walkers at frames 10..400, every 10th frame: 21 windows. A
        # stray row at frame 3 (and 13) starts no window, so the windows
        # stay the same to the byte; anchored at the earliest row, the
        # lattice 3, 13, ... gave none.
        walkers = _scene([(10 * t, p, t / 4, p) for t in range(1, 41) for p in (1, 2)])
        wins = D.extract_windows(walkers, 8, 12, frame_step=10)
        assert len(wins) == 21
        stray = {**walkers, **_scene([(f, 9, 0.0, 0.0) for f in strays])}
        assert min(stray) == 3
        key = TestFrameGrid._key(D.extract_windows(stray, 8, 12, frame_step=10))
        assert key == TestFrameGrid._key(wins)

    def test_stride_counts_from_the_first_window(self):
        # Frame 0 starts no window (frame 10 is missing), so the first
        # window starts at 20 and the stride-3 starts follow every 30
        # frames from there, not from the earliest row.
        scene = _scene([(0, 1, 0.0, 0.0)] + [(f, 1, f / 40, 0.0) for f in range(20, 410, 10)])
        wins = D.extract_windows(scene, 8, 12, 3, frame_step=10)
        assert [w.start_frame for w in wins] == [20, 50, 80, 110, 140, 170, 200]
        assert _windows_key(scene, 8, 12, 3, 10) == _oracle_key(scene, 8, 12, 3, 10)

    @pytest.mark.parametrize("frame_step,count", [(6, 181), (30, 21), (10, None), (1, None)])
    def test_data_stored_every_6th_frame(self, tmp_path, frame_step, count):
        # Two walkers over 200 steps stored every 6th frame: the stored
        # spacing and its multiples step exactly frame_step frames; the
        # default 10 and 1 find no record frame_step after another and fail
        # by name instead of stepping 30 or 6 frames.
        rows = [f"{6 * t} {p} {t / 4} {p}\n" for t in range(200) for p in (1, 2)]
        (tmp_path / "six.txt").write_text("".join(rows))
        if count is None:
            with pytest.raises(DataError, match=f"^scene 'six': .* frame_step = {frame_step} "
                               "apart; the smallest gap between its frames is 6$"):
                D.load_scene_windows(tmp_path, "six", 8, 12, frame_step=frame_step)
            return
        wins = D.load_scene_windows(tmp_path, "six", 8, 12, frame_step=frame_step)
        assert len(wins) == count and all(w.ped_ids == [1, 2] for w in wins)
        TestFrameGrid._assert_on_grid(wins, tmp_path / "six.txt", frame_step)


@st.composite
def edited(draw, original, units):
    """``original`` (bytes or str) after 0-3 edits, each inserting a unit
    drawn from ``units`` before a position, deleting one or overwriting one."""
    out = list(original)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(out) - 1))
        how = draw(st.sampled_from(["insert", "delete", "overwrite"]))
        out[i:i + (how != "insert")] = [] if how == "delete" else [draw(units)]
    return bytes(out) if isinstance(original, bytes) else "".join(out)


# Bytes a scene row is made of, and a few that break one: a line break, a
# comment mark and a byte that is not UTF-8.
SCENE_BYTES = st.sampled_from(b"0123456789.-+eE \t\r\n#\xff") | st.integers(0, 255)


@pytest.fixture(scope="module")
def fuzzed_scene(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "scene.txt"


@given(edited((COMMITTED_SCENES / "groupmerge.txt").read_bytes(), SCENE_BYTES))
@settings(max_examples=200, deadline=None)
def test_edited_scene_file_loads_or_fails_by_name(fuzzed_scene, scene):
    # A scene file comes from outside the program: whatever its bytes, it
    # parses and windows, or fails with a GraphTCNError naming the fault.
    fuzzed_scene.write_bytes(scene)
    try:
        parsed = D.parse_trajectory_file(fuzzed_scene)
        for frame_step in (10, 20):
            D.extract_windows(parsed, 8, 12, frame_step=frame_step)
    except GraphTCNError:
        pass
