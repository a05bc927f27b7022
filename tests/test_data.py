"""Parsing, resampling, windowing, splits, and feature construction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphtcn import data as D
from graphtcn.errors import (
    ConfigError,
    ContractError,
    DataError,
    DuplicateRecordError,
    ParseError,
)
from graphtcn.fixtures import write_synthetic_scenes


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scenes")
    write_synthetic_scenes(out)
    return out


class TestParse:
    def test_basic_line(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("0 1 7.23 4.91\n")
        recs = D.parse_trajectory_file(p)
        assert recs == [D.RawRecord(0, 1, 7.23, 4.91)]

    def test_empty_file(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("")
        assert D.parse_trajectory_file(p) == []

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("# header\n\n10 2 1.0 2.0\n   \n# trailing\n")
        recs = D.parse_trajectory_file(p)
        assert len(recs) == 1 and recs[0].frame == 10

    def test_float_formatted_ids_accepted(self, tmp_path):
        # Public dumps often write "840.0 1.0 ...".
        p = tmp_path / "s.txt"
        p.write_text("840.0 1.0 8.46 3.59\n")
        recs = D.parse_trajectory_file(p)
        assert recs[0].frame == 840 and recs[0].ped_id == 1

    def test_malformed_coordinate(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("0 1 abc 4\n")
        with pytest.raises(ParseError, match="line 1"):
            D.parse_trajectory_file(p)

    def test_too_few_fields(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("0 1 2.0\n")
        with pytest.raises(ParseError, match="line 1"):
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
        recs = D.parse_trajectory_file(p)
        assert [r.frame for r in recs] == [20, 0, 10]


def _rec(frame, ped=1, x=0.0, y=0.0):
    return D.RawRecord(frame, ped, x, y)


class TestResample:
    def test_full_grid_kept(self):
        recs = [_rec(f) for f in (0, 10, 20, 30)]
        assert len(D.resample_frames(recs, 10)) == 4

    def test_step_one_identity(self):
        recs = [_rec(f) for f in (3, 4, 7)]
        assert D.resample_frames(recs, 1) == recs

    def test_off_grid_dropped(self):
        recs = [_rec(f) for f in (0, 5, 10)]
        kept = D.resample_frames(recs, 10)
        assert [r.frame for r in kept] == [0, 10]

    def test_anchored_at_min_frame(self):
        recs = [_rec(f) for f in (7, 17, 22, 27)]
        kept = D.resample_frames(recs, 10)
        assert [r.frame for r in kept] == [7, 17, 27]

    def test_bad_step(self):
        with pytest.raises(ContractError):
            D.resample_frames([_rec(0)], 0)


class TestWindows:
    def test_exact_span_single_window(self):
        recs = [_rec(f * 10, ped=1, x=float(f), y=0.0) for f in range(20)]
        wins = D.extract_windows(recs, 8, 12, 1)
        assert len(wins) == 1
        assert wins[0].n_peds == 1 and wins[0].t_total == 20

    def test_partial_presence_excluded(self):
        recs = [_rec(f * 10, ped=1, x=float(f)) for f in range(20)]
        recs += [_rec(f * 10, ped=2, x=-1.0) for f in range(10)]
        wins = D.extract_windows(recs, 8, 12, 1)
        assert len(wins) == 1 and wins[0].ped_ids == [1]

    def test_21_frames_two_windows(self):
        recs = [_rec(f * 10, ped=1, x=float(f)) for f in range(21)]
        wins = D.extract_windows(recs, 8, 12, 1)
        assert len(wins) == 2
        assert [w.start_frame for w in wins] == [0, 10]

    def test_stride_advances_start(self):
        recs = [_rec(f * 10, ped=1, x=float(f)) for f in range(26)]
        wins = D.extract_windows(recs, 8, 12, 3)
        assert [w.start_frame for w in wins] == [0, 30, 60]

    def test_empty_gap_blocks_windows(self):
        # Nobody recorded at frame 100: no window may bridge it.
        recs = [_rec(f * 10, ped=1, x=float(f)) for f in range(25) if f != 10]
        wins = D.extract_windows(recs, 4, 4, 1)
        assert all(not (w.start_frame <= 100 <= w.start_frame + 7 * 10) for w in wins)

    def test_positions_copied_exactly(self):
        rng = np.random.default_rng(0)
        coords = {(f, p): tuple(rng.normal(size=2)) for f in range(20) for p in (1, 2)}
        recs = [D.RawRecord(f * 10, p, *coords[(f, p)]) for f in range(20) for p in (1, 2)]
        wins = D.extract_windows(recs, 8, 12, 1)
        (w,) = wins
        for i, pid in enumerate(w.ped_ids):
            for t in range(20):
                assert tuple(w.positions[i, t]) == coords[(t, pid)]

    def test_ped_ids_sorted(self):
        recs = []
        for f in range(20):
            recs += [_rec(f * 10, ped=9, x=1.0), _rec(f * 10, ped=2, x=2.0)]
        (w,) = D.extract_windows(recs, 8, 12, 1)
        assert w.ped_ids == [2, 9]

    @given(st.integers(20, 60), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_window_count_formula_with_spanning_ped(self, n_frames, stride):
        recs = [_rec(f * 10, ped=1, x=float(f)) for f in range(n_frames)]
        wins = D.extract_windows(recs, 8, 12, stride)
        n_starts = n_frames - 20 + 1
        assert len(wins) == (n_starts + stride - 1) // stride

    def test_empty_records(self):
        assert D.extract_windows([], 8, 12, 1) == []


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
        committed = sorted((p.name, p.read_bytes()) for p in
                           __import__("pathlib").Path("data/synthetic").glob("*.txt"))
        fresh = sorted((p.name, p.read_bytes()) for p in scene_dir.glob("*.txt"))
        assert committed == fresh


class TestFrameGrid:
    """The frames windows stand on, for bundled scenes stored every 10th frame."""

    @staticmethod
    def _key(windows):
        return [(w.start_frame, w.ped_ids, w.positions.tobytes()) for w in windows]

    @staticmethod
    def _assert_on_grid(windows, path, step):
        """Row t of each window is the record at start_frame + t * step."""
        at = {(r.frame, r.ped_id): (r.x, r.y) for r in D.parse_trajectory_file(path)}
        for w in windows:
            for i, pid in enumerate(w.ped_ids):
                for t in range(w.t_total):
                    assert tuple(w.positions[i, t]) == at[(w.start_frame + t * step, pid)]

    def test_unit_step_gives_the_stored_grid(self, scene_dir):
        for name in D.discover_scenes(scene_dir):
            dense = D.load_scene_windows(scene_dir, name, 8, 12, frame_step=1)
            stored = D.load_scene_windows(scene_dir, name, 8, 12, frame_step=10)
            assert dense and self._key(dense) == self._key(stored), name
            self._assert_on_grid(dense, scene_dir / f"{name}.txt", 10)

    def test_double_step_halves_the_grid(self, scene_dir):
        wins = D.load_scene_windows(scene_dir, "zara1_like", 8, 12, frame_step=20)
        assert len(wins) == 41
        self._assert_on_grid(wins, scene_dir / "zara1_like.txt", 20)

    @pytest.mark.parametrize("frame_step", [1, 10])
    def test_no_window_bridges_a_gap(self, scene_dir, tmp_path, frame_step):
        # Cut frames 510..590 out of zara1_like: the windows left are
        # exactly the full scene's windows that stay clear of the cut.
        lines = (scene_dir / "zara1_like.txt").read_text().splitlines(keepends=True)
        kept = [ln for ln in lines if not 500 < int(ln.split()[0]) < 600]
        (tmp_path / "gappy.txt").write_text("".join(kept))
        full = D.load_scene_windows(scene_dir, "zara1_like", 8, 12, frame_step=frame_step)
        gappy = D.load_scene_windows(tmp_path, "gappy", 8, 12, frame_step=frame_step)
        clear = [w for w in full if w.start_frame + 19 * 10 <= 500 or w.start_frame >= 600]
        assert len(clear) < len(full)
        assert self._key(gappy) == self._key(clear)
