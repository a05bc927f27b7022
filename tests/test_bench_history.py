"""Committed benchmark records (bench_history/BENCH_*.json) against
BENCHMARK.json: the same workloads and end-to-end metrics, with units.

Nothing here checks a timing; test_09 stays the only timing gate.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
FILES = sorted((ROOT / "bench_history").glob("BENCH_*.json"))
SIDES = ("parent", "change")


def load_record_module():
    spec = importlib.util.spec_from_file_location("record", ROOT / "bench_history" / "record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_at_least_one_record_is_committed():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_record_matches_benchmark_spec(path):
    rec = json.loads(path.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert rec["command"] == SPEC["command"]
    assert set(rec["commits"]) == set(SIDES)
    assert set(rec["environment"]) == {"python", "numpy", "platform", "nproc"}
    seeds = rec["seeds"]
    assert len(seeds) >= 5 and len(set(seeds)) == len(seeds)
    assert rec["run_seconds"] >= 8
    assert list(rec["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, entry in rec["workloads"].items():
        for side in SIDES:
            assert {m: s["unit"] for m, s in entry[side].items()} == units, (name, side)
            for metric, s in entry[side].items():
                assert len(s["runs"]) == len(seeds), (name, side, metric)
                assert s["q1"] <= s["median"] <= s["q3"], (name, side, metric)
            assert len(entry["correct"][side]) == len(entry["failed"][side]) == len(seeds)
        assert set(entry["change_won_pairs"]) == set(units)
        assert all(0 <= n <= len(seeds) for n in entry["change_won_pairs"].values())


def test_recorder_alternates_sides_and_counts_won_pairs(monkeypatch, tmp_path):
    record = load_record_module()
    calls = []

    def fake_run(checkout, command, workload, seed, seconds):
        side = "parent" if checkout == tmp_path / "p" else "change"
        calls.append((workload, seed, side))
        # The change is faster on every seed but the last, and uses more memory.
        fast = side == "change" and seed != 3
        metrics = {m["name"]: {"value": (0.5 if fast else 1.0) * (seed if m["better"] == "lower"
                                                                    else 1.0 / seed),
                               "unit": m["unit"]} for m in SPEC["end_to_end"]}
        metrics["peak_rss_mb"]["value"] = 50.0 if side == "change" else 40.0
        return {"correct": True, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(record, "run_once", fake_run)
    rec = record.record(SPEC, tmp_path / "p", tmp_path / "c", [1, 2, 3], 8.0, log=lambda _: None)
    first = SPEC["workloads"][0]["name"]
    assert calls[:6] == [(first, 1, "parent"), (first, 1, "change"), (first, 2, "change"),
                         (first, 2, "parent"), (first, 3, "parent"), (first, 3, "change")]
    won = rec["workloads"][first]["change_won_pairs"]
    assert won["call_ms_p50"] == 2 and won["peak_rss_mb"] == 0
    assert won["calls_per_s"] == 0     # higher is better; the fake halves it where it is faster
    assert rec["workloads"][first]["parent"]["call_ms_p50"]["median"] == 2.0


def test_recorder_reports_progress_on_stderr(monkeypatch, capsys, tmp_path):
    record = load_record_module()
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in SPEC["end_to_end"]}
    monkeypatch.setattr(record, "run_once",
                        lambda *_: {"correct": True, "failed": 0, "metrics": metrics})
    record.record(SPEC, tmp_path / "p", tmp_path / "c", [1, 2], 8.0)
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert out == ""
    assert len(lines) == 2 * 2 * len(SPEC["workloads"])
    assert lines[0] == f"{SPEC['workloads'][0]['name']} seed 1 parent: correct True, call_ms_p50 1"
