"""Smoke test of the stage bench script: it runs every stage at a small prime
and writes a BENCH file with one row per prime and worker count, each with
count_tc's pair count and the residues the buckets leave out."""

import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from dlcensus.census import build_ha_buckets
from dlcensus.residue_tables import build_tables

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("build_tables", "build_ha_buckets", "count_fp", "count_ha", "count_tc")


def test_stages_writes_bench_file(tmp_path):
    env = dict(os.environ, PYTHONPATH="src")
    result = subprocess.run(
        [sys.executable, "bench/stages.py", "--tag", "smoke", "--repeat", "1",
         "--primes", "10007", "--workers", "1", "2", "--out-dir", str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr.decode()
    document = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert document["tag"] == "smoke"
    rows = document["results"]
    assert [(row["p"], row["workers"]) for row in rows] == [(10007, 1), (10007, 2)]
    for row in rows:
        assert tuple(row["stages"]) == STAGES
        for stage in row["stages"].values():
            assert stage["seconds"] >= 0 and stage["peak_bytes_per_residue"] > 0
        assert row["stages"]["build_tables"]["retained_bytes_per_residue"] >= 11
        assert row["child_peak_rss_mib"] > 0
    t = build_tables(10007)
    offsets = [int(x) for x in build_ha_buckets(t).offsets]
    sizes = [hi - lo for lo, hi in zip(offsets, offsets[1:])]
    keys = Counter(x * int(t.ind[x]) % t.n for x in range(1, t.p))
    unshared = sum(1 for count in keys.values() if count == 1)
    assert unshared > 0
    for row in rows:
        assert row["tc_pairs"] == sum(s * (s - 1) // 2 for s in sizes)
        assert row["unpaired_residues"] == unshared


def test_missing_out_dir_fails_before_any_stage(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("stages", ROOT / "bench" / "stages.py")
    stages = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stages)

    def stage(*args):
        raise AssertionError("a stage ran")
    monkeypatch.setattr(stages, "child_peak_rss_mib", stage)
    monkeypatch.setattr(stages, "measure", stage)
    with pytest.raises(SystemExit) as exit_info:
        stages.main(["--tag", "x", "--primes", "10007", "--out-dir", str(tmp_path / "absent")])
    assert exit_info.value.code == 2
    assert not (tmp_path / "absent").exists()
