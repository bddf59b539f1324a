"""Snapshot tests freezing the ``--stats-json`` report schema.

Each golden under ``tests/data/expected/*.stats.json`` was produced by
``tests/data/generate_golden.py`` running the real CLI at
``sample_interval=1`` and scrubbing the wall-clock timing fields.  The
tests replay the same invocation and compare the scrubbed reports, so
any drift in the report key structure, counter totals, or breakdown
attribution — intended or not — shows up as a reviewable diff against a
regenerated golden.
"""

import contextlib
import io
import json
import pathlib

import pytest

from repro import cli
from repro.core.backend import shm_available
from repro.obs import scrub_timings

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "data"
EXPECTED_DIR = DATA_DIR / "expected"

SCENARIOS = sorted(path.name[:-len(".stats.json")]
                   for path in EXPECTED_DIR.glob("*.stats.json")
                   if ".workers" not in path.name)


def golden_bindings(name):
    """The object bindings frozen next to the race-report golden."""
    expected = json.loads((EXPECTED_DIR / f"{name}.json").read_text())
    return expected["bindings"]


def run_cli_stats(name, tmp_path, workers=1):
    out_path = tmp_path / "stats.json"
    argv = [str(DATA_DIR / f"{name}.jsonl"), "--workers", str(workers)]
    for obj, kind in golden_bindings(name).items():
        argv += ["--object", f"{obj}={kind}"]
    argv += ["--stats-json", str(out_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        exit_code = cli.main(argv)
    return exit_code, json.loads(out_path.read_text())


def test_the_corpus_is_present():
    assert len(SCENARIOS) >= 6


@pytest.mark.parametrize("name", SCENARIOS)
def test_stats_report_matches_golden(name, tmp_path):
    exit_code, report = run_cli_stats(name, tmp_path)
    golden = json.loads((EXPECTED_DIR / f"{name}.stats.json").read_text())
    assert scrub_timings(report) == golden
    # racy scenarios exit 1, race-free ones 0 — frozen along with the rest
    races = golden["stats"]["counters"]["races"]
    assert exit_code == (1 if races else 0)


# The shm transport's metrics in the sharded golden, by registry section.
SHM_METRICS = (("counters", "ipc_bytes_pickled"),
               ("counters", "shm_bytes_written"), ("gauges", "shm_ring_hwm"),
               ("timers", "ipc_serialize"), ("timers", "shm_encode"))


def test_sharded_stats_report_matches_golden(tmp_path):
    _, report = run_cli_stats("multi_object_mixed", tmp_path, workers=2)
    golden = json.loads(
        (EXPECTED_DIR / "multi_object_mixed.workers2.stats.json").read_text())
    if not shm_available():
        # The shards replay in-process: the same report, minus the metrics
        # only the shm transport records.
        for section, key in SHM_METRICS:
            del golden["stats"][section][key]
    assert scrub_timings(report) == golden


def test_sharded_and_sequential_goldens_agree_on_attribution(tmp_path):
    """workers=2 merges shard metrics back to the sequential totals."""
    seq = json.loads(
        (EXPECTED_DIR / "multi_object_mixed.stats.json").read_text())
    par = json.loads(
        (EXPECTED_DIR / "multi_object_mixed.workers2.stats.json").read_text())
    assert par["stats"]["breakdowns"] == seq["stats"]["breakdowns"]
    assert (par["stats"]["counters"]["races"]
            == seq["stats"]["counters"]["races"])
