"""The central robustness claim, tested differentially.

For every injected fault the supervisor recovers from, the sharded run's
merged output must be *identical* — report for report, snapshot for
snapshot — to the fault-free sequential detector's on the same trace,
with the fault visible in the fault log (and, through the CLI, in the
``--stats-json`` report).

Seeds are chosen from the shared randomized-program corpus for verdict
variety (the list includes race-dense and race-free traces and 2-6 object
programs); the seeded fault plans stack worker exceptions and unpicklable
results across shards and attempts.  Hang and kill faults get dedicated
single-fault cases rather than riding the seed sweep (a hang costs a
timeout window to detect).

Every plan fires inside the shm transport's worker processes, and every
test asserts the exact fault kinds the supervisor recorded — an output
match alone would also pass if no fault had fired.  A host without shared
memory replays shards in-process, where no fault can fire, so the suite
skips there.
"""

import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from repro.core.backend import shm_available
from repro.core.detector import CommutativityRaceDetector
from repro.core.parallel import ShardedDetector
from repro.core.supervise import SupervisorConfig
from repro.obs.registry import Registry
from repro.testing.faults import PLAN_ENV, FaultPlan, FaultSpec

from tests.faults.conftest import FAST_TIMEOUT, HANG_SECONDS, START_METHOD
from tests.support import (build_multi_object_trace,
                           race_snapshot, random_multi_object_program,
                           register_bindings)

pytestmark = pytest.mark.skipif(not shm_available(),
                                reason="no shared memory on this host")

# Seeds with known verdict variety (0/10/12/16/18 produce 126/52/16/59/232
# races over 4/5/4/3/2 objects; 11 is race-free with 4 objects).
SEEDS = (0, 10, 11, 12, 16, 18)


def corpus_case(seed):
    program = random_multi_object_program(seed, max_objects=6, max_ops=80)
    trace, bindings = build_multi_object_trace(program)
    sequential = CommutativityRaceDetector(keep_reports=True)
    register_bindings(sequential, bindings)
    for event in trace:
        sequential.process(event)
    return trace, bindings, sequential


def supervised_run(trace, bindings, plan, retries=1, timeout=60.0):
    obs = Registry(sample_interval=1)
    config = SupervisorConfig(shard_timeout=timeout, max_retries=retries,
                              backoff_base=0.0, wrap=plan.wrap)
    detector = ShardedDetector(workers=2, mp_context=START_METHOD,
                               supervisor=config, obs=obs)
    register_bindings(detector, bindings)
    detector.run(trace)
    assert detector.backend.selected == "shm"
    return detector, obs


def expected_kinds(plan, shards, retries):
    """The fault record a plan must leave, derived from the plan alone.

    Only worker processes fire faults, and a single shard replays inline,
    so nothing fires below two shards.  ``raise`` fails each attempt it
    covers and is retried; ``bad-result`` is never retried.  Either
    falls back in-process once the worker attempts run out.
    """
    kinds = Counter()
    for index in range(shards if shards > 1 else 0):
        spec = plan.spec_for(index)
        if spec is None:
            continue
        if spec.kind == "bad-result":
            kinds["shard/result-unpicklable"] += 1
            kinds["shard/fallback"] += 1
        else:
            kinds["shard/worker-raised"] += min(spec.times, retries + 1)
            if spec.times > retries:
                kinds["shard/fallback"] += 1
    return dict(kinds)


def assert_identical(detector, sequential):
    assert ([race_snapshot(race) for race in detector.races]
            == [race_snapshot(race) for race in sequential.races])
    assert detector.stats == sequential.stats


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_fault_plans_preserve_output(seed):
    trace, bindings, sequential = corpus_case(seed)
    plan = FaultPlan.seeded(seed, shards=2, retries=1)
    detector, obs = supervised_run(trace, bindings, plan, retries=1)
    assert_identical(detector, sequential)
    assert detector.faults.by_kind() == expected_kinds(
        plan, shards=min(2, len(bindings)), retries=1)
    assert obs.snapshot()["counters"].get("shard_faults", 0) == \
        len(detector.faults)


def test_hang_past_timeout_preserves_output():
    trace, bindings, sequential = corpus_case(0)
    plan = FaultPlan.build({0: FaultSpec("hang", times=99,
                                         seconds=HANG_SECONDS)})
    detector, _ = supervised_run(trace, bindings, plan, retries=0,
                                 timeout=FAST_TIMEOUT)
    assert_identical(detector, sequential)
    assert detector.faults.by_kind() == {"shard/timeout": 1,
                                     "shard/fallback": 1}


def test_killed_worker_preserves_output():
    trace, bindings, sequential = corpus_case(16)
    plan = FaultPlan.build({1: FaultSpec("exit", times=1)})
    detector, _ = supervised_run(trace, bindings, plan, retries=1,
                                 timeout=FAST_TIMEOUT)
    assert_identical(detector, sequential)
    # The dead worker's pipe closes unanswered; the retry succeeds.
    assert detector.faults.by_kind() == {"shard/worker-raised": 1}
    assert "died" in next(iter(detector.faults)).detail


def test_unpicklable_results_on_every_shard_preserve_output():
    trace, bindings, sequential = corpus_case(18)
    plan = FaultPlan(default=FaultSpec("bad-result", times=99))
    detector, _ = supervised_run(trace, bindings, plan)
    assert_identical(detector, sequential)
    assert detector.faults.by_kind() == {"shard/result-unpicklable": 2,
                                     "shard/fallback": 2}


def run_cli(*argv, env_extra=None):
    env = dict(os.environ, PYTHONPATH="src")
    if START_METHOD:
        env["REPRO_TEST_START_METHOD"] = START_METHOD
    env.update(env_extra or {})
    return subprocess.run([sys.executable, "-m", "repro.cli", *argv],
                          capture_output=True, text=True, env=env,
                          cwd=os.path.dirname(os.path.dirname(
                              os.path.dirname(os.path.abspath(__file__)))))


TRACE = "tests/data/multi_object_mixed.jsonl"
OBJECTS = ("--object", "a=accumulator", "--object", "d=dictionary",
           "--object", "r=register")


def test_cli_fault_plan_differential_with_stats_json(tmp_path):
    """End to end through the real CLI: inject via REPRO_FAULT_PLAN,
    assert identical stdout and faults visible in --stats-json."""
    stats = tmp_path / "stats.json"
    plan = FaultPlan(default=FaultSpec("raise", times=1))
    clean = run_cli(TRACE, *OBJECTS)
    faulty = run_cli(TRACE, *OBJECTS, "--workers", "2",
                     "--shard-retries", "1", "--stats-json", str(stats),
                     env_extra={PLAN_ENV: plan.to_env()})
    assert clean.returncode == faulty.returncode == 1  # races reported
    assert (faulty.stdout.replace("rd2 [2 workers]:", "rd2:")
            == clean.stdout)
    assert "tolerated" in faulty.stderr
    report = json.loads(stats.read_text())
    counts = report["faults"]["counts"]
    # Three objects over two shm workers: each shard raises once, then
    # its retry succeeds.
    assert counts == {"shard/worker-raised": 2}
    assert "backend: auto -> shm" in faulty.stderr
    assert report["stats"]["counters"]["shard_faults"] == sum(
        counts.values())


def test_cli_fault_free_run_reports_no_faults(tmp_path):
    stats = tmp_path / "stats.json"
    result = run_cli(TRACE, *OBJECTS, "--workers", "2",
                     "--stats-json", str(stats))
    assert result.returncode == 1
    assert "tolerated" not in result.stderr
    assert "faults" not in json.loads(stats.read_text())
