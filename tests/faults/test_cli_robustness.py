"""CLI input hardening and interrupt behavior.

Every bad invocation must produce exactly one ``repro-analyze: error:``
line on stderr and the documented exit code — never an argparse usage
dump or a traceback — and Ctrl-C must exit 130 leaving valid partial
observability output and no orphan shard workers.
"""

import json
import multiprocessing

import pytest

from repro.cli import (EXIT_DATA, EXIT_INTERRUPT, EXIT_USAGE, main)
from repro.core import parallel
from repro.core.backend import shm_available

TRACE = "tests/data/multi_object_mixed.jsonl"
OBJECTS = ["--object", "a=accumulator", "--object", "d=dictionary",
           "--object", "r=register"]


def usage_error(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == EXIT_USAGE
    err = capsys.readouterr().err.strip()
    assert err.startswith("repro-analyze: error: ")
    assert "\n" not in err, f"expected one line, got: {err!r}"
    return err


class TestWorkersValidation:
    @pytest.mark.parametrize("value", ["abc", "2.5", "", "0x2"])
    def test_non_integer_workers_rejected(self, capsys, value):
        err = usage_error(capsys, [TRACE, *OBJECTS, "--workers", value])
        assert "--workers expects a positive integer" in err

    @pytest.mark.parametrize("value", ["0", "-1", "-3"])
    def test_nonpositive_workers_rejected(self, capsys, value):
        err = usage_error(capsys, [TRACE, *OBJECTS, "--workers", value])
        assert "--workers must be >= 1" in err

    def test_validated_before_the_trace_is_loaded(self, capsys, tmp_path):
        # A usage error should not depend on the trace being readable.
        usage_error(capsys, [str(tmp_path / "missing.jsonl"), *OBJECTS,
                             "--workers", "0"])


class TestRobustnessFlagValidation:
    @pytest.mark.parametrize("argv, needle", [
        (["--shard-timeout", "0"], "--shard-timeout"),
        (["--shard-timeout", "-2"], "--shard-timeout"),
        (["--shard-timeout", "soon"], "--shard-timeout"),
        (["--shard-retries", "-1"], "--shard-retries"),
        (["--shard-retries", "two"], "--shard-retries"),
        (["--checkpoint-interval", "0"], "--checkpoint-interval"),
        (["--checkpoint-interval", "ten"], "--checkpoint-interval"),
    ])
    def test_bad_values_rejected(self, capsys, argv, needle):
        err = usage_error(capsys, [TRACE, *OBJECTS, *argv])
        assert needle in err

    @pytest.mark.parametrize("argv", [
        ["--detector", "direct", "--workers", "2"],
        ["--detector", "fasttrack", "--shard-retries", "1"],
        ["--detector", "eraser", "--checkpoint", "ck"],
        ["--atomicity", "--resume-from", "ck"],
    ])
    def test_rd2_only_flags_rejected_elsewhere(self, capsys, argv):
        err = usage_error(capsys, [TRACE, *OBJECTS, *argv])
        assert "only to the rd2 detector" in err

    def test_bad_object_binding_is_usage_error(self, capsys):
        err = usage_error(capsys, [TRACE, "--object", "nokind"])
        assert "NAME=KIND" in err
        err = usage_error(capsys, [TRACE, "--object", "o=warpdrive"])
        assert "warpdrive" in err

    def test_trace_error_exit_code_is_distinct(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path / "missing.jsonl"), *OBJECTS])
        assert excinfo.value.code == EXIT_DATA


def test_help_documents_exit_codes(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "exit codes:" in out
    for code in ("0 ", "1 ", "2 ", "3 ", "130"):
        assert code in out


@pytest.mark.skipif(not shm_available(),
                    reason="no shared memory on this host")
def test_keyboard_interrupt_exits_130_with_valid_spans(monkeypatch,
                                                       tmp_path, capsys):
    """Ctrl-C during the fan-out: exit 130, shard workers torn down (no
    orphans), and the partial --spans file is still line-valid JSONL."""
    def interrupt(encoder, sections):
        raise KeyboardInterrupt
        yield

    monkeypatch.setattr(parallel, "feed_shard", interrupt)
    spans = tmp_path / "spans.jsonl"
    code = main([TRACE, *OBJECTS, "--workers", "2",
                 "--spans", str(spans)])
    assert code == EXIT_INTERRUPT
    assert "interrupted" in capsys.readouterr().err
    assert not multiprocessing.active_children()
    lines = spans.read_text().strip().splitlines()
    assert lines  # the load/stamp spans completed before the interrupt
    for line in lines:
        record = json.loads(line)  # every line parses: valid JSONL
        assert {"name", "dur_ns"} <= record.keys()
