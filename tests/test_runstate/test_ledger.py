"""Completion-ledger semantics: durable append, crash-tolerant replay."""

from __future__ import annotations

import json
import threading

import pytest

from repro.runstate import LEDGER_SCHEMA, CompletionLedger, LedgerEntry


@pytest.fixture()
def path(tmp_path):
    return tmp_path / "ledger.jsonl"


class TestAppendReplay:
    def test_roundtrip(self, path):
        with CompletionLedger(path) as led:
            led.record("feature", "t1")
            led.record("inference", "t1/model_1", attempt=1, ok=False,
                       error="OutOfMemoryError: boom")
            led.record("inference", "t1/model_1", attempt=2, ok=True)
        with CompletionLedger(path) as led2:
            assert led2.n_replayed == 3
            assert led2.completed("feature") == {"t1"}
            assert led2.completed("inference") == {"t1/model_1"}
            assert led2.counts() == {
                "feature": {"ok": 1, "failed": 0},
                "inference": {"ok": 1, "failed": 1},
            }
            assert led2.entries[1] == LedgerEntry(
                stage="inference", key="t1/model_1", attempt=1, ok=False,
                error="OutOfMemoryError: boom",
            )

    def test_header_schema_line(self, path):
        CompletionLedger(path).close()
        first = json.loads(path.read_text().splitlines()[0])
        assert first == {"schema": LEDGER_SCHEMA}

    def test_failed_keys_not_completed(self, path):
        with CompletionLedger(path) as led:
            led.record("inference", "lost", ok=False, error="OOM")
            assert led.completed("inference") == set()
            assert not led.is_complete("inference", "lost")

    def test_fresh_instance_empty(self, path):
        led = CompletionLedger(path)
        assert led.n_replayed == 0
        assert len(led) == 0
        led.close()


class TestCrashTolerance:
    def test_truncated_final_line_dropped(self, path):
        """A SIGKILL mid-append leaves a torn tail; replay drops it."""
        with CompletionLedger(path) as led:
            led.record("feature", "a")
            led.record("feature", "b")
        with open(path, "ab") as fh:
            fh.write(b'{"stage":"feature","key":"c","atte')  # torn append
        with CompletionLedger(path) as led2:
            assert led2.completed("feature") == {"a", "b"}
            assert led2.n_replayed == 2
            # The torn bytes were truncated away, so new appends parse.
            led2.record("feature", "c")
        with CompletionLedger(path) as led3:
            assert led3.completed("feature") == {"a", "b", "c"}
        for line in path.read_text().splitlines():
            json.loads(line)  # every surviving line is valid JSON

    def test_garbage_terminated_final_line_dropped(self, path):
        with CompletionLedger(path) as led:
            led.record("feature", "a")
        with open(path, "ab") as fh:
            fh.write(b"not json at all\n")
        with CompletionLedger(path) as led2:
            assert led2.completed("feature") == {"a"}

    def test_corrupt_middle_line_raises(self, path):
        with CompletionLedger(path) as led:
            led.record("feature", "a")
            led.record("feature", "b")
        raw = path.read_bytes().splitlines(keepends=True)
        raw[1] = b"garbage line\n"  # corrupt a *middle* record
        path.write_bytes(b"".join(raw))
        with pytest.raises(ValueError, match="corrupt ledger"):
            CompletionLedger(path)

    def test_wrong_schema_raises(self, path):
        path.write_text('{"schema": "someone/elses/format"}\n')
        with pytest.raises(ValueError, match="not a"):
            CompletionLedger(path)

    def test_all_garbage_file_resets(self, path):
        """A file holding only a torn first line is recoverable."""
        path.write_bytes(b'{"schema": "repro.runstate.led')
        with CompletionLedger(path) as led:
            assert led.n_replayed == 0
            led.record("feature", "a")
        with CompletionLedger(path) as led:
            assert led.completed("feature") == {"a"}


class TestConcurrency:
    def test_threaded_appends_all_survive(self, path):
        led = CompletionLedger(path, fsync=False)

        def writer(worker: int) -> None:
            for i in range(25):
                led.record("inference", f"w{worker}/t{i}", ok=i % 5 != 0)

        threads = [
            threading.Thread(target=writer, args=(w,)) for w in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        led.close()
        replayed = CompletionLedger(path)
        assert len(replayed) == 8 * 25
        assert len(replayed.completed("inference")) == 8 * 20
        replayed.close()
