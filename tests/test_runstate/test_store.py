"""Artifact-pack semantics: append + ledger commit, checked restore."""

from __future__ import annotations

import hashlib
import json
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.runstate import LEDGER_SCHEMA, RunState
from repro.runstate.store import encode_record
from repro.telemetry.metrics import MetricsRegistry, use_metrics


class Record:
    """The fields of a ``TaskRecord`` that ``on_complete`` reads."""

    def __init__(self, key: str, ok: bool = True, error: str = "") -> None:
        self.key, self.attempt, self.ok, self.error = key, 1, ok, error


def commit(state: RunState, stage: str, values: dict) -> None:
    callback = state.on_complete(stage)
    for key, value in values.items():
        callback(Record(key), value)


def located(state: RunState, stage: str, key: str):
    return state.ledger.latest_ok(stage)[key]


class TestPack:
    def test_roundtrip(self, tmp_path):
        values = {
            f"t{i}/model_{i % 5 + 1}": {"coords": np.arange(12.0 * i).reshape(-1, 3)}
            for i in range(1, 6)
        }
        with RunState(tmp_path) as state:
            commit(state, "inference", values)
            commit(state, "relax", {"t1": "relaxed"})
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "artifacts.pack",
            "ledger.jsonl",
        ]
        with RunState(tmp_path) as state:
            out = state.restore("inference", [*values, "absent"])
            assert set(out) == set(values)
            for key, value in values.items():
                assert np.array_equal(out[key]["coords"], value["coords"])
            assert state.restore("relax", ["t1"]) == {"t1": "relaxed"}
            # Each record embeds its (stage, key) ahead of the pickle.
            entry = located(state, "inference", "t3/model_4")
        raw = (tmp_path / "artifacts.pack").read_bytes()
        record = raw[entry.offset : entry.offset + entry.length]
        header, _, body = record.partition(b"\n")
        assert json.loads(header) == {"stage": "inference", "key": "t3/model_4"}
        assert np.array_equal(
            pickle.loads(body)["coords"], values["t3/model_4"]["coords"]
        )

    def test_flipped_byte_recomputes_only_that_key(self, tmp_path):
        with RunState(tmp_path) as state:
            commit(state, "relax", {"t1": 1.0, "t2": 2.0, "t3": 3.0})
            entry = located(state, "relax", "t2")
        pack = tmp_path / "artifacts.pack"
        raw = bytearray(pack.read_bytes())
        raw[entry.offset + entry.length - 2] ^= 0x01
        pack.write_bytes(bytes(raw))
        registry = MetricsRegistry()
        with RunState(tmp_path) as state, use_metrics(registry):
            assert state.restore("relax", ["t1", "t2", "t3"]) == {
                "t1": 1.0,
                "t3": 3.0,
            }
            commit(state, "relax", {"t2": 2.0})  # the recompute
        counters = registry.counter_values()
        assert counters["runstate.store.corrupt"] == 1
        assert counters["runstate.restore.missing_artifact"] == 1
        with RunState(tmp_path) as state:
            assert state.restore("relax", ["t2"]) == {"t2": 2.0}

    def test_pack_truncated_mid_record_recomputes_the_cut_key(self, tmp_path):
        with RunState(tmp_path) as state:
            commit(state, "relax", {"t1": "a", "t2": "b"})
            cut = located(state, "relax", "t2")
        pack = tmp_path / "artifacts.pack"
        with open(pack, "r+b") as fh:
            fh.truncate(cut.offset + cut.length // 2)
        registry = MetricsRegistry()
        with RunState(tmp_path) as state, use_metrics(registry):
            # Reopening pads the pack back to the ledgered end, so the
            # recompute lands after the cut record, not inside it.
            assert pack.stat().st_size == cut.offset + cut.length
            assert state.restore("relax", ["t1", "t2"]) == {"t1": "a"}
            commit(state, "relax", {"t2": "b"})
            assert located(state, "relax", "t2").offset == cut.offset + cut.length
        assert registry.counter_values()["runstate.store.corrupt"] == 1
        with RunState(tmp_path) as state:
            assert state.restore("relax", ["t1", "t2"]) == {"t1": "a", "t2": "b"}

    def test_orphan_tail_dropped_on_reopen(self, tmp_path):
        """An artifact appended without its ledger line is cut away."""
        with RunState(tmp_path) as state:
            commit(state, "relax", {"t1": "a"})
            end = located(state, "relax", "t1").length
            state.pack.append(encode_record("relax", "t2", "orphan"))
        pack = tmp_path / "artifacts.pack"
        with open(pack, "ab") as fh:
            fh.write(b"\x80torn")
        with RunState(tmp_path) as state:
            assert pack.stat().st_size == end
            assert state.restore("relax", ["t1", "t2"]) == {"t1": "a"}
            commit(state, "relax", {"t2": "b", "t3": "c"})
        with RunState(tmp_path) as state:
            assert state.restore("relax", ["t1", "t2", "t3"]) == {
                "t1": "a",
                "t2": "b",
                "t3": "c",
            }

    def test_record_of_another_key_is_corruption(self, tmp_path):
        with RunState(tmp_path) as state:
            commit(state, "relax", {"t1": 1})
            e1 = located(state, "relax", "t1")
            # A ledger line whose location holds another key's record.
            state.ledger.record(
                "relax", "t2", offset=e1.offset, length=e1.length, crc32=e1.crc32
            )
            registry = MetricsRegistry()
            with use_metrics(registry):
                assert state.restore("relax", ["t1", "t2"]) == {"t1": 1}
        assert registry.counter_values()["runstate.store.corrupt"] == 1

    def test_concurrent_commits_all_restore(self, tmp_path):
        """Four threads committing at once: every key restores equal."""
        blobs = {
            f"w{w}/t{i}": np.full(256, w * 1000 + i, dtype=np.float64)
            for w in range(4)
            for i in range(50)
        }
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with RunState(tmp_path, fsync=False) as state:
                callback = state.on_complete("inference")

                def writer(w: int) -> None:
                    for i in range(50):
                        key = f"w{w}/t{i}"
                        callback(Record(key), blobs[key])

                threads = [
                    threading.Thread(target=writer, args=(w,)) for w in range(4)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        with RunState(tmp_path) as state:
            out = state.restore("inference", list(blobs))
        assert set(out) == set(blobs)
        for key, blob in blobs.items():
            assert np.array_equal(out[key], blob)


class TestSchema:
    def test_per_file_state_dir_refused(self, tmp_path):
        """A state dir of the per-file layout raises; nothing is rewritten."""
        old = "repro.runstate.ledger/1"
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text(
            json.dumps({"schema": old})
            + "\n"
            + json.dumps(
                {"stage": "relax", "key": "t1", "attempt": 1, "ok": True, "error": ""}
            )
            + "\n"
        )
        artifacts = tmp_path / "artifacts"
        (artifacts / "relax").mkdir(parents=True)
        (artifacts / "store.json").write_text('{"schema": "repro.runstate.store/1"}')
        name = hashlib.sha256(b"t1").hexdigest()
        (artifacts / "relax" / f"{name}.pkl").write_bytes(
            pickle.dumps({"stage": "relax", "key": "t1", "value": 1})
        )
        before = {
            p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()
        }
        with pytest.raises(ValueError) as excinfo:
            RunState(tmp_path)
        assert old in str(excinfo.value)
        assert LEDGER_SCHEMA in str(excinfo.value)
        after = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert after == before
        assert not (tmp_path / "artifacts.pack").exists()


class TestRunState:
    def test_restore_requires_ledger_and_artifact(self, tmp_path):
        state = RunState(tmp_path)
        state.on_complete("inference")(Record("t1"), {"pred": 7})
        assert state.restore("inference", ["t1", "t2"]) == {"t1": {"pred": 7}}
        state.close()

        reopened = RunState(tmp_path)
        assert reopened.resumed
        assert reopened.restore("inference", ["t1"]) == {"t1": {"pred": 7}}
        reopened.close()

    def test_ledgered_key_with_missing_artifact_recomputes(self, tmp_path):
        state = RunState(tmp_path)
        state.ledger.record("inference", "ghost", ok=True)
        registry = MetricsRegistry()
        with use_metrics(registry):
            assert state.restore("inference", ["ghost"]) == {}
        assert (
            registry.counter_values()["runstate.restore.missing_artifact"] == 1
        )
        state.close()

    def test_failed_records_ledgered_without_artifact(self, tmp_path):
        state = RunState(tmp_path)
        state.on_complete("inference")(Record("t1", ok=False, error="OOM"), None)
        assert state.ledger.entries[0].offset is None
        assert (tmp_path / "artifacts.pack").stat().st_size == 0
        assert state.ledger.completed("inference") == set()
        assert len(state.ledger) == 1
        state.close()
