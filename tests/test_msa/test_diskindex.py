"""On-disk k-mer index: bit-identity, pickling, quarantine."""

import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.msa import (
    KmerIndex,
    attach_suite_index,
    build_disk_index,
    ensure_disk_index,
    open_disk_index,
    search_suite,
)
from repro.msa.diskindex import DISKINDEX_SCHEMA, IndexCorruptError
from repro.sequences import mutate_sequence, random_sequence
from repro.sequences.alphabet import ALPHABET_SIZE
from repro.telemetry.metrics import MetricsRegistry, use_metrics


def _build_mem(seqs, k=5):
    idx = KmerIndex(k=k)
    for i, s in enumerate(seqs):
        idx.add(i, s)
    idx.freeze()
    return idx


def _build_disk(tmp_path, seqs, k=5, name="lib"):
    mem = _build_mem(seqs, k=k)
    out = build_disk_index(
        mem,
        tmp_path / f"{name}.artifact",
        library_name=name,
        fingerprint="f" * 64,
    )
    return mem, open_disk_index(out)


def _library(rng, name, n=6, length=80):
    from repro.msa.databases import LibraryEntry, SequenceLibrary

    entries = [
        LibraryEntry(
            entry_id=f"e{i}",
            encoded=random_sequence(length, rng),
            family_id=None,
            divergence=0.0,
            annotated=False,
        )
        for i in range(n)
    ]
    return SequenceLibrary(name, entries, modeled_bytes=1000)


def _flip_last_byte(path):
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))


class TestBitIdentity:
    def test_matches_memory_index(self, rng, tmp_path):
        seqs = [random_sequence(int(rng.integers(30, 200)), rng) for _ in range(20)]
        mem, disk = _build_disk(tmp_path, seqs)
        queries = [mutate_sequence(seqs[i % 20], rng, 0.2) for i in range(8)]
        queries.append(random_sequence(150, rng))
        assert (disk.count_hits_many(queries) == mem.count_hits_many(queries)).all()
        q = queries[0]
        codes = mem.query_codes(q)
        assert (disk.count_hits_codes(codes) == mem.count_hits_codes(codes)).all()
        assert (disk.count_hits(q) == mem.count_hits(q)).all()
        assert (disk.containment(q) == mem.containment(q)).all()

    def test_mapped_arrays_are_the_memory_arrays(self, rng, tmp_path):
        seqs = [random_sequence(90, rng) for _ in range(5)]
        mem, disk = _build_disk(tmp_path, seqs)
        for name in ("_codes", "_offsets", "_ids", "_counts_f64", "_bitmap", "_rank"):
            mapped = getattr(disk, name)
            assert isinstance(mapped.base, np.memmap)
            assert np.array_equal(mapped, getattr(mem, name))
        assert disk.k == mem.k and disk.n_sequences == mem.n_sequences

    def test_empty_vocabulary_index(self, rng, tmp_path):
        # All sequences shorter than k: no k-mers anywhere.
        seqs = [random_sequence(3, rng) for _ in range(4)]
        mem, disk = _build_disk(tmp_path, seqs)
        q = random_sequence(60, rng)
        assert (disk.count_hits(q) == 0).all()
        assert (disk.count_hits(q) == mem.count_hits(q)).all()
        assert disk.count_hits_many([q, q]).shape == (2, 4)

    def test_zero_sequence_index(self, rng, tmp_path):
        mem, disk = _build_disk(tmp_path, [])
        q = random_sequence(60, rng)
        assert disk.count_hits(q).shape == (0,)
        assert disk.count_hits_many([q]).shape == (1, 0)

    def test_k6_searchsorted_fallback(self, rng, tmp_path):
        # k=6 span exceeds _LUT_MAX_SPAN: no rank table is saved, and
        # queries take the binary-search path.
        seqs = [random_sequence(100, rng) for _ in range(6)]
        mem, disk = _build_disk(tmp_path, seqs, k=6)
        assert disk._bitmap is None and disk._rank is None
        assert not (disk.path / "bitmap.npy").exists()
        assert not (disk.path / "rank.npy").exists()
        queries = [mutate_sequence(seqs[i], rng, 0.3) for i in range(6)]
        assert (disk.count_hits_many(queries) == mem.count_hits_many(queries)).all()

    @given(
        seed=st.integers(0, 10_000),
        n_seqs=st.integers(0, 10),
        k=st.sampled_from([3, 6]),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_libraries(self, seed, n_seqs, k, tmp_path_factory):
        # The acceptance property: for random libraries, the mapped
        # index reproduces the in-memory CSR results bit-for-bit on both
        # query entry points and both vocabulary lookups (k=3 has a
        # rank table, k=6 binary-searches).
        rng = np.random.default_rng(seed)
        tmp = tmp_path_factory.mktemp("prop")
        seqs = [
            random_sequence(int(rng.integers(2, 80)), rng)
            for _ in range(n_seqs)
        ]
        mem, disk = _build_disk(tmp, seqs, k=k, name=f"lib{seed}")
        queries = [
            mutate_sequence(seqs[int(rng.integers(0, n_seqs))], rng, 0.3)
            if n_seqs
            else random_sequence(40, rng),
            random_sequence(int(rng.integers(2, 80)), rng),
        ]
        assert (
            disk.count_hits_many(queries) == mem.count_hits_many(queries)
        ).all()
        span = int(ALPHABET_SIZE) ** k
        foreign = np.unique(
            np.concatenate(
                [
                    rng.integers(0, span, size=16),
                    [-7, -1, span, span + 11, 10**12],
                ]
            )
        )
        for codes in [mem.query_codes(q) for q in queries] + [foreign]:
            assert (
                disk.count_hits_codes(codes) == mem.count_hits_codes(codes)
            ).all()


class TestPickle:
    def test_ships_path_not_postings(self, rng, tmp_path):
        seqs = [random_sequence(300, rng) for _ in range(40)]
        _, disk = _build_disk(tmp_path, seqs)
        blob = pickle.dumps(disk)
        # The payload is an artifact path, so it must be orders of
        # magnitude smaller than the arrays it re-attaches to.
        assert len(blob) < 512
        assert disk.nbytes > 10 * len(blob)

    def test_roundtrip_reattaches_and_matches(self, rng, tmp_path):
        seqs = [random_sequence(100, rng) for _ in range(10)]
        _, disk = _build_disk(tmp_path, seqs)
        with use_metrics(MetricsRegistry()) as registry:
            clone = pickle.loads(pickle.dumps(disk))
            assert registry.counter_values()["msa.index.attach"] == 1.0
            assert registry.counter_values().get("msa.index.rebuild", 0) == 0
        q = mutate_sequence(seqs[3], rng, 0.2)
        assert (clone.count_hits(q) == disk.count_hits(q)).all()
        assert clone.path == disk.path
        assert clone.fingerprint == disk.fingerprint


class TestArtifactLifecycle:
    def test_build_refuses_existing_dir(self, rng, tmp_path):
        seqs = [random_sequence(50, rng)]
        mem = _build_mem(seqs)
        out = tmp_path / "a"
        build_disk_index(mem, out, library_name="a", fingerprint="x" * 64)
        with pytest.raises(FileExistsError):
            build_disk_index(mem, out, library_name="a", fingerprint="x" * 64)

    def test_artifact_holds_exactly_the_manifest_arrays(self, rng, tmp_path):
        _, disk = _build_disk(tmp_path, [random_sequence(80, rng)])
        manifest = json.loads((disk.path / "manifest.json").read_text())
        assert manifest["schema"] == DISKINDEX_SCHEMA
        assert sorted(manifest["arrays"]) == sorted(
            ["codes", "offsets", "ids", "counts", "bitmap", "rank"]
        )
        files = {p.name for p in disk.path.iterdir()}
        assert files == {"manifest.json"} | {
            spec["file"] for spec in manifest["arrays"].values()
        }

    def test_open_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "manifest.json").write_text('{"schema": "nope/9"}')
        with pytest.raises(IndexCorruptError):
            open_disk_index(bad)

    def test_open_rejects_inconsistent_shapes(self, rng, tmp_path):
        _, disk = _build_disk(tmp_path, [random_sequence(80, rng)])
        manifest_file = disk.path / "manifest.json"
        manifest = json.loads(manifest_file.read_text())
        manifest["n_sequences"] += 1
        manifest_file.write_text(json.dumps(manifest))
        with pytest.raises(IndexCorruptError):
            open_disk_index(disk.path)

    def test_verify_catches_flipped_bytes(self, rng, tmp_path):
        seqs = [random_sequence(100, rng) for _ in range(5)]
        _, disk = _build_disk(tmp_path, seqs)
        _flip_last_byte(disk.path / "ids.npy")
        with pytest.raises(IndexCorruptError):
            open_disk_index(disk.path, verify=True)
        # Structural open alone does not hash, so it still succeeds.
        open_disk_index(disk.path, verify=False)


class TestEnsureDiskIndex:
    def test_builds_then_reopens_without_rebuild(self, suite, tmp_path):
        lib = suite.libraries[0]
        with use_metrics(MetricsRegistry()) as registry:
            first = ensure_disk_index(lib, tmp_path)
            built = registry.counter_values().get("msa.index.rebuild", 0)
        assert first.fingerprint == lib.fingerprint()
        # Second campaign: artifact exists and verifies — the happy path
        # must not construct any in-memory index.
        with use_metrics(MetricsRegistry()) as registry:
            again = ensure_disk_index(lib, tmp_path)
            values = registry.counter_values()
        assert built >= 0  # first run may reuse the suite's lazy index
        assert values.get("msa.index.rebuild", 0) == 0
        assert values["msa.index.attach"] == 1.0
        assert again.path == first.path

    def test_quarantines_and_rebuilds_corrupt_artifact(self, rng, tmp_path):
        lib = _library(rng, "qlib")
        disk = ensure_disk_index(lib, tmp_path)
        reference = disk.count_hits_many([e.encoded for e in lib.entries])
        _flip_last_byte(disk.path / "ids.npy")
        with use_metrics(MetricsRegistry()) as registry:
            rebuilt = ensure_disk_index(lib, tmp_path)
            corrupt = registry.counter_values()["msa.index.corrupt"]
        assert corrupt == 1.0
        quarantined = list(tmp_path.glob("*.corrupt0"))
        assert len(quarantined) == 1
        assert rebuilt.path.exists()
        assert (
            rebuilt.count_hits_many([e.encoded for e in lib.entries]) == reference
        ).all()

    def test_rebuild_never_copies_the_quarantined_mapping(self, rng, tmp_path):
        # The library is attached to the artifact that then goes bad: the
        # rebuild must come from a fresh in-memory build, not from the
        # attached mapping of the corrupted files.
        lib = _library(rng, "mlib")
        queries = [e.encoded for e in lib.entries]
        reference = lib.index.count_hits_many(queries)
        lib.attach_index(ensure_disk_index(lib, tmp_path))
        victim = lib.index.path / "ids.npy"
        raw = bytearray(victim.read_bytes())
        raw[-8:] = b"\x00" * 8  # two postings now point at sequence 0
        victim.write_bytes(bytes(raw))
        assert not (lib.index.count_hits_many(queries) == reference).all()
        with use_metrics(MetricsRegistry()) as registry:
            rebuilt = ensure_disk_index(lib, tmp_path)
            values = registry.counter_values()
        assert values["msa.index.corrupt"] == 1.0
        assert values["msa.index.rebuild"] == 1.0
        assert (rebuilt.count_hits_many(queries) == reference).all()

    def test_old_schema_artifact_is_quarantined_and_rebuilt(self, rng, tmp_path):
        # A schema-1 (code-range sharded) artifact in the library's slot
        # must never be mis-read as the current layout.
        lib = _library(rng, "olib")
        slot = tmp_path / f"olib.{lib.fingerprint()[:12]}"
        slot.mkdir()
        arrays = {}
        for name in ("counts", "shard000.codes", "shard000.offsets",
                     "shard000.ids", "shard000.lut"):
            arr = np.zeros(3, dtype=np.int64)
            np.save(slot / f"{name}.npy", arr)
            arrays[name] = {
                "file": f"{name}.npy",
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "sha256": "0" * 64,
            }
        (slot / "manifest.json").write_text(
            json.dumps(
                {
                    "schema": "repro.msa.diskindex/1",
                    "library": "olib",
                    "fingerprint": lib.fingerprint(),
                    "k": 5,
                    "n_sequences": len(lib),
                    "n_shards": 1,
                    "boundaries": [0, 20**5],
                    "total_postings": 0,
                    "arrays": arrays,
                }
            )
        )
        with use_metrics(MetricsRegistry()) as registry:
            disk = ensure_disk_index(lib, tmp_path)
            assert registry.counter_values()["msa.index.corrupt"] == 1.0
        assert (tmp_path / f"{slot.name}.corrupt0").is_dir()
        assert not list(disk.path.glob("shard*"))
        queries = [e.encoded for e in lib.entries]
        assert (
            disk.count_hits_many(queries) == lib.index.count_hits_many(queries)
        ).all()

    def test_dense_lut_schema_artifact_is_quarantined_and_rebuilt(
        self, rng, tmp_path
    ):
        # A schema-2 artifact carries the CSR arrays plus a dense
        # ``lut.npy``; it is quarantined, and the rebuild saves the rank
        # table instead.
        lib = _library(rng, "llib")
        slot = ensure_disk_index(lib, tmp_path).path
        manifest = json.loads((slot / "manifest.json").read_text())
        for name in ("bitmap", "rank"):
            (slot / f"{name}.npy").unlink()
            del manifest["arrays"][name]
        lut = np.full(ALPHABET_SIZE**5, -1, dtype=np.int32)
        lut[np.load(slot / "codes.npy")] = np.arange(
            manifest["arrays"]["codes"]["shape"][0], dtype=np.int32
        )
        np.save(slot / "lut.npy", lut)
        manifest["arrays"]["lut"] = {
            "file": "lut.npy",
            "dtype": lut.dtype.str,
            "shape": list(lut.shape),
            "sha256": "0" * 64,
        }
        manifest["schema"] = "repro.msa.diskindex/2"
        (slot / "manifest.json").write_text(json.dumps(manifest))
        with use_metrics(MetricsRegistry()) as registry:
            disk = ensure_disk_index(lib, tmp_path)
            assert registry.counter_values()["msa.index.corrupt"] == 1.0
        assert (tmp_path / f"{slot.name}.corrupt0" / "lut.npy").exists()
        rebuilt = json.loads((disk.path / "manifest.json").read_text())
        assert rebuilt["schema"] == DISKINDEX_SCHEMA == "repro.msa.diskindex/3"
        assert not (disk.path / "lut.npy").exists()
        assert isinstance(disk._bitmap.base, np.memmap)
        queries = [e.encoded for e in lib.entries]
        assert (
            disk.count_hits_many(queries) == lib.index.count_hits_many(queries)
        ).all()

    def test_fingerprint_mismatch_quarantines(self, tmp_path):
        a = _library(np.random.default_rng(1), "qlib", n=3, length=60)
        b = _library(np.random.default_rng(2), "qlib", n=3, length=60)
        disk_a = ensure_disk_index(a, tmp_path)
        # Force b's artifact dir to collide with a's stale content.
        stale = tmp_path / f"qlib.{b.fingerprint()[:12]}"
        disk_a.path.rename(stale)
        with use_metrics(MetricsRegistry()) as registry:
            disk_b = ensure_disk_index(b, tmp_path)
            assert registry.counter_values()["msa.index.corrupt"] == 1.0
        assert disk_b.fingerprint == b.fingerprint()


class TestSuiteIntegration:
    def test_attach_suite_index(self, suite, tmp_path):
        try:
            attached = attach_suite_index(suite, tmp_path)
            assert len(attached) == len(suite.libraries)
            for lib, disk in zip(suite.libraries, attached):
                assert lib.index is disk
                assert isinstance(lib.index._ids.base, np.memmap)
                assert disk.fingerprint == lib.fingerprint()
        finally:
            # Reset the suite's libraries back to lazy in-memory indexes
            # so the session-scoped fixture is unchanged for other tests.
            for lib in suite.libraries:
                lib._index = None

    def test_search_suite_hits_match_memory_suite(self, proteome, suite, tmp_path):
        records = list(proteome)[:6] + [
            r for r in proteome if r.family_id is None
        ][:1]
        expected = [search_suite(r, suite).hits for r in records]
        try:
            attach_suite_index(suite, tmp_path)
            got = [search_suite(r, suite).hits for r in records]
        finally:
            for lib in suite.libraries:
                lib._index = None
        assert any(hits for hits in expected)
        # Hit is a frozen dataclass: == compares every field.
        assert got == expected

    def test_fingerprint_does_not_build_index(self, rng):
        lib = _library(rng, "fp", n=1, length=50)
        lib.fingerprint()
        assert lib._index is None

    def test_attach_index_rejects_wrong_size(self, rng, tmp_path):
        lib = _library(rng, "sz", n=2, length=50)
        _, foreign = _build_disk(
            tmp_path, [random_sequence(50, rng) for _ in range(5)]
        )
        with pytest.raises(ValueError):
            lib.attach_index(foreign)

    def test_attach_index_rejects_wrong_fingerprint(self, rng, tmp_path):
        lib = _library(rng, "fpz", n=2, length=50)
        _, foreign = _build_disk(
            tmp_path, [random_sequence(50, rng) for _ in range(2)]
        )
        assert foreign.n_sequences == len(lib.entries)
        with pytest.raises(ValueError):
            lib.attach_index(foreign)  # fingerprint "fff..." != lib's
