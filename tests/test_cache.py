"""Feature-cache semantics: content addressing, invalidation, disk."""

from __future__ import annotations

import pickle
import threading

import numpy as np
import pytest

from repro.cache import FeatureCache
from repro.msa import build_suite, generate_features
from repro.msa.databases import LibraryEntry, LibrarySuite, SequenceLibrary
from repro.msa.features import FeatureGenConfig
from repro.telemetry.metrics import MetricsRegistry, use_metrics

CONFIG = FeatureGenConfig()


def _lookups(registry: MetricsRegistry) -> tuple[int, int]:
    """(hits, misses) the cache counted on ``registry``."""
    counts = registry.counter_values("feature.cache.")
    return (
        int(counts.get("feature.cache.hits", 0)),
        int(counts.get("feature.cache.misses", 0)),
    )


@pytest.fixture()
def record(proteome):
    return list(proteome)[0]


def _tiny_suite(tag: int) -> LibrarySuite:
    """A minimal suite whose content (and fingerprint) depends on ``tag``."""

    def lib(name: str) -> SequenceLibrary:
        entry = LibraryEntry(
            entry_id=f"{name}_{tag}",
            encoded=np.full(24, tag % 20, dtype=np.int64),
            family_id=None,
            divergence=0.1,
            annotated=False,
            cluster_id=f"{name}_{tag}",
        )
        return SequenceLibrary(name=name, entries=[entry], modeled_bytes=tag)

    return LibrarySuite(
        uniref=lib("u"), bfd=lib("b"), mgnify=lib("m"), pdb_seqs=lib("p")
    )


class TestKeying:
    def test_key_is_deterministic(self, record, suite):
        cache = FeatureCache()
        assert cache.key_for(record, suite, CONFIG) == cache.key_for(
            record, suite, CONFIG
        )

    def test_key_depends_on_sequence(self, proteome, suite):
        records = list(proteome)[:2]
        cache = FeatureCache()
        assert cache.key_for(records[0], suite, CONFIG) != cache.key_for(
            records[1], suite, CONFIG
        )

    def test_key_invalidates_on_config_change(self, record, suite):
        cache = FeatureCache()
        changed = FeatureGenConfig(min_containment=0.5)
        assert cache.key_for(record, suite, CONFIG) != cache.key_for(
            record, suite, changed
        )

    def test_key_invalidates_on_suite_change(self, record, suite, universe):
        cache = FeatureCache()
        other = build_suite(universe, ["D_vulgaris"], seed=8, scale=0.02)
        assert cache.key_for(record, suite, CONFIG) != cache.key_for(
            record, other, CONFIG
        )

    def test_key_correct_after_id_reuse(self, record, monkeypatch):
        """Regression: fingerprints must not be memoised by ``id(suite)``.

        CPython reuses object ids after garbage collection, so an
        id-keyed side table can hand a *new* suite the fingerprint of a
        dead one — silently wrong cache keys.  With ``id`` pinned to a
        constant in the modules that compute keys, every object "reuses"
        every id, so any id-keyed memo collides on every run; keys must
        still track content.
        """
        import repro.cache
        import repro.msa.databases

        for module in (repro.cache, repro.msa.databases):
            monkeypatch.setattr(module, "id", lambda obj: 1, raising=False)
        cache = FeatureCache()
        first, second = _tiny_suite(1), _tiny_suite(2)
        first_key = cache.key_for(record, first, CONFIG)
        assert second.fingerprint() != first.fingerprint()
        assert cache.key_for(record, second, CONFIG) != first_key

    def test_identical_suites_share_keys(self, record, universe):
        # Content addressing: two separately built but identical suites
        # hash the same, so a cache survives a suite rebuild.
        s1 = build_suite(universe, ["D_vulgaris"], seed=9, scale=0.02)
        s2 = build_suite(universe, ["D_vulgaris"], seed=9, scale=0.02)
        assert s1.fingerprint() == s2.fingerprint()
        cache = FeatureCache()
        assert cache.key_for(record, s1, CONFIG) == cache.key_for(
            record, s2, CONFIG
        )


class TestHitMiss:
    def test_miss_then_hit(self, record, suite):
        cache = FeatureCache()
        with use_metrics(MetricsRegistry()) as registry:
            first = generate_features(record, suite, cache=cache)
            second = generate_features(record, suite, cache=cache)
        assert _lookups(registry) == (1, 1)
        assert len(cache) == 1
        assert second.msa_depth == first.msa_depth
        assert second.effective_depth == first.effective_depth
        assert second.n_templates == first.n_templates

    def test_hit_substitutes_record(self, proteome, suite):
        # Two records, same features cached under the sequence hash: the
        # returned bundle must carry the *queried* record.
        record = list(proteome)[0]
        cache = FeatureCache()
        bundle = generate_features(record, suite, cache=cache)
        key = cache.key_for(record, suite, CONFIG)
        hit = cache.get(key, record=record)
        assert hit is not None
        assert hit.record is record
        assert hit.msa_depth == bundle.msa_depth

    def test_get_unknown_key_counts_miss(self):
        cache = FeatureCache()
        with use_metrics(MetricsRegistry()) as registry:
            assert cache.get("no-such-key") is None
        assert _lookups(registry) == (0, 1)


    def test_stats_since(self, record, suite):
        """Lookups since a snapshot are the registry's counter delta;
        a counter that did not move is absent from it."""
        cache = FeatureCache()
        with use_metrics(MetricsRegistry()) as registry:
            generate_features(record, suite, cache=cache)
            generate_features(record, suite, cache=cache)
            before = registry.counter_values("feature.cache.")
            generate_features(record, suite, cache=cache)
            assert cache.get("no-such-key") is None
            after = registry.counter_values("feature.cache.")
            assert MetricsRegistry.delta(before, after) == {
                "feature.cache.hits": 1.0,
                "feature.cache.misses": 1.0,
            }
            generate_features(record, suite, cache=cache)
            latest = registry.counter_values("feature.cache.")
        assert MetricsRegistry.delta(after, latest) == {"feature.cache.hits": 1.0}
        assert _lookups(registry) == (3, 2)


class TestDisk:
    def test_disk_roundtrip_across_instances(self, record, suite, tmp_path):
        first = FeatureCache(directory=tmp_path)
        bundle = generate_features(record, suite, cache=first)
        # A fresh cache instance (new process in real life) hits disk.
        second = FeatureCache(directory=tmp_path)
        with use_metrics(MetricsRegistry()) as registry:
            reloaded = generate_features(record, suite, cache=second)
        assert _lookups(registry) == (1, 0)
        assert reloaded.msa_depth == bundle.msa_depth
        assert reloaded.record_id == bundle.record_id

    def test_clear_memory_keeps_disk(self, record, suite, tmp_path):
        cache = FeatureCache(directory=tmp_path)
        generate_features(record, suite, cache=cache)
        cache.clear_memory()
        assert len(cache) == 0
        with use_metrics(MetricsRegistry()) as registry:
            generate_features(record, suite, cache=cache)
        assert _lookups(registry) == (1, 0)

    def test_corrupt_entry_is_a_miss(self, record, suite, tmp_path):
        cache = FeatureCache(directory=tmp_path)
        generate_features(record, suite, cache=cache)
        key = cache.key_for(record, suite, CONFIG)
        (tmp_path / f"{key}.pkl").write_bytes(b"not a pickle")
        cache.clear_memory()
        fresh = FeatureCache(directory=tmp_path)
        with use_metrics(MetricsRegistry()) as registry:
            assert fresh.get(key) is None
        assert _lookups(registry) == (0, 1)

    def test_corrupt_entry_quarantined(self, record, suite, tmp_path):
        """A bad disk entry is unlinked and counted, not retried forever."""
        cache = FeatureCache(directory=tmp_path)
        generate_features(record, suite, cache=cache)
        key = cache.key_for(record, suite, CONFIG)
        path = tmp_path / f"{key}.pkl"
        path.write_bytes(b"\x80garbage not a pickle")
        fresh = FeatureCache(directory=tmp_path)
        registry = MetricsRegistry()
        with use_metrics(registry):
            assert fresh.get(key) is None
        assert not path.exists()  # slot self-repairs on the next put
        assert registry.counter_values()["feature.cache.corrupt"] == 1

    def test_concurrent_puts_never_tear(self, suite, tmp_path):
        """Racing writers of one key must always publish whole pickles.

        Regression: a shared ``<key>.pkl.tmp`` scratch path let two
        concurrent puts interleave write and rename and publish a torn
        file.  With per-writer temp names, readers hitting disk
        mid-storm either miss or load a complete bundle — never a
        corrupt one.
        """
        writer_cache = FeatureCache(directory=tmp_path)
        reader_cache = FeatureCache(directory=tmp_path)
        payload = {"arr": np.arange(4096.0)}
        key = "feedface" * 8
        stop = threading.Event()
        torn: list[str] = []

        def writer() -> None:
            while not stop.is_set():
                writer_cache.put(key, payload)

        def reader() -> None:
            while not stop.is_set():
                reader_cache.clear_memory()  # force the disk path
                out = reader_cache.get(key)
                if out is not None and not np.array_equal(
                    out["arr"], payload["arr"]
                ):
                    torn.append("torn bundle observed")

        registry = MetricsRegistry()
        threads = [threading.Thread(target=writer) for _ in range(4)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        with use_metrics(registry):
            for t in threads:
                t.start()
            timer = threading.Timer(0.5, stop.set)
            timer.start()
            for t in threads:
                t.join()
            timer.cancel()
        assert torn == []
        assert registry.counter_values().get("feature.cache.corrupt", 0) == 0
        assert list(tmp_path.glob("*.tmp")) == []

    def test_put_writes_loadable_pickle(self, record, suite, tmp_path):
        cache = FeatureCache(directory=tmp_path)
        bundle = generate_features(record, suite, cache=cache)
        key = cache.key_for(record, suite, CONFIG)
        on_disk = pickle.loads((tmp_path / f"{key}.pkl").read_bytes())
        assert on_disk.msa_depth == bundle.msa_depth
