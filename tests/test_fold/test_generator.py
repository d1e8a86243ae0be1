"""Native factory tests: family folds, member divergence, determinism."""

import threading

import numpy as np
import pytest

from repro.fold import NativeFactory, generator, smooth_chain_noise
from repro.structure import tm_score
from repro.telemetry import MetricsRegistry, use_metrics

from ..bounded import run_bounded


class TestSmoothNoise:
    def test_rms_matches_sigma(self, rng):
        noise = smooth_chain_noise(500, rng, sigma=2.0)
        rms = np.sqrt((noise**2).sum(axis=1).mean())
        assert rms == pytest.approx(2.0, rel=1e-9)

    def test_spatial_correlation(self, rng):
        noise = smooth_chain_noise(1000, rng, sigma=1.0, window=15)
        # Neighbouring displacements should be strongly correlated.
        corr = np.corrcoef(noise[:-1, 0], noise[1:, 0])[0, 1]
        assert corr > 0.7

    def test_empty(self, rng):
        assert smooth_chain_noise(0, rng, sigma=1.0).shape == (0, 3)


class TestNativeFactory:
    def test_native_deterministic_across_instances(self, universe, proteome):
        rec = proteome[0]
        a = NativeFactory(universe).native(rec)
        b = NativeFactory(universe).native(rec)
        np.testing.assert_array_equal(a.ca, b.ca)

    def test_native_cached(self, factory, proteome):
        rec = proteome[0]
        assert factory.native(rec) is factory.native(rec)

    def test_native_matches_record(self, factory, proteome):
        rec = proteome[1]
        native = factory.native(rec)
        assert len(native) == rec.length
        assert native.record_id == rec.record_id
        assert native.model_name == "native"

    def test_family_members_fold_alike(self, universe):
        """Same family, low divergence -> high structural similarity."""
        from repro.sequences import ProteinRecord

        factory = NativeFactory(universe)
        fam = universe.family(123)
        recs = [
            ProteinRecord(
                record_id=f"m{i}",
                encoded=universe.member(fam, 0.08, member_seed=i, indel_rate=0.0),
                family_id=fam.family_id,
                divergence=0.08,
            )
            for i in range(2)
        ]
        a, b = factory.native(recs[0]), factory.native(recs[1])
        assert tm_score(a.ca, b.ca) > 0.7

    def test_divergence_reduces_similarity(self, universe):
        from repro.sequences import ProteinRecord

        factory = NativeFactory(universe)
        fam = universe.family(124)
        base = factory.family_fold(fam.fold_seed, fam.length)

        def member_native(div, i):
            rec = ProteinRecord(
                record_id=f"d{div}_{i}",
                encoded=universe.member(fam, div, member_seed=i, indel_rate=0.0),
                family_id=fam.family_id,
                divergence=div,
            )
            return factory.native(rec)

        close = tm_score(member_native(0.05, 0).ca, base)
        far = tm_score(member_native(0.5, 1).ca, base)
        assert close > far

    def test_orphans_fold_uniquely(self, universe, proteome):
        factory = NativeFactory(universe)
        orphans = [r for r in proteome if r.family_id is None][:2]
        if len(orphans) < 2:
            pytest.skip("fixture has < 2 orphans")
        a, b = factory.native(orphans[0]), factory.native(orphans[1])
        n = min(len(a), len(b))
        assert tm_score(a.ca[:n], b.ca[:n]) < 0.5

    def test_ss_labels_available(self, factory, proteome):
        rec = proteome[2]
        labels = factory.native_ss_labels(rec)
        assert labels.size == rec.length
        assert set(np.unique(labels)) <= {0, 1, 2}

    def test_clear_cache(self, universe, proteome):
        factory = NativeFactory(universe)
        factory.native(proteome[0])
        factory.clear_cache()
        assert factory._native_cache == {}

    def test_labels_published_before_native(self, universe, proteome):
        """A thread that sees a cached native always finds its labels.

        The publishing thread is held at the instant the structure
        lands in the cache; a second thread asking for the labels in
        that window must be served, not hit a missing entry.
        """
        import threading

        rec = proteome[0]
        published, release = threading.Event(), threading.Event()

        class HoldOnPublish(dict):
            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                published.set()
                release.wait(timeout=30.0)

        factory = NativeFactory(universe)
        factory._native_cache = HoldOnPublish()
        seen: list = []

        def reader():
            try:
                seen.append(factory.native_ss_labels(rec))
            except Exception as exc:  # noqa: BLE001 - the regression itself
                seen.append(exc)
            finally:
                release.set()

        writer = threading.Thread(target=factory.native, args=(rec,))
        writer.start()
        assert published.wait(timeout=30.0)
        peer = threading.Thread(target=reader)
        peer.start()
        peer.join(timeout=30.0)
        writer.join(timeout=30.0)
        assert not peer.is_alive() and not writer.is_alive()
        (labels,) = seen
        assert isinstance(labels, np.ndarray), labels
        assert labels.size == rec.length

    def test_ss_labels_published_before_fold(self, universe):
        """A thread that sees a cached family fold always finds its labels.

        Same shape as the native test above: the builder is held at the
        instant the fold lands in ``_fold_cache``; ``ss_labels`` takes a
        cached fold as proof the labels exist, so they must already be
        there.
        """
        fam = universe.family(125)
        published, release = threading.Event(), threading.Event()

        class HoldOnPublish(dict):
            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                published.set()
                release.wait(timeout=30.0)

        factory = NativeFactory(universe)
        factory._fold_cache = HoldOnPublish()

        def reader():
            assert published.wait(timeout=30.0)
            try:
                return factory.ss_labels(fam.fold_seed, fam.length)
            finally:
                release.set()

        fold, labels = run_bounded(
            [lambda: factory.family_fold(fam.fold_seed, fam.length), reader]
        )
        assert labels.shape == (fam.length,)
        assert fold.shape == (fam.length, 3)


class TestSingleFlightBuilds:
    """Racing threads build each native and each family fold once."""

    @pytest.mark.parametrize("n_threads", [2, 4])
    def test_racing_threads_match_the_serial_build_counts(
        self, universe, proteome, compact_calls, n_threads
    ):
        records = list(proteome)[:12]
        serial = NativeFactory(universe)
        reference = [serial.native(r) for r in records]
        expected = sorted(compact_calls)
        assert expected.count("fold") == len(serial._fold_cache)
        compact_calls.clear()

        factory = NativeFactory(universe)
        registry = MetricsRegistry()
        start = threading.Barrier(n_threads)

        def walk():
            start.wait(30.0)
            return [factory.native(r) for r in records]

        with use_metrics(registry):
            walks = run_bounded([walk] * n_threads)
        assert sorted(compact_calls) == expected
        for walked in walks:
            for got, first, ref in zip(walked, walks[0], reference):
                assert got is first
                np.testing.assert_array_equal(got.ca, ref.ca)
        # Every thread walks the same order from the same instant, so
        # at least the very first native is contended.
        counters = registry.counter_values("fold.")
        assert counters.get("fold.native.coalesced", 0) >= 1
        assert factory._native_flights._inflight == {}
        assert factory._fold_flights._inflight == {}

    def test_two_natives_are_in_flight_at_the_same_time(
        self, universe, proteome, monkeypatch
    ):
        """No factory-wide lock: each of two different natives' builds
        waits, inside its collapse, for the other to have started."""
        a, b = [r for r in proteome if r.family_id is None][:2]
        real = generator.compact_chain
        inside = {a.length: threading.Event(), b.length: threading.Event()}
        assert len(inside) == 2, "fixture orphans share a length"

        def handshake(chain, rng, n_steps=None):
            mine = len(chain)
            inside[mine].set()
            (other,) = [e for n, e in inside.items() if n != mine]
            assert other.wait(30.0), "the other native never started"
            return real(chain, rng, n_steps=n_steps)

        monkeypatch.setattr(generator, "compact_chain", handshake)
        factory = NativeFactory(universe)
        na, nb = run_bounded(
            [lambda: factory.native(a), lambda: factory.native(b)]
        )
        assert (na.record_id, nb.record_id) == (a.record_id, b.record_id)

    def test_factory_pickles_with_its_flight_tables(self, universe, proteome):
        """``ProcessExecutor(start_method="spawn")`` ships the factory as
        an initarg; the clone must build for itself."""
        import pickle

        rec = proteome[0]
        factory = NativeFactory(universe)
        native = factory.native(rec)
        clone = pickle.loads(pickle.dumps(factory))
        clone.clear_cache()
        np.testing.assert_array_equal(clone.native(rec).ca, native.ca)
