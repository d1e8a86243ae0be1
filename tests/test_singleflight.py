"""SingleFlight: one build per key, no lock across keys, nothing left behind."""

from __future__ import annotations

import multiprocessing
import pickle
import sys
import threading

import pytest

from repro.singleflight import SingleFlight
from repro.telemetry import MetricsRegistry, use_metrics

from .bounded import run_bounded, wait_until

WAIT = 30.0


@pytest.fixture()
def registry():
    registry = MetricsRegistry()
    with use_metrics(registry):
        yield registry


def coalesced(registry) -> float:
    return registry.counter_values().get("test.coalesced", 0)


def test_uncontended_miss_builds_publishes_and_leaves_no_state(registry):
    flights, cache = SingleFlight("test.coalesced"), {}
    assert flights.get_or_build(cache, "k", lambda: "v") == "v"
    assert cache == {"k": "v"}
    assert flights._inflight == {}
    assert coalesced(registry) == 0
    # A later call is a hit on the re-read; build must not run.
    assert flights.get_or_build(cache, "k", lambda: 1 / 0) == "v"


def test_same_key_is_built_once_and_waiters_share_the_result(registry):
    flights, cache = SingleFlight("test.coalesced"), {}
    entered, release = threading.Event(), threading.Event()
    builds = []

    def build():
        builds.append(threading.get_ident())
        entered.set()
        assert release.wait(WAIT)
        return object()

    def leader():
        return flights.get_or_build(cache, "k", build)

    def follower():
        assert entered.wait(WAIT)
        return flights.get_or_build(cache, "k", build)

    def releaser():
        # Let go only once all three followers are parked on the build.
        assert entered.wait(WAIT)
        wait_until(lambda: coalesced(registry) == 3)
        release.set()

    results = run_bounded([leader, follower, follower, follower, releaser])
    assert len(builds) == 1
    assert all(value is results[0] for value in results[:4])
    assert coalesced(registry) == 3
    assert flights._inflight == {}


def test_different_keys_are_in_flight_at_the_same_time(registry):
    """Each build waits for the *other* to have started: with one global
    lock the second could never start and both would time out."""
    flights, cache = SingleFlight("test.coalesced"), {}
    started = {"a": threading.Event(), "b": threading.Event()}

    def build(key, other):
        started[key].set()
        assert started[other].wait(WAIT), f"{other} never started"
        return key.upper()

    results = run_bounded(
        [
            lambda: flights.get_or_build(cache, "a", lambda: build("a", "b")),
            lambda: flights.get_or_build(cache, "b", lambda: build("b", "a")),
        ]
    )
    assert results == ["A", "B"]
    assert coalesced(registry) == 0


def test_raising_build_wakes_waiters_caches_nothing_and_is_retried(registry):
    flights, cache = SingleFlight("test.coalesced"), {}
    entered, release = threading.Event(), threading.Event()
    attempts = []

    def build():
        attempts.append(len(attempts))
        if len(attempts) == 1:
            entered.set()
            assert release.wait(WAIT)
            raise RuntimeError("first build fails")
        return "second"

    def leader():
        with pytest.raises(RuntimeError, match="first build fails"):
            flights.get_or_build(cache, "k", build)
        return "raised"

    def waiter():
        assert entered.wait(WAIT)
        return flights.get_or_build(cache, "k", build)

    def releaser():
        assert entered.wait(WAIT)
        wait_until(lambda: coalesced(registry) == 1)
        assert cache == {}
        release.set()

    results = run_bounded([leader, waiter, releaser])
    # The failure belonged to the builder alone; the waiter woke, found
    # nothing cached, and built the key itself.
    assert results[:2] == ["raised", "second"]
    assert attempts == [0, 1]
    assert cache == {"k": "second"}
    assert flights._inflight == {}


def test_pickles_to_a_fresh_table_even_mid_build():
    flights, cache = SingleFlight("test.coalesced"), {}
    entered, release = threading.Event(), threading.Event()

    def build():
        entered.set()
        assert release.wait(WAIT)
        return "v"

    def pickler():
        assert entered.wait(WAIT)
        try:
            clone = pickle.loads(pickle.dumps(flights))
        finally:
            release.set()
        return clone

    _, clone = run_bounded(
        [lambda: flights.get_or_build(cache, "k", build), pickler]
    )
    assert clone.coalesced == "test.coalesced"
    assert clone._inflight == {}
    assert clone.get_or_build({}, "k", lambda: "own") == "own"


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)
def test_forked_child_does_not_inherit_an_in_flight_build():
    """A child forked mid-build has no builder thread: it must build the
    key itself rather than wait on an event nobody will set."""
    flights, cache = SingleFlight("test.coalesced"), {}
    entered, release = threading.Event(), threading.Event()
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=False)

    def build():
        entered.set()
        assert release.wait(WAIT)
        return "parent"

    def child_main():
        child_conn.send(flights.get_or_build(cache, "k", lambda: "child"))

    def forker():
        assert entered.wait(WAIT)
        try:
            child = ctx.Process(target=child_main, daemon=True)
            child.start()
            got = parent_conn.recv() if parent_conn.poll(WAIT) else None
            child.join(WAIT)
            if child.is_alive():  # pragma: no cover - the regression
                child.kill()
        finally:
            release.set()
        return got

    mine, childs = run_bounded(
        [lambda: flights.get_or_build(cache, "k", build), forker]
    )
    assert (mine, childs) == ("parent", "child")


def test_stress_every_key_is_built_exactly_once(registry):
    """More threads than cores, a short switch interval, a build that
    yields mid-way: a lost update would show up as a second build."""
    flights, cache = SingleFlight("test.coalesced"), {}
    n_threads, keys = 8, list(range(25))
    builds = {key: 0 for key in keys}
    count_lock = threading.Lock()
    start = threading.Barrier(n_threads)

    def build(key):
        with count_lock:
            builds[key] += 1
        threading.Event().wait(0.0005)  # give up the GIL inside the build
        return [key]

    def worker(offset):
        start.wait(WAIT)
        seen = []
        for i in range(len(keys)):
            key = keys[(i + offset) % len(keys)]
            value = cache.get(key)
            if value is None:
                value = flights.get_or_build(cache, key, lambda: build(key))
            seen.append((key, value))
        return seen

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        results = run_bounded(
            [lambda o=o: worker(o) for o in range(n_threads)]
        )
    finally:
        sys.setswitchinterval(interval)
    assert builds == {key: 1 for key in keys}
    assert flights._inflight == {}
    for seen in results:
        assert all(value is cache[key] for key, value in seen)
