"""Tests of the benchmark harness itself.

Not collected by tier-1 (``testpaths = ["tests"]``); run with

    PYTHONPATH=src python -m pytest benchmarks/campaign/test_harness.py
"""

from __future__ import annotations

import copy
import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from benchmarks.campaign import compare, harness
from benchmarks.campaign.child import _uncovered_seconds, science_digests
from benchmarks.campaign.metrics import (
    CONTRACT,
    END_TO_END,
    PER_LAYER,
    Metric,
    applies,
)
from benchmarks.campaign.workloads import SIZES, SMOKE_SIZES, WORKLOADS


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke") / "smoke.json"
    started = time.perf_counter()
    code = harness.main(["--smoke", "--out", str(out)])
    return code, time.perf_counter() - started, json.loads(out.read_text())


def test_smoke_passes_its_gate_in_under_a_minute(smoke):
    code, elapsed, report = smoke
    assert code == 0
    assert elapsed < 60
    assert report["envelope"]["smoke"] and report["envelope"]["blas_pin"]
    assert report["checks"] == {
        "mixed_digests_equal": True,
        "tiny_digests_equal": True,
        "sim_costs_equal.tiny_streaming_process.tiny_durable_process": True,
    }
    for name, entry in report["workloads"].items():
        assert entry["n_targets"] == SMOKE_SIZES[WORKLOADS[name].input] <= 12
        assert entry["end_to_end"]["failed_share"]["value"] == 0
        assert all(entry["checks"].values()), entry["checks"]
    assert report["workloads"]["tiny_durable_process"]["checks"][
        "cross_schedule_resume"
    ]


def test_every_named_metric_is_emitted_and_no_other(smoke):
    report = smoke[2]
    assert list(report["workloads"]) == list(WORKLOADS)
    for name, entry in report["workloads"].items():
        w = WORKLOADS[name]
        assert {k: v["unit"] for k, v in entry["end_to_end"].items()} == {
            m.name: m.unit for m in END_TO_END
        }
        assert list(entry["layers"]) == [m.name for m in PER_LAYER]
        for metric, value in entry["layers"].items():
            on_path = applies(metric, durable=w.durable, backend=w.backend)
            assert (value is None) == (not on_path), (name, metric, value)


def test_benchmark_json_is_the_harness_table():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert CONTRACT["paths"] == ["benchmarks/campaign"]
    for w in CONTRACT["workloads"]:  # the final sizes are on record
        assert w["why"].startswith(f"{SIZES[WORKLOADS[w['name']].input]} targets; ")
    table = {m.name: m for m in (*END_TO_END, *PER_LAYER)}
    named = CONTRACT["end_to_end"] + CONTRACT["per_layer"]
    assert len({m["name"] for m in named}) == len(named)
    for m in named:
        assert table[m["name"]] == Metric(**m)
    assert "setup_s" in {m["name"] for m in CONTRACT["end_to_end"]}
    # The driver gets a number for every layer metric on every workload:
    # whatever is null somewhere stays out of its list.
    for m in CONTRACT["per_layer"]:
        for w in WORKLOADS.values():
            assert applies(m["name"], durable=w.durable, backend=w.backend)


def test_committed_baseline_comes_from_this_code_on_a_quiet_box():
    latest = json.loads((harness.RESULTS / "latest.json").read_text())
    rows = (harness.RESULTS / "trajectory.jsonl").read_text().splitlines()
    for env in (latest["envelope"], json.loads(rows[-1])["envelope"]):
        assert env["benchmark_digest"] == harness.code_digest()
        assert not env["degraded"] and not env["smoke"]
    assert harness.exit_code(latest) == 0


def test_a_loaded_box_is_marked_degraded(monkeypatch):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda _pid: {0, 1})
    monkeypatch.setattr(harness.os, "getloadavg", lambda: (1.48, 0.0, 0.0))
    assert harness.envelope(1, SIZES, 3, False)["degraded"]
    monkeypatch.setattr(harness.os, "getloadavg", lambda: (0.2, 0.0, 0.0))
    assert not harness.envelope(1, SIZES, 3, False)["degraded"]
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda _pid: {0})
    assert harness.envelope(1, SIZES, 3, False)["degraded"]


def _science(shift: float = 0.0):
    """Two fake targets; ``shift`` perturbs one relaxed coordinate."""
    tops, outcomes = {}, {}
    for i, rid in enumerate(("t0", "t1")):
        ca = np.arange(12, dtype=np.float64).reshape(4, 3) + i
        if i == 1:
            ca[2, 1] += shift
        tops[rid] = SimpleNamespace(ptms=0.8, mean_plddt=71.5, n_recycles=3 + i)
        outcomes[rid] = SimpleNamespace(
            total_steps=40, final_energy=-12.5, converged=True,
            structure=SimpleNamespace(ca=ca),
        )  # fmt: skip
    return science_digests(tops, outcomes)


def _report_with(share: float) -> dict:
    entry = {"end_to_end": {"failed_share": {"value": share}}, "checks": {}}
    return {"workloads": {"w": entry}, "checks": {}}


def test_perturbed_structure_fails_the_gate_and_the_exit_code():
    reference = _science()
    assert reference == _science() and len(set(reference.values())) == 2
    clean = {"n_targets": 2, "digests": _science(), "resume": None}
    bent = {"n_targets": 2, "digests": _science(shift=1e-9), "resume": None}
    assert harness.failed_share([clean], reference) == 0
    assert harness.exit_code(_report_with(0.0)) == 0
    share = harness.failed_share([clean, bent], reference)
    assert share == 0.25
    assert harness.exit_code(_report_with(share)) == 1


def test_missing_structure_and_failed_resume_count_as_failures():
    reference = _science()
    lost = {"n_targets": 2, "digests": {"t0": reference["t0"]}, "resume": None}
    assert harness.count_failures(lost, reference) == 1
    unresumed = {"n_targets": 2, "digests": reference, "resume": {"ok": False}}
    assert harness.count_failures(unresumed, reference) == 1


def test_a_run_with_no_structure_has_no_ttfs_and_fails_only_the_gate():
    reference = _science()
    metrics = dict.fromkeys((m.name for m in harness.RUN_METRICS), 1.0)
    dead = {
        "n_targets": 2, "digests": {}, "resume": None,
        "metrics": {**metrics, "ttfs_s": None},
    }  # fmt: skip
    assert harness.failed_share([dead], reference) == 1.0
    summary = harness.end_to_end([dead])
    assert summary["ttfs_s"] == {
        "median": None, "min": None, "max": None, "n": 0, "unit": "s",
    }  # fmt: skip
    assert summary["targets_per_s"]["n"] == 1


def test_a_failed_check_fails_the_exit_code():
    report = _report_with(0.0)
    report["checks"]["mixed_digests_equal"] = False
    assert harness.exit_code(report) == 1


def test_idle_is_measured_from_the_gaps_between_a_workers_records():
    def record(start, end):
        return SimpleNamespace(start=start, end=end)

    tiled = [record(1.0, 4.0), record(0.0, 1.0), record(6.0, 9.0)]
    assert _uncovered_seconds(tiled, 10.0) == pytest.approx(3.0)  # = wall - busy
    # Overlapping records: busy is 8 s, yet only 5 s of the 10 are
    # covered, so busy + idle = 13 and 3 s show up as unattributed.
    overlapping = [record(0.0, 4.0), record(1.0, 5.0)]
    assert _uncovered_seconds(overlapping, 10.0) == pytest.approx(5.0)
    assert _uncovered_seconds([], 2.5) == 2.5


def _summary(median: float, lo: float, hi: float) -> dict:
    return {"median": median, "min": lo, "max": hi, "n": 3}


def test_compare_verdicts_follow_direction_bound_and_spread():
    by_name = {m.name: m for m in END_TO_END}
    rate, rss = by_name["targets_per_s"], by_name["peak_rss_mb"]
    assert rate.better == "higher" and rss.better == "lower"
    base = _summary(10.0, 9.9, 10.1)

    def moved(metric, by):  # tight runs, median moved by a multiple of the bound
        m = 10.0 * (1 + by * metric.bound)
        return compare.verdict(metric, base, _summary(m, m - 0.1, m + 0.1))[0]

    assert moved(rate, +0.5) == moved(rate, -0.5) == "same"
    assert moved(rate, -1.5) == "worse" and moved(rate, +1.5) == "better"
    assert moved(rss, +1.5) == "worse" and moved(rss, -1.5) == "better"
    # Spread wider than the bound and overlapping runs: the medians settle nothing.
    wide = _summary(10.0 * (1 - 1.5 * rate.bound), 1.0, 10.0)
    assert compare.verdict(rate, base, wide)[0] == "unresolved"
    failed = by_name["failed_share"]
    assert compare.verdict(failed, {"value": 0.0}, {"value": 0.01})[0] == "worse"
    assert compare.verdict(failed, {"value": 0.0}, {"value": 0.0})[0] == "same"
    sim = by_name["sim_node_hours"]
    exact = _summary(7.5, 7.5, 7.5)
    assert compare.verdict(sim, exact, exact)[0] == "same"
    assert compare.verdict(sim, exact, _summary(7.5001, 7.5, 7.5001))[0] == "differs"


def test_compare_exit_code(smoke, tmp_path):
    report = smoke[2]
    worse = copy.deepcopy(report)
    slow = worse["workloads"]["tiny_streaming_process"]["end_to_end"]["targets_per_s"]
    for key in ("median", "min", "max"):
        slow[key] /= 2
    drifted = copy.deepcopy(report)
    drifted["workloads"]["mixed_barrier_threaded"]["layers"]["fold.recycles"] += 1
    paths = {}
    for label, doc in (("a", report), ("worse", worse), ("drifted", drifted)):
        paths[label] = tmp_path / f"{label}.json"
        paths[label].write_text(json.dumps(doc))
    assert compare.main([str(paths["a"]), str(paths["a"])]) == 0
    assert compare.main([str(paths["a"]), str(paths["worse"])]) == 1
    assert compare.main([str(paths["a"]), str(paths["drifted"])]) == 1
