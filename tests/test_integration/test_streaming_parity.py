"""Schedule parity: streaming and barrier campaigns agree bit-for-bit.

A schedule is a wave plan over one task DAG — an operational choice
only.  These tests pin that: identical science on both schedules and
both executor backends (and identical to the golden file captured when
each schedule still had its own code path), schedule-invariant
node-hour accounting, a strictly shorter simulated campaign (makespan
*and* time-to-first-structure) under streaming, OOM-lost targets
handled alike, resume from any writer's ledger under any resumer, and
task→stage span nesting that survives the stages interleaving.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core import ProteomePipeline
from repro.core.stagework import HeadSummary
from repro.dataflow import TaskRecord
from repro.fold import NativeFactory
from repro.msa import build_suite
from repro.runstate import RunState
from repro.sequences import (
    ProteinRecord,
    Proteome,
    SequenceUniverse,
    random_sequence,
    rng_for,
    synthetic_proteome,
)
from repro.telemetry import Tracer, use_tracer


def make_pipeline(**kwargs) -> ProteomePipeline:
    return ProteomePipeline(
        feature_nodes=4,
        inference_nodes=2,
        relax_nodes=1,
        compute_workers=3,
        **kwargs,
    )


#: Captured at the last commit that carried two campaign paths (one
#: per schedule), by ``campaign_fingerprint`` over this module's mini
#: world on {barrier, streaming} x {threaded, process}.
GOLDEN = Path(__file__).with_name("parity_golden.json")


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def run_recording(pipeline, world, heads: dict | None = None):
    """Run the campaign, recording every head prediction it computes
    into ``heads`` (bare key -> prediction) through the task observer.

    The campaign itself keeps each head's summary and each target's
    top prediction; the fingerprint hashes every head's structure.
    """
    heads = {} if heads is None else heads
    lock = threading.Lock()
    chained = pipeline.task_observer

    def observer(stage, record, value):
        if stage == "inference" and record.ok:
            with lock:
                heads[record.key] = value
        if chained is not None:
            chained(stage, record, value)

    pipeline.task_observer = observer
    return pipeline.run(*world)


def campaign_fingerprint(result, heads: dict) -> dict:
    """Every number and byte a schedule or backend must not change.

    ``heads`` maps bare inference keys to the predictions the run
    computed or restored; each must match the run's head summary.
    Floats are kept as ``float.hex`` and arrays as digests of their
    bytes, so equality with the golden file is bit-for-bit.
    """
    stages = {
        "feature": result.feature_stage,
        "inference": result.inference_stage,
        "relax": result.relax_stage,
    }
    science = []
    for rid, b in result.feature_stage.features.items():
        science.append(
            (
                rid, b.msa_depth, float(b.effective_depth).hex(),
                b.n_templates, b.best_template_family,
                float(b.best_template_identity).hex(), b.n_file_reads,
                b.bytes_scanned, _sha(b.record.encoded.tobytes()),
            )
        )  # fmt: skip
    for rid, summaries in result.inference_stage.predictions.items():
        for summary in summaries:
            p = heads[f"{rid}/{summary.model_name}"]
            assert HeadSummary.of(p) == summary
            science.append(
                (
                    rid, p.model_name, float(p.ptms).hex(),
                    float(p.mean_plddt).hex(), p.n_recycles,
                    _sha(p.structure.ca.tobytes(), p.structure.plddt.tobytes()),
                )
            )  # fmt: skip
        # The top model is the first head of maximal pTMS, in bank order.
        top = result.inference_stage.top_models[rid]
        assert top.model_name == max(summaries, key=lambda h: h.ptms).model_name
        head = heads[f"{rid}/{top.model_name}"]
        assert HeadSummary.of(top) == HeadSummary.of(head)
        assert top.structure.ca.tobytes() == head.structure.ca.tobytes()
    science.append(sorted(result.inference_stage.top_models))
    science.append(result.inference_stage.oom_failures)
    for rid, o in result.relax_stage.outcomes.items():
        science.append(
            (
                rid, float(o.final_energy).hex(), o.total_steps, o.converged,
                o.n_minimizations, o.n_heavy_atoms, o.n_hydrogens,
                o.violations_after.n_clashes, o.violations_after.n_bumps,
                _sha(o.structure.ca.tobytes()),
            )
        )  # fmt: skip
    return {
        "sim_records": {
            name: [
                [r.key, r.worker_id, r.start.hex(), r.end.hex(), r.ok, r.attempt]
                for r in stage.simulation.records
            ]
            for name, stage in stages.items()
        },
        "node_hours": {
            name: stage.node_hours.hex() for name, stage in stages.items()
        },
        "total_node_hours": result.total_node_hours.hex(),
        "campaign_walltime_seconds": result.campaign_walltime_seconds.hex(),
        "bubble_seconds": float(result.bubble_seconds).hex(),
        "time_to_first_structure_seconds": float(
            result.time_to_first_structure_seconds
        ).hex(),
        "science": _sha(json.dumps(science).encode()),
    }


@pytest.fixture(scope="module")
def mini():
    uni = SequenceUniverse(33)
    prot = synthetic_proteome("P_mercurii", universe=uni, seed=33, scale=0.002)
    suite = build_suite(uni, ["P_mercurii"], seed=33, scale=0.002)
    return prot, suite, NativeFactory(uni)


@pytest.fixture(scope="module")
def heads():
    """Run fixture name -> the head predictions its campaign computed."""
    return {}


@pytest.fixture(scope="module")
def barrier_run(mini, heads):
    return run_recording(
        make_pipeline(schedule="barrier"), mini, heads.setdefault("barrier_run", {})
    )


@pytest.fixture(scope="module")
def streaming_run(mini, heads):
    return run_recording(
        make_pipeline(schedule="streaming"),
        mini,
        heads.setdefault("streaming_run", {}),
    )


@pytest.fixture(scope="module")
def streaming_process_run(mini, heads):
    return run_recording(
        make_pipeline(schedule="streaming", executor_backend="process"),
        mini,
        heads.setdefault("streaming_process_run", {}),
    )


@pytest.fixture(scope="module")
def barrier_process_run(mini, heads):
    return run_recording(
        make_pipeline(schedule="barrier", executor_backend="process"),
        mini,
        heads.setdefault("barrier_process_run", {}),
    )


@pytest.mark.parametrize(
    "schedule, fixture",
    [
        ("barrier", "barrier_run"),
        ("barrier", "barrier_process_run"),
        ("streaming", "streaming_run"),
        ("streaming", "streaming_process_run"),
    ],
)
def test_exactly_the_two_path_numbers(schedule, fixture, heads, request):
    """Every simulation record, node-hour, timeline number and science
    byte equals what the per-schedule code paths produced (GOLDEN)."""
    golden = json.loads(GOLDEN.read_text())
    expected = {**golden["shared"], **golden["timeline"][schedule]}
    result = request.getfixturevalue(fixture)
    assert campaign_fingerprint(result, heads[fixture]) == expected


class TestSchedulesAgree:
    def test_schedules_are_labelled(self, barrier_run, streaming_run):
        assert barrier_run.schedule == "barrier"
        assert barrier_run.streaming_simulation is None
        assert streaming_run.schedule == "streaming"
        assert streaming_run.streaming_simulation is not None

    def test_feature_stage_bit_identical(self, barrier_run, streaming_run):
        a = barrier_run.feature_stage.features
        b = streaming_run.feature_stage.features
        assert a.keys() == b.keys()
        for rid in a:
            assert a[rid].msa_depth == b[rid].msa_depth
            assert a[rid].effective_depth == b[rid].effective_depth
            assert a[rid].n_templates == b[rid].n_templates

    def test_inference_stage_bit_identical(self, barrier_run, streaming_run):
        a = barrier_run.inference_stage.top_models
        b = streaming_run.inference_stage.top_models
        assert a.keys() == b.keys()
        for rid in a:
            assert a[rid].model_name == b[rid].model_name
            assert a[rid].ptms == b[rid].ptms
            np.testing.assert_array_equal(
                a[rid].structure.ca, b[rid].structure.ca
            )

    def test_relax_stage_bit_identical(self, barrier_run, streaming_run):
        a = barrier_run.relax_stage.outcomes
        b = streaming_run.relax_stage.outcomes
        assert a.keys() == b.keys()
        for rid in a:
            np.testing.assert_array_equal(
                a[rid].structure.ca, b[rid].structure.ca
            )
            assert a[rid].final_energy == b[rid].final_energy

    def test_node_hours_schedule_invariant(self, barrier_run, streaming_run):
        assert (
            streaming_run.total_node_hours == barrier_run.total_node_hours
        )

    def test_process_backend_matches_threaded(
        self, streaming_run, streaming_process_run
    ):
        a = streaming_run.relax_stage.outcomes
        b = streaming_process_run.relax_stage.outcomes
        assert a.keys() == b.keys()
        for rid in a:
            np.testing.assert_array_equal(
                a[rid].structure.ca, b[rid].structure.ca
            )
            assert a[rid].final_energy == b[rid].final_energy
        assert (
            streaming_process_run.total_node_hours
            == streaming_run.total_node_hours
        )

    def test_no_failures(self, streaming_run, streaming_process_run):
        for run in (streaming_run, streaming_process_run):
            for stage in (run.feature_stage, run.relax_stage):
                assert stage.execution is not None
                assert stage.execution.n_failed == 0


class TestStreamingWins:
    def test_makespan_strictly_shorter(self, barrier_run, streaming_run):
        assert (
            streaming_run.campaign_walltime_seconds
            < barrier_run.campaign_walltime_seconds
        )

    def test_first_structure_lands_earlier(self, barrier_run, streaming_run):
        assert (
            streaming_run.time_to_first_structure_seconds
            < barrier_run.time_to_first_structure_seconds
        )

    def test_bubble_accounting_present(self, barrier_run, streaming_run):
        # Both schedules account their bubbles; dissolving the barriers
        # must not *create* idle time.
        assert barrier_run.bubble_seconds >= 0.0
        assert streaming_run.bubble_seconds >= 0.0
        assert streaming_run.bubble_seconds <= barrier_run.bubble_seconds


class TestOomLostTargets:
    """A target whose five heads all OOM is lost — absent from the top
    models, never relaxed, never a hang — under either wave plan.  The
    barrier plan's relax wave starts *after* those inference keys
    failed for good, so it must not wait on them."""

    @pytest.fixture(scope="class")
    def with_long_target(self, mini):
        """Three mini targets plus one 1000-residue record: over the
        casp14 (8-ensemble) memory wall on a standard worker, under it
        on a high-memory one."""
        prot, suite, factory = mini
        long_rec = ProteinRecord(
            record_id="highmem_target",
            encoded=random_sequence(1000, rng_for(99, "highmem-test")),
            family_id=None,
            divergence=1.0,
            annotated=False,
        )
        return Proteome(prot.species, [*prot[:3], long_rec]), suite, factory

    @pytest.mark.parametrize("routing, n_oom", [(False, 5), (True, 0)])
    def test_full_campaign(self, with_long_target, routing, n_oom):
        recorded = {"barrier": {}, "streaming": {}}
        runs = [
            run_recording(
                make_pipeline(
                    schedule=schedule,
                    preset_name="casp14",
                    use_highmem_routing=routing,
                ),
                with_long_target,
                recorded[schedule],
            )
            for schedule in ("barrier", "streaming")
        ]
        prot = with_long_target[0]
        survivors = {r.record_id for r in prot} - (
            set() if routing else {"highmem_target"}
        )
        for run in runs:
            inf = run.inference_stage
            assert len(inf.oom_failures) == n_oom
            assert inf.simulation.n_failed == n_oom
            assert set(inf.top_models) == survivors
            assert set(run.relax_stage.outcomes) == survivors
        barrier, streaming = runs
        # Behind the fence the lost target is not submitted at all;
        # inside one wave the queue skips it (one SkippedDependency).
        n_lost_targets = n_oom // 5
        assert barrier.relax_stage.execution.n_failed == 0
        assert streaming.relax_stage.execution.n_failed == n_oom + n_lost_targets
        assert (
            barrier.inference_stage.oom_failures
            == streaming.inference_stage.oom_failures
        )
        assert streaming.total_node_hours == barrier.total_node_hours
        assert (
            campaign_fingerprint(streaming, recorded["streaming"])["science"]
            == campaign_fingerprint(barrier, recorded["barrier"])["science"]
        )


    def test_wave_cut_applies_failures_from_before_the_fence(self, mini):
        """Partial losses cannot be staged through a real campaign (a
        target's five heads need the same memory), so cut the DAG by
        hand: two heads resolved, three failed before the fence."""
        from repro.core import streaming

        prot, _, _ = mini
        specs = streaming.build_campaign_specs(prot[:2])
        lost, kept = (r.record_id for r in prot[:2])
        resolved = {
            s.key: object()
            for s in specs
            if streaming.stage_of(s) == "feature" and kept in s.key
        }
        # Feature of ``lost`` failed: its whole chain is dropped.
        wave = streaming.wave_specs(specs, ("inference", "relax"), resolved)
        assert all(kept in s.key for s in wave) and len(wave) == 6
        # Two of ``kept``'s heads resolved, the other three failed.
        heads = [s.key for s in wave if streaming.stage_of(s) == "inference"]
        resolved.update({key: object() for key in heads[:2]})
        (relax,) = streaming.wave_specs(specs, ("relax",), resolved)
        assert relax.depends_on == tuple(heads[:2])


class TestResumeMatrix:
    """One restore path: whichever schedule (or commit) wrote the state
    directory, either schedule resumes it mid-chain."""

    @pytest.fixture(scope="class")
    def written(self, mini, tmp_path_factory):
        """Schedule → state dir of a whole campaign recorded under it."""
        prot, suite, factory = mini
        dirs = {}
        for schedule in ("barrier", "streaming"):
            dirs[schedule] = tmp_path_factory.mktemp(f"state-{schedule}")
            with RunState(dirs[schedule]) as state:
                make_pipeline(schedule=schedule, run_state=state).run(
                    prot, suite, factory
                )
        return dirs

    @staticmethod
    def mid_chain_state(writer, written, reference, state_dir, heads):
        """All features, ``heads`` of one target, no relax — as ``writer``
        left it on disk.  ``reference`` is ``(result, head predictions)``
        of a whole campaign.

        For a schedule, that is the schedule's own state directory with
        its ledger cut down to those completions (what a kill leaves
        behind is a subset of the ledger; unledgered artifacts are
        ignored).  ``"two-path"`` writes the directory the way the last
        two-path commit did: bare per-stage keys through the
        ledger/store API.
        """
        result, predictions = reference
        if writer in written:
            shutil.copytree(written[writer], state_dir)
            ledger = state_dir / "ledger.jsonl"
            kept = []
            for line in ledger.read_text().splitlines():
                entry = json.loads(line)
                if (
                    "schema" in entry
                    or entry["stage"] == "feature"
                    or (entry["stage"] == "inference" and entry["key"] in heads)
                ):
                    kept.append(line)
            ledger.write_text("\n".join(kept) + "\n")
            return
        values = {
            "feature": result.feature_stage.features,
            "inference": {key: predictions[key] for key in sorted(heads)},
        }
        with RunState(state_dir) as state:
            for stage, by_key in values.items():
                commit = state.on_complete(stage)
                for key, value in by_key.items():
                    commit(TaskRecord(key, "worker", 0.0, 0.0), value)

    @pytest.mark.parametrize("resumer", ["barrier", "streaming"])
    @pytest.mark.parametrize("writer", ["barrier", "streaming", "two-path"])
    def test_mid_chain_resume(
        self, mini, written, barrier_run, heads, tmp_path, writer, resumer
    ):
        prot, suite, factory = mini
        rid = prot[0].record_id
        ledgered_heads = {f"{rid}/model_1", f"{rid}/model_2"}
        ledgered = {("feature", r.record_id) for r in prot} | {
            ("inference", key) for key in ledgered_heads
        }
        state_dir = tmp_path / "state"
        self.mid_chain_state(
            writer,
            written,
            (barrier_run, heads["barrier_run"]),
            state_dir,
            ledgered_heads,
        )

        computed = []
        lock = threading.Lock()

        def observer(stage, record, value):
            with lock:
                computed.append((stage, record.key))

        with RunState(state_dir) as state:
            assert state.resumed
            predictions = state.restore("inference", sorted(ledgered_heads))
            resumed = run_recording(
                make_pipeline(
                    schedule=resumer, run_state=state, task_observer=observer
                ),
                mini,
                predictions,
            )

        n = len(prot)
        assert ledgered.isdisjoint(computed)
        assert len(computed) == len(set(computed)) == 7 * n - len(ledgered)
        assert resumed.feature_stage.skipped_resume == n
        assert resumed.inference_stage.skipped_resume == len(ledgered_heads)
        assert resumed.relax_stage.skipped_resume == 0
        golden = json.loads(GOLDEN.read_text())
        fingerprint = campaign_fingerprint(resumed, predictions)
        for name, expected in golden["shared"].items():
            assert fingerprint[name] == expected, name


class TestCrossScheduleResume:
    def test_streaming_resumes_a_barrier_ledger(self, mini, tmp_path):
        """The ledger speaks bare keys: a campaign recorded under the
        barrier schedule restores fully under streaming — zero
        recomputation in either direction."""
        prot, suite, factory = mini
        n = len(prot)

        state = RunState(tmp_path / "state")
        make_pipeline(schedule="barrier", run_state=state).run(
            prot, suite, factory
        )
        state.close()

        state = RunState(tmp_path / "state")
        assert state.resumed
        resumed = make_pipeline(schedule="streaming", run_state=state).run(
            prot, suite, factory
        )
        state.close()

        assert resumed.feature_stage.skipped_resume == n
        assert resumed.inference_stage.skipped_resume == 5 * n
        assert resumed.relax_stage.skipped_resume == n
        assert resumed.schedule == "streaming"


class TestSpanNesting:
    def test_wall_task_spans_nest_under_their_stage(self, mini):
        """Interleaved execution, untangled trace: every wall-clock task
        span parents to the stage span its key prefix names."""
        prot, suite, factory = mini
        tr = Tracer()
        with use_tracer(tr):
            make_pipeline(schedule="streaming").run(prot, suite, factory)

        stage_spans = {
            s.span_id: s.name for s in tr.spans if s.category == "stage"
        }
        assert set(stage_spans.values()) >= {"features", "inference", "relax"}
        stage_for_prefix = {
            "feature": "features",
            "inference": "inference",
            "relax": "relax",
        }
        wall_tasks = [
            s
            for s in tr.spans
            if s.category == "task" and s.attrs.get("clock") != "sim"
        ]
        assert len(wall_tasks) >= 7 * len(prot)
        for span in wall_tasks:
            prefix = span.name.partition("/")[0]
            assert stage_spans.get(span.parent_id) == stage_for_prefix[prefix]
