"""Per-task stage functions, shaped for cross-process execution.

The pipeline's stages used to hand the executor closures over local
state (the library suite, the model bank, the preset).  A closure works
on the threaded backend but cannot cross a process boundary, so the
process executor forces the split this module encodes:

* a module-level **task function** per stage — picklable by reference,
  taking only what rides in the :class:`~repro.dataflow.scheduler.TaskSpec`
  payload — and
* a module-level **initializer** per stage that stashes the heavy
  shared state (suite, model bank, cache) into the process-local
  :data:`_CTX` dict.

:class:`~repro.dataflow.engine.ThreadedExecutor` runs the initializer
once up front; :class:`~repro.dataflow.process.ProcessExecutor` runs it
once per worker process.  Either way the task functions read the same
``_CTX`` keys, so the pipeline drives both backends through one code
path.  Under the default ``fork`` start method the initargs are
inherited copy-on-write rather than pickled; under ``spawn`` they
travel by pickle — which is why :class:`~repro.msa.kmer.KmerIndex`
ships its frozen CSR arrays but not its derived lookup table, and
:class:`~repro.cache.FeatureCache` reduces to its directory path.

With a pipeline ``index_dir``, the suite that reaches the initializer
already carries :class:`~repro.msa.diskindex.DiskKmerIndex` instances:
forked workers inherit the read-only mappings copy-on-write and
spawned workers re-attach by manifest path (its ``__getstate__`` ships
no postings), so no worker ever rebuilds — or even receives — a CSR
index.  Without one, the index builds lazily inside the first feature
task a process runs, so the per-process build cost is visible in that
task's merged ``msa.index.rebuild`` counter delta rather than hidden
in initializer time.

Nothing lazy is pre-built here.  The suite's k-mer indexes and the
factory's natives and family folds are built by the first task that
needs them and shared from then on: once per worker process, and once
per *process* — not per thread — on the threaded backend, where
threads that miss the same key together wait for one build
(:mod:`repro.singleflight`).  Both objects carry their in-flight
tables across ``spawn`` as fresh, empty ones.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any

from ..fold.memory import (
    highmem_worker_memory_bytes,
    standard_worker_memory_bytes,
)
from ..fold.model import SurrogateFoldModel
from ..msa.features import generate_features
from ..relax.protocols import SinglePassRelaxProtocol
from .presets import get_preset

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cache import FeatureCache
    from ..dataflow.scheduler import TaskSpec
    from ..fold.generator import NativeFactory
    from ..fold.model import Prediction
    from ..msa.databases import LibrarySuite
    from ..msa.features import FeatureBundle, FeatureGenConfig
    from ..relax.protocols import RelaxOutcome

__all__ = [
    "init_feature_stage",
    "feature_task",
    "init_inference_stage",
    "inference_task",
    "init_streaming",
    "streaming_task",
    "streaming_key",
    "split_streaming_key",
]

#: Process-local stage context, filled by the stage initializers.  One
#: stage runs at a time per process, so a single dict is unambiguous.
_CTX: dict[str, Any] = {}


# -- Stage 1: feature generation ---------------------------------------------
def init_feature_stage(
    suite: "LibrarySuite",
    config: "FeatureGenConfig | None",
    cache: "FeatureCache | None",
) -> None:
    """Install the search context; one call serves every feature task.

    Pre-warms the suite fingerprint memo here so each worker (or the
    one fork parent) pays the content hash once, not once per cache
    key computation.  The k-mer indexes stay lazy: each library's first
    search builds its index once for every thread of this process.
    """
    suite.fingerprint()
    _CTX["suite"] = suite
    _CTX["feature_config"] = config
    _CTX["feature_cache"] = cache


def feature_task(record) -> "FeatureBundle":
    """MSA search for one target against the installed suite."""
    return generate_features(
        record,
        _CTX["suite"],
        _CTX["feature_config"],
        cache=_CTX["feature_cache"],
    )


# -- Stage 2: model inference -------------------------------------------------
def init_inference_stage(factory: "NativeFactory", preset_name: str) -> None:
    """Build the five-model bank and memory budgets once per process.

    The bank shares one ``factory``: the five heads of a target ask for
    the same hidden native, and whichever asks first builds it for all.
    """
    _CTX["bank"] = [SurrogateFoldModel(factory, i) for i in range(5)]
    _CTX["preset"] = get_preset(preset_name)
    _CTX["std_budget"] = standard_worker_memory_bytes()
    _CTX["hm_budget"] = highmem_worker_memory_bytes()


def inference_task(spec: "TaskSpec") -> "Prediction":
    """One (target, model) prediction; needs the live spec.

    The payload is ``(bundle, model_index, kingdom_bias)``; the memory
    budget follows the *current attempt's* placement class
    (``spec.requires_highmem``), so a retry escalated to a high-memory
    worker predicts under the 2 TB budget its new home provides.
    """
    bundle, model_index, bias = spec.payload
    model = _CTX["bank"][model_index]
    budget = _CTX["hm_budget"] if spec.requires_highmem else _CTX["std_budget"]
    config = _CTX["preset"].config(
        kingdom_bias=bias, memory_budget_bytes=budget
    )
    return model.predict(bundle, config)


# -- Streaming: all three stages through one dependency-driven map ------------
def streaming_key(stage: str, key: str) -> str:
    """Stage-prefixed task key (``feature/P001``, ``inference/P001/m3``).

    The prefix keeps feature and relax keys — both bare record ids —
    distinct inside one campaign-wide map call; the streaming callback
    strips it again before records reach the ledger, so on-disk state
    stays byte-compatible with barrier runs (cross-schedule resume).
    """
    return f"{stage}/{key}"


def split_streaming_key(key: str) -> tuple[str, str]:
    """Invert :func:`streaming_key` → ``(stage, bare_key)``."""
    stage, _, bare = key.partition("/")
    return stage, bare


def init_streaming(
    suite: "LibrarySuite",
    config: "FeatureGenConfig | None",
    cache: "FeatureCache | None",
    factory: "NativeFactory",
    preset_name: str,
) -> None:
    """Install every stage's context at once for a streaming campaign.

    A streaming worker may be handed a feature task, then an inference
    task, then a relax minimisation — there is no per-stage worker
    lifetime to hang separate initializers on — so this composes the
    per-stage initializers plus the relax protocol into one call.
    """
    init_feature_stage(suite, config, cache)
    init_inference_stage(factory, preset_name)
    _CTX["relax_protocol"] = SinglePassRelaxProtocol(device="gpu")


def streaming_task(spec: "TaskSpec") -> "FeatureBundle | Prediction | RelaxOutcome":
    """Dispatch one streaming chain task by its stage prefix.

    The payload arrives as ``(stage_payload, deps)`` — the executor's
    ``inject_deps`` wrapping — where ``deps`` maps resolved dependency
    keys to their results:

    * ``feature/<rid>``: payload is the sequence record; no deps.
    * ``inference/<rid>/<model>``: payload is ``(model_index, bias)``;
      the single dep is the feature bundle.  Reuses
      :func:`inference_task` verbatim (same budget-by-placement rule),
      so predictions are bit-identical to the barrier stage.
    * ``relax/<rid>``: payload is empty; deps are the five model
      predictions, possibly short of five when some were lost to OOM
      (``dep_mode="resolved"``).  Top-model selection is the barrier
      stage's ``max(..., key=ptms)`` over predictions in bank order —
      the dependency tuple preserves bank order, so ties break
      identically.
    """
    payload, deps = spec.payload
    stage, _ = split_streaming_key(spec.key)
    if stage == "feature":
        return feature_task(payload)
    if stage == "inference":
        bundle = deps[spec.depends_on[0]]
        model_index, bias = payload
        return inference_task(
            replace(spec, payload=(bundle, model_index, bias))
        )
    if stage == "relax":
        preds = [deps[k] for k in spec.depends_on if k in deps]
        if not preds:  # pragma: no cover - queue poisons this case first
            raise RuntimeError(f"{spec.key}: no surviving predictions")
        top = max(preds, key=lambda p: p.ptms)
        protocol: SinglePassRelaxProtocol = _CTX["relax_protocol"]
        return protocol.run_prepared(protocol.prepare(top.structure))
    raise ValueError(f"unknown streaming stage in key {spec.key!r}")
