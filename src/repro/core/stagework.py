"""The campaign's task function, shaped for cross-process execution.

A closure over the library suite or the model bank works on the
threaded backend but cannot cross a process boundary, so the process
executor forces the split this module encodes:

* one module-level **task function**, :func:`streaming_task` —
  picklable by reference, taking only what rides in the
  :class:`~repro.dataflow.scheduler.TaskSpec` (its payload plus the
  results of its dependencies) and dispatching on the stage prefix of
  the task key — and
* one module-level **initializer**, :func:`init_stages`, that stashes
  the heavy shared state of the stages a wave will run (suite, model
  bank, cache, relax protocol) into the process-local :data:`_CTX` dict.

:class:`~repro.dataflow.engine.ThreadedExecutor` runs the initializer
once up front; :class:`~repro.dataflow.process.ProcessExecutor` runs it
once per worker process.  Either way the task function reads the same
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

This module also owns the task-key convention: every key the campaign
submits is built by :func:`streaming_key` and taken apart by
:func:`split_streaming_key`, nowhere else.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..fold.memory import (
    highmem_worker_memory_bytes,
    standard_worker_memory_bytes,
)
from ..fold.model import default_model_bank
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
    "init_stages",
    "streaming_task",
    "streaming_key",
    "split_streaming_key",
]

#: Process-local stage context, filled by :func:`init_stages`.  One
#: campaign runs at a time per process, so a single dict is unambiguous.
_CTX: dict[str, Any] = {}


def streaming_key(stage: str, key: str) -> str:
    """Stage-prefixed task key (``feature/P001``, ``inference/P001/m3``).

    The prefix keeps feature and relax keys — both bare record ids —
    distinct inside one campaign-wide map call; the pipeline's
    completion callback strips it again before records reach the
    ledger, so on-disk state speaks bare per-stage keys whatever the
    schedule (cross-schedule resume).
    """
    return f"{stage}/{key}"


def split_streaming_key(key: str) -> tuple[str, str]:
    """Invert :func:`streaming_key` → ``(stage, bare_key)``."""
    stage, _, bare = key.partition("/")
    return stage, bare


def init_stages(
    stages: tuple[str, ...],
    suite: "LibrarySuite | None",
    config: "FeatureGenConfig | None",
    cache: "FeatureCache | None",
    factory: "NativeFactory | None",
    preset_name: str,
) -> None:
    """Install the context of the stages one wave will run.

    A worker of a multi-stage wave may be handed a feature task, then
    an inference task, then a relax minimisation — there is no
    per-stage worker lifetime to hang separate initializers on.  Only
    the named stages are set up, so a wave without the feature stage
    needs no ``suite`` and one without inference no ``factory``.

    The suite fingerprint memo is pre-warmed so each worker (or the one
    fork parent) pays the content hash once, not once per cache key
    computation; the k-mer indexes stay lazy.  The five-model bank
    shares one ``factory``: the five heads of a target ask for the same
    hidden native, and whichever asks first builds it for all.
    """
    if "feature" in stages:
        suite.fingerprint()
        _CTX["suite"] = suite
        _CTX["feature_config"] = config
        _CTX["feature_cache"] = cache
    if "inference" in stages:
        _CTX["bank"] = default_model_bank(factory)
        _CTX["preset"] = get_preset(preset_name)
        _CTX["std_budget"] = standard_worker_memory_bytes()
        _CTX["hm_budget"] = highmem_worker_memory_bytes()
    if "relax" in stages:
        _CTX["relax_protocol"] = SinglePassRelaxProtocol(device="gpu")


def streaming_task(spec: "TaskSpec") -> "FeatureBundle | Prediction | RelaxOutcome":
    """Run one campaign task, dispatching on its key's stage prefix.

    The payload arrives as ``(stage_payload, deps)`` — the executor's
    ``inject_deps`` wrapping — where ``deps`` maps resolved dependency
    keys to their results:

    * ``feature/<rid>``: payload is the sequence record; no deps.  The
      MSA search against the installed suite.
    * ``inference/<rid>/<model>``: payload is ``(model_index, bias)``;
      the single dep is the feature bundle.  The memory budget follows
      the *current attempt's* placement class
      (``spec.requires_highmem``), so ``model.predict`` raises OOM
      exactly when the paper's deployment would have lost the task, and
      a retry escalated to a high-memory worker predicts under the 2 TB
      budget its new home provides.
    * ``relax/<rid>``: payload is empty; deps are the five model
      predictions, possibly short of five when some were lost to OOM
      (``dep_mode="resolved"``).  The top model is ``max(..., key=ptms)``
      over predictions in bank order — the dependency tuple preserves
      bank order, so ties break the same way on every schedule.
    """
    payload, deps = spec.payload
    stage, _ = split_streaming_key(spec.key)
    if stage == "feature":
        return generate_features(
            payload,
            _CTX["suite"],
            _CTX["feature_config"],
            cache=_CTX["feature_cache"],
        )
    if stage == "inference":
        bundle = deps[spec.depends_on[0]]
        model_index, bias = payload
        budget = (
            _CTX["hm_budget"] if spec.requires_highmem else _CTX["std_budget"]
        )
        config = _CTX["preset"].config(
            kingdom_bias=bias, memory_budget_bytes=budget
        )
        return _CTX["bank"][model_index].predict(bundle, config)
    if stage == "relax":
        preds = [deps[k] for k in spec.depends_on if k in deps]
        if not preds:  # pragma: no cover - queue poisons this case first
            raise RuntimeError(f"{spec.key}: no surviving predictions")
        top = max(preds, key=lambda p: p.ptms)
        protocol: SinglePassRelaxProtocol = _CTX["relax_protocol"]
        return protocol.run_prepared(protocol.prepare(top.structure))
    raise ValueError(f"unknown streaming stage in key {spec.key!r}")
