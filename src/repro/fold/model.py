"""The surrogate structure predictor (AlphaFold2 stand-in).

One :class:`SurrogateFoldModel` corresponds to one of AlphaFold's five
model heads.  ``predict`` runs the full recycling loop of the paper's
§3.2.2:

* the initial state is a decoy — the hidden native distorted by a
  smooth, secondary-structure-weighted error field whose magnitude is
  set by target difficulty (shallow MSA -> big initial error),
* each recycle contracts the error geometrically at the difficulty-
  dependent refinement rate, with a difficulty-dependent floor it can
  never beat,
* after each recycle the controller compares distogram signatures and
  early-stops when the preset's tolerance is met (adaptive presets) or
  runs the fixed recycle count (official presets),
* the finished model gets pLDDT/pTMS confidence scores derived from its
  true residual error plus calibrated estimation noise.

Memory is checked up front: a task that does not fit its worker's
memory budget raises :class:`OutOfMemoryError`, which the workflow layer
records as a failed task — reproducing the casp14 OOM losses in Table 1
and the routing of oversized proteins to high-memory nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..msa.features import FeatureBundle
from ..sequences.generator import rng_for
from ..structure.protein import Structure
from ..structure.tmscore import tm_score
from .confidence import plddt_from_errors, ptms_estimate
from .difficulty import irreducible_error, refinement_rate, target_difficulty
from .generator import NativeFactory, smooth_chain_noise
from .memory import inference_memory_bytes, standard_worker_memory_bytes
from .recycling import RecycleController, adaptive_recycle_cap

__all__ = [
    "PredictionConfig",
    "Prediction",
    "OutOfMemoryError",
    "SurrogateFoldModel",
    "MODEL_NAMES",
    "default_model_bank",
]

#: Names of the five model heads, in bank order — known without a bank,
#: so the campaign DAG can be laid out before any model exists.
MODEL_NAMES = tuple(f"model_{i + 1}" for i in range(5))


def _rotate_tail(
    coords: np.ndarray, hinge: int, axis: np.ndarray, angle: float
) -> None:
    """Rotate ``coords[hinge+1:]`` about the hinge residue (Rodrigues),
    in place.

    Models the inter-domain orientation error: the chain stays connected
    at the hinge while everything downstream swings as a rigid body.
    Rows up to the hinge are untouched, so chained hinge rotations share
    one working array instead of copying the whole chain per hinge.
    """
    if hinge >= coords.shape[0] - 1 or abs(angle) < 1e-12:
        return
    k = axis / (np.linalg.norm(axis) + 1e-12)
    c, s = np.cos(angle), np.sin(angle)
    v = coords[hinge + 1 :] - coords[hinge]
    coords[hinge + 1 :] = (
        coords[hinge]
        + v * c
        + np.cross(k, v) * s
        + np.outer(v @ k, k) * (1.0 - c)
    )


class OutOfMemoryError(RuntimeError):
    """An inference task exceeded its worker's memory budget."""

    def __init__(self, record_id: str, needed: int, budget: int) -> None:
        super().__init__(
            f"{record_id}: inference needs {needed / 2**30:.1f} GiB, "
            f"worker budget is {budget / 2**30:.1f} GiB"
        )
        self.record_id = record_id
        self.needed = needed
        self.budget = budget


@dataclass(frozen=True)
class PredictionConfig:
    """Inference-time knobs, normally derived from a preset."""

    n_ensembles: int = 1
    recycle_tolerance: float | None = None  # None = fixed-count recycling
    max_recycles: int = 3
    adaptive_cap: bool = False  # taper cap with length (custom presets)
    memory_budget_bytes: int | None = None  # None = standard worker share
    kingdom_bias: float = 0.0

    def recycle_cap(self, length: int) -> int:
        if self.adaptive_cap:
            return adaptive_recycle_cap(length, max_recycles=self.max_recycles)
        return self.max_recycles


@dataclass(frozen=True)
class Prediction:
    """One finished inference task: structure + confidence + provenance."""

    structure: Structure
    ptms: float
    mean_plddt: float
    n_recycles: int
    model_name: str
    difficulty: float
    true_tm: float  # hidden ground truth; benches use it, rankers must not

    @property
    def record_id(self) -> str:
        return self.structure.record_id


class SurrogateFoldModel:
    """One of the five model heads.

    ``model_index`` 0 and 1 consume structural templates (§3.2.1: only
    two of the five models use template features); the rest are
    sequence/MSA-only.
    """

    def __init__(self, factory: NativeFactory, model_index: int) -> None:
        if not 0 <= model_index < len(MODEL_NAMES):
            raise ValueError("model_index must be in [0, 5)")
        self.factory = factory
        self.model_index = model_index
        self.uses_templates = model_index < 2

    @property
    def name(self) -> str:
        return MODEL_NAMES[self.model_index]

    def predict(
        self, features: FeatureBundle, config: PredictionConfig
    ) -> Prediction:
        record = features.record
        length = record.length
        budget = (
            config.memory_budget_bytes
            if config.memory_budget_bytes is not None
            else standard_worker_memory_bytes()
        )
        needed = inference_memory_bytes(
            length, config.n_ensembles, features.msa_depth
        )
        if needed > budget:
            raise OutOfMemoryError(record.record_id, needed, budget)

        native = self.factory.native(record)
        ss_labels = self.factory.native_ss_labels(record)
        template_identity = (
            features.best_template_identity if self.uses_templates else 0.0
        )
        difficulty = target_difficulty(
            features.effective_depth,
            length,
            template_identity=template_identity,
            kingdom_bias=config.kingdom_bias,
        )
        rng = rng_for(0, "predict", record.record_id, self.model_index)
        # Per-head personality: heads differ slightly in where they start
        # and how fast they refine, which is what makes a 5-model
        # ensemble worth ranking.
        head_scale = float(rng.uniform(0.85, 1.2))
        rho = refinement_rate(difficulty) * float(rng.uniform(0.92, 1.05))
        rho = min(rho, 0.96)
        floor = irreducible_error(difficulty) * float(rng.uniform(0.75, 1.3))

        # --- Local error component (drives pLDDT) ------------------------
        # AlphaFold's first pass already lands near the converged answer;
        # recycling closes the remaining *gap* above the irreducible
        # floor.  Ensembling (casp14 preset) shaves a little off the gap
        # — which is why casp14 barely beats reduced_dbs in Table 1
        # despite 8x the compute.
        gap0 = floor * (0.35 + 1.3 * difficulty) * head_scale
        gap0 /= 1.0 + 0.006 * (config.n_ensembles - 1)
        sigma0 = floor + gap0
        field = smooth_chain_noise(length, rng, sigma=1.0, window=7)
        ss_weight = np.where(ss_labels == 2, 1.5, np.where(ss_labels == 0, 0.8, 1.0))
        field = field * ss_weight[:, None]
        field_rms = np.sqrt((field**2).sum(axis=1).mean())
        field /= max(field_rms, 1e-9)

        # --- Inter-domain orientation error (drives pTMS) -----------------
        # pLDDT is a local score and pTMS a global one: AlphaFold's
        # characteristic failure on multi-domain proteins is correct
        # domains in the wrong relative orientation — high pLDDT, low
        # pTMS.  Longer chains carry more domains; each extra domain gets
        # a rotation about its hinge whose magnitude shrinks per recycle
        # toward a difficulty-dependent floor.
        #
        # The domain architecture (count, hinge positions) belongs to the
        # *target*, so it is drawn from a record-keyed stream: if each
        # model head drew its own, picking the best of five would
        # systematically select the head with the fewest domains.
        target_rng = rng_for(0, "target-domains", record.record_id)
        n_domains = 1 + int(target_rng.poisson(max(0, length - 60) / 170.0))
        lo, hi = length // 5, length - length // 5
        boundaries = np.sort(
            target_rng.choice(np.arange(lo, hi), size=n_domains - 1, replace=False)
        ) if n_domains > 1 and hi - lo >= n_domains else np.empty(0, dtype=np.int64)
        dom_axes = rng.normal(size=(len(boundaries), 3))
        dom_axes /= np.linalg.norm(dom_axes, axis=1, keepdims=True) + 1e-12
        theta_floor = np.deg2rad(35.0 + 65.0 * difficulty) * rng.uniform(
            0.8, 1.4, size=len(boundaries)
        )
        theta0 = theta_floor * (1.3 + 1.2 * difficulty)

        # One working buffer per prediction: each recycle assembles into
        # it and rotates hinge tails in place instead of copying the full
        # chain once per hinge.  The controller only keeps distogram
        # signatures, never the coordinates, so reuse is safe.
        local = np.empty_like(native.ca)
        work = np.empty_like(native.ca)

        def assemble(sigma: float, theta_scale: float, churn_sigma: float) -> tuple[np.ndarray, np.ndarray]:
            """Build model coordinates; returns (coords, local_error)."""
            np.multiply(field, sigma, out=local)
            if churn_sigma > 0:
                np.add(
                    local,
                    smooth_chain_noise(length, rng, sigma=churn_sigma, window=7),
                    out=local,
                )
            coords = np.add(native.ca, local, out=work)
            # Hinge rotations applied tail-first so each boundary rotates
            # everything downstream of it about the hinge residue.
            for b, axis, t0, tf in zip(
                boundaries, dom_axes, theta0, theta_floor
            ):
                angle = tf + (t0 - tf) * theta_scale
                _rotate_tail(coords, int(b), axis, float(angle))
            return coords, np.linalg.norm(local, axis=1)

        controller = RecycleController(
            tolerance=config.recycle_tolerance,
            cap=max(1, config.recycle_cap(length)),
        )
        sigma = sigma0
        theta_scale = 1.0
        # Hard targets churn between conformations each recycle (the
        # network keeps exploring), which is what holds their distogram
        # change above the early-stop tolerance and makes them the
        # targets that run to the recycle cap — the §4.2 mechanism.
        churn = float(
            np.clip(0.015 + 0.45 * max(0.0, difficulty - 0.45) ** 1.3, 0.015, 0.5)
        )
        coords, local_err = assemble(sigma, theta_scale, 0.0)
        while True:
            stop = controller.update(coords)
            if stop:
                break
            # One recycle: contract both error components toward the
            # floors they can never beat, plus difficulty-driven churn.
            sigma = floor + (sigma - floor) * rho
            theta_scale *= rho
            coords, local_err = assemble(sigma, theta_scale, churn * sigma)

        plddt = plddt_from_errors(local_err, rng)
        true_tm = tm_score(coords, native.ca)
        ptms = ptms_estimate(true_tm, rng)
        structure = Structure(
            record_id=record.record_id,
            encoded=record.encoded,
            ca=coords,
            plddt=plddt,
            model_name=self.name,
        )
        return Prediction(
            structure=structure,
            ptms=ptms,
            mean_plddt=float(plddt.mean()),
            n_recycles=controller.n_recycles,
            model_name=self.name,
            difficulty=difficulty,
            true_tm=true_tm,
        )


def default_model_bank(factory: NativeFactory) -> list[SurrogateFoldModel]:
    """The standard five-model ensemble."""
    return [SurrogateFoldModel(factory, i) for i in range(len(MODEL_NAMES))]
