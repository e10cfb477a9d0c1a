"""3D-parallelism and training-loop configuration.

A ``(t, d, p)``-way 3D parallelism (paper Figure 3) combines t-way tensor
parallelism, d-way data parallelism, and p-way pipeline parallelism, plus a
micro-batch size ``m`` that controls pipelining (Figure 7) and a pipeline
schedule (GPipe or 1F1B). Data-parallel gradient synchronisation may use
gradient bucketing (Figure 5) to overlap All-Reduce with backward compute.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Mapping

from repro.config.model import ModelConfig
from repro.errors import ConfigError, InfeasibleConfigError


class PipelineSchedule(enum.Enum):
    """Pipeline scheduling policy (paper Figure 7)."""

    GPIPE = "gpipe"
    ONE_F_ONE_B = "1f1b"


class RecomputeMode(enum.Enum):
    """Activation recomputation policy (Megatron-style).

    ``NONE`` stores all activations; ``SELECTIVE`` recomputes the attention
    score/softmax portion only; ``FULL`` stores only layer inputs and
    replays the entire forward pass during backward.
    """

    NONE = "none"
    SELECTIVE = "selective"
    FULL = "full"


@dataclass(frozen=True)
class ParallelismConfig:
    """A single point in the (t, d, p, m) design space.

    Attributes:
        tensor: Tensor-parallel degree ``t`` (intra-node in practice).
        data: Data-parallel degree ``d``.
        pipeline: Pipeline-parallel degree ``p``.
        micro_batch_size: Sequences per micro-batch ``m``.
        schedule: GPipe or 1F1B (paper Figure 7).
        virtual_stages: Virtual-pipeline (model-chunk) count ``v`` per
            device for Megatron's interleaved 1F1B schedule. The default
            ``1`` is the plain schedule; ``v > 1`` splits each stage's
            layers into ``v`` chunks scheduled round-robin, shrinking
            the pipeline bubble to ``(p-1)/(v*NMB + p-1)`` at the cost
            of ``v`` activation windows and extra inter-chunk P2P
            traffic. Requires ``p > 1`` and the 1F1B schedule; the
            layer count must divide by ``p*v`` and the micro-batch
            count by ``p`` (checked in :func:`validate_plan`).
        gradient_bucketing: Whether DP All-Reduce uses gradient buckets
            that overlap the backward pass (paper Figure 5).
        num_gradient_buckets: Number of buckets when bucketing is enabled.
        recompute: Activation recomputation mode.
        sequence_parallel: Megatron-style sequence parallelism
            (Korthikanti et al.): shard the LayerNorm/dropout regions
            along the sequence dimension across the tensor group, so
            *all* per-layer activations divide by ``t``. Communication
            volume is unchanged (each tensor-parallel All-Reduce splits
            into an equal-volume Reduce-Scatter + All-Gather pair), so
            the timing model keeps the All-Reduce cost; the win is
            memory (see :mod:`repro.memory.footprint`). Requires t > 1.
    """

    tensor: int
    data: int
    pipeline: int
    micro_batch_size: int = 1
    schedule: PipelineSchedule = PipelineSchedule.ONE_F_ONE_B
    virtual_stages: int = 1
    gradient_bucketing: bool = True
    num_gradient_buckets: int = 4
    recompute: RecomputeMode = RecomputeMode.SELECTIVE
    sequence_parallel: bool = False

    def __post_init__(self) -> None:
        for field in ("tensor", "data", "pipeline", "micro_batch_size",
                      "virtual_stages"):
            value = getattr(self, field)
            if not isinstance(value, int) or value <= 0:
                raise ConfigError(f"{field} must be a positive int, got {value!r}")
        if self.num_gradient_buckets <= 0:
            raise ConfigError("num_gradient_buckets must be positive")
        if self.sequence_parallel and self.tensor == 1:
            raise ConfigError(
                "sequence_parallel requires tensor parallelism (t > 1)")
        if self.virtual_stages > 1:
            if self.pipeline == 1:
                raise ConfigError(
                    "virtual_stages > 1 requires pipeline parallelism (p > 1)")
            if self.schedule is not PipelineSchedule.ONE_F_ONE_B:
                raise ConfigError(
                    "virtual_stages > 1 requires the 1f1b schedule "
                    "(GPipe has no interleaved variant)")

    @property
    def total_gpus(self) -> int:
        """GPUs consumed by this plan: ``t * d * p``."""
        return self.tensor * self.data * self.pipeline

    @property
    def way(self) -> tuple[int, int, int]:
        """The ``(t, d, p)`` triple, matching the paper's notation."""
        return (self.tensor, self.data, self.pipeline)

    def describe(self) -> str:
        """Paper-style label, e.g. ``"(8, 12, 21)-way, m=1, 1f1b"``
        (interleaved plans append ``, v=<chunks>``)."""
        t, d, p = self.way
        label = (f"({t}, {d}, {p})-way, m={self.micro_batch_size}, "
                 f"{self.schedule.value}")
        if self.virtual_stages > 1:
            label += f", v={self.virtual_stages}"
        return label

    def replaced(self, **changes) -> "ParallelismConfig":
        """Copy with selected fields replaced."""
        return replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form suitable for JSON serialisation.

        ``virtual_stages`` is serialised only when non-default, so
        payloads (and the prediction-cache fingerprints hashed from
        them) are unchanged for every pre-interleaving plan.
        """
        # Every field is a scalar or an enum, so a shallow dict in
        # field order is what ``asdict`` would build, without its
        # recursive deep copy.
        payload = {name: getattr(self, name) for name in _PLAN_FIELDS}
        payload["schedule"] = self.schedule.value
        payload["recompute"] = self.recompute.value
        if self.virtual_stages == 1:
            del payload["virtual_stages"]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ParallelismConfig":
        """Inverse of :meth:`to_dict`; raises ConfigError on bad input."""
        raw = dict(payload)
        try:
            raw["schedule"] = PipelineSchedule(
                raw.get("schedule", PipelineSchedule.ONE_F_ONE_B.value))
            raw["recompute"] = RecomputeMode(
                raw.get("recompute", RecomputeMode.SELECTIVE.value))
            return cls(**raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid parallelism config: {exc}") from exc


_PLAN_FIELDS = tuple(field.name for field in fields(ParallelismConfig))


@dataclass(frozen=True)
class TrainingConfig:
    """Training-loop hyperparameters that determine end-to-end time.

    Attributes:
        global_batch_size: Sequences consumed per iteration across the
            whole system (MT-NLG: 1,920 sequences of 2,048 tokens).
        total_tokens: Total training tokens (MT-NLG: 270B).
    """

    global_batch_size: int
    total_tokens: int = 0

    def __post_init__(self) -> None:
        if self.global_batch_size <= 0:
            raise ConfigError("global_batch_size must be positive")
        if self.total_tokens < 0:
            raise ConfigError("total_tokens must be non-negative")

    def tokens_per_iteration(self, model: ModelConfig) -> int:
        """Tokens consumed by one iteration (``B * s``)."""
        return self.global_batch_size * model.seq_length

    def num_iterations(self, model: ModelConfig) -> int:
        """Iterations needed to consume ``total_tokens`` (ceiling)."""
        per_iter = self.tokens_per_iteration(model)
        return -(-self.total_tokens // per_iter) if self.total_tokens else 0

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form suitable for JSON serialisation."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TrainingConfig":
        """Inverse of :meth:`to_dict`; raises ConfigError on bad input."""
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ConfigError(f"invalid training config: {exc}") from exc


def validate_plan(model: ModelConfig, plan: ParallelismConfig,
                  training: TrainingConfig, num_gpus: int) -> None:
    """Check the structural constraints of a 3D-parallel plan.

    The constraints mirror Megatron-DeepSpeed's launch-time checks:

    * ``t * d * p`` must equal the available GPU count.
    * Pipeline stages receive an equal number of layers (``p | L``).
    * Attention heads split evenly across tensor ranks (``t | n``).
    * The per-replica batch splits evenly into micro-batches
      (``d * m | B``).
    * Interleaved plans (``v > 1``) additionally need equal-size model
      chunks (``p*v | L``) and a micro-batch count that is a multiple
      of the pipeline depth (``p | NMB``), mirroring Megatron-LM's
      interleaving asserts.

    Raises:
        InfeasibleConfigError: If any constraint is violated. The message
            names the violated constraint so DSE logs stay readable.
    """
    if plan.total_gpus != num_gpus:
        raise InfeasibleConfigError(
            f"plan {plan.way} needs {plan.total_gpus} GPUs, system has {num_gpus}")
    if model.num_layers % plan.pipeline != 0:
        raise InfeasibleConfigError(
            f"pipeline degree {plan.pipeline} does not divide "
            f"L={model.num_layers}")
    if plan.virtual_stages > 1 and (
            (model.num_layers // plan.pipeline) % plan.virtual_stages != 0):
        raise InfeasibleConfigError(
            f"virtual stages {plan.virtual_stages} do not divide the "
            f"{model.num_layers // plan.pipeline} layers per stage")
    if model.num_heads % plan.tensor != 0:
        raise InfeasibleConfigError(
            f"tensor degree {plan.tensor} does not divide n={model.num_heads}")
    if model.ffn_hidden_size % plan.tensor != 0:
        raise InfeasibleConfigError(
            f"tensor degree {plan.tensor} does not divide 4h")
    per_replica = training.global_batch_size // plan.data
    if training.global_batch_size % plan.data != 0:
        raise InfeasibleConfigError(
            f"data degree {plan.data} does not divide global batch "
            f"{training.global_batch_size}")
    if per_replica % plan.micro_batch_size != 0:
        raise InfeasibleConfigError(
            f"micro-batch {plan.micro_batch_size} does not divide "
            f"per-replica batch {per_replica}")
    if plan.virtual_stages > 1 and (
            (per_replica // plan.micro_batch_size) % plan.pipeline != 0):
        raise InfeasibleConfigError(
            f"interleaved schedule needs the micro-batch count "
            f"({per_replica // plan.micro_batch_size}) to be a multiple "
            f"of the pipeline depth ({plan.pipeline})")


def num_micro_batches(plan: ParallelismConfig,
                      training: TrainingConfig) -> int:
    """Micro-batches per pipeline per iteration: ``B / (d * m)``."""
    per_replica = training.global_batch_size // plan.data
    return per_replica // plan.micro_batch_size


def layers_per_stage(model: ModelConfig, plan: ParallelismConfig) -> int:
    """Decoder layers assigned to each pipeline stage: ``L / p``."""
    return model.num_layers // plan.pipeline
