"""The vTrain facade: predict iteration time, utilization, days, dollars.

:class:`VTrain` wires the whole Figure-4 pipeline together — input
description, operator-granularity graph, profiling-backed lookup table,
task-granularity expansion, and the Algorithm-1 replay — behind two
calls::

    vtrain = VTrain(system)
    prediction = vtrain.predict(model, plan, training)       # one iteration
    estimate = vtrain.estimate_training(model, plan, training)  # end-to-end

The profiling state (CUPTI traces, operator-to-task table, NCCL profile
tables) is shared across predictions, so sweeping thousands of plans only
profiles each necessary operator once — the Section III-F performance
story.
"""

from __future__ import annotations

import threading
import time
import warnings
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro import obs
from repro.config.description import InputDescription
from repro.config.model import ModelConfig
from repro.config.parallelism import ParallelismConfig, TrainingConfig
from repro.config.system import SystemConfig
from repro.cost.pricing import (DEFAULT_PRICING, SECONDS_PER_DAY,
                                SECONDS_PER_HOUR, PricingModel)
from repro.errors import ConfigError, SimulationError
from repro.graph.builder import (Granularity, GraphBuilder,
                                 structure_cache_evict, structure_cache_get,
                                 structure_cache_put)
from repro.graph.structure import GraphStructure
from repro.hardware.kernels import DeviceModel
from repro.memory.footprint import (MemoryFootprint, check_inference_memory,
                                    check_memory, inference_memory_footprint,
                                    memory_footprint)
from repro.network.model import nccl_model_for
from repro.profiling.cupti import CuptiTracer
from repro.profiling.lookup import OperatorToTaskTable
from repro.profiling.nccl import NcclModel
from repro.sim.engine import simulate_retimed, simulate_retimed_batch
from repro.sim.results import (InferencePrediction, IterationPrediction,
                               SimulationResult, TrainingEstimate)
from repro.workload import (DECODE, PREFILL, InferenceWorkload,
                            TrainingWorkload, Workload)


@dataclass(frozen=True)
class PredictTiming:
    """Phase breakdown of one :meth:`VTrain.predict` call (seconds).

    ``builder_init_s`` is builder construction — network-model setup
    (NCCL timing tables) plus per-operator timing resolution — which
    runs on *every* predict, hit or miss; it used to go unreported, so
    cold breakdowns didn't add up. ``structure_s`` is graph emission +
    compilation when the structure cache missed, ``0.0`` on a hit;
    ``fill_s`` is the slot-broadcast duration fill, which hits and
    misses alike run against the plan's timing table.
    Surfaced by ``repro predict --timing``.
    """

    memory_check_s: float
    builder_init_s: float
    structure_s: float
    fill_s: float
    replay_s: float
    total_s: float
    structure_cache_hit: bool

    @property
    def structure_source(self) -> str:
        """Where the replay topology came from."""
        return "cache hit" if self.structure_cache_hit else "built"

    @property
    def accounted_s(self) -> float:
        """Sum of the attributed phases.

        Tracks ``total_s`` to within bookkeeping noise on both cold and
        warm paths now that builder construction is attributed —
        previously cold calls could leave >30% of ``total_s``
        unaccounted for.
        """
        return (self.memory_check_s + self.builder_init_s
                + self.structure_s + self.fill_s + self.replay_s)

    def phases(self) -> dict[str, float]:
        """Ordered phase-name -> seconds mapping for reports."""
        return {
            "memory check": self.memory_check_s,
            "network setup": self.builder_init_s,
            "structure": self.structure_s,
            "duration fill": self.fill_s,
            "replay": self.replay_s,
        }


@dataclass(frozen=True)
class PreparedPlan:
    """A compiled, timed plan ready for (re-)replay.

    ``durations`` is in the structure's replay order; consumers such as
    the testbed emulator perturb it and call
    :func:`~repro.sim.engine.simulate_retimed` without ever rebuilding
    the graph. ``builder`` is the plan's own (graph-free) builder —
    resolve anything plan-specific (timing table, per-slot kernel
    counts) through it, not through the cached structure's
    representative ``payload`` objects, which may originate from a
    different build sharing the same topology.
    """

    structure: GraphStructure
    durations: np.ndarray
    metadata: dict
    builder: GraphBuilder
    structure_cache_hit: bool
    structure_s: float
    fill_s: float
    builder_init_s: float = 0.0


class VTrain:
    """Profiling-driven LLM training-time simulator (the paper's system).

    Args:
        system: Training-system description (GPUs, interconnects).
        granularity: Graph detail level. ``OPERATOR`` (default) matches
            the paper's reported accuracy at a fraction of the task count;
            ``KERNEL`` is the paper's full task-granularity replay;
            ``STAGE`` is the fast mode used for Figure-10-scale sweeps.
        lookup: A necessary-operator table to share with other
            simulators of the same GPU (it holds only device timings),
            so each operator signature is profiled once across all of
            them. Its device model may be a perturbed one (e.g. a
            testbed's), but must model ``system.gpu``. By default the
            simulator profiles on a fresh table of its own.
        nccl: Override the communication model (e.g. with interference).
            When omitted, the model follows ``system.network``: the flat
            Equation-1 :class:`NcclModel` for ``flat`` (the default,
            bit-identical to prior behavior) or a
            :class:`~repro.network.model.TopologyAwareNcclModel` for
            ``rail`` / ``fat-tree:<ratio>`` fabrics.
        check_memory_feasibility: Reject plans that exceed GPU memory.
        zero1_sharding: Deprecated alias for ``zero_stage``: True means
            ZeRO stage 1, False stage 0. Ignored when ``zero_stage`` is
            given.
        zero_stage: ZeRO sharding stage (0-3) assumed by the memory
            model (see :func:`repro.memory.footprint.memory_footprint`).
            Defaults to stage 1, Megatron-DeepSpeed's configuration.
    """

    def __init__(self, system: SystemConfig, *,
                 granularity: Granularity = Granularity.OPERATOR,
                 lookup: OperatorToTaskTable | None = None,
                 nccl: NcclModel | None = None,
                 check_memory_feasibility: bool = True,
                 zero1_sharding: bool = True,
                 zero_stage: int | None = None) -> None:
        self.system = system
        self.granularity = granularity
        if lookup is None:
            lookup = OperatorToTaskTable(CuptiTracer(DeviceModel(system.gpu)))
        elif lookup.tracer.device.spec != system.gpu:
            raise ConfigError(
                f"lookup table was profiled on "
                f"{lookup.tracer.device.spec.name}, system has "
                f"{system.gpu.name}")
        self.lookup = lookup
        self.tracer = lookup.tracer
        self.device = lookup.tracer.device
        self.nccl = nccl if nccl is not None else nccl_model_for(system)
        self.check_memory_feasibility = check_memory_feasibility
        self.zero_stage = (zero_stage if zero_stage is not None
                           else (1 if zero1_sharding else 0))
        self.zero1_sharding = self.zero_stage >= 1  # legacy alias
        self.num_predictions = 0
        self.structure_cache_hits = 0
        self.structure_cache_misses = 0
        self.last_predict_timing: PredictTiming | None = None
        # Concurrent predicts (the `repro serve` daemon) race on the
        # instance counters above; `int +=` is not atomic across the
        # load/store, so keep the accounting exact under contention.
        # last_predict_timing stays last-writer-wins by design.
        self._stats_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    def prepare(self, model: ModelConfig, plan: ParallelismConfig,
                training: TrainingConfig | None, *,
                workload: InferenceWorkload | None = None,
                phase: str | None = None) -> PreparedPlan:
        """Compiled structure + durations for one plan, ready to replay.

        Consults the process-wide structure cache: on a hit only the
        duration vector is refilled from this builder's timing table
        (retime-without-rebuild); on a miss the graph is stamped,
        compiled, and cached for every later predict that shares its
        structural fingerprint — across micro-batch sizes, parallel
        degrees, systems, and VTrain instances alike. Both paths fill
        the durations through the same slot broadcast.

        Pass ``workload``/``phase`` together to compile an inference
        phase graph (prefill or decode) instead of the training
        iteration graph; ``training`` may then be ``None``.
        """
        tick = time.perf_counter()
        with obs.span("builder_init", granularity=self.granularity.value):
            builder = GraphBuilder(model, self.system, plan, training,
                                   self.lookup, self.nccl, self.granularity,
                                   workload=workload, phase=phase)
        builder_init_s = time.perf_counter() - tick
        key = builder.structure_key
        structure = structure_cache_get(key)
        cache_hit = structure is not None
        build_s = 0.0
        if structure is not None:
            try:
                durations, fill_s = self._fill(builder, structure)
            except SimulationError as exc:
                # Structural drift the fingerprint failed to capture:
                # drop the stale entry and rebuild from scratch. Count
                # and warn, since a fingerprint that misses structure
                # costs a full rebuild on every such predict.
                obs.count("sim.structure_drift_rebuilds")
                warnings.warn(
                    f"cached structure for {key!r} does not match this "
                    f"builder ({exc}); rebuilding",
                    RuntimeWarning, stacklevel=2)
                structure_cache_evict(key)
                structure = None
                cache_hit = False
        if structure is None:
            tick = time.perf_counter()
            with obs.span("structure_build") as tags:
                structure = builder.compile()
                tags["tasks"] = structure.num_tasks
            build_s = time.perf_counter() - tick
            structure_cache_put(key, structure)
            durations, fill_s = self._fill(builder, structure)
        if cache_hit:
            with self._stats_lock:
                self.structure_cache_hits += 1
        else:
            with self._stats_lock:
                self.structure_cache_misses += 1
            obs.observe("sim.structure_build_s", build_s)
        obs.observe("sim.duration_fill_s", fill_s)
        obs.observe("sim.builder_init_s", builder_init_s)
        return PreparedPlan(structure=structure, durations=durations,
                            metadata=builder.graph_metadata(),
                            builder=builder,
                            structure_cache_hit=cache_hit,
                            structure_s=build_s, fill_s=fill_s,
                            builder_init_s=builder_init_s)

    @staticmethod
    def _fill(builder: GraphBuilder,
              structure: GraphStructure) -> tuple[np.ndarray, float]:
        """Durations for ``structure`` from ``builder``'s timing table,
        and the seconds the fill took."""
        tick = time.perf_counter()
        with obs.span("duration_fill", tasks=structure.num_tasks):
            durations = builder.fill_durations(structure)
        return durations, time.perf_counter() - tick

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict(self, model: ModelConfig, plan: ParallelismConfig,
                training: TrainingConfig | None = None, *,
                workload: Workload | None = None,
                record_timeline: bool = False,
                ) -> IterationPrediction | InferencePrediction:
        """Predict one design point's latency for its workload.

        The default workload is training — ``predict(model, plan,
        training)`` is byte-for-byte the classic single-iteration
        path and returns an :class:`IterationPrediction`. Passing
        ``workload=TrainingWorkload(...)`` is the same path with the
        training shape drawn from the workload object. Passing an
        :class:`~repro.workload.InferenceWorkload` dispatches to
        :meth:`predict_inference` and returns an
        :class:`InferencePrediction`.

        Raises:
            InfeasibleConfigError: Structural violation, or (when memory
                checking is enabled) per-GPU memory overflow.
        """
        if isinstance(workload, InferenceWorkload):
            return self.predict_inference(model, plan, workload,
                                          record_timeline=record_timeline)
        if isinstance(workload, TrainingWorkload):
            training = workload.training
        if training is None:
            raise SimulationError(
                "predict() needs a TrainingConfig (or a workload)")
        with self._stats_lock:
            self.num_predictions += 1
        started = time.perf_counter()
        with obs.span(
                "predict",
                plan=f"t{plan.tensor} d{plan.data} p{plan.pipeline}") as span:
            with obs.span("memory_check"):
                if self.check_memory_feasibility:
                    footprint = check_memory(model, plan, training,
                                             self.system,
                                             zero_stage=self.zero_stage)
                else:
                    footprint = memory_footprint(
                        model, plan, training, zero_stage=self.zero_stage)
            memory_s = time.perf_counter() - started
            prepared = self.prepare(model, plan, training)
            tick = time.perf_counter()
            with obs.span("replay", tasks=prepared.structure.num_tasks):
                result = simulate_retimed(prepared.structure,
                                          prepared.durations,
                                          record_timeline=record_timeline,
                                          metadata=prepared.metadata)
            replay_s = time.perf_counter() - tick
            span["structure"] = ("cache hit" if prepared.structure_cache_hit
                                 else "built")
        total_s = time.perf_counter() - started
        obs.observe("sim.replay_s", replay_s)
        obs.observe("sim.predict_total_s", total_s)
        if replay_s > 0.0:
            obs.observe("sim.replay_tasks_per_s",
                        prepared.structure.num_tasks / replay_s)
        self.last_predict_timing = PredictTiming(
            memory_check_s=memory_s,
            builder_init_s=prepared.builder_init_s,
            structure_s=prepared.structure_s,
            fill_s=prepared.fill_s,
            replay_s=replay_s,
            total_s=total_s,
            structure_cache_hit=prepared.structure_cache_hit)
        return self._prediction(model, plan, training, footprint, result)

    def predict_inference(self, model: ModelConfig, plan: ParallelismConfig,
                          workload: InferenceWorkload, *,
                          record_timeline: bool = False,
                          ) -> InferencePrediction:
        """Predict serving latencies for one static-batch design point.

        Replays two phase graphs through the shared structure cache: the
        prefill graph (full-prompt pipelined forward; makespan is the
        time to first token) and the decode-step graph (single-token
        forward with KV-scaled attention; makespan is the time per
        output token). ``plan.data`` is read as the number of
        data-parallel server replicas — it multiplies throughput, never
        latency, the vLLM-style TP-vs-DP trade-off.

        Raises:
            InfeasibleConfigError: Structural violation, or (when memory
                checking is enabled) weights + KV cache exceeding HBM.
        """
        with obs.span(
                "predict_inference",
                plan=f"t{plan.tensor} d{plan.data} p{plan.pipeline}"):
            footprint, prepared = self.prepare_inference_checked(
                model, plan, workload)
            phases = {}
            for phase, ready in prepared.items():
                with obs.span("replay", phase=phase,
                              tasks=ready.structure.num_tasks):
                    phases[phase] = simulate_retimed(
                        ready.structure, ready.durations,
                        record_timeline=record_timeline,
                        metadata=ready.metadata)
        return InferencePrediction(
            prefill_time=phases[PREFILL].iteration_time,
            decode_step_time=phases[DECODE].iteration_time,
            batch_size=workload.batch_size,
            prompt_len=workload.prompt_len,
            gen_len=workload.gen_len,
            num_replicas=plan.data,
            num_gpus=plan.total_gpus,
            memory_per_gpu=footprint.total,
            prefill_simulation=phases[PREFILL],
            decode_simulation=phases[DECODE],
        )

    def prepare_inference_checked(
            self, model: ModelConfig, plan: ParallelismConfig,
            workload: InferenceWorkload,
    ) -> tuple[MemoryFootprint, dict[str, PreparedPlan]]:
        """:meth:`predict_inference`'s front half: the KV-aware memory
        check, then both phase graphs prepared (prefill, then decode).

        Infeasible plans raise before any graph work. Callers that
        replay many plans' phases at once (the serving sweeps, see
        :func:`replay_makespans`) call this per plan themselves.

        Raises:
            InfeasibleConfigError: Structural violation, or (when memory
                checking is enabled) weights + KV cache exceeding HBM.
        """
        with self._stats_lock:
            self.num_predictions += 1
        with obs.span("memory_check"):
            if self.check_memory_feasibility:
                footprint = check_inference_memory(model, plan, workload,
                                                   self.system)
            else:
                footprint = inference_memory_footprint(model, plan,
                                                       workload)
        return footprint, {phase: self.prepare(model, plan, None,
                                               workload=workload,
                                               phase=phase)
                           for phase in (PREFILL, DECODE)}

    @staticmethod
    def _observe_replay(tasks: int, columns: int, elapsed: float) -> None:
        """Record replay latency/throughput histograms (gated; a batch
        sweep counts ``tasks x columns`` replayed tasks)."""
        if not obs.enabled():
            return
        obs.observe("sim.replay_s", elapsed)
        if elapsed > 0.0:
            obs.observe("sim.replay_tasks_per_s",
                        tasks * columns / elapsed)

    def _prediction(self, model: ModelConfig, plan: ParallelismConfig,
                    training: TrainingConfig, footprint: MemoryFootprint,
                    result: SimulationResult) -> IterationPrediction:
        """Wrap one replay result in the predict() output contract."""
        tokens = training.tokens_per_iteration(model)
        model_flops = model.model_flops_per_iteration(tokens)
        peak = plan.total_gpus * self.system.gpu.peak_fp16_flops
        utilization = model_flops / (peak * result.iteration_time)
        return IterationPrediction(
            iteration_time=result.iteration_time,
            gpu_compute_utilization=utilization,
            tokens_per_iteration=tokens,
            model_flops=model_flops,
            num_gpus=plan.total_gpus,
            memory_per_gpu=footprint.total,
            simulation=result,
        )

    def prepare_checked(self, model: ModelConfig, plan: ParallelismConfig,
                        training: TrainingConfig,
                        ) -> tuple[MemoryFootprint, PreparedPlan]:
        """:meth:`predict`'s front half: memory check, then compile.

        Performs exactly the checks :meth:`predict` performs, in the
        same order (so infeasible plans raise before any graph work),
        and returns the pieces a batched replay needs. Callers that
        group several structure-affine plans hand the results to
        :meth:`predict_prepared`.

        Raises:
            InfeasibleConfigError: Structural violation, or (when memory
                checking is enabled) per-GPU memory overflow.
        """
        if self.check_memory_feasibility:
            footprint = check_memory(model, plan, training, self.system,
                                     zero_stage=self.zero_stage)
        else:
            footprint = memory_footprint(model, plan, training,
                                         zero_stage=self.zero_stage)
        return footprint, self.prepare(model, plan, training)

    def predict_prepared(
            self, model: ModelConfig, training: TrainingConfig,
            entries: list[tuple[ParallelismConfig, MemoryFootprint,
                                PreparedPlan]],
    ) -> list[IterationPrediction]:
        """Replay already-prepared plans, batching structure-affine runs.

        ``entries`` come from :meth:`prepare_checked`. Runs sharing one
        compiled :class:`~repro.graph.structure.GraphStructure` object
        (the common case inside an affinity-sorted DSE sweep, where the
        process-wide structure cache returns the same instance) are
        stacked into a ``(tasks x N)`` matrix and replayed by a single
        :func:`~repro.sim.engine.simulate_retimed_batch` sweep; the rest
        replay through the scalar engine. Either path yields
        bit-identical :class:`IterationPrediction` values, returned in
        entry order.
        """
        groups: dict[int, list[int]] = {}
        for position, (_, _, prepared) in enumerate(entries):
            groups.setdefault(id(prepared.structure), []).append(position)
        results: list[SimulationResult | None] = [None] * len(entries)
        for positions in groups.values():
            if len(positions) == 1:
                _, _, prepared = entries[positions[0]]
                tick = time.perf_counter()
                with obs.span("replay", tasks=prepared.structure.num_tasks):
                    results[positions[0]] = simulate_retimed(
                        prepared.structure, prepared.durations,
                        metadata=prepared.metadata)
                self._observe_replay(prepared.structure.num_tasks, 1,
                                     time.perf_counter() - tick)
                continue
            structure = entries[positions[0]][2].structure
            matrix = np.stack(
                [entries[p][2].durations for p in positions], axis=1)
            tick = time.perf_counter()
            with obs.span("replay_batch", tasks=structure.num_tasks,
                          columns=len(positions)):
                batch = simulate_retimed_batch(structure, matrix)
            self._observe_replay(structure.num_tasks, len(positions),
                                 time.perf_counter() - tick)
            obs.observe("sim.batch_columns", len(positions))
            for column, position in enumerate(positions):
                results[position] = batch.column(
                    column, metadata=entries[position][2].metadata)
        with self._stats_lock:
            self.num_predictions += len(entries)
        return [self._prediction(model, plan, training, footprint, result)
                for (plan, footprint, _), result in zip(entries, results)]

    def predict_batch(self, model: ModelConfig,
                      plans: list[ParallelismConfig],
                      training: TrainingConfig) -> list[IterationPrediction]:
        """Predict several plans for one model, batching shared structures.

        Equivalent to ``[self.predict(model, p, training) for p in
        plans]`` — bit-identical predictions in plan order — but plans
        whose compiled structures coincide replay in one vectorized
        sweep. Like :meth:`predict`, raises on the first infeasible
        plan; callers that need per-plan feasibility (the DSE explorers)
        call :meth:`prepare_checked` / :meth:`predict_prepared`
        themselves.
        """
        entries = []
        for plan in plans:
            footprint, prepared = self.prepare_checked(model, plan, training)
            entries.append((plan, footprint, prepared))
        return self.predict_prepared(model, training, entries)

    def predict_description(self, description: InputDescription,
                            ) -> IterationPrediction:
        """Predict from a paper-style input description file."""
        description.validate()
        return self.predict(description.model, description.plan,
                            description.training)

    # ------------------------------------------------------------------
    # End-to-end estimation
    # ------------------------------------------------------------------
    def estimate_training(self, model: ModelConfig, plan: ParallelismConfig,
                          training: TrainingConfig, *,
                          pricing: PricingModel = DEFAULT_PRICING,
                          ) -> TrainingEstimate:
        """End-to-end wall-clock time and dollar cost (Table I columns):
        :meth:`predict` scaled to the whole run by
        :func:`training_estimate`."""
        prediction = self.predict(model, plan, training)
        return training_estimate(model, plan, training, prediction,
                                 pricing=pricing)

    # ------------------------------------------------------------------
    # Profiling introspection (Section III-F)
    # ------------------------------------------------------------------
    @property
    def profiling_stats(self) -> dict[str, int]:
        """Necessary-operator counters proving the O(1) profiling cost
        (of the lookup table, which simulators given the same ``lookup``
        share), plus this instance's structure-cache hit/miss split."""
        return {
            "operators_profiled": self.lookup.num_profiled,
            "lookups_served_from_table": self.lookup.num_reused,
            "kernels_traced": self.tracer.stats.kernels_traced,
            "predictions": self.num_predictions,
            "structure_cache_hits": self.structure_cache_hits,
            "structure_cache_misses": self.structure_cache_misses,
        }


def replay_makespans(prepared: Iterable[PreparedPlan]) -> list[float]:
    """The makespan of each prepared graph, in order, replaying each
    distinct (structure, duration vector) pair once (``prepared`` is
    consumed one graph at a time, so a generator keeps only the
    distinct pairs alive).

    Plans that differ only in what their graphs leave out — a serving
    plan's replica count, or its node count when the links match — share
    a cached structure and fill it with equal durations, so a serving
    sweep's batch replays far fewer graphs than it has phases. The
    scalar engine replays each pair: serving phase graphs are short
    chains, on which the batched engine is slower.
    """
    # Keyed on the structure itself (identity hash), which keeps it
    # alive, so its id cannot be reused by a later structure.
    makespans: dict[tuple[GraphStructure, bytes], float] = {}
    out = []
    for ready in prepared:
        key = (ready.structure, ready.durations.tobytes())
        makespan = makespans.get(key)
        if makespan is None:
            tasks = ready.structure.num_tasks
            tick = time.perf_counter()
            with obs.span("replay", phase=ready.metadata.get("phase"),
                          tasks=tasks):
                makespan = makespans[key] = simulate_retimed(
                    ready.structure, ready.durations).iteration_time
            VTrain._observe_replay(tasks, 1, time.perf_counter() - tick)
        out.append(makespan)
    return out


def training_estimate(model: ModelConfig, plan: ParallelismConfig,
                      training: TrainingConfig,
                      prediction: IterationPrediction, *,
                      pricing: PricingModel = DEFAULT_PRICING,
                      ) -> TrainingEstimate:
    """Scale one predicted iteration to the whole run (Table I columns).

    Total time = predicted iteration time x (total tokens / tokens per
    iteration), as in Section III-E. Callers that already hold the
    plan's :class:`IterationPrediction` use this directly instead of
    :meth:`VTrain.estimate_training`, which replays the plan again.
    """
    iterations = training.num_iterations(model)
    total_seconds = prediction.iteration_time * iterations
    return TrainingEstimate(
        iteration_time=prediction.iteration_time,
        num_iterations=iterations,
        total_days=total_seconds / SECONDS_PER_DAY,
        gpu_compute_utilization=prediction.gpu_compute_utilization,
        num_gpus=plan.total_gpus,
        dollars_per_hour=pricing.dollars_per_hour(plan.total_gpus),
        dollars_total=pricing.cost(plan.total_gpus, total_seconds),
    )


def training_days_for_utilization(model: ModelConfig, total_tokens: int,
                                  num_gpus: int, utilization: float,
                                  peak_flops_per_gpu: float) -> float:
    """Closed-form training days at a given achieved utilization.

    The Figure-1 curve: total FLOPs to train the LLM divided by the
    aggregate *effective* FLOPS of the cluster.
    """
    if not 0.0 < utilization <= 1.0:
        raise ValueError("utilization must be in (0, 1]")
    total_flops = model.flops_per_token() * total_tokens
    effective = num_gpus * peak_flops_per_gpu * utilization
    return total_flops / effective / SECONDS_PER_DAY


def cost_for_utilization(model: ModelConfig, total_tokens: int,
                         num_gpus: int, utilization: float,
                         peak_flops_per_gpu: float, *,
                         pricing: PricingModel = DEFAULT_PRICING) -> float:
    """Training cost in dollars at a given achieved utilization."""
    days = training_days_for_utilization(model, total_tokens, num_gpus,
                                         utilization, peak_flops_per_gpu)
    return pricing.dollars_per_hour(num_gpus) * days * (SECONDS_PER_DAY
                                                        / SECONDS_PER_HOUR)
