"""Design-space exploration driver (Section V-A, Figures 10/11, Table I).

Evaluates every plan in a search space with one shared vTrain instance
(so each necessary operator is profiled once across the whole sweep) and
collects :class:`DesignPoint` rows: iteration time, utilization, memory,
GPUs, and cost rates. Helpers select the paper's headline artefacts —
fastest plan, most cost-effective plan under a GPU budget, the Pareto
frontier of (iteration time, cost), and the Figure-10 heatmap grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, TYPE_CHECKING

from repro import obs
from repro.config.model import ModelConfig
from repro.config.parallelism import ParallelismConfig, TrainingConfig
from repro.config.system import SystemConfig, multi_node
from repro.cost.pricing import DEFAULT_PRICING, PricingModel
from repro.errors import ConfigError, InfeasibleConfigError
from repro.graph.builder import Granularity
from repro.hardware.gpu import GPUSpec
from repro.profiling.lookup import OperatorToTaskTable
from repro.dse.space import (SearchSpace, enumerate_plans,
                             enumerate_serving_plans)
from repro.sim.estimator import VTrain

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dse.cache import PredictionCache


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated plan in the design space.

    Training rows (the default, ``workload == "training"``) populate
    ``iteration_time``/``utilization``; serving rows
    (``workload == "inference"``) additionally carry the serving
    metrics — ``ttft_s`` (time to first token), ``tpot_s`` (time per
    output token, also mirrored into ``iteration_time`` so generic
    time-sorted views stay meaningful), and ``tokens_per_s`` (aggregate
    output throughput across the plan's ``d`` replicas).
    """

    plan: ParallelismConfig
    feasible: bool
    iteration_time: float = float("inf")
    utilization: float = 0.0
    memory_gib: float = 0.0
    infeasible_reason: str = ""
    workload: str = "training"
    tokens_per_s: float = 0.0
    ttft_s: float = 0.0
    tpot_s: float = 0.0

    @property
    def num_gpus(self) -> int:
        """GPUs the plan occupies."""
        return self.plan.total_gpus

    def cost_per_iteration(self,
                           pricing: PricingModel = DEFAULT_PRICING) -> float:
        """Dollar cost of one iteration under the pricing model."""
        if not self.feasible:
            return float("inf")
        return pricing.cost(self.num_gpus, self.iteration_time)

    def cost_per_million_tokens(
            self, pricing: PricingModel = DEFAULT_PRICING) -> float:
        """Serving cost per million output tokens (inference rows)."""
        if not self.feasible or self.tokens_per_s <= 0:
            return float("inf")
        return (pricing.dollars_per_hour(self.num_gpus) / 3600.0
                / self.tokens_per_s * 1e6)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form suitable for JSON serialisation.

        Non-finite iteration times (infeasible rows) are stored as
        ``None`` so the payload stays strict JSON. The serving fields
        (``workload``, ``tokens_per_s``, ``ttft_s``, ``tpot_s``) are
        omitted for training rows, so payloads written before the
        workload abstraction — and the prediction-cache fingerprints
        built over them — remain byte-identical.
        """
        payload = {
            "plan": self.plan.to_dict(),
            "feasible": self.feasible,
            "iteration_time": (self.iteration_time
                               if math.isfinite(self.iteration_time)
                               else None),
            "utilization": self.utilization,
            "memory_gib": self.memory_gib,
            "infeasible_reason": self.infeasible_reason,
        }
        if self.workload != "training":
            payload["workload"] = self.workload
            payload["tokens_per_s"] = self.tokens_per_s
            payload["ttft_s"] = self.ttft_s
            payload["tpot_s"] = self.tpot_s
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DesignPoint":
        """Inverse of :meth:`to_dict`; raises ConfigError on bad input."""
        raw = dict(payload)
        try:
            plan = ParallelismConfig.from_dict(raw.pop("plan"))
        except KeyError as exc:
            raise ConfigError("design point payload missing plan") from exc
        if raw.get("iteration_time") is None:
            raw["iteration_time"] = float("inf")
        try:
            return cls(plan=plan, **raw)
        except TypeError as exc:
            raise ConfigError(f"invalid design point: {exc}") from exc


@dataclass
class DSEResult:
    """All evaluated points plus selection helpers.

    ``training`` is ``None`` for serving sweeps, which are shaped by an
    :class:`~repro.workload.InferenceWorkload` instead.
    """

    model: ModelConfig
    training: TrainingConfig | None
    points: list[DesignPoint] = field(default_factory=list)

    @property
    def feasible_points(self) -> list[DesignPoint]:
        """Points that passed structural and memory checks."""
        return [point for point in self.points if point.feasible]

    @property
    def num_feasible(self) -> int:
        """Count of feasible points."""
        return len(self.feasible_points)

    def best_by_iteration_time(self, *, num_gpus: int | None = None,
                               max_gpus: int | None = None,
                               tensor: int | None = None) -> DesignPoint:
        """Fastest feasible plan, optionally constrained."""
        candidates = self._filter(num_gpus=num_gpus, max_gpus=max_gpus,
                                  tensor=tensor)
        return min(candidates, key=lambda point: point.iteration_time)

    def best_by_cost(self, *, pricing: PricingModel = DEFAULT_PRICING,
                     num_gpus: int | None = None,
                     max_gpus: int | None = None,
                     tensor: int | None = None) -> DesignPoint:
        """Cheapest-per-token feasible plan, optionally constrained.

        Each candidate's cost is priced exactly once (O(n) pricing
        evaluations), not once per comparison.
        """
        candidates = self._filter(num_gpus=num_gpus, max_gpus=max_gpus,
                                  tensor=tensor)
        costs = [point.cost_per_iteration(pricing) for point in candidates]
        return candidates[min(range(len(candidates)),
                              key=costs.__getitem__)]

    def best_micro_batch_per_way(self) -> dict[tuple[int, int, int],
                                               DesignPoint]:
        """Collapse micro-batch choices: best point per (t, d, p)."""
        best: dict[tuple[int, int, int], DesignPoint] = {}
        for point in self.feasible_points:
            way = point.plan.way
            if way not in best or (point.iteration_time
                                   < best[way].iteration_time):
                best[way] = point
        return best

    def pareto_frontier(self, *, pricing: PricingModel = DEFAULT_PRICING,
                        ) -> list[DesignPoint]:
        """Points not dominated in (iteration time, cost/iteration).

        Each point is priced exactly once (O(n) pricing evaluations);
        the sort compares the precomputed (time, cost) pairs.
        """
        costed = [(point, point.cost_per_iteration(pricing))
                  for point in self.feasible_points]
        costed.sort(key=lambda entry: (entry[0].iteration_time, entry[1]))
        frontier: list[DesignPoint] = []
        best_cost = float("inf")
        for point, cost in costed:
            if cost < best_cost:
                frontier.append(point)
                best_cost = cost
        return frontier

    def serving_pareto_frontier(
            self, *, pricing: PricingModel = DEFAULT_PRICING,
            ) -> list[DesignPoint]:
        """Serving points not dominated in (tokens/s, cost per Mtok).

        The vLLM-style trade-off surface: raising tensor parallelism
        buys latency (and with it per-replica throughput) at a worse
        cost rate, while adding replicas buys throughput at an unchanged
        rate — the frontier exposes which plans are worth either trade.
        Sorted by descending throughput.
        """
        costed = [(point, point.cost_per_million_tokens(pricing))
                  for point in self.feasible_points
                  if point.workload == "inference"]
        costed.sort(key=lambda entry: (-entry[0].tokens_per_s, entry[1]))
        frontier: list[DesignPoint] = []
        best_cost = float("inf")
        for point, cost in costed:
            if cost < best_cost:
                frontier.append(point)
                best_cost = cost
        return frontier

    def best_by_throughput(self, *, max_gpus: int | None = None,
                           ) -> DesignPoint:
        """Highest-throughput feasible serving point."""
        candidates = [p for p in self.feasible_points
                      if p.workload == "inference"]
        if max_gpus is not None:
            candidates = [p for p in candidates if p.num_gpus <= max_gpus]
        if not candidates:
            raise InfeasibleConfigError(
                "no feasible serving points match the constraints")
        return max(candidates, key=lambda point: point.tokens_per_s)

    def heatmap(self, metric: str = "iteration_time",
                ) -> dict[tuple[int, int, int], float]:
        """Figure-10 style grid: (t, d, p) -> metric (best micro-batch).

        ``metric`` is ``iteration_time`` or ``utilization``.
        """
        if metric not in ("iteration_time", "utilization"):
            raise ConfigError(f"unknown heatmap metric {metric!r}")
        return {way: getattr(point, metric)
                for way, point in self.best_micro_batch_per_way().items()}

    def _filter(self, *, num_gpus: int | None, max_gpus: int | None,
                tensor: int | None) -> list[DesignPoint]:
        candidates = self.feasible_points
        if tensor is not None:
            candidates = [p for p in candidates if p.plan.tensor == tensor]
        if num_gpus is not None:
            candidates = [p for p in candidates if p.num_gpus == num_gpus]
        if max_gpus is not None:
            candidates = [p for p in candidates if p.num_gpus <= max_gpus]
        if not candidates:
            raise InfeasibleConfigError(
                "no feasible design points match the constraints")
        return candidates


class DesignSpaceExplorer:
    """Sweeps plans for one model/training recipe.

    Plans run on one simulator per node count, since link timings
    depend on the system. The simulators of one GPU share a single
    profiling stack (device model, CUPTI tracer, necessary-operator
    lookup table), so the whole exploration profiles each necessary
    operator exactly once — the property that makes the paper's "full
    design space in under 200 seconds" possible.

    Args:
        model: Target LLM.
        training: Batch/token recipe.
        gpus_per_node: Node size used to derive per-plan systems.
        granularity: Graph granularity (STAGE recommended for sweeps).
        network: Inter-node fabric spec for derived systems (``flat``,
            ``rail`` or ``fat-tree:<ratio>``); ``flat`` reproduces the
            paper's Equation-1 model exactly. Ignored when a custom
            ``system_factory`` is given.
        system_factory: Override how a plan's GPU count becomes a
            :class:`SystemConfig` (e.g. to change interconnects).
        zero_stage: ZeRO sharding stage (0-3) assumed by the memory
            feasibility filter (default 1, ZeRO-1 optimizer sharding).
        workload: An :class:`~repro.workload.InferenceWorkload` turns
            the sweep into a serving exploration — plans come from
            :func:`repro.dse.space.enumerate_serving_plans`, each is
            evaluated by :meth:`VTrain.predict_inference`, and
            ``training`` may be ``None``.
    """

    def __init__(self, model: ModelConfig,
                 training: TrainingConfig | None, *,
                 gpus_per_node: int = 8,
                 granularity: Granularity = Granularity.STAGE,
                 network: str = "flat",
                 system_factory: Callable[[int], SystemConfig] | None = None,
                 zero_stage: int = 1,
                 workload=None,
                 ) -> None:
        if training is None and workload is None:
            raise ConfigError(
                "DesignSpaceExplorer needs a training recipe or a workload")
        if zero_stage not in (0, 1, 2, 3):
            raise ConfigError(f"zero_stage must be 0..3, got {zero_stage!r}")
        self.model = model
        self.training = training
        self.workload = workload
        self.gpus_per_node = gpus_per_node
        self.granularity = granularity
        self.network = network
        self.zero_stage = zero_stage
        self.custom_system_factory = system_factory
        self._simulators: dict[int, VTrain] = {}
        self._systems: dict[int, SystemConfig] = {}
        self._lookups: dict[GPUSpec, OperatorToTaskTable] = {}

    def system_for(self, num_gpus: int) -> SystemConfig:
        """The system a plan occupying ``num_gpus`` GPUs runs on (the
        plan's node count rounded up to whole nodes), built once per
        node count."""
        nodes = max(1, -(-num_gpus // self.gpus_per_node))
        system = self._systems.get(nodes)
        if system is None:
            if self.custom_system_factory is not None:
                system = self.custom_system_factory(
                    nodes * self.gpus_per_node)
            else:
                system = multi_node(nodes, gpus_per_node=self.gpus_per_node,
                                    network=self.network)
            self._systems[nodes] = system
        return system

    def _simulator_for(self, num_gpus: int) -> VTrain:
        nodes = max(1, -(-num_gpus // self.gpus_per_node))
        simulator = self._simulators.get(nodes)
        if simulator is None:
            system = self.system_for(num_gpus)
            simulator = VTrain(system, granularity=self.granularity,
                               zero_stage=self.zero_stage,
                               lookup=self._lookups.get(system.gpu))
            self._lookups.setdefault(system.gpu, simulator.lookup)
            self._simulators[nodes] = simulator
        return simulator

    def evaluate(self, plan: ParallelismConfig) -> DesignPoint:
        """Evaluate a single plan into a DesignPoint (never raises for
        infeasible or structurally invalid plans — both become
        ``feasible=False`` rows, so one bad plan cannot abort a sweep)."""
        if self.workload is not None:
            return self._evaluate_serving(plan)
        simulator = self._simulator_for(plan.total_gpus)
        try:
            prediction = simulator.predict(self.model, plan, self.training)
        except (InfeasibleConfigError, ConfigError) as exc:
            return DesignPoint(plan=plan, feasible=False,
                               infeasible_reason=str(exc))
        return DesignPoint(
            plan=plan, feasible=True,
            iteration_time=prediction.iteration_time,
            utilization=prediction.gpu_compute_utilization,
            memory_gib=prediction.memory_per_gpu / float(1 << 30))

    def _evaluate_serving(self, plan: ParallelismConfig) -> DesignPoint:
        """Evaluate one serving plan against the inference workload."""
        simulator = self._simulator_for(plan.total_gpus)
        try:
            prediction = simulator.predict_inference(self.model, plan,
                                                     self.workload)
        except (InfeasibleConfigError, ConfigError) as exc:
            return DesignPoint(plan=plan, feasible=False,
                               infeasible_reason=str(exc),
                               workload="inference")
        return DesignPoint(
            plan=plan, feasible=True,
            iteration_time=prediction.decode_step_time,
            memory_gib=prediction.memory_per_gpu / float(1 << 30),
            workload="inference",
            tokens_per_s=prediction.tokens_per_second,
            ttft_s=prediction.prefill_time,
            tpot_s=prediction.decode_step_time)

    def evaluate_batch(self, plans: list[ParallelismConfig],
                       ) -> list[DesignPoint]:
        """Evaluate several plans; the sweep pipeline's unit of work.

        Points come back in ``plans`` order, bit-identical to
        ``[self.evaluate(p) for p in plans]``, and infeasible or
        structurally invalid plans still become ``feasible=False`` rows.
        Serving plans replay their small phase graphs one by one.
        Training survivors are prepared up front and handed to
        :meth:`VTrain.predict_prepared`, which stacks runs sharing one
        compiled structure into a single vectorized
        :func:`~repro.sim.engine.simulate_retimed_batch` sweep.
        """
        with obs.span("dse.evaluate_batch", category="dse",
                      plans=len(plans)):
            if self.workload is not None:
                points = [self._evaluate_serving(plan) for plan in plans]
            else:
                points = self._evaluate_training_batch(plans)
        obs.count("dse.plans_evaluated", len(plans))
        obs.count("dse.plans_infeasible",
                  sum(not point.feasible for point in points))
        return points

    def _evaluate_training_batch(self, plans: list[ParallelismConfig],
                                 ) -> list[DesignPoint]:
        points: list[DesignPoint | None] = [None] * len(plans)
        survivors: dict[int, tuple[VTrain, list[int], list]] = {}
        for position, plan in enumerate(plans):
            simulator = self._simulator_for(plan.total_gpus)
            try:
                footprint, prepared = simulator.prepare_checked(
                    self.model, plan, self.training)
            except (InfeasibleConfigError, ConfigError) as exc:
                points[position] = DesignPoint(
                    plan=plan, feasible=False, infeasible_reason=str(exc))
                continue
            _, positions, entries = survivors.setdefault(
                id(simulator), (simulator, [], []))
            positions.append(position)
            entries.append((plan, footprint, prepared))
        for simulator, positions, entries in survivors.values():
            predictions = simulator.predict_prepared(
                self.model, self.training, entries)
            for position, prediction in zip(positions, predictions):
                points[position] = DesignPoint(
                    plan=plans[position], feasible=True,
                    iteration_time=prediction.iteration_time,
                    utilization=prediction.gpu_compute_utilization,
                    memory_gib=prediction.memory_per_gpu / float(1 << 30))
        return points

    def explore(self, *, space: SearchSpace = SearchSpace(),
                num_gpus: int | None = None, max_gpus: int | None = None,
                plans: Iterable[ParallelismConfig] | None = None,
                workers: int = 1,
                cache: "PredictionCache | None" = None,
                checkpoint_path: str | Path | None = None,
                progress: Callable[[int, int], None] | None = None,
                ) -> DSEResult:
        """Evaluate a plan iterable (or the enumerated search space).

        The one sweep driver for training and serving; the pipeline
        itself is :func:`repro.dse.parallel.run_sweep`.

        Args:
            space / num_gpus / max_gpus / plans: What to sweep (see
                :func:`repro.dse.space.enumerate_plans`, or
                :func:`repro.dse.space.enumerate_serving_plans` when the
                explorer has a workload).
            workers: Evaluate plans on this many worker processes
                (``1``, the default, evaluates in-process). Results are
                merged back into plan order, bit-identical whatever the
                count. A custom ``system_factory`` must be picklable (a
                module-level function) when ``workers > 1``.
            cache: A :class:`~repro.dse.cache.PredictionCache`; plans
                whose fingerprint is already cached skip simulation, and
                evaluated plans are stored in it.
            checkpoint_path: JSON file the sweep's cache is periodically
                saved to, and resumed from when it already exists.
            progress: Callback ``progress(completed, total)`` invoked
                after the cache scan and as chunks finish.

        Raises:
            ConfigError: ``workers`` is not an int >= 1.
        """
        if not isinstance(workers, int) or workers < 1:
            raise ConfigError(f"workers must be an int >= 1, got {workers!r}")
        from repro.dse.parallel import run_sweep

        if plans is None:
            if self.workload is None:
                plans = enumerate_plans(self.model, self.training,
                                        space=space, num_gpus=num_gpus,
                                        max_gpus=max_gpus)
            else:
                plans = enumerate_serving_plans(self.model, self.workload,
                                                space=space,
                                                num_gpus=num_gpus,
                                                max_gpus=max_gpus)
        return run_sweep(self, list(plans), workers=workers, cache=cache,
                         checkpoint_path=checkpoint_path, progress=progress)
