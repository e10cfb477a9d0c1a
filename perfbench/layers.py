"""Per-layer accounting for the traced runs.

A traced run turns on the program's own ``repro.obs`` spans
(``predict``, ``memory_check``, ``builder_init``, ``structure_build``,
``duration_fill``, ``replay``, ``replay_batch``, ``dse.*``) and, for
public calls that carry no span, wraps them here under ``bench.*``
spans. Wrappers are installed where the name is looked up: a module
that imported a function by value (``simulate_retimed`` in
``repro.sim.estimator``) is patched in that module, not at the
definition. Untraced runs install nothing.

Every time and count is reported per operation of the workload (one
cold predict, one sweep), so runs of different length compare. Times
are raw wall-clock spans; in the workers they include the speed
sampler's timer ticks (``common.SpeedSampler``, about 1-2% of the
time), in traced and untraced operations alike.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import defaultdict

#: The per-layer metrics every traced run reports, with units. A layer a
#: workload does not exercise reports 0.
PER_LAYER_UNITS = {
    "import.repro_cli_s": "s",
    "import.networkx_loaded": "count",
    "graph.structure_build_s": "s",
    "graph.structure_builds": "count",
    "graph.tasks_built": "count",
    "graph.build_tasks_per_s": "1/s",
    "graph.structure_cache_hit_ratio": "ratio",
    "graph.structure_cache_evictions": "count",
    "graph.structure_cache_mib": "MiB",
    "graph.builder_init_s": "s",
    "graph.builder_init_calls": "count",
    "graph.duration_fill_s": "s",
    "profiling.operators_profiled": "count",
    "profiling.lookup_reuse_ratio": "ratio",
    "network.model_init_s": "s",
    "memory.check_s": "s",
    "memory.checks": "count",
    "memory.infeasible_ratio": "ratio",
    "sim.replay_s": "s",
    "sim.replay_calls": "count",
    "sim.replay_tasks_per_s": "1/s",
    "sim.replay_batch_s": "s",
    "sim.batch_columns_mean": "count",
    "sim.replays_per_predict": "count",
    "sim.estimator_self_s": "s",
    "workload.prefill_replay_s": "s",
    "workload.decode_replay_s": "s",
    "dse.enumerate_s": "s",
    "dse.fingerprint_s": "s",
    "dse.evaluate_batch_s": "s",
    "dse.self_s": "s",
    "dse.plans_evaluated": "count",
    "dse.plans_infeasible": "count",
    "dse.prediction_cache_hit_ratio": "ratio",
    "serve.client_rtt_p50_ms": "ms",
    "serve.client_rtt_p99_ms": "ms",
    "serve.framing_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.batch_execute_ms": "ms",
    "serve.batch_size_mean": "count",
    "serve.dedup_coalesced_ratio": "ratio",
    "serve.cache_served_ratio": "ratio",
    "serve.prediction_cache_entries": "count",
    "obs.tracing_overhead_ratio": "ratio",
}

#: Spans whose self time is the estimator's own work (result assembly,
#: grouping, stacking) rather than a layer below it.
_ESTIMATOR_SPANS = ("predict", "predict_inference", "bench.estimate_training",
                    "bench.prepare_checked", "bench.predict_prepared")

#: Upper bound on spans kept by the program's tracer in a traced worker
#: (set before ``repro`` is imported); a serving sweep records ~10^5.
MAX_SPANS = 2_000_000


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class LayerProbe:
    """Installs the traced-run wrappers and turns spans into metrics."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self.lookups: list = []
        self.put_keys: set[str] = set()
        self.replay_columns = 0
        self.replay_tasks = 0

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _patch(self, owner: object, name: str, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _spanned(self, span_name: str, func, *, reentrant: bool = True):
        """``func`` wrapped in a ``bench.*`` span. Non-reentrant
        wrappers record only the outermost call on a thread."""
        from repro import obs

        local = self._local

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not reentrant:
                if getattr(local, span_name, False):
                    return func(*args, **kwargs)
                setattr(local, span_name, True)
            try:
                with obs.span(span_name, "bench") as tags:
                    try:
                        return func(*args, **kwargs)
                    except Exception as exc:
                        tags["error"] = type(exc).__name__
                        raise
            finally:
                if not reentrant:
                    setattr(local, span_name, False)
        return wrapper

    def install(self) -> None:
        """Enable the program's spans and wrap the unspanned calls
        (spans recorded earlier are kept: call ``obs.reset()`` once
        before the first traced operation)."""
        from repro import obs
        import repro.dse.cache as dse_cache
        import repro.dse.parallel as dse_parallel
        import repro.graph.builder as builder
        import repro.sim.estimator as estimator
        from repro.profiling.nccl import NcclModel

        probe = self

        def register_lookup(*args, **kwargs):
            table = original_lookup(*args, **kwargs)
            probe.lookups.append(table)
            return table

        def count_replay(func, batched):
            @functools.wraps(func)
            def wrapper(structure, durations, *args, **kwargs):
                columns = durations.shape[1] if batched else 1
                probe.replay_columns += columns
                probe.replay_tasks += structure.num_tasks * columns
                return func(structure, durations, *args, **kwargs)
            return wrapper

        def record_put(func):
            @functools.wraps(func)
            def wrapper(key, structure):
                probe.put_keys.add(key)
                return func(key, structure)
            return wrapper

        original_lookup = estimator.OperatorToTaskTable
        self._patch(estimator, "OperatorToTaskTable", register_lookup)
        for name in ("check_memory", "check_inference_memory"):
            self._patch(estimator, name, self._spanned(
                "bench.memory_check", getattr(estimator, name)))
        self._patch(estimator, "nccl_model_for", self._spanned(
            "bench.network", estimator.nccl_model_for, reentrant=False))
        self._patch(builder, "ClusterTopology", self._spanned(
            "bench.network", builder.ClusterTopology, reentrant=False))
        self._patch(NcclModel, "time", self._spanned(
            "bench.network", NcclModel.time, reentrant=False))
        self._patch(estimator, "simulate_retimed",
                    count_replay(estimator.simulate_retimed, False))
        self._patch(estimator, "simulate_retimed_batch",
                    count_replay(estimator.simulate_retimed_batch, True))
        self._patch(estimator, "structure_cache_put",
                    record_put(estimator.structure_cache_put))
        for name in ("estimate_training", "prepare_checked",
                     "predict_prepared"):
            self._patch(estimator.VTrain, name, self._spanned(
                f"bench.{name}", getattr(estimator.VTrain, name)))
        self._patch(builder, "structure_affinity", self._spanned(
            "bench.fingerprint", builder.structure_affinity))
        for module in (dse_cache, dse_parallel):
            self._patch(module, "fingerprint", self._spanned(
                "bench.fingerprint", module.fingerprint))
        obs.enable()

    def uninstall(self) -> None:
        from repro import obs

        obs.disable()
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    @staticmethod
    def span_table() -> tuple[dict, dict, dict, dict]:
        """Sums, counts, self times and tag sums of the recorded spans.

        A span's self time is its duration minus the durations of its
        direct children (same thread, one level deeper, inside it).
        """
        from repro import obs

        spans = obs.tracer.spans
        if obs.tracer.dropped:
            raise RuntimeError(f"span ring dropped {obs.tracer.dropped} "
                               f"spans; raise MAX_SPANS")
        total: dict[str, float] = defaultdict(float)
        count: dict[str, int] = defaultdict(int)
        self_time: dict[str, float] = defaultdict(float)
        tags: dict[str, float] = defaultdict(float)
        by_thread: dict[int, list] = defaultdict(list)
        for span in spans:
            by_thread[span.thread].append(span)
            total[span.name] += span.duration_s
            count[span.name] += 1
            for tag in ("tasks", "columns"):
                value = span.tags.get(tag)
                if isinstance(value, (int, float)):
                    tags[f"{span.name}.{tag}"] += value
            if span.name == "replay" and "phase" in span.tags:
                total[f"replay.{span.tags['phase']}"] += span.duration_s
            if span.name == "bench.memory_check" and "error" in span.tags:
                count["bench.memory_check.error"] += 1
        for thread_spans in by_thread.values():
            thread_spans.sort(key=lambda s: (s.start_s, s.depth))
            children = [0.0] * len(thread_spans)
            stack: list[int] = []
            for index, span in enumerate(thread_spans):
                while stack and thread_spans[stack[-1]].depth >= span.depth:
                    stack.pop()
                if stack and thread_spans[stack[-1]].depth == span.depth - 1:
                    children[stack[-1]] += span.duration_s
                stack.append(index)
            for span, child_s in zip(thread_spans, children):
                self_time[span.name] += span.duration_s - child_s
        return total, count, self_time, tags

    def metrics(self, ops: int, *, cache_stats: dict,
                cached_mib: float, predicts: int) -> dict[str, float]:
        """Per-operation layer metrics of the spans recorded since
        :meth:`install` (``ops`` traced operations; ``predicts`` is the
        number of plan predictions they made, the base of
        ``sim.replays_per_predict``)."""
        total, count, self_time, tags = self.span_table()
        per = 1.0 / max(ops, 1)
        built = tags["structure_build.tasks"]
        replay_s = total["replay"] + total["replay_batch"]
        profiled = sum(table.num_profiled for table in self.lookups)
        reused = sum(table.num_reused for table in self.lookups)
        lookups = cache_stats["hits"] + cache_stats["misses"]
        checks = count["bench.memory_check"]
        dse_self = sum(value for name, value in self_time.items()
                       if name.startswith("dse."))
        return {
            "graph.structure_build_s": total["structure_build"] * per,
            "graph.structure_builds": count["structure_build"] * per,
            "graph.tasks_built": built * per,
            "graph.build_tasks_per_s": _ratio(built,
                                              total["structure_build"]),
            "graph.structure_cache_hit_ratio": _ratio(cache_stats["hits"],
                                                      lookups),
            "graph.structure_cache_evictions":
                cache_stats["evictions"] * per,
            "graph.structure_cache_mib": cached_mib,
            "graph.builder_init_s": total["builder_init"] * per,
            "graph.builder_init_calls": count["builder_init"] * per,
            "graph.duration_fill_s": total["duration_fill"] * per,
            "profiling.operators_profiled": profiled * per,
            "profiling.lookup_reuse_ratio": _ratio(reused, reused + profiled),
            "network.model_init_s": total["bench.network"] * per,
            "memory.check_s": total["bench.memory_check"] * per,
            "memory.checks": checks * per,
            "memory.infeasible_ratio": _ratio(
                count["bench.memory_check.error"], checks),
            "sim.replay_s": total["replay"] * per,
            "sim.replay_calls": (count["replay"] + count["replay_batch"])
            * per,
            "sim.replay_tasks_per_s": _ratio(self.replay_tasks, replay_s),
            "sim.replay_batch_s": total["replay_batch"] * per,
            "sim.batch_columns_mean": _ratio(tags["replay_batch.columns"],
                                             count["replay_batch"]),
            "sim.replays_per_predict": _ratio(self.replay_columns,
                                              predicts),
            "sim.estimator_self_s": sum(self_time[name] for name
                                        in _ESTIMATOR_SPANS) * per,
            "workload.prefill_replay_s": total["replay.prefill"] * per,
            "workload.decode_replay_s": total["replay.decode"] * per,
            "dse.enumerate_s": total["bench.enumerate"] * per,
            "dse.fingerprint_s": total["bench.fingerprint"] * per,
            "dse.evaluate_batch_s": total["dse.evaluate_batch"] * per,
            "dse.self_s": dse_self * per,
        }


def structure_mib(structures) -> float:
    """Estimated resident size of compiled structures, in MiB: their
    NumPy arrays plus the per-task Python lists the replay loop uses
    (``nbytes`` and ``sys.getsizeof``; shared objects count once per
    reference)."""
    import numpy as np

    total = 0
    for structure in structures:
        for value in vars(structure).values():
            if isinstance(value, np.ndarray):
                total += value.nbytes
            elif isinstance(value, (list, tuple)):
                total += sys.getsizeof(value)
                total += sum(sys.getsizeof(item) for item in value)
    return total / float(1 << 20)


def zero_layers() -> dict[str, float]:
    return {name: 0.0 for name in PER_LAYER_UNITS}
