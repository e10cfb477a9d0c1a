"""The one design-space sweep pipeline, in-process or on a process pool.

The paper's headline capability is sweeping the entire MT-NLG
parallelization space "in under 200 seconds". Every sweep — training or
serving, one process or many — runs :func:`run_sweep`, which
:meth:`~repro.dse.explorer.DesignSpaceExplorer.explore` calls:

1. with a :class:`~repro.dse.cache.PredictionCache` or checkpoint,
   fingerprint each plan and take the cached points (a checkpoint left
   by an interrupted run is merged into the cache first);
2. order what is left — training plans by structure affinity, so plans
   sharing a compiled graph topology land in the same chunk; serving
   plans keep enumeration order;
3. cut it into chunks and run
   :meth:`~repro.dse.explorer.DesignSpaceExplorer.evaluate_batch` on
   each, in-process at ``workers == 1`` or on a
   :class:`concurrent.futures.ProcessPoolExecutor` otherwise;
4. merge results by index, store them in the cache, report progress and
   save the checkpoint every :data:`_CHECKPOINT_EVERY` chunks and at the
   end.

Determinism contract: points come back in plan order and are
bit-identical whatever the worker count, cache state or chunking — the
workers run the same evaluation code on the same deterministic
analytical device model, and results are merged by index.

Each worker process hosts one long-lived
:class:`~repro.dse.explorer.DesignSpaceExplorer`, so its profiling state
(one necessary-operator lookup table per GPU, shared by the explorer's
per-node-count simulators) and the compiled-structure cache
(:func:`repro.graph.builder.structure_cache_stats`) warm once and are
reused across every chunk that worker pulls. A pooled sweep therefore
profiles each necessary operator once per worker; an in-process sweep
profiles it once.
"""

from __future__ import annotations

import concurrent.futures
from pathlib import Path
from typing import Any, Callable, Iterator

from repro import obs
from repro.config.model import ModelConfig
from repro.config.parallelism import ParallelismConfig, TrainingConfig
from repro.dse.cache import PredictionCache, fingerprint
from repro.dse.explorer import DesignPoint, DesignSpaceExplorer, DSEResult
from repro.graph import builder

#: Chunks are sized so each worker sees roughly this many chunks over a
#: sweep — large enough to amortise IPC, small enough to balance load.
_CHUNKS_PER_WORKER = 4

#: Upper bound on plans per work unit, so huge sweeps still checkpoint
#: and report progress at a reasonable cadence.
_MAX_CHUNK_SIZE = 64

#: Checkpoint cadence, in completed chunks.
_CHECKPOINT_EVERY = 8

# ---------------------------------------------------------------------------
# Worker-process machinery (module-level so it pickles under spawn/fork)
# ---------------------------------------------------------------------------

_WORKER_EXPLORER: DesignSpaceExplorer | None = None


def _init_worker(model: ModelConfig, training: TrainingConfig | None,
                 options: dict[str, Any]) -> None:
    """Build this worker's long-lived explorer."""
    global _WORKER_EXPLORER
    _WORKER_EXPLORER = DesignSpaceExplorer(model, training, **options)


def _evaluate_chunk(plans: list[ParallelismConfig]) -> list[DesignPoint]:
    """Evaluate one work unit in a worker process.

    Observability state is per-process: a worker's spans and metrics
    stay in the worker. Counters the parent cares about (cache hits) are
    re-counted when it absorbs results through its own cache.
    """
    assert _WORKER_EXPLORER is not None, "worker initializer did not run"
    with obs.span("dse.chunk", category="dse", plans=len(plans)):
        return _WORKER_EXPLORER.evaluate_batch(plans)


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------

def run_sweep(explorer: DesignSpaceExplorer,
              plans: list[ParallelismConfig], *, workers: int,
              cache: PredictionCache | None,
              checkpoint_path: str | Path | None,
              progress: Callable[[int, int], None] | None) -> DSEResult:
    """Evaluate ``plans`` with ``explorer``; points come back in order.

    See the module docstring for the steps; the arguments are those of
    :meth:`DesignSpaceExplorer.explore`, already validated.
    """
    total = len(plans)
    points: list[DesignPoint | None] = [None] * total

    def report(done: int) -> None:
        if progress is not None:
            progress(done, total)

    with obs.span("dse.sweep", category="dse", plans=total,
                  workers=workers):
        if checkpoint_path is not None:
            checkpoint_path = Path(checkpoint_path)
            if cache is None:
                cache = PredictionCache()
            if checkpoint_path.exists():
                cache.merge(PredictionCache.load(checkpoint_path))

        keys: list[str | None] = [None] * total
        pending: list[int] = []
        for index, plan in enumerate(plans):
            if cache is not None:
                keys[index] = fingerprint(
                    explorer.model, plan, explorer.training,
                    explorer.system_for(plan.total_gpus),
                    explorer.granularity, zero_stage=explorer.zero_stage,
                    workload=explorer.workload)
                points[index] = cache.get(keys[index])
            if points[index] is None:
                pending.append(index)
        if explorer.workload is None:
            pending.sort(key=lambda index: (builder.structure_affinity(
                explorer.model, plans[index], explorer.training,
                explorer.granularity) or "~", index))
        done = total - len(pending)
        report(done)

        size = max(1, min(_MAX_CHUNK_SIZE,
                          -(-len(pending) // (workers * _CHUNKS_PER_WORKER))))
        chunks = [pending[start:start + size]
                  for start in range(0, len(pending), size)]
        for completed, (chunk, evaluated) in enumerate(
                _evaluate_chunks(explorer, plans, chunks, workers), start=1):
            for index, point in zip(chunk, evaluated):
                points[index] = point
                if cache is not None:
                    cache.put(keys[index], point)
            done += len(chunk)
            report(done)
            if checkpoint_path is not None \
                    and completed % _CHECKPOINT_EVERY == 0:
                cache.save(checkpoint_path)
        if checkpoint_path is not None:
            cache.save(checkpoint_path)

    assert all(point is not None for point in points)
    return DSEResult(model=explorer.model, training=explorer.training,
                     points=points)


def _evaluate_chunks(explorer: DesignSpaceExplorer,
                     plans: list[ParallelismConfig],
                     chunks: list[list[int]], workers: int,
                     ) -> Iterator[tuple[list[int], list[DesignPoint]]]:
    """Yield ``(chunk, points)`` as chunks finish, in any order."""
    if workers == 1:
        for chunk in chunks:
            yield chunk, explorer.evaluate_batch(
                [plans[index] for index in chunk])
        return
    if not chunks:
        return
    options = {
        "gpus_per_node": explorer.gpus_per_node,
        "granularity": explorer.granularity,
        "network": explorer.network,
        "system_factory": explorer.custom_system_factory,
        "zero_stage": explorer.zero_stage,
        "workload": explorer.workload,
    }
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(workers, len(chunks)), initializer=_init_worker,
            initargs=(explorer.model, explorer.training, options)) as pool:
        futures = {pool.submit(_evaluate_chunk,
                               [plans[index] for index in chunk]): chunk
                   for chunk in chunks}
        for future in concurrent.futures.as_completed(futures):
            yield futures[future], future.result()
