"""One fresh interpreter of the cold_plan or sweep workloads.

Usage (from ``run.py``)::

    worker.py cold  --launch T --seed S --seconds X [--traced] [--tiny] [--probe]
    worker.py sweep --launch T --seed S --kind train|serve [--traced] [--tiny] [--probe]

The first message is the setup cost, ``setup_s``: the CPU time of this
interpreter from its start through ``import repro.cli`` (what every
``repro`` command pays) and input construction. ``--launch`` is the
orchestrator's monotonic clock when it started this interpreter, so
``ready_s`` is the same span in wall time. ``--probe`` stops there. The
last message holds the operations' CPU times, the oracle's findings
and, with ``--traced``, the per-layer metrics. A worker runs one
thread, so its CPU time is the work's own, free of scheduler waits;
every time it reports is scaled to the reference host speed by the
:class:`common.SpeedSampler` samples taken during that work.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from common import SpeedSampler, emit, now, peak_rss_mib
from layers import MAX_SPANS


def _setup(launch: float, traced: bool) -> dict:
    if traced:
        os.environ["REPRO_OBS_MAX_SPANS"] = str(MAX_SPANS)
    start = now()
    import repro.cli  # noqa: F401 - the import every command pays
    import_s = now() - start
    networkx = "networkx" in sys.modules
    return {"import_s": import_s, "networkx": networkx}


def _ready(args, sampler: SpeedSampler) -> bool:
    """Report setup done; True when this interpreter only probes it."""
    ready_s = now() - args.launch
    setup_s = sampler.cpu_s()
    emit({"ready_s": ready_s, "setup_s": setup_s * sampler.scale_since(0)})
    return args.probe


def _cached_structures(probe) -> list:
    from repro.graph.builder import structure_cache_get

    found = (structure_cache_get(key) for key in probe.put_keys)
    return [structure for structure in found if structure is not None]


def run_cold(args, info: dict, sampler: SpeedSampler) -> dict:
    from repro.graph.builder import (Granularity, clear_structure_cache,
                                     structure_cache_stats)
    from repro.sim.estimator import VTrain

    import inputs
    import oracle
    from layers import LayerProbe, structure_mib

    plans = inputs.cold_plans(args.seed, "tiny" if args.tiny else "full")
    if _ready(args, sampler):
        return {}

    probe = LayerProbe() if args.traced else None
    if probe is not None:
        from repro import obs
        obs.reset()
    # A traced run alternates untraced and traced passes over the same
    # plans, so the ratio of their op times isolates the tracing cost.
    ops, problems = [], []
    cache_totals = {"hits": 0, "misses": 0, "evictions": 0}
    cached_mib = 0.0
    outputs: dict[tuple, float] = {}
    start = now()
    passes = 0
    while passes < (2 if args.traced else 1) or now() - start < args.seconds:
        traced = args.traced and passes % 2 == 1
        if traced:
            probe.install()
        for plan in plans:
            gc.collect()
            clear_structure_cache()
            first = len(sampler.samples)
            tick = sampler.cpu_s()
            try:
                vtrain = VTrain(plan.system)
                prediction = vtrain.predict(plan.model, plan.plan,
                                            plan.training)
                estimate = vtrain.estimate_training(plan.model, plan.plan,
                                                    plan.training)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                problems.append(f"{plan.way}: {type(exc).__name__}: {exc}")
                seconds = sampler.cpu_s() - tick
                ops.append({"way": plan.way,
                            "s": seconds * sampler.scale_since(first),
                            "traced": traced, "failed": True, "tasks": 0})
                continue
            seconds = sampler.cpu_s() - tick
            seconds *= sampler.scale_since(first)
            stats = structure_cache_stats()
            op_problems = oracle.check_cold(
                plan.way, prediction.iteration_time, estimate.dollars_total,
                estimate.iteration_time,
                goldens={} if args.tiny else oracle.COLD_GOLDENS)
            problems.extend(op_problems)
            outputs[plan.way] = prediction.iteration_time
            ops.append({"way": plan.way, "s": seconds, "traced": traced,
                        "failed": bool(op_problems),
                        "tasks": prediction.simulation.num_tasks})
            if traced:
                for field in cache_totals:
                    cache_totals[field] += stats[field]
                cached_mib = max(cached_mib, structure_mib(
                    _cached_structures(probe)))
        if traced:
            probe.uninstall()
        passes += 1

    # Read before the oracle, whose STAGE structures would add to it.
    rss_mib = peak_rss_mib()
    # Oracle, after the timed phase: STAGE must agree with OPERATOR.
    failed_ways = set()
    for plan in plans:
        if plan.way not in outputs:
            continue
        stage = VTrain(plan.system, granularity=Granularity.STAGE).predict(
            plan.model, plan.plan, plan.training).iteration_time
        golden = None if args.tiny else oracle.TABLE_I_STAGE.get(plan.way)
        found = oracle.check_granularity(plan.way, outputs[plan.way],
                                         stage, golden_stage=golden)
        if found:
            failed_ways.add(tuple(plan.way))
            problems.extend(found)
    for op in ops:
        if tuple(op["way"]) in failed_ways:
            op["failed"] = True

    result = {"ops": ops, "problems": problems[:20],
              "peak_rss_mib": rss_mib, **info}
    if probe is not None:
        traced_ops = [op for op in ops if op["traced"]]
        layers = probe.metrics(len(traced_ops), cache_stats=cache_totals,
                               cached_mib=cached_mib,
                               predicts=len(traced_ops))
        result["layers"] = layers
    return result


def run_sweep(args, info: dict, sampler: SpeedSampler) -> dict:
    from repro import obs
    from repro.dse.cache import PredictionCache
    from repro.dse.explorer import DesignSpaceExplorer
    from repro.dse.space import enumerate_plans, enumerate_serving_plans
    from repro.graph.builder import structure_cache_stats

    import inputs
    import oracle
    from layers import LayerProbe, structure_mib

    sweep = inputs.sweep_for(args.kind, "tiny" if args.tiny else "full")
    if _ready(args, sampler):
        return {}

    gc.collect()
    probe = LayerProbe() if args.traced else None
    if probe is not None:
        obs.reset()
        probe.install()
    first = len(sampler.samples)
    tick = sampler.cpu_s()
    with obs.span("bench.enumerate", "bench"):
        if sweep.workload is None:
            plans = [plan for count in sweep.num_gpus
                     for plan in enumerate_plans(sweep.model, sweep.training,
                                                 space=sweep.space,
                                                 num_gpus=count)]
        else:
            plans = list(enumerate_serving_plans(
                sweep.model, sweep.workload, space=sweep.space,
                max_gpus=sweep.max_gpus))
    plans = inputs.shuffle_plans(plans, args.seed)
    explorer = DesignSpaceExplorer(sweep.model, sweep.training,
                                   workload=sweep.workload)
    cache = PredictionCache()
    try:
        result = explorer.explore(plans=plans, workers=1, cache=cache)
    except Exception as exc:  # noqa: BLE001 - counted as failed
        seconds = sampler.cpu_s() - tick
        return {"sweep_s": seconds * sampler.scale_since(first),
                "summary": {}, "problems": [f"{type(exc).__name__}: {exc}"],
                "peak_rss_mib": peak_rss_mib(), **info}
    seconds = sampler.cpu_s() - tick
    seconds *= sampler.scale_since(first)
    stats = structure_cache_stats()
    cached_mib = (structure_mib(_cached_structures(probe))
                  if probe is not None else 0.0)
    if probe is not None:
        probe.uninstall()
    rss_mib = peak_rss_mib()

    summary = oracle.sweep_summary(args.kind, result)
    if args.tiny:
        reference = DesignSpaceExplorer(sweep.model, sweep.training,
                                        workload=sweep.workload)
        problems = oracle.check_points_match(
            result.points, [reference.evaluate(plan) for plan in plans])
    else:
        problems = oracle.check_sweep(args.kind, summary)
    message = {"sweep_s": seconds, "summary": summary,
               "problems": problems[:20], "peak_rss_mib": rss_mib, **info}
    if probe is not None:
        layers = probe.metrics(1, cache_stats=stats, cached_mib=cached_mib,
                               predicts=result.num_feasible)
        layers["dse.plans_evaluated"] = float(len(plans))
        layers["dse.plans_infeasible"] = float(len(plans)
                                               - result.num_feasible)
        lookups = cache.hits + cache.misses
        layers["dse.prediction_cache_hit_ratio"] = (
            cache.hits / lookups if lookups else 0.0)
        message["layers"] = layers
    return message


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("cold", "sweep"))
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--kind", choices=("train", "serve"))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    sampler = SpeedSampler()
    sampler.start()
    info = _setup(args.launch, args.traced)
    runner = run_cold if args.mode == "cold" else run_sweep
    result = runner(args, info, sampler)
    sampler.stop()
    if not args.probe:
        emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
