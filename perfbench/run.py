"""The repository's benchmark: host time of the simulator's entry points.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold_plan --seed 0 --seconds 15 --trace 0

Workloads (each seeded; seed 0 is the default input):

* ``cold_plan`` — one ``repro predict`` after import, repeated: a fresh
  ``VTrain`` on an empty structure cache, ``predict`` then
  ``estimate_training`` at OPERATOR granularity. A pass is all 12
  plans: the six Table I plans (t=8) and their t=16 twins; seed 0 runs
  them in table order and other seeds only shuffle the pass. Structure
  build is ~96% of each operation.
* ``dse_sweep_train`` — the ``repro dse`` path for GPT-3 175B at 512
  and 1024 GPUs, m in {1,2,4,8} (140 plans, 46 feasible); the seed
  shuffles the plan order. Few plans, big graphs: build-bound.
* ``dse_sweep_serve`` — the serving sweep, GPT-3 with
  ``InferenceWorkload(32, 1024, 256)`` at <= 256 GPUs (2808 plans, 1656
  feasible): per-plan overhead and builder init dominate.
* ``served_mix`` — a ``repro serve`` daemon and two closed-loop clients
  on one seeded stream: cache reads, fresh what-ifs on warmed
  structures, inference predicts and infeasible plans.

Each sweep and the cold loop run in fresh interpreters (``worker.py``);
served_mix runs its clients in this process. With ``--trace 0`` the
last stdout line carries the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced measurement. Every answer is
checked against ``oracle.py``; a mismatch or an unexpected exception
counts as failed. Lines before the last one repeat the workload's
headline figures by name for people reading the output.

End-to-end times are host-speed-normalised: each time (CPU time of the
single-threaded workers' setup, operations and sweeps; wall time of the
daemon's setup and of the client's round trips on served_mix) is
scaled by ``REFERENCE_S / median(t_probe)``, where the ``t_probe`` are
CPU times of a small fixed kernel a timer takes on the same core
during the work (``common.SpeedSampler``); served_mix instead times a
larger kernel between its one-second blocks and after each setup
(``common.PAUSE_REFERENCE_S``). On the shared VM the
benchmark was built on, the host's speed swings by 10-30% within
seconds and drifts as much over minutes, in CPU time as much as in
wall time; the scaling takes most of that out, and a change to the
program still moves the figures, because the kernel is not the
program's code. Per-layer times are the raw wall-clock spans.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

from common import (SETUP_SAMPLES, WORKLOADS, now, pause_reference_s,
                    percentile, program_present, run_worker)

#: A worker must finish well inside the run's own 180 s limit.
WORKER_TIMEOUT_S = 150.0


class Run:
    """What one benchmark run measured."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_s: list[float] = []
        self.rss_mib: list[float] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.headline: dict[str, tuple[float, str]] = {}

    def end_to_end(self, op_s: list[float], elapsed_s: float) -> None:
        """The end-to-end metrics from normalised times."""
        self.metrics = {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "peak_rss_mib": (statistics.median(self.rss_mib), "MiB"),
            "op_p50_ms": (statistics.median(op_s) * 1e3, "ms"),
            "ops_per_s": (len(op_s) / elapsed_s, "1/s"),
        }
        self.headline["setup_s"] = self.metrics["setup_s"]
        self.headline["peak_rss_mib"] = self.metrics["peak_rss_mib"]

    def result(self) -> dict:
        self.headline["error_rate"] = (
            self.failed / self.attempted if self.attempted else 1.0,
            "failed/attempted")
        return {"correct": self.failed == 0 and self.attempted > 0,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit) in self.metrics.items()}}


def _worker_args(mode: str, args, *extra: str) -> list[str]:
    argv = [mode, "--launch", repr(now()), "--seed", str(args.seed),
            *extra]
    if args.tiny:
        argv.append("--tiny")
    return argv


def _probe_setup(run: Run, mode: str, args, *extra: str) -> None:
    """Time fresh interpreters until ``SETUP_SAMPLES`` are in hand."""
    while len(run.setup_s) < SETUP_SAMPLES:
        messages = run_worker(_worker_args(mode, args, *extra, "--probe"),
                              timeout=WORKER_TIMEOUT_S)
        run.setup_s.append(messages[0]["setup_s"])


def _layers_common(layers: dict, messages: list[dict]) -> None:
    layers["import.repro_cli_s"] = statistics.median(
        message["import_s"] for message in messages)
    layers["import.networkx_loaded"] = float(
        any(message["networkx"] for message in messages))


def run_cold(args) -> Run:
    run = Run()
    extra = ["--seconds", repr(args.seconds)]
    if args.trace:
        extra.append("--traced")
    messages = run_worker(_worker_args("cold", args, *extra),
                          timeout=WORKER_TIMEOUT_S)
    run.setup_s.append(messages[0]["setup_s"])
    result = messages[-1]
    run.rss_mib.append(result["peak_rss_mib"])
    ops = result["ops"]
    run.attempted = len(ops)
    run.failed = sum(op["failed"] for op in ops)
    run.problems = result["problems"]
    plain = [op for op in ops if not op["traced"]]
    times = [op["s"] for op in plain]
    if args.trace:
        layers = result["layers"]
        traced = [op["s"] for op in ops if op["traced"]]
        layers["obs.tracing_overhead_ratio"] = (statistics.median(traced)
                                                / statistics.median(times))
        _layers_common(layers, [result])
        run.metrics = {name: (value, "") for name, value in layers.items()}
        return run
    _probe_setup(run, "cold", args)
    run.end_to_end(times, sum(times))
    run.headline["cold_predict_p50_s"] = (statistics.median(times), "s")
    run.headline["cold_tasks_per_s"] = (
        sum(op["tasks"] for op in plain) / sum(times), "1/s")
    return run


def run_sweep(args, kind: str) -> Run:
    """Sweeps in fresh interpreters, one ``repro dse`` call each, until
    ``--seconds`` pass; a traced run alternates untraced and traced."""
    run = Run()
    results: list[dict] = []
    start = time.perf_counter()
    while (not results or time.perf_counter() - start < args.seconds
           or (args.trace and len(results) < 2)):
        traced = args.trace and len(results) % 2 == 1
        extra = ["--kind", kind] + (["--traced"] if traced else [])
        messages = run_worker(_worker_args("sweep", args, *extra),
                              timeout=WORKER_TIMEOUT_S)
        result = messages[-1]
        result["traced"] = traced
        results.append(result)
        run.setup_s.append(messages[0]["setup_s"])
        run.attempted += 1
        if result["problems"]:
            run.failed += 1
            run.problems.extend(result["problems"])
    plain = [result for result in results if not result["traced"]]
    times = [result["sweep_s"] for result in plain]
    if args.trace:
        traced = [result for result in results
                  if result["traced"] and "layers" in result]
        layers = {name: statistics.median(result["layers"][name]
                                          for result in traced)
                  for name in (traced[0]["layers"] if traced else ())}
        layers["obs.tracing_overhead_ratio"] = (
            statistics.median(result["sweep_s"] for result in traced)
            / statistics.median(times))
        _layers_common(layers, results)
        run.metrics = {name: (value, "") for name, value in layers.items()}
        return run
    _probe_setup(run, "sweep", args, "--kind", kind)
    run.rss_mib = [result["peak_rss_mib"] for result in plain]
    run.end_to_end(times, sum(times))
    run.headline[f"{kind}_sweep_s"] = (statistics.median(times), "s")
    return run


def run_served(args) -> Run:
    from common import use_program_path

    use_program_path()
    tick = time.perf_counter()
    import repro.cli  # noqa: F401 - timed for import.repro_cli_s
    import_s = time.perf_counter() - tick
    networkx = "networkx" in sys.modules

    import inputs
    import served

    run = Run()
    size = "tiny" if args.tiny else "full"
    core = served.pin_core()
    os.sched_setaffinity(0, {core})
    for _ in range(served.SETUP_DAEMONS - 1):
        daemon = served.Daemon(core)
        try:
            served.warm_up(daemon, inputs.ServedStream(args.seed, size))
            setup_s = now() - daemon.launched
            run.setup_s.append(
                setup_s * served.speed_scale(pause_reference_s()))
            daemon.shutdown()
        finally:
            daemon.kill()

    stream = inputs.ServedStream(args.seed, size)
    daemon = served.Daemon(core)
    try:
        warm = served.warm_up(daemon, stream)
        setup_s = now() - daemon.launched
        run.setup_s.append(setup_s * served.speed_scale(pause_reference_s()))
        if args.trace:
            before = served.daemon_stats(daemon)
        replies, elapsed, errors, rss_mib = served.timed_phase(
            daemon, stream, args.seconds, trace=bool(args.trace))
        if args.trace:
            after = served.daemon_stats(daemon)
        notes = []
        if rss_mib is None:
            rss_mib = daemon.peak_rss_mib()
            notes.append(f"peak_rss_mib read after {len(replies)} requests,"
                         f" fewer than the {served.RSS_AT_REQUESTS} it is "
                         f"defined at")
        run.rss_mib.append(rss_mib)
        daemon.shutdown()
    finally:
        daemon.kill()

    run.attempted = len(warm) + len(replies) + len(errors)
    failed, run.problems = served.check_replies(warm + replies, stream)
    run.failed = failed + len(errors)
    run.problems = errors[:5] + run.problems + notes
    if stream.exhausted:
        run.problems.append(f"{stream.exhausted} fresh what-ifs wanted "
                            f"after the pools ran dry")
    if args.trace:
        layers = served.serve_layers(replies, before, after,
                                     served.bytes_per_task_mib(stream))
        layers["import.repro_cli_s"] = import_s
        layers["import.networkx_loaded"] = float(networkx)
        run.metrics = {name: (value, "") for name, value in layers.items()}
        return run
    rtts = [reply.rtt_s * reply.scale for reply in replies]
    run.end_to_end(rtts, elapsed)
    run.headline["served_req_per_s"] = (len(replies) / elapsed, "1/s")
    run.headline["served_p50_ms"] = (statistics.median(rtts) * 1e3, "ms")
    run.headline["served_p99_ms"] = (percentile(rtts, 0.99) * 1e3, "ms")
    return run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small models, for the self-tests")
    args = parser.parse_args(argv)
    if not program_present():
        print("perfbench: no src/repro in this checkout; nothing to "
              "measure", file=sys.stderr)
        return 2

    if args.workload == "cold_plan":
        run = run_cold(args)
    elif args.workload == "served_mix":
        run = run_served(args)
    else:
        run = run_sweep(args, args.workload.rsplit("_", 1)[1])

    if args.trace:
        from layers import PER_LAYER_UNITS
        run.metrics = {name: (run.metrics.get(name, (0.0, ""))[0], unit)
                       for name, unit in PER_LAYER_UNITS.items()}
    result = run.result()
    for problem in run.problems:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    for name, (value, unit) in run.headline.items():
        print(f"{args.workload} seed={args.seed}: {name} = {value:.6g} "
              f"{unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
