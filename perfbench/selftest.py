"""Self-tests of the benchmark itself (not of the program).

1. A tiny-input smoke run of every workload, untraced and traced:
   exit 0, a well-formed last line, no failed operation, and every
   metric ``BENCHMARK.json`` names present with its unit.
2. The oracle fails when an expected value is corrupted by one ulp.
3. Without ``src/`` the benchmark exits non-zero and prints no result.

Usage, from the repository root (about a minute)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from common import (BENCH_DIR, ROOT, WORKLOADS, load_benchmark_spec,
                    use_program_path)

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def smoke(spec: dict) -> list[str]:
    problems = []
    for workload in WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
                    workload, "--seed", "7", "--seconds", "1", "--trace",
                    str(trace), "--tiny"]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True,
                                  text=True, timeout=180)
            where = f"{workload} trace={trace}"
            if done.returncode != 0:
                problems.append(f"{where}: exit {done.returncode}: "
                                f"{done.stderr[-500:]}")
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            if set(result) != RESULT_KEYS:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] \
                    or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of "
                                f"{result['attempted']} failed: "
                                f"{done.stderr[-500:]}")
            metrics = result["metrics"]
            expected = {metric["name"]: metric["unit"] for metric in declared}
            if set(metrics) != set(expected):
                problems.append(f"{where}: metrics differ from "
                                f"BENCHMARK.json: {sorted(set(metrics) ^ set(expected))}")
            for name, unit in expected.items():
                entry = metrics.get(name, {})
                value = entry.get("value")
                if entry.get("unit") != unit or not isinstance(
                        value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{where}: {name} = {entry}")
                elif trace == 0 and value <= 0:
                    problems.append(f"{where}: end-to-end {name} is {value}")
    return problems


def corrupted_oracle() -> list[str]:
    """Each oracle passes on the true value and fails one ulp away."""
    use_program_path()
    import inputs
    import oracle
    from repro.dse.explorer import DesignSpaceExplorer
    from repro.graph.builder import Granularity
    from repro.sim.estimator import VTrain

    def bumped(value: float) -> float:
        return math.nextafter(value, math.inf)

    problems = []

    def expect(found: list[str], should_fail: bool, what: str) -> None:
        if bool(found) != should_fail:
            problems.append(f"{what}: oracle returned {found!r}")

    plan = inputs.cold_plans(7, "tiny")[0]
    vtrain = VTrain(plan.system)
    time_s = vtrain.predict(plan.model, plan.plan, plan.training).iteration_time
    dollars = vtrain.estimate_training(plan.model, plan.plan,
                                       plan.training).dollars_total
    golden = {plan.way: (time_s, dollars)}
    expect(oracle.check_cold(plan.way, time_s, dollars, time_s, golden),
           False, "cold golden")
    expect(oracle.check_cold(plan.way, time_s, dollars, time_s,
                             {plan.way: (bumped(time_s), dollars)}),
           True, "cold golden + 1 ulp")
    stage = VTrain(plan.system, granularity=Granularity.STAGE).predict(
        plan.model, plan.plan, plan.training).iteration_time
    expect(oracle.check_granularity(plan.way, time_s, stage), False,
           "granularity")
    expect(oracle.check_granularity(plan.way, time_s, stage,
                                    golden_stage=bumped(stage)),
           True, "STAGE golden + 1 ulp")
    expect(oracle.check_granularity(plan.way, time_s, stage * (1 + 1e-8)),
           True, "STAGE off by 1e-8")

    sweep = inputs.sweep_for("train", "tiny")
    explorer = DesignSpaceExplorer(sweep.model, sweep.training)
    point = explorer.evaluate(plan.plan)
    twin = dataclasses.replace(point,
                               iteration_time=bumped(point.iteration_time))
    expect(oracle.check_points_match([point], [point]), False, "points")
    expect(oracle.check_points_match([twin], [point]), True,
           "point + 1 ulp")
    summary = {"plans": 1, "feasible": 1,
               "digest": oracle.table_digest([point])}
    expect(oracle.check_sweep("t", summary, {"t": dict(summary)}), False,
           "sweep digest")
    corrupt = dict(summary, digest=oracle.table_digest([twin]))
    expect(oracle.check_sweep("t", summary, {"t": corrupt}), True,
           "sweep digest of a point + 1 ulp")

    stream = inputs.ServedStream(7, "tiny")
    for key in stream.warmup:
        direct = VTrain(key.description.system)
        answer = oracle.served_expectation(direct, key)
        expect(oracle.check_served(dict(answer), answer), False,
               f"served key {key.key_id}")
        field = next(iter(answer))
        wrong = dict(answer, **{field: bumped(answer[field])})
        expect(oracle.check_served(wrong, answer), True,
               f"served key {key.key_id} {field} + 1 ulp")
        expect(oracle.check_served(dict(answer), None), True,
               "answer where the infeasible error was due")
    return problems


def without_program() -> list[str]:
    """The benchmark copied alone must refuse to run."""
    with tempfile.TemporaryDirectory(dir=ROOT,
                                     prefix=".perfbench-alone-") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH_DIR, Path(tmp) / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__",
                                                      "results"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    if done.returncode == 0 or '"correct"' in done.stdout:
        return [f"ran without src/: exit {done.returncode}, "
                f"stdout {done.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = load_benchmark_spec()
    problems = []
    for name, check in (("tiny smoke runs", lambda: smoke(spec)),
                        ("corrupted oracle", corrupted_oracle),
                        ("benchmark without program", without_program)):
        found = check()
        print(f"{name}: {'ok' if not found else 'FAILED'}")
        for problem in found:
            print(f"  {problem}")
        problems += found
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
