"""Steadiness mode: how much each end-to-end metric moves from run to run.

Runs ``run.py`` once per seed on each workload (workloads interleaved,
so a slow spell on the machine hits all of them), echoing each run's
named figures (``cold_predict_p50_s``, ``train_sweep_s``,
``served_p99_ms``, ``error_rate``, ...) to stderr, then prints, for
every end-to-end metric, the median, the quartiles and the spread
``(q3 - q1) / median`` against the metric's bound from
``BENCHMARK.json``. A spread under a third of the bound is steady.
With ``--sets 2`` it repeats the whole thing on fresh seeds and
reports how far the second median moved from the first, the check two
sets of runs of the same code must pass.

Usage, from the repository root::

    python3 perfbench/steady.py --runs 10 --sets 2 --out perfbench/results/steady.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from common import BENCH_DIR, ROOT, WORKLOADS, load_benchmark_spec, spread


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
            workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}:\n{done.stderr}")
    *named, last = done.stdout.splitlines()
    print("\n".join(named), file=sys.stderr, flush=True)
    return json.loads(last)


def report(results: dict, spec: dict) -> dict:
    """Print and return per-workload, per-metric statistics."""
    bounds = {metric["name"]: metric for metric in spec["end_to_end"]}
    table: dict = {}
    for workload, runs in results.items():
        incorrect = [run for run in runs if not run["correct"]]
        print(f"\n{workload}: {len(runs)} runs, "
              f"{len(incorrect)} with errors")
        table[workload] = {}
        for name, metric in bounds.items():
            values = [run["metrics"][name]["value"] for run in runs]
            mid, q1, q3, share = spread(values)
            steady = share < metric["bound"] / 3
            table[workload][name] = {"median": mid, "q1": q1, "q3": q3,
                                     "spread": share,
                                     "unit": metric["unit"]}
            print(f"  {name:<14} median {mid:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {share:6.2%} "
                  f"(bound {metric['bound']:.0%}, steady below "
                  f"{metric['bound'] / 3:.1%}: "
                  f"{'yes' if steady else 'NO'})")
    return table


def compare(first: dict, second: dict, spec: dict) -> bool:
    """Whether the second set's medians stay within each bound."""
    print("\nsecond set against the first")
    agree = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        lower_better = metric["better"] == "lower"
        for workload in first:
            a = first[workload][name]["median"]
            b = second[workload][name]["median"]
            worse = (b - a) / a if lower_better else (a - b) / a
            ok = worse <= bound
            agree &= ok
            print(f"  {workload:<16} {name:<14} {a:<12.6g} -> {b:<12.6g} "
                  f"worse by {worse:+7.2%} (bound {bound:.0%}): "
                  f"{'ok' if ok else 'EXCEEDED'}")
    return agree


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path,
                        help="write every run's result line here (JSON)")
    args = parser.parse_args()
    spec = load_benchmark_spec()
    tables, raw = [], []
    for index in range(args.sets):
        results: dict[str, list[dict]] = {name: [] for name in args.workloads}
        first = args.first_seed + index * args.runs
        for seed in range(first, first + args.runs):
            for workload in args.workloads:
                results[workload].append(
                    run_once(workload, seed, spec["run_seconds"]))
        print(f"\n=== set {index + 1}: seeds {first}..{first + args.runs - 1}")
        tables.append(report(results, spec))
        raw.append(results)
    agree = compare(tables[0], tables[1], spec) if args.sets == 2 else True
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"sets": raw, "tables": tables},
                                       indent=1) + "\n")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
