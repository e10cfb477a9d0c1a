"""Helpers shared by the benchmark's orchestrator, workers and tools.

The orchestrator imports the program lazily: it must report a missing
``src/`` tree cleanly, and setup time is measured from the launch of a
fresh interpreter, never from one that has already imported ``repro``.
"""

from __future__ import annotations

import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("cold_plan", "dse_sweep_train", "dse_sweep_serve", "served_mix")

#: Fresh interpreters timed per run for ``setup_s`` (the median is
#: reported, so one slow launch cannot move the metric).
SETUP_SAMPLES = 5

#: CPU seconds one call of :func:`_probe_kernel` is taken to cost.
#: The host's speed swings by 10-30% within seconds and drifts as much
#: over minutes (a shared VM; steal time is near 0, so CPU time moves
#: as much as wall time). Every end-to-end time is therefore scaled by
#: ``REFERENCE_S / median(kernel times)``, the kernel timed on the same
#: core while (or right after) the measured work runs: the figures read
#: as times on a host that runs the kernel in exactly ``REFERENCE_S``.
#: The kernel is the benchmark's own code, so a change to the program
#: still moves them.
REFERENCE_S = 0.0015
#: Wall seconds between two samples of :class:`SpeedSampler`.
SAMPLE_INTERVAL_S = 0.1
#: Fewest kernel samples a scale rests on; shorter work is topped up
#: with samples taken right after it.
MIN_SAMPLES = 9
#: CPU seconds one call of :func:`_pause_kernel` is taken to cost; it
#: scales served_mix, whose time goes to two processes trading loopback
#: messages. The small kernel follows that workload's slowdowns poorly
#: (5 seeds: round-trip spread 27%, under 10% with this kernel), and
#: a timer cannot sample it during a request without stealing the core
#: from the daemon, so served_mix times this larger kernel, whose NumPy
#: arrays add allocation and page-fault work, in pauses between blocks.
PAUSE_REFERENCE_S = 0.02


def program_present() -> bool:
    """Whether the checkout holds the program the benchmark drives."""
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> dict[str, str]:
    """Environment for a child interpreter that imports ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_OBS", None)
    return env


def use_program_path() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def now() -> float:
    """Monotonic clock shared by every process on the machine (Linux
    CLOCK_MONOTONIC), so a child can time itself from its launch."""
    return time.monotonic()


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1])."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median), with the quartiles taken as
    ``statistics.quantiles(values, n=4)`` gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return mid, q1, q3, (q3 - q1) / mid if mid else math.inf


def _probe_kernel() -> int:
    """Fixed, cache-resident work of the kinds the program does: tuple
    and dict churn, a keyed sort and a generator sum."""
    rows, table = [], {}
    for index in range(1_500):
        row = (index, index * 7 % 31)
        table[row[1], index & 15] = row
        rows.append(row)
    rows.sort(key=lambda row: (row[1], -row[0]))
    return len(table) + sum(row[0] for row in rows if row[1] & 1)


def probe_s() -> float:
    """CPU seconds of one :func:`_probe_kernel` call, with the cyclic
    collector held off: a collection the kernel's allocations set off
    would sweep the measured work's garbage, which is that work's cost."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        _probe_kernel()
        return time.process_time() - start
    finally:
        if collecting:
            gc.enable()


def _pause_kernel() -> float:
    """Fixed work of the kinds the program does, at a larger scale:
    tuple and dict churn, a keyed sort, a generator sum and NumPy
    scans over freshly allocated arrays."""
    import numpy as np

    rows, table = [], {}
    for index in range(20_000):
        row = (index, index * 7 % 31, float(index))
        table[row[1], index & 255] = row
        rows.append(row)
    rows.sort(key=lambda row: (row[1], -row[0]))
    total = sum(row[2] for row in rows if row[1] & 1) + len(table)
    array = np.arange(200_000, dtype=float)
    for _ in range(5):
        scan = np.maximum.accumulate(array[::-1] + total)
        array = array + scan[:1]
    return float(array[-1])


def pause_reference_s() -> float:
    """CPU seconds of one :func:`_pause_kernel` call: the mean of two
    timed calls after an untimed one (the first call after a burst of
    other work runs slow while the heap and the caches settle)."""
    _pause_kernel()
    samples = []
    for _ in range(2):
        start = time.process_time()
        _pause_kernel()
        samples.append(time.process_time() - start)
    return sum(samples) / len(samples)


class SpeedSampler:
    """Samples the host's speed while single-threaded work runs: every
    ``SAMPLE_INTERVAL_S`` of wall time a SIGALRM handler takes one
    :func:`probe_s` sample. :meth:`cpu_s` leaves the handlers' own CPU
    time out, so the measured work is charged only for itself."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._spent_s = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.process_time()
        self.samples.append(probe_s())
        self._spent_s += time.process_time() - start

    def start(self) -> None:
        import signal
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        import signal
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def cpu_s(self) -> float:
        """CPU seconds of this process so far, less the sampler's."""
        return time.process_time() - self._spent_s

    def scale_since(self, first: int) -> float:
        """Speed scale of the work since sample ``first`` was due; work
        too short for ``MIN_SAMPLES`` is topped up right after it."""
        while len(self.samples) - first < MIN_SAMPLES:
            self._tick(None, None)
        return REFERENCE_S / statistics.median(self.samples[first:])


def run_worker(args: list[str], *, timeout: float) -> list[dict]:
    """Run ``perfbench/worker.py`` with ``args`` in a fresh interpreter.

    Returns the JSON messages it printed, one per stdout line. Raises
    RuntimeError when the worker fails or overruns ``timeout``.
    """
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), *args]
    process = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                               stdout=subprocess.PIPE, text=True)
    try:
        out, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise RuntimeError(f"worker timed out: {' '.join(args)}") from None
    if process.returncode != 0:
        raise RuntimeError(
            f"worker exited with {process.returncode}: {' '.join(args)}")
    return [json.loads(line) for line in out.splitlines()
            if line.startswith("{")]


def peak_rss_mib() -> float:
    """Peak resident set of the calling process, in MiB."""
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(message: dict) -> None:
    """Print one JSON message line and flush (worker -> orchestrator)."""
    print(json.dumps(message), flush=True)


def load_benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())
