"""The served_mix workload: a ``repro serve`` daemon and two closed-loop
clients drawing from one seeded request stream.

This process is the single client process: two threads, one
connection each, each sending its next request only after its reply.
The daemon is a fresh ``python -m repro serve --port 0`` (OPERATOR
granularity, every other flag at its default). Its setup time runs from
its launch until it has answered ``ping`` and the untimed warm-up,
which builds the structures every later what-if re-times.

The daemon and the client share one pinned core, so the workload
measures the CPU each request costs on both sides. Every round trip
wakes the other process; across cores that wake-up waits on the host's
scheduler, and on a shared 2-vCPU VM the same request stream then ran
at 700 to 1400 requests/s from run to run (one core: within 10%).

The timed phase runs in closed-loop blocks of ``BLOCK_S``. Between
blocks the clients pause and this process times the host's speed on
the shared core (``common.pause_reference_s``) while the daemon idles;
each block's round trips are scaled by the mean of the samples taken
just before and just after it, and each setup by a sample taken right
after it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import (PAUSE_REFERENCE_S, ROOT, child_env, now,
                    pause_reference_s, percentile)

#: Closed-loop clients (connections) against the one daemon.
CLIENTS = 2
#: Daemons started per run: the timed one plus setup probes, for a
#: median setup time.
SETUP_DAEMONS = 3
#: Seconds of one closed-loop block of the timed phase.
BLOCK_S = 1.0
#: Timed requests after which the daemon's peak resident set is read.
#: The daemon keeps every answer it computed, so its memory grows by
#: about 6 KB per request of this mix; read at the end of a
#: time-bounded run, it would rise with the host's speed and with every
#: gain in throughput. A 15 s run serves two to four times this many.
RSS_AT_REQUESTS = 3000


@dataclass
class Reply:
    """One timed request and what came back."""

    key_id: int
    rtt_s: float
    answer: object  # result payload (dict) or JSON-RPC error code (int)
    traced: bool = False
    spans: list = field(default_factory=list)
    #: Speed scale of the request's block (see timed_phase).
    scale: float = 1.0


def pin_core() -> int:
    """The core the daemon and this client process run on."""
    return max(os.sched_getaffinity(0))


class Daemon:
    """A ``repro serve`` child process on a free loopback port."""

    def __init__(self, core: int) -> None:
        self.launched = now()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        # Threads the daemon starts later inherit its main thread's
        # affinity.
        os.sched_setaffinity(self.process.pid, {core})
        line = self.process.stderr.readline()
        if "listening on" not in line:
            self.kill()
            raise RuntimeError(f"daemon did not start: {line!r}")
        address = line.split("listening on", 1)[1].split()[0]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)
        # Keep draining stderr so the daemon can never block on it.
        self._drain = threading.Thread(target=self.process.stderr.read,
                                       daemon=True)
        self._drain.start()

    def connect(self):
        from repro.serve.client import ServeClient
        return ServeClient.connect(self.host, self.port, timeout=30.0)

    def peak_rss_mib(self) -> float:
        """The daemon's peak resident set so far, in MiB."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        line = next(line for line in status.splitlines()
                    if line.startswith("VmHWM:"))
        return int(line.split()[1]) / 1024.0

    def shutdown(self) -> None:
        """Stop the daemon and wait for it to exit."""
        with self.connect() as client:
            client.shutdown()
        self.process.wait()
        self._drain.join(timeout=10.0)
        self.process.stderr.close()

    def kill(self) -> None:
        if self.process.returncode is None and self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        if self.process.stderr is not None:
            self.process.stderr.close()


def _request(client, key, traced: bool) -> Reply:
    from repro.serve.protocol import RemoteError

    params = key.params()
    tick = time.perf_counter()
    try:
        payload = client.predict(description=params["description"],
                                 workload=params.get("workload"),
                                 trace=traced)
    except RemoteError as exc:
        return Reply(key.key_id, time.perf_counter() - tick, exc.code,
                     traced)
    rtt = time.perf_counter() - tick
    served = payload.pop("served")
    return Reply(key.key_id, rtt, payload, traced, served.get("spans", []))


def warm_up(daemon: Daemon, stream) -> list[Reply]:
    """Ping, then build the pool's structures; returns the warm-up
    replies (checked by the oracle like any other)."""
    with daemon.connect() as client:
        if not client.ping():
            raise RuntimeError("daemon did not answer ping")
        return [_request(client, key, False) for key in stream.warmup]


def closed_loop(daemon: Daemon, stream, seconds: float, trace: bool,
                limit: int | None = None
                ) -> tuple[list[Reply], float, list[str]]:
    """Run the clients until ``seconds`` pass or they have sent
    ``limit`` requests; returns the replies, the wall time they took,
    and unexpected client-side errors. With ``trace`` each client asks
    for the daemon's wire spans on every other request, so traced and
    untraced requests share the phase."""
    replies: list[Reply] = []
    errors: list[str] = []
    lock = threading.Lock()
    deadline = time.perf_counter() + seconds
    sent = [0]

    def client_loop() -> None:
        mine = []
        try:
            with daemon.connect() as client:
                while time.perf_counter() < deadline:
                    with lock:
                        if limit is not None and sent[0] >= limit:
                            break
                        sent[0] += 1
                    traced = trace and len(mine) % 2 == 1
                    mine.append(_request(client, stream.next(), traced))
        except Exception as exc:  # noqa: BLE001 - reported as failed
            with lock:
                errors.append(f"{type(exc).__name__}: {exc}")
        with lock:
            replies.extend(mine)

    start = time.perf_counter()
    threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return replies, time.perf_counter() - start, errors


def speed_scale(reference_s: float) -> float:
    """Factor taking times measured while :func:`pause_reference_s`
    read ``reference_s`` to the reference host speed."""
    return PAUSE_REFERENCE_S / reference_s


def timed_phase(daemon: Daemon, stream, seconds: float, trace: bool
                ) -> tuple[list[Reply], float, list[str], float | None]:
    """Closed-loop blocks until ``seconds`` of them ran, the host's
    speed timed between blocks. Returns the replies (each with its
    block's speed scale), the blocks' normalised time, client-side
    errors, and the daemon's peak resident set once
    ``RSS_AT_REQUESTS`` requests were sent (None if the run sent
    fewer)."""
    replies: list[Reply] = []
    errors: list[str] = []
    spent = elapsed = 0.0
    rss_mib = None
    before = pause_reference_s()
    while spent < seconds:
        sent = len(replies) + len(errors)
        block, took, more = closed_loop(
            daemon, stream, min(BLOCK_S, seconds - spent), trace,
            limit=None if rss_mib is not None else RSS_AT_REQUESTS - sent)
        if rss_mib is None and sent + len(block) + len(more) \
                >= RSS_AT_REQUESTS:
            rss_mib = daemon.peak_rss_mib()
        after = pause_reference_s()
        scale = speed_scale((before + after) / 2)
        for reply in block:
            reply.scale = scale
        replies += block
        errors += more
        spent += took
        elapsed += took * scale
        before = after
    return replies, elapsed, errors, rss_mib


def check_replies(replies: list[Reply], stream) -> tuple[int, list[str]]:
    """served == direct for every distinct key; returns the number of
    replies that disagree and the first few differences."""
    import oracle
    from repro.graph.builder import Granularity
    from repro.sim.estimator import VTrain

    simulators: dict = {}
    expected: dict[int, object] = {}
    failed, problems = 0, []
    for reply in replies:
        if reply.key_id not in expected:
            key = stream.keys[reply.key_id]
            system = key.description.system
            vtrain = simulators.get(system)
            if vtrain is None:
                vtrain = simulators[system] = VTrain(
                    system, granularity=Granularity.OPERATOR)
            expected[reply.key_id] = oracle.served_expectation(vtrain, key)
        found = oracle.check_served(reply.answer, expected[reply.key_id])
        if found:
            failed += 1
            problems.extend(f"key {reply.key_id}: {item}" for item in found)
    return failed, problems[:20]


def bytes_per_task_mib(stream) -> float:
    """MiB per cached task, estimated on the first warm-up structure
    rebuilt in this process (the daemon reports only its task count)."""
    from layers import structure_mib
    from repro.graph.builder import Granularity
    from repro.sim.estimator import VTrain

    key = stream.warmup[0]
    description = key.description
    prepared = VTrain(description.system,
                      granularity=Granularity.OPERATOR).prepare(
        description.model, description.plan, description.training)
    return structure_mib([prepared.structure]) / prepared.structure.num_tasks


def daemon_stats(daemon: Daemon) -> tuple[dict, dict]:
    """The daemon's serving stats and metrics snapshot, read over a
    connection opened only while the clients are idle."""
    with daemon.connect() as client:
        return client.stats(), client.metrics()["snapshot"]


def _span_ms(reply: Reply, name: str) -> float | None:
    for span in reply.spans:
        if span.get("name") == name:
            return span["duration_s"] * 1e3
    return None


def serve_layers(replies: list[Reply], before: tuple[dict, dict],
                 after: tuple[dict, dict],
                 mib_per_task: float) -> dict[str, float]:
    """Per-layer metrics of the traced phase (per request), from the
    wire spans the daemon returned for its traced half, the deltas of
    its :func:`daemon_stats` across the phase, and the client's round
    trips of the untraced half."""
    from layers import zero_layers

    (before, snap_before), (after, snap_after) = before, after

    def delta(path: tuple) -> float:
        a, b = before, after
        for part in path:
            a, b = a[part], b[part]
        return float(b - a)

    def hist(name: str, field_name: str) -> float:
        b = snap_after["histograms"].get(name, {}).get(field_name, 0.0)
        a = snap_before["histograms"].get(name, {}).get(field_name, 0.0)
        return float(b - a)

    layers = zero_layers()
    requests = max(len(replies), 1)
    traced = [reply for reply in replies if reply.traced]
    untraced = [reply for reply in replies if not reply.traced]
    rtts = [reply.rtt_s * 1e3 for reply in untraced]
    framing, queued, executed = [], [], []
    for reply in traced:
        server = _span_ms(reply, "serve.predict")
        if server is not None:
            framing.append(reply.rtt_s * 1e3 - server)
        for name, bucket in (("serve.batch.queued", queued),
                             ("serve.batch.execute", executed)):
            value = _span_ms(reply, name)
            if value is not None:
                bucket.append(value)
    predicts = max(delta(("requests", "predict")), 1.0)
    flushes = delta(("batch", "flushes"))
    hits = delta(("structure_cache", "hits"))
    misses = delta(("structure_cache", "misses"))
    builds = hist("sim.structure_build_s", "count")
    built_s = hist("sim.structure_build_s", "sum")
    layers.update({
        "serve.client_rtt_p50_ms": percentile(rtts, 0.50),
        "serve.client_rtt_p99_ms": percentile(rtts, 0.99),
        "serve.framing_ms": percentile(framing, 0.50) if framing else 0.0,
        "serve.queue_wait_ms": sum(queued) / len(queued) if queued else 0.0,
        "serve.batch_execute_ms": (sum(executed) / len(executed)
                                   if executed else 0.0),
        "serve.batch_size_mean": (delta(("batch", "jobs")) / flushes
                                  if flushes else 0.0),
        "serve.dedup_coalesced_ratio":
            delta(("dedup", "coalesced")) / predicts,
        "serve.cache_served_ratio":
            delta(("dedup", "cache_served")) / predicts,
        "serve.prediction_cache_entries":
            float(after["prediction_cache"]["entries"]),
        "graph.structure_build_s": built_s / requests,
        "graph.structure_builds": builds / requests,
        "graph.structure_cache_hit_ratio": (hits / (hits + misses)
                                            if hits + misses else 0.0),
        "graph.structure_cache_evictions":
            delta(("structure_cache", "evictions")) / requests,
        "graph.structure_cache_mib":
            after["structure_cache"]["cached_tasks"] * mib_per_task,
        "graph.builder_init_s": hist("sim.builder_init_s", "sum") / requests,
        "graph.builder_init_calls":
            hist("sim.builder_init_s", "count") / requests,
        "graph.duration_fill_s":
            hist("sim.duration_fill_s", "sum") / requests,
        "sim.replay_s": hist("sim.replay_s", "sum") / requests,
        "sim.replay_calls": hist("sim.replay_s", "count") / requests,
        "sim.batch_columns_mean": (hist("sim.batch_columns", "sum")
                                   / hist("sim.batch_columns", "count")
                                   if hist("sim.batch_columns", "count")
                                   else 0.0),
    })
    untraced_p50 = percentile([reply.rtt_s for reply in untraced], 0.50)
    traced_p50 = percentile([reply.rtt_s for reply in traced], 0.50)
    layers["obs.tracing_overhead_ratio"] = traced_p50 / untraced_p50
    return layers
