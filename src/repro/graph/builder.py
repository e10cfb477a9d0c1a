"""Operator-granularity execution-graph construction (Figure 4, step 2).

The builder turns an input description into the task DAG of one training
iteration, inserting every communication operator the 3D-parallel plan
requires:

* tensor-parallel All-Reduces after each MHA and FFN block, forward and
  backward, sequentially dependent on their block (Figure 6);
* data-parallel gradient-bucket All-Reduces on the communication stream,
  overlapping backward compute (Figure 5a) — or one terminal All-Reduce
  when bucketing is off (Figure 5b);
* pipeline Send-Receives at stage boundaries, GPipe-, 1F1B-, or
  interleaved-ordered (Figure 7) with both intra-GPU issue order and
  cross-GPU micro-batch dependencies enforced (Figure 8). Interleaved
  plans (``virtual_stages > 1``) additionally emit the wrap-around
  Send-Receives that carry chunk ``c`` output from the last stage back
  to chunk ``c+1`` on the first stage.

**Symmetry reduction.** Tensor-parallel ranks within a stage execute
identical kernel streams, and data-parallel replicas are symmetric, so
the builder materialises one pipeline of ``p`` logical devices; TP
All-Reduces appear as inline comm tasks and DP All-Reduces as comm-stream
tasks. This is the paper's necessary-operator observation applied to the
graph itself; per-GPU behaviour is preserved exactly.

The same reduction extends to layers and micro-batches. Every layer of
a chunk emits the same operator pattern, and every scheduled chunk with
the same (stage, model chunk, phase, last-backward micro-batch) key
emits the same tasks. The builder therefore *stamps* the graph
(:meth:`GraphBuilder.emit`): it records each distinct chunk template
once — timing slots and label suffixes, plus the offsets of the tasks
gradient buckets anchor on — and tiles it to all of its chunks with
NumPy index arithmetic. Only the edges between chunks (P2P
Send-Receives, wrap-around hops, bucket All-Reduces, weight updates)
are computed per chunk or per stage. No Python object is allocated per
task: a task is a row of NumPy columns (device, slot, CSR children), and
its kind, stream and payload follow from its timing slot, its label
from its chunk prefix and template suffix (built only when read). The
emission order, and so every task id, edge and replay result, is that
of a per-task emitter walking the same loops.

**Granularities.** ``KERNEL`` emits one task per CUDA kernel (the paper's
task-granularity graph, Figure 4 step 4); ``OPERATOR`` emits one task per
layer-node with duration equal to the sum of its kernels (exact, because
kernels run back-to-back on one stream); ``STAGE`` collapses each
(stage, micro-batch, phase) chunk into a single task for fast DSE sweeps,
splitting only the last backward chunk per bucket so gradient-bucket
overlap stays modelled.
"""

from __future__ import annotations

import enum
import operator
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, fields
from functools import partial
from typing import Any, Callable, Iterable

import numpy as np

from repro import obs
from repro.config.model import ModelConfig
from repro.config.parallelism import (ParallelismConfig, TrainingConfig,
                                      layers_per_stage, num_micro_batches,
                                      validate_plan)
from repro.config.system import SystemConfig
from repro.errors import ConfigError
from repro.graph.operators import (CompOperator, OpKind,
                                   data_allreduce, pipeline_send_recv,
                                   tensor_allreduce)
from repro.graph.pipeline import (last_backward_micro_batch,
                                  schedule_columns)
from repro.graph.structure import (COMM_STREAM, COMPUTE_STREAM,
                                   FlatAssembler, GraphStructure,
                                   KIND_COMPUTE, KIND_DP_COMM, KIND_PP_COMM,
                                   KIND_TP_COMM, KIND_WEIGHT_UPDATE,
                                   TaskColumns, compile_columns)
from repro.hardware.cluster import ClusterTopology
from repro.profiling.lookup import OperatorToTaskTable
from repro.profiling.nccl import NcclModel
from repro.workload import DECODE, INFERENCE_PHASES, InferenceWorkload, PREFILL

FP16 = 2.0


class Granularity(enum.Enum):
    """Level of detail of the emitted execution graph."""

    KERNEL = "kernel"
    OPERATOR = "operator"
    STAGE = "stage"


# ---------------------------------------------------------------------------
# Process-wide structure cache
# ---------------------------------------------------------------------------
# Compiled GraphStructures keyed by their structural fingerprint
# (GraphBuilder.structure_key). Two plans that differ only in profiled
# durations — micro-batch *size* at the same micro-batch count, a
# different tensor degree with tensor parallelism still on, a perturbed
# device or NCCL model, or simply a repeated VTrain.predict of the same
# plan — share one compiled topology and only refill the duration
# vector. The cache is per-process by design (the workers of a pooled
# sweep each warm their own), LRU-evicted against a total-task budget.
#
# All cache operations hold _STRUCTURE_CACHE_LOCK: the `repro serve`
# daemon retimes one shared cache from many handler threads, and the
# OrderedDict mutations (move_to_end on hit, popitem on eviction) are
# not atomic. The lock is uncontended in single-threaded use — one
# acquire per get/put, no allocation — so the warm fast path stays
# within the committed perf baselines.

_STRUCTURE_CACHE: "OrderedDict[str, GraphStructure]" = OrderedDict()
_STRUCTURE_CACHE_LOCK = threading.RLock()
# Summed num_tasks of the cached structures, kept in step with every
# insert and removal so no call re-sums the entries.
_cached_tasks = 0

# Hit/miss/eviction accounting lives on the process-wide obs registry
# (single source of truth for `repro stats`); structure_cache_stats()
# below remains the stable dict-shaped view callers and tests use.
_CACHE_HITS = obs.metrics.counter("graph.structure_cache.hits")
_CACHE_MISSES = obs.metrics.counter("graph.structure_cache.misses")
_CACHE_EVICTIONS = obs.metrics.counter("graph.structure_cache.evictions")

#: Default cap on the summed task count of cached structures (~200 MB
#: worst case); override with REPRO_STRUCTURE_CACHE_TASKS.
DEFAULT_STRUCTURE_CACHE_TASKS = 1_000_000
STRUCTURE_CACHE_ENV = "REPRO_STRUCTURE_CACHE_TASKS"


def _structure_cache_budget() -> int:
    """The task budget: the environment override, else the default.

    Raises:
        ConfigError: The override is not a non-negative integer.
    """
    raw = os.environ.get(STRUCTURE_CACHE_ENV)
    if raw is None:
        return DEFAULT_STRUCTURE_CACHE_TASKS
    try:
        budget = int(raw)
    except ValueError:
        budget = -1
    if budget < 0:
        raise ConfigError(f"{STRUCTURE_CACHE_ENV} must be a non-negative "
                          f"integer task count, got {raw!r}")
    return budget


def structure_cache_get(key: str) -> GraphStructure | None:
    """Cached structure for ``key`` (counts a hit or a miss)."""
    with _STRUCTURE_CACHE_LOCK:
        structure = _STRUCTURE_CACHE.get(key)
        if structure is None:
            _CACHE_MISSES.increment()
            return None
        _STRUCTURE_CACHE.move_to_end(key)
        _CACHE_HITS.increment()
        return structure


def structure_cache_put(key: str, structure: GraphStructure) -> None:
    """Insert a structure, LRU-evicting down to the task budget."""
    global _cached_tasks
    budget = _structure_cache_budget()
    with _STRUCTURE_CACHE_LOCK:
        replaced = _STRUCTURE_CACHE.pop(key, None)
        if replaced is not None:
            _cached_tasks -= replaced.num_tasks
        _STRUCTURE_CACHE[key] = structure
        _cached_tasks += structure.num_tasks
        while _cached_tasks > budget and len(_STRUCTURE_CACHE) > 1:
            _, evicted = _STRUCTURE_CACHE.popitem(last=False)
            _cached_tasks -= evicted.num_tasks
            _CACHE_EVICTIONS.increment()


def structure_cache_evict(key: str) -> None:
    """Drop one entry (defensive fallback when a refill mismatches)."""
    global _cached_tasks
    with _STRUCTURE_CACHE_LOCK:
        evicted = _STRUCTURE_CACHE.pop(key, None)
        if evicted is not None:
            _cached_tasks -= evicted.num_tasks


def structure_cache_stats() -> dict[str, int]:
    """Hit/miss/eviction/size counters for this process (thin view over
    the ``graph.structure_cache.*`` obs registry counters)."""
    with _STRUCTURE_CACHE_LOCK:
        return {"hits": _CACHE_HITS.value,
                "misses": _CACHE_MISSES.value,
                "evictions": _CACHE_EVICTIONS.value,
                "entries": len(_STRUCTURE_CACHE),
                "cached_tasks": _cached_tasks}


def clear_structure_cache() -> None:
    """Empty the cache and reset its counters (tests, benchmarks)."""
    global _cached_tasks
    with _STRUCTURE_CACHE_LOCK:
        _STRUCTURE_CACHE.clear()
        _cached_tasks = 0
        for counter in (_CACHE_HITS, _CACHE_MISSES, _CACHE_EVICTIONS):
            counter.reset()


# ---------------------------------------------------------------------------
# Timing-state memo
# ---------------------------------------------------------------------------
# A builder's timing state — its operators, communication times, stage
# parameters and timing table — is a pure function of the inputs
# GraphBuilder._timing_key lists. Plans that differ only in what the
# key leaves out (an inference plan's replica count, the node count of
# a plain NcclModel's system) share one state, which every such builder
# copies in instead of recomputing. The memo belongs to the lookup
# table the state was timed against (``OperatorToTaskTable.
# timing_states``), so simulators sharing a table share states and a
# fresh table starts cold. Each memo is LRU-bounded by entry count and
# guarded by its table's lock, like the structure cache above.

#: Timing states kept per lookup table. A sweep meets each state in
#: one run of plans (serving sweeps are ordered so that plans differing
#: only in their replica count are adjacent), so a short LRU keeps
#: every hit; where states never repeat (a training sweep, a daemon
#: answering distinct models) it holds about 0.25 MiB at most.
TIMING_STATE_ENTRIES = 8

_TIMING_HITS = obs.metrics.counter("graph.timing_state.hits")
_TIMING_MISSES = obs.metrics.counter("graph.timing_state.misses")
_TIMING_EVICTIONS = obs.metrics.counter("graph.timing_state.evictions")

#: Every plan field except ``data``: an inference phase's timings do
#: not depend on its replica count.
_REPLICA_FREE_PLAN = operator.attrgetter(
    *(f.name for f in fields(ParallelismConfig) if f.name != "data"))


def _timing_state_get(lookup: OperatorToTaskTable, key: tuple) -> dict | None:
    """The memoised timing state for ``key`` (counts a hit or a miss)."""
    with lookup.timing_states_lock:
        state = lookup.timing_states.get(key)
        if state is None:
            _TIMING_MISSES.increment()
            return None
        lookup.timing_states.move_to_end(key)
        _TIMING_HITS.increment()
        return state


def _timing_state_put(lookup: OperatorToTaskTable, key: tuple,
                      state: dict) -> None:
    """Memoise a timing state, LRU-evicting down to the entry bound."""
    with lookup.timing_states_lock:
        states = lookup.timing_states
        states[key] = state
        while len(states) > TIMING_STATE_ENTRIES:
            states.popitem(last=False)
            _TIMING_EVICTIONS.increment()


def timing_state_stats() -> dict[str, int]:
    """Process-wide hit/miss/eviction counts of the timing-state memos
    (a view over the ``graph.timing_state.*`` obs counters)."""
    return {"hits": _TIMING_HITS.value, "misses": _TIMING_MISSES.value,
            "evictions": _TIMING_EVICTIONS.value}


def structure_fingerprint(model: ModelConfig, plan: ParallelismConfig,
                          training: TrainingConfig,
                          granularity: Granularity, *,
                          workload: InferenceWorkload | None = None,
                          phase: str | None = None) -> str:
    """Fingerprint of everything that shapes a plan's emitted topology.

    Two (model, plan, training, granularity) tuples with equal
    fingerprints produce graphs with identical node sequences, edges,
    devices, streams, labels, and timing slots — only slot *values*
    (durations) may differ. The fingerprint deliberately excludes pure
    timing inputs (hidden size, tensor/data degree magnitudes,
    interconnects, the device model, recompute outside KERNEL
    granularity) so sweeps re-time one compiled structure instead of
    rebuilding:

    * model shape enters as layers-per-stage (the only model property
      emission reads);
    * plan way enters as pipeline depth plus *whether* TP/DP
      collectives exist (their degree only scales durations);
    * micro-batch count and schedule fix the chunk issue order;
    * the gradient-bucket layout fixes DP All-Reduce tasks;
    * granularity fixes the stream layout; KERNEL graphs add the
      recompute mode because it changes the kernel sequence itself.

    Computable without any profiling state, so sweep engines use it to
    group plans for cache affinity before evaluating them.

    Inference phase graphs (``workload``/``phase`` set) append a
    workload tag so a prefill or decode structure is never confused
    with — or silently served for — a training structure, and vice
    versa; training fingerprints omit the tag entirely and stay
    byte-identical to every pre-workload release. For inference,
    ``training`` is the workload's proxy config
    (:meth:`~repro.workload.InferenceWorkload.training_proxy`).
    """
    lps = layers_per_stage(model, plan)
    nmb = num_micro_batches(plan, training)
    if plan.gradient_bucketing:
        buckets = min(plan.num_gradient_buckets, lps)
    else:
        buckets = 1
    base, extra = divmod(lps, buckets)  # mirrors the builder's layout
    sizes = [base + (1 if k < extra else 0) for k in range(buckets)]
    parts = [
        f"g={granularity.value}",
        f"sched={plan.schedule.value}",
        f"p={plan.pipeline}",
        f"lps={lps}",
        f"nmb={nmb}",
        f"tp={int(plan.tensor > 1)}",
        f"dp={int(plan.data > 1)}",
        f"buckets={','.join(str(size) for size in sizes)}",
    ]
    if plan.virtual_stages > 1:
        # Interleaving changes the chunk issue order, the per-chunk
        # layer slices, and adds wrap-around P2P tasks; a v=1 structure
        # silently reused for v>1 (or vice versa) would be wrong. The
        # part is omitted at v=1 so pre-interleaving fingerprints are
        # byte-identical.
        parts.append(f"v={plan.virtual_stages}")
    if granularity is Granularity.KERNEL:
        # Kernel graphs bake shape into the structure itself: the
        # recompute mode changes the kernel sequence, and kernel task
        # labels carry names derived from the sharded GEMM shapes.
        parts.append(f"rc={plan.recompute.value}")
        parts.append(f"shape={model.hidden_size}x{model.num_heads}"
                     f"x{model.seq_length}"
                     f"x{model.padded_vocab_size(plan.tensor)}")
        parts.append(f"mbs={plan.micro_batch_size}")
        parts.append(f"t={plan.tensor}")
    if phase is not None:
        if workload is None or phase not in INFERENCE_PHASES:
            raise ConfigError(
                f"inference fingerprint needs a workload and a phase in "
                f"{INFERENCE_PHASES}, got workload={workload!r} "
                f"phase={phase!r}")
        # Inference phase graphs carry their own sequence shape (the
        # prompt length for prefill, one token + KV depth for decode)
        # rather than the model's training seq_length, so the phase,
        # the per-phase sequence length, and the decode KV depth all
        # enter the fingerprint. Conservative on purpose: two decode
        # graphs differing only in KV depth share topology, but their
        # kernel labels differ, so they are cached separately.
        parts.append("wl=inference")
        parts.append(f"ph={phase}")
        if phase == PREFILL:
            parts.append(f"seq={workload.prompt_len}")
        else:
            parts.append(f"seq=1;kv={workload.decode_kv_length}")
    return ";".join(parts)


def structure_affinity(model: ModelConfig, plan: ParallelismConfig,
                       training: TrainingConfig,
                       granularity: Granularity) -> str | None:
    """Best-effort :func:`structure_fingerprint` for sweep grouping.

    Returns ``None`` for plans whose fingerprint cannot be computed
    (structurally invalid — they fail fast during evaluation anyway);
    sweep engines sort those last in their original order.
    """
    try:
        return structure_fingerprint(model, plan, training, granularity)
    except (ArithmeticError, ValueError):
        return None


_STREAMS = (COMPUTE_STREAM, COMM_STREAM)


class _SlotTable:
    """Timing slots of one stamp, numbered in registration order, with
    each slot's kind, stream and representative payload (every task
    drawing its duration from a slot shares all three)."""

    def __init__(self) -> None:
        self.codes: dict[str, int] = {}
        self.kinds: dict[str, int] = {}
        self.kind: list[int] = []
        self.stream: list[int] = []
        self.payloads: dict[str, Any] = {}

    def __call__(self, key: str, kind: str, stream: str,
                 payload: Any = None) -> int:
        code = self.codes.get(key)
        if code is None:
            code = self.codes[key] = len(self.codes)
            self.kind.append(self.kinds.setdefault(kind, len(self.kinds)))
            self.stream.append(_STREAMS.index(stream))
            self.payloads[key] = payload
        return code


class _Template:
    """One chunk template: slot codes and label suffixes in emission
    order, plus gradient-bucket anchor offsets (last backward only)."""

    def __init__(self) -> None:
        self.slots: list[int] = []
        self.suffixes: list[str] = []
        self.anchors: dict[int, int] = {}

    def add(self, slot: int, suffix: str) -> None:
        self.slots.append(slot)
        self.suffixes.append(suffix)


class _Emission:
    """Accumulates stamped task and edge arrays in emission order.

    Each block of tasks comes with a function producing its labels, so
    a label is built only when a consumer reads it (timelines, traces,
    the testbed, the reference view). Those functions capture per-chunk
    arrays and small ints, never the builder, so a cached structure
    keeps no builder alive.
    """

    def __init__(self) -> None:
        self.num_tasks = 0
        self.devices: list[np.ndarray] = []
        self.slots: list[np.ndarray] = []
        self.labels: list[Callable[[], Iterable[str]]] = []
        self.sources: list[np.ndarray] = []
        self.targets: list[np.ndarray] = []

    def tasks(self, device: np.ndarray, slot: np.ndarray,
              labels: Callable[[], Iterable[str]]) -> np.ndarray:
        """Append tasks (one per element); returns their ids."""
        first = self.num_tasks
        self.num_tasks += device.size
        self.devices.append(device)
        self.slots.append(slot)
        self.labels.append(labels)
        return np.arange(first, self.num_tasks, dtype=np.intp)

    def edges(self, parent: np.ndarray, child: np.ndarray) -> None:
        self.sources.append(parent)
        self.targets.append(child)

    def send_recv(self, device, slot, parent: np.ndarray, child: np.ndarray,
                  labels: Callable[[], Iterable[str]]) -> None:
        """One P2P task per element of ``parent``/``child``, in C order,
        each between its parent and child (``device`` and ``slot``
        broadcast against them)."""
        shape = parent.shape
        tasks = self.tasks(np.broadcast_to(device, shape).ravel(),
                           np.broadcast_to(slot, shape).ravel(), labels)
        self.edges(parent.ravel(), tasks)
        self.edges(tasks, child.ravel())

    def columns(self, table: _SlotTable) -> TaskColumns:
        """The finished columns; children sorted by task id."""
        num_tasks = self.num_tasks
        key = (np.concatenate(self.sources) * num_tasks
               + np.concatenate(self.targets))
        key.sort()
        parent = key // num_tasks
        child_ptr = np.zeros(num_tasks + 1, dtype=np.intp)
        np.cumsum(np.bincount(parent, minlength=num_tasks),
                  out=child_ptr[1:])
        slot = np.concatenate(self.slots)
        return TaskColumns(
            device=np.concatenate(self.devices),
            kind=np.array(table.kind, dtype=np.intp)[slot],
            kinds=tuple(table.kinds),
            stream=np.array(table.stream, dtype=np.intp)[slot],
            streams=_STREAMS, slot=slot, slot_keys=tuple(table.codes),
            child_ptr=child_ptr, child_idx=key - parent * num_tasks,
            duration=None, labels=partial(_joined, tuple(self.labels)),
            slot_payloads=table.payloads)


def _joined(blocks: tuple[Callable[[], Iterable[str]], ...]) -> list[str]:
    """Labels of every emitted block, in emission order."""
    return [label for block in blocks for label in block()]


def _chunk_labels(units: tuple[np.ndarray, ...], suffixes: list[list[str]],
                  interleaved: bool) -> list[str]:
    """Chunk prefix + template suffix for every placed chunk's tasks;
    ``units`` holds the (stage, chunk, micro-batch, backward, template)
    column of each chunk. Non-interleaved prefixes carry no chunk."""
    labels: list[str] = []
    extend = labels.extend
    for stage, chunk, mb, backward, template in zip(
            *(column.tolist() for column in units)):
        phase = "B" if backward else "F"
        prefix = (f"s{stage}/c{chunk}/{phase}{mb}" if interleaved
                  else f"s{stage}/{phase}{mb}")
        extend([prefix + suffix for suffix in suffixes[template]])
    return labels


@dataclass
class _Chunks:
    """Where :meth:`GraphBuilder._stamp_chunks` placed the chunks.

    ``f_entry``/``f_exit``/``b_entry``/``b_exit`` map (stage, chunk,
    micro-batch) to a forward or backward chunk's first and last task;
    ``stage_tail`` is each stage's last compute-stream task.
    """

    templates: list[_Template]
    template_of: np.ndarray
    last_b: int
    stage_tail: np.ndarray
    f_entry: np.ndarray
    f_exit: np.ndarray
    b_entry: np.ndarray
    b_exit: np.ndarray


class GraphBuilder:
    """Builds one workload step's execution graph.

    The default (no ``workload``/``phase``) emits the classic training
    iteration — forward, backward, gradient sync, weight update — and
    is bit-identical to the pre-workload builder. With an
    :class:`~repro.workload.InferenceWorkload` and a phase tag the same
    phase-composition machinery emits a serving phase graph instead:

    * ``PREFILL`` — the pipelined full-prompt forward pass (no
      backward, optimizer, or gradient-bucket tasks), reusing the exact
      forward-chunk emission of training, so a prefill graph is the
      forward-only subgraph of the matching training graph;
    * ``DECODE`` — one single-token forward step whose attention
      operators are scaled by the accumulated KV-cache length.

    Both phases reuse the TP All-Reduce and PP Send-Receive timing from
    the network layer, sized to the phase's sequence length.
    """

    def __init__(self, model: ModelConfig, system: SystemConfig,
                 plan: ParallelismConfig, training: TrainingConfig | None,
                 lookup: OperatorToTaskTable, nccl: NcclModel,
                 granularity: Granularity = Granularity.OPERATOR, *,
                 workload: InferenceWorkload | None = None,
                 phase: str | None = None) -> None:
        if (workload is None) != (phase is None):
            raise ConfigError(
                "workload and phase must be given together")
        if workload is not None:
            if phase not in INFERENCE_PHASES:
                raise ConfigError(
                    f"phase must be one of {INFERENCE_PHASES}, "
                    f"got {phase!r}")
            if plan.virtual_stages > 1:
                raise ConfigError(
                    "inference graphs do not support virtual pipeline "
                    "stages (interleaving is a training-schedule "
                    "optimisation)")
            if training is None:
                training = workload.training_proxy(plan.data)
        elif training is None:
            raise ConfigError("training config required for the "
                              "training workload")
        validate_plan(model, plan, training, plan.total_gpus)
        if plan.total_gpus > system.num_gpus:
            raise ConfigError(
                f"plan needs {plan.total_gpus} GPUs, system has "
                f"{system.num_gpus}")
        self.model = model
        self.system = system
        self.plan = plan
        self.training = training
        self.lookup = lookup
        self.nccl = nccl
        self.granularity = granularity
        self.workload = workload
        self.phase = phase
        # Phase shape: training and prefill run full sequences (the
        # model's seq_length / the workload's prompt length); decode
        # runs one token per sequence over the accumulated KV cache.
        if workload is None:
            self._seq = model.seq_length
            self._kv = 0
            self._compute_kind = KIND_COMPUTE
        elif phase == PREFILL:
            self._seq = workload.prompt_len
            self._kv = 0
            self._compute_kind = PREFILL
        else:
            self._seq = 1
            self._kv = workload.decode_kv_length
            self._compute_kind = DECODE

        self.topology = ClusterTopology(system, plan)
        self.nmb = num_micro_batches(plan, training)
        self.lps = layers_per_stage(model, plan)
        # Virtual pipelining: v model chunks of lpc layers per stage
        # (v == 1 means one chunk covering the whole stage).
        self.v = plan.virtual_stages
        self.lpc = self.lps // self.v
        self.vocab = model.padded_vocab_size(plan.tensor)
        key = self._timing_key()
        state = _timing_state_get(lookup, key)
        if state is None:
            before = set(vars(self))
            self._init_operators()
            self._init_comm_times()
            self._init_stage_params()
            self._init_timings()
            state = {name: value for name, value in vars(self).items()
                     if name not in before}
            _timing_state_put(lookup, key, state)
        else:
            # Shared with every builder of this key; never mutated.
            vars(self).update(state)

    def _timing_key(self) -> tuple:
        """Every input the ``_init_*`` methods read, beyond the lookup
        table the state is memoised on.

        Training keys on the whole plan and training config; an
        inference phase on the plan without its replica count, plus the
        workload and phase. The links are the topology's answers rather
        than the system, so systems that place a plan's groups alike
        share a key; the NCCL model adds what its times depend on
        (:meth:`~repro.profiling.nccl.NcclModel.timing_key`).
        """
        topology = self.topology
        links = (topology.tensor_link(), tuple(topology.pipeline_hop_links()),
                 topology.pipeline_wrap_link() if self.v > 1 else None)
        if self.phase is None:
            shape = (self.plan, self.training, topology.data_link(),
                     topology.concurrent_data_groups_per_node())
        else:
            shape = (_REPLICA_FREE_PLAN(self.plan), self.workload, self.phase)
        return (self.model, self.granularity, shape, links,
                self.nccl.timing_key())

    # ------------------------------------------------------------------
    # Precomputation
    # ------------------------------------------------------------------
    def _init_operators(self) -> None:
        """Instantiate the necessary operators (one per signature).

        Operators take the *phase* sequence length (== the model's
        seq_length for training), and the forward MHA carries the
        phase's KV depth; backward operators exist only for the
        training workload.
        """
        model, plan = self.model, self.plan
        common = dict(micro_batch=plan.micro_batch_size,
                      seq_length=self._seq,
                      hidden_size=model.hidden_size,
                      num_heads=model.num_heads,
                      tensor_parallel=plan.tensor)
        self.op_fwd_mha = CompOperator(OpKind.FWD_MHA, kv_length=self._kv,
                                       **common)
        self.op_fwd_ffn = CompOperator(OpKind.FWD_FFN, **common)
        self.op_fwd_embed = CompOperator(OpKind.FWD_EMBEDDING,
                                         vocab_size=self.vocab, **common)
        self.op_fwd_head = CompOperator(OpKind.FWD_LM_HEAD,
                                        vocab_size=self.vocab, **common)
        if self.phase is not None:
            self.op_bwd_mha = None
            self.op_bwd_ffn = None
            self.op_bwd_embed = None
            self.op_bwd_head = None
            return
        self.op_bwd_mha = CompOperator(OpKind.BWD_MHA, recompute=plan.recompute,
                                       **common)
        self.op_bwd_ffn = CompOperator(OpKind.BWD_FFN, recompute=plan.recompute,
                                       **common)
        self.op_bwd_embed = CompOperator(OpKind.BWD_EMBEDDING,
                                         vocab_size=self.vocab, **common)
        self.op_bwd_head = CompOperator(OpKind.BWD_LM_HEAD,
                                        vocab_size=self.vocab, **common)

    def _init_comm_times(self) -> None:
        """Pre-time every communication operator the graph will use."""
        model, plan = self.model, self.plan
        b, s, h = plan.micro_batch_size, self._seq, model.hidden_size
        if plan.tensor > 1:
            link = self.topology.tensor_link()
            self.tp_ar = tensor_allreduce(b, s, h, plan.tensor, link)
            self.tp_ar_time = self.nccl.time(self.tp_ar)
        else:
            self.tp_ar = None
            self.tp_ar_time = 0.0
        hops = self.topology.pipeline_hop_links()
        wrap = [self.topology.pipeline_wrap_link()] if self.v > 1 else []
        # A Send-Receive's time depends only on its link, so each
        # distinct link is timed once for every hop using it.
        link_time = {link: self.nccl.time(pipeline_send_recv(b, s, h, link))
                     for link in dict.fromkeys(hops + wrap)}
        self.send_time = [link_time[link] for link in hops]
        self.wrap_time = link_time[wrap[0]] if wrap else 0.0

    def _init_stage_params(self) -> None:
        """Per-stage parameter counts per GPU and gradient buckets."""
        model, plan = self.model, self.plan
        per_layer = model.params_per_layer() // plan.tensor
        embed = model.embedding_params() // plan.tensor
        final_norm = 2 * model.hidden_size
        self.stage_params: list[int] = []
        for stage in range(plan.pipeline):
            params = self.lps * per_layer
            if stage == 0:
                params += embed
            if stage == plan.pipeline - 1:
                params += final_norm
            self.stage_params.append(params)

        if plan.gradient_bucketing:
            buckets = min(plan.num_gradient_buckets, self.lps)
        else:
            buckets = 1
        # Contiguous layer partition: bucket k covers layers
        # [k*chunk, ...); the deepest bucket's gradients complete first.
        base, extra = divmod(self.lps, buckets)
        self.bucket_layers: list[list[int]] = []
        cursor = 0
        for k in range(buckets):
            width = base + (1 if k < extra else 0)
            self.bucket_layers.append(list(range(cursor, cursor + width)))
            cursor += width

    def _bucket_bytes(self, stage: int, bucket: int) -> float:
        """FP16 gradient payload of one bucket on one stage."""
        model, plan = self.model, self.plan
        per_layer = model.params_per_layer() // plan.tensor
        params = len(self.bucket_layers[bucket]) * per_layer
        if stage == 0 and 0 in self.bucket_layers[bucket]:
            params += model.embedding_params() // plan.tensor
        if stage == plan.pipeline - 1 and bucket == len(self.bucket_layers) - 1:
            params += 2 * model.hidden_size
        return FP16 * params

    def _init_timings(self) -> None:
        """Build the timing table: slot key -> duration in seconds.

        Every task the builder emits draws its duration from exactly one
        slot here, and carries that slot in its columns; a compiled
        :class:`GraphStructure` can therefore be *re-timed* — its
        duration vector refilled from a fresh builder's table — without
        re-running graph construction. A compiled structure's baseline
        durations are this table broadcast through the slots too.
        """
        plan = self.plan
        timings: dict[str, float] = {}
        if self.phase is None:
            ops = self._comp_ops = (
                self.op_fwd_embed, self.op_fwd_mha, self.op_fwd_ffn,
                self.op_fwd_head, self.op_bwd_head, self.op_bwd_ffn,
                self.op_bwd_mha, self.op_bwd_embed)
        else:
            # Inference phases are forward-only: no backward, optimizer,
            # or gradient-sync slots exist in the table at all.
            ops = self._comp_ops = (
                self.op_fwd_embed, self.op_fwd_mha, self.op_fwd_ffn,
                self.op_fwd_head)
        # One table lookup per operator; the STAGE chunk durations
        # below read these instead of asking the table again.
        self._op_time = {op.kind: self.lookup.duration_of(op) for op in ops}
        for op in ops:
            timings[f"op:{op.kind.value}"] = self._op_time[op.kind]
        if self.granularity is Granularity.KERNEL:
            for op in ops:
                for index, kernel in enumerate(self.lookup.tasks_for(op)):
                    timings[f"k:{op.kind.value}:{index}"] = kernel.duration
        timings["tp_ar"] = self.tp_ar_time
        for boundary, seconds in enumerate(self.send_time):
            timings[f"pp:{boundary}"] = seconds
        if self.v > 1:
            timings["pp:wrap"] = self.wrap_time

        self._dp_comms: dict[tuple[int, int], object] = {}
        if plan.data > 1 and self.phase is None:
            dp_link = self.topology.data_link()
            dp_concurrency = self.topology.concurrent_data_groups_per_node()
            for stage in range(plan.pipeline):
                for bucket in range(len(self.bucket_layers)):
                    comm = data_allreduce(
                        self._bucket_bytes(stage, bucket), plan.data, dp_link,
                        concurrent_groups=dp_concurrency)
                    self._dp_comms[(stage, bucket)] = comm
                    timings[f"dp:{stage}:{bucket}"] = self.nccl.time(comm)

        self._wu_ops: dict[int, CompOperator] = {}
        if self.phase is None:
            for stage in range(plan.pipeline):
                wu_op = CompOperator(OpKind.WEIGHT_UPDATE,
                                     num_params=self.stage_params[stage])
                self._wu_ops[stage] = wu_op
                timings[f"wu:{stage}"] = self.lookup.duration_of(wu_op)

        if self.granularity is Granularity.STAGE:
            for stage in range(plan.pipeline):
                for chunk in range(self.v):
                    timings[self._slot("sf", stage, chunk)] = \
                        self._forward_stage_duration(stage, chunk)
                    if self.phase is None:
                        timings[self._slot("sb", stage, chunk)] = \
                            self._backward_stage_duration(stage, chunk)
            if self.phase is None:
                layer_dur = self._backward_layer_duration()
                for stage in range(plan.pipeline):
                    for chunk in range(self.v):
                        for seg_index, (bucket, width) in enumerate(
                                self._bucket_segments(chunk)):
                            duration = width * layer_dur
                            if (seg_index == 0 and stage == plan.pipeline - 1
                                    and chunk == self.v - 1):
                                duration += self._op_time[OpKind.BWD_LM_HEAD]
                            if bucket == 0 and stage == 0 and chunk == 0:
                                duration += self._op_time[OpKind.BWD_EMBEDDING]
                            timings[self._slot("sbl", stage, chunk,
                                               bucket)] = duration
        self.timings = timings

    def _slot(self, tag: str, stage: int, chunk: int,
              bucket: int | None = None) -> str:
        """Stage-granularity slot key; ``v == 1`` keys omit the chunk so
        pre-interleaving structures and caches keep their exact keys."""
        parts = [tag, str(stage)]
        if self.v > 1:
            parts.append(str(chunk))
        if bucket is not None:
            parts.append(str(bucket))
        return ":".join(parts)

    def _bucket_segments(self, chunk: int) -> list[tuple[int, int]]:
        """``(bucket, layer-count)`` segments of one chunk's final
        backward, deepest layers first (the order backward visits them).

        Gradient buckets partition a stage's *local* layer range; under
        virtual pipelining a bucket can span chunk boundaries, so each
        chunk's last-micro-batch backward is split at the bucket
        intersections that fall inside its layer slice. With ``v == 1``
        the single chunk yields every bucket at full width — the
        pre-interleaving layout.
        """
        lo, hi = chunk * self.lpc, (chunk + 1) * self.lpc
        segments: list[tuple[int, int]] = []
        for bucket in reversed(range(len(self.bucket_layers))):
            width = sum(1 for layer in self.bucket_layers[bucket]
                        if lo <= layer < hi)
            if width:
                segments.append((bucket, width))
        return segments

    # ------------------------------------------------------------------
    # Structure fingerprint and metadata
    # ------------------------------------------------------------------
    @property
    def structure_key(self) -> str:
        """This builder's :func:`structure_fingerprint` (see there for
        exactly what the fingerprint covers and excludes)."""
        return structure_fingerprint(self.model, self.plan, self.training,
                                     self.granularity,
                                     workload=self.workload,
                                     phase=self.phase)

    def graph_metadata(self) -> dict:
        """The metadata dict a freshly built graph would carry."""
        metadata = {
            "plan": self.plan,
            "model": self.model.name or self.model.describe(),
            "granularity": self.granularity.value,
            "num_micro_batches": self.nmb,
            "layers_per_stage": self.lps,
            "schedule": self.plan.schedule.value,
            "virtual_stages": self.v,
        }
        if self.phase is not None:
            metadata["workload"] = "inference"
            metadata["phase"] = self.phase
        return metadata

    def slot_kernel_counts(self) -> dict[str, int]:
        """Kernel count behind each timing slot, for *this* builder's
        operators (launch-overhead accounting in the testbed emulator).

        Slots absent from the map (comm tasks, per-kernel tasks,
        stage-granularity chunks) execute one kernel launch. Keyed by
        slot so consumers resolve counts against the plan actually being
        measured — never against the representative payloads a cached
        structure captured from a different build.
        """
        counts: dict[str, int] = {}
        if self.granularity is Granularity.OPERATOR:
            for op in self._comp_ops:
                counts[f"op:{op.kind.value}"] = len(self.lookup.tasks_for(op))
        for stage, wu_op in self._wu_ops.items():
            counts[f"wu:{stage}"] = len(self.lookup.tasks_for(wu_op))
        return counts

    def fill_durations(self, structure: GraphStructure) -> np.ndarray:
        """Duration vector for ``structure`` under this builder's timings.

        The retime-without-rebuild fast path: broadcast this builder's
        timing table through the structure's per-task slot indices. The
        structure must have been compiled from a builder with an equal
        :attr:`structure_key` (a missing slot raises SimulationError —
        callers fall back to a full rebuild).
        """
        return structure.retime(self.timings)

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    def assemble(self) -> FlatAssembler:
        """The iteration's tasks as an uncompiled :class:`FlatAssembler`
        (the reference engine's input): a list view of the same stamped
        columns :meth:`compile` compiles."""
        return FlatAssembler.from_columns(self.emit(), self.timings)

    def compile(self) -> GraphStructure:
        """Stamp the iteration and compile its replay structure.

        The compiled structure carries timing-slot keys, so it can later
        be re-timed by any builder with the same :attr:`structure_key`;
        its baseline durations are this builder's timings broadcast
        through those slots.
        """
        return compile_columns(self.emit(), self.plan.pipeline,
                               self.graph_metadata(), self.timings)

    def emit(self) -> TaskColumns:
        """Stamp the iteration's tasks as emission-order columns.

        Each distinct chunk template — keyed by (stage, model chunk,
        phase, last-backward micro-batch) — is emitted once; every
        scheduled chunk's tasks are that template's columns placed at
        the chunk's base task id, the running sum of the chunk lengths
        over the schedule. Every compute-stream task of a stage follows
        the previous one on the stream, so the chunk-internal edges and
        the chunk-to-chunk stream edges are one chain per stage. The
        edges between chunks — P2P Send-Receives, wrap-around hops,
        bucket All-Reduces and weight updates — are added per chunk or
        per stage. Children are listed in ascending task id: the exact
        edge order of the per-task emitter this stamp replaced, so
        digests, replay order and predictions are unchanged.
        """
        table = _SlotTable()
        out = _Emission()
        chunks = self._stamp_chunks(table, out)
        self._stamp_pipeline_comm(table, out, chunks)
        if self.phase is None:
            self._stamp_gradient_sync(table, out, chunks)
        return out.columns(table)

    def _stamp_chunks(self, table: _SlotTable, out: _Emission) -> _Chunks:
        """Place every scheduled chunk: stage-major, each stage in its
        issue order, all compute-stream tasks of a stage chained."""
        plan = self.plan
        p, v, nmb = plan.pipeline, self.v, self.nmb
        if self.phase is None:
            last_b = last_backward_micro_batch(plan.schedule, nmb)
            orders = [schedule_columns(plan.schedule, stage, p, nmb,
                                       virtual_stages=v)
                      for stage in range(p)]
        else:
            # Inference: each stage issues its micro-batches' forwards
            # in ascending order (the forward sub-order of every
            # schedule).
            last_b = -1
            forwards = np.arange(nmb, dtype=np.intp)
            orders = [(np.zeros(nmb, dtype=bool), forwards,
                       np.zeros_like(forwards))] * p
        backward, micro_batch, chunk = (
            np.concatenate(column) for column in zip(*orders))
        per_stage = [len(order[0]) for order in orders]
        stage = np.repeat(np.arange(p, dtype=np.intp), per_stage)

        # Template key (stage, chunk, phase); phase 0 is a forward, 1 a
        # backward, 2 the last-synchronising micro-batch's backward.
        phase = backward.astype(np.intp) + (backward & (micro_batch == last_b))
        unit_key = (stage * v + chunk) * 3 + phase
        keys = np.flatnonzero(np.bincount(unit_key, minlength=p * v * 3))
        template_of = np.full(p * v * 3, -1, dtype=np.intp)
        template_of[keys] = np.arange(keys.size, dtype=np.intp)
        templates = []
        for key in keys.tolist():
            stage_chunk, kind = divmod(key, 3)
            templates.append(self._template(table, *divmod(stage_chunk, v),
                                            backward=kind > 0,
                                            last=kind == 2))

        # Tile every template to its chunks in one broadcast.
        unit_template = template_of[unit_key]
        template_len = np.array([len(t.slots) for t in templates],
                                dtype=np.intp)
        template_start = np.zeros(len(templates), dtype=np.intp)
        np.cumsum(template_len[:-1], out=template_start[1:])
        unit_len = template_len[unit_template]
        entry = np.zeros(unit_len.size, dtype=np.intp)
        np.cumsum(unit_len[:-1], out=entry[1:])
        exit_ = entry + unit_len - 1
        owner = np.repeat(np.arange(unit_len.size, dtype=np.intp), unit_len)
        template_slots = np.fromiter(
            (slot for template in templates for slot in template.slots),
            dtype=np.intp, count=int(template_len.sum()))
        offset = np.arange(owner.size, dtype=np.intp) - entry[owner]
        device = stage[owner]
        units = (stage, chunk, micro_batch, backward, unit_template)
        out.tasks(device,
                  template_slots[template_start[unit_template][owner]
                                 + offset],
                  partial(_chunk_labels, units,
                          [template.suffixes for template in templates],
                          v > 1))
        # One compute-stream chain per stage (stages are contiguous).
        chained = np.flatnonzero(device[1:] == device[:-1])
        out.edges(chained, chained + 1)

        # Entry/exit task of every chunk, by (stage, chunk, micro-batch).
        grid = (stage, chunk, micro_batch)
        ends = {}
        for name, values, mask in (("f_entry", entry, ~backward),
                                   ("f_exit", exit_, ~backward),
                                   ("b_entry", entry, backward),
                                   ("b_exit", exit_, backward)):
            ends[name] = np.zeros((p, v, nmb), dtype=np.intp)
            ends[name][tuple(axis[mask] for axis in grid)] = values[mask]
        stage_tail = exit_[np.cumsum(per_stage) - 1]
        return _Chunks(templates=templates, template_of=template_of,
                       last_b=last_b, stage_tail=stage_tail, **ends)

    def _stamp_pipeline_comm(self, table: _SlotTable, out: _Emission,
                             chunks: _Chunks) -> None:
        """Send-Receive tasks at every stage boundary (Figure 6).

        Emission order is (boundary, micro-batch, chunk), the forward
        send before the backward receive. Interleaved plans carry every
        chunk across each boundary, plus the wrap-around hops: forward
        output of chunk ``c`` on the last stage feeds chunk ``c+1`` on
        stage 0, and chunk ``c+1``'s gradient on stage 0 feeds chunk
        ``c``'s backward on the last stage, in (chunk, micro-batch)
        order. Inference phases send the forward half only.
        """
        p, v, nmb = self.plan.pipeline, self.v, self.nmb
        f_entry, f_exit = chunks.f_entry, chunks.f_exit
        b_entry, b_exit = chunks.b_entry, chunks.b_exit
        boundary = np.arange(p - 1)[:, None, None]
        mb = np.arange(nmb)[None, :, None]
        chunk = np.arange(v)[None, None, :]
        slot = np.array([table(f"pp:{hop}", KIND_PP_COMM, COMM_STREAM)
                         for hop in range(p - 1)], dtype=np.intp)
        training = self.phase is None

        def hop_labels():
            for hop in range(p - 1):
                for micro in range(nmb):
                    for part in range(v):
                        mid = "" if v == 1 else f"/c{part}"
                        yield f"s{hop}->s{hop + 1}{mid}/F{micro}"
                        if training:
                            yield f"s{hop + 1}->s{hop}{mid}/B{micro}"

        if not training:
            out.send_recv(boundary, slot[boundary],
                          f_exit[boundary, chunk, mb],
                          f_entry[boundary + 1, chunk, mb], hop_labels)
            return
        # Trailing axis: forward send, backward receive.
        out.send_recv(
            np.stack(np.broadcast_arrays(boundary, boundary + 1), axis=-1),
            slot[boundary][..., None],
            np.stack([f_exit[boundary, chunk, mb],
                      b_exit[boundary + 1, chunk, mb]], axis=-1),
            np.stack([f_entry[boundary + 1, chunk, mb],
                      b_entry[boundary, chunk, mb]], axis=-1),
            hop_labels)
        if v > 1:
            def wrap_labels():
                for part in range(v - 1):
                    for micro in range(nmb):
                        yield f"s{p - 1}/c{part}->s0/c{part + 1}/F{micro}"
                        yield f"s0/c{part + 1}->s{p - 1}/c{part}/B{micro}"

            chunk = np.arange(v - 1)[:, None]
            mb = np.arange(nmb)[None, :]
            out.send_recv(
                np.array([p - 1, 0]),
                table("pp:wrap", KIND_PP_COMM, COMM_STREAM),
                np.stack([f_exit[p - 1, chunk, mb],
                          b_exit[0, chunk + 1, mb]], axis=-1),
                np.stack([f_entry[0, chunk + 1, mb],
                          b_entry[p - 1, chunk, mb]], axis=-1),
                wrap_labels)

    def _stamp_gradient_sync(self, table: _SlotTable, out: _Emission,
                             chunks: _Chunks) -> None:
        """DP gradient All-Reduces (Figure 5) and weight updates, per
        stage.

        A bucket's All-Reduce depends on the task that retires the
        bucket's gradients in the last micro-batch's backward (its
        template anchor) and on the stage's previous bucket All-Reduce.
        The weight update follows the last All-Reduce, the stage's
        final backward chunk (chunk 0 of the last micro-batch — backward
        walks chunks descending in every schedule), and the stage's
        compute-stream tail.
        """
        plan = self.plan
        last_b = chunks.last_b
        device: list[int] = []
        slot: list[int] = []
        labels: list[str] = []
        source: list[int] = []
        target: list[int] = []
        task = out.num_tasks
        for stage in range(plan.pipeline):
            wu_parents = {int(chunks.b_exit[stage, 0, last_b]),
                          int(chunks.stage_tail[stage])}
            if plan.data > 1:
                previous = None
                for bucket in reversed(range(len(self.bucket_layers))):
                    chunk = min(self.bucket_layers[bucket]) // self.lpc
                    template = chunks.templates[chunks.template_of[
                        (stage * self.v + chunk) * 3 + 2]]
                    source.append(int(chunks.b_entry[stage, chunk, last_b])
                                  + template.anchors[bucket])
                    target.append(task)
                    if previous is not None:
                        source.append(previous)
                        target.append(task)
                    device.append(stage)
                    slot.append(table(f"dp:{stage}:{bucket}", KIND_DP_COMM,
                                      COMM_STREAM,
                                      self._dp_comms[(stage, bucket)]))
                    labels.append(f"s{stage}/dp_ar/bucket{bucket}")
                    previous = task
                    task += 1
                wu_parents.add(previous)
            for parent in sorted(wu_parents):
                source.append(parent)
                target.append(task)
            device.append(stage)
            slot.append(table(f"wu:{stage}", KIND_WEIGHT_UPDATE,
                              COMPUTE_STREAM, self._wu_ops[stage]))
            labels.append(f"s{stage}/weight_update")
            task += 1
        out.tasks(np.array(device, dtype=np.intp),
                  np.array(slot, dtype=np.intp), lambda: labels)
        out.edges(np.array(source, dtype=np.intp),
                  np.array(target, dtype=np.intp))

    # ------------------------------------------------------------------
    # Chunk templates
    # ------------------------------------------------------------------
    def _template(self, table: _SlotTable, stage: int, chunk: int, *,
                  backward: bool, last: bool) -> _Template:
        """Tasks of one (stage, chunk, phase, last-backward) chunk, in
        emission order, with label suffixes relative to the chunk prefix.

        ``last`` templates (the last-synchronising micro-batch's
        backward) also record, per gradient bucket whose shallowest
        layer lies in this chunk, the offset of the task that retires
        the bucket's gradients: backward visits layers deepest-first,
        so that is the shallowest layer's weight-gradient task (the
        embedding on stage 0, which retires after layer 0).
        """
        template = _Template()
        add = template.add
        kind = self._compute_kind
        first = stage == 0 and chunk == 0
        final = stage == self.plan.pipeline - 1 and chunk == self.v - 1
        anchored = [bucket for bucket, layers in enumerate(self.bucket_layers)
                    if min(layers) // self.lpc == chunk] if last else []
        if self.granularity is Granularity.STAGE:
            if not backward:
                key = self._slot("sf", stage, chunk)
                add(table(key, kind, COMPUTE_STREAM), "")
            elif not last:
                key = self._slot("sb", stage, chunk)
                add(table(key, KIND_COMPUTE, COMPUTE_STREAM), "")
            else:
                # Split at gradient-bucket boundaries (deepest first) so
                # bucket All-Reduces still overlap the remaining
                # backward compute.
                for bucket, _width in self._bucket_segments(chunk):
                    if bucket in anchored:
                        template.anchors[bucket] = len(template.slots)
                    key = self._slot("sbl", stage, chunk, bucket)
                    add(table(key, KIND_COMPUTE, COMPUTE_STREAM),
                        f"/bucket{bucket}")
            return template

        def comp(op: CompOperator, label: str) -> None:
            op_key = op.kind.value
            if self.granularity is Granularity.KERNEL:
                for index, kernel in enumerate(self.lookup.tasks_for(op)):
                    add(table(f"k:{op_key}:{index}", kind, COMPUTE_STREAM,
                              kernel), f"{label}/{kernel.name}")
            else:
                add(table(f"op:{op_key}", kind, COMPUTE_STREAM, op), label)

        def tp_allreduce(label: str) -> None:
            # Inline tensor-parallel All-Reduce (sequential dependency).
            if self.tp_ar is not None:
                add(table("tp_ar", KIND_TP_COMM, COMPUTE_STREAM, self.tp_ar),
                    label)

        layers = range(chunk * self.lpc, (chunk + 1) * self.lpc)
        if not backward:
            if first:
                comp(self.op_fwd_embed, "/embed")
                tp_allreduce("/embed_ar")
            for layer in layers:
                comp(self.op_fwd_mha, f"/l{layer}/mha")
                tp_allreduce(f"/l{layer}/mha_ar")
                comp(self.op_fwd_ffn, f"/l{layer}/ffn")
                tp_allreduce(f"/l{layer}/ffn_ar")
            if final:
                comp(self.op_fwd_head, "/lm_head")
            return template
        if final:
            comp(self.op_bwd_head, "/lm_head")
        tails: dict[int, int] = {}
        for layer in reversed(layers):
            comp(self.op_bwd_ffn, f"/l{layer}/ffn")
            tp_allreduce(f"/l{layer}/ffn_ar")
            comp(self.op_bwd_mha, f"/l{layer}/mha")
            tails[layer] = len(template.slots) - 1
            tp_allreduce(f"/l{layer}/mha_ar")
        if first:
            comp(self.op_bwd_embed, "/embed")
            tails[0] = len(template.slots) - 1  # embedding grads retire last
        for bucket in anchored:
            template.anchors[bucket] = tails[min(self.bucket_layers[bucket])]
        return template

    # ------------------------------------------------------------------
    # Stage-granularity chunk durations
    # ------------------------------------------------------------------
    def _forward_stage_duration(self, stage: int, chunk: int = 0) -> float:
        """Forward latency of one stage chunk (compute + TP AR)."""
        op_time = self._op_time
        dur = self.lpc * (op_time[OpKind.FWD_MHA] + op_time[OpKind.FWD_FFN]
                          + 2 * self.tp_ar_time)
        if stage == 0 and chunk == 0:
            dur += op_time[OpKind.FWD_EMBEDDING] + self.tp_ar_time
        if stage == self.plan.pipeline - 1 and chunk == self.v - 1:
            dur += op_time[OpKind.FWD_LM_HEAD]
        return dur

    def _backward_layer_duration(self) -> float:
        """Backward latency of one decoder layer (compute + TP AR)."""
        op_time = self._op_time
        return (op_time[OpKind.BWD_FFN] + op_time[OpKind.BWD_MHA]
                + 2 * self.tp_ar_time)

    def _backward_stage_duration(self, stage: int, chunk: int = 0) -> float:
        """Backward latency of one stage chunk."""
        op_time = self._op_time
        dur = self.lpc * self._backward_layer_duration()
        if stage == self.plan.pipeline - 1 and chunk == self.v - 1:
            dur += op_time[OpKind.BWD_LM_HEAD]
        if stage == 0 and chunk == 0:
            dur += op_time[OpKind.BWD_EMBEDDING]
        return dur
