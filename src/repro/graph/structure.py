"""Execution-graph data structures shared by all granularities.

An iteration's task DAG exists in two forms:

* :class:`TaskColumns` — the tasks in *emission order* as flat NumPy
  columns (device, kind, stream, timing slot) plus CSR child arrays.
  The graph builder stamps these directly from per-chunk templates; a
  :class:`FlatAssembler` (hand-built and randomized test graphs, and
  the reference engine's list input) interns its per-task lists into
  them. A task carries a device (a logical pipeline stage), a stream
  (``compute`` or ``comm`` — modelling CUDA streams so DP All-Reduce
  can overlap backward compute, Figure 5a), a duration, and a kind tag
  used for time-breakdown reporting. Edges encode both data
  dependencies and the paper's explicit intra-GPU execution-order
  constraints (Section III-B).
* :class:`GraphStructure` — the *compiled* form, renumbered into the
  replay order Algorithm 1's FIFO queue would visit (purely
  structural — task durations never influence it), with the per-task
  duration vector kept separate.

**Columnar compile.** :func:`compile_columns` runs the FIFO Kahn loop
once over flat ``int`` lists, then does everything else with NumPy: the
inverse permutation, the CSR remap into replay positions, and the
first-appearance interning of kinds and timing slots. No per-task
list, set or tuple is built except the ``children_view`` tuples the
scalar replay loop iterates (tuples of ints, which the cyclic GC stops
tracking after their first collection). Replays become a single array
pass (:func:`repro.sim.engine.simulate_retimed`), and because the
topology is immutable, one compiled structure can be re-timed with
fresh duration vectors — a perturbed device model, a new NCCL table, a
different tensor-parallel degree with the same shape — without
rebuilding or re-sorting anything.

**Lazy labels and payloads.** Per-task labels, payloads and stream
names are read only by timeline recording, Chrome traces and the
testbed emulator, so a structure materialises them on first access.
Builder-compiled structures derive a label from its chunk prefix and
template suffix, and a payload from its timing slot: payloads are
*per-slot representatives* of the build that compiled the structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import SimulationError

COMPUTE_STREAM = "compute"
COMM_STREAM = "comm"

#: Node kind tags (drive the per-category time breakdown).
KIND_COMPUTE = "compute"
KIND_TP_COMM = "tp_allreduce"
KIND_DP_COMM = "dp_allreduce"
KIND_PP_COMM = "pp_sendrecv"
KIND_WEIGHT_UPDATE = "weight_update"

ALL_KINDS = (KIND_COMPUTE, KIND_TP_COMM, KIND_DP_COMM, KIND_PP_COMM,
             KIND_WEIGHT_UPDATE)


@dataclass
class TaskColumns:
    """An iteration's tasks in emission order, as flat columns.

    Row ``i`` is task ``i``; its children are
    ``child_idx[child_ptr[i]:child_ptr[i + 1]]`` in edge order, and that
    order is part of the replay contract (it fixes the FIFO replay
    order). ``kind``/``stream``/``slot`` hold codes into the
    ``kinds``/``streams``/``slot_keys`` name tables.

    Attributes:
        duration: Per-task durations, or ``None`` when they come from a
            timing table through the slots (:func:`compile_columns`'s
            ``timings``).
        labels: Returns the emission-order labels; called only when a
            consumer reads them.
        payloads: Emission-order payloads, or ``None`` when
            ``slot_payloads`` maps each slot key to its payload.
    """

    device: np.ndarray
    kind: np.ndarray
    kinds: tuple[str, ...]
    stream: np.ndarray
    streams: tuple[str, ...]
    slot: np.ndarray | None
    slot_keys: tuple[str, ...] | None
    child_ptr: np.ndarray
    child_idx: np.ndarray
    duration: np.ndarray | None
    labels: Callable[[], Sequence[str]]
    payloads: Sequence[Any] | None = None
    slot_payloads: Mapping[str, Any] | None = None

    def __len__(self) -> int:
        return len(self.device)

    def durations(self, timings: Mapping[str, float]) -> np.ndarray:
        """Emission-order durations: the explicit column, else
        ``timings`` broadcast through the slots."""
        if self.duration is not None:
            return self.duration
        return _slot_durations(self.slot_keys, self.slot, timings)


def _intern(values: Iterable[Any]) -> tuple[tuple[Any, ...], np.ndarray]:
    """Distinct values in first-appearance order, and each row's code."""
    table: dict[Any, int] = {}
    codes = [table.setdefault(value, len(table)) for value in values]
    return tuple(table), np.array(codes, dtype=np.intp)


def _first_appearance(codes: np.ndarray,
                      size: int) -> tuple[np.ndarray, np.ndarray]:
    """Renumber ``codes`` (each in ``range(size)``) by first appearance:
    returns the distinct source codes in that order and the renumbered
    column."""
    first = np.full(size, codes.size, dtype=np.intp)
    np.minimum.at(first, codes, np.arange(codes.size, dtype=np.intp))
    present = np.flatnonzero(first < codes.size)
    ranked = present[np.argsort(first[present])]
    remap = np.zeros(size, dtype=np.intp)
    remap[ranked] = np.arange(ranked.size, dtype=np.intp)
    return ranked, remap[codes]


def _children_view(child_ptr: np.ndarray,
                   child_idx: np.ndarray) -> list[tuple[int, ...]]:
    """One tuple of children per position, for the scalar replay loop.

    Single-child positions, the vast majority of a builder graph, get
    their 1-tuples from one C-level ``zip``; only the rest are sliced
    in Python. Tuples of ints leave the cyclic GC's tracking after
    their first collection, so the view does not drive full
    collections.
    """
    counts = np.diff(child_ptr)
    view = np.empty(counts.size, dtype=object)
    view.fill(())
    single = counts == 1
    view[single] = np.fromiter(
        zip(child_idx[child_ptr[:-1][single]].tolist()), dtype=object,
        count=int(np.count_nonzero(single)))
    multi = np.flatnonzero(counts > 1)
    flat = child_idx.tolist()
    view[multi] = np.fromiter(
        (tuple(flat[lo:hi]) for lo, hi in zip(child_ptr[multi].tolist(),
                                              child_ptr[multi + 1].tolist())),
        dtype=object, count=multi.size)
    return view.tolist()


def _slot_durations(slot_keys: Sequence[str] | None,
                    slot_index: np.ndarray | None,
                    timings: Mapping[str, float]) -> np.ndarray:
    """Broadcast a timing table through per-task slot indices."""
    if slot_keys is None or slot_index is None:
        raise SimulationError(
            "structure was compiled without timing slots; "
            "pass an explicit duration vector instead")
    try:
        values = [timings[key] for key in slot_keys]
    except KeyError as exc:
        raise SimulationError(
            f"timing table is missing slot {exc.args[0]!r}; the "
            "structure does not match this builder") from exc
    return np.asarray(values, dtype=np.float64)[slot_index]


class FlatAssembler:
    """Incrementally assembles an iteration's task DAG as flat lists.

    Task ``i``'s attributes live at index ``i`` of the parallel
    ``device``/``stream``/``duration``/``kind``/``label``/``payload``/
    ``slots`` lists; ``children[i]`` lists its dependents in edge order
    and ``num_parents[i]`` is its in-degree (Algorithm 1's initial
    ``ref`` count). :meth:`compile` turns the lists into a
    :class:`GraphStructure`; the reference engine
    (:func:`~repro.sim.engine.simulate_reference`) replays them as-is.
    This is the general assembler for hand-built and randomized graphs;
    the graph builder emits :class:`TaskColumns` directly and offers
    this list form as a view (:meth:`from_columns`).

    Tracks the tail of every (device, stream) chain so consecutive tasks
    on one stream serialise via explicit edges — the paper's "execution
    order within each GPU must be modeled" requirement. Task ids and
    edge order are the replay contract: the FIFO replay order, and
    therefore every result bit, depends on them.
    """

    def __init__(self) -> None:
        self.device: list[int] = []
        self.stream: list[str] = []
        self.duration: list[float] = []
        self.kind: list[str] = []
        self.label: list[str] = []
        self.payload: list[Any] = []
        self.slots: list[str | None] = []
        self.children: list[list[int]] = []
        self.num_parents: list[int] = []
        self._chain_tail: dict[tuple[int, str], int] = {}

    @classmethod
    def from_columns(cls, columns: TaskColumns,
                     timings: Mapping[str, float] | None = None,
                     ) -> "FlatAssembler":
        """List view of emitted columns (the reference engine's input).

        Durations come from ``timings`` through the slots unless the
        columns carry them. The view records no chain tails: it is for
        replaying and inspecting a finished graph, not for extending it.
        """
        asm = cls()
        asm.device = columns.device.tolist()
        asm.stream = [columns.streams[code] for code in columns.stream.tolist()]
        asm.duration = columns.durations(timings or {}).tolist()
        asm.kind = [columns.kinds[code] for code in columns.kind.tolist()]
        asm.label = list(columns.labels())
        if columns.payloads is not None:
            asm.payload = list(columns.payloads)
        elif columns.slot_payloads is not None and columns.slot is not None:
            asm.payload = [columns.slot_payloads.get(columns.slot_keys[code])
                           for code in columns.slot.tolist()]
        else:
            asm.payload = [None] * len(columns)
        if columns.slot is not None:
            asm.slots = [columns.slot_keys[code]
                         for code in columns.slot.tolist()]
        else:
            asm.slots = [None] * len(columns)
        ptr = columns.child_ptr.tolist()
        idx = columns.child_idx.tolist()
        asm.children = [idx[lo:hi] for lo, hi in zip(ptr, ptr[1:])]
        asm.num_parents = np.bincount(
            columns.child_idx, minlength=len(columns)).tolist()
        return asm

    def __len__(self) -> int:
        return len(self.device)

    def add(self, device: int, stream: str, duration: float, kind: str,
            label: str, *, deps: Iterable[int] = (), chain: bool = True,
            payload: Any = None, slot: str | None = None) -> int:
        """Append a task; returns its id.

        Args:
            deps: Explicit extra dependencies (cross-device or
                cross-stream edges).
            chain: Serialise after the previous task on this
                (device, stream) pair.
            slot: Optional timing-slot key naming the duration's source,
                so a compiled :class:`GraphStructure` can re-derive the
                duration vector from a fresh timing table
                (:meth:`GraphStructure.retime`).
        """
        if duration < 0:
            raise SimulationError(f"negative duration for task {label!r}")
        task_id = len(self.device)
        self.device.append(device)
        self.stream.append(stream)
        self.duration.append(duration)
        self.kind.append(kind)
        self.label.append(label)
        self.payload.append(payload)
        self.slots.append(slot)
        self.children.append([])
        self.num_parents.append(0)
        parents: set[int] = set(deps)
        if chain:
            tail = self._chain_tail.get((device, stream))
            if tail is not None:
                parents.add(tail)
            self._chain_tail[(device, stream)] = task_id
        for parent in parents:
            self.link(parent, task_id)
        return task_id

    def chain_tail(self, device: int, stream: str) -> int | None:
        """Latest task id on a stream, or None if the stream is empty."""
        return self._chain_tail.get((device, stream))

    def link(self, parent: int, child: int) -> None:
        """Add a dependency edge parent -> child."""
        if parent == child:
            raise SimulationError("a task cannot depend on itself")
        self.children[parent].append(child)
        self.num_parents[child] += 1

    def check_devices(self, num_devices: int) -> None:
        """Raise :class:`SimulationError` if a task runs on a device
        outside ``range(num_devices)``."""
        for task_id, device in enumerate(self.device):
            if not 0 <= device < num_devices:
                raise SimulationError(
                    f"task {task_id} ({self.label[task_id]!r}) runs on "
                    f"device {device}, outside the graph's "
                    f"{num_devices} devices")

    def columns(self) -> TaskColumns:
        """Intern the lists into emission-order :class:`TaskColumns`.

        Slots are kept only when every task recorded one.
        """
        kinds, kind = _intern(self.kind)
        streams, stream = _intern(self.stream)
        slot_keys, slot = (_intern(self.slots) if None not in self.slots
                           else (None, None))
        num_tasks = len(self.device)
        child_ptr = np.zeros(num_tasks + 1, dtype=np.intp)
        if num_tasks:
            np.cumsum(np.fromiter(map(len, self.children), dtype=np.intp,
                                  count=num_tasks), out=child_ptr[1:])
        child_idx = np.fromiter(
            (child for kids in self.children for child in kids),
            dtype=np.intp, count=int(child_ptr[-1]))
        labels = tuple(self.label)
        return TaskColumns(
            device=np.array(self.device, dtype=np.intp), kind=kind,
            kinds=kinds, stream=stream, streams=streams, slot=slot,
            slot_keys=slot_keys, child_ptr=child_ptr, child_idx=child_idx,
            duration=np.array(self.duration, dtype=np.float64),
            labels=lambda: labels, payloads=tuple(self.payload))

    def compile(self, num_devices: int,
                metadata: dict[str, Any] | None = None) -> "GraphStructure":
        """Compile the assembled lists into a :class:`GraphStructure`.

        The structure carries timing-slot keys only when every task
        recorded one; otherwise it replays but cannot
        :meth:`~GraphStructure.retime` by slot.

        Raises:
            SimulationError: Device out of range, or a dependency cycle
                (reported with the reference engine's deadlock message).
        """
        return compile_columns(self.columns(), num_devices, metadata)


def _replay_order(child_ptr: np.ndarray, child_idx: np.ndarray,
                  num_tasks: int) -> list[int]:
    """Kahn's algorithm with a FIFO queue — the exact pop order of the
    reference engine's Algorithm-1 loop, which is purely structural.

    The output list doubles as the queue: tasks are appended when they
    become ready and visited in append order. Runs over flat ``int``
    lists; it is the one per-task Python loop of a compile.
    """
    indegree = np.bincount(child_idx, minlength=num_tasks)
    ref = indegree.tolist()
    order = np.flatnonzero(indegree == 0).tolist()
    ptr = child_ptr.tolist()
    idx = child_idx.tolist()
    append = order.append
    for task in order:
        edge = ptr[task]
        end = ptr[task + 1]
        while edge < end:
            child = idx[edge]
            edge += 1
            remaining = ref[child] - 1
            ref[child] = remaining
            if not remaining:
                append(child)
    return order


def compile_columns(columns: TaskColumns, num_devices: int,
                    metadata: dict[str, Any] | None = None,
                    timings: Mapping[str, float] | None = None,
                    ) -> "GraphStructure":
    """Compile emission-order columns into a replay-order structure.

    Computes the FIFO replay order, then permutes every column into it
    and remaps the CSR children to replay positions. Kinds, slots and
    each device's kinds are renumbered in first-appearance (replay)
    order. Durations come from the columns or, when they carry none,
    from ``timings`` through the slots (the same broadcast
    :meth:`GraphStructure.retime` does).

    Raises:
        SimulationError: Device out of range, a dependency cycle
            (reported with the reference engine's deadlock message), or
            a timing table missing a slot.
    """
    device = columns.device
    num_tasks = len(device)
    outside = (device < 0) | (device >= num_devices)
    if outside.any():
        task = int(np.flatnonzero(outside)[0])
        raise SimulationError(
            f"task {task} ({columns.labels()[task]!r}) runs on device "
            f"{int(device[task])}, outside the graph's {num_devices} "
            "devices")
    child_ptr, child_idx = columns.child_ptr, columns.child_idx
    order = _replay_order(child_ptr, child_idx, num_tasks)
    if len(order) != num_tasks:
        raise SimulationError(
            f"task graph deadlocked: {len(order)}/{num_tasks} tasks "
            "executed (dependency cycle)")
    task_id = np.array(order, dtype=np.intp)
    position = np.empty(num_tasks, dtype=np.intp)
    position[task_id] = np.arange(num_tasks, dtype=np.intp)

    counts = np.diff(child_ptr)[task_id]
    ptr = np.zeros(num_tasks + 1, dtype=np.intp)
    np.cumsum(counts, out=ptr[1:])
    edge = (np.arange(int(ptr[-1]), dtype=np.intp)
            + np.repeat(child_ptr[:-1][task_id] - ptr[:-1], counts))
    idx = position[child_idx[edge]]

    kind_codes, kind_index = _first_appearance(columns.kind[task_id],
                                               len(columns.kinds))
    kinds = tuple(columns.kinds[code] for code in kind_codes.tolist())
    replay_device = device[task_id]
    busy_codes, _ = _first_appearance(
        replay_device * len(kinds) + kind_index, num_devices * len(kinds))
    kind_order: list[list[int]] = [[] for _ in range(num_devices)]
    for code in busy_codes.tolist():
        dev, kind = divmod(code, len(kinds))
        kind_order[dev].append(kind)

    slot_keys = slot_index = None
    if columns.slot is not None:
        slot_codes, slot_index = _first_appearance(columns.slot[task_id],
                                                   len(columns.slot_keys))
        slot_keys = tuple(columns.slot_keys[code]
                          for code in slot_codes.tolist())
    return GraphStructure(
        task_id=task_id, device=replay_device, kinds=kinds,
        kind_index=kind_index, child_ptr=ptr, child_idx=idx,
        duration=columns.durations(timings or {})[task_id],
        stream_index=columns.stream[task_id],
        streams=columns.streams, slot_keys=slot_keys,
        slot_index=slot_index,
        device_kind_order=tuple(map(tuple, kind_order)),
        num_devices=num_devices, metadata=dict(metadata or {}),
        labels=columns.labels, payloads=columns.payloads,
        slot_payloads=columns.slot_payloads)


class GraphStructure:
    """Immutable compiled topology of an execution graph.

    Tasks are renumbered into *replay order* — the exact order
    Algorithm 1's FIFO queue pops them (Kahn's algorithm with a FIFO
    queue seeded in node order), which depends only on the edge
    structure, never on durations. Every per-task attribute is a flat
    array indexed by replay position, and children are stored CSR-style
    (``child_ptr``/``child_idx``), so the replay engine touches no
    dicts, deques, or node objects.

    The baseline ``duration`` vector captured at compile time is one
    valid timing; :meth:`retime` derives fresh vectors from a timing
    table via the per-task ``slot`` keys the builder recorded, which is
    what makes retime-without-rebuild sweeps possible.

    Attributes:
        num_tasks / num_devices / num_edges: Sizes.
        task_id: Original task id at each replay position (``intp``).
        device: Executing device per position (``intp``).
        kinds: Distinct kind tags, in first-appearance order.
        kind_index: Index into ``kinds`` per position (``intp``).
        child_ptr / child_idx: CSR adjacency over replay positions —
            children of position ``k`` are
            ``child_idx[child_ptr[k]:child_ptr[k + 1]]``.
        children_view: The same adjacency as one tuple per position,
            for the scalar replay loop (plain iteration beats CSR index
            arithmetic in CPython).
        duration: Baseline durations per position (``float64``,
            read-only).
        stream / label / payload: Per-position tuples, materialised on
            first access (timeline recording, traces, the testbed).
            On a structure served from the process-wide cache these are
            *representative* of the build that compiled it — payloads
            in particular are per-slot representatives and may belong
            to a different plan with the same topology. Consumers
            needing exact per-plan operators must resolve through
            ``slot_keys`` against their own builder (see
            ``GraphBuilder.slot_kernel_counts``).
        task_ids / device_ids / duration_view: List forms of
            ``task_id``/``device``/``duration``, built on first access.
        slot_keys: Distinct timing-slot keys, or ``None`` when the
            source recorded no slots.
        slot_index: Index into ``slot_keys`` per position, or ``None``.
        metadata: The source graph's metadata (replays may override).
    """

    def __init__(self, *, task_id: np.ndarray, device: np.ndarray,
                 kinds: tuple[str, ...], kind_index: np.ndarray,
                 child_ptr: np.ndarray, child_idx: np.ndarray,
                 duration: np.ndarray, stream_index: np.ndarray,
                 streams: tuple[str, ...],
                 slot_keys: tuple[str, ...] | None,
                 slot_index: np.ndarray | None,
                 device_kind_order: tuple[tuple[int, ...], ...],
                 num_devices: int, metadata: dict[str, Any],
                 labels: Callable[[], Sequence[str]],
                 payloads: Sequence[Any] | None,
                 slot_payloads: Mapping[str, Any] | None) -> None:
        num_tasks = len(task_id)
        self.num_tasks = num_tasks
        self.num_devices = num_devices
        self.task_id = task_id
        self.device = device
        self.kinds = kinds
        self.kind_index = kind_index
        self.child_ptr = child_ptr
        self.child_idx = child_idx
        self.num_edges = int(child_ptr[-1])
        self.duration = duration
        self.duration.setflags(write=False)
        self.children_view = _children_view(child_ptr, child_idx)
        # Flat (device, kind) bucket per position for one-pass busy
        # accounting; device_kind_order lists each device's kinds in
        # first-appearance order so replay results reproduce the
        # reference engine's dict layout.
        self.busy_index = device * len(kinds) + kind_index
        self.device_kind_order = device_kind_order
        self.slot_keys = slot_keys
        self.slot_index = slot_index
        self.metadata = metadata
        self._stream_index = stream_index
        self._streams = streams
        self._labels = labels
        self._payloads = payloads
        self._slot_payloads = slot_payloads
        self._batch_plan: BatchSweepPlan | None = None

    # Per-task views built on first read (timelines, traces, the
    # testbed). Concurrent first reads from the serve daemon's handler
    # threads compute equal values, so the cache race is benign.
    @cached_property
    def task_ids(self) -> list[int]:
        return self.task_id.tolist()

    @cached_property
    def device_ids(self) -> list[int]:
        return self.device.tolist()

    @cached_property
    def duration_view(self) -> list[float]:
        return self.duration.tolist()

    @cached_property
    def stream(self) -> tuple[str, ...]:
        return tuple(map(self._streams.__getitem__,
                         self._stream_index.tolist()))

    @cached_property
    def label(self) -> tuple[str, ...]:
        return tuple(map(self._labels().__getitem__, self.task_ids))

    @cached_property
    def payload(self) -> tuple[Any, ...]:
        if self._payloads is not None:
            return tuple(map(self._payloads.__getitem__, self.task_ids))
        if self._slot_payloads is None or self.slot_keys is None:
            return (None,) * self.num_tasks
        per_slot = [self._slot_payloads.get(key) for key in self.slot_keys]
        return tuple(map(per_slot.__getitem__, self.slot_index.tolist()))

    def retime(self, timings: Mapping[str, float]) -> np.ndarray:
        """Duration vector (replay order) from a fresh timing table.

        Args:
            timings: Slot key -> duration in seconds. Must cover every
                slot key this structure references.

        Raises:
            SimulationError: If the structure was compiled without slot
                keys, or ``timings`` is missing one of them.
        """
        return _slot_durations(self.slot_keys, self.slot_index, timings)

    def batch_plan(self) -> "BatchSweepPlan":
        """The vectorized-sweep schedule for this structure (memoized).

        Built once per structure (it is purely structural, like the
        replay order) and reused by every
        :func:`~repro.sim.engine.simulate_retimed_batch` call, so
        sweeps over many duration matrices amortize its cost the same
        way they amortize compilation.
        """
        if self._batch_plan is None:
            self._batch_plan = BatchSweepPlan(self)
        return self._batch_plan

    def nbytes_estimate(self) -> int:
        """Rough memory footprint (cache budgeting)."""
        arrays = (self.task_id, self.device, self.kind_index,
                  self.child_ptr, self.child_idx, self.duration,
                  self.busy_index, self._stream_index)
        total = sum(array.nbytes for array in arrays)
        if self.slot_index is not None:
            total += self.slot_index.nbytes
        # The children view (one tuple and one int per position)
        # dominates beyond the arrays; ~100 bytes/task is a measured
        # ballpark. Labels and payloads are not counted: they exist
        # only once a consumer has read them.
        return total + 100 * self.num_tasks


class BatchSweepPlan:
    """Precomputed schedule for batched finish-time propagation.

    The scalar replay visits positions one at a time; the batched
    engine instead visits *chunks* ``[a, b)`` of consecutive replay
    positions chosen so that no edge lands inside its own chunk. Every
    parent of a chunk's positions therefore lies in an earlier chunk,
    which means all starts in ``[a, b)`` are final when the chunk is
    entered and the whole chunk's finish rows — one row of N batch
    columns per position — can be computed in one vectorized operation.

    Chunk boundaries are purely structural: a chunk extends while the
    next position is smaller than the minimum child position seen so
    far (children always sit at later replay positions). Chain-heavy
    builder graphs yield chunks of roughly one task per concurrently
    runnable stream, a few dozen positions on MT-NLG-scale graphs.

    Per chunk, the outgoing edges are pre-sorted by child so duplicate
    targets (a task with several parents in one chunk) collapse through
    one ``maximum.reduceat`` segment pass; chunks whose targets are
    already unique — the overwhelming majority — skip the segment pass
    entirely. Because ``max`` is exact and order-independent and each
    finish is produced by the same single IEEE-754 addition as the
    scalar engine, the batched sweep is bit-identical column-for-column
    to :func:`~repro.sim.engine.simulate_retimed`.

    Attributes:
        chunks: ``(a, b, src, seg, dst)`` tuples — ``src`` is ``None``
            for chunks with no outgoing edges; ``seg`` is ``None`` when
            ``dst`` holds unique targets (then ``src``/``dst`` pair up
            edge by edge), else ``seg`` holds ``reduceat`` segment
            starts into ``src`` and ``dst`` holds one target per
            segment.
        device_order: Replay positions stably sorted by device.
        device_seg: ``reduceat`` segment starts into ``device_order``,
            one per present device.
        present_devices: Device id of each segment (devices with no
            tasks keep their zero timeline, as in the scalar engine).
    """

    def __init__(self, structure: GraphStructure) -> None:
        num_tasks = structure.num_tasks
        child_ptr = structure.child_ptr
        child_idx = structure.child_idx
        counts = np.diff(child_ptr)
        min_child = np.full(num_tasks, num_tasks + 1, dtype=np.intp)
        has_children = counts > 0
        if has_children.any():
            min_child[has_children] = np.minimum.reduceat(
                child_idx, child_ptr[:-1][has_children])
        bounds = [0]
        limit = num_tasks + 1
        for position in range(num_tasks):
            if position >= limit:
                bounds.append(position)
                limit = num_tasks + 1
            earliest = min_child[position]
            if earliest < limit:
                limit = earliest
        bounds.append(num_tasks)

        chunks: list[tuple[int, int, np.ndarray | None,
                           np.ndarray | None, np.ndarray | None]] = []
        for a, b in zip(bounds, bounds[1:]):
            dst = child_idx[child_ptr[a]:child_ptr[b]]
            if dst.size == 0:
                chunks.append((a, b, None, None, None))
                continue
            src = np.repeat(np.arange(a, b, dtype=np.intp), counts[a:b])
            order = np.argsort(dst, kind="stable")
            dst = dst[order]
            src = src[order]
            if dst.size == 1 or bool(np.all(dst[1:] != dst[:-1])):
                chunks.append((a, b, src, None, dst))
            else:
                seg = np.flatnonzero(np.r_[True, dst[1:] != dst[:-1]])
                chunks.append((a, b, src, seg, dst[seg]))
        self.chunks = chunks

        self.device_order = np.argsort(structure.device, kind="stable")
        devices = structure.device[self.device_order]
        if num_tasks:
            self.device_seg = np.flatnonzero(
                np.r_[True, devices[1:] != devices[:-1]])
            self.present_devices = devices[self.device_seg]
        else:
            self.device_seg = np.zeros(0, dtype=np.intp)
            self.present_devices = np.zeros(0, dtype=np.intp)
