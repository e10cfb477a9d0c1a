"""Execution-graph data structures shared by all granularities.

A :class:`FlatAssembler` accumulates the task DAG of one iteration as
flat per-attribute columns indexed by task id. A task carries a device
(a logical pipeline stage), a stream (``compute`` or ``comm`` —
modelling CUDA streams so DP All-Reduce can overlap backward compute,
Figure 5a), a duration, and a kind tag used for time-breakdown
reporting. Edges encode both data dependencies and the paper's explicit
intra-GPU execution-order constraints (Section III-B).

**Structure/timing split.** A :class:`GraphStructure` is the *compiled*
form of the assembled columns: every per-task attribute flattened into
CSR-style arrays, renumbered into the replay order Algorithm 1's FIFO
queue would visit (which is purely structural — task durations never
influence it), with the per-task duration vector kept separate. Replays
become a single array pass (:func:`repro.sim.engine.simulate_retimed`),
and because the topology is immutable, one compiled structure can be
re-timed with fresh duration vectors — a perturbed device model, a new
NCCL table, a different tensor-parallel degree with the same shape —
without rebuilding or re-sorting anything.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable, Mapping

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


class FlatAssembler:
    """Incrementally assembles an iteration's task DAG as flat columns.

    Task ``i``'s attributes live at index ``i`` of the parallel
    ``device``/``stream``/``duration``/``kind``/``label``/``payload``/
    ``slots`` lists; ``children[i]`` lists its dependents in edge order
    and ``num_parents[i]`` is its in-degree (Algorithm 1's initial
    ``ref`` count). :meth:`compile` turns the columns into a
    :class:`GraphStructure`; the reference engine
    (:func:`~repro.sim.engine.simulate_reference`) replays them as-is.

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

    def compile(self, num_devices: int,
                metadata: dict[str, Any] | None = None) -> "GraphStructure":
        """Compile the assembled columns into a :class:`GraphStructure`.

        The structure carries timing-slot keys only when every task
        recorded one; otherwise it replays but cannot
        :meth:`~GraphStructure.retime` by slot.

        Raises:
            SimulationError: Device out of range, or a dependency cycle
                (reported with the reference engine's deadlock message).
        """
        self.check_devices(num_devices)
        num_tasks = len(self.device)
        order = _replay_order(self.children, self.num_parents)
        if len(order) != num_tasks:
            raise SimulationError(
                f"task graph deadlocked: {len(order)}/{num_tasks} tasks "
                "executed (dependency cycle)")
        return GraphStructure._from_columns(
            order=order, device=self.device, stream=self.stream,
            duration=self.duration, kind=self.kind, label=self.label,
            payload=self.payload, children=self.children,
            slots=self.slots, num_devices=num_devices,
            metadata=dict(metadata or {}))


def _replay_order(children: list[list[int]],
                  num_parents: list[int]) -> list[int]:
    """Kahn's algorithm with a FIFO queue — the exact pop order of the
    reference engine's Algorithm-1 loop, which is purely structural."""
    ref = list(num_parents)
    queue: deque[int] = deque(task for task, parents in enumerate(ref)
                              if parents == 0)
    order: list[int] = []
    order_append = order.append
    queue_pop = queue.popleft
    queue_push = queue.append
    while queue:
        task = queue_pop()
        order_append(task)
        for child in children[task]:
            remaining = ref[child] - 1
            ref[child] = remaining
            if not remaining:
                queue_push(child)
    return order


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
        duration: Baseline durations per position (``float64``,
            read-only).
        stream / label / payload: Per-position tuples (used only when a
            replay records its timeline, or by retiming consumers).
            Note that on a structure served from the process-wide cache
            these are *representative* of the build that compiled it —
            payloads in particular may belong to a different plan with
            the same topology. Consumers needing exact per-plan
            operators must resolve through ``slot_keys`` against their
            own builder (see ``GraphBuilder.slot_kernel_counts``).
        slot_keys: Distinct timing-slot keys, or ``None`` when the
            source assembler recorded no slots.
        slot_index: Index into ``slot_keys`` per position, or ``None``.
        metadata: The source graph's metadata (replays may override).
    """

    def __init__(self, *, task_ids: list[int], device_ids: list[int],
                 kinds: tuple[str, ...], kind_ids: list[int],
                 children: list[list[int]], duration_view: list[float],
                 stream: tuple[str, ...], label: tuple[str, ...],
                 payload: tuple[Any, ...], num_devices: int,
                 device_kind_order: tuple[tuple[int, ...], ...],
                 slot_keys: tuple[str, ...] | None,
                 slot_ids: list[int] | None,
                 metadata: dict[str, Any]) -> None:
        num_tasks = len(task_ids)
        self.num_tasks = num_tasks
        self.num_devices = num_devices
        # Python-native views for the replay hot loop (plain-list
        # iteration beats CSR index arithmetic in CPython; the CSR
        # arrays below stay the canonical, exportable representation).
        self.task_ids = task_ids
        self.device_ids = device_ids
        self.children_view = children
        self.duration_view = duration_view
        self.kinds = kinds
        self.stream = stream
        self.label = label
        self.payload = payload
        self.metadata = metadata
        # Flat-array form: per-task attributes and CSR adjacency.
        self.task_id = np.array(task_ids, dtype=np.intp)
        self.device = np.array(device_ids, dtype=np.intp)
        self.kind_index = np.array(kind_ids, dtype=np.intp)
        self.duration = np.array(duration_view, dtype=np.float64)
        self.duration.setflags(write=False)
        child_ptr = np.zeros(num_tasks + 1, dtype=np.intp)
        if num_tasks:
            np.cumsum(np.fromiter(map(len, children), dtype=np.intp,
                                  count=num_tasks), out=child_ptr[1:])
        self.child_ptr = child_ptr
        num_edges = int(child_ptr[-1])
        self.num_edges = num_edges
        self.child_idx = np.fromiter(
            (child for kids in children for child in kids),
            dtype=np.intp, count=num_edges)
        # Flat (device, kind) bucket per position for one-pass busy
        # accounting; device_kind_order lists each device's kinds in
        # first-appearance order so replay results reproduce the
        # reference engine's dict layout.
        self.busy_index = self.device * len(kinds) + self.kind_index
        self.device_kind_order = device_kind_order
        self.slot_keys = slot_keys
        self.slot_index = (np.array(slot_ids, dtype=np.intp)
                           if slot_ids is not None else None)
        self._batch_plan: BatchSweepPlan | None = None

    @classmethod
    def _from_columns(cls, *, order: list[int], device: list[int],
                      stream: list[str], duration: list[float],
                      kind: list[str], label: list[str],
                      payload: list[Any], children: list[list[int]],
                      slots: list[str | None] | None, num_devices: int,
                      metadata: dict[str, Any]) -> "GraphStructure":
        """Permute original-order columns into a replay-order structure."""
        num_tasks = len(device)
        position = [0] * num_tasks
        for pos, task in enumerate(order):
            position[task] = pos

        use_slots = (slots is not None and len(slots) == num_tasks
                     and None not in slots)
        kinds: list[str] = []
        kind_of: dict[str, int] = {}
        slot_list: list[str] = []
        slot_of: dict[str, int] = {}
        device_ids: list[int] = []
        kind_ids: list[int] = []
        durations: list[float] = []
        streams: list[str] = []
        labels: list[str] = []
        payloads: list[Any] = []
        children_view: list[list[int]] = []
        slot_ids: list[int] | None = [] if use_slots else None
        kind_order: list[list[int]] = [[] for _ in range(num_devices)]
        seen_busy: set[tuple[int, int]] = set()

        for task in order:
            dev = device[task]
            device_ids.append(dev)
            kind_id = kind_of.get(kind[task])
            if kind_id is None:
                kind_id = kind_of[kind[task]] = len(kinds)
                kinds.append(kind[task])
            kind_ids.append(kind_id)
            if (dev, kind_id) not in seen_busy:
                seen_busy.add((dev, kind_id))
                kind_order[dev].append(kind_id)
            durations.append(duration[task])
            streams.append(stream[task])
            labels.append(label[task])
            payloads.append(payload[task])
            children_view.append([position[child]
                                  for child in children[task]])
            if slot_ids is not None:
                slot_key = slots[task]
                slot = slot_of.get(slot_key)
                if slot is None:
                    slot = slot_of[slot_key] = len(slot_list)
                    slot_list.append(slot_key)
                slot_ids.append(slot)

        return cls(
            task_ids=order,
            device_ids=device_ids,
            kinds=tuple(kinds),
            kind_ids=kind_ids,
            children=children_view,
            duration_view=durations,
            stream=tuple(streams),
            label=tuple(labels),
            payload=tuple(payloads),
            num_devices=num_devices,
            device_kind_order=tuple(tuple(order_) for order_ in kind_order),
            slot_keys=tuple(slot_list) if use_slots else None,
            slot_ids=slot_ids,
            metadata=metadata)

    def retime(self, timings: Mapping[str, float]) -> np.ndarray:
        """Duration vector (replay order) from a fresh timing table.

        Args:
            timings: Slot key -> duration in seconds. Must cover every
                slot key this structure references.

        Raises:
            SimulationError: If the structure was compiled without slot
                keys, or ``timings`` is missing one of them.
        """
        if self.slot_keys is None or self.slot_index is None:
            raise SimulationError(
                "structure was compiled without timing slots; "
                "pass an explicit duration vector instead")
        try:
            values = [timings[key] for key in self.slot_keys]
        except KeyError as exc:
            raise SimulationError(
                f"timing table is missing slot {exc.args[0]!r}; the "
                "structure does not match this builder") from exc
        return np.asarray(values, dtype=np.float64)[self.slot_index]

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
                  self.busy_index)
        total = sum(array.nbytes for array in arrays)
        if self.slot_index is not None:
            total += self.slot_index.nbytes
        # Tuples, label strings, and the children view dominate beyond
        # the arrays; ~200 bytes/task is a measured ballpark.
        return total + 200 * self.num_tasks


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
