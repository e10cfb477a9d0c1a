"""Operator-to-task lookup table (paper Figure 4, steps 3-4).

Maps a computation operator's *signature* to the list of CUDA kernels
(tasks) it executes and their profiled durations. The table embodies the
paper's key profiling-cost optimisation (Section III-C): because LLMs
stack identically-shaped decoder layers, partitioned evenly across GPUs,
only one representative of each signature — a *necessary operator* — ever
needs profiling. For an LLM with L layers and N_MB micro-batches the
naive cost is O(L x N_MB) profiles; the table makes it O(1).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.graph.operators import CompOperator
from repro.hardware.kernels import Kernel
from repro.profiling.cupti import CuptiTracer


class OperatorToTaskTable:
    """Caches operator -> (kernels, total duration), profiling on miss.

    The table depends only on the device model its tracer profiles on,
    so every simulator of one GPU can share it (see
    :class:`~repro.dse.explorer.DesignSpaceExplorer`).
    """

    def __init__(self, tracer: CuptiTracer) -> None:
        self.tracer = tracer
        self._table: dict[tuple, tuple[tuple[Kernel, ...], float]] = {}
        self._hits = 0
        self._misses = 0
        # Timing states of the graph builders timed against this table,
        # LRU-ordered and bounded by repro.graph.builder, which owns
        # their keys and accounting.
        self.timing_states: OrderedDict[tuple, dict] = OrderedDict()
        self.timing_states_lock = threading.Lock()

    def _entry(self, op: CompOperator) -> tuple[tuple[Kernel, ...], float]:
        """``op``'s kernels and summed duration, profiling the first
        representative of its signature only."""
        key = op.signature
        entry = self._table.get(key)
        if entry is not None:
            self._hits += 1
            return entry
        self._misses += 1
        kernels = self.tracer.trace_operator(op)
        entry = self._table[key] = (
            kernels, sum(kernel.duration for kernel in kernels))
        return entry

    def tasks_for(self, op: CompOperator) -> tuple[Kernel, ...]:
        """Kernels for ``op``, profiling the first representative only."""
        return self._entry(op)[0]

    def duration_of(self, op: CompOperator) -> float:
        """Total device time of ``op`` (its kernels run back-to-back),
        summed once when the signature is first profiled."""
        return self._entry(op)[1]

    # ------------------------------------------------------------------
    # Introspection (tested to demonstrate the O(1) property)
    # ------------------------------------------------------------------
    @property
    def num_profiled(self) -> int:
        """Necessary operators profiled so far (cache misses)."""
        return self._misses

    @property
    def num_reused(self) -> int:
        """Lookups served from the table (cache hits)."""
        return self._hits

    @property
    def signatures(self) -> tuple[tuple, ...]:
        """All signatures currently in the table."""
        return tuple(self._table)

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, op: CompOperator) -> bool:
        return op.signature in self._table
