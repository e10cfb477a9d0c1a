"""Unit tests for the execution-graph structure and assembler."""

import pytest

from repro.errors import SimulationError
from repro.graph.structure import (COMM_STREAM, COMPUTE_STREAM,
                                   FlatAssembler, KIND_COMPUTE, KIND_DP_COMM)
from repro.sim.engine import simulate_retimed


class TestAssembler:
    def test_chain_serialises_same_stream(self):
        asm = FlatAssembler()
        first = asm.add(0, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "a")
        second = asm.add(0, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "b")
        assert second in asm.children[first]
        assert asm.num_parents[second] == 1

    def test_streams_are_independent(self):
        asm = FlatAssembler()
        asm.add(0, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "a")
        comm = asm.add(0, COMM_STREAM, 1.0, KIND_DP_COMM, "c")
        assert asm.num_parents[comm] == 0

    def test_chain_false_does_not_extend_chain(self):
        asm = FlatAssembler()
        first = asm.add(0, COMM_STREAM, 1.0, KIND_DP_COMM, "a")
        asm.add(0, COMM_STREAM, 1.0, KIND_DP_COMM, "send", chain=False)
        third = asm.add(0, COMM_STREAM, 1.0, KIND_DP_COMM, "b")
        assert third in asm.children[first]

    def test_explicit_deps(self):
        asm = FlatAssembler()
        a = asm.add(0, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "a")
        b = asm.add(1, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "b", deps=(a,))
        assert b in asm.children[a]

    def test_negative_duration_rejected(self):
        asm = FlatAssembler()
        with pytest.raises(SimulationError):
            asm.add(0, COMPUTE_STREAM, -1.0, KIND_COMPUTE, "bad")

    def test_self_dependency_rejected(self):
        asm = FlatAssembler()
        a = asm.add(0, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "a")
        with pytest.raises(SimulationError):
            asm.link(a, a)

    def test_chain_tail_tracking(self):
        asm = FlatAssembler()
        assert asm.chain_tail(0, COMPUTE_STREAM) is None
        a = asm.add(0, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "a")
        assert asm.chain_tail(0, COMPUTE_STREAM) == a


class TestAssembledGraph:
    """Whole-graph properties, read from the columns or the compiled
    structure."""

    def _diamond(self):
        asm = FlatAssembler()
        a = asm.add(0, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "a", chain=False)
        b = asm.add(0, COMM_STREAM, 2.0, KIND_DP_COMM, "b", deps=(a,),
                    chain=False)
        c = asm.add(1, COMPUTE_STREAM, 3.0, KIND_COMPUTE, "c", deps=(a,),
                    chain=False)
        asm.add(1, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "d", deps=(b, c),
                chain=False)
        return asm

    def test_roots(self):
        asm = self._diamond()
        roots = [task for task, parents in enumerate(asm.num_parents)
                 if parents == 0]
        assert roots == [0]
        assert asm.compile(num_devices=2).task_ids[0] == 0

    def test_edge_count(self):
        asm = self._diamond()
        assert sum(map(len, asm.children)) == 4
        assert asm.compile(num_devices=2).num_edges == 4

    def test_duration_by_kind(self):
        result = simulate_retimed(self._diamond().compile(num_devices=2))
        totals = result.breakdown()
        assert totals[KIND_COMPUTE] == pytest.approx(5.0)
        assert totals[KIND_DP_COMM] == pytest.approx(2.0)

    def test_device_durations(self):
        result = simulate_retimed(self._diamond().compile(num_devices=2))
        per_device = {device: sum(kinds.values())
                      for device, kinds in result.device_busy.items()}
        assert per_device[0] == pytest.approx(3.0)
        assert per_device[1] == pytest.approx(4.0)

    def test_validate_acyclic_passes(self):
        assert self._diamond().compile(num_devices=2).num_tasks == 4

    def test_validate_acyclic_detects_cycle(self):
        asm = FlatAssembler()
        a = asm.add(0, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "a", chain=False)
        b = asm.add(0, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "b", deps=(a,),
                    chain=False)
        asm.link(b, a)  # cycle
        with pytest.raises(SimulationError, match="cycle"):
            asm.compile(num_devices=1)

    def test_device_out_of_range_rejected_at_build(self):
        """A task on a device >= num_devices is a build-time error (the
        old engine silently invented timeline entries for it)."""
        asm = FlatAssembler()
        asm.add(2, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "ghost")
        with pytest.raises(SimulationError, match="device 2"):
            asm.compile(num_devices=2)

    def test_negative_device_rejected_at_build(self):
        asm = FlatAssembler()
        asm.add(-1, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "ghost")
        with pytest.raises(SimulationError, match="device -1"):
            asm.compile(num_devices=2)


class TestGraphStructure:
    def _diamond(self):
        asm = FlatAssembler()
        a = asm.add(0, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "a", chain=False,
                    slot="x")
        b = asm.add(0, COMM_STREAM, 2.0, KIND_DP_COMM, "b", deps=(a,),
                    chain=False, slot="y")
        c = asm.add(1, COMPUTE_STREAM, 3.0, KIND_COMPUTE, "c", deps=(a,),
                    chain=False, slot="x")
        asm.add(1, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "d", deps=(b, c),
                chain=False, slot="z")
        return asm

    def test_replay_order_is_topological(self):
        asm = self._diamond()
        structure = asm.compile(num_devices=2)
        position = {task: pos
                    for pos, task in enumerate(structure.task_id.tolist())}
        for task, children in enumerate(asm.children):
            for child in children:
                assert position[task] < position[child]

    def test_csr_arrays_consistent(self):
        asm = self._diamond()
        structure = asm.compile(num_devices=2)
        ptr = structure.child_ptr.tolist()
        assert ptr[0] == 0
        assert ptr[-1] == structure.num_edges == sum(map(len, asm.children))
        assert all(lo <= hi for lo, hi in zip(ptr, ptr[1:]))
        for pos, children in enumerate(structure.children_view):
            lo, hi = ptr[pos], ptr[pos + 1]
            assert structure.child_idx.tolist()[lo:hi] == list(children)

    def test_slots_interned_and_retimed(self):
        structure = self._diamond().compile(num_devices=2)
        assert set(structure.slot_keys) == {"x", "y", "z"}
        durations = structure.retime({"x": 5.0, "y": 6.0, "z": 7.0})
        by_task = dict(zip(structure.task_id.tolist(), durations.tolist()))
        assert by_task == {0: 5.0, 1: 6.0, 2: 5.0, 3: 7.0}

    def test_retime_missing_slot_raises(self):
        structure = self._diamond().compile(num_devices=2)
        with pytest.raises(SimulationError, match="missing slot"):
            structure.retime({"x": 5.0})

    def test_missing_slots_disable_retime(self):
        asm = self._diamond()
        asm.slots[-1] = None  # one task without a slot
        structure = asm.compile(num_devices=2)
        assert structure.slot_keys is None
        with pytest.raises(SimulationError, match="slot"):
            structure.retime({"x": 1.0})

    def test_baseline_durations_read_only(self):
        structure = self._diamond().compile(num_devices=2)
        with pytest.raises(ValueError):
            structure.duration[0] = 99.0


class TestStructureCache:
    def test_put_get_and_stats(self):
        from repro.graph.builder import (clear_structure_cache,
                                         structure_cache_get,
                                         structure_cache_put,
                                         structure_cache_stats)
        asm = FlatAssembler()
        asm.add(0, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "a")
        structure = asm.compile(num_devices=1)
        clear_structure_cache()
        try:
            assert structure_cache_get("k") is None
            structure_cache_put("k", structure)
            assert structure_cache_get("k") is structure
            stats = structure_cache_stats()
            assert stats["hits"] == 1 and stats["misses"] == 1
            assert stats["entries"] == 1 and stats["cached_tasks"] == 1
        finally:
            clear_structure_cache()

    def test_lru_eviction_respects_task_budget(self, monkeypatch):
        from repro.graph.builder import (clear_structure_cache,
                                         structure_cache_get,
                                         structure_cache_put,
                                         structure_cache_stats)
        monkeypatch.setenv("REPRO_STRUCTURE_CACHE_TASKS", "5")

        def structure_with(num_tasks):
            asm = FlatAssembler()
            for index in range(num_tasks):
                asm.add(0, COMPUTE_STREAM, 1.0, KIND_COMPUTE, f"t{index}")
            return asm.compile(num_devices=1)

        clear_structure_cache()
        try:
            structure_cache_put("a", structure_with(3))
            structure_cache_put("b", structure_with(2))
            structure_cache_get("a")  # refresh 'a' so 'b' is LRU
            structure_cache_put("c", structure_with(2))
            assert structure_cache_get("b") is None  # evicted
            assert structure_cache_get("a") is not None
            assert structure_cache_get("c") is not None
            assert structure_cache_stats()["evictions"] == 1
        finally:
            clear_structure_cache()

    def test_malformed_budget_raises_naming_the_variable(self, monkeypatch):
        from repro.errors import ConfigError
        from repro.graph.builder import (clear_structure_cache,
                                         structure_cache_put,
                                         structure_cache_stats)
        asm = FlatAssembler()
        asm.add(0, COMPUTE_STREAM, 1.0, KIND_COMPUTE, "a")
        structure = asm.compile(num_devices=1)
        clear_structure_cache()
        try:
            for raw in ("lots", "1e6", "-5", ""):
                monkeypatch.setenv("REPRO_STRUCTURE_CACHE_TASKS", raw)
                with pytest.raises(ConfigError,
                                   match="REPRO_STRUCTURE_CACHE_TASKS"):
                    structure_cache_put("k", structure)
                assert structure_cache_stats()["entries"] == 0
        finally:
            clear_structure_cache()

    def test_cached_task_total_tracks_every_mutation(self, monkeypatch):
        from repro.graph.builder import (_STRUCTURE_CACHE,
                                         clear_structure_cache,
                                         structure_cache_evict,
                                         structure_cache_put,
                                         structure_cache_stats)
        monkeypatch.setenv("REPRO_STRUCTURE_CACHE_TASKS", "6")

        def structure_with(num_tasks):
            asm = FlatAssembler()
            for index in range(num_tasks):
                asm.add(0, COMPUTE_STREAM, 1.0, KIND_COMPUTE, f"t{index}")
            return asm.compile(num_devices=1)

        def summed():
            return sum(entry.num_tasks for entry in _STRUCTURE_CACHE.values())

        clear_structure_cache()
        try:
            steps = [("put", "a", 3), ("put", "b", 2), ("put", "a", 1),
                     ("put", "c", 4), ("evict", "c", 0), ("evict", "x", 0),
                     ("put", "d", 9)]
            for action, key, size in steps:
                if action == "put":
                    structure_cache_put(key, structure_with(size))
                else:
                    structure_cache_evict(key)
                assert structure_cache_stats()["cached_tasks"] == summed()
            # The oversized entry stays alone rather than emptying the
            # cache.
            assert structure_cache_stats()["entries"] == 1
            assert structure_cache_stats()["cached_tasks"] == 9
            clear_structure_cache()
            assert structure_cache_stats()["cached_tasks"] == 0
        finally:
            clear_structure_cache()
