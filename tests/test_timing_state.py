"""The builder timing-state memo.

A :class:`GraphBuilder` whose timing key was seen before on its lookup
table copies the memoised state in instead of recomputing it. These
tests pin that a memo hit is indistinguishable from a fresh build —
timing table, per-slot kernel counts, graph metadata and filled
durations, bit for bit — and that the key keeps apart what must not be
shared: a different interference, a topology-aware model of another
node count, another training plan.
"""

from __future__ import annotations

import random
import sys
import threading

import numpy as np
import pytest

import repro.graph.builder as builder_module
from repro.config.parallelism import (ParallelismConfig, PipelineSchedule,
                                      TrainingConfig)
from repro.config.system import multi_node
from repro.graph.builder import Granularity, GraphBuilder, timing_state_stats
from repro.hardware.gpu import A100_80GB
from repro.hardware.kernels import DeviceModel
from repro.network.model import nccl_model_for
from repro.profiling.cupti import CuptiTracer
from repro.profiling.lookup import OperatorToTaskTable
from repro.profiling.nccl import NcclModel
from repro.sim.estimator import VTrain
from repro.workload import DECODE, PREFILL, InferenceWorkload

TRAINING = TrainingConfig(global_batch_size=16)
WORKLOAD = InferenceWorkload(batch_size=8, prompt_len=128, gen_len=32)
FABRICS = ("flat", "rail", "fat-tree:2")

#: (label, plan, phase): training (plain and interleaved) and both
#: inference phases, on 4-GPU nodes (the prefill plan's tensor group
#: spans two of them).
CASES = [
    ("train", ParallelismConfig(tensor=2, data=2, pipeline=2), None),
    ("train-v2", ParallelismConfig(tensor=2, data=2, pipeline=2,
                                   virtual_stages=2), None),
    ("train-gpipe-nobucket", ParallelismConfig(
        tensor=4, data=2, pipeline=1, gradient_bucketing=False,
        schedule=PipelineSchedule.GPIPE), None),
    ("prefill", ParallelismConfig(tensor=8, data=2, pipeline=1), PREFILL),
    ("decode", ParallelismConfig(tensor=4, data=2, pipeline=2), DECODE),
]


def _table() -> OperatorToTaskTable:
    return OperatorToTaskTable(CuptiTracer(DeviceModel(A100_80GB)))


def _build(model, system, plan, phase, lookup, nccl, granularity):
    if phase is None:
        return GraphBuilder(model, system, plan, TRAINING, lookup, nccl,
                            granularity)
    return GraphBuilder(model, system, plan, None, lookup, nccl,
                        granularity, workload=WORKLOAD, phase=phase)


def _assert_same_state(hit: GraphBuilder, fresh: GraphBuilder) -> None:
    assert list(hit.timings.items()) == list(fresh.timings.items())
    assert hit.slot_kernel_counts() == fresh.slot_kernel_counts()
    assert hit.graph_metadata() == fresh.graph_metadata()
    assert hit.structure_key == fresh.structure_key
    structure = fresh.compile()
    assert hit.fill_durations(structure).tobytes() \
        == fresh.fill_durations(structure).tobytes()
    assert np.array_equal(hit.compile().duration, structure.duration)


class TestMemoHitEqualsFreshBuild:
    @pytest.mark.parametrize("granularity", list(Granularity))
    @pytest.mark.parametrize("fabric", FABRICS)
    @pytest.mark.parametrize("label,plan,phase", CASES,
                             ids=[case[0] for case in CASES])
    def test_hit_is_bit_identical(self, small_model, granularity, fabric,
                                  label, plan, phase):
        system = multi_node(4, gpus_per_node=4, network=fabric)
        lookup, nccl = _table(), nccl_model_for(system)
        # The donor seeds the memo: an inference plan of another
        # replica count, or the same training plan.
        donor = plan.replaced(data=1) if phase is not None else plan
        _build(small_model, system, donor, phase, lookup, nccl, granularity)
        before = timing_state_stats()
        hit = _build(small_model, system, plan, phase, lookup, nccl,
                     granularity)
        after = timing_state_stats()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]
        fresh = _build(small_model, system, plan, phase, _table(),
                       nccl_model_for(system), granularity)
        _assert_same_state(hit, fresh)

    @pytest.mark.parametrize("phase", [None, PREFILL, DECODE])
    def test_flat_systems_of_other_sizes_share_state(self, small_model,
                                                     phase):
        """A plain NcclModel never reads ``num_gpus``, so a larger
        system's simulator reuses the state and still answers exactly
        what a fresh build on it would."""
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2)
        lookup = _table()
        small = multi_node(2, gpus_per_node=4)
        large = multi_node(8, gpus_per_node=4)
        _build(small_model, small, plan, phase, lookup, NcclModel(small),
               Granularity.OPERATOR)
        hits = timing_state_stats()["hits"]
        hit = _build(small_model, large, plan, phase, lookup,
                     NcclModel(large), Granularity.OPERATOR)
        assert timing_state_stats()["hits"] == hits + 1
        fresh = _build(small_model, large, plan, phase, _table(),
                       NcclModel(large), Granularity.OPERATOR)
        _assert_same_state(hit, fresh)

    def test_zero3_predictions_match_a_cold_simulator(self, small_model):
        """ZeRO-3 memory filtering on a warm memo leaves predictions
        unchanged."""
        system = multi_node(2, gpus_per_node=4)
        warm = VTrain(system, zero_stage=3)
        plans = [ParallelismConfig(tensor=2, data=d, pipeline=2)
                 for d in (1, 2)]
        for plan in plans:
            warm.predict(small_model, plan, TRAINING)
        for plan in plans:
            hits = timing_state_stats()["hits"]
            again = warm.predict(small_model, plan, TRAINING)
            assert timing_state_stats()["hits"] == hits + 1
            cold = VTrain(system, zero_stage=3).predict(small_model, plan,
                                                        TRAINING)
            assert again.iteration_time == cold.iteration_time
            assert again.memory_per_gpu == cold.memory_per_gpu


class TestKeySeparation:
    def _misses(self, small_model, first, second, plan=None, phase=None):
        plan = plan or ParallelismConfig(tensor=2, data=2, pipeline=2)
        lookup = _table()
        system_a, nccl_a = first
        system_b, nccl_b = second
        _build(small_model, system_a, plan, phase, lookup, nccl_a,
               Granularity.OPERATOR)
        misses = timing_state_stats()["misses"]
        second_builder = _build(small_model, system_b, plan, phase, lookup,
                                nccl_b, Granularity.OPERATOR)
        missed = timing_state_stats()["misses"] - misses
        fresh = _build(small_model, system_b, plan, phase, _table(),
                       nccl_b, Granularity.OPERATOR)
        assert list(second_builder.timings.items()) \
            == list(fresh.timings.items())
        return missed

    @pytest.mark.parametrize("phase", [None, DECODE])
    def test_interference_is_part_of_the_key(self, small_model, phase):
        system = multi_node(2, gpus_per_node=4)
        assert self._misses(
            small_model, (system, NcclModel(system)),
            (system, NcclModel(system, interference=1.3)),
            phase=phase) == 1

    def test_rail_systems_of_other_node_counts_do_not_share(self,
                                                            small_model):
        """The topology-aware model reads the node count, so it is its
        own key: equal-valued rail models of 2 and 4 nodes miss."""
        rail2 = multi_node(2, gpus_per_node=4, network="rail")
        rail4 = multi_node(4, gpus_per_node=4, network="rail")
        model2, model4 = nccl_model_for(rail2), nccl_model_for(rail4)
        assert model2.timing_key() is model2
        assert self._misses(small_model, (rail2, model2),
                            (rail4, model4)) == 1

    def test_training_plans_of_other_degrees_do_not_share(self,
                                                          small_model):
        system = multi_node(2, gpus_per_node=4)
        nccl = NcclModel(system)
        lookup = _table()
        _build(small_model, system, ParallelismConfig(tensor=2, data=1,
                                                      pipeline=2),
               None, lookup, nccl, Granularity.STAGE)
        misses = timing_state_stats()["misses"]
        _build(small_model, system, ParallelismConfig(tensor=2, data=2,
                                                      pipeline=2),
               None, lookup, nccl, Granularity.STAGE)
        assert timing_state_stats()["misses"] == misses + 1

    def test_phases_and_training_do_not_share(self, small_model):
        """One plan's training, prefill and decode states are three
        states, each equal to a fresh build's."""
        system = multi_node(2, gpus_per_node=4)
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2)
        lookup, nccl = _table(), NcclModel(system)
        misses = timing_state_stats()["misses"]
        for phase in (None, PREFILL, DECODE):
            built = _build(small_model, system, plan, phase, lookup, nccl,
                           Granularity.STAGE)
            fresh = _build(small_model, system, plan, phase, _table(),
                           NcclModel(system), Granularity.STAGE)
            assert list(built.timings.items()) \
                == list(fresh.timings.items())
        # Three shared-table misses plus three fresh-table misses.
        assert timing_state_stats()["misses"] == misses + 6

    def test_flat_key_ignores_only_the_gpu_count(self):
        small, large = multi_node(1), multi_node(16)
        assert NcclModel(small).timing_key() == NcclModel(large).timing_key()
        assert NcclModel(small).timing_key() != NcclModel(
            multi_node(1, gpus_per_node=4)).timing_key()


class TestBound:
    def test_memo_is_lru_bounded(self, small_model, monkeypatch):
        monkeypatch.setattr(builder_module, "TIMING_STATE_ENTRIES", 2)
        system = multi_node(2, gpus_per_node=4)
        lookup, nccl = _table(), NcclModel(system)
        plans = [ParallelismConfig(tensor=t, data=1, pipeline=2)
                 for t in (1, 2, 4)]
        evictions = timing_state_stats()["evictions"]
        for plan in plans:
            _build(small_model, system, plan, None, lookup, nccl,
                   Granularity.STAGE)
        assert len(lookup.timing_states) == 2
        assert timing_state_stats()["evictions"] == evictions + 1
        # The oldest state was evicted, so its plan misses again.
        misses = timing_state_stats()["misses"]
        _build(small_model, system, plans[0], None, lookup, nccl,
               Granularity.STAGE)
        assert timing_state_stats()["misses"] == misses + 1

    def test_fresh_simulators_start_cold(self, small_model):
        system = multi_node(2, gpus_per_node=4)
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2)
        VTrain(system).predict(small_model, plan, TRAINING)
        misses = timing_state_stats()["misses"]
        VTrain(system).predict(small_model, plan, TRAINING)
        assert timing_state_stats()["misses"] == misses + 1


class TestConcurrency:
    def test_racing_builders_share_one_memo(self, small_model, monkeypatch):
        """Eight threads (more than cores) build decode graphs on one
        table whose memo holds fewer states than they use: every
        builder still equals a fresh build, every build counts one hit
        or one miss, and the memo never outgrows its bound."""
        monkeypatch.setattr(builder_module, "TIMING_STATE_ENTRIES", 4)
        system = multi_node(4, gpus_per_node=4)
        lookup, nccl = _table(), NcclModel(system)
        plans = [ParallelismConfig(tensor=t, data=d, pipeline=p)
                 for t in (1, 2, 4) for d in (1, 2) for p in (1, 2)]
        expected = {plan: list(_build(small_model, system, plan, DECODE,
                                      _table(), NcclModel(system),
                                      Granularity.STAGE).timings.items())
                    for plan in plans}
        rounds, workers = 20, 8
        errors: list[str] = []
        sizes: list[int] = []

        def work(seed: int) -> None:
            order = plans * rounds
            random.Random(seed).shuffle(order)
            for plan in order:
                built = _build(small_model, system, plan, DECODE, lookup,
                               nccl, Granularity.STAGE)
                if list(built.timings.items()) != expected[plan]:
                    errors.append(f"{plan.way}: timings differ")
                sizes.append(len(lookup.timing_states))

        before = timing_state_stats()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,))
                       for seed in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        after = timing_state_stats()
        assert (after["hits"] - before["hits"]
                + after["misses"] - before["misses"]) \
            == rounds * workers * len(plans)
        assert max(sizes) <= 4

