"""Unit and structural tests for the execution-graph builder.

These tests verify the paper's graph-construction semantics: operator
counts, communication-operator insertion (Figures 5, 6), pipeline
dependencies (Figure 8), gradient-bucketing edges, and the exactness of
granularity aggregation.
"""

import pytest

from repro.config.parallelism import (ParallelismConfig, PipelineSchedule,
                                      RecomputeMode)
from repro.config.system import multi_node, single_node
from repro.errors import ConfigError
from repro.graph.builder import Granularity, GraphBuilder
from repro.graph.structure import (KIND_DP_COMM, KIND_PP_COMM,
                                   KIND_TP_COMM, KIND_WEIGHT_UPDATE)
from repro.profiling.cupti import CuptiTracer
from repro.profiling.lookup import OperatorToTaskTable
from repro.profiling.nccl import NcclModel
from repro.hardware.kernels import DeviceModel
from repro.sim.engine import simulate_retimed


def build(model, plan, training, system=None,
          granularity=Granularity.OPERATOR):
    """The plan's compiled structure (compiling raises on a cycle)."""
    system = system or single_node()
    device = DeviceModel(system.gpu)
    lookup = OperatorToTaskTable(CuptiTracer(device))
    builder = GraphBuilder(model, system, plan, training, lookup,
                           NcclModel(system), granularity)
    return builder.compile()


def iteration_time(model, plan, training, **kwargs):
    return simulate_retimed(build(model, plan, training,
                                  **kwargs)).iteration_time


def of_kind(graph, kind):
    """Replay positions of every task tagged ``kind``."""
    return [pos for pos, index in enumerate(graph.kind_index.tolist())
            if graph.kinds[index] == kind]


class TestStructure:
    def test_acyclic(self, tiny_model, training):
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2,
                                 micro_batch_size=2)
        graph = build(tiny_model, plan, training)
        for pos, children in enumerate(graph.children_view):
            assert all(pos < child for child in children)

    def test_num_devices_equals_pipeline_depth(self, tiny_model, training):
        plan = ParallelismConfig(tensor=1, data=2, pipeline=4)
        graph = build(tiny_model, plan, training)
        assert graph.num_devices == 4

    def test_weight_update_per_stage(self, tiny_model, training):
        plan = ParallelismConfig(tensor=1, data=1, pipeline=4)
        graph = build(tiny_model, plan, training)
        updates = of_kind(graph, KIND_WEIGHT_UPDATE)
        assert len(updates) == 4
        assert {graph.device_ids[pos] for pos in updates} == {0, 1, 2, 3}

    @pytest.mark.parametrize("granularity", list(Granularity))
    def test_lazy_views_follow_the_replay_permutation(self, tiny_model,
                                                      training, granularity):
        """Labels, streams, durations and payloads a structure builds on
        first read are the emitted tasks', permuted into replay order,
        and each payload is the operator behind the task's slot."""
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2,
                                 micro_batch_size=2)
        system = single_node()
        lookup = OperatorToTaskTable(CuptiTracer(DeviceModel(system.gpu)))
        builder = GraphBuilder(tiny_model, system, plan, training, lookup,
                               NcclModel(system), granularity)
        graph = builder.compile()
        asm = builder.assemble()
        order = graph.task_ids
        assert list(graph.label) == [asm.label[task] for task in order]
        assert list(graph.stream) == [asm.stream[task] for task in order]
        assert graph.duration_view == [asm.duration[task] for task in order]
        for pos, task in enumerate(order):
            payload = graph.payload[pos]
            assert payload is asm.payload[task]
            tag, _, rest = graph.slot_keys[graph.slot_index[pos]].partition(":")
            if tag == "op":
                assert payload.kind.value == rest
            elif tag == "k":
                assert asm.label[task].endswith("/" + payload.name)
            elif tag == "tp_ar":
                assert payload is builder.tp_ar
            elif tag == "dp":
                stage, bucket = map(int, rest.split(":"))
                assert payload is builder._dp_comms[(stage, bucket)]
            elif tag == "wu":
                assert payload is builder._wu_ops[int(rest)]
            else:  # P2P hops and stage-granularity chunks
                assert payload is None

    def test_plan_exceeding_system_rejected(self, tiny_model, training):
        plan = ParallelismConfig(tensor=8, data=2, pipeline=1)
        with pytest.raises(ConfigError):
            build(tiny_model, plan, training, system=single_node())


class TestTensorParallelComm:
    def test_tp_allreduce_count(self, tiny_model, training):
        """2 ARs per layer per direction + 1 after the embedding, per
        micro-batch (Figure 6)."""
        plan = ParallelismConfig(tensor=2, data=1, pipeline=1,
                                 micro_batch_size=4)
        graph = build(tiny_model, plan, training)
        nmb = 16 // 4
        ars = of_kind(graph, KIND_TP_COMM)
        expected = nmb * (4 * tiny_model.num_layers + 1)
        assert len(ars) == expected

    def test_no_tp_comm_when_t_is_1(self, tiny_model, training):
        plan = ParallelismConfig(tensor=1, data=2, pipeline=1)
        graph = build(tiny_model, plan, training)
        assert not of_kind(graph, KIND_TP_COMM)

    def test_tp_allreduce_is_sequential_dependency(self, tiny_model, training):
        """TP All-Reduce lives on the compute stream (Figure 6: it blocks
        the next block's compute)."""
        plan = ParallelismConfig(tensor=2, data=1, pipeline=1)
        graph = build(tiny_model, plan, training)
        for pos in of_kind(graph, KIND_TP_COMM):
            assert graph.stream[pos] == "compute"


class TestDataParallelComm:
    def test_bucket_count(self, tiny_model, training):
        plan = ParallelismConfig(tensor=1, data=2, pipeline=1,
                                 num_gradient_buckets=4)
        graph = build(tiny_model, plan, training)
        ars = of_kind(graph, KIND_DP_COMM)
        assert len(ars) == 4  # min(4 buckets, 4 layers)

    def test_bucketing_disabled_single_allreduce(self, tiny_model, training):
        """Figure 5(b): one All-Reduce at the very end of backward."""
        plan = ParallelismConfig(tensor=1, data=2, pipeline=1,
                                 gradient_bucketing=False)
        graph = build(tiny_model, plan, training)
        ars = of_kind(graph, KIND_DP_COMM)
        assert len(ars) == 1

    def test_no_dp_comm_when_d_is_1(self, tiny_model, training):
        plan = ParallelismConfig(tensor=2, data=1, pipeline=2)
        graph = build(tiny_model, plan, training)
        assert not of_kind(graph, KIND_DP_COMM)

    def test_dp_allreduce_on_comm_stream(self, tiny_model, training):
        """Figure 5(a): bucket All-Reduces overlap backward compute."""
        plan = ParallelismConfig(tensor=1, data=2, pipeline=1)
        graph = build(tiny_model, plan, training)
        for pos in of_kind(graph, KIND_DP_COMM):
            assert graph.stream[pos] == "comm"

    def test_bucket_sizes_sum_to_stage_gradients(self, tiny_model, training):
        plan = ParallelismConfig(tensor=1, data=2, pipeline=1,
                                 num_gradient_buckets=3)
        system = single_node()
        device = DeviceModel(system.gpu)
        lookup = OperatorToTaskTable(CuptiTracer(device))
        builder = GraphBuilder(tiny_model, system, plan, training, lookup,
                               NcclModel(system))
        total = sum(builder._bucket_bytes(0, k)
                    for k in range(len(builder.bucket_layers)))
        expected = 2.0 * builder.stage_params[0]
        assert total == pytest.approx(expected)


class TestPipelineComm:
    def test_send_recv_count(self, tiny_model, training):
        """2 x (p-1) x NMB Send-Receives (forward + backward)."""
        plan = ParallelismConfig(tensor=1, data=1, pipeline=4,
                                 micro_batch_size=4)
        graph = build(tiny_model, plan, training)
        nmb = 4
        sends = of_kind(graph, KIND_PP_COMM)
        assert len(sends) == 2 * 3 * nmb

    def test_no_pp_comm_single_stage(self, tiny_model, training):
        plan = ParallelismConfig(tensor=1, data=2, pipeline=1)
        graph = build(tiny_model, plan, training)
        assert not of_kind(graph, KIND_PP_COMM)


class TestGranularityConsistency:
    """Coarser graphs must predict the same iteration time: operator
    durations are exact sums of their kernels (single-stream execution)."""

    @pytest.mark.parametrize("plan", [
        ParallelismConfig(tensor=2, data=2, pipeline=2, micro_batch_size=2),
        ParallelismConfig(tensor=1, data=1, pipeline=4, micro_batch_size=1),
        ParallelismConfig(tensor=4, data=2, pipeline=1, micro_batch_size=4,
                          schedule=PipelineSchedule.GPIPE),
    ])
    def test_kernel_vs_operator_identical(self, tiny_model, training, plan):
        op_time = iteration_time(tiny_model, plan, training,
                                 granularity=Granularity.OPERATOR)
        kernel_time = iteration_time(tiny_model, plan, training,
                                     granularity=Granularity.KERNEL)
        assert kernel_time == pytest.approx(op_time, rel=1e-9)

    def test_stage_close_to_operator(self, tiny_model, training):
        """Stage granularity is an aggregation, not an approximation of
        compute; only comm-overlap timing differs slightly."""
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2,
                                 micro_batch_size=2)
        op_time = iteration_time(tiny_model, plan, training,
                                 granularity=Granularity.OPERATOR)
        stage_time = iteration_time(tiny_model, plan, training,
                                    granularity=Granularity.STAGE)
        assert stage_time == pytest.approx(op_time, rel=0.05)

    def test_stage_granularity_much_smaller(self, tiny_model, training):
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2,
                                 micro_batch_size=1)
        op_graph = build(tiny_model, plan, training,
                         granularity=Granularity.OPERATOR)
        stage_graph = build(tiny_model, plan, training,
                            granularity=Granularity.STAGE)
        assert stage_graph.num_tasks < op_graph.num_tasks / 3


class TestRecompute:
    def test_full_recompute_slower_than_selective(self, tiny_model, training):
        base = dict(tensor=1, data=1, pipeline=1, micro_batch_size=2)
        fast = iteration_time(
            tiny_model,
            ParallelismConfig(recompute=RecomputeMode.SELECTIVE, **base),
            training)
        slow = iteration_time(
            tiny_model,
            ParallelismConfig(recompute=RecomputeMode.FULL, **base),
            training)
        assert slow > fast

    def test_none_recompute_fastest(self, tiny_model, training):
        base = dict(tensor=1, data=1, pipeline=1, micro_batch_size=2)
        none = iteration_time(
            tiny_model, ParallelismConfig(recompute=RecomputeMode.NONE, **base),
            training)
        selective = iteration_time(
            tiny_model,
            ParallelismConfig(recompute=RecomputeMode.SELECTIVE, **base),
            training)
        assert none < selective


class TestMultiNode:
    def test_internode_pipeline_hops_slower(self, small_model, training):
        """A pipeline crossing node boundaries pays InfiniBand latency."""
        plan = ParallelismConfig(tensor=8, data=1, pipeline=2)
        intra = iteration_time(small_model,
                               ParallelismConfig(tensor=2, data=1, pipeline=2),
                               training)
        inter_graph = build(small_model, plan, training,
                            system=multi_node(2))
        # Just verifying the build succeeds and produces inter-node sends.
        sends = of_kind(inter_graph, KIND_PP_COMM)
        assert sends and intra > 0
