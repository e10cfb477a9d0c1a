"""Unit tests for the profiling module: decomposition, CUPTI, lookup."""

import pytest

from repro.config.parallelism import RecomputeMode
from repro.graph.operators import CompOperator, OpKind
from repro.hardware.gpu import A100_80GB
from repro.hardware.kernels import DeviceModel, KernelKind
from repro.profiling.cupti import CuptiTracer
from repro.profiling.decomposition import OperatorDecomposer
from repro.profiling.lookup import OperatorToTaskTable


@pytest.fixture
def decomposer():
    return OperatorDecomposer(DeviceModel(A100_80GB))


def mha(kind=OpKind.FWD_MHA, t=2, recompute=RecomputeMode.NONE):
    return CompOperator(kind=kind, micro_batch=2, seq_length=128,
                        hidden_size=512, num_heads=8, tensor_parallel=t,
                        recompute=recompute)


def ffn(kind=OpKind.FWD_FFN, t=2, recompute=RecomputeMode.NONE):
    return CompOperator(kind=kind, micro_batch=2, seq_length=128,
                        hidden_size=512, num_heads=8, tensor_parallel=t,
                        recompute=recompute)


class TestDecomposition:
    def test_fwd_mha_kernel_mix(self, decomposer):
        kernels = decomposer.decompose(mha())
        names = [k.name for k in kernels]
        assert any("qkv_proj" in n for n in names)
        assert any("softmax" in n for n in names)
        assert any("attn_context" in n for n in names)
        assert any("layer_norm" in n for n in names)

    def test_fwd_ffn_has_two_gemms(self, decomposer):
        kernels = decomposer.decompose(ffn())
        gemms = [k for k in kernels if k.kind is KernelKind.GEMM]
        assert len(gemms) == 2

    def test_backward_has_dgrad_and_wgrad(self, decomposer):
        kernels = decomposer.decompose(ffn(kind=OpKind.BWD_FFN))
        names = " ".join(k.name for k in kernels)
        assert "dgrad" in names and "wgrad" in names

    def test_backward_flops_about_twice_forward(self, decomposer):
        fwd = sum(k.flops for k in decomposer.decompose(ffn()))
        bwd = sum(k.flops for k in decomposer.decompose(
            ffn(kind=OpKind.BWD_FFN)))
        assert bwd == pytest.approx(2 * fwd, rel=0.15)

    def test_full_recompute_replays_forward(self, decomposer):
        plain = decomposer.decompose(mha(kind=OpKind.BWD_MHA))
        recomputed = decomposer.decompose(
            mha(kind=OpKind.BWD_MHA, recompute=RecomputeMode.FULL))
        assert len(recomputed) > len(plain)
        fwd_len = len(decomposer.decompose(mha()))
        assert len(recomputed) == len(plain) + fwd_len

    def test_selective_recompute_replays_attention_core(self, decomposer):
        plain = decomposer.decompose(mha(kind=OpKind.BWD_MHA))
        selective = decomposer.decompose(
            mha(kind=OpKind.BWD_MHA, recompute=RecomputeMode.SELECTIVE))
        full = decomposer.decompose(
            mha(kind=OpKind.BWD_MHA, recompute=RecomputeMode.FULL))
        assert len(plain) < len(selective) < len(full)

    def test_ffn_selective_recompute_is_free(self, decomposer):
        """Selective recompute only touches attention, not the FFN."""
        plain = decomposer.decompose(ffn(kind=OpKind.BWD_FFN))
        selective = decomposer.decompose(
            ffn(kind=OpKind.BWD_FFN, recompute=RecomputeMode.SELECTIVE))
        assert len(plain) == len(selective)

    def test_tensor_parallel_shrinks_duration(self, decomposer):
        t1 = sum(k.duration for k in decomposer.decompose(mha(t=1)))
        t4 = sum(k.duration for k in decomposer.decompose(mha(t=4)))
        assert t4 < t1

    def test_lm_head_dominated_by_vocab_gemm(self, decomposer):
        op = CompOperator(kind=OpKind.FWD_LM_HEAD, micro_batch=2,
                          seq_length=128, hidden_size=512, num_heads=8,
                          tensor_parallel=1, vocab_size=32_000)
        kernels = decomposer.decompose(op)
        gemm = max(kernels, key=lambda k: k.flops)
        assert gemm.flops == pytest.approx(2 * 256 * 32_000 * 512)

    def test_weight_update_kernels(self, decomposer):
        op = CompOperator(kind=OpKind.WEIGHT_UPDATE, num_params=1_000_000)
        kernels = decomposer.decompose(op)
        assert any(k.kind is KernelKind.OPTIMIZER for k in kernels)

    def test_embedding_ops(self, decomposer):
        fwd = CompOperator(kind=OpKind.FWD_EMBEDDING, micro_batch=1,
                           seq_length=64, hidden_size=256, num_heads=4,
                           tensor_parallel=1, vocab_size=1024)
        kernels = decomposer.decompose(fwd)
        assert any(k.kind is KernelKind.EMBEDDING for k in kernels)


class TestCuptiTracer:
    def test_trace_records_have_correlation_ids(self):
        tracer = CuptiTracer(DeviceModel(A100_80GB))
        tracer.trace_operator(mha())
        ids = [record.correlation_id for record in tracer.records]
        assert ids == list(range(len(ids)))

    def test_task_to_layer_mapping(self):
        tracer = CuptiTracer(DeviceModel(A100_80GB))
        op = mha()
        kernels = tracer.trace_operator(op)
        assert tracer.kernels_for(op) == kernels

    def test_determinism_across_runs(self):
        tracer = CuptiTracer(DeviceModel(A100_80GB))
        first = tracer.trace_operator(mha())
        second = tracer.trace_operator(mha())
        assert [k.duration for k in first] == [k.duration for k in second]

    def test_stats_count_everything(self):
        tracer = CuptiTracer(DeviceModel(A100_80GB))
        tracer.trace_operator(mha())
        tracer.trace_operator(ffn())
        assert tracer.stats.operators_profiled == 2
        assert tracer.stats.kernels_traced == len(tracer.records)
        assert len(tracer.stats.signatures) == 2

    def test_reset(self):
        tracer = CuptiTracer(DeviceModel(A100_80GB))
        tracer.trace_operator(mha())
        tracer.reset()
        assert not tracer.records
        assert tracer.stats.operators_profiled == 0


class TestLookupTable:
    def test_necessary_operator_profiled_once(self):
        """The Section III-C O(1) property: repeated lookups of the same
        signature never re-profile."""
        tracer = CuptiTracer(DeviceModel(A100_80GB))
        table = OperatorToTaskTable(tracer)
        for _ in range(100):
            table.tasks_for(mha())
        assert table.num_profiled == 1
        assert table.num_reused == 99
        assert tracer.stats.operators_profiled == 1

    def test_distinct_signatures_profiled_separately(self):
        table = OperatorToTaskTable(CuptiTracer(DeviceModel(A100_80GB)))
        table.tasks_for(mha(t=1))
        table.tasks_for(mha(t=2))
        assert table.num_profiled == 2
        assert len(table) == 2

    def test_duration_is_sum_of_kernels(self):
        table = OperatorToTaskTable(CuptiTracer(DeviceModel(A100_80GB)))
        op = ffn()
        assert table.duration_of(op) == pytest.approx(
            sum(k.duration for k in table.tasks_for(op)))

    def test_duration_is_the_kernel_sum_bit_for_bit(self):
        """The stored sum is the one ``tasks_for`` would give, and a
        ``duration_of`` counts one hit or miss like ``tasks_for``."""
        ops = [mha(), ffn(), mha(OpKind.BWD_MHA, recompute=RecomputeMode.FULL),
               CompOperator(OpKind.FWD_MHA, micro_batch=4, seq_length=1,
                            hidden_size=512, num_heads=8, kv_length=160),
               CompOperator(OpKind.FWD_LM_HEAD, micro_batch=2,
                            seq_length=128, hidden_size=512, num_heads=8,
                            vocab_size=32_000),
               CompOperator(OpKind.WEIGHT_UPDATE, num_params=12_345_678)]
        by_duration = OperatorToTaskTable(CuptiTracer(DeviceModel(A100_80GB)))
        by_tasks = OperatorToTaskTable(CuptiTracer(DeviceModel(A100_80GB)))
        for _ in range(2):
            for op in ops:
                duration = by_duration.duration_of(op)
                assert duration == sum(k.duration
                                       for k in by_tasks.tasks_for(op))
                assert (by_duration.num_profiled, by_duration.num_reused) \
                    == (by_tasks.num_profiled, by_tasks.num_reused)
        assert by_duration.num_profiled == len(ops)
        assert by_duration.num_reused == len(ops)

    def test_contains(self):
        table = OperatorToTaskTable(CuptiTracer(DeviceModel(A100_80GB)))
        op = mha()
        assert op not in table
        table.tasks_for(op)
        assert op in table
