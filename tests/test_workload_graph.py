"""Tests for the prefill/decode phase graphs and the training goldens.

The refactor's load-bearing claims:

* **training is bit-identical** — graphs, fingerprints, iteration
  times, and utilizations match byte-for-byte goldens captured before
  the workload layer landed, at every granularity;
* a **prefill graph is exactly the forward-only subgraph** of the
  matching training graph (same labels, devices, streams, durations —
  only the compute ``kind`` differs);
* a **decode graph** is a single-token forward step whose latency is
  monotone in KV-cache depth and batch size;
* workload-tagged fingerprints never collide across workloads or
  phases, so the structure cache can never serve a prefill structure
  for a training predict (or vice versa);
* decode-phase timelines round-trip exactly through the Chrome-trace
  exporter, with ``prefill``/``decode`` as event categories.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

import numpy as np

from repro.config.parallelism import (ParallelismConfig, PipelineSchedule,
                                      TrainingConfig)
from repro.config.presets import (GPT3_175B, GPT3_TRAINING, MT_NLG_530B,
                                  MT_NLG_TRAINING)
from repro.config.system import multi_node, single_node
from repro.errors import ConfigError
from repro.graph.builder import (GraphBuilder, Granularity,
                                 clear_structure_cache,
                                 structure_fingerprint)
from repro.obs.export import events_from_trace, simulation_trace_events
from repro.sim.engine import simulate_reference
from repro.sim.estimator import VTrain
from repro.workload import (DECODE, INFERENCE_PHASES, PREFILL,
                            InferenceWorkload, TrainingWorkload)

# ---------------------------------------------------------------------------
# Goldens captured at the pre-workload HEAD (tiny model, B=16 training,
# one A100 node). Keys: plan name -> granularity -> (iteration_time,
# gpu_compute_utilization, graph sha256, task count). Any drift here is
# a behaviour change in the training path, which this PR promises not
# to make.
# ---------------------------------------------------------------------------
GOLDEN_PLANS = {
    "tp2dp2pp2": ParallelismConfig(tensor=2, data=2, pipeline=2,
                                   micro_batch_size=2),
    "tp1dp1pp4": ParallelismConfig(tensor=1, data=1, pipeline=4,
                                   micro_batch_size=4),
    "tp2dp1pp2v2": ParallelismConfig(tensor=2, data=1, pipeline=2,
                                     micro_batch_size=2, virtual_stages=2),
    # Shapes the chunk-template stamp special-cases; pinned from the
    # per-task emitter it replaced.
    "tp2dp2pp2gpipe": ParallelismConfig(tensor=2, data=2, pipeline=2,
                                        micro_batch_size=2,
                                        schedule=PipelineSchedule.GPIPE),
    "tp2dp2pp2nobucket": ParallelismConfig(tensor=2, data=2, pipeline=2,
                                           micro_batch_size=2,
                                           gradient_bucketing=False),
    # p=1, and 3 gradient buckets over 4 layers (sizes 2, 1, 1).
    "tp2dp4pp1b3": ParallelismConfig(tensor=2, data=4, pipeline=1,
                                     micro_batch_size=2,
                                     num_gradient_buckets=3),
    # One gradient bucket spanning both model chunks of each stage.
    "tp1dp2pp2v2b1": ParallelismConfig(tensor=1, data=2, pipeline=2,
                                       micro_batch_size=2, virtual_stages=2,
                                       num_gradient_buckets=1),
    # No TP, DP, or PP tasks at all: one compute chain and its update.
    "tp1dp1pp1": ParallelismConfig(tensor=1, data=1, pipeline=1,
                                   micro_batch_size=4),
}

GOLDENS = {
    ("tp2dp2pp2", Granularity.KERNEL): (
        0.0019234877649131857, 0.15934950892867497,
        "433381226aaa65da1122e48c66aedc621e183771bbeb194cae25f28a4752b149",
        722),
    ("tp2dp2pp2", Granularity.OPERATOR): (
        0.0019234877649131846, 0.15934950892867508,
        "5c1da55cde6bce4e8e8ac7857df41be15d04be2b75720de8bf1710b1b9d395d1",
        162),
    ("tp2dp2pp2", Granularity.STAGE): (
        0.0019234877649131868, 0.1593495089286749,
        "640fd2771b4b4db8a145f0e2ae76a3115975556cc3fb78933e5702171b0150c0",
        32),
    ("tp1dp1pp4", Granularity.KERNEL): (
        0.0035623909944771178, 0.17207927554522653,
        "84a34f16d79dfcf313b1bfcb01caf96426b95ec29c0796db512b8bf2839fb6fe",
        668),
    ("tp1dp1pp4", Granularity.OPERATOR): (
        0.0035623909944771056, 0.17207927554522712,
        "f0409a85e663454b7cd6883e0703de52bf2938fa089ce1f17bff1f2978bbfbf2",
        108),
    ("tp1dp1pp4", Granularity.STAGE): (
        0.0035623909944771078, 0.172079275545227,
        "fda196c4d49e5ebd62ae9b0c61190b229947e29c66015ec0e2cf830e777b7810",
        60),
    ("tp2dp1pp2v2", Granularity.KERNEL): (
        0.0031419682269907016, 0.1951049842810125,
        "c55c07ab64ffb947b8d51b3ab74d6cbe26bd46b9b9295780cc46cd775fecf80b",
        1466),
    ("tp2dp1pp2v2", Granularity.OPERATOR): (
        0.003141968226990694, 0.195104984281013,
        "7e90a450b1444188c20807182da6db1001c13433ffab7f19a2d6fe80a2ef7802",
        346),
    ("tp2dp1pp2v2", Granularity.STAGE): (
        0.0031419682269906916, 0.1951049842810131,
        "e91ccd80f6c761a6a9662cafd855c7c90bfafadfb3d75e609cecdd53603cfd81",
        114),
    ("tp2dp2pp2gpipe", Granularity.KERNEL): (
        0.001923487764913186, 0.15934950892867494,
        "0024faf726bdbde82910f42b7037aa0e34d8c910d4362b45673b6bbc33528528",
        722),
    ("tp2dp2pp2gpipe", Granularity.OPERATOR): (
        0.0019234877649131846, 0.15934950892867508,
        "b9472d01b7ace074ac3afc703706d1d552816ef9c825fc3597fe9d072a15e8d2",
        162),
    ("tp2dp2pp2gpipe", Granularity.STAGE): (
        0.0019234877649131868, 0.1593495089286749,
        "7fa9183c77bc6091de66b0587fd835a02e026f075f090490d273dd52f1636bb7",
        32),
    ("tp2dp2pp2nobucket", Granularity.KERNEL): (
        0.0019371602100201443, 0.15822482269860552,
        "05cb517674c1dacfb32946244cbfedac041631960d51b00f7a4a70ebadcc7f9f",
        720),
    ("tp2dp2pp2nobucket", Granularity.OPERATOR): (
        0.0019371602100201433, 0.1582248226986056,
        "42f28b041c3590b12adcdfa9502ca1e97c812e59ca8f095ab881d78e029f6cca",
        160),
    ("tp2dp2pp2nobucket", Granularity.STAGE): (
        0.0019371602100201456, 0.1582248226986054,
        "5b818bbe26d8f783ca9b6db6fcd9e9aec018e9561de06d3076c2f8e33dc772dc",
        28),
    ("tp2dp4pp1b3", Granularity.KERNEL): (
        0.0015809761275125088, 0.19387189055883175,
        "6438e5b8c4f1583a843352ec5b1d80c7be768cb577be600900c0992ad9cf86ff",
        358),
    ("tp2dp4pp1b3", Granularity.OPERATOR): (
        0.0015809761275125099, 0.19387189055883164,
        "1e8aca9eec22a22c92635121cb99ec6b83b0ccbeb6e34d018076227526a90cd6",
        78),
    ("tp2dp4pp1b3", Granularity.STAGE): (
        0.0015809761275125105, 0.19387189055883156,
        "017800639511f6217856f1429298e8097eec3adc81d46a3235844e52165165c5",
        10),
    ("tp1dp2pp2v2b1", Granularity.KERNEL): (
        0.0027984912470407825, 0.21905148432630708,
        "60aacc4b808beddcf98d6d5bb5254aad1c4ff9aed729f3c6523f9601b5b872ce",
        668),
    ("tp1dp2pp2v2b1", Granularity.OPERATOR): (
        0.002798491247040782, 0.2190514843263071,
        "83f5bfe9d85fcacb99ec82eaeb23d17907ce857b405574046d7e375d22132c9b",
        108),
    ("tp1dp2pp2v2b1", Granularity.STAGE): (
        0.0027984912470407825, 0.21905148432630708,
        "08bcd77e0e19ea1bbd5539f1ded421c9578fec237b5d7eb3d45c4a6a65a92458",
        60),
    ("tp1dp1pp1", Granularity.KERNEL): (
        0.0053223379193783815, 0.46071006450492946,
        "33a02c43a2f73bc427776e5c1019225341f76d4bdebb79fe4864ad7144a0b665",
        641),
    ("tp1dp1pp1", Granularity.OPERATOR): (
        0.005322337919378364, 0.46071006450493096,
        "67ead48db4782c7c5475541998c57d7797c9a78d747c74826139c5c01465d4ca",
        81),
    ("tp1dp1pp1", Granularity.STAGE): (
        0.005322337919378368, 0.4607100645049306,
        "7eeb51fe2ace76f72db79e4f274c5ee1289836b70e22ee3458cc97fb2cbe446a",
        12),
}


def graph_digest(asm) -> str:
    """Canonical hash of everything structural + timed in an assembled
    (uncompiled) graph, row by row in emission order."""
    rows = [(task_id, asm.device[task_id], asm.stream[task_id],
             asm.kind[task_id], asm.label[task_id],
             repr(asm.duration[task_id]), tuple(asm.children[task_id]))
            for task_id in range(len(asm))]
    return hashlib.sha256(
        json.dumps(rows, sort_keys=True).encode()).hexdigest()


# Inference phase graphs of the ``plan`` fixture under the ``workload``
# fixture, pinned from the per-task emitter: phase -> granularity ->
# (reference-engine makespan, graph sha256, task count).
INFERENCE_GOLDENS = {
    (PREFILL, Granularity.KERNEL): (
        0.0005833974578414418,
        "eb218e109feeb8344456957d4f2c04f2c02559db7ee7e8358d21002231290961",
        288),
    (PREFILL, Granularity.OPERATOR): (
        0.0005833974578414417,
        "bb98e7355b270aabd57d70192e7b3468da3b0fbf8e02b760113294f9a5182dc8",
        80),
    (PREFILL, Granularity.STAGE): (
        0.0005833974578414417,
        "167cfb248df9d6f34c7e2189b1c42489e3e7fc9b1c437228ec8fcdd45d6822ed",
        12),
    (DECODE, Granularity.KERNEL): (
        0.00036996321129800016,
        "afe418faa8e3b2e093cf760861f689d09857e6e2429475e1d0049c79d304f9b1",
        288),
    (DECODE, Granularity.OPERATOR): (
        0.0003699632112980002,
        "cb8a498bc809d35bb642b590ed5d6c918d7171bb4069d28157a2773a78e6d817",
        80),
    (DECODE, Granularity.STAGE): (
        0.0003699632112980004,
        "cda3b362b4a46d9256447be192ab68e1980ad764110d099c70199e5b6b8cdc2d",
        12),
}

# Preset-scale plans: sha256 over the compiled replay arrays, so the
# full-size stamp (219,260 tasks for MT-NLG) is pinned, not only the
# tiny models. Keys: name -> (model, training, plan, granularity).
PRESET_PLANS = {
    "mt-nlg-8x8x35-operator": (
        MT_NLG_530B, MT_NLG_TRAINING,
        ParallelismConfig(tensor=8, data=8, pipeline=35,
                          micro_batch_size=1),
        Granularity.OPERATOR),
    "gpt3-8x16x8v2-operator": (
        GPT3_175B, GPT3_TRAINING,
        ParallelismConfig(tensor=8, data=16, pipeline=8,
                          micro_batch_size=1, virtual_stages=2),
        Granularity.OPERATOR),
}

PRESET_GOLDENS = {
    "mt-nlg-8x8x35-operator": (
        "b6044b87ba84bdb80faba426288009ee2b9e40e6ae62732594b8e4fd047f89e1",
        219260),
    "gpt3-8x16x8v2-operator": (
        "bde4a77b5295777ff8c97c6ab8be5d3e3e2f9ad145faad5efcc5b7e8ba2b6ea6",
        77128),
}


def structure_arrays_digest(structure) -> str:
    """sha256 over a compiled structure's replay arrays, each widened to
    little-endian int64 so the digest is platform-independent."""
    digest = hashlib.sha256()
    for name in ("task_id", "device", "kind_index", "slot_index",
                 "child_ptr", "child_idx"):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(
            getattr(structure, name), dtype="<i8").tobytes())
    return digest.hexdigest()


@pytest.fixture(autouse=True)
def clean_structure_cache():
    """Workload/phase keying is itself under test here; don't let a
    structure cached by another test module mask a collision."""
    clear_structure_cache()
    yield
    clear_structure_cache()


@pytest.fixture
def workload() -> InferenceWorkload:
    return InferenceWorkload(batch_size=8, prompt_len=128, gen_len=64)


@pytest.fixture
def plan() -> ParallelismConfig:
    return ParallelismConfig(tensor=2, data=2, pipeline=2,
                             micro_batch_size=2)


def make_vtrain(granularity: Granularity = Granularity.OPERATOR) -> VTrain:
    return VTrain(single_node(), granularity=granularity,
                  check_memory_feasibility=False)


# ---------------------------------------------------------------------------
# Training stays bit-identical
# ---------------------------------------------------------------------------
class TestTrainingGoldens:
    @pytest.mark.parametrize("plan_name,granularity",
                             list(GOLDENS), ids=lambda v: str(v))
    def test_training_graph_and_prediction_match_golden(
            self, tiny_model, training, plan_name, granularity,
            assemble_plan):
        expect_time, expect_util, expect_digest, expect_tasks = (
            GOLDENS[(plan_name, granularity)])
        vtrain = make_vtrain(granularity)
        plan = GOLDEN_PLANS[plan_name]
        asm, _ = assemble_plan(vtrain, tiny_model, plan, training)
        assert len(asm) == expect_tasks
        assert graph_digest(asm) == expect_digest
        estimate = vtrain.predict(tiny_model, plan, training)
        assert estimate.iteration_time == expect_time
        assert estimate.gpu_compute_utilization == expect_util

    @pytest.mark.parametrize("phase,granularity",
                             list(INFERENCE_GOLDENS), ids=lambda v: str(v))
    def test_inference_graph_matches_golden(self, tiny_model, plan,
                                            workload, phase, granularity):
        expect_time, expect_digest, expect_tasks = (
            INFERENCE_GOLDENS[(phase, granularity)])
        vtrain = make_vtrain(granularity)
        builder = GraphBuilder(tiny_model, vtrain.system, plan, None,
                               vtrain.lookup, vtrain.nccl, granularity,
                               workload=workload, phase=phase)
        asm = builder.assemble()
        assert len(asm) == expect_tasks
        assert graph_digest(asm) == expect_digest
        result = simulate_reference(asm, plan.pipeline)
        assert result.iteration_time == expect_time

    @pytest.mark.parametrize("name", list(PRESET_PLANS))
    def test_preset_structure_matches_golden(self, name):
        model, recipe, plan, granularity = PRESET_PLANS[name]
        system = multi_node(-(-plan.total_gpus // 8))
        vtrain = VTrain(system, granularity=granularity)
        structure = GraphBuilder(model, system, plan, recipe, vtrain.lookup,
                                 vtrain.nccl, granularity).compile()
        expect_digest, expect_tasks = PRESET_GOLDENS[name]
        assert structure.num_tasks == expect_tasks
        assert structure_arrays_digest(structure) == expect_digest

    def test_training_workload_dispatch_is_bit_identical(
            self, tiny_model, training, plan):
        """``predict(workload=TrainingWorkload(t))`` is the classic
        path, not a parallel implementation."""
        vtrain = make_vtrain()
        direct = vtrain.predict(tiny_model, plan, training)
        via_workload = vtrain.predict(
            tiny_model, plan, workload=TrainingWorkload(training))
        assert via_workload.iteration_time == direct.iteration_time
        assert (via_workload.gpu_compute_utilization
                == direct.gpu_compute_utilization)
        assert via_workload.memory_per_gpu == direct.memory_per_gpu

    def test_predict_without_training_or_workload_rejected(
            self, tiny_model, plan):
        from repro.errors import SimulationError
        with pytest.raises(SimulationError):
            make_vtrain().predict(tiny_model, plan)

    def test_training_fingerprint_carries_no_workload_tag(
            self, tiny_model, training, plan):
        fingerprint = structure_fingerprint(tiny_model, plan, training,
                                            Granularity.OPERATOR)
        assert "wl=" not in fingerprint and "ph=" not in fingerprint


# ---------------------------------------------------------------------------
# Prefill == training forward subgraph
# ---------------------------------------------------------------------------
def task_rows(structure, labels=None) -> Counter:
    """Multiset of (label, device, stream, duration) for a structure,
    optionally restricted to a label set. ``kind`` deliberately
    excluded: it is the one field allowed to differ."""
    rows: Counter = Counter()
    for position in range(structure.num_tasks):
        if labels is not None and structure.label[position] not in labels:
            continue
        rows[(structure.label[position],
              int(structure.device_ids[position]),
              structure.stream[position],
              repr(structure.duration_view[position]))] += 1
    return rows


class TestPrefillEquivalence:
    @pytest.mark.parametrize("granularity", list(Granularity))
    def test_prefill_is_the_forward_subgraph_of_training(
            self, tiny_model, training, plan, workload, granularity):
        """Same labels, devices, streams, and durations as the training
        graph's forward tasks — at every granularity. (The workload's
        proxy batch 8*d=16 matches the training fixture and prompt_len
        matches seq_length, so the graphs are directly comparable.)"""
        vtrain = make_vtrain(granularity)
        prefill = vtrain.prepare(tiny_model, plan, None,
                                 workload=workload,
                                 phase=PREFILL).structure
        train = vtrain.prepare(tiny_model, plan, training).structure
        prefill_labels = set(prefill.label)
        assert (task_rows(prefill)
                == task_rows(train, labels=prefill_labels))
        assert prefill.num_tasks < train.num_tasks

    def test_prefill_compute_kind_is_the_phase_tag(
            self, tiny_model, plan, workload):
        structure = make_vtrain().prepare(tiny_model, plan, None,
                                          workload=workload,
                                          phase=PREFILL).structure
        kinds = set(structure.kinds)
        assert PREFILL in kinds
        assert "compute" not in kinds

    @pytest.mark.parametrize("phase", INFERENCE_PHASES)
    def test_no_backward_optimizer_or_gradient_tasks(
            self, tiny_model, plan, workload, phase):
        structure = make_vtrain().prepare(tiny_model, plan, None,
                                          workload=workload,
                                          phase=phase).structure
        assert not set(structure.kinds) & {"compute", "dp_allreduce",
                                           "weight_update"}
        labels = " ".join(structure.label)
        assert "bucket" not in labels

    def test_inference_rejects_virtual_stages(self, tiny_model, workload):
        interleaved = ParallelismConfig(tensor=1, data=1, pipeline=2,
                                        micro_batch_size=2,
                                        virtual_stages=2)
        with pytest.raises(ConfigError):
            make_vtrain().prepare(tiny_model, interleaved, None,
                                  workload=workload, phase=PREFILL)


# ---------------------------------------------------------------------------
# Decode graph shape and latency model
# ---------------------------------------------------------------------------
class TestDecodeGraph:
    def test_decode_kinds(self, tiny_model, plan, workload):
        structure = make_vtrain().prepare(tiny_model, plan, None,
                                          workload=workload,
                                          phase=DECODE).structure
        assert DECODE in set(structure.kinds)
        assert "compute" not in set(structure.kinds)

    def test_decode_is_cheaper_than_prefill(self, tiny_model, plan,
                                            workload):
        """One generated token costs less than ingesting the prompt."""
        prediction = make_vtrain().predict_inference(tiny_model, plan,
                                                     workload)
        assert 0 < prediction.decode_step_time < prediction.prefill_time
        assert prediction.time_to_first_token == prediction.prefill_time
        assert prediction.time_per_output_token == (
            prediction.decode_step_time)

    def test_decode_latency_monotone_in_kv_depth(self, tiny_model, plan):
        """Deeper KV caches mean larger attention reads: TPOT must be
        non-decreasing in prompt length, all else equal."""
        vtrain = make_vtrain()
        times = [vtrain.predict_inference(
            tiny_model, plan,
            InferenceWorkload(batch_size=8, prompt_len=prompt,
                              gen_len=64)).decode_step_time
            for prompt in (32, 128, 512, 2048)]
        assert times == sorted(times)
        assert times[-1] > times[0]

    def test_decode_latency_monotone_in_batch_size(self, tiny_model):
        vtrain = make_vtrain()
        times = []
        for batch in (2, 8, 32):
            plan = ParallelismConfig(tensor=2, data=1, pipeline=2,
                                     micro_batch_size=batch)
            times.append(vtrain.predict_inference(
                tiny_model, plan,
                InferenceWorkload(batch_size=batch, prompt_len=128,
                                  gen_len=64)).decode_step_time)
        assert times == sorted(times)
        assert times[-1] > times[0]

    def test_continuous_batching_shrinks_decode_latency(
            self, tiny_model, plan):
        """Steady-state (mean-depth) decode is cheaper than a static
        batch gated by its deepest step."""
        vtrain = make_vtrain()
        static = vtrain.predict_inference(
            tiny_model, plan, InferenceWorkload(
                batch_size=8, prompt_len=128, gen_len=512))
        continuous = vtrain.predict_inference(
            tiny_model, plan, InferenceWorkload(
                batch_size=8, prompt_len=128, gen_len=512,
                continuous_batching=True))
        assert continuous.decode_step_time < static.decode_step_time
        # Prefill ignores generation depth entirely.
        assert continuous.prefill_time == static.prefill_time

    @given(replicas=st.integers(1, 8))
    def test_replicas_scale_throughput_not_latency(self, replicas):
        """The vLLM trade-off, half one: replicas multiply tokens/s and
        leave per-token latency untouched."""
        from repro.config.model import ModelConfig
        model = ModelConfig(hidden_size=512, num_layers=4, seq_length=128,
                            num_heads=8, vocab_size=32_000, name="tiny")
        workload = InferenceWorkload(batch_size=8, prompt_len=128,
                                     gen_len=64)
        vtrain = VTrain(single_node(), check_memory_feasibility=False)
        plan = ParallelismConfig(tensor=1, data=replicas, pipeline=1,
                                 micro_batch_size=8)
        base_plan = ParallelismConfig(tensor=1, data=1, pipeline=1,
                                      micro_batch_size=8)
        scaled = vtrain.predict_inference(model, plan, workload)
        base = vtrain.predict_inference(model, base_plan, workload)
        assert scaled.decode_step_time == base.decode_step_time
        assert scaled.tokens_per_second == pytest.approx(
            replicas * base.tokens_per_second)


# ---------------------------------------------------------------------------
# Fingerprints: workloads and phases never collide
# ---------------------------------------------------------------------------
class TestWorkloadFingerprints:
    def test_phases_and_training_all_distinct(self, tiny_model, training,
                                              plan, workload):
        fingerprints = {
            "training": structure_fingerprint(
                tiny_model, plan, training, Granularity.OPERATOR),
            PREFILL: structure_fingerprint(
                tiny_model, plan, workload.training_proxy(plan.data),
                Granularity.OPERATOR, workload=workload, phase=PREFILL),
            DECODE: structure_fingerprint(
                tiny_model, plan, workload.training_proxy(plan.data),
                Granularity.OPERATOR, workload=workload, phase=DECODE),
        }
        assert len(set(fingerprints.values())) == 3
        assert f"ph={PREFILL}" in fingerprints[PREFILL]
        assert f"ph={DECODE}" in fingerprints[DECODE]

    def test_decode_fingerprint_carries_kv_depth(self, tiny_model, plan):
        shallow = InferenceWorkload(batch_size=8, prompt_len=128,
                                    gen_len=64)
        deep = InferenceWorkload(batch_size=8, prompt_len=512, gen_len=64)
        proxy = shallow.training_proxy(plan.data)
        fp_shallow = structure_fingerprint(
            tiny_model, plan, proxy, Granularity.OPERATOR,
            workload=shallow, phase=DECODE)
        fp_deep = structure_fingerprint(
            tiny_model, plan, proxy, Granularity.OPERATOR,
            workload=deep, phase=DECODE)
        assert fp_shallow != fp_deep

    def test_structure_cache_never_crosses_workloads(
            self, tiny_model, training, plan, workload):
        """A warm training structure must not be served for an
        inference predict of the same plan, nor vice versa."""
        vtrain = make_vtrain()
        train_estimate = vtrain.predict(tiny_model, plan, training)
        inference = vtrain.predict_inference(tiny_model, plan, workload)
        train_again = vtrain.predict(tiny_model, plan, training)
        assert train_again.iteration_time == train_estimate.iteration_time
        assert inference.decode_step_time != train_estimate.iteration_time


# ---------------------------------------------------------------------------
# Decode timelines round-trip through the Chrome-trace exporter
# ---------------------------------------------------------------------------
class TestPhaseTraceExport:
    def test_decode_round_trip_is_exact(self, tiny_model, plan, workload):
        prediction = make_vtrain().predict_inference(
            tiny_model, plan, workload, record_timeline=True)
        for simulation, phase in ((prediction.prefill_simulation, PREFILL),
                                  (prediction.decode_simulation, DECODE)):
            trace = simulation_trace_events(simulation)
            categories = {event["cat"] for event in trace
                          if event["ph"] == "X"}
            assert phase in categories
            assert events_from_trace(trace) == list(simulation.events)
