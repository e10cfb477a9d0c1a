"""Tests for serving-workload design-space exploration.

Covers the serving plan enumerator, the explorer's inference sweep and
its objectives (tokens/s, TPOT, cost per million tokens), the
Pareto/report surfaces, and — critically — backward compatibility:
training design points, cache fingerprints, and pre-workload
prediction-cache checkpoints must remain byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.config.parallelism import ParallelismConfig, TrainingConfig
from repro.config.presets import GPT3_175B
from repro.config.system import single_node
from repro.cost.pricing import DEFAULT_PRICING
from repro.dse.cache import PredictionCache, fingerprint
from repro.dse.explorer import DesignPoint, DesignSpaceExplorer
from repro.dse.report import (SERVING_CSV_COLUMNS, load_csv,
                              save_serving_csv, to_serving_csv,
                              to_serving_markdown)
from repro.dse.space import SearchSpace, enumerate_serving_plans
from repro.errors import ConfigError
from repro.graph.builder import Granularity
from repro.sim.estimator import VTrain
from repro.workload import InferenceWorkload

#: The exact fingerprint the pre-workload release computed for
#: (tiny model, t2 d2 p2 m2, B=16 training, one node, OPERATOR). The
#: workload refactor must not move it, or every training cache
#: checkpoint in the wild silently goes cold.
PRE_WORKLOAD_KEY = (
    "296585a1946b64d942fdbfbfaaa0fc0a22092f80050065d1842b73ca978d476f")

#: A prediction-cache checkpoint exactly as the pre-workload release
#: wrote it (no workload fields anywhere in the payload).
PRE_WORKLOAD_CHECKPOINT = {
    "entries": {
        PRE_WORKLOAD_KEY: {
            "feasible": True,
            "infeasible_reason": "",
            "iteration_time": 0.123456,
            "memory_gib": 10.5,
            "plan": {"data": 2, "gradient_bucketing": True,
                     "micro_batch_size": 2, "num_gradient_buckets": 4,
                     "pipeline": 2, "recompute": "selective",
                     "schedule": "1f1b", "sequence_parallel": False,
                     "tensor": 2},
            "utilization": 0.42,
        },
    },
    "version": 1,
}


@pytest.fixture
def workload() -> InferenceWorkload:
    return InferenceWorkload(batch_size=8, prompt_len=128, gen_len=64)


@pytest.fixture
def serving_result(tiny_model, workload):
    explorer = DesignSpaceExplorer(tiny_model, None, workload=workload)
    return explorer.explore(space=SearchSpace(max_tensor=2, max_pipeline=2),
                            max_gpus=8)


class TestServingPlanEnumeration:
    def test_replica_axis_ignores_batch_divisibility(self, tiny_model):
        """d counts server replicas, so an odd serving batch still
        admits multi-replica plans (unlike training's ``d | B``)."""
        workload = InferenceWorkload(batch_size=3, prompt_len=64,
                                     gen_len=16)
        plans = list(enumerate_serving_plans(tiny_model, workload,
                                             max_gpus=8))
        assert any(plan.data == 2 for plan in plans)
        assert all(workload.batch_size % plan.micro_batch_size == 0
                   for plan in plans)

    def test_no_virtual_pipelining(self, tiny_model, workload):
        plans = list(enumerate_serving_plans(tiny_model, workload,
                                             max_gpus=8))
        assert plans
        assert all(plan.virtual_stages == 1 for plan in plans)

    def test_exact_gpu_count_filter(self, tiny_model, workload):
        plans = list(enumerate_serving_plans(tiny_model, workload,
                                             num_gpus=4))
        assert plans
        assert all(plan.total_gpus == 4 for plan in plans)

    def test_needs_exactly_one_budget(self, tiny_model, workload):
        with pytest.raises(ConfigError):
            list(enumerate_serving_plans(tiny_model, workload))
        with pytest.raises(ConfigError):
            list(enumerate_serving_plans(tiny_model, workload,
                                         num_gpus=4, max_gpus=8))


class TestServingExploration:
    def test_points_carry_serving_metrics(self, serving_result):
        assert serving_result.num_feasible > 0
        for point in serving_result.feasible_points:
            assert point.workload == "inference"
            assert point.tokens_per_s > 0
            assert 0 < point.tpot_s <= point.ttft_s or point.ttft_s > 0
            # TPOT mirrors into iteration_time for generic sorting.
            assert point.iteration_time == point.tpot_s

    def test_matches_direct_prediction(self, tiny_model, workload,
                                       serving_result):
        point = serving_result.feasible_points[0]
        vtrain = VTrain(single_node(), granularity=Granularity.STAGE)
        direct = vtrain.predict_inference(tiny_model, point.plan, workload)
        assert point.ttft_s == direct.time_to_first_token
        assert point.tpot_s == direct.time_per_output_token
        assert point.tokens_per_s == direct.tokens_per_second

    def test_batch_replays_each_distinct_phase_once(self, tiny_model,
                                                    workload, monkeypatch):
        """Plans differing only in their replica count (d >= 2) share
        both phase graphs and their durations, so a batch replays them
        once; every point still equals a direct predict_inference, and
        an over-budget plan still fails alone."""
        import repro.sim.estimator as estimator

        plans = [ParallelismConfig(tensor=2, data=d, pipeline=1)
                 for d in (1, 2, 3, 4)]
        plans.append(ParallelismConfig(tensor=2, data=2, pipeline=3))
        replays = []
        replay = estimator.simulate_retimed
        monkeypatch.setattr(estimator, "simulate_retimed",
                            lambda *a, **k: replays.append(1) or replay(
                                *a, **k))
        explorer = DesignSpaceExplorer(tiny_model, None, workload=workload)
        points = explorer.evaluate_batch(plans)
        monkeypatch.undo()
        # d == 1 has its own structures (the fingerprint's dp flag).
        assert len(replays) == 4
        assert [point.feasible for point in points] == [True] * 4 + [False]
        for point in points[:4]:
            direct = VTrain(explorer.system_for(point.num_gpus),
                            granularity=Granularity.STAGE).predict_inference(
                tiny_model, point.plan, workload)
            assert point.ttft_s == direct.time_to_first_token
            assert point.tpot_s == direct.time_per_output_token
            assert point.tokens_per_s == direct.tokens_per_second
            assert point.memory_gib == direct.memory_per_gpu / float(1 << 30)

    def test_tp_buys_latency_replicas_buy_throughput(self, serving_result):
        """The vLLM trade-off at equal GPU count: the TP-heavy plan has
        the lower TPOT, the replica-heavy plan the higher tokens/s."""
        by_way = {point.plan.way: point
                  for point in serving_result.feasible_points
                  if point.plan.pipeline == 1 and point.num_gpus == 2}
        tp_heavy, replica_heavy = by_way[(2, 1, 1)], by_way[(1, 2, 1)]
        assert tp_heavy.tpot_s < replica_heavy.tpot_s
        assert replica_heavy.tokens_per_s > tp_heavy.tokens_per_s

    def test_pareto_frontier_is_nondominated(self, serving_result):
        frontier = serving_result.serving_pareto_frontier()
        assert frontier
        throughputs = [point.tokens_per_s for point in frontier]
        costs = [point.cost_per_million_tokens() for point in frontier]
        # Descending throughput, strictly improving (descending) cost.
        assert throughputs == sorted(throughputs, reverse=True)
        assert costs == sorted(costs, reverse=True)
        for point in frontier:
            dominated = any(
                other.tokens_per_s >= point.tokens_per_s
                and (other.cost_per_million_tokens()
                     < point.cost_per_million_tokens())
                for other in serving_result.feasible_points)
            assert not dominated

    def test_best_by_throughput_respects_gpu_cap(self, serving_result):
        best = serving_result.best_by_throughput()
        capped = serving_result.best_by_throughput(max_gpus=2)
        assert capped.num_gpus <= 2
        assert best.tokens_per_s >= capped.tokens_per_s

    def test_explorer_needs_training_or_workload(self, tiny_model):
        with pytest.raises(ConfigError):
            DesignSpaceExplorer(tiny_model, None)

    def test_serving_checkpoint_round_trip(self, tiny_model, workload,
                                           tmp_path):
        """A serving sweep resumed from its checkpoint returns the
        same points without recomputing."""
        checkpoint = tmp_path / "serving.cache.json"
        space = SearchSpace(max_tensor=2, max_pipeline=1)
        explorer = DesignSpaceExplorer(tiny_model, None, workload=workload)
        first = explorer.explore(space=space, max_gpus=4,
                                 checkpoint_path=checkpoint)
        assert checkpoint.exists()
        resumed = DesignSpaceExplorer(tiny_model, None, workload=workload)
        second = resumed.explore(space=space, max_gpus=4,
                                 checkpoint_path=checkpoint)
        assert ([point.to_dict() for point in second.points]
                == [point.to_dict() for point in first.points])


@pytest.fixture
def node_spanning_sweep(tiny_model, workload):
    """A serving sweep over 1-4 nodes of 2 GPUs: one simulator each."""
    explorer = DesignSpaceExplorer(tiny_model, None, workload=workload,
                                   gpus_per_node=2)
    result = explorer.explore(space=SearchSpace(max_tensor=2,
                                                max_pipeline=2),
                              max_gpus=8)
    assert len(explorer._simulators) >= 3
    return explorer, result


class TestSharedProfiling:
    def test_sweep_profiles_each_necessary_operator_once(
            self, node_spanning_sweep):
        """Simulators for different node counts share one lookup table,
        so the sweep traces each operator signature exactly once."""
        explorer, result = node_spanning_sweep
        assert result.num_feasible > 0
        tables = {id(sim.lookup): sim.lookup
                  for sim in explorer._simulators.values()}
        assert len(tables) == 1
        signatures = set().union(*(table.tracer.stats.signatures
                                   for table in tables.values()))
        profiled = sum(table.num_profiled for table in tables.values())
        assert profiled == len(signatures) > 0

    def test_shared_table_keeps_points_identical(self, tiny_model, workload,
                                                 node_spanning_sweep):
        """Sharing the table changes no answer: every point matches a
        simulator of its node count that profiled on its own."""
        explorer, result = node_spanning_sweep
        for point in result.feasible_points:
            alone = VTrain(explorer.system_for(point.num_gpus),
                           granularity=Granularity.STAGE)
            direct = alone.predict_inference(tiny_model, point.plan,
                                             workload)
            assert point.ttft_s == direct.time_to_first_token
            assert point.tpot_s == direct.time_per_output_token


#: SHA-256 of the GPT-3 175B serving DSE table (InferenceWorkload(32,
#: 1024, 256), micro-batches 1/2/4/8, <= 256 GPUs: 2808 plans, 1656
#: feasible), pinned before builder timing states were shared across
#: plans. Every point's JSON payload, in enumeration order.
GPT3_SERVING_TABLE_SHA256 = (
    "fdb08ab6370eb6c582db4ca7339059b7a4cec924741636d5a98121e83a09eb2d")


class TestServingTablePin:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_gpt3_serving_table_is_byte_identical(self, seed):
        """The full serving sweep, in enumeration order or shuffled,
        reproduces the pinned table byte for byte."""
        workload = InferenceWorkload(32, 1024, 256)
        plans = list(enumerate_serving_plans(
            GPT3_175B, workload,
            space=SearchSpace(micro_batch_sizes=(1, 2, 4, 8)),
            max_gpus=256))
        order = list(range(len(plans)))
        if seed:
            random.Random(seed).shuffle(order)
        result = DesignSpaceExplorer(GPT3_175B, None,
                                     workload=workload).explore(
            plans=[plans[index] for index in order])
        points = [None] * len(plans)
        for point, index in zip(result.points, order):
            points[index] = point
        assert len(points) == 2808
        assert sum(point.feasible for point in points) == 1656
        payload = json.dumps([point.to_dict() for point in points],
                             sort_keys=True)
        assert hashlib.sha256(payload.encode()).hexdigest() \
            == GPT3_SERVING_TABLE_SHA256


class TestDesignPointCompat:
    def test_training_payload_has_no_workload_fields(self):
        point = DesignPoint(
            plan=ParallelismConfig(tensor=2, data=2, pipeline=2,
                                   micro_batch_size=2),
            feasible=True, iteration_time=0.5, utilization=0.4,
            memory_gib=10.0)
        payload = point.to_dict()
        for field in ("workload", "tokens_per_s", "ttft_s", "tpot_s"):
            assert field not in payload
        assert DesignPoint.from_dict(payload) == point

    def test_serving_payload_round_trips(self):
        point = DesignPoint(
            plan=ParallelismConfig(tensor=2, data=2, pipeline=1,
                                   micro_batch_size=2),
            feasible=True, iteration_time=0.001, utilization=0.0,
            memory_gib=4.0, workload="inference", tokens_per_s=1000.0,
            ttft_s=0.01, tpot_s=0.001)
        rebuilt = DesignPoint.from_dict(point.to_dict())
        assert rebuilt == point

    def test_pre_workload_fingerprint_is_unmoved(self, tiny_model,
                                                 training):
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2,
                                 micro_batch_size=2)
        key = fingerprint(tiny_model, plan, training, single_node(),
                          Granularity.OPERATOR)
        assert key == PRE_WORKLOAD_KEY

    def test_workload_fingerprint_is_distinct(self, tiny_model, training,
                                              workload):
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2,
                                 micro_batch_size=2)
        serving_key = fingerprint(tiny_model, plan, None, single_node(),
                                  Granularity.OPERATOR, workload=workload)
        assert serving_key != PRE_WORKLOAD_KEY

    def test_fingerprint_needs_training_or_workload(self, tiny_model):
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2,
                                 micro_batch_size=2)
        with pytest.raises(ConfigError):
            fingerprint(tiny_model, plan, None, single_node(),
                        Granularity.OPERATOR)

    def test_pre_workload_checkpoint_still_loads_and_hits(
            self, tiny_model, training, tmp_path):
        """A cache checkpoint written before the workload abstraction
        loads cleanly and its entries are found under today's keys."""
        path = tmp_path / "old.cache.json"
        path.write_text(json.dumps(PRE_WORKLOAD_CHECKPOINT))
        cache = PredictionCache.load(path)
        plan = ParallelismConfig(tensor=2, data=2, pipeline=2,
                                 micro_batch_size=2)
        key = fingerprint(tiny_model, plan, training, single_node(),
                          Granularity.OPERATOR)
        point = cache.get(key)
        assert point is not None
        assert point.feasible
        assert point.iteration_time == 0.123456
        assert point.workload == "training"


class TestServingReports:
    def test_csv_has_serving_columns(self, serving_result):
        text = to_serving_csv(serving_result)
        header = text.splitlines()[0]
        assert header == ",".join(SERVING_CSV_COLUMNS)
        assert "tokens_per_s" in header

    def test_csv_round_trips_through_load(self, serving_result, tmp_path):
        path = tmp_path / "serving.csv"
        save_serving_csv(serving_result, path)
        rows = load_csv(path)
        assert len(rows) == serving_result.num_feasible
        assert all(float(row["tokens_per_s"]) > 0 for row in rows)

    @pytest.mark.parametrize("sort_by", ["cost", "throughput", "latency"])
    def test_markdown_table_renders(self, serving_result, sort_by):
        table = to_serving_markdown(serving_result, sort_by=sort_by)
        assert "$/Mtok" in table.splitlines()[0]
        assert len(table.splitlines()) > 2

    def test_markdown_cost_sort_is_ascending(self, serving_result):
        table = to_serving_markdown(serving_result, sort_by="cost")
        costs = [float(line.split("|")[-2])
                 for line in table.splitlines()[2:]]
        assert costs == sorted(costs)

    def test_markdown_rejects_unknown_sort(self, serving_result):
        with pytest.raises(ConfigError):
            to_serving_markdown(serving_result, sort_by="vibes")

    def test_cost_objective_matches_the_pricing_model(self, serving_result):
        point = serving_result.feasible_points[0]
        expected = (DEFAULT_PRICING.dollars_per_hour(point.num_gpus)
                    / 3600.0 / point.tokens_per_s * 1e6)
        assert point.cost_per_million_tokens() == expected
