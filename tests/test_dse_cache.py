"""Unit tests for the persistent prediction cache."""

import pytest

from repro.config.model import ModelConfig
from repro.config.parallelism import (ParallelismConfig, PipelineSchedule,
                                      RecomputeMode, TrainingConfig)
from repro.config.system import multi_node, single_node
from repro.dse.cache import (CACHE_FORMAT_VERSION, PredictionCache,
                             fingerprint)
from repro.dse.explorer import DesignPoint
from repro.errors import ConfigError
from repro.graph.builder import Granularity
from repro.workload import InferenceWorkload


@pytest.fixture
def plan():
    return ParallelismConfig(tensor=2, data=2, pipeline=2)


@pytest.fixture
def point(plan):
    return DesignPoint(plan=plan, feasible=True, iteration_time=0.25,
                       utilization=0.4, memory_gib=10.0)


A_TRAINING = TrainingConfig(global_batch_size=16)


def a_key(model, plan, training=A_TRAINING):
    return fingerprint(model, plan, training, single_node(),
                       Granularity.STAGE)


class TestFingerprint:
    def test_deterministic(self, tiny_model, plan):
        assert a_key(tiny_model, plan) == a_key(tiny_model, plan)

    def test_equal_configs_share_keys(self, tiny_model, plan):
        clone = ModelConfig(**tiny_model.to_dict())
        assert a_key(clone, plan) == a_key(tiny_model, plan)

    def test_any_component_changes_the_key(self, tiny_model, plan):
        base = a_key(tiny_model, plan)
        assert a_key(tiny_model.scaled(num_layers=8), plan) != base
        assert a_key(tiny_model, plan.replaced(data=4)) != base
        # The training recipe determines micro-batch scheduling and
        # memory feasibility, so it must be part of the key.
        assert a_key(tiny_model, plan,
                     TrainingConfig(global_batch_size=32)) != base
        assert a_key(tiny_model, plan,
                     TrainingConfig(global_batch_size=16,
                                    total_tokens=1)) != base
        system = single_node()
        assert fingerprint(tiny_model, plan, A_TRAINING,
                           system.with_gpus(16), Granularity.STAGE) != base
        assert fingerprint(tiny_model, plan, A_TRAINING, system,
                           Granularity.OPERATOR) != base


#: Cache keys pinned from the release before key assembly was memoised:
#: every key on disk must keep resolving, so each stays byte-identical.
FINGERPRINT_GOLDENS = {
    "training": "078e1f6a684208c94783c5e864312c2f"
                "114b0dc3eaeeab0ea9189c15dc7aeda3",
    "interleaved": "75729809cd5ac2972f854fd3b4a41deb"
                   "c881fdc5666f88b3a365e42095166953",
    "zero3": "d3d78ab197869867d4404787abe5b13d"
             "e359a6adf592bb93922e78bc2b7e109d",
    "serving": "1958cecf7d6c04f8afbf588a10e345ba"
               "55883e4335ee4c787c33cddf5c26e408",
}


def golden_keys(model):
    """The pinned cases: a training plan, a ``v=2`` plan on a rail
    fabric, a ZeRO-3 KERNEL plan, and a serving plan."""
    return {
        "training": fingerprint(
            model, ParallelismConfig(tensor=2, data=2, pipeline=2),
            A_TRAINING, single_node(), Granularity.STAGE),
        "interleaved": fingerprint(
            model, ParallelismConfig(tensor=1, data=4, pipeline=2,
                                     micro_batch_size=2, virtual_stages=2),
            TrainingConfig(global_batch_size=64, total_tokens=10**9),
            multi_node(2, network="rail"), Granularity.OPERATOR),
        "zero3": fingerprint(
            model, ParallelismConfig(tensor=4, data=1, pipeline=2,
                                     schedule=PipelineSchedule.GPIPE,
                                     gradient_bucketing=False,
                                     recompute=RecomputeMode.FULL,
                                     sequence_parallel=True),
            A_TRAINING, single_node(), Granularity.KERNEL, zero_stage=3),
        "serving": fingerprint(
            model, ParallelismConfig(tensor=2, data=2, pipeline=1), None,
            single_node(), Granularity.STAGE,
            workload=InferenceWorkload(4, 128, 32)),
    }


class TestFingerprintGoldens:
    def test_keys_match_goldens(self, tiny_model):
        assert golden_keys(tiny_model) == FINGERPRINT_GOLDENS

    def test_repeated_and_equal_configs_match_goldens(self, tiny_model):
        # A second pass over the same objects, and a pass over equal
        # but distinct ones, must give the same bytes.
        golden_keys(tiny_model)
        assert golden_keys(tiny_model) == FINGERPRINT_GOLDENS
        clone = ModelConfig(**tiny_model.to_dict())
        assert golden_keys(clone) == FINGERPRINT_GOLDENS


class TestCacheAccounting:
    def test_miss_then_hit(self, tiny_model, plan, point):
        cache = PredictionCache()
        key = a_key(tiny_model, plan)
        assert cache.get(key) is None
        cache.put(key, point)
        assert cache.get(key) == point
        assert cache.stats == {"hits": 1, "misses": 1, "entries": 1}
        assert key in cache
        assert len(cache) == 1


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path, tiny_model, plan, point):
        cache = PredictionCache()
        key = a_key(tiny_model, plan)
        cache.put(key, point)
        infeasible = DesignPoint(plan=plan.replaced(data=8), feasible=False,
                                 infeasible_reason="out of memory")
        other = a_key(tiny_model, plan.replaced(data=8))
        cache.put(other, infeasible)
        path = tmp_path / "cache.json"
        cache.save(path)
        loaded = PredictionCache.load(path)
        assert len(loaded) == 2
        assert loaded.get(key) == point
        assert loaded.get(other) == infeasible

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text('{"version": %d, "entries": {}}'
                        % (CACHE_FORMAT_VERSION + 1))
        with pytest.raises(ConfigError):
            PredictionCache.load(path)

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            PredictionCache.load(path)

    def test_merge_counts_new_entries(self, tiny_model, plan, point):
        first = PredictionCache()
        first.put(a_key(tiny_model, plan), point)
        second = PredictionCache()
        second.put(a_key(tiny_model, plan), point)
        second.put(a_key(tiny_model, plan.replaced(data=4)),
                   DesignPoint(plan=plan.replaced(data=4), feasible=False,
                               infeasible_reason="nope"))
        assert first.merge(second) == 1
        assert len(first) == 2


class TestExplorerUsesCache:
    def test_serial_explore_populates_cache(self, tiny_model):
        from repro.dse.explorer import DesignSpaceExplorer
        from repro.dse.space import SearchSpace
        training = TrainingConfig(global_batch_size=8)
        explorer = DesignSpaceExplorer(tiny_model, training)
        cache = PredictionCache()
        space = SearchSpace(max_tensor=2, max_data=2, max_pipeline=2,
                            micro_batch_sizes=(1,))
        result = explorer.explore(max_gpus=4, space=space, cache=cache)
        assert len(cache) == len(result.points)
        assert cache.misses == len(result.points)
        assert cache.hits == 0
