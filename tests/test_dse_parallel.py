"""Tests for the one sweep pipeline behind ``DesignSpaceExplorer.explore``.

Covers the determinism contract (pooled == in-process, bit-identical,
for training and serving sweeps), cache hit/miss accounting, checkpoint
interrupt/resume, the progress callback, and the ``workers`` rule.
"""

import concurrent.futures

import pytest

import repro.dse.parallel as parallel
from repro.config.model import ModelConfig
from repro.config.parallelism import ParallelismConfig, TrainingConfig
from repro.dse.cache import PredictionCache
from repro.dse.explorer import DesignSpaceExplorer
from repro.dse.space import SearchSpace, enumerate_plans
from repro.errors import ConfigError
from repro.sim.estimator import VTrain
from repro.workload import InferenceWorkload


@pytest.fixture
def model():
    return ModelConfig(hidden_size=512, num_layers=4, seq_length=128,
                       num_heads=8, vocab_size=32_000, name="sweep-model")


@pytest.fixture
def training():
    return TrainingConfig(global_batch_size=16)


@pytest.fixture
def space():
    return SearchSpace(max_tensor=4, max_data=4, max_pipeline=4,
                       micro_batch_sizes=(1, 2))


@pytest.fixture
def explorer(model, training):
    return DesignSpaceExplorer(model, training)


@pytest.fixture
def serial_result(model, training, space):
    return DesignSpaceExplorer(model, training).explore(max_gpus=8,
                                                        space=space)


class TestParity:
    def test_parallel_matches_serial_bit_identical(self, explorer, space,
                                                   serial_result):
        result = explorer.explore(max_gpus=8, space=space, workers=2)
        assert result.points == serial_result.points

    def test_explore_workers_kwarg_delegates(self, explorer, space,
                                             serial_result):
        result = explorer.explore(max_gpus=8, space=space, workers=2,
                                  cache=PredictionCache())
        assert result.points == serial_result.points

    def test_single_worker_matches_serial(self, explorer, space,
                                          serial_result):
        result = explorer.explore(max_gpus=8, space=space, workers=1,
                                  cache=PredictionCache())
        assert result.points == serial_result.points

    def test_points_follow_enumeration_order(self, model, training, space,
                                             explorer, monkeypatch):
        # Many small chunks finish out of order; results merge by index.
        monkeypatch.setattr(parallel, "_MAX_CHUNK_SIZE", 3)
        plans = list(enumerate_plans(model, training, max_gpus=8,
                                     space=space))
        result = explorer.explore(plans=plans, workers=2)
        assert [p.plan for p in result.points] == plans


class TestServingSweep:
    @pytest.fixture
    def serving(self, model):
        workload = InferenceWorkload(batch_size=8, prompt_len=128,
                                     gen_len=64)
        return DesignSpaceExplorer(model, None, workload=workload)

    @pytest.fixture
    def serving_space(self):
        return SearchSpace(max_tensor=4, max_data=4, max_pipeline=4,
                           micro_batch_sizes=(1,))

    def test_pooled_serving_sweep_matches_in_process(self, serving,
                                                     serving_space,
                                                     monkeypatch):
        pools = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        serial = serving.explore(max_gpus=8, space=serving_space)
        assert not pools
        pooled = serving.explore(max_gpus=8, space=serving_space, workers=2)
        assert pools == [2]  # serving chunks ran on the pool
        assert serial.points and pooled.points == serial.points
        assert all(point.workload == "inference" for point in pooled.points)

    def test_cached_serving_sweep_matches_uncached(self, serving,
                                                   serving_space):
        expected = serving.explore(max_gpus=8, space=serving_space)
        cache = PredictionCache()
        cold = serving.explore(max_gpus=8, space=serving_space, workers=2,
                               cache=cache)
        warm = serving.explore(max_gpus=8, space=serving_space, cache=cache)
        assert cold.points == warm.points == expected.points
        assert cache.hits == cache.misses == len(expected.points)


class TestCacheAccounting:
    def test_cold_sweep_is_all_misses(self, explorer, space):
        cache = PredictionCache()
        result = explorer.explore(max_gpus=8, space=space, cache=cache)
        assert cache.misses == len(result.points)
        assert cache.hits == 0
        assert len(cache) == len(result.points)

    def test_warm_sweep_skips_all_predict_calls(self, explorer, space,
                                                monkeypatch):
        cache = PredictionCache()
        explorer.explore(max_gpus=8, space=space, cache=cache)
        entries = len(cache)
        cache.hits = cache.misses = 0

        calls = []
        for name in ("predict", "prepare_checked", "predict_prepared"):
            original = getattr(VTrain, name)

            def counting(self, *args, _original=original, **kwargs):
                calls.append(args)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(VTrain, name, counting)
        result = explorer.explore(max_gpus=8, space=space, cache=cache)
        assert not calls  # every point served from the cache
        assert cache.hits == len(result.points) == entries
        assert cache.misses == 0

    def test_changed_training_recipe_misses_stale_cache(self, model, space):
        """Regression: the fingerprint must include the training recipe,
        or a sweep with a different global batch would silently reuse
        predictions computed for the old one."""
        cache = PredictionCache()
        first = TrainingConfig(global_batch_size=16)
        second = TrainingConfig(global_batch_size=8)
        DesignSpaceExplorer(model, first).explore(max_gpus=8, space=space,
                                                  cache=cache)
        cache.hits = cache.misses = 0
        result = DesignSpaceExplorer(model, second).explore(
            max_gpus=8, space=space, cache=cache)
        assert cache.hits == 0
        assert cache.misses == len(result.points)

    def test_warm_parallel_sweep_serves_from_cache(self, explorer, space):
        cache = PredictionCache()
        expected = explorer.explore(max_gpus=8, space=space, workers=2,
                                    cache=cache)
        cache.hits = cache.misses = 0
        result = explorer.explore(max_gpus=8, space=space, workers=2,
                                  cache=cache)
        assert result.points == expected.points
        assert cache.hits == len(result.points)
        assert cache.misses == 0


class TestCheckpointResume:
    def test_interrupted_sweep_resumes_from_checkpoint(self, model, training,
                                                       space, tmp_path):
        checkpoint = tmp_path / "sweep.json"
        plans = list(enumerate_plans(model, training, max_gpus=8,
                                     space=space))
        # First run covers only a prefix of the space (an "interrupted"
        # sweep that checkpointed before dying).
        DesignSpaceExplorer(model, training).explore(
            plans=plans[:5], checkpoint_path=checkpoint)
        assert checkpoint.exists()

        resumed_cache = PredictionCache()
        result = DesignSpaceExplorer(model, training).explore(
            plans=plans, cache=resumed_cache, checkpoint_path=checkpoint)
        # The checkpointed prefix is served from disk, the rest computed.
        assert resumed_cache.hits == 5
        assert resumed_cache.misses == len(plans) - 5
        serial = DesignSpaceExplorer(model, training).explore(plans=plans)
        assert result.points == serial.points

    def test_checkpoint_written_mid_sweep(self, explorer, space, tmp_path,
                                          monkeypatch):
        monkeypatch.setattr(parallel, "_CHECKPOINT_EVERY", 1)
        saved_sizes = []
        original_save = PredictionCache.save

        def recording_save(self, path):
            saved_sizes.append(len(self))
            original_save(self, path)

        monkeypatch.setattr(PredictionCache, "save", recording_save)
        checkpoint = tmp_path / "mid.json"
        result = explorer.explore(max_gpus=8, space=space,
                                  checkpoint_path=checkpoint)
        # One save per chunk plus the final one; each holds more points.
        assert len(saved_sizes) > 2
        assert saved_sizes[0] < len(result.points)
        assert saved_sizes == sorted(saved_sizes)
        assert len(PredictionCache.load(checkpoint)) == len(result.points)

    def test_full_checkpoint_round_trip(self, model, training, space,
                                        tmp_path, serial_result):
        checkpoint = tmp_path / "done.json"
        DesignSpaceExplorer(model, training).explore(
            max_gpus=8, space=space, workers=2, checkpoint_path=checkpoint)
        rerun_cache = PredictionCache()
        result = DesignSpaceExplorer(model, training).explore(
            max_gpus=8, space=space, cache=rerun_cache,
            checkpoint_path=checkpoint)
        assert rerun_cache.misses == 0
        assert result.points == serial_result.points


class TestProgress:
    def test_progress_reaches_total(self, explorer, space):
        seen = []
        result = explorer.explore(max_gpus=8, space=space,
                                  progress=lambda done, total:
                                  seen.append((done, total)))
        total = len(result.points)
        assert len(seen) > 2  # the cache scan, then one call per chunk
        assert seen[-1] == (total, total)
        dones = [done for done, _ in seen]
        assert dones == sorted(dones)
        assert all(t == total for _, t in seen)

    def test_progress_threads_through_explore(self, explorer, space):
        seen = []
        explorer.explore(max_gpus=8, space=space, workers=2,
                         progress=lambda done, total:
                         seen.append((done, total)))
        dones = [done for done, _ in seen]
        assert seen and seen[-1][0] == seen[-1][1]
        assert dones == sorted(dones)


class TestValidation:
    def test_rejects_bad_worker_count(self, explorer, model, space):
        serving = DesignSpaceExplorer(
            model, None, workload=InferenceWorkload(batch_size=8,
                                                    prompt_len=128,
                                                    gen_len=64))
        for sweeper in (explorer, serving):
            for workers in (0, -1, None, 1.5):
                with pytest.raises(ConfigError, match="workers"):
                    sweeper.explore(max_gpus=8, space=space,
                                    workers=workers)
                with pytest.raises(ConfigError, match="workers"):
                    sweeper.explore(max_gpus=8, space=space,
                                    workers=workers,
                                    cache=PredictionCache())

    def test_rejects_unknown_zero_stage(self, model, training):
        with pytest.raises(ConfigError, match="zero_stage"):
            DesignSpaceExplorer(model, training, zero_stage=9)


class TestStructurallyInvalidPlans:
    def test_invalid_plan_becomes_infeasible_row_in_parallel_sweep(
            self, explorer):
        # micro-batch 64 cannot divide the 16-sequence per-replica batch;
        # the resulting ConfigError must not abort the sweep.
        bad = ParallelismConfig(tensor=1, data=1, pipeline=1,
                                micro_batch_size=64)
        good = ParallelismConfig(tensor=2, data=2, pipeline=2,
                                 micro_batch_size=2)
        result = explorer.explore(plans=[bad, good], workers=2)
        assert not result.points[0].feasible
        assert result.points[0].infeasible_reason
        assert result.points[1].feasible
        assert result.points == explorer.explore(plans=[bad, good]).points
