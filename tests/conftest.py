"""Shared fixtures for the test suite.

The fixtures centre on a small, fast model so unit tests run in
milliseconds; paper-scale integration checks live in
``test_integration.py`` and build their own configurations.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.config.model import ModelConfig
from repro.config.parallelism import ParallelismConfig, TrainingConfig
from repro.config.system import multi_node, single_node
from repro.graph.builder import GraphBuilder
from repro.hardware.gpu import A100_80GB
from repro.hardware.kernels import DeviceModel
from repro.profiling.cupti import CuptiTracer
from repro.profiling.lookup import OperatorToTaskTable
from repro.profiling.nccl import NcclModel
from repro.sim.estimator import VTrain

# Hypothesis effort tiers: the capped "tier1" profile keeps the default
# `pytest -x -q` loop fast; CI's full lane (and anyone hunting for
# counterexamples) selects the exhaustive profile via
# REPRO_HYPOTHESIS_PROFILE=exhaustive. Property tests should rely on
# these profiles instead of pinning max_examples inline.
settings.register_profile("tier1", max_examples=25, deadline=None)
settings.register_profile("exhaustive", max_examples=200, deadline=None)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture
def tiny_model() -> ModelConfig:
    """A 4-layer toy LLM that still exercises every code path."""
    return ModelConfig(hidden_size=512, num_layers=4, seq_length=128,
                       num_heads=8, vocab_size=32_000, name="tiny")


@pytest.fixture
def small_model() -> ModelConfig:
    """A larger toy model for pipeline-heavy plans."""
    return ModelConfig(hidden_size=1024, num_layers=8, seq_length=512,
                       num_heads=16, vocab_size=32_000, name="small")


@pytest.fixture
def training() -> TrainingConfig:
    """A 16-sequence global batch with a token budget."""
    return TrainingConfig(global_batch_size=16, total_tokens=10_000_000)


@pytest.fixture
def node_system():
    """One 8-GPU A100 node."""
    return single_node()


@pytest.fixture
def cluster_system():
    """A 4-node (32 GPU) A100 cluster."""
    return multi_node(4)


@pytest.fixture
def device() -> DeviceModel:
    """Analytical A100 device model."""
    return DeviceModel(A100_80GB)


@pytest.fixture
def lookup(device) -> OperatorToTaskTable:
    """A fresh operator-to-task lookup table."""
    return OperatorToTaskTable(CuptiTracer(device))


@pytest.fixture
def nccl(node_system) -> NcclModel:
    """Clean (isolated-profile) NCCL model on one node."""
    return NcclModel(node_system)


@pytest.fixture
def vtrain(node_system) -> VTrain:
    """A single-node vTrain simulator at operator granularity."""
    return VTrain(node_system)


@pytest.fixture
def assemble_plan():
    """Factory for the uncompiled task columns a :class:`VTrain` would
    compile for one training plan: ``assemble_plan(vtrain, model, plan,
    training)`` returns ``(assembler, num_devices)``, the reference
    engine's input."""
    def assemble(simulator: VTrain, model: ModelConfig,
                 plan: ParallelismConfig, training: TrainingConfig):
        builder = GraphBuilder(model, simulator.system, plan, training,
                               simulator.lookup, simulator.nccl,
                               simulator.granularity)
        return builder.assemble(), plan.pipeline
    return assemble


def plan_2x2x2() -> ParallelismConfig:
    """A (2, 2, 2)-way plan used across graph tests."""
    return ParallelismConfig(tensor=2, data=2, pipeline=2, micro_batch_size=2)
