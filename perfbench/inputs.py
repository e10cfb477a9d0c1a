"""Seeded inputs of every workload.

Each workload takes a seed and hands the program only the inputs built
here. Seed 0 is the default input: the Table I plans in table order
for ``cold_plan`` and the enumeration order for the sweeps. Other seeds
reorder those inputs, and draw served_mix's what-ifs from pools whose
members cost the same to simulate, so changing the seed changes what is
simulated and in which order but not how much work a run holds; that
keeps the per-seed metrics comparable.

``scale="tiny"`` swaps in small models for the self-tests.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass

from repro.config.description import InputDescription
from repro.config.model import ModelConfig
from repro.config.parallelism import ParallelismConfig, TrainingConfig
from repro.config.presets import (GPT3_175B, MEGATRON_1_7B, MT_NLG_530B,
                                  MT_NLG_TRAINING)
from repro.config.system import SystemConfig, multi_node
from repro.dse.space import SearchSpace
from repro.workload import InferenceWorkload

# ----------------------------------------------------------------------
# cold_plan
# ----------------------------------------------------------------------

#: The Table I plans as (d, p): MT-NLG's three published plans, then the
#: three vTrain found. All run t=8, micro-batch 1.
TABLE_I_SLOTS = ((8, 35), (10, 35), (12, 35), (12, 21), (16, 21), (20, 21))

#: Tensor degrees of every slot: Table I's t=8 and its t=16 twin. Both
#: keep the slot's graph structure (same p, micro-batch count, and TP/DP
#: collectives); wider plans (t=4) or larger micro-batches overflow GPU
#: memory. A pass runs both twins of every slot, so every seed builds
#: the same mix of graphs and the seed cannot move the timing.
COLD_TENSORS = (8, 16)

_TINY_MODEL = MEGATRON_1_7B
_TINY_TRAINING = TrainingConfig(global_batch_size=32)
_TINY_SLOTS = ((2, 2), (4, 2))  # (d, p)
_TINY_TENSORS = (2, 4)


@dataclass(frozen=True)
class ColdPlan:
    """One ``repro predict``-shaped input: model, recipe, system, plan."""

    model: ModelConfig
    training: TrainingConfig
    plan: ParallelismConfig

    @property
    def system(self) -> SystemConfig:
        return system_for(self.plan.total_gpus)

    @property
    def way(self) -> tuple[int, int, int]:
        return self.plan.way


def system_for(num_gpus: int) -> SystemConfig:
    """Whole 8-GPU nodes holding ``num_gpus`` GPUs."""
    return multi_node(-(-num_gpus // 8))


def cold_plans(seed: int, scale: str = "full") -> list[ColdPlan]:
    """One pass of cold predicts: every slot at every tensor degree.

    Seed 0 runs the six Table I plans in table order, then their t=16
    twins; other seeds shuffle the pass.
    """
    if scale == "tiny":
        model, training = _TINY_MODEL, _TINY_TRAINING
        slots, tensors = _TINY_SLOTS, _TINY_TENSORS
    else:
        model, training = MT_NLG_530B, MT_NLG_TRAINING
        slots, tensors = TABLE_I_SLOTS, COLD_TENSORS
    plans = [ColdPlan(model, training, ParallelismConfig(
        tensor=tensor, data=data, pipeline=pipeline, micro_batch_size=1))
        for tensor in tensors for data, pipeline in slots]
    if seed != 0:
        random.Random(seed).shuffle(plans)
    return plans


# ----------------------------------------------------------------------
# dse_sweep_train / dse_sweep_serve
# ----------------------------------------------------------------------

#: GPT-3's 3.2M-token recipe; the sweeps only need its batch.
GPT3_RECIPE = TrainingConfig(global_batch_size=1536,
                             total_tokens=300_000_000_000)
SWEEP_SPACE = SearchSpace(micro_batch_sizes=(1, 2, 4, 8))
TRAIN_SWEEP_GPUS = (512, 1024)
SERVE_SWEEP_WORKLOAD = InferenceWorkload(32, 1024, 256)
SERVE_SWEEP_MAX_GPUS = 256


@dataclass(frozen=True)
class Sweep:
    """What one ``repro dse`` call sweeps."""

    model: ModelConfig
    training: TrainingConfig | None
    workload: InferenceWorkload | None
    space: SearchSpace
    num_gpus: tuple[int, ...] = ()
    max_gpus: int | None = None


def sweep_for(kind: str, scale: str = "full") -> Sweep:
    """The training (``train``) or serving (``serve``) sweep."""
    if scale == "tiny":
        space = SearchSpace(micro_batch_sizes=(1, 2))
        if kind == "train":
            return Sweep(_TINY_MODEL, _TINY_TRAINING, None, space,
                         num_gpus=(8,))
        return Sweep(_TINY_MODEL, None, InferenceWorkload(4, 128, 32),
                     space, max_gpus=8)
    if kind == "train":
        return Sweep(GPT3_175B, GPT3_RECIPE, None, SWEEP_SPACE,
                     num_gpus=TRAIN_SWEEP_GPUS)
    return Sweep(GPT3_175B, None, SERVE_SWEEP_WORKLOAD, SWEEP_SPACE,
                 max_gpus=SERVE_SWEEP_MAX_GPUS)


def shuffle_plans(plans: list, seed: int) -> list:
    """The seed's plan order (seed 0 keeps enumeration order)."""
    plans = list(plans)
    if seed != 0:
        random.Random(seed).shuffle(plans)
    return plans


# ----------------------------------------------------------------------
# served_mix
# ----------------------------------------------------------------------

#: Shares of the timed request stream. They are an assumption, not a
#: measurement: there is no recorded client traffic to derive them
#: from, and the workload's definition says only "mostly repeats of
#: earlier keys", fresh training what-ifs, inference predicts and "a
#: few infeasible plans". Read as: three quarters repeats
#: (prediction-cache reads); of the fresh rest, training what-ifs
#: (fill + replay + cache write on a warmed structure) twice as often
#: as inference what-ifs (prefill + decode replay), training being the
#: paper's use; and 3% infeasible plans (the typed-error path). A fresh
#: computation holds the daemon's interpreter lock, so the other
#: client's cache reads queue behind it; the median round trip includes
#: that wait.
REPEAT_SHARE = 0.75
FRESH_TRAIN_SHARE = 0.15
FRESH_INFER_SHARE = 0.07
#: A fresh training what-if is sent twice in a row this often, so the
#: two closed-loop clients ask for it at the same time and dedup
#: coalesces them (an assumption as well: half, so both the coalesced
#: and the lone path run often).
DUPLICATE_SHARE = 0.5


@dataclass(frozen=True)
class ServedKey:
    """One distinct served prediction."""

    key_id: int
    description: InputDescription
    workload: InferenceWorkload | None

    def params(self) -> dict:
        params = {"description": self.description.to_dict()}
        if self.workload is not None:
            params["workload"] = self.workload.to_dict()
        return params


@dataclass(frozen=True)
class _Family:
    """A warmed structure and the what-ifs that re-time it.

    Every member shares the family's layer count, pipeline depth,
    micro-batch count and collective layout, so the daemon re-times one
    cached structure; hidden size, context length and tensor degree
    only change durations (the tensor degree also changes the system).
    """

    layers: int
    data: int
    pipeline: int
    micro_batch: int
    batch: int
    tensors: tuple[int, ...]
    hiddens: tuple[int, ...]
    seqs: tuple[int, ...]
    workload: InferenceWorkload | None = None
    #: Extra data-parallel degrees (replica counts) of the what-ifs.
    datas: tuple[int, ...] = ()


_HEADS = 32
#: Pools hold about three times the fresh what-ifs a 15 s run asks for
#: (~8000 requests on a 2-vCPU VM; ServedStream.exhausted reports a run
#: that outgrows them).
_FULL_HIDDENS = tuple(range(2048, 8192 + 1, 32))
_FULL_FAMILIES = (
    _Family(layers=96, data=4, pipeline=8, micro_batch=1, batch=128,
            tensors=(8, 4, 16), hiddens=_FULL_HIDDENS,
            seqs=(2048, 1024, 4096)),
    _Family(layers=48, data=8, pipeline=4, micro_batch=1, batch=256,
            tensors=(4, 2, 8), hiddens=_FULL_HIDDENS,
            seqs=(2048, 1024, 4096)),
)
_FULL_INFER = _Family(layers=96, data=2, pipeline=4, micro_batch=4,
                      batch=16, tensors=(8, 4, 16), hiddens=_FULL_HIDDENS,
                      seqs=(2048,), workload=InferenceWorkload(16, 512, 128),
                      datas=(4, 8))
_TINY_HIDDENS = tuple(range(1024, 2048 + 1, 32))
_TINY_FAMILIES = (
    _Family(layers=8, data=2, pipeline=2, micro_batch=1, batch=16,
            tensors=(2, 4), hiddens=_TINY_HIDDENS, seqs=(1024, 512)),
)
_TINY_INFER = _Family(layers=8, data=2, pipeline=2, micro_batch=2,
                      batch=4, tensors=(2, 4), hiddens=_TINY_HIDDENS,
                      seqs=(1024,), workload=InferenceWorkload(4, 128, 32),
                      datas=(4,))
#: Hidden sizes of the infeasible probes: one GPU cannot hold them.
_INFEASIBLE_HIDDENS = (16384, 20480, 24576, 32768)


def _member(family: _Family, hidden: int, seq: int, tensor: int,
            data: int) -> tuple[InputDescription, InferenceWorkload | None]:
    model = ModelConfig(hidden_size=hidden, num_layers=family.layers,
                        seq_length=seq, num_heads=_HEADS,
                        name=f"whatif-{hidden}x{family.layers}")
    plan = ParallelismConfig(tensor=tensor, data=data,
                             pipeline=family.pipeline,
                             micro_batch_size=family.micro_batch)
    if family.workload is not None:
        training = family.workload.training_proxy(data)
    else:
        training = TrainingConfig(global_batch_size=family.batch)
    description = InputDescription(model=model,
                                   system=system_for(plan.total_gpus),
                                   plan=plan, training=training)
    return description, family.workload


def _whatifs(family: _Family, rng: random.Random) -> list:
    members = [(hidden, seq, tensor, data) for hidden in family.hiddens
               for seq in family.seqs for tensor in family.tensors
               for data in (family.data, *family.datas)]
    base = (4096 if 4096 in family.hiddens else family.hiddens[0],
            family.seqs[0], family.tensors[0], family.data)
    members.remove(base)
    rng.shuffle(members)
    return [base] + members


class ServedStream:
    """The seeded request stream both closed-loop clients draw from.

    Thread-safe: each :meth:`next` hands out the next request of one
    shared sequence, so the two clients interleave on it and may ask
    for one key at the same moment.
    """

    def __init__(self, seed: int, scale: str = "full") -> None:
        self._rng = random.Random(seed)
        families = _TINY_FAMILIES if scale == "tiny" else _FULL_FAMILIES
        infer = _TINY_INFER if scale == "tiny" else _FULL_INFER
        self.keys: list[ServedKey] = []
        self._lock = threading.Lock()
        train_lists = [_whatifs(family, self._rng) for family in families]
        infer_list = _whatifs(infer, self._rng)
        #: Keys the untimed warm-up requests: each family's base member,
        #: whose structure every later what-if of the family re-times.
        self.warmup = [self._new(family, *members[0])
                       for family, members in zip(families, train_lists)]
        self.warmup.append(self._new(infer, *infer_list[0]))
        self._fresh_train = [(family, member)
                             for family, members in zip(families,
                                                        train_lists)
                             for member in members[1:]]
        self._rng.shuffle(self._fresh_train)
        self._fresh_infer = [(infer, member) for member in infer_list[1:]]
        infeasible = _Family(layers=96, data=1, pipeline=1, micro_batch=1,
                             batch=8, tensors=(1,),
                             hiddens=_INFEASIBLE_HIDDENS, seqs=(2048,))
        self._infeasible = [self._new(infeasible, hidden, 2048, 1, 1)
                            for hidden in _INFEASIBLE_HIDDENS]
        self._seen = list(self.warmup)
        self._seen_ids = {key.key_id for key in self.warmup}
        self._pending: list[ServedKey] = []
        #: Fresh what-ifs wanted after the pools ran dry (served as
        #: repeats instead); a run whose count is not 0 is too long for
        #: the pools.
        self.exhausted = 0

    def _new(self, family: _Family, hidden: int, seq: int, tensor: int,
             data: int) -> ServedKey:
        description, workload = _member(family, hidden, seq, tensor, data)
        key = ServedKey(len(self.keys), description, workload)
        self.keys.append(key)
        return key

    def next(self) -> ServedKey:
        """The next request of the shared stream."""
        with self._lock:
            if self._pending:
                return self._pending.pop()
            draw = self._rng.random()
            fresh = None
            if draw >= REPEAT_SHARE:
                draw -= REPEAT_SHARE
                if draw < FRESH_TRAIN_SHARE:
                    fresh = self._fresh_train
                elif draw < FRESH_TRAIN_SHARE + FRESH_INFER_SHARE:
                    fresh = self._fresh_infer
                else:
                    key = self._rng.choice(self._infeasible)
                    if key.key_id not in self._seen_ids:
                        self._seen_ids.add(key.key_id)
                        self._seen.append(key)
                    return key
            if fresh is None:
                return self._rng.choice(self._seen)
            if not fresh:
                self.exhausted += 1
                return self._rng.choice(self._seen)
            family, member = fresh.pop()
            key = self._new(family, *member)
            self._seen_ids.add(key.key_id)
            self._seen.append(key)
            if fresh is self._fresh_train and \
                    self._rng.random() < DUPLICATE_SHARE:
                self._pending.append(key)
            return key
