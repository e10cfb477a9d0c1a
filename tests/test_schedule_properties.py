"""Schedule-validity properties for GPipe, 1F1B, and interleaved 1F1B.

Every schedule must be a valid permutation of its work: each
(chunk, micro-batch) unit has exactly one forward and one backward per
stage, each forward is issued before its backward, warm-up counts match
the closed forms, and the final backward is the unit gradient
synchronisation attaches to. Golden cases pin the interleaved issue
order to Megatron-LM's ``forward_backward_pipelining_with_interleaving``
schedule.
"""

import pytest
from hypothesis import given, strategies as st

from repro.config.parallelism import PipelineSchedule
from repro.graph.pipeline import (BACKWARD, FORWARD,
                                  interleaved_order,
                                  last_backward_micro_batch,
                                  max_in_flight_micro_batches,
                                  pipeline_bubble_fraction, schedule_order,
                                  warmup_forwards)

SCHEDULES = (PipelineSchedule.GPIPE, PipelineSchedule.ONE_F_ONE_B)


def units(order, phase):
    return [(c.chunk, c.micro_batch) for c in order if c.phase == phase]


def check_valid_permutation(order, num_micro_batches, virtual_stages):
    """Each unit forward-then-backward, every unit exactly once."""
    expected = {(chunk, mb) for chunk in range(virtual_stages)
                for mb in range(num_micro_batches)}
    forwards = units(order, FORWARD)
    backwards = units(order, BACKWARD)
    assert set(forwards) == expected and len(forwards) == len(expected)
    assert set(backwards) == expected and len(backwards) == len(expected)
    position = {}
    for index, chunk in enumerate(order):
        position[(chunk.phase, chunk.chunk, chunk.micro_batch)] = index
    for key in expected:
        assert position[(FORWARD, *key)] < position[(BACKWARD, *key)]


@st.composite
def schedule_cases(draw):
    schedule = draw(st.sampled_from(SCHEDULES))
    p = draw(st.integers(1, 8))
    if schedule is PipelineSchedule.ONE_F_ONE_B and p > 1:
        v = draw(st.integers(1, 4))
    else:
        v = 1
    if v > 1:
        nmb = p * draw(st.integers(1, 5))  # interleaving needs p | NMB
    else:
        nmb = draw(st.integers(1, 24))
    stage = draw(st.integers(0, p - 1))
    return schedule, stage, p, nmb, v


def loop_order(schedule, stage, p, nmb, v):
    """The issue order written as plain loops over (phase, micro-batch,
    chunk) — the reference the columnar schedules must reproduce."""
    if schedule is PipelineSchedule.GPIPE:
        return ([(FORWARD, mb, 0) for mb in range(nmb)]
                + [(BACKWARD, mb, 0) for mb in reversed(range(nmb))])
    if v == 1:
        warmup = min(nmb, p - 1 - stage)
        order = [(FORWARD, mb, 0) for mb in range(warmup)]
        for mb in range(nmb - warmup):
            order += [(FORWARD, warmup + mb, 0), (BACKWARD, mb, 0)]
        return order + [(BACKWARD, mb, 0) for mb in range(nmb - warmup, nmb)]

    def unit(phase, k):
        group, j = divmod(k, p * v)
        chunk = j // p if phase == FORWARD else v - 1 - j // p
        return (phase, group * p + j % p, chunk)

    total = nmb * v
    warmup = total if nmb == p else min(2 * (p - stage - 1) + (v - 1) * p,
                                        total)
    order = [unit(FORWARD, k) for k in range(warmup)]
    for k in range(total - warmup):
        order += [unit(FORWARD, warmup + k), unit(BACKWARD, k)]
    return order + [unit(BACKWARD, k) for k in range(total - warmup, total)]


class TestPermutationProperty:
    @given(case=schedule_cases())
    def test_columnar_schedule_matches_loop_reference(self, case):
        schedule, stage, p, nmb, v = case
        order = schedule_order(schedule, stage, p, nmb, virtual_stages=v)
        assert ([(c.phase, c.micro_batch, c.chunk) for c in order]
                == loop_order(schedule, stage, p, nmb, v))

    @given(case=schedule_cases())
    def test_every_schedule_is_a_valid_permutation(self, case):
        schedule, stage, p, nmb, v = case
        order = schedule_order(schedule, stage, p, nmb, virtual_stages=v)
        assert len(order) == 2 * nmb * v
        check_valid_permutation(order, nmb, v)

    @given(case=schedule_cases())
    def test_warmup_matches_closed_form(self, case):
        """Leading forwards equal the closed form, which also bounds the
        in-flight window count the memory model uses."""
        schedule, stage, p, nmb, v = case
        order = schedule_order(schedule, stage, p, nmb, virtual_stages=v)
        leading = 0
        for chunk in order:
            if chunk.phase != FORWARD:
                break
            leading += 1
        assert leading == warmup_forwards(schedule, stage, p, nmb,
                                          virtual_stages=v)
        assert leading == max_in_flight_micro_batches(schedule, stage, p,
                                                      nmb, virtual_stages=v)

    @given(case=schedule_cases())
    def test_final_backward_is_the_sync_unit(self, case):
        """The last backward in issue order is chunk 0 of the micro-batch
        gradient synchronisation anchors to, on every stage."""
        schedule, stage, p, nmb, v = case
        order = schedule_order(schedule, stage, p, nmb, virtual_stages=v)
        final = order[-1]
        assert final.phase == BACKWARD
        assert final.chunk == 0
        assert final.micro_batch == last_backward_micro_batch(schedule, nmb)

    @given(case=schedule_cases())
    def test_backward_walks_chunks_descending_per_micro_batch(self, case):
        schedule, stage, p, nmb, v = case
        order = schedule_order(schedule, stage, p, nmb, virtual_stages=v)
        chunks_seen: dict[int, list[int]] = {}
        for chunk in order:
            if chunk.phase == BACKWARD:
                chunks_seen.setdefault(chunk.micro_batch, []).append(
                    chunk.chunk)
        for walked in chunks_seen.values():
            assert walked == sorted(walked, reverse=True)

    @given(p=st.integers(2, 8), group=st.integers(1, 4),
           v=st.integers(1, 4))
    def test_bubble_fraction_monotone_in_v(self, p, group, v):
        nmb = p * group
        fractions = [pipeline_bubble_fraction(p, nmb, candidate)
                     for candidate in range(1, v + 1)]
        assert fractions == sorted(fractions, reverse=True)
        assert fractions[-1] == pytest.approx(
            (p - 1) / (v * nmb + p - 1))


def phases(order):
    return [(c.phase, c.chunk, c.micro_batch) for c in order]


class TestMegatronGolden:
    """Hand-derived Megatron-LM interleaved issue orders.

    Derived from ``forward_backward_pipelining_with_interleaving``:
    warm-up admits ``2*(p - rank - 1) + (v-1)*p`` units, forward unit
    ``k`` maps to chunk ``(k % (p*v)) // p`` of micro-batch
    ``(k // (p*v)) * p + k % p``, backward units reverse the chunk walk.
    """

    def test_p2_v2_nmb4_rank0(self):
        order = interleaved_order(stage=0, num_stages=2,
                                  num_micro_batches=4, virtual_stages=2)
        assert phases(order) == [
            ("F", 0, 0), ("F", 0, 1), ("F", 1, 0), ("F", 1, 1),  # warm-up
            ("F", 0, 2), ("B", 1, 0), ("F", 0, 3), ("B", 1, 1),  # steady
            ("F", 1, 2), ("B", 0, 0), ("F", 1, 3), ("B", 0, 1),
            ("B", 1, 2), ("B", 1, 3), ("B", 0, 2), ("B", 0, 3),  # drain
        ]

    def test_p2_v2_nmb4_rank1(self):
        order = interleaved_order(stage=1, num_stages=2,
                                  num_micro_batches=4, virtual_stages=2)
        assert phases(order) == [
            ("F", 0, 0), ("F", 0, 1),                            # warm-up
            ("F", 1, 0), ("B", 1, 0), ("F", 1, 1), ("B", 1, 1),  # steady
            ("F", 0, 2), ("B", 0, 0), ("F", 0, 3), ("B", 0, 1),
            ("F", 1, 2), ("B", 1, 2), ("F", 1, 3), ("B", 1, 3),
            ("B", 0, 2), ("B", 0, 3),                            # drain
        ]

    def test_p4_v2_warmup_counts(self):
        """Megatron's Figure-4-style configuration: p=4, v=2, NMB=8."""
        expected = {0: 10, 1: 8, 2: 6, 3: 4}  # 2*(p-r-1) + (v-1)*p
        for rank, warmup in expected.items():
            order = interleaved_order(stage=rank, num_stages=4,
                                      num_micro_batches=8, virtual_stages=2)
            leading = 0
            for chunk in order:
                if chunk.phase != FORWARD:
                    break
                leading += 1
            assert leading == warmup + 1  # first steady forward leads too

    def test_p4_v2_rank0_leading_units(self):
        """The warm-up walks chunk 0 of micro-batches 0..3, then chunk 1
        of the same group, then chunk 0 of the next group — Megatron's
        group-of-p round-robin."""
        order = interleaved_order(stage=0, num_stages=4,
                                  num_micro_batches=8, virtual_stages=2)
        assert phases(order)[:10] == [
            ("F", 0, 0), ("F", 0, 1), ("F", 0, 2), ("F", 0, 3),
            ("F", 1, 0), ("F", 1, 1), ("F", 1, 2), ("F", 1, 3),
            ("F", 0, 4), ("F", 0, 5),
        ]
        # First backward on rank 0 is the *last* chunk (loss flows back
        # from chunk v-1), micro-batch 0.
        first_backward = next(c for c in order if c.phase == BACKWARD)
        assert (first_backward.chunk, first_backward.micro_batch) == (1, 0)

    def test_all_warmup_when_nmb_equals_p(self):
        """Megatron special-cases NMB == p: all forwards, then all
        backwards (no steady state)."""
        order = interleaved_order(stage=1, num_stages=4,
                                  num_micro_batches=4, virtual_stages=2)
        assert [c.phase for c in order] == ["F"] * 8 + ["B"] * 8

    def test_rejects_indivisible_micro_batches(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError, match="multiple"):
            interleaved_order(stage=0, num_stages=4, num_micro_batches=6,
                              virtual_stages=2)

    def test_gpipe_rejects_interleaving(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError, match="interleaved"):
            schedule_order(PipelineSchedule.GPIPE, 0, 4, 8,
                           virtual_stages=2)
