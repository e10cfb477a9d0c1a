"""Expected outputs, and the checks that compare the program against them.

Host time is what the benchmark measures; the simulated outputs must
not move. Three kinds of oracle guard them:

* pinned goldens: exact OPERATOR iteration times and Table I dollar
  totals of every cold_plan input, the STAGE Table I iteration times,
  and a digest of each full DSE table (the seed only reorders the
  sweep, so one digest serves every seed);
* cross-checks that hold for any input: STAGE == OPERATOR to 1e-9
  relative, ``estimate_training`` agreeing with ``predict``, a swept
  point equal to a single-plan evaluation;
* served == direct: every distinct answer of the daemon equals a direct
  ``VTrain.predict`` / ``predict_inference`` bit for bit.

Each check returns a list of mismatch messages (empty when correct).
"""

from __future__ import annotations

import hashlib
import json
import math

#: OPERATOR iteration time (s) and Table I dollar total of every plan a
#: cold_plan seed can draw, keyed by (t, d, p).
COLD_GOLDENS: dict[tuple[int, int, int], tuple[float, float]] = {
    (8, 8, 35): (42.21492069925499, 9018138.981644625),
    (8, 10, 35): (34.817846305436234, 9297428.842188584),
    (8, 12, 35): (29.88646604288947, 9576719.557230026),
    (8, 12, 21): (45.21050910483966, 8692262.901514681),
    (8, 16, 21): (35.17990040959957, 9018344.01673391),
    (8, 20, 21): (29.161541592454352, 9344427.182747431),
    (16, 8, 35): (26.658299436473314, 11389728.813900515),
    (16, 10, 35): (21.994088852017416, 11746187.530184925),
    (16, 12, 35): (18.884523508899438, 12102587.529560078),
    (16, 12, 21): (28.402812470010293, 10921563.062218238),
    (16, 16, 21): (22.103847401595697, 11332613.091001578),
    (16, 20, 21): (18.324531332635374, 11743703.476917142),
}

#: STAGE iteration times of the six Table I plans.
TABLE_I_STAGE: dict[tuple[int, int, int], float] = {
    (8, 8, 35): 42.2149206992529,
    (8, 10, 35): 34.81784630543328,
    (8, 12, 35): 29.88646604288724,
    (8, 12, 21): 45.210509104837755,
    (8, 16, 21): 35.17990040959684,
    (8, 20, 21): 29.161541592452288,
}

#: STAGE and OPERATOR replay the same schedule; they may differ only by
#: floating-point summation order.
GRANULARITY_RTOL = 1e-9

#: Full-scale sweep goldens: plan count, feasible count, table digest,
#: and the fastest plan per GPU count (training) or overall (serving).
SWEEP_GOLDENS: dict[str, dict] = {
    "train": {
        "plans": 140, "feasible": 46,
        "digest": "56b276d879be6be78fbd0b705333d16f"
                  "175559d8ec191da32a4500a5910049af",
        "fastest": {"512": [4, 16, 8], "1024": [8, 32, 4]},
    },
    "serve": {
        "plans": 2808, "feasible": 1656,
        "digest": "65f41e0c13889a139e31110d7d9ef8de"
                  "89c43fbf147f129e69dbee19bf65d3f2",
        "fastest": {"all": [8, 32, 1]},
    },
}


def check_cold(way: tuple[int, int, int], iteration_time: float,
               dollars_total: float, estimate_time: float,
               goldens=COLD_GOLDENS) -> list[str]:
    """One cold operation's outputs against the pinned goldens and
    against each other (``estimate_training`` predicts again)."""
    problems = []
    if estimate_time != iteration_time:
        problems.append(f"{way}: estimate_training iteration time "
                        f"{estimate_time!r} != predict {iteration_time!r}")
    golden = goldens.get(way)
    if golden is not None:
        if iteration_time != golden[0]:
            problems.append(f"{way}: iteration time {iteration_time!r} != "
                            f"golden {golden[0]!r}")
        if dollars_total != golden[1]:
            problems.append(f"{way}: dollars {dollars_total!r} != golden "
                            f"{golden[1]!r}")
    return problems


def check_granularity(way: tuple[int, int, int], operator_time: float,
                      stage_time: float, *, golden_stage=None) -> list[str]:
    """STAGE agrees with OPERATOR, and matches its golden when given."""
    problems = []
    if not math.isclose(stage_time, operator_time, rel_tol=GRANULARITY_RTOL,
                        abs_tol=0.0):
        problems.append(f"{way}: STAGE {stage_time!r} vs OPERATOR "
                        f"{operator_time!r} differ by more than "
                        f"{GRANULARITY_RTOL} relative")
    if golden_stage is not None and stage_time != golden_stage:
        problems.append(f"{way}: STAGE {stage_time!r} != golden "
                        f"{golden_stage!r}")
    return problems


def _row(point) -> list:
    plan = point.plan
    row = [plan.tensor, plan.data, plan.pipeline, plan.micro_batch_size,
           plan.virtual_stages, point.feasible, repr(point.iteration_time),
           repr(point.utilization), repr(point.memory_gib)]
    if point.workload != "training":
        row += [repr(point.ttft_s), repr(point.tpot_s),
                repr(point.tokens_per_s)]
    return row


def table_digest(points) -> str:
    """Order-independent SHA-256 of a DSE table's simulated values."""
    rows = sorted(_row(point) for point in points)
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def sweep_summary(kind: str, result) -> dict:
    """The pinned facts of one sweep's table."""
    summary = {"plans": len(result.points), "feasible": result.num_feasible,
               "digest": table_digest(result.points)}
    if not result.num_feasible:
        return summary
    if kind == "train":
        gpus = sorted({point.num_gpus for point in result.points})
        summary["fastest"] = {
            str(count): list(result.best_by_iteration_time(
                num_gpus=count).plan.way) for count in gpus}
    else:
        summary["fastest"] = {"all": list(
            result.best_by_throughput().plan.way)}
    return summary


def check_sweep(kind: str, summary: dict, goldens=SWEEP_GOLDENS) -> list[str]:
    """A full-scale sweep's summary against its goldens."""
    golden = goldens.get(kind)
    if golden is None:
        return [f"no golden for sweep {kind!r}"]
    return [f"{kind} sweep {field}: {summary.get(field)!r} != golden "
            f"{golden[field]!r}" for field in golden
            if summary.get(field) != golden[field]]


def check_points_match(points, reference) -> list[str]:
    """Swept points equal single-plan evaluations, value for value."""
    problems = []
    for point, expected in zip(points, reference):
        if _row(point) != _row(expected):
            problems.append(f"{point.plan.way}: swept {_row(point)} != "
                            f"evaluated {_row(expected)}")
    if len(points) != len(reference):
        problems.append(f"{len(points)} swept points vs {len(reference)} "
                        f"evaluated")
    return problems


def served_expectation(vtrain, key):
    """What a direct call returns for a served key: the payload fields
    the daemon must reproduce, or ``None`` when the plan is infeasible
    (the daemon must then answer with the typed infeasible error)."""
    from repro.errors import InfeasibleConfigError

    description = key.description
    try:
        if key.workload is not None:
            prediction = vtrain.predict_inference(
                description.model, description.plan, key.workload)
            return {"ttft_s": prediction.prefill_time,
                    "tpot_s": prediction.decode_step_time,
                    "tokens_per_s": prediction.tokens_per_second,
                    "memory_per_gpu": prediction.memory_per_gpu}
        prediction = vtrain.predict(description.model, description.plan,
                                    description.training)
    except InfeasibleConfigError:
        return None
    return {"iteration_time": prediction.iteration_time,
            "gpu_compute_utilization": prediction.gpu_compute_utilization,
            "memory_per_gpu": prediction.memory_per_gpu}


def check_served(answer, expected) -> list[str]:
    """One served answer against the direct expectation.

    ``answer`` is the result payload, or the JSON-RPC error code when
    the daemon refused the request.
    """
    from repro.serve.protocol import INFEASIBLE

    if expected is None:
        if answer == INFEASIBLE:
            return []
        return [f"expected the infeasible error, got {answer!r}"]
    if not isinstance(answer, dict):
        return [f"expected {expected}, got error {answer!r}"]
    return [f"{field}: served {answer.get(field)!r} != direct {value!r}"
            for field, value in expected.items()
            if answer.get(field) != value]
