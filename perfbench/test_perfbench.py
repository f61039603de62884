"""The benchmark's own tests: deterministic ops, and checks that catch
corrupted outputs.  Run with ``python -m pytest perfbench`` from the repo
root; they need neither the program nor a network.
"""

from __future__ import annotations

import copy
import os

import pytest

import checks
import ops
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_one_seed_gives_one_op_list(workload):
    assert ops.op_list(workload, 7, 80) == ops.op_list(workload, 7, 80)


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_held_out_seed_gives_other_ops(workload):
    assert ops.op_list(workload, ops.HELD_OUT_SEED, 80) != ops.op_list(workload, 7, 80)


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_rounds_keep_their_mix_whatever_the_seed(workload):
    def mix(seed):
        kinds = []
        for op in ops.op_list(workload, seed, 200):
            if op["round"] >= 4:
                break
            if workload == "cli-oneshot":
                kinds.append(op["argv"][0])
            elif workload == "design":
                kinds.append(op["base"][:7])
            elif workload == "transient-trace":
                kinds.append((op["mode"], op["policy"]))
            else:
                kinds.append((op["kind"], bool(op.get("fresh"))))
        return sorted(map(str, kinds))

    assert mix(1) == mix(2) == mix(ops.HELD_OUT_SEED)


def _count(op, result, check):
    """Feed ``result`` through the benchmark's op path; return the tally."""
    tally = workloads.Tally()
    workloads.run_op(tally, op, lambda _op: (result, {}), check)
    return tally


@pytest.fixture(scope="module")
def goldens():
    return checks.load_goldens(ROOT)


def test_golden_cli_output_passes_and_corruption_fails(goldens):
    op = {"id": 0, "argv": ["run", "test-a", "--json"],
          "check": {"golden": "test-a", "family": "fdm"}}
    good = dict(goldens["test-a"]["fdm"], transient=None)

    def check(op_, payload):
        return checks.check_cli(op_, payload, goldens)

    assert _count(op, good, check).failed == 0
    corrupted = copy.deepcopy(good)
    corrupted["peak_temperature_K"] += 1e-3
    corrupted["thermal_gradient_K"] += 1e-3
    tally = _count(op, corrupted, check)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "golden" in tally.problems[0]


def test_invariant_breach_fails(goldens):
    op = {"id": 1, "argv": ["run", "niagara-arch2", "--json"], "check": "invariants"}
    payload = dict(goldens["niagara-arch1"]["fdm"], transient=None)
    payload["thermal_gradient_K"] *= 0.5
    tally = _count(op, payload, lambda o, p: checks.check_cli(o, p, goldens))
    assert tally.failed == 1
    payload["thermal_gradient_K"] = float("nan")
    assert _count(op, payload, lambda o, p: checks.check_cli(o, p, goldens)).failed == 1


def test_design_worse_than_uniform_fails():
    good = {"optimal_gradient_K": 15.0, "optimal_peak_K": 330.0,
            "optimal_min_K": 315.0, "reference_gradient_K": 20.0, "converged": True}
    assert _count({"id": 2}, good, lambda o, r: checks.check_design(r)).failed == 0
    worse = dict(good, optimal_gradient_K=25.0, optimal_min_K=305.0)
    assert _count({"id": 2}, worse, lambda o, r: checks.check_design(r)).failed == 1


def test_rom_off_its_oracle_fails():
    full = [300.0, 320.0, 330.0, 325.0]
    assert checks.check_oracle([300.0, 320.01, 330.0, 325.0], full) == []
    assert checks.check_oracle([300.0, 320.5, 330.0, 325.0], full)
    assert checks.check_oracle(full[:-1], full)


def test_serve_records_with_a_wrong_result_fail(goldens):
    op = {"id": 3, "kind": "run", "scenario": {"base": "test-b", "set": {}}}
    record = {"solver": "fdm", "result": dict(goldens["test-b"]["fdm"], transient=None)}
    assert checks.check_records(op, [record], goldens) == []
    wrong = copy.deepcopy(record)
    wrong["result"]["coolant_rise_K"] *= 1.01
    assert checks.check_records(op, [wrong], goldens)
    assert checks.check_records(op, [], goldens)


def test_served_design_worse_than_its_reference_fails(goldens):
    op = {"id": 5, "kind": "optimize", "values": [40.0, 44.0]}
    result = {"summary": {"optimal_gradient_K": 13.1, "reference_gradient_K": 18.6},
              "optimal_design": {"thermal_gradient_K": 13.1}}
    assert checks.check_records(op, [{"result": result}] * 2, goldens) == []
    worse = copy.deepcopy(result)
    worse["summary"]["optimal_gradient_K"] = worse["optimal_design"]["thermal_gradient_K"] = 19.0
    assert checks.check_records(op, [{"result": result}, {"result": worse}], goldens)
    assert checks.check_records(op, [{"result": result}], goldens)


def test_failed_execution_counts_as_failed():
    def boom(_op):
        raise RuntimeError("exit 2")

    tally = workloads.Tally()
    workloads.run_op(tally, {"id": 4}, boom, lambda o, r: [])
    assert (tally.attempted, tally.failed, tally.latencies) == (1, 1, [])


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in (21, 40, 63, 100, 720):
        p = workloads.tail_percentile(n)
        assert n * (100 - p) / 100 >= 10 - 1e-9
    assert workloads.tail_percentile(12) == 50.0


def test_spans_nest_and_self_time_excludes_children():
    tracer = tracing.Tracer(op=5)

    def inner():
        return 1

    def outer():
        return inner() + inner()

    inner = tracer.wrap("backends.solve", inner)
    outer = tracer.wrap("engine.solve", outer)
    assert outer() == 2
    document = tracer.document()
    names = [span[2] for span in document["spans"]]
    assert names.count("backends.solve") == 2 and names.count("engine.solve") == 1
    parent = next(span[0] for span in document["spans"] if span[2] == "engine.solve")
    assert all(span[1] == parent for span in document["spans"] if span[2] == "backends.solve")
    assert all(span[5] == 5 for span in document["spans"])
    rows = {name: self_s for name, self_s, _, _ in tracing.self_times([document])
            if name == "engine.solve"}
    outer_span = next(span for span in document["spans"] if span[2] == "engine.solve")
    assert rows["engine.solve"] <= outer_span[4] - outer_span[3]
