"""Transient engine throughput: one batch vs the same scenarios one by one.

Times a batch of trace-driven transient scenarios that share one stack
(so one factorization serves every step of every scenario) against the
same scenarios run as batches of one, asserts bit-identical trajectories,
and emits the ``transient_throughput`` ``BENCH {json}`` record:

.. code-block:: console

    PYTHONPATH=src python -m pytest benchmarks/test_bench_transient.py -s \
        | grep '^BENCH '

Setting ``REPRO_BENCH_SMOKE=1`` shrinks the problem to smoke-test size
(the CI benchmark job archives the records); throughput assertions apply
to the full-size run only.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace

import numpy as np

from repro.scenarios import GridSpec, ScenarioSpec, SolverSpec, WorkloadSpec
from repro.thermal.backends import SparseLUBackend
from repro.transient import PolicySpec, TraceSpec, TransientSpec
from repro.transient_engine import simulate_transient, simulate_transient_many

#: Smoke mode: tiny problem, no throughput assertions (CI runs this).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").strip() not in ("", "0")

N_SCENARIOS = 3 if SMOKE else 8
N_COLS = 16 if SMOKE else 44
N_ROWS = 1 if SMOKE else 44
N_STEPS = 20 if SMOKE else 100

#: The smoke run uses the tiny single-channel strip; the full run uses the
#: Fig. 7 arch1 stacking (44x44 cells per layer, ~5.8k unknowns) so the
#: record reflects a real multi-die transient.
WORKLOAD = (
    WorkloadSpec(kind="test-a")
    if SMOKE
    else WorkloadSpec(kind="architecture", architecture="arch1")
)


def emit_bench(record: dict) -> None:
    """Print one machine-readable benchmark record."""
    print("BENCH " + json.dumps(record, sort_keys=True))


def _time_once(function) -> float:
    start = time.perf_counter()
    function()
    return time.perf_counter() - start


def make_batch():
    """N trace-driven scenarios sharing one stack (traces differ)."""
    base = ScenarioSpec(
        name="bench-transient",
        workload=WORKLOAD,
        grid=GridSpec(n_grid_points=61, n_lanes=1, n_rows=N_ROWS,
                      n_cols=N_COLS),
        solver=SolverSpec(simulator="ice"),
        transient=TransientSpec(
            duration_s=N_STEPS * 0.01,
            time_step_s=0.01,
            traces=(
                TraceSpec(layer="top_die", kind="periodic", period_s=0.08,
                          duty=0.5, high=120.0, low=20.0),
            ),
            policy=PolicySpec(kind="constant", control_interval_s=0.0),
            store_every=max(N_STEPS // 4, 1),
        ),
    )
    specs = []
    for index in range(N_SCENARIOS):
        duty = 0.25 + 0.5 * index / max(N_SCENARIOS - 1, 1)
        trace = replace(base.transient.traces[0], duty=duty)
        specs.append(
            base.with_overrides(
                name=f"bench-transient/{index}",
                transient=replace(base.transient, traces=(trace,)),
            )
        )
    return specs


def test_transient_throughput_batched_vs_reference(benchmark):
    """Batched stepping: one factorization, bit-identical, faster stepping."""
    specs = make_batch()
    n_steps = specs[0].transient.n_steps

    reference_backend = SparseLUBackend()
    reference_s = _time_once(
        lambda: [simulate_transient(s, backend=reference_backend)
                 for s in specs]
    )
    references = [
        simulate_transient(s, backend=reference_backend) for s in specs
    ]

    batched_backend = SparseLUBackend()
    batched_s = _time_once(
        lambda: simulate_transient_many(specs, backend=batched_backend)
    )
    # Acceptance: ONE factorization serves all steps and scenarios.
    assert batched_backend.n_factorizations == 1
    batched = simulate_transient_many(specs, backend=batched_backend)
    for outcome, reference in zip(batched, references):
        assert outcome.metadata["batched"]
        assert np.array_equal(outcome.peak_history_K, reference.peak_history_K)
        for name, history in reference.result.layer_histories.items():
            assert np.array_equal(
                outcome.result.layer_histories[name], history
            )

    benchmark(lambda: simulate_transient_many(specs, backend=batched_backend))

    total_steps = N_SCENARIOS * n_steps
    record = {
        "benchmark": "transient_throughput",
        "n_scenarios": N_SCENARIOS,
        "n_steps": n_steps,
        "grid": [N_ROWS, N_COLS],
        "n_unknowns": batched[0].metadata["n_unknowns"],
        "reference_s": reference_s,
        "batched_s": batched_s,
        "reference_steps_per_s": total_steps / reference_s,
        "batched_steps_per_s": total_steps / batched_s,
        "speedup": reference_s / batched_s,
        "factorizations": batched_backend.n_factorizations,
        "bit_identical": True,
        "smoke": SMOKE,
    }
    emit_bench(record)
    print()
    print(
        f"transient {N_SCENARIOS} scenarios x {n_steps} steps "
        f"({record['n_unknowns']} unknowns): reference "
        f"{reference_s * 1e3:.1f} ms, batched {batched_s * 1e3:.1f} ms "
        f"({record['speedup']:.2f}x, one factorization)"
    )
