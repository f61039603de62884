"""Determinism of the multistart optimization schedule.

The optimizer documents that concurrent and sequential multistart
schedules return the same design (restarts are independent SLSQP runs and
the best feasible optimum is selected deterministically in start order).
These tests pin that promise down to bit-identical results: the same
seeded scenario must produce the same :class:`OptimizationRunResult`
whether the restarts run serially (``n_workers=1``) or on a thread pool
(``n_workers>1``), and across repeated runs.
"""

from __future__ import annotations

import numpy as np

from repro.api import Session
from repro.scenarios import (
    GridSpec,
    OptimizerSpec,
    ScenarioSpec,
    SolverSpec,
    WorkloadSpec,
)


def seeded_spec(n_workers: int) -> ScenarioSpec:
    """A fast seeded Test B scenario with a real multistart schedule."""
    return ScenarioSpec(
        name="determinism",
        workload=WorkloadSpec(kind="test-b", segments=4, seed=2012),
        grid=GridSpec(n_grid_points=61, n_lanes=1, n_rows=1, n_cols=20),
        solver=SolverSpec(n_workers=n_workers),
        optimizer=OptimizerSpec(
            n_segments=3, max_iterations=6, multistart=3
        ),
    )


def multilane_spec(n_workers: int) -> ScenarioSpec:
    """A fast three-lane Niagara stacking with per-lane trajectories.

    Every restart evaluates the Eq. (9)/(10) constraints of several lanes
    through the one ``PressureConstraints`` object the restarts share.
    """
    return ScenarioSpec(
        name="determinism-multilane",
        workload=WorkloadSpec(kind="architecture", architecture="arch1"),
        grid=GridSpec(n_grid_points=41, n_lanes=3, n_rows=6, n_cols=12),
        solver=SolverSpec(n_workers=n_workers),
        optimizer=OptimizerSpec(n_segments=3, max_iterations=6, multistart=3),
    )


def design_fingerprint(outcome):
    """Every numeric artefact of the run that must reproduce exactly."""
    optimal = outcome.result.optimal
    return {
        "widths": [
            [float(w) for w in profile.segment_widths]
            for profile in optimal.width_profiles
        ],
        "cost": float(optimal.solution.cost),
        "peak_K": float(optimal.solution.peak_temperature),
        "gradient_K": float(optimal.solution.thermal_gradient),
        "pressure_drops": [float(d) for d in optimal.pressure_drops],
        "summary": {
            key: value
            for key, value in outcome.result.summary().items()
            if isinstance(value, (int, float, str, bool))
        },
    }


class TestMultistartDeterminism:
    def test_serial_and_threaded_restarts_are_bit_identical(self):
        serial = Session().optimize(seeded_spec(n_workers=1))
        threaded = Session().optimize(seeded_spec(n_workers=3))
        a, b = design_fingerprint(serial), design_fingerprint(threaded)
        # Exact equality, not approximate: the schedules must agree bit
        # for bit (floats compare with ==).
        assert a == b
        np.testing.assert_array_equal(
            serial.result.optimal.solution.temperatures,
            threaded.result.optimal.solution.temperatures,
        )

    def test_multilane_restarts_are_bit_identical(self):
        serial = Session().optimize(multilane_spec(n_workers=1))
        threaded = Session().optimize(multilane_spec(n_workers=3))
        assert len(serial.result.optimal.width_profiles) == 3
        assert design_fingerprint(serial) == design_fingerprint(threaded)
        np.testing.assert_array_equal(
            serial.result.decision_vector, threaded.result.decision_vector
        )
        np.testing.assert_array_equal(
            serial.result.optimal.solution.temperatures,
            threaded.result.optimal.solution.temperatures,
        )

    def test_adjoint_gradients_are_schedule_independent(self):
        # Pin gradient_mode explicitly (it is also the default): the
        # adjoint path must not introduce any thread-order sensitivity --
        # each restart's forward/transpose solves are independent.
        def spec(n_workers):
            base = seeded_spec(n_workers)
            return base.with_overrides(
                optimizer=OptimizerSpec(
                    n_segments=3,
                    max_iterations=6,
                    multistart=3,
                    gradient_mode="adjoint",
                )
            )

        serial = Session().optimize(spec(1))
        threaded = Session().optimize(spec(3))
        assert serial.to_dict()["provenance"]["gradient_mode"] == "adjoint"
        assert design_fingerprint(serial) == design_fingerprint(threaded)
        np.testing.assert_array_equal(
            serial.result.optimal.solution.temperatures,
            threaded.result.optimal.solution.temperatures,
        )

    def test_same_seed_reproduces_across_fresh_sessions(self):
        first = Session().optimize(seeded_spec(n_workers=1))
        second = Session().optimize(seeded_spec(n_workers=1))
        assert design_fingerprint(first) == design_fingerprint(second)

    def test_different_seed_changes_the_workload(self):
        spec = seeded_spec(n_workers=1)
        other = spec.with_overrides(
            name="determinism-reseeded",
            workload=WorkloadSpec(kind="test-b", segments=4, seed=99),
        )
        first = Session().run(spec)
        second = Session().run(other)
        assert first.peak_temperature_K != second.peak_temperature_K
