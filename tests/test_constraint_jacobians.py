"""Bit-identity of the batched pressure constraints against a reference loop.

:class:`PressureConstraints` evaluates the Eq. (9)/(10) constraints and
their one-sided difference Jacobians from one lane-local batch per iterate.
The reference here is the generic code it replaced: one
:func:`pressure_drop` call per lane on freshly built width profiles, and a
difference Jacobian that re-evaluates the whole constraint ``n + 1`` times.
Every comparison is exact (bytes, so even the sign of a zero counts),
because SLSQP's path depends on every bit of what it is handed.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.constraints as constraints_module
from repro.core.constraints import PressureConstraints
from repro.core.designer import ChannelModulationDesigner
from repro.core.parameterization import WidthParameterization
from repro.hydraulics.pressure import pressure_drop
from repro.scenarios import get_scenario, scenario_names
from repro.thermal.geometry import WidthProfile
from repro.thermal.properties import TABLE_I

# -- the reference ------------------------------------------------------------


def oracle_drops(pressure, vector):
    """Per-lane drops: one full ``pressure_drop`` call per lane profile."""
    param = pressure.parameterization
    widths = param.vector_to_widths(np.asarray(vector, dtype=float))
    length = param.geometry.length
    lanes = 1 if param.shared else param.n_lanes
    drops = [
        pressure_drop(
            WidthProfile.piecewise_constant(
                widths[lane * param.n_segments : (lane + 1) * param.n_segments],
                length,
            ),
            pressure.geometry,
            pressure.flow_rate,
            pressure.coolant,
            pressure.n_samples,
        )
        for lane in range(lanes)
    ]
    if param.shared:
        return np.full(param.n_lanes, drops[0])
    return np.array(drops)


def oracle_margin(pressure, vector):
    return 1.0 - oracle_drops(pressure, vector) / pressure.max_pressure_drop


def oracle_balance(pressure, vector):
    drops = oracle_drops(pressure, vector)
    imbalance = float((np.max(drops) - np.min(drops)) / pressure.max_pressure_drop)
    return pressure.equal_pressure_tolerance - imbalance


def finite_difference_jacobian(function, vector, step):
    """Generic one-sided difference Jacobian over ``n + 1`` evaluations.

    The step flips to backward at the upper box bound so evaluations stay
    inside the unit hypercube.
    """
    vector = np.asarray(vector, dtype=float)
    base = np.atleast_1d(np.asarray(function(vector), dtype=float))
    jacobian = np.empty((base.size, vector.size))
    for variable in range(vector.size):
        signed = step if vector[variable] + step <= 1.0 else -step
        perturbed = vector.copy()
        perturbed[variable] += signed
        shifted = np.atleast_1d(np.asarray(function(perturbed), dtype=float))
        jacobian[:, variable] = (shifted - base) / signed
    return jacobian


def oracle_margin_jacobian(pressure, vector):
    return finite_difference_jacobian(
        lambda v: oracle_margin(pressure, v), vector, pressure.jacobian_step
    )


def oracle_balance_jacobian(pressure, vector):
    return finite_difference_jacobian(
        lambda v: oracle_balance(pressure, v), vector, pressure.jacobian_step
    )[0]


def assert_bit_equal(actual, expected):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes(), np.max(np.abs(actual - expected))


def assert_matches_oracle(pressure, vector):
    assert_bit_equal(pressure.pressure_drops(vector), oracle_drops(pressure, vector))
    assert_bit_equal(
        pressure._normalized_margin(vector), oracle_margin(pressure, vector)
    )
    assert_bit_equal(pressure._balance(vector), oracle_balance(pressure, vector))
    assert_bit_equal(
        pressure.margin_jacobian(vector), oracle_margin_jacobian(pressure, vector)
    )
    assert_bit_equal(
        pressure.balance_jacobian(vector), oracle_balance_jacobian(pressure, vector)
    )


# -- fixtures -------------------------------------------------------------------

STEADY_SCENARIOS = [
    name for name in scenario_names() if get_scenario(name).transient is None
]


def scenario_pressure(name, shared):
    spec = get_scenario(name)
    spec = spec.with_overrides(
        optimizer=replace(spec.optimizer, shared_profile=shared)
    )
    return ChannelModulationDesigner.from_spec(spec).optimizer.pressure


@pytest.fixture(
    scope="module",
    params=[(name, shared) for name in STEADY_SCENARIOS for shared in (False, True)],
    ids=lambda case: f"{case[0]}-{'shared' if case[1] else 'per-lane'}",
)
def scenario_constraints(request):
    return scenario_pressure(*request.param)


def probe_vectors(n, seed=7):
    """Interior, random and box-edge vectors (0.0 and exactly 1.0 entries)."""
    rng = np.random.default_rng(seed)
    vectors = [np.full(n, 0.5), np.zeros(n), np.ones(n)]
    for _ in range(6):
        vector = rng.random(n)
        vector[rng.random(n) < 0.3] = 1.0  # backward step
        vector[rng.random(n) < 0.2] = 0.0
        vector[rng.random(n) < 0.1] = 1.0 - 1e-9  # backward: x + h > 1
        vectors.append(vector)
    return vectors


def make_constraints(geometry, params, n_lanes, n_segments, shared=False):
    return PressureConstraints(
        parameterization=WidthParameterization(
            geometry, n_segments=n_segments, n_lanes=n_lanes, shared=shared
        ),
        geometry=geometry,
        coolant=params.coolant,
        flow_rate=params.flow_rate_per_channel,
        max_pressure_drop=TABLE_I.max_pressure_drop,
    )


# -- bit identity -----------------------------------------------------------------


class TestMatchesReference:
    def test_registered_scenarios(self, scenario_constraints):
        n = scenario_constraints.parameterization.n_variables
        for vector in probe_vectors(n):
            assert_matches_oracle(scenario_constraints, vector)

    def test_upper_bound_entries_take_backward_steps(self, geometry, params):
        pressure = make_constraints(geometry, params, n_lanes=3, n_segments=4)
        vector = np.full(12, 0.25)
        vector[[0, 5, 11]] = 1.0
        jacobian = pressure.margin_jacobian(vector)
        assert_bit_equal(jacobian, oracle_margin_jacobian(pressure, vector))
        # Off-lane entries of a backward column are -0.0, exactly as the
        # full re-evaluation divides a zero difference by a negative step.
        assert np.signbit(jacobian[1, 0]) and jacobian[1, 0] == 0.0

    def test_out_of_box_vectors_clip_like_the_profiles(self, geometry, params):
        pressure = make_constraints(geometry, params, n_lanes=2, n_segments=3)
        vector = np.array([-0.1, 0.4, 1.2, 0.9, 1.0, 0.0])
        assert_matches_oracle(pressure, vector)

    @settings(max_examples=40, deadline=None)
    @given(
        shared=st.booleans(),
        n_lanes=st.integers(1, 4),
        n_segments=st.integers(1, 6),
        data=st.data(),
    )
    def test_random_vectors(self, geometry, params, shared, n_lanes, n_segments, data):
        pressure = make_constraints(geometry, params, n_lanes, n_segments, shared)
        n = pressure.parameterization.n_variables
        entry = st.one_of(
            st.floats(0.0, 1.0, allow_nan=False),
            st.sampled_from([0.0, 1.0, 1.0 - 1e-9]),
        )
        vector = np.array(data.draw(st.lists(entry, min_size=n, max_size=n)))
        assert_matches_oracle(pressure, vector)

    def test_rejects_wrong_vector_shape(self, geometry, params):
        pressure = make_constraints(geometry, params, n_lanes=2, n_segments=3)
        with pytest.raises(ValueError, match="decision vector"):
            pressure.margin_jacobian(np.zeros(5))


class TestPerIterateCache:
    def test_reassigned_limits_are_never_stale(self, geometry, params):
        pressure = make_constraints(geometry, params, n_lanes=3, n_segments=4)
        vector = np.linspace(0.0, 1.0, 12)
        pressure.margin_jacobian(vector)
        pressure.is_feasible(vector)

        pressure.max_pressure_drop = 2.5e5
        pressure.equal_pressure_tolerance = 0.2
        fresh = replace(pressure)  # a new object built with the new values
        assert fresh._last is None
        assert_bit_equal(
            pressure.margin_jacobian(vector), fresh.margin_jacobian(vector)
        )
        assert_bit_equal(
            pressure.balance_jacobian(vector), fresh.balance_jacobian(vector)
        )
        assert_bit_equal(
            pressure._normalized_margin(vector), fresh._normalized_margin(vector)
        )
        assert pressure.is_feasible(vector) == fresh.is_feasible(vector)
        assert pressure.summary(vector) == fresh.summary(vector)

    def test_returned_drops_do_not_alias_the_cache(self, geometry, params):
        pressure = make_constraints(geometry, params, n_lanes=2, n_segments=3)
        vector = np.full(6, 0.5)
        drops = pressure.pressure_drops(vector)
        drops[:] = 0.0
        assert_bit_equal(pressure.pressure_drops(vector), oracle_drops(pressure, vector))

    @pytest.mark.parametrize(
        "n_lanes, n_segments, shared",
        [(1, 1, False), (1, 10, False), (5, 6, False), (4, 8, False), (5, 6, True)],
    )
    def test_one_iterate_makes_at_most_two_batched_calls(
        self, geometry, params, monkeypatch, n_lanes, n_segments, shared
    ):
        """SLSQP's sequence at one iterate: both constraint values, then
        both Jacobians.  Counted, not timed: the count must not grow with
        the lane or segment count (the per-lane loop made ~2(n+1)*n_lanes
        calls)."""
        pressure = make_constraints(geometry, params, n_lanes, n_segments, shared)
        calls = []
        original = constraints_module.local_pressure_gradient

        def counting(width, *args):
            calls.append(np.shape(width))
            return original(width, *args)

        monkeypatch.setattr(constraints_module, "local_pressure_gradient", counting)
        vector = np.linspace(0.1, 0.9, pressure.parameterization.n_variables)
        pressure._normalized_margin(vector)
        pressure._balance(vector)
        pressure.margin_jacobian(vector)
        pressure.balance_jacobian(vector)
        assert 1 <= len(calls) <= 2
        # A fresh iterate costs the same again; nothing leaks between them.
        pressure._normalized_margin(vector * 0.5)
        pressure.margin_jacobian(vector * 0.5)
        assert len(calls) <= 4

    def test_threads_sharing_one_object_get_their_own_iterates(
        self, geometry, params
    ):
        """Concurrent restarts share one object; a stale or torn cache
        record would hand one thread the drops of another's iterate."""
        pressure = make_constraints(geometry, params, n_lanes=3, n_segments=4)
        rng = np.random.default_rng(11)
        vectors = [rng.random(12) for _ in range(6)]
        expected = [
            (
                oracle_margin(pressure, vector),
                oracle_margin_jacobian(pressure, vector),
                oracle_balance_jacobian(pressure, vector),
            )
            for vector in vectors
        ]
        mismatches, finished = [], []

        def worker(offset):
            for round_ in range(30):
                index = (offset + round_) % len(vectors)
                vector = vectors[index]
                got = (
                    pressure._normalized_margin(vector),
                    pressure.margin_jacobian(vector),
                    pressure.balance_jacobian(vector),
                )
                for actual, reference in zip(got, expected[index]):
                    if actual.tobytes() != reference.tobytes():
                        mismatches.append(index)
            finished.append(offset)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(finished) == list(range(6))
        assert mismatches == []


class TestSameOptimizerPath:
    def test_niagara_design_matches_reference_constraints(self):
        """A short multi-lane design takes the same SLSQP path whether the
        constraints come from the batched code or the reference loop."""
        spec = get_scenario("niagara-arch1")
        spec = spec.with_overrides(
            optimizer=replace(spec.optimizer, max_iterations=4)
        )
        shipped = ChannelModulationDesigner.from_spec(spec).design()

        designer = ChannelModulationDesigner.from_spec(spec)
        pressure = designer.optimizer.pressure
        pressure._normalized_margin = lambda v: oracle_margin(pressure, v)
        pressure._balance = lambda v: oracle_balance(pressure, v)
        pressure.margin_jacobian = lambda v: oracle_margin_jacobian(pressure, v)
        pressure.balance_jacobian = lambda v: oracle_balance_jacobian(pressure, v)
        reference = designer.design()

        assert_bit_equal(shipped.decision_vector, reference.decision_vector)
        for a, b in zip(shipped.optimal.width_profiles, reference.optimal.width_profiles):
            assert_bit_equal(a.segment_widths, b.segment_widths)
        assert shipped.optimal.thermal_gradient == reference.optimal.thermal_gradient
        assert shipped.trace.cost_history == reference.trace.cost_history
        assert shipped.trace.gradient_history == reference.trace.gradient_history
        assert shipped.trace.n_evaluations == reference.trace.n_evaluations
        assert shipped.trace.message == reference.trace.message
