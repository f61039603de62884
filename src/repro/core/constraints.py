"""Design constraints of the optimal channel-modulation problem.

Section IV-B of the paper imposes three constraints on the width
trajectories:

1. *Boundedness of channel widths* (Eq. 8): ``w_Cmin <= w_C(z) <= w_Cmax``
   everywhere.  With the piecewise-constant parameterization this is a plain
   box constraint on the decision vector and is handled by the NLP solver's
   bounds, not by penalty terms.
2. *Maximum pressure drop* (Eq. 9): the Darcy-Weisbach pressure drop of every
   channel, at the fixed per-channel flow rate, must not exceed ``dP_max``.
3. *Equal pressure drops* (Eq. 10): all channels fed by the common reservoir
   must exhibit the same pressure drop, so that the constant-flow assumption
   is hydraulically consistent.

This module evaluates constraints 2 and 3 for a decision vector and exposes
them in the formats expected by :func:`scipy.optimize.minimize` (dictionaries
with ``type``/``fun`` entries).  Constraint values are scaled to order one so
that SLSQP's merit function treats them on an equal footing with the cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .._compat import trapezoid
from ..hydraulics.pressure import local_pressure_gradient
from ..thermal.geometry import ChannelGeometry
from ..thermal.properties import Coolant
from .parameterization import WidthParameterization

__all__ = ["PressureConstraints"]


@dataclass
class PressureConstraints:
    """Pressure-related constraints evaluated on the decision vector.

    Attributes
    ----------
    parameterization:
        The width parameterization that decodes decision vectors.
    geometry:
        Channel geometry (provides the channel height and length).
    coolant:
        Coolant whose viscosity enters the Darcy-Weisbach expression.
    flow_rate:
        Volumetric flow rate per physical channel (m^3/s), fixed by the
        paper's assumption 3.
    max_pressure_drop:
        ``dP_max`` of Eq. (9), in Pa.
    enforce_equal_pressure:
        Whether to add the Eq. (10) equality constraints.  They are only
        meaningful for multi-lane problems with per-lane trajectories.
    equal_pressure_tolerance:
        Relative tolerance used when the equality is enforced as a pair of
        inequalities (SLSQP handles equalities natively; other solvers get
        the relaxed form).
    n_samples:
        Sample count of the trapezoidal pressure integral.
    jacobian_step:
        Step of the one-sided differences behind the explicit constraint
        Jacobians (:meth:`margin_jacobian`, :meth:`balance_jacobian`):
        forward, or backward where ``x + h`` would leave the unit box.
        Matches SciPy's default derivative step.  Perturbing variable
        ``j`` moves only its own lane's drop, so all ``n`` perturbed drops
        of an iterate are one batched evaluation, not ``n + 1`` full
        per-lane ones (which dominated a multi-lane design's run time).
    """

    parameterization: WidthParameterization
    geometry: ChannelGeometry
    coolant: Coolant
    flow_rate: float
    max_pressure_drop: float
    enforce_equal_pressure: bool = True
    equal_pressure_tolerance: float = 0.05
    n_samples: int = 513
    jacobian_step: float = float(np.sqrt(np.finfo(float).eps))

    def __post_init__(self) -> None:
        if self.flow_rate <= 0.0:
            raise ValueError("flow rate must be positive")
        if self.max_pressure_drop <= 0.0:
            raise ValueError("max pressure drop must be positive")
        if not (0.0 < self.equal_pressure_tolerance < 1.0):
            raise ValueError("equal_pressure_tolerance must lie in (0, 1)")
        self._sampling_cache = None
        self._last = None

    # -- raw evaluations -----------------------------------------------------------

    def _inputs(self) -> tuple:
        """Every field the raw drops depend on (cache key component)."""
        return (
            self.parameterization,
            self.geometry,
            self.coolant,
            self.flow_rate,
            self.n_samples,
            self.jacobian_step,
        )

    def _sampling(self, inputs: tuple) -> Tuple[np.ndarray, np.ndarray]:
        """Sample points of the Eq. (9) integral and their segment indices.

        The same expressions as :func:`~repro.hydraulics.pressure.pressure_drop`
        evaluating a piecewise-constant :class:`WidthProfile`, computed once
        per set of inputs instead of once per lane and perturbation.
        """
        cached = self._sampling_cache
        if cached is not None and cached[0] == inputs:
            return cached[1], cached[2]
        z = np.linspace(0.0, self.geometry.length, self.n_samples)
        length = float(self.parameterization.geometry.length)
        if np.any(z < -1e-12) or np.any(z > length * (1 + 1e-9)):
            raise ValueError("z must lie inside [0, channel length]")
        n_segments = self.parameterization.n_segments
        index = np.minimum(
            (np.clip(z, 0.0, length) / length * n_segments).astype(int),
            n_segments - 1,
        )
        self._sampling_cache = (inputs, z, index)
        return z, index

    def _segment_drops(self, rows: np.ndarray, inputs: tuple) -> np.ndarray:
        """Eq. (9) pressure drop (Pa) of each row of segment widths.

        One vectorized gradient evaluation over the ``(m, n_samples)``
        gather; the integral runs row by row so every drop sums in exactly
        the order of a single-channel :func:`pressure_drop` call (a 2-D
        ``trapezoid`` reduction may round differently).
        """
        z, index = self._sampling(inputs)
        gradients = local_pressure_gradient(
            rows[:, index],
            self.geometry.channel_height,
            self.flow_rate,
            self.coolant.dynamic_viscosity,
        )
        return np.array([float(trapezoid(row, z)) for row in gradients])

    def _evaluate(self, vector: np.ndarray, stencil: bool = False) -> tuple:
        """Raw drops at ``vector`` and, if asked, at its difference stencil.

        Returns ``(key, drops, steps, perturbed)``: ``drops`` holds the
        per-lane drops; ``perturbed[:, j]`` the per-lane drops after
        variable ``j`` moves by ``steps[j]`` (``None`` until requested).
        Variable ``j`` only moves its own lane's drop (every lane's in
        shared mode), so the stencil is one batch of ``n`` rows.

        The last record is kept as one immutable tuple, replaced in a single
        assignment: SLSQP asks for the margins, the balance and both
        Jacobians at the same iterate, and concurrent multistart restarts
        share this object.  Only raw drops are cached, so
        ``max_pressure_drop`` and ``equal_pressure_tolerance`` may be
        reassigned at any time.
        """
        param = self.parameterization
        vector = np.asarray(vector, dtype=float)
        rows = param.segment_rows(vector)
        inputs = self._inputs()
        key = (vector.tobytes(), inputs)
        record = self._last
        if record is not None and record[0] == key:
            if not stencil or record[2] is not None:
                return record
            drops = record[1]
        else:
            drops = None

        batches = [] if drops is not None else [rows]
        steps = perturbed = None
        if stencil:
            variables = np.arange(param.n_variables)
            lanes = variables // param.n_segments  # all 0 in shared mode
            step = self.jacobian_step
            steps = np.where(vector + step <= 1.0, step, -step)
            shifted = rows[lanes]
            shifted[variables, variables % param.n_segments] = (
                param.vector_to_widths(vector + steps)
            )
            batches.append(shifted)
        raw = self._segment_drops(np.concatenate(batches), inputs)
        if drops is None:
            drops = raw[: rows.shape[0]]
            if param.shared:
                drops = np.full(param.n_lanes, drops[0])
        if stencil:
            touched = param.shared | (np.arange(param.n_lanes)[:, None] == lanes)
            perturbed = np.where(touched, raw[raw.size - lanes.size :], drops[:, None])
            steps.flags.writeable = perturbed.flags.writeable = False
        drops.flags.writeable = False
        record = (key, drops, steps, perturbed)
        self._last = record
        return record

    def pressure_drops(self, vector: np.ndarray) -> np.ndarray:
        """Per-lane pressure drops (Pa) for a decision vector."""
        return self._evaluate(vector)[1].copy()

    def max_drop(self, vector: np.ndarray) -> float:
        """Largest per-lane pressure drop (Pa)."""
        return float(np.max(self._evaluate(vector)[1]))

    def imbalance(self, vector: np.ndarray) -> float:
        """Relative pressure imbalance ``(max - min)/dP_max`` across lanes."""
        drops = self._evaluate(vector)[1]
        return float((np.max(drops) - np.min(drops)) / self.max_pressure_drop)

    def is_feasible(self, vector: np.ndarray, slack: float = 1e-6) -> bool:
        """True when both Eq. (9) and (when enforced) Eq. (10) hold."""
        drops = self._evaluate(vector)[1]
        if np.max(drops) > self.max_pressure_drop * (1.0 + slack):
            return False
        if self.enforce_equal_pressure and drops.size > 1:
            spread = (np.max(drops) - np.min(drops)) / self.max_pressure_drop
            if spread > self.equal_pressure_tolerance + slack:
                return False
        return True

    # -- scipy constraint dictionaries ------------------------------------------------

    def _normalized_margin(self, vector: np.ndarray) -> np.ndarray:
        """``1 - dP_i / dP_max`` per lane; non-negative when feasible."""
        return 1.0 - self._evaluate(vector)[1] / self.max_pressure_drop

    def _balance(self, vector: np.ndarray) -> float:
        """``tolerance - imbalance``; non-negative when hydraulically balanced."""
        return self.equal_pressure_tolerance - self.imbalance(vector)

    def margin_jacobian(self, vector: np.ndarray) -> np.ndarray:
        """Jacobian of the Eq. (9) normalized margins, shape ``(n_lanes, n)``.

        Column ``j`` is the one-sided difference ``(m(x + h e_j) - m(x)) / h``;
        rows of lanes that variable ``j`` does not touch come out exactly 0.
        """
        _, drops, steps, perturbed = self._evaluate(vector, stencil=True)
        limit = self.max_pressure_drop
        base = 1.0 - drops / limit
        return ((1.0 - perturbed / limit) - base[:, None]) / steps

    def balance_jacobian(self, vector: np.ndarray) -> np.ndarray:
        """Gradient of the Eq. (10) balance constraint, shape ``(n,)``."""
        _, drops, steps, perturbed = self._evaluate(vector, stencil=True)
        limit = self.max_pressure_drop
        tolerance = self.equal_pressure_tolerance
        base = tolerance - float((np.max(drops) - np.min(drops)) / limit)
        spread = (perturbed.max(axis=0) - perturbed.min(axis=0)) / limit
        shifted = tolerance - spread
        return (shifted - base) / steps

    def as_scipy_constraints(self) -> List[Dict]:
        """Constraint dictionaries for :func:`scipy.optimize.minimize` (SLSQP).

        The Eq. (9) limit becomes one vector-valued inequality (one entry
        per lane).  The Eq. (10) equal-pressure requirement is expressed as
        a relaxed inequality ``tolerance - (max - min)/dP_max >= 0``: a strict
        equality across many lanes over-constrains the problem numerically,
        while the relaxed form keeps designs hydraulically balanced to
        within ``equal_pressure_tolerance`` of the allowed budget (the
        benchmarks report the achieved imbalance).

        Each dictionary carries an explicit ``jac`` entry, so SLSQP never
        falls back to its internal finite differences.
        """
        constraints: List[Dict] = [
            {
                "type": "ineq",
                "fun": self._normalized_margin,
                "jac": self.margin_jacobian,
            }
        ]
        multi_lane = (
            self.parameterization.n_lanes > 1 and not self.parameterization.shared
        )
        if self.enforce_equal_pressure and multi_lane:
            constraints.append(
                {
                    "type": "ineq",
                    "fun": self._balance,
                    "jac": self.balance_jacobian,
                }
            )
        return constraints

    def summary(self, vector: np.ndarray) -> Dict[str, float]:
        """Scalar constraint metrics for reports."""
        drops = self.pressure_drops(vector)
        return {
            "max_pressure_drop_Pa": float(np.max(drops)),
            "min_pressure_drop_Pa": float(np.min(drops)),
            "pressure_limit_Pa": self.max_pressure_drop,
            "pressure_margin": float(1.0 - np.max(drops) / self.max_pressure_drop),
            "pressure_imbalance": self.imbalance(vector),
        }
