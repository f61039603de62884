"""Output checks: every op's result is checked, and a failed check is a
failed op.

* Registered steady scenarios are compared field by field against the
  committed goldens in ``tests/goldens/*.json`` (read only) with the
  tolerances of ``tests/test_goldens.py``.
* Generated variants are checked for invariants: finite values, gradient
  equal to peak minus minimum, and an optimized design no worse than its
  uniform-width reference.
* ROM transients are compared against their full-order oracle.

Each ``check_*`` function returns a list of human-readable problems; an
empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from typing import Dict, List, Optional, Sequence

#: Tolerances of the golden suite (``tests/test_goldens.py`` defaults).
GOLDEN_RTOL = 1e-6
GOLDEN_ATOL = 1e-9

#: The ROM error contract: reduced and full peak trajectories agree within
#: this many kelvin at every step.
ROM_TOLERANCE_K = 0.1

def load_goldens(root: str) -> Dict[str, Dict[str, object]]:
    """Golden records by scenario name, read from ``<root>/tests/goldens``."""
    directory = os.path.join(root, "tests", "goldens")
    goldens = {}
    for entry in sorted(os.listdir(directory)):
        if entry.endswith(".json"):
            with open(os.path.join(directory, entry), encoding="utf-8") as handle:
                goldens[entry[:-5]] = json.load(handle)
    return goldens


def compare(expected, actual, path: str = "$") -> List[str]:
    """Tolerance-aware recursive diff of a golden against a payload."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected an object"]
        problems = []
        for key in sorted(expected):
            if key not in actual:
                problems.append(f"{path}.{key}: missing")
            else:
                problems += compare(expected[key], actual[key], f"{path}.{key}")
        return problems
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: expected a list of {len(expected)}"]
        problems = []
        for index, (left, right) in enumerate(zip(expected, actual)):
            problems += compare(left, right, f"{path}[{index}]")
        return problems
    if isinstance(expected, numbers.Number) and not isinstance(expected, bool):
        if not isinstance(actual, numbers.Number) or isinstance(actual, bool):
            return [f"{path}: expected a number, got {actual!r}"]
        if abs(actual - expected) <= GOLDEN_ATOL + GOLDEN_RTOL * abs(expected):
            return []
        return [f"{path}: {actual!r} != golden {expected!r}"]
    if expected != actual:
        return [f"{path}: {actual!r} != golden {expected!r}"]
    return []


def _finite(value, path: str) -> List[str]:
    if isinstance(value, dict):
        return [p for key, item in value.items() for p in _finite(item, f"{path}.{key}")]
    if isinstance(value, list):
        return [p for index, item in enumerate(value) for p in _finite(item, f"{path}[{index}]")]
    if isinstance(value, float) and not math.isfinite(value):
        return [f"{path}: not finite ({value!r})"]
    return []


def _gradient_consistent(gradient, peak, low, path: str) -> List[str]:
    numbers_ok = all(
        isinstance(value, numbers.Number) and math.isfinite(value)
        for value in (gradient, peak, low)
    )
    if not numbers_ok:
        return [f"{path}: gradient/peak/min missing or not finite"]
    if abs(gradient - (peak - low)) > 1e-9 * max(1.0, abs(peak)):
        return [f"{path}: gradient {gradient!r} != peak - min {peak - low!r}"]
    if peak < low:
        return [f"{path}: peak {peak!r} below min {low!r}"]
    return []


def check_result(payload, golden: Optional[Dict[str, object]] = None,
                 path: str = "$") -> List[str]:
    """A steady ``SimulationResult`` payload: invariants, then its golden."""
    if not isinstance(payload, dict):
        return [f"{path}: expected a result object"]
    problems = _finite(payload, path)
    gradient = payload.get("thermal_gradient_K")
    peak = payload.get("peak_temperature_K")
    low = payload.get("min_temperature_K")
    if payload.get("transient") is None:
        problems += _gradient_consistent(gradient, peak, low, path)
    elif not all(isinstance(v, numbers.Number) for v in (gradient, peak, low)):
        problems.append(f"{path}: gradient/peak/min missing")
    elif not 0.0 <= gradient <= peak - low + 1e-9 * max(1.0, abs(peak)):
        # A transient reports the final map's gradient beside the peak and
        # minimum over the whole run.
        problems.append(f"{path}: final gradient {gradient!r} outside [0, peak - min]")
    if golden is not None:
        problems += compare(golden, {key: payload.get(key) for key in golden}, path)
    return problems


def check_cli(op: Dict[str, object], payload, goldens) -> List[str]:
    """The parsed JSON of one ``repro run``/``repro validate`` invocation."""
    check = op["check"]
    if check == "invariants":
        return check_result(payload)
    golden = goldens[check["golden"]]
    if check["family"] == "validate":
        if not isinstance(payload, dict):
            return ["$: expected a cross-validation object"]
        return check_result(payload.get("fdm"), golden["fdm"], "$.fdm") + check_result(
            payload.get("ice"), golden["ice"], "$.ice"
        )
    return check_result(payload, golden[check["family"]])


def check_design(result: Dict[str, object]) -> List[str]:
    """One optimized design (see ``workloads.design_result``)."""
    problems = _finite(result, "$")
    problems += _gradient_consistent(
        result.get("optimal_gradient_K"),
        result.get("optimal_peak_K"),
        result.get("optimal_min_K"),
        "$.optimal",
    )
    optimal = result.get("optimal_gradient_K")
    reference = result.get("reference_gradient_K")
    if not problems and not optimal <= reference + 1e-9:
        problems.append(
            f"$: optimal gradient {optimal!r} exceeds the uniform-width "
            f"reference {reference!r}"
        )
    return problems


def check_served_design(result, path: str = "$") -> List[str]:
    """One optimize record's result as ``repro serve`` stores it."""
    summary = result.get("summary") if isinstance(result, dict) else None
    if not isinstance(summary, dict):
        return [f"{path}: expected an optimization summary"]
    problems = _finite(result, path)
    optimal = summary.get("optimal_gradient_K")
    reference = summary.get("reference_gradient_K")
    design = result.get("optimal_design") or {}
    if not all(isinstance(v, numbers.Number) for v in (optimal, reference)):
        return problems + [f"{path}.summary: optimal/reference gradient missing"]
    if design.get("thermal_gradient_K") != optimal:
        problems.append(f"{path}: optimal design gradient != summary {optimal!r}")
    if not optimal <= reference + 1e-9:
        problems.append(
            f"{path}: optimal gradient {optimal!r} exceeds the uniform-width "
            f"reference {reference!r}"
        )
    return problems


def check_transient(result: Dict[str, object]) -> List[str]:
    """One transient outcome (see ``workloads.transient_result``)."""
    peaks = result.get("peak_history_K")
    if not isinstance(peaks, list) or not peaks:
        return ["$.peak_history_K: missing"]
    problems = _finite(result, "$")
    if not problems and result.get("peak_transient_temperature_K") != max(peaks):
        problems.append("$: peak_transient_temperature_K != max(peak_history_K)")
    error = result.get("rom_peak_abs_err_K")
    if error is not None and not error <= ROM_TOLERANCE_K:
        problems.append(f"$.rom_peak_abs_err_K: {error!r} over {ROM_TOLERANCE_K} K")
    return problems


def rom_deviation(rom_peaks: Sequence[float], full_peaks: Sequence[float]) -> float:
    """Largest per-step |ROM - full| peak temperature (K)."""
    if len(rom_peaks) != len(full_peaks):
        return math.inf
    return max(abs(a - b) for a, b in zip(rom_peaks, full_peaks))


def check_oracle(rom_peaks, full_peaks) -> List[str]:
    """A ROM trajectory against the full-order run of the same trace."""
    deviation = rom_deviation(rom_peaks, full_peaks)
    if not deviation <= ROM_TOLERANCE_K:
        return [f"$: ROM peak deviates {deviation!r} K from its full-order oracle"]
    return []


def check_records(op: Dict[str, object], records, goldens) -> List[str]:
    """The NDJSON records of one finished serve job."""
    expected = len(op["values"]) if op["kind"] == "optimize" else 1
    if not isinstance(records, list) or len(records) != expected:
        return [f"$: expected {expected} record(s), got {records!r:.200}"]
    problems = []
    for index, record in enumerate(records):
        result = record.get("result") if isinstance(record, dict) else None
        if op["kind"] == "optimize":
            problems += check_served_design(result, f"$[{index}].result")
            continue
        scenario = op.get("scenario") or {}
        golden = None
        if not scenario.get("set") and scenario.get("base") in goldens:
            golden = goldens[scenario["base"]][record.get("solver", "fdm")]
        problems += check_result(result, golden, f"$[{index}].result")
    return problems
