"""Deterministic op generation for the four benchmark workloads.

Every op is plain JSON-compatible data derived from ``random.Random(seed)``:
the program under test receives only these generated inputs.  Ops come in
*rounds* of a fixed class composition (the seed picks the order and the
per-op variants inside each class), so any prefix of the stream has nearly
the same mix whatever the seed -- that is what keeps medians steady from
seed to seed.

Nothing here imports ``repro``: op lists can be generated and compared
without the program (see ``test_perfbench.py``).
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterator, List

WORKLOADS = ("cli-oneshot", "design", "transient-trace", "serve-campaign")

#: A seed never used while the benchmark was tuned; later performance
#: claims must also hold on it (see README.md, "Claims").
HELD_OUT_SEED = 20120312

#: Registered steady scenarios whose FDM and ICE results are pinned by
#: ``tests/goldens/<name>.json``.
GOLDEN_STEADY = ("test-a", "test-b", "niagara-arch1")
STEADY = GOLDEN_STEADY + ("niagara-arch2", "niagara-arch3")
NIAGARA = tuple(
    (arch, power)
    for arch in ("arch1", "arch2", "arch3")
    for power in ("peak", "average")
)


FLUX = "workload.flux_w_per_cm2"
SEED = "workload.seed"


def _variant(base: str, **overrides: object) -> Dict[str, object]:
    """A registered scenario plus dotted-path field overrides."""
    return {"base": base, "set": overrides}


def _r(rng: random.Random, low: float, high: float, digits: int = 3) -> float:
    return round(rng.uniform(low, high), digits)


# -- cli-oneshot ------------------------------------------------------------


def _cli_run(name: str, *flags: str) -> Dict[str, object]:
    family = "ice" if "--solver" in flags else "fdm"
    water = "--coolant-model" in flags
    check = (
        {"golden": name, "family": family}
        if name in GOLDEN_STEADY and not water
        else "invariants"
    )
    return {"argv": ["run", name, *flags, "--json"], "check": check}


def _cli_round(rng: random.Random) -> List[Dict[str, object]]:
    single = rng.choice(("test-a", "test-b"))
    ops = [
        _cli_run(rng.choice(GOLDEN_STEADY)),
        _cli_run(rng.choice(GOLDEN_STEADY)),
        _cli_run(rng.choice(STEADY)),
        _cli_run(rng.choice(GOLDEN_STEADY), "--solver", "ice"),
        _cli_run(rng.choice(STEADY), "--solver", "ice"),
        _cli_run(rng.choice(("test-a", "test-b", "niagara-arch1")),
                 "--coolant-model", "water"),
        _cli_run("test-a-burst"),
        {"argv": ["validate", single, "--json"],
         "check": {"golden": single, "family": "validate"}},
    ]
    rng.shuffle(ops)
    return ops


# -- design -------------------------------------------------------------------


def _design_round(rng: random.Random) -> List[Dict[str, object]]:
    small: List[Dict[str, object]] = [
        _variant("test-a", **{FLUX: _r(rng, 45.0, 55.0)}) for _ in range(13)
    ]
    small += [_variant("test-b", **{SEED: rng.randrange(1, 10**6)})
              for _ in range(2)]
    big = [_variant(f"niagara-{arch}", **{"workload.power": power})
           for arch, power in NIAGARA]
    rng.shuffle(small)
    # Blocks of S S S B S S B keep the round's 15:6 mix, so the median lands
    # among the Test A designs and the tail among the Niagara ones whatever
    # the seed.  The Niagara designs keep a fixed order: their large
    # factorizations then share the backend's LRU the same way every run,
    # which keeps the peak RSS from depending on the seed.
    big.reverse()
    return [(big if index % 7 in (3, 6) else small).pop() for index in range(21)]


# -- transient-trace --------------------------------------------------------


def _trace(rng: random.Random) -> Dict[str, object]:
    return {
        "layer": "top_die",
        "kind": "periodic",
        "period_s": _r(rng, 0.4, 0.6),
        "duty": _r(rng, 0.35, 0.55),
        "high": _r(rng, 100.0, 120.0, 1),
        "low": _r(rng, 20.0, 35.0, 1),
    }


#: A 0.5 s, 40 %-duty square wave on the top die.  The ROM samples the
#: trace-driven load at dt and at 1/8, 3/8, 5/8 and 7/8 of the 4 s run --
#: all in the high phase of this wave -- so its basis misses the low
#: phase and the reduced trajectory deviates from the full one by about
#: 0.016 K.  It opens every round, so ``rom_peak_err_K`` always measures
#: that known error, whatever the seed.
REFERENCE_TRACE = {
    "layer": "top_die",
    "kind": "periodic",
    "period_s": 0.5,
    "duty": 0.4,
    "high": 110.0,
    "low": 30.0,
}

#: One transient round: F = ROM op on a new trace (the first one on
#: ``REFERENCE_TRACE``), R = ROM op repeating an earlier trace of the round
#: (only the threshold, which is outside the ROM cache key, changes), P =
#: ROM op on the reference trace under the reactive proportional policy,
#: O = full-order oracle on the trace of an earlier F op (the first one on
#: the reference trace).  The P op visits a couple of dozen flow scales,
#: one ROM build each -- more than the ROM cache holds -- so its cost and
#: its memory would swing with a seeded trace; on the fixed trace they are
#: the same in every round and every run.
TRANSIENT_PATTERN = "FFOFRPFOFROO"


def _transient_round(rng: random.Random) -> List[Dict[str, object]]:
    ops: List[Dict[str, object]] = []
    fresh: List[Dict[str, object]] = []
    unchecked: List[Dict[str, object]] = []
    for slot in TRANSIENT_PATTERN:
        op = {"mode": "rom", "policy": "constant", "threshold_K": 335.0}
        if slot == "F":
            op["trace"] = dict(REFERENCE_TRACE) if not fresh else _trace(rng)
            fresh.append(op["trace"])
            unchecked.append(op["trace"])
        elif slot == "R":
            op["trace"] = rng.choice(fresh)
            op["threshold_K"] = _r(rng, 330.0, 340.0, 1)
        elif slot == "P":
            op.update(policy="proportional", trace=dict(REFERENCE_TRACE))
        else:
            index = 0 if unchecked[0] == REFERENCE_TRACE else rng.randrange(len(unchecked))
            op.update(mode="off", trace=unchecked.pop(index), oracle=True)
        ops.append(op)
    return ops


# -- serve-campaign ---------------------------------------------------------


def _scenario(rng: random.Random) -> Dict[str, object]:
    if rng.random() < 0.5:
        return _variant("test-a", **{FLUX: _r(rng, 40.0, 60.0)})
    return _variant("test-b", **{SEED: rng.randrange(1, 10**6)})


#: One serve round: O = two-point Test A flux sweep of design
#: optimizations (``/v1/optimize``: two tasks on the per-job process pool,
#: two store appends and cache puts), R = run job on a new scenario, W =
#: temperature-dependent (``water``) run, T = small full-order transient,
#: then one of (cycling with the round) C = forced re-run of an earlier R
#: scenario (result-cache hit), D = identical resubmission of an earlier R
#: run (queue dedupe), G = forced re-run of a registered scenario with a
#: golden record, H = healthz.  Optimize sweeps are the largest class, so
#: the median and the tail land among them: 100-150 ms of service work.
#: Shorter jobs (six-point run sweeps, tens of milliseconds) mostly wait
#: on process wake-ups, which a shared host stretches by 30-60 % for
#: minutes at a time.
SERVE_PATTERN = "OROWOTO*OO"
SERVE_CYCLE = "CDGH"


def _serve_round(rng: random.Random, history: List[Dict[str, object]],
                 round_index: int):
    ops: List[Dict[str, object]] = []
    for slot in SERVE_PATTERN:
        if slot == "*":
            slot = SERVE_CYCLE[round_index % len(SERVE_CYCLE)]
        if slot == "R":
            scenario = _scenario(rng)
            history.append(scenario)
            ops.append({"kind": "run", "scenario": scenario})
        elif slot == "O":
            flux = _r(rng, 40.0, 50.0)
            ops.append({"kind": "optimize", "base": "test-a", "field": FLUX,
                        "values": [flux, round(flux + 4.0, 3)]})
        elif slot == "W":
            ops.append({"kind": "run", "scenario": _variant(
                "test-a", coolant_model="water", **{FLUX: _r(rng, 40.0, 60.0)})})
        elif slot == "T":
            ops.append({"kind": "run", "scenario": _variant(
                "test-a-burst",
                **{"transient.duration_s": rng.choice((0.2, 0.3, 0.4))})})
        elif slot == "G":
            ops.append({"kind": "run", "scenario": _variant(rng.choice(GOLDEN_STEADY)),
                        "fresh": True})
        elif slot == "C":
            ops.append({"kind": "run", "scenario": rng.choice(history),
                        "fresh": True})
        elif slot == "D":
            ops.append({"kind": "run", "scenario": rng.choice(history)})
        else:
            ops.append({"kind": "healthz"})
    return ops


def _rounds(workload: str, seed: int) -> Iterator[List[Dict[str, object]]]:
    rng = random.Random(f"{workload}:{seed}")
    history: List[Dict[str, object]] = []
    for round_index in itertools.count():
        if workload == "cli-oneshot":
            yield _cli_round(rng)
        elif workload == "design":
            yield _design_round(rng)
        elif workload == "transient-trace":
            yield _transient_round(rng)
        elif workload == "serve-campaign":
            yield _serve_round(rng, history, round_index)
        else:
            raise ValueError(f"unknown workload {workload!r}; one of {WORKLOADS}")


def op_stream(workload: str, seed: int) -> Iterator[Dict[str, object]]:
    """The endless op stream of one workload; ops carry ``id`` and ``round``."""
    counter = itertools.count()
    for round_index, ops in enumerate(_rounds(workload, seed)):
        for op in ops:
            yield dict(op, id=next(counter), round=round_index)


def op_list(workload: str, seed: int, n: int) -> List[Dict[str, object]]:
    """The first ``n`` ops of :func:`op_stream`."""
    return list(itertools.islice(op_stream(workload, seed), n))
