"""The four workload runners: set-up, timed loop, output checks, metrics.

Each runner exposes ``setup_probe()`` (the set-up a user pays before the
first op, run in a fresh process), ``run(seconds, trace_dir)`` (the
measured window; with ``trace_dir``, its children write spans there),
``peak_rss_mb()`` and ``quality()`` (the quality metrics).  Ops come from
:mod:`ops`; outputs are checked by :mod:`checks`; the per-layer numbers of
a traced run come from :mod:`tracing`.
"""

from __future__ import annotations

import gc
import http.client
import json
import math
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

import checks
import ops as opgen
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for serve data dirs, span files and run details.
WORK = os.path.join(ROOT, ".perfbench")

#: Counters every op result may carry (engine, Picard, ROM, optimizer).
COUNTERS = (
    "n_solves",
    "n_cache_hits",
    "n_cache_misses",
    "n_uncacheable",
    "n_picard_iterations",
    "n_picard_fallbacks",
    "n_rom_builds",
    "n_rom_steps",
    "n_iterations",
)


def child_env(trace_dir: Optional[str] = None, op=None) -> Dict[str, str]:
    """Environment of a program child: checkout sources, pinned BLAS."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PERFBENCH_TRACE_DIR", None)
    if trace_dir is not None:
        env["PERFBENCH_TRACE_DIR"] = trace_dir
        env["PERFBENCH_OP_ID"] = str(op)
    return env


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(n: int) -> float:
    """The highest whole percentile with at least ten samples beyond it."""
    if n <= 20:
        return 50.0
    return float(min(99, max(50, math.floor(100.0 * (n - 10) / n))))


def counters_of(cache: Optional[Dict[str, object]]) -> Dict[str, int]:
    if not isinstance(cache, dict):
        return {}
    return {key: int(cache.get(key, 0) or 0) for key in COUNTERS if key in cache}


class Tally:
    """Outcome of every attempted op of one measured window."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.lags: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.counters: Dict[str, int] = {key: 0 for key in COUNTERS}
        self.window_s = 0.0

    def record(self, op, latency: Optional[float], problems: List[str],
               counters: Optional[Dict[str, int]] = None) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"op {op.get('id')}: {problems[0]}")
            return
        self.latencies.append(latency)
        for key, value in (counters or {}).items():
            self.counters[key] += value

    def metrics(self) -> Dict[str, float]:
        n = len(self.latencies)
        tail = tail_percentile(n)
        throughput = n / self.window_s if self.window_s > 0 else 0.0
        p50 = percentile(self.latencies, 50)
        tail_s = percentile(self.latencies, tail)
        return {
            "latency_p50_s": p50,
            "latency_tail_s": tail_s,
            "throughput_ops_s": throughput,
            "ok_frac": (self.attempted - self.failed) / max(1, self.attempted),
            "tail_percentile": tail,
            "n_samples": n,
        }


def run_op(tally: Tally, op, execute: Callable, check: Callable) -> None:
    """Execute one op (timed), then check it (untimed); record the outcome.

    ``execute`` returns ``(result, counters)``, or ``(result, counters,
    latency)`` when the op ends before the call returns (a serve job ends
    at its server-side ``finished_at``, not at the poll that saw it).
    """
    start = time.perf_counter()
    try:
        result, counters, *reported = execute(op)
    except Exception as error:  # a failed op is a result, not a crash
        tally.record(op, None, [f"{type(error).__name__}: {error}"])
        return
    latency = reported[0] if reported else time.perf_counter() - start
    try:
        problems = check(op, result)
    except Exception as error:  # a check that cannot read the output fails it
        problems = [f"unreadable output: {type(error).__name__}: {error}"]
    tally.record(op, latency, problems, counters)


def closed_loop(stream, seconds: float, execute, check, min_rounds: int = 1) -> Tally:
    """One caller: the next op starts when the previous one is checked.

    The window holds whole rounds of the op stream (see :mod:`ops`), so
    its op mix is the same whatever the seed: a new round starts only
    while the previous round's duration still fits before the deadline.
    At least ``min_rounds`` rounds run even on a slow host, so the tail
    percentile (which depends on the op count) stays in the same op class.
    """
    tally = Tally()
    start = time.perf_counter()
    deadline = start + seconds
    previous_end = None
    round_index, round_start = 0, start
    for op in stream:
        now = time.perf_counter()
        if op["round"] != round_index:
            if op["round"] >= min_rounds and deadline - now < now - round_start:
                break
            round_index, round_start = op["round"], now
        if previous_end is not None:
            tally.lags.append(now - previous_end)
        run_op(tally, op, execute, check)
        # Free the finished op's garbage outside any op's clock, so neither
        # the next op's latency nor the peak RSS depends on when the cyclic
        # collector happens to run.
        gc.collect()
        previous_end = time.perf_counter()
    tally.window_s = (previous_end or start) - start
    return tally


def spawn_probe(argv: List[str], ready: Optional[str] = None) -> Tuple[float, str]:
    """Seconds from spawning a child to its ``ready`` line (or its exit)."""
    start = time.perf_counter()
    process = subprocess.Popen(
        argv, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        if ready is None:
            output, _ = process.communicate(timeout=120)
            elapsed = time.perf_counter() - start
            if process.returncode != 0:
                raise RuntimeError(f"set-up probe {argv[1:]} exited {process.returncode}")
            return elapsed, output
        for line in process.stdout:
            if line.startswith(ready):
                elapsed = time.perf_counter() - start
                process.communicate(timeout=120)
                return elapsed, line
        raise RuntimeError(f"set-up probe {argv[1:]} ended without {ready!r}")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()


def peak_rss_mb(who: int) -> float:
    """Peak resident set (MB) of this process or of its largest child."""
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- quality probe ------------------------------------------------------------


def quality_probe(design: bool = True, rom: bool = True) -> Dict[str, float]:
    """The quality metrics from a fixed probe, run after the window.

    Workloads whose own ops produce no optimized design or no ROM/full pair
    report ``design_gradient_K`` from an optimized Test A design and
    ``rom_peak_err_K`` from the reference-trace ROM/full pair of the
    transient workload (see ``ops.REFERENCE_TRACE``).
    """
    import repro

    metrics = {}
    if design:
        outcome = repro.Session().optimize("test-a")
        metrics["design_gradient_K"] = float(outcome.result.optimal.thermal_gradient)
    if rom:
        op = {"id": "probe", "mode": "rom", "policy": "constant",
              "threshold_K": 335.0, "trace": opgen.REFERENCE_TRACE}
        reduced = repro.simulate_transient(TransientTrace.spec(op))
        full = repro.simulate_transient(TransientTrace.spec(dict(op, mode="off")))
        metrics["rom_peak_err_K"] = checks.rom_deviation(
            [float(value) for value in reduced.peak_history_K],
            [float(value) for value in full.peak_history_K],
        )
    return metrics


# -- cli-oneshot ----------------------------------------------------------------


class CliOneshot:
    """One ``python -m repro.cli ...`` child at a time, spawn to exit."""

    name = "cli-oneshot"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.goldens = checks.load_goldens(ROOT)
        self.trace_dir: Optional[str] = None

    @staticmethod
    def setup_probe() -> Tuple[float, str]:
        return spawn_probe([sys.executable, "-m", "repro.cli", "list", "--json"])

    def execute(self, op):
        if self.trace_dir is None:
            argv = [sys.executable, "-m", "repro.cli", *op["argv"]]
        else:
            argv = [sys.executable, os.path.join(HERE, "bootstrap.py"), *op["argv"]]
        completed = subprocess.run(
            argv, env=child_env(self.trace_dir, op["id"]), capture_output=True,
            text=True, timeout=120,
        )
        if completed.returncode != 0:
            raise RuntimeError(
                f"exit {completed.returncode}: {completed.stderr.strip()[-300:]}"
            )
        payload = json.loads(completed.stdout)
        source = payload.get("fdm", payload) if isinstance(payload, dict) else {}
        return payload, counters_of((source.get("provenance") or {}).get("cache"))

    def check(self, op, payload):
        return checks.check_cli(op, payload, self.goldens)

    def run(self, seconds: float, trace_dir: Optional[str] = None) -> Tally:
        self.trace_dir = trace_dir
        stream = opgen.op_stream(self.name, self.seed)
        return closed_loop(stream, seconds, self.execute, self.check)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(resource.RUSAGE_CHILDREN)

    def quality(self) -> Dict[str, float]:
        return quality_probe()


# -- design ---------------------------------------------------------------------


def design_result(outcome) -> Dict[str, object]:
    """The checked slice of an ``OptimizationRunResult``."""
    optimal = outcome.result.optimal
    return {
        "optimal_gradient_K": float(optimal.thermal_gradient),
        "optimal_peak_K": float(optimal.solution.peak_temperature),
        "optimal_min_K": float(optimal.solution.min_temperature),
        "reference_gradient_K": float(outcome.result.reference_gradient),
        "converged": bool(outcome.result.trace.converged),
    }


class Design:
    """``Session().optimize(spec)`` on a fresh session, one caller."""

    name = "design"
    #: 84 ops: the tail percentile (p88) lands on the sixth fastest of the
    #: 16 arch2/arch3 designs.  With 3 rounds it was the second fastest of
    #: 12, whose run-to-run spread (25 %) was twice the median's.
    MIN_ROUNDS = 4

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.niagara_gradients: Dict[str, float] = {}

    @staticmethod
    def setup() -> None:
        import repro

        repro.Session().optimize("test-a")

    @staticmethod
    def setup_probe() -> Tuple[float, str]:
        return spawn_probe(
            [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe", "design"],
            ready="ready",
        )

    @staticmethod
    def spec(op):
        from repro import get_scenario
        from repro.sweeps import apply_field_overrides

        return apply_field_overrides(
            get_scenario(op["base"]), op["set"], name=f"{op['base']}-op{op['id']}"
        )

    def execute(self, op):
        from repro import Session

        spec = op["spec"]
        outcome = Session().optimize(spec)
        counters = counters_of(outcome.provenance.get("cache"))
        counters["n_iterations"] = int(outcome.result.trace.n_iterations)
        return design_result(outcome), counters

    def check(self, op, result):
        problems = checks.check_design(result)
        if not problems and op["base"].startswith("niagara-"):
            key = json.dumps([op["base"], op["set"]], sort_keys=True)
            self.niagara_gradients.setdefault(key, result["optimal_gradient_K"])
        return problems

    def run(self, seconds: float, trace_dir: Optional[str] = None) -> Tally:
        # Specs are built before the op's clock starts: the op is the
        # optimization alone.
        stream = (dict(op, spec=self.spec(op))
                  for op in opgen.op_stream(self.name, self.seed))
        return closed_loop(stream, seconds, self.execute, self.check,
                           min_rounds=self.MIN_ROUNDS)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(resource.RUSAGE_SELF)

    def quality(self) -> Dict[str, float]:
        metrics = quality_probe(design=False)
        # The six Niagara stacking/power designs run in every round whatever
        # the seed, so their mean optimal gradient is deterministic.
        gradients = list(self.niagara_gradients.values())
        metrics["design_gradient_K"] = sum(gradients) / max(1, len(gradients))
        return metrics


# -- transient-trace --------------------------------------------------------------


def transient_result(outcome) -> Dict[str, object]:
    """The checked slice of a ``TransientOutcome``."""
    result = {
        "peak_history_K": [float(value) for value in outcome.peak_history_K],
        "peak_transient_temperature_K": float(
            outcome.metrics["peak_transient_temperature_K"]
        ),
    }
    if "rom_peak_abs_err_K" in outcome.metrics:
        result["rom_peak_abs_err_K"] = float(outcome.metrics["rom_peak_abs_err_K"])
    return result


class TransientTrace:
    """``simulate_transient(spec)`` on arch1 44x44, 400 steps, one caller."""

    name = "transient-trace"
    #: 48 ops: the tail percentile (p79) lands among the full-order ops.
    MIN_ROUNDS = 4
    BASE = "niagara-arch1-dvfs"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rom_peaks: Dict[str, List[float]] = {}
        self.deviations: List[float] = []

    @staticmethod
    def setup() -> None:
        import repro

        repro.simulate_transient("test-a-burst-rom")

    @staticmethod
    def setup_probe() -> Tuple[float, str]:
        return spawn_probe(
            [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
             "transient-trace"],
            ready="ready",
        )

    @classmethod
    def spec(cls, op):
        from repro import get_scenario
        from repro.sweeps import apply_field_overrides

        policy = {"kind": op["policy"], "control_interval_s": 0.1}
        if op["policy"] == "proportional":
            policy["setpoint_K"] = 330.0
        transient = {
            "duration_s": 4.0,
            "time_step_s": 0.01,
            "traces": [op["trace"]],
            "policy": policy,
            "store_every": 50,
            "threshold_K": op["threshold_K"],
            "rom": {"mode": op["mode"], "order": 48},
        }
        return apply_field_overrides(
            get_scenario(cls.BASE), {"transient": transient},
            name=f"arch1-trace-op{op['id']}",
        )

    def execute(self, op):
        from repro import simulate_transient

        outcome = simulate_transient(op["spec"])
        counters = {
            "n_rom_builds": int(outcome.metadata.get("n_rom_builds", 0)),
            "n_rom_steps": int(outcome.metadata.get("n_rom_steps", 0)),
        }
        return transient_result(outcome), counters

    def check(self, op, result):
        problems = checks.check_transient(result)
        key = json.dumps(op["trace"], sort_keys=True)
        if problems or op["policy"] != "constant":
            return problems
        if op["mode"] == "rom":
            self.rom_peaks.setdefault(key, result["peak_history_K"])
            return problems
        reduced = self.rom_peaks.get(key)
        if reduced is None:
            return ["$: no ROM run of this trace to check against"]
        if op["trace"] == opgen.REFERENCE_TRACE:
            self.deviations.append(
                checks.rom_deviation(reduced, result["peak_history_K"])
            )
        return checks.check_oracle(reduced, result["peak_history_K"])

    def run(self, seconds: float, trace_dir: Optional[str] = None) -> Tally:
        stream = (dict(op, spec=self.spec(op))
                  for op in opgen.op_stream(self.name, self.seed))
        return closed_loop(stream, seconds, self.execute, self.check,
                           min_rounds=self.MIN_ROUNDS)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(resource.RUSAGE_SELF)

    def quality(self) -> Dict[str, float]:
        metrics = quality_probe(rom=False)
        # Every oracle pair is checked against the 0.1 K contract; the
        # reported error is the reference trace's, which opens every round,
        # so it does not depend on the seed.
        metrics["rom_peak_err_K"] = max(self.deviations) if self.deviations else math.inf
        return metrics


# -- serve-campaign -----------------------------------------------------------------

#: Seconds between polls of a running job.  The op's latency ends at the
#: server-side ``finished_at``, so the poll interval only spaces the ops.
SERVE_POLL_S = 0.02
#: A job unfinished this long after it was submitted has failed.
SERVE_TIMEOUT_S = 10.0
SERVE_ARGS = ("--workers", "2", "--pool-size", "1")


class Http:
    """One request per connection, like the service's own client."""

    def __init__(self, port: int) -> None:
        self.port = port

    def request(self, method: str, path: str, payload=None):
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            body = None if payload is None else json.dumps(payload).encode()
            headers = {} if body is None else {"Content-Type": "application/json"}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()


def serve_campaign_payload(op) -> Tuple[str, Dict[str, object]]:
    """The endpoint and JSON body of one serve op."""
    if op["kind"] == "optimize":
        sweep = {
            "name": f"optimize-op{op['id']}",
            "base": op["base"],
            "axes": [{"field": op["field"], "values": op["values"]}],
        }
        return "/v1/optimize", {"sweep": sweep}
    scenario = op["scenario"]
    if scenario["set"]:
        # A one-point sweep mapping resolves to exactly one scenario: the
        # registered base with the overrides applied.
        campaign = {
            "name": f"{scenario['base']}-variant",
            "base": scenario["base"],
            "axes": [{"field": field, "values": [value]}
                     for field, value in sorted(scenario["set"].items())],
        }
    else:
        campaign = scenario["base"]
    return "/v1/run", {"scenario": campaign, "fresh": bool(op.get("fresh"))}


class Server:
    """A ``repro serve`` child on a fresh data dir."""

    def __init__(self, trace_dir: Optional[str] = None) -> None:
        os.makedirs(WORK, exist_ok=True)
        self.data_dir = os.path.join(WORK, f"serve-{os.getpid()}-{time.monotonic_ns()}")
        self.log_path = self.data_dir + ".log"
        if trace_dir is None:
            argv = [sys.executable, "-m", "repro.cli"]
        else:
            argv = [sys.executable, os.path.join(HERE, "bootstrap.py")]
        argv += ["serve", "--data-dir", self.data_dir, "--port", "0", *SERVE_ARGS]
        self.start = time.perf_counter()
        with open(self.log_path, "w") as log:
            # Ctrl-C is how ``repro serve`` shuts down cleanly; a benchmark
            # started in the background inherits an ignored SIGINT, so the
            # child gets the default disposition back.
            self.process = subprocess.Popen(
                argv, env=child_env(trace_dir, "server"), stdout=log, stderr=log,
                preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
            )
        self.port = self._wait_port()
        self.http = Http(self.port)
        while True:
            try:
                status, _ = self.http.request("GET", "/v1/healthz")
            except OSError:
                status = None
            if status == 200:
                break
            self._alive()
            time.sleep(0.01)
        self.ready_s = time.perf_counter() - self.start

    def _alive(self) -> None:
        if self.process.poll() is not None:
            with open(self.log_path) as log:
                raise RuntimeError(f"repro serve exited: {log.read()[-500:]}")
        if time.perf_counter() - self.start > 60:
            raise RuntimeError("repro serve did not come up within 60 s")

    def _wait_port(self) -> int:
        while True:
            with open(self.log_path) as log:
                text = log.read()
            if "listening on http://" in text:
                address = text.split("listening on http://", 1)[1].split()[0]
                return int(address.rsplit(":", 1)[1])
            self._alive()
            time.sleep(0.01)

    def sizes(self) -> Dict[str, int]:
        """Bytes of the job journal and of the job stores."""
        journal = stores = 0
        for directory, _dirs, files in os.walk(self.data_dir):
            for entry in files:
                size = os.path.getsize(os.path.join(directory, entry))
                if os.sep + "jobs" in directory[len(self.data_dir):]:
                    stores += size
                elif entry == "queue.jsonl":
                    journal += size
        return {"journal": journal, "stores": stores}

    def stop(self, graceful: bool = True) -> None:
        """Stop the server: Ctrl-C (spans flushed), or SIGTERM for probes.

        ``repro serve`` can hang when Ctrl-C lands between its "listening"
        line and its wait loop (the interrupt escapes before the handler
        that stops the server threads), so a server stopped right after it
        came up -- a set-up probe -- is terminated instead.
        """
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT if graceful else signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        shutil.rmtree(self.data_dir, ignore_errors=True)
        if os.path.exists(self.log_path):
            os.remove(self.log_path)


class ServeCampaign:
    """One client against one ``repro serve`` child, one job at a time.

    The loop is closed: the next op is sent once the previous job's
    records are read back.  An open loop at a few ops/s left both cores
    idle between jobs, and on a shared VM its latencies followed how fast
    the host woke idle virtual CPUs (see README.md).
    """

    name = "serve-campaign"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.goldens = checks.load_goldens(ROOT)
        self.stream = opgen.op_stream(self.name, seed)
        self.server: Optional[Server] = None
        self.server_stats: Dict[str, object] = {
            "submits": 0, "dedup": 0, "rejected": 0, "queue_waits": []}

    @staticmethod
    def setup_probe() -> Tuple[float, str]:
        server = Server()
        try:
            return server.ready_s, ""
        finally:
            server.stop(graceful=False)

    def execute(self, op):
        """Submit one op, poll it to the end, read its records back."""
        client = self.server.http
        due = time.time()
        if op["kind"] == "healthz":
            status, body = client.request("GET", "/v1/healthz")
            return (status, json.loads(body)), {}
        path, payload = serve_campaign_payload(op)
        status, body = client.request("POST", path, payload)
        stats = self.server_stats
        stats["submits"] += 1
        if status == 429:
            stats["rejected"] += 1
        if status != 202:
            raise RuntimeError(f"HTTP {status}: {body[:200]!r}")
        job = json.loads(body)
        stats["dedup"] += bool(job.get("resubmitted"))
        while True:
            time.sleep(SERVE_POLL_S)
            status, body = client.request("GET", f"/v1/jobs/{job['job_id']}")
            detail = json.loads(body) if status == 200 else {}
            if status != 200 or detail.get("state") in ("done", "failed"):
                break
            if time.time() - due > SERVE_TIMEOUT_S:
                raise RuntimeError("timed out")
        fetch_start = time.perf_counter()
        status, body = client.request("GET", f"/v1/jobs/{job['job_id']}/records")
        fetch_s = time.perf_counter() - fetch_start
        if status != 200 or detail.get("state") != "done":
            raise RuntimeError(f"job {detail.get('state')}: HTTP {status}")
        if not job.get("resubmitted") and detail.get("started_at"):
            stats["queue_waits"].append(detail["started_at"] - detail["submitted_at"])
        records = [json.loads(line) for line in body.decode().splitlines() if line]
        counters: Dict[str, int] = {}
        for record in records:
            for key, value in counters_of(record.get("counters")).items():
                counters[key] = counters.get(key, 0) + value
        latency = max(float(detail["finished_at"]), due) - due + fetch_s
        return records, counters, latency

    def check(self, op, result):
        if op["kind"] == "healthz":
            status, payload = result
            return [] if status == 200 and payload.get("status") == "ok" else [f"HTTP {status}"]
        return checks.check_records(op, result, self.goldens)

    def run(self, seconds: float, trace_dir: Optional[str] = None) -> Tally:
        self.server = Server(trace_dir)
        try:
            tally = closed_loop(self.stream, seconds, self.execute, self.check)
            status, body = self.server.http.request("GET", "/v1/healthz")
            self.server_stats["healthz"] = json.loads(body) if status == 200 else {}
            self.server_stats.update(self.server.sizes())
        finally:
            self.server.stop()
        return tally

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(resource.RUSAGE_CHILDREN)

    def quality(self) -> Dict[str, float]:
        return quality_probe()


RUNNERS = {
    runner.name: runner
    for runner in (CliOneshot, Design, TransientTrace, ServeCampaign)
}
