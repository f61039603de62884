"""The repo benchmark: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``, run from the root of a checkout.

Drives one workload of :mod:`ops` against the checkout's ``src/repro`` for
``--seconds`` seconds, checks every op's output, and prints as its last
line one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the window is split into an
untraced and a traced half and the metrics are the per-layer ones.  The
lines before it carry the environment fingerprint and the run's details.
The exit code is 0 only when every op's output was correct.

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import os

# Pin BLAS threads before anything can import numpy; children inherit it.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

#: Set-up is measured this many times per run, after one unmeasured
#: warm-up (bytecode and page caches); the median is reported.
SETUP_REPEATS = 3


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def source_digest() -> str:
    """Content hash of ``src/`` (the checkout is not always a git repo)."""
    digest = hashlib.sha256()
    for directory, dirs, files in os.walk(workloads.SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for entry in sorted(files):
            if entry.endswith(".py"):
                path = os.path.join(directory, entry)
                digest.update(os.path.relpath(path, workloads.SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=workloads.ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def fingerprint() -> dict:
    """Cores, BLAS, versions and source identity of this run."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "src_digest": source_digest(),
        "machine": platform.machine(),
    }


def setup_probe(workload: str) -> int:
    """Child side of a set-up measurement: import, warm up, say ready."""
    start = time.perf_counter()
    import repro  # noqa: F401

    info = {"import_s": time.perf_counter() - start, "modules_loaded": len(sys.modules)}
    workloads.RUNNERS[workload].setup()
    info["heavy_modules"] = sum(name in sys.modules for name in tracing.HEAVY_MODULES)
    print("ready " + json.dumps(info), flush=True)
    return 0


def load_spec() -> dict:
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def per_layer(runner, tally, documents, untraced_p50, info) -> dict:
    """Per-layer metrics of the traced half (see README.md)."""
    n_ops = max(1, len(tally.latencies))
    # Import cost: from the traced children where there are any, else from
    # the set-up probes.
    imports = [row for row in tracing.self_times(documents) if row[0] == "import.repro"]
    extras = [doc["extra"] for doc in documents if "modules_loaded" in doc["extra"]]
    if runner.name == "serve-campaign":
        # The server's own import and its ``repro serve`` main loop (idle
        # most of the time) are set-up, not op work: the shares cover the
        # spans of the ops only, across the server and its pool workers.
        documents = [
            dict(doc, spans=[span for span in doc["spans"]
                             if span[2] not in ("cli.main", "import.repro")])
            for doc in documents
        ]
        busy = sum(row[1] for row in tracing.self_times(documents))
    else:
        busy = sum(tally.latencies)
    metrics = tracing.layer_metrics(documents, n_ops, busy)

    counters = tally.counters
    lookups = counters["n_cache_hits"] + counters["n_cache_misses"] + counters["n_uncacheable"]
    metrics.update({
        "engine.solves": counters["n_solves"] / n_ops,
        "engine.cache_hit_ratio": counters["n_cache_hits"] / lookups if lookups else 0.0,
        "engine.uncacheable_ratio": counters["n_uncacheable"] / lookups if lookups else 0.0,
        "optimizer.iterations": counters["n_iterations"] / n_ops,
        "picard.passes": counters["n_picard_iterations"] / n_ops,
        "picard.fallbacks": counters["n_picard_fallbacks"] / n_ops,
        "rom.builds": counters["n_rom_builds"] / n_ops,
        "rom.steps": counters["n_rom_steps"] / n_ops,
    })
    if imports:
        metrics["import.repro_s"] = statistics.mean(row[1] for row in imports)
        metrics["import.modules_loaded"] = statistics.mean(e["modules_loaded"] for e in extras)
        metrics["import.heavy_modules"] = statistics.mean(e["heavy_modules"] for e in extras)
    else:
        metrics["import.repro_s"] = statistics.median(i["import_s"] for i in info)
        metrics["import.modules_loaded"] = statistics.median(i["modules_loaded"] for i in info)
        metrics["import.heavy_modules"] = statistics.median(i["heavy_modules"] for i in info)

    rom_before, rom_after = runner.rom_cache if hasattr(runner, "rom_cache") else ({}, {})
    hits = rom_after.get("n_hits", 0) - rom_before.get("n_hits", 0)
    misses = rom_after.get("n_misses", 0) - rom_before.get("n_misses", 0)
    metrics["rom.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    stats = getattr(runner, "server_stats", {})
    cache = stats.get("healthz", {}).get("cache", {})
    cache_lookups = cache.get("n_hits", 0) + cache.get("n_misses", 0)
    waits = stats.get("queue_waits", [])
    metrics.update({
        "campaign.store_bytes": stats.get("stores", 0),
        "queue.wait_s": statistics.mean(waits) if waits else 0.0,
        "queue.journal_bytes": stats.get("journal", 0),
        "cache.hit_ratio": cache.get("n_hits", 0) / cache_lookups if cache_lookups else 0.0,
        "serve.dedup_ratio": stats.get("dedup", 0) / max(1, stats.get("submits", 0)),
        "serve.rejected": stats.get("rejected", 0),
        "bench.generator_lag_p90_s": workloads.percentile(tally.lags, 90) if tally.lags else 0.0,
        "bench.tracing_overhead_frac": (
            tally.metrics()["latency_p50_s"] / untraced_p50 - 1.0 if untraced_p50 else 0.0
        ),
    })
    return metrics


def run(args) -> int:
    spec = load_spec()
    runner_class = workloads.RUNNERS[args.workload]
    phases = {}
    clock = time.perf_counter()
    runner_class.setup_probe()
    setups = []
    info = []
    for _ in range(SETUP_REPEATS):
        elapsed, ready = runner_class.setup_probe()
        setups.append(elapsed)
        if ready.startswith("ready "):
            info.append(json.loads(ready[len("ready "):]))
    in_process = hasattr(runner_class, "setup")
    if in_process:
        runner_class.setup()

    phases["setup"] = time.perf_counter() - clock
    clock = time.perf_counter()
    if not args.trace:
        runner = runner_class(args.seed)
        tally = runner.run(args.seconds)
        documents = []
    else:
        # Untraced half first (the overhead baseline), then the traced half
        # on a derived seed: the same mix on new inputs, so caches the
        # first half filled (the ROM cache) do not answer the second.
        # Each half keeps to its time (no minimum round count): the traced
        # run reports per-layer figures, not the tail.
        untraced_runner = runner_class(args.seed)
        untraced_runner.MIN_ROUNDS = 1
        untraced = untraced_runner.run(args.seconds / 2.0)
        untraced_p50 = untraced.metrics()["latency_p50_s"]
        trace_dir = os.path.join(workloads.WORK, f"trace-{os.getpid()}")
        shutil.rmtree(trace_dir, ignore_errors=True)
        runner = runner_class(args.seed + 1_000_003)
        runner.MIN_ROUNDS = 1
        tracer = None
        if in_process:
            from repro.core.rom import rom_cache_stats

            tracer = tracing.Tracer()
            tracing.install(tracer)
            execute = runner.execute

            def traced_execute(op):
                tracer.op = op["id"]
                return execute(op)

            runner.execute = traced_execute
            before = rom_cache_stats()
        tally = runner.run(args.seconds / 2.0, trace_dir=trace_dir)
        if in_process:
            runner.rom_cache = (before, rom_cache_stats())
        documents = tracing.load_documents(trace_dir)
        if tracer is not None:
            documents.append(tracer.document())
        shutil.rmtree(trace_dir, ignore_errors=True)
        tally.attempted += untraced.attempted
        tally.failed += untraced.failed
        tally.problems += untraced.problems

    window = tally.metrics()
    rss = runner.peak_rss_mb()
    phases["window"] = time.perf_counter() - clock
    if args.trace:
        values = per_layer(runner, tally, documents, untraced_p50, info)
        wanted = spec["per_layer"]
    else:
        clock = time.perf_counter()
        quality = runner.quality()
        phases["quality"] = time.perf_counter() - clock
        values = {
            "setup_s": statistics.median(setups),
            "latency_p50_s": window["latency_p50_s"],
            "latency_tail_s": window["latency_tail_s"],
            "throughput_ops_s": window["throughput_ops_s"],
            "max_rate_ops_s": window["throughput_ops_s"],
            "ok_frac": window["ok_frac"],
            "peak_rss_mb": rss,
            **quality,
        }
        wanted = spec["end_to_end"]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "setup_samples_s": setups,
        "tail_percentile": window["tail_percentile"],
        "n_samples": window["n_samples"],
        "problems": tally.problems[:10],
        "phases_s": phases,
    }
    metrics = {}
    for entry in wanted:
        value = values.get(entry["name"], 0.0)
        metrics[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({"fingerprint": fingerprint()}))
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.RUNNERS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=sorted(workloads.RUNNERS))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(workloads.SRC, "repro", "__init__.py")):
        return fail(f"no repro sources under {workloads.SRC}; run from a checkout")
    sys.path.insert(0, workloads.SRC)
    os.environ["PYTHONPATH"] = workloads.SRC
    if args.setup_probe:
        return setup_probe(args.setup_probe)
    if args.workload is None:
        return fail("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
