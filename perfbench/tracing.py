"""Span tracing for the traced run, installed from the benchmark's own files.

Nothing inside ``src/`` is instrumented.  :func:`install` replaces public
functions and methods of the ``repro`` layers with wrappers that record a
span -- name, start, end, parent span and op id -- around every call.
Modules already imported are patched at once (and every ``repro`` module
that bound a patched function with ``from ... import`` is re-pointed at
the wrapper); modules imported later are patched by an import hook right
after they execute, so installing the tracer imports nothing by itself.

Spans stay in memory and are written out at the end: :meth:`Tracer.dump`
for the benchmark process and the child processes it starts through
``bootstrap.py``, and a multiprocessing finalizer for pool workers forked
from a traced process.  :func:`layer_metrics` turns the spans of all
processes into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import inspect
import itertools
import json
import multiprocessing.util
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: (span name, module, qualified attribute) of every wrapped callable.  The
#: span name's first segment is the layer it is reported under.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("cli.main", "repro.cli", "main"),
    ("cli.emit", "repro.cli", "_emit"),
    ("scenarios.resolve", "repro.scenarios", "resolve_scenario"),
    ("scenarios.build", "repro.scenarios", "ScenarioSpec.build_structure"),
    ("scenarios.build", "repro.scenarios", "ScenarioSpec.build_stack"),
    ("scenarios.spec_hash", "repro.scenarios", "ScenarioSpec.spec_hash"),
    ("sweeps.expand", "repro.sweeps", "resolve_campaign"),
    ("sweeps.expand", "repro.sweeps", "expand_scenarios"),
    ("api.run", "repro.api", "Session.run"),
    ("api.run", "repro.api", "Session.optimize"),
    ("api.run", "repro.api", "Session.cross_validate"),
    ("api.run", "repro.api", "FDMSimulator.run"),
    ("api.run", "repro.api", "ICESimulator.run"),
    ("hydraulics.pressure_drops", "repro.hydraulics.pressure", "pressure_drop"),
    ("hydraulics.pressure_drops", "repro.hydraulics.pressure",
     "pressure_drop_rectangular"),
    ("hydraulics.pressure_drops", "repro.hydraulics.pressure",
     "uniform_width_pressure_drop"),
    ("engine.solve", "repro.core.engine", "EvaluationEngine.solve"),
    ("engine.solve", "repro.core.engine", "EvaluationEngine.solve_many"),
    ("engine.solve", "repro.core.engine", "EvaluationEngine.solve_transpose"),
    ("optimizer.optimize", "repro.core.optimizer",
     "ChannelModulationOptimizer.optimize"),
    ("optimizer.cost", "repro.core.optimizer",
     "ChannelModulationOptimizer.cost"),
    ("adjoint.gradient", "repro.core.optimizer",
     "ChannelModulationOptimizer.cost_gradient"),
    ("adjoint.gradient", "repro.core.optimizer",
     "ChannelModulationOptimizer.adjoint_cost_gradient"),
    ("designer.baselines", "repro.core.optimizer",
     "ChannelModulationOptimizer.evaluate_uniform"),
    ("designer.baselines", "repro.core.baselines", "best_uniform_design"),
    ("designer.baselines", "repro.core.baselines", "per_lane_uniform_design"),
    ("thermal.assemble", "repro.thermal.assembly", "assemble_system"),
    ("thermal.assemble", "repro.ice.solver", "assemble_system"),
    ("linear_system.fold", "repro.core.linear_system", "SparsityFold.fold"),
    ("linear_system.fold", "repro.core.linear_system", "SparsityFold.matrix"),
    ("linear_system.pattern", "repro.core.linear_system",
     "PatternCache.get_or_build"),
    ("backends.solve", "repro.thermal.backends", "SparseLUBackend.solve"),
    ("backends.solve", "repro.thermal.backends", "SparseLUBackend.solve_matrix"),
    ("backends.solve", "repro.thermal.backends", "SparseIterativeBackend.solve"),
    ("backends.solve", "repro.thermal.backends", "DenseBackend.solve"),
    ("backends.solve_transpose", "repro.thermal.backends",
     "SparseLUBackend.solve_transpose"),
    ("backends.factorize", "repro.thermal.backends", "splu"),
    ("picard.iterate", "repro.core.picard", "picard_iterate"),
    ("ice.steady_solve", "repro.ice.solver", "SteadyStateSolver.solve"),
    ("ice.transient_integrate", "repro.ice.transient", "TransientSolver.integrate"),
    ("rom.build", "repro.core.rom", "build_reduced_model"),
    ("rom.step", "repro.core.rom", "ReducedTransientModel.step"),
    ("rom.step", "repro.core.rom", "ReducedTransientModel.solve_projected"),
    ("rom.project_rhs", "repro.core.rom", "ReducedTransientModel.project_rhs"),
    ("rom.output_max", "repro.core.rom", "ReducedTransientModel.output_max"),
    ("rom.output_max", "repro.core.rom", "ReducedTransientModel.output_max_many"),
    ("policies.update", "repro.policies", "ProportionalFlowPolicy.update"),
    ("policies.update", "repro.policies", "BangBangFlowPolicy.update"),
    ("policies.update", "repro.policies", "ConstantFlowPolicy.update"),
    ("transient.simulate", "repro.transient_engine", "simulate_transient"),
    ("transient.simulate", "repro.transient_engine", "simulate_transient_many"),
    ("exec.execute", "repro.exec.local", "SerialExecutor.execute"),
    ("exec.execute", "repro.exec.local", "ThreadExecutor.execute"),
    ("exec.execute", "repro.exec.process", "ProcessExecutor.execute"),
    ("exec.task", "repro.exec.base", "execute_task"),
    ("campaign.store_append", "repro.campaign", "CampaignStore.append"),
    ("serve.http.healthz", "repro.serve.service", "CampaignService.healthz"),
    ("serve.http.job", "repro.serve.service", "CampaignService.job_detail"),
    ("serve.http.records", "repro.serve.service", "CampaignService.job_records"),
    ("serve.submit", "repro.serve.service", "CampaignService.submit"),
    ("service.run_job", "repro.serve.service", "CampaignService.run_job"),
    ("cache.put", "repro.serve.cache", "ResultCache.put"),
    ("cache.get", "repro.serve.cache", "ResultCache.get"),
)

#: Modules whose presence after ``repro run`` means import work a one-shot
#: solve does not need.
HEAVY_MODULES = ("scipy.integrate", "scipy.optimize", "repro.ml", "repro.serve")

_WRAPPED = "__perfbench_span__"


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self, op: Optional[str] = None) -> None:
        self.op = op
        self.spans: List[Tuple[int, int, str, float, float, object]] = []
        self.counts: Counter = Counter()
        self.extra: Dict[str, object] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self) -> Tuple[int, int, float]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def end(self, name: str, token: Tuple[int, int, float]) -> None:
        end = time.perf_counter()
        span_id, parent, start = token
        stack = self._stack()
        if stack and stack[-1] == span_id:
            stack.pop()
        elif span_id in stack:  # a generator span closed out of order
            stack.remove(span_id)
        with self._lock:
            self.spans.append((span_id, parent, name, start, end, self.op))

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span measured outside a wrapper (e.g. an import)."""
        with self._lock:
            self.spans.append((next(self._ids), 0, name, start, end, self.op))

    def wrap(self, name: str, function):
        tracer = self
        if inspect.isgeneratorfunction(function):
            @functools.wraps(function)
            def generator_wrapper(*args, **kwargs):
                token = tracer.begin()
                try:
                    yield from function(*args, **kwargs)
                finally:
                    tracer.end(name, token)

            wrapper = generator_wrapper
        elif name == "linear_system.pattern":
            @functools.wraps(function)
            def pattern_wrapper(cache, key, factory):
                built = []

                def counting_factory():
                    built.append(True)
                    return factory()

                token = tracer.begin()
                try:
                    return function(cache, key, counting_factory)
                finally:
                    tracer.end(name, token)
                    tracer.counts["pattern_builds" if built else "pattern_hits"] += 1

            wrapper = pattern_wrapper
        else:
            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                token = tracer.begin()
                try:
                    return function(*args, **kwargs)
                finally:
                    tracer.end(name, token)

        setattr(wrapper, _WRAPPED, name)
        return wrapper

    def document(self) -> Dict[str, object]:
        with self._lock:
            return {
                "pid": os.getpid(),
                "spans": list(self.spans),
                "counts": dict(self.counts),
                "extra": dict(self.extra),
            }

    def dump(self, directory: str) -> None:
        """Write this process's spans to ``<directory>/spans-<pid>-<n>.json``."""
        os.makedirs(directory, exist_ok=True)
        for index in itertools.count():
            path = os.path.join(directory, f"spans-{os.getpid()}-{index}.json")
            if not os.path.exists(path):
                break
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.document(), handle)

    def reset(self) -> None:
        with self._lock:
            self.spans.clear()
            self.counts.clear()
            self.extra.clear()


def _patch_module(tracer: Tracer, module) -> None:
    """Wrap every target that lives in ``module``."""
    for name, module_name, qualname in TARGETS:
        if module_name != module.__name__:
            continue
        owner_name, _, attribute = qualname.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = owner.__dict__.get(attribute) if owner_name else getattr(
            module, attribute, None
        )
        if original is None or hasattr(original, _WRAPPED):
            continue
        wrapper = tracer.wrap(name, original)
        setattr(owner, attribute, wrapper)
        if not owner_name:
            # Re-point ``from module import function`` bindings.
            for other in list(sys.modules.values()):
                if other is None or not getattr(other, "__name__", "").startswith(
                    "repro"
                ):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapper)


class _PatchingFinder(importlib.abc.MetaPathFinder):
    """Patch target modules right after they execute on first import."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.pending = {module for _, module, _ in TARGETS}

    def find_spec(self, fullname, path, target=None):
        if fullname not in self.pending:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        loader = spec.loader
        execute = loader.exec_module

        def exec_module(module):
            execute(module)
            _patch_module(self.tracer, module)

        loader.exec_module = exec_module
        return spec


def install(tracer: Tracer, dump_dir: Optional[str] = None) -> None:
    """Wrap the layer functions of every loaded and future ``repro`` module.

    With ``dump_dir``, pool workers forked from this process write their
    spans there when they exit.
    """
    for module_name in sorted({module for _, module, _ in TARGETS}):
        module = sys.modules.get(module_name)
        if module is not None:
            _patch_module(tracer, module)
    sys.meta_path.insert(0, _PatchingFinder(tracer))
    if dump_dir is not None:
        multiprocessing.util.register_after_fork(
            tracer, lambda traced: _after_fork(traced, dump_dir)
        )


def _after_fork(tracer: Tracer, dump_dir: str) -> None:
    tracer.reset()
    tracer.op = None
    multiprocessing.util.Finalize(
        tracer, tracer.dump, args=(dump_dir,), exitpriority=10
    )


def load_documents(directory: str) -> List[Dict[str, object]]:
    """Every span file a traced run left in ``directory``."""
    documents = []
    if not os.path.isdir(directory):
        return documents
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("spans-") and entry.endswith(".json"):
            with open(os.path.join(directory, entry), encoding="utf-8") as handle:
                documents.append(json.load(handle))
    return documents


# -- aggregation --------------------------------------------------------------

#: Self-time metric of each span name (seconds per op).
SELF_TIME_METRICS = {
    "cli.main": "cli.main_s",
    "cli.emit": "cli.emit_s",
    "scenarios.resolve": "scenarios.resolve_s",
    "scenarios.build": "scenarios.build_s",
    "scenarios.spec_hash": "scenarios.spec_hash_s",
    "sweeps.expand": "sweeps.expand_s",
    "api.run": "api.run_self_s",
    "hydraulics.pressure_drops": "hydraulics.pressure_drops_s",
    "engine.solve": "engine.solve_s",
    "optimizer.cost": "optimizer.cost_s",
    "adjoint.gradient": "adjoint.gradient_s",
    "designer.baselines": "designer.baselines_s",
    "thermal.assemble": "thermal.assemble_s",
    "linear_system.fold": "linear_system.fold_s",
    "picard.iterate": "picard.iterate_s",
    "ice.steady_solve": "ice.steady_solve_s",
    "ice.transient_integrate": "ice.transient_integrate_s",
    "rom.build": "rom.build_s",
    "rom.step": "rom.step_s",
    "rom.project_rhs": "rom.project_rhs_s",
    "rom.output_max": "rom.output_max_s",
    "policies.update": "policies.update_s",
    "transient.simulate": "transient.simulate_self_s",
    "exec.task": "exec.task_s",
    "campaign.store_append": "campaign.store_append_s",
    "serve.http.healthz": "serve.http_s.healthz",
    "serve.http.job": "serve.http_s.job",
    "serve.http.records": "serve.http_s.records",
    "serve.submit": "serve.submit_s",
    "import.repro": "import.repro_s",
    "service.run_job": "service.run_job_s",
    "cache.put": "cache.put_s",
}

#: Layer of each span name for the self-time share table.
LAYERS = (
    ("import-cli", ("import.", "cli.")),
    ("scenarios-sweeps", ("scenarios.", "sweeps.")),
    ("api-hydraulics", ("api.", "hydraulics.")),
    ("engine", ("engine.",)),
    ("optimizer-adjoint-designer", ("optimizer.", "adjoint.", "designer.")),
    ("thermal-linear_system", ("thermal.", "linear_system.")),
    ("backends", ("backends.",)),
    ("picard", ("picard.",)),
    ("ice", ("ice.",)),
    ("transient-rom-policies", ("transient.", "rom.", "policies.")),
    ("exec-campaign", ("exec.", "campaign.")),
    ("serve", ("serve.", "service.", "cache.", "queue.")),
)


def layer_of(name: str) -> str:
    for layer, prefixes in LAYERS:
        if name.startswith(prefixes):
            return layer
    return "other"


def _intervals_union(intervals: Iterable[Tuple[float, float]]) -> float:
    total, current_start, current_end = 0.0, None, None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(documents: Sequence[Dict[str, object]]):
    """``(name, self seconds, start, end)`` of every span of every process.

    A span's self time is its duration minus the part of its interval its
    child spans (same process) cover.
    """
    rows = []
    for document in documents:
        spans = document["spans"]
        children = defaultdict(list)
        for span in spans:
            children[span[1]].append((span[3], span[4]))
        for span_id, _parent, name, start, end, _op in spans:
            covered = _intervals_union(children.get(span_id, ()))
            rows.append((name, max(0.0, end - start - covered), start, end))
    return rows


def layer_metrics(
    documents: Sequence[Dict[str, object]], n_ops: int, wall_s: float
) -> Dict[str, float]:
    """Per-layer metrics (per op) and self-time shares from span documents."""
    n_ops = max(1, n_ops)
    rows = self_times(documents)
    metrics: Dict[str, float] = {name: 0.0 for name in SELF_TIME_METRICS.values()}
    counts: Counter = Counter()
    shares: Dict[str, float] = defaultdict(float)
    for name, self_s, _start, _end in rows:
        counts[name] += 1
        if name in SELF_TIME_METRICS:
            metrics[SELF_TIME_METRICS[name]] += self_s
        shares[layer_of(name)] += self_s
    backend_s = sum(
        self_s for name, self_s, _, _ in rows if name.startswith("backends.")
    )
    metrics["backends.solve_s"] = backend_s
    for key in list(metrics):
        metrics[key] /= n_ops

    pattern = Counter()
    for document in documents:
        pattern.update(document.get("counts", {}))
    lookups = pattern["pattern_hits"] + pattern["pattern_builds"]
    solves = counts["backends.solve"] + counts["backends.solve_transpose"]
    metrics.update({
        "optimizer.cost_evals": counts["optimizer.cost"] / n_ops,
        "linear_system.pattern_hit_ratio": (
            pattern["pattern_hits"] / lookups if lookups else 0.0
        ),
        "backends.solves": counts["backends.solve"] / n_ops,
        "backends.transpose_solves": counts["backends.solve_transpose"] / n_ops,
        "backends.factorizations": counts["backends.factorize"] / n_ops,
        "backends.factor_reuse_ratio": (
            max(0.0, 1.0 - counts["backends.factorize"] / solves) if solves else 0.0
        ),
        "campaign.store_appends": counts["campaign.store_append"] / n_ops,
    })

    # Solves by where they were issued: full-order transient steps, and the
    # ROM's full-order error checkpoints (issued by the engine itself).
    full_steps = checkpoints = 0
    for document in documents:
        names = {span[0]: span[2] for span in document["spans"]}
        for _span_id, parent, name, *_ in document["spans"]:
            if name != "backends.solve":
                continue
            if names.get(parent) == "ice.transient_integrate":
                full_steps += 1
            elif names.get(parent) == "transient.simulate":
                checkpoints += 1
    metrics["ice.full_steps"] = full_steps / n_ops
    metrics["rom.checkpoint_solves"] = checkpoints / n_ops

    # Executor time not covered by any task span in any process: pool
    # start-up, pickling and shutdown.
    tasks = [(start, end) for name, _s, start, end in rows if name == "exec.task"]
    overhead = 0.0
    for name, _self_s, start, end in rows:
        if name == "exec.execute":
            inside = [
                (max(start, t0), min(end, t1))
                for t0, t1 in tasks
                if t1 > start and t0 < end
            ]
            overhead += (end - start) - _intervals_union(inside)
    metrics["exec.job_overhead_s"] = overhead / n_ops

    total = max(wall_s, 1e-12)
    for layer, _prefixes in LAYERS + (("other", ()),):
        metrics[f"share.{layer}"] = shares.get(layer, 0.0) / total
    traced = sum(shares.values())
    metrics["share.untraced"] = max(0.0, total - traced) / total
    return metrics
