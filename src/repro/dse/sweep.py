"""The parallel sweep executor.

A :class:`SweepSpec` declares a design-space slice — a grid over
baseline pairings × workloads (the Figure 9 axes), or an explicit
:class:`~repro.experiments.common.DesignPoint` list — and expands it
into a sorted list of :class:`SweepTask`\\ s.  :func:`run_sweep` shards
the tasks **deterministically** (task ``i`` of the sorted order goes to
worker ``i % jobs``) and runs each in a crash-isolated subprocess via
:func:`~repro.resilience.isolation.run_isolated`, inheriting its
timeout/retry/degraded-fallback semantics.  Outcomes stream into a
resumable :class:`SweepArtifact`.

Determinism contract (tested): the artifact contains no wall-clock or
attempt-count fields, every task's document is produced by the same
deterministic pipeline, and the artifact is written with sorted keys —
so ``--jobs 1`` and ``--jobs 4`` produce byte-identical artifacts, and
a warm second run is 100% cache hits.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.dse.cache import CACHE_ENV, aggregate_stats
from repro.experiments.common import (
    DesignPoint,
    default_scheduler_config,
    evaluate_workload,
)
from repro.fhe.params import CKKSParams, parameter_set
from repro.resilience.backoff import DEFAULT_BACKOFF, BackoffPolicy
from repro.resilience.errors import ConfigError
from repro.resilience.isolation import CellStatus, run_isolated, classify_error

__all__ = [
    "SweepArtifact",
    "SweepReport",
    "SweepSpec",
    "SweepTask",
    "run_sweep",
]


@dataclass(frozen=True)
class SweepTask:
    """One evaluation: a design on a workload at a parameter set."""

    task_id: str
    point: DesignPoint
    workload: str
    params: CKKSParams


@dataclass
class SweepSpec:
    """Declarative description of one sweep.

    Attributes:
        name: sweep label (artifact metadata only).
        pairings: baseline pairings to expand via the Figure 9 design
            grid (each pairing contributes its four designs at its
            Table III parameter set).  Ignored when ``designs`` given.
        workloads: workload names (see ``repro.workloads``).
        param_set: parameter-set name overriding the per-pairing
            default; required with explicit ``designs``.
        designs: explicit design points instead of the pairing grid.
    """

    name: str = "sweep"
    pairings: Tuple[str, ...] = ("SHARP",)
    workloads: Tuple[str, ...] = ("bootstrapping",)
    param_set: Optional[str] = None
    designs: Tuple[DesignPoint, ...] = ()

    def tasks(self) -> List[SweepTask]:
        """Expand to the sorted task list (the sharding order)."""
        out: List[SweepTask] = []
        if self.designs:
            if self.param_set is None:
                raise ConfigError(
                    "param_set", None,
                    "explicit design lists need a parameter-set name",
                )
            params = parameter_set(self.param_set)
            for point in self.designs:
                for workload in self.workloads:
                    out.append(SweepTask(
                        f"{point.label}/{workload}", point, workload, params
                    ))
        else:
            # Imported here: repro.experiments.fig9 imports this
            # package's cache layer via the shared pipeline.
            from repro.experiments.fig9 import PAIRING_PARAMS, design_points

            for pairing in self.pairings:
                if pairing not in PAIRING_PARAMS:
                    raise ConfigError(
                        "pairings", pairing,
                        f"unknown pairing; known: {sorted(PAIRING_PARAMS)}",
                    )
                params = parameter_set(
                    self.param_set or PAIRING_PARAMS[pairing]
                )
                for point in design_points(pairing):
                    for workload in self.workloads:
                        out.append(SweepTask(
                            f"{pairing}/{point.label}/{workload}",
                            point, workload, params,
                        ))
        out.sort(key=lambda t: t.task_id)
        seen: Dict[str, SweepTask] = {}
        for task in out:
            if task.task_id in seen:
                raise ConfigError(
                    "designs", task.task_id, "duplicate task id in sweep"
                )
            seen[task.task_id] = task
        return out

    def to_doc(self) -> Dict[str, Any]:
        """Artifact metadata (grid specs only; explicit designs are
        recorded by label)."""
        return {
            "name": self.name,
            "pairings": list(self.pairings),
            "workloads": list(self.workloads),
            "param_set": self.param_set,
            "designs": [p.label for p in self.designs],
        }


@dataclass
class SweepArtifact:
    """Resumable, deterministic record of one sweep.

    Unlike :class:`~repro.resilience.isolation.RunArtifact` this
    document carries **no timing fields** — only deterministic task
    outcomes — so identical sweeps produce identical bytes regardless
    of job count or machine speed.
    """

    path: str
    spec_doc: Dict[str, Any] = field(default_factory=dict)
    tasks: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @staticmethod
    def load(path: str) -> "SweepArtifact":
        """Load an artifact, tolerating a missing or corrupt file."""
        artifact = SweepArtifact(path=path)
        try:
            with open(path, encoding="utf-8") as fp:
                doc = json.load(fp)
        except (OSError, ValueError):
            return artifact
        if isinstance(doc, dict):
            spec = doc.get("spec", {})
            artifact.spec_doc = spec if isinstance(spec, dict) else {}
            tasks = doc.get("tasks", {})
            if isinstance(tasks, dict):
                artifact.tasks = {
                    str(k): v for k, v in tasks.items() if isinstance(v, dict)
                }
        return artifact

    def completed(self, task_id: str) -> bool:
        """Whether a task already succeeded (resume skips it)."""
        entry = self.tasks.get(task_id)
        return entry is not None and entry.get("status") == "ok"

    def record(self, task_id: str, entry: Dict[str, Any]) -> None:
        """Store one outcome and persist atomically."""
        self.tasks[task_id] = entry
        self.save()

    def save(self) -> None:
        """Atomically write the artifact (sorted keys: byte-stable)."""
        doc = {
            "version": 1,
            "kind": "dse-sweep",
            "spec": self.spec_doc,
            "tasks": self.tasks,
        }
        directory = os.path.dirname(os.path.abspath(self.path)) or "."
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".sweep.tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fp:
                json.dump(doc, fp, indent=2, sort_keys=True)
            os.replace(tmp, self.path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)


@dataclass
class SweepReport:
    """What :func:`run_sweep` hands back to callers and the CLI."""

    artifact: SweepArtifact
    statuses: Dict[str, CellStatus]
    cache_stats: Dict[str, int]
    skipped: int = 0

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.statuses.values())

    @property
    def hit_rate(self) -> Optional[float]:
        """Fraction of cache lookups served (None without lookups)."""
        lookups = self.cache_stats.get("hits", 0) + self.cache_stats.get(
            "misses", 0
        )
        if not lookups:
            return None
        return self.cache_stats["hits"] / lookups

    def render(self) -> str:
        """Human-readable per-task status list plus cache summary."""
        lines = []
        for task_id in sorted(self.statuses):
            status = self.statuses[task_id]
            line = f"{task_id:<40} {status.status}"
            if status.status not in ("ok", "skipped"):
                line += f" [{status.error_kind}] {status.error}"
            lines.append(line)
        hits = self.cache_stats.get("hits", 0)
        misses = self.cache_stats.get("misses", 0)
        rate = self.hit_rate
        lines.append(
            f"cache: {hits} hits / {misses} misses"
            + (f" ({rate:.0%} hit rate)" if rate is not None else "")
        )
        if self.skipped:
            lines.append(f"resumed: {self.skipped} tasks already complete")
        return "\n".join(lines)


def _maybe_crash(task_id: str) -> None:
    """Fault-injection hook: hard-kill the worker for the named tasks.

    ``REPRO_SWEEP_CRASH`` holds comma-separated task ids; a matching
    worker dies via ``os._exit`` *before* evaluating — the same
    signature as an OOM kill mid-cell.  Used by the crash-recovery
    tests and chaos drills; clearing the variable lets a resumed sweep
    complete normally.
    """
    forced = os.environ.get("REPRO_SWEEP_CRASH", "")
    if task_id in {c.strip() for c in forced.split(",") if c.strip()}:
        os._exit(41)


def _task_worker(
    task_id: str, point: DesignPoint, workload: str, params: CKKSParams
) -> str:
    """Isolated task body: evaluate and return the result document.

    Returns a JSON string because :func:`run_isolated` ships text over
    the status pipe; the parent parses it back into the artifact.
    """
    from repro.sched.serialize import eval_result_to_doc

    _maybe_crash(task_id)
    result = evaluate_workload(
        point, workload, params, scheduler_config=default_scheduler_config()
    )
    return json.dumps(eval_result_to_doc(result), sort_keys=True)


def _entry_for(status: CellStatus) -> Dict[str, Any]:
    """Artifact entry for one outcome: deterministic fields only."""
    entry: Dict[str, Any] = {"status": status.status}
    if status.status == "ok":
        try:
            entry["result"] = json.loads(status.output)
        except ValueError:
            entry["status"] = "failed"
            entry["error_kind"] = "error"
            entry["error"] = "worker returned unparseable result document"
    else:
        entry["error_kind"] = status.error_kind
        entry["error"] = status.error
    return entry


def run_sweep(
    spec: SweepSpec,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    artifact_path: str = "dse_sweep.json",
    resume: bool = False,
    timeout: Optional[float] = None,
    retries: int = 1,
    isolated: bool = True,
    backoff: Optional[BackoffPolicy] = DEFAULT_BACKOFF,
) -> SweepReport:
    """Execute a sweep across a deterministic worker pool.

    Workers are OS processes (forked per task by ``run_isolated``, so a
    crash or timeout costs one task); the ``jobs`` threads here only
    orchestrate.  ``cache_dir`` points the content-addressed cache at a
    directory, shared by every worker through the environment; the
    report carries the hit/miss delta this sweep produced there.
    Transient worker failures (crashes, timeouts) are retried after a
    ``backoff`` delay with jitter seeded from the task id, so a shard of
    workers tripping over the same shared resource does not retry in
    lockstep.
    """
    if jobs < 1:
        raise ConfigError("jobs", jobs, "need at least one worker")
    if cache_dir:
        os.environ[CACHE_ENV] = cache_dir
    tasks = spec.tasks()
    artifact = (
        SweepArtifact.load(artifact_path) if resume
        else SweepArtifact(path=artifact_path)
    )
    artifact.spec_doc = spec.to_doc()
    stats_before = aggregate_stats(cache_dir)
    statuses: Dict[str, CellStatus] = {}
    skipped = 0
    lock = threading.Lock()

    def _run_one(task: SweepTask) -> None:
        nonlocal skipped
        if resume and artifact.completed(task.task_id):
            with lock:
                skipped += 1
                statuses[task.task_id] = CellStatus(
                    name=task.task_id, status="skipped"
                )
            return
        if isolated:
            status = run_isolated(
                task.task_id, _task_worker,
                args=(task.task_id, task.point, task.workload, task.params),
                timeout=timeout, retries=retries, backoff=backoff,
            )
        else:
            try:
                output = _task_worker(
                    task.task_id, task.point, task.workload, task.params
                )
                status = CellStatus(
                    name=task.task_id, status="ok", output=output
                )
            except Exception as exc:  # noqa: BLE001 - isolation boundary
                status = CellStatus(
                    name=task.task_id, status="failed",
                    error_kind=classify_error(exc), error=str(exc),
                )
        with lock:
            statuses[task.task_id] = status
            artifact.record(task.task_id, _entry_for(status))

    def _run_shard(shard: List[SweepTask]) -> None:
        for task in shard:
            _run_one(task)

    shards = [tasks[i::jobs] for i in range(jobs)]
    if jobs == 1:
        _run_shard(shards[0])
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            for future in [pool.submit(_run_shard, s) for s in shards]:
                future.result()
    if not isolated:
        # In-process evaluations count on the shared cache object;
        # flush so the sidecar delta below sees them.
        from repro.dse.cache import CACHE

        CACHE.flush_stats()
    stats_after = aggregate_stats(cache_dir)
    delta = {
        key: stats_after.get(key, 0) - stats_before.get(key, 0)
        for key in stats_after
    }
    return SweepReport(
        artifact=artifact, statuses=statuses, cache_stats=delta,
        skipped=skipped,
    )
