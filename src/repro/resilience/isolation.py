"""Crash-isolated cell execution and the resumable run artifact.

The experiment runner executes each table/figure cell in a forked
subprocess so that a crash (OOM kill, segfault in a native library,
unbounded search) in one cell cannot take down the rest of the run.
:func:`run_isolated` adds a per-cell wall-clock timeout and a single
retry for *transient* failures (timeouts, unclassified exceptions);
structured :class:`~repro.resilience.errors.ReproError` failures are
deterministic and are not retried.  Transient retries wait out an
exponential backoff with deterministic seeded jitter
(:class:`~repro.resilience.backoff.BackoffPolicy`) so co-scheduled
workers hitting the same shared-resource failure do not retry in
lockstep.

:class:`RunArtifact` is the resumable JSON record: one entry per cell,
rewritten atomically after every cell so an interrupted run can be
resumed with ``--resume`` (completed cells are skipped).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.resilience.backoff import DEFAULT_BACKOFF, BackoffPolicy
from repro.resilience.errors import (
    ConfigError,
    InfeasibleScheduleError,
    InvariantViolation,
    SearchBudgetExceeded,
    SimulationError,
)

#: Failure classes reported per cell; "crash" means the subprocess died
#: without delivering a result (signal, hard exit).
ERROR_KINDS = ("config", "budget", "infeasible", "simulation", "error", "crash")


def classify_error(exc: BaseException) -> str:
    """Map an exception onto its reporting kind."""
    if isinstance(exc, ConfigError):
        return "config"
    if isinstance(exc, SearchBudgetExceeded):
        return "budget"
    if isinstance(exc, InfeasibleScheduleError):
        return "infeasible"
    if isinstance(exc, SimulationError):
        return "simulation"
    return "error"


@dataclass
class CellStatus:
    """Outcome of one isolated cell execution.

    Attributes:
        name: cell label (e.g. ``"fig9"``).
        status: ``"ok"``, ``"failed"``, ``"timeout"``, or ``"skipped"``.
        seconds: wall-clock spent across all attempts.
        attempts: number of subprocess launches.
        output: the cell's rendered text on success.
        error_kind: one of :data:`ERROR_KINDS` on failure.
        error: the failure message on failure.
    """

    name: str
    status: str
    seconds: float = 0.0
    attempts: int = 0
    output: str = ""
    error_kind: str = ""
    error: str = ""

    @property
    def ok(self) -> bool:
        """Whether the cell produced a usable result."""
        return self.status in ("ok", "skipped")

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable form for the run artifact."""
        return {
            "status": self.status,
            "seconds": round(self.seconds, 3),
            "attempts": self.attempts,
            "output": self.output,
            "error_kind": self.error_kind,
            "error": self.error,
        }

    @staticmethod
    def from_dict(name: str, payload: Dict[str, Any]) -> "CellStatus":
        """Rebuild a status from its artifact entry."""
        return CellStatus(
            name=name,
            status=str(payload.get("status", "failed")),
            seconds=float(payload.get("seconds", 0.0)),
            attempts=int(payload.get("attempts", 0)),
            output=str(payload.get("output", "")),
            error_kind=str(payload.get("error_kind", "")),
            error=str(payload.get("error", "")),
        )


def _cell_worker(conn, fn: Callable[..., str], args: Tuple, kwargs: Dict) -> None:
    """Subprocess body: run the cell and ship the outcome over a pipe."""
    try:
        output = fn(*args, **kwargs)
        conn.send(("ok", "", str(output)))
    except BaseException as exc:  # noqa: BLE001 - isolation boundary
        conn.send((classify_error(exc), str(exc), traceback.format_exc()))
    finally:
        conn.close()


def _mp_context():
    """Fork where available (shares warmed imports); spawn elsewhere."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def run_isolated(
    name: str,
    fn: Callable[..., str],
    args: Tuple = (),
    kwargs: Optional[Dict[str, Any]] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    backoff: Optional[BackoffPolicy] = DEFAULT_BACKOFF,
) -> CellStatus:
    """Run ``fn`` in a subprocess with a timeout and transient retry.

    Returns a :class:`CellStatus`; never raises for cell failures. The
    function must return the cell's rendered text. Transient outcomes
    (timeout, subprocess crash, unclassified exception) are retried up
    to ``retries`` extra times; structured ``ReproError`` failures are
    deterministic and fail immediately.  Between transient attempts
    the caller sleeps out ``backoff`` (jitter seeded from ``name``, so
    a given cell's delay sequence is reproducible); pass ``None`` to
    retry immediately.
    """
    ctx = _mp_context()
    kwargs = kwargs or {}
    start = time.monotonic()
    attempts = 0
    last: Optional[CellStatus] = None
    while attempts <= retries:
        if attempts and backoff is not None:
            time.sleep(backoff.delay(attempts, token=name))
        attempts += 1
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_cell_worker, args=(child_conn, fn, args, kwargs)
        )
        proc.start()
        child_conn.close()
        proc.join(timeout)
        if proc.is_alive():
            proc.terminate()
            proc.join(5)
            if proc.is_alive():  # pragma: no cover - stubborn child
                proc.kill()
                proc.join()
            last = CellStatus(
                name=name, status="timeout", attempts=attempts,
                error_kind="error",
                error=f"cell exceeded {timeout}s wall-clock limit",
            )
            parent_conn.close()
            last.seconds = time.monotonic() - start
            continue  # timeouts are transient: retry
        message = None
        if parent_conn.poll():
            try:
                message = parent_conn.recv()
            except EOFError:
                message = None
        parent_conn.close()
        if message is None:
            last = CellStatus(
                name=name, status="failed", attempts=attempts,
                error_kind="crash",
                error=(
                    f"subprocess died with exit code {proc.exitcode} "
                    "before reporting a result"
                ),
            )
            last.seconds = time.monotonic() - start
            continue  # crashes are transient: retry once
        kind, error, payload = message
        if kind == "ok":
            return CellStatus(
                name=name, status="ok", attempts=attempts,
                seconds=time.monotonic() - start, output=payload,
            )
        last = CellStatus(
            name=name, status="failed", attempts=attempts,
            seconds=time.monotonic() - start,
            error_kind=kind, error=error,
        )
        if kind != "error":
            break  # structured failures are deterministic: no retry
    if last is None:  # loop runs at least once; guard for -O safety
        raise InvariantViolation(
            "repro.resilience.isolation.run_isolated",
            "retry loop produced no CellStatus",
        )
    last.seconds = time.monotonic() - start
    return last


@dataclass
class RunArtifact:
    """Resumable per-cell record of one experiment run.

    The artifact is rewritten atomically after every cell, so a crash
    or Ctrl-C mid-run loses at most the in-flight cell. ``--resume``
    loads it and skips cells already marked ``ok``.
    """

    path: str
    cells: Dict[str, CellStatus] = field(default_factory=dict)

    @staticmethod
    def load(path: str) -> "RunArtifact":
        """Load an artifact, tolerating a missing or corrupt file."""
        artifact = RunArtifact(path=path)
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return artifact
        for name, entry in payload.get("cells", {}).items():
            if isinstance(entry, dict):
                artifact.cells[name] = CellStatus.from_dict(name, entry)
        return artifact

    def record(self, status: CellStatus) -> None:
        """Store one cell outcome and persist the artifact."""
        self.cells[status.name] = status
        self.save()

    def save(self) -> None:
        """Atomically write the artifact as JSON."""
        payload = {
            "version": 1,
            "updated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "cells": {
                name: status.as_dict() for name, status in self.cells.items()
            },
        }
        directory = os.path.dirname(os.path.abspath(self.path)) or "."
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".artifact.tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, indent=2)
            os.replace(tmp, self.path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    def completed(self, name: str) -> bool:
        """Whether a cell already succeeded in a previous run."""
        status = self.cells.get(name)
        return status is not None and status.status == "ok"
