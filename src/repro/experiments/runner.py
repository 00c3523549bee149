"""Command-line experiment runner, hardened for unattended runs.

Regenerates any (or all) of the paper's tables and figures::

    python -m repro.experiments.runner table2
    python -m repro.experiments.runner fig9 --quick
    python -m repro.experiments.runner all --quick --timeout 300

``--quick`` restricts the expensive figures to one baseline pairing and
two workloads, which finishes in a couple of minutes.

Resilience (each table/figure is one *cell*):

* every cell runs in a forked subprocess, so a crash or runaway search
  in one cell cannot take down the rest of the run;
* ``--timeout SECONDS`` bounds each cell's wall-clock; a timed-out cell
  is terminated, retried once, and then reported — the run continues;
* transient failures (timeouts, crashes, unclassified exceptions) are
  retried once; structured failures (config/budget/infeasible/
  simulation) are deterministic and fail immediately;
* partial results stream into a resumable JSON artifact
  (``--artifact``, default ``experiments_artifact.json``) rewritten
  atomically after every cell; ``--resume`` skips cells the artifact
  already records as succeeded;
* the process exits with a per-cell status report and a class-coded
  exit status: 0 = all cells ok, 2 = a config error, 3 = a search
  budget was exceeded (with fallback disabled), 4 = a simulation
  error, 1 = any other failure;
* ``--search-seconds`` / ``--search-nodes`` bound every DP schedule
  search inside the cells (exported as ``REPRO_MAX_SEARCH_SECONDS`` /
  ``REPRO_MAX_SEARCH_NODES``); exhausted budgets degrade to the greedy
  fallback scheduler instead of hanging.

Static verification of the shipped workloads is its own command,
``python -m repro.analysis`` (exit status 5 on findings); run it before
the runner to gate a run on it.

Design-space exploration (:mod:`repro.dse`):

* ``--jobs N`` runs up to N cells concurrently — each still one forked,
  crash-isolated subprocess; output is buffered and printed in cell
  order so reports stay deterministic;
* ``--no-isolation`` instead runs every cell in this process, serially
  in sorted order, so later cells reuse the memos earlier ones filled
  in the same way every run: per-cell counters under ``--trace-dir``
  are deterministic, which is what CI's counter gate against the
  committed ``BENCH_quick/`` baseline relies on;
* ``--cache-dir DIR`` turns on the persistent content-addressed
  schedule/result cache (exported to cells as ``REPRO_DSE_CACHE``):
  a warm re-run serves every evaluation from the cache — zero DP
  scheduler searches — and the run's hit/miss/corruption deltas are
  printed and included in ``--metrics-json`` as ``dse.cache.*``.

Observability (:mod:`repro.obs`):

* ``--trace-dir DIR`` turns telemetry on inside every cell and writes
  per-cell artifacts into ``DIR``: a metrics snapshot, the span tree
  (text/JSON/Perfetto), and — because event capture is enabled — the
  raw simulator trace (``*.trace.jsonl``) plus its Perfetto rendering
  (``*.sim.perfetto.json``, opens at https://ui.perfetto.dev).
  Artifacts are written in the cell's (sub)process, also when the cell
  fails, so a crashed cell still leaves its telemetry behind; a cell
  killed by ``--timeout`` flushes on SIGTERM — open spans are closed
  (tagged ``interrupted=True``) and dumped during the termination
  grace period, so traces from killed cells stay well-formed;
* ``--metrics-json PATH`` writes the *runner's own* metrics document
  after the run: ``runner.cell_seconds.<cell>`` gauges and
  ``runner.exit.<status>`` counters.

The exit code reports the worst cell failure class in branch-priority
order — config (2) over budget (3) over simulation (4) over other (1);
0 means every cell succeeded.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.dse.cache import CACHE_ENV, aggregate_stats
from repro.resilience.isolation import (
    CellStatus,
    RunArtifact,
    classify_error,
    run_isolated,
)

#: Exit codes by failure class (CI and scripts branch on these).
EXIT_OK = 0
EXIT_OTHER = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_SIMULATION = 4

_KIND_TO_EXIT = {
    "config": EXIT_CONFIG,
    "budget": EXIT_BUDGET,
    "simulation": EXIT_SIMULATION,
    "infeasible": EXIT_OTHER,
    "error": EXIT_OTHER,
    "crash": EXIT_OTHER,
}


def run_table1(quick: bool = False) -> str:
    """Regenerate Table I."""
    from repro.experiments.table1 import format_table1

    return format_table1()


def run_table2(quick: bool = False) -> str:
    """Regenerate Table II."""
    from repro.experiments.table2 import format_table2

    return format_table2()


def run_table3(quick: bool = False) -> str:
    """Regenerate Table III."""
    from repro.experiments.table3 import format_table3

    return format_table3()


def run_table4(quick: bool = False) -> str:
    """Regenerate Table IV (``quick`` does not restrict it: it is the
    quick suite's slowest cell)."""
    from repro.experiments.table4 import format_table4, table4

    return format_table4(table4())


def run_fig9(quick: bool = False) -> str:
    """Regenerate Figure 9 (``quick`` restricts the sweep)."""
    from repro.experiments.fig9 import fig9, format_fig9

    if quick:
        cells = fig9(baselines=("SHARP",), workloads=("bootstrapping",))
    else:
        cells = fig9()
    return format_fig9(cells)


def run_fig10(quick: bool = False) -> str:
    """Regenerate Figure 10 (``quick`` restricts the sweep)."""
    from repro.experiments.fig10 import fig10, format_fig10

    if quick:
        cells = fig10(baselines=("SHARP",), workloads=("bootstrapping",))
    else:
        cells = fig10()
    return format_fig10(cells)


def run_fig11(quick: bool = False) -> str:
    """Regenerate Figure 11 (``quick`` restricts the pairings)."""
    from repro.experiments.fig11 import fig11, format_fig11

    pairings = ("SHARP",) if quick else ("ARK", "SHARP")
    return format_fig11(fig11(pairings=pairings))


#: The cells by name; :func:`main` looks each one up at call time.
EXPERIMENTS = {
    "table1": run_table1,
    "table2": run_table2,
    "table3": run_table3,
    "table4": run_table4,
    "fig9": run_fig9,
    "fig10": run_fig10,
    "fig11": run_fig11,
}


def _observed_cell(name, fn, trace_dir, quick=False):
    """Run one cell with telemetry on, dumping artifacts into trace_dir.

    Module-level (used via :func:`functools.partial`) so the callable
    pickles under both the fork and spawn multiprocessing contexts.
    Artifacts are flushed in a ``finally`` so a failing cell still
    leaves its spans/metrics/trace behind for postmortem — and a
    SIGTERM handler covers the ``--timeout`` kill path: the isolation
    runner terminates with SIGTERM and grants a grace period, during
    which open spans are force-closed and the artifacts dumped, so
    Perfetto traces from timed-out cells are well-formed too.
    """
    import signal

    from repro import obs

    obs.reset()
    obs.enable(events=True)

    def _flush_and_exit(signum, frame):
        try:
            obs.dump_cell_artifacts(name, trace_dir)
        finally:
            os._exit(124)

    previous = None
    try:
        previous = signal.signal(signal.SIGTERM, _flush_and_exit)
    except ValueError:  # pragma: no cover - non-main-thread caller
        pass
    try:
        return fn(quick=quick)
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
        try:
            obs.dump_cell_artifacts(name, trace_dir)
        finally:
            obs.disable()


def _write_runner_metrics(path, statuses, cache_stats=None) -> None:
    """Write the parent-side ``repro-metrics`` document for this run."""
    from repro.obs import MetricsRegistry, metrics_document
    from repro.obs.export import write_json

    registry = MetricsRegistry(enabled=True)
    for s in statuses:
        registry.gauge(f"runner.cell_seconds.{s.name}").set(round(s.seconds, 3))
        registry.counter(f"runner.exit.{s.status}").inc()
    if cache_stats is not None:
        for key, value in sorted(cache_stats.items()):
            registry.counter(f"dse.cache.{key}").inc(value)
    write_json(metrics_document(registry.snapshot()), path)


def _print_report(statuses) -> None:
    """Render the per-cell status table on stdout."""
    print("==== run report ====")
    print(f"{'cell':10s}{'status':10s}{'attempts':>9s}{'seconds':>9s}  error")
    for s in statuses:
        error = f"[{s.error_kind}] {s.error}" if s.error else ""
        print(
            f"{s.name:10s}{s.status:10s}{s.attempts:9d}{s.seconds:9.1f}  "
            f"{error}"
        )


def _exit_code(statuses) -> int:
    """Worst failure class across cells, by branch-priority order."""
    failed_kinds = {
        s.error_kind for s in statuses if not s.ok
    }
    for kind in ("config", "budget", "simulation"):
        if kind in failed_kinds:
            return _KIND_TO_EXIT[kind]
    return EXIT_OTHER if failed_kinds else EXIT_OK


def main(argv=None) -> int:
    """CLI entry point; returns a class-coded process exit status."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which exhibit to regenerate",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="restrict the expensive figures to a small subset",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-cell wall-clock limit (timed-out cells are retried "
             "once, then reported; the run continues)",
    )
    parser.add_argument(
        "--artifact", default="experiments_artifact.json", metavar="PATH",
        help="resumable JSON artifact, rewritten after every cell",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="skip cells the artifact already records as succeeded",
    )
    parser.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="extra attempts for transient failures (default 1)",
    )
    parser.add_argument(
        "--no-isolation", action="store_true",
        help="run cells in-process, one after another in sorted order "
             "(no subprocess, no timeout): cells share memos the same "
             "way every run, so --trace-dir counters are deterministic "
             "(CI's gated cold pass); also for debugging with pdb",
    )
    parser.add_argument(
        "--search-seconds", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per DP schedule search inside cells",
    )
    parser.add_argument(
        "--search-nodes", type=int, default=None, metavar="N",
        help="node budget per DP schedule search inside cells",
    )
    parser.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="enable telemetry inside every cell and write per-cell "
             "artifacts (metrics, span tree, simulator trace + Perfetto "
             "rendering) into DIR",
    )
    parser.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help="write the runner's own metrics document (cell wall times, "
             "exit-status counters, cache hit/miss deltas) to PATH after "
             "the run",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run up to N cells concurrently (each still crash-isolated "
             "in its own subprocess; implies isolation)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent schedule/result cache root shared by every "
             f"cell (exported as {CACHE_ENV}); warm re-runs skip the "
             "DP scheduler searches entirely",
    )
    args = parser.parse_args(argv)
    if args.search_seconds is not None:
        os.environ["REPRO_MAX_SEARCH_SECONDS"] = str(args.search_seconds)
    if args.search_nodes is not None:
        os.environ["REPRO_MAX_SEARCH_NODES"] = str(args.search_nodes)
    if args.cache_dir:
        os.environ[CACHE_ENV] = args.cache_dir
    jobs = max(1, args.jobs)
    if args.no_isolation:
        jobs = 1  # in-process cells share module state: keep them serial
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    artifact = (
        RunArtifact.load(args.artifact) if args.resume
        else RunArtifact(path=args.artifact)
    )
    cache_before = (
        aggregate_stats(args.cache_dir) if args.cache_dir else None
    )
    artifact_lock = threading.Lock()

    def _one_cell(name: str) -> CellStatus:
        """Execute (or resume-skip) one cell; record it in the artifact."""
        if args.resume and artifact.completed(name):
            prior = artifact.cells[name]
            return CellStatus(
                name=name, status="skipped", seconds=0.0,
                attempts=prior.attempts, output=prior.output,
            )
        fn = EXPERIMENTS[name]
        if args.trace_dir:
            fn = functools.partial(
                _observed_cell, name, EXPERIMENTS[name], args.trace_dir
            )
        if args.no_isolation:
            start = time.time()
            try:
                output = fn(quick=args.quick)
                status = CellStatus(
                    name=name, status="ok", attempts=1,
                    seconds=time.time() - start, output=output,
                )
            except Exception as exc:
                status = CellStatus(
                    name=name, status="failed", attempts=1,
                    seconds=time.time() - start,
                    error_kind=classify_error(exc), error=str(exc),
                )
        else:
            status = run_isolated(
                name, fn, kwargs={"quick": args.quick},
                timeout=args.timeout, retries=max(args.retries, 0),
            )
        with artifact_lock:
            artifact.record(status)
        return status

    def _print_cell(status: CellStatus) -> None:
        print(f"==== {status.name} ====")
        if status.status == "ok":
            print(status.output)
        elif status.status == "skipped":
            print(status.output)
            print("(skipped: already completed in artifact)")
        else:
            print(
                f"{status.name} {status.status} after {status.attempts} "
                f"attempt(s): [{status.error_kind}] {status.error}",
                file=sys.stderr,
            )
        print(f"({status.seconds:.1f}s)\n")

    statuses = []
    if jobs == 1:
        for name in names:
            status = _one_cell(name)
            _print_cell(status)
            statuses.append(status)
    else:
        # Each cell is still one forked subprocess (run_isolated); the
        # threads here only orchestrate.  Output is held back and
        # printed in cell order so reports stay deterministic.
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = {name: pool.submit(_one_cell, name) for name in names}
            for name in names:
                statuses.append(futures[name].result())
        for status in statuses:
            _print_cell(status)
    _print_report(statuses)
    print(f"artifact: {artifact.path}")
    cache_delta = None
    if cache_before is not None:
        cache_after = aggregate_stats(args.cache_dir)
        cache_delta = {
            key: cache_after.get(key, 0) - cache_before.get(key, 0)
            for key in cache_after
        }
        print(
            "cache: "
            + " ".join(f"{k}={v}" for k, v in sorted(cache_delta.items()))
        )
    if args.metrics_json:
        _write_runner_metrics(
            args.metrics_json, statuses, cache_stats=cache_delta
        )
        print(f"metrics: {args.metrics_json}")
    return _exit_code(statuses)


if __name__ == "__main__":
    raise SystemExit(main())
