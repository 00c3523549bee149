"""Measurement, correctness and shape checks shared by the commands.

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``boot-cold``   -- the Figure 9 quick cell (SHARP parameters,
  bootstrapping, four designs) in a fresh interpreter with no disk
  cache: DP search, MAD, verify gates.
* ``boot-replay`` -- the same four designs over a disk cache whose
  schedule and plan tiers a cold run filled (once per source tree, see
  :func:`replay_cache`) and whose result tier is empty: replay,
  lowering, simulation, cache reads.
* ``serve-chaos`` -- the fleet-serving simulator under the aggressive
  fault plan with the metrics registry and flight recorder on.

Every sample runs in a fresh interpreter (``child.py``) with every
``REPRO_*`` variable removed from its environment, one thread, and the
shipped defaults.  The workload seed shuffles the order of the design
points and sets the child's ``PYTHONHASHSEED``.  Each sample's outputs
are checked against ``reference.json``.

``wall_s`` and ``setup_s`` are host seconds scaled to a nominal host
speed (:meth:`Runner.timed`).  On a shared host, other tenants slow this
one by up to 2x for minutes at a time -- far more than any bound a
regression check could use -- while a fixed task timed right before and
after each sample slows by the same factor.  Raw seconds stay in the
run document under ``raw``.  boot-cold's ``wall_s`` is the exception
(see :data:`RAW_WALL`).
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
STATE_DIR = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
WORKLOADS = ("boot-cold", "boot-replay", "serve-chaos")

#: A run must end within this many seconds of starting.
RUN_DEADLINE_S = 165.0
#: Set-up samples per run, at least: the timed samples' set-ups, topped up
#: with set-up-only samples.
SETUP_SAMPLES = 3


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


# ---------------------------------------------------------------------------
# Declarations, machine, environment
# ---------------------------------------------------------------------------


def declared() -> Dict[str, Any]:
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def machine() -> Dict[str, Any]:
    """Where a result was measured: core count, CPU model, versions."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def child_env(seed: int) -> Dict[str, str]:
    """A clean environment: no REPRO_* knobs, one thread, seeded hashing."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def check_layout() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        raise BenchError(f"no reproducer sources under {ROOT}/src")
    if not os.path.isfile(REFERENCE):
        raise BenchError(f"missing {REFERENCE}; run `run.py pin`")


# ---------------------------------------------------------------------------
# Samples
# ---------------------------------------------------------------------------


class Runner:
    """Spawns child samples under one run's deadline and scratch dir."""

    def __init__(self, seed: int, deadline: float):
        self.seed = seed
        self.deadline = deadline
        self.scratch = os.path.join(STATE_DIR, f"run-{os.getpid()}")
        shutil.rmtree(self.scratch, ignore_errors=True)
        os.makedirs(self.scratch)
        self.spawned = 0
        self.probes: List[float] = []

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def spawn(self, workload: str, phase: str = "timed",
              cache_dir: Optional[str] = None, trace: Optional[str] = None,
              on_pause: Optional[Callable[[], None]] = None) -> Dict[str, Any]:
        """Run ``child.py`` once and return its document.

        With ``on_pause`` the child stops before each timed segment until
        ``on_pause()`` has returned.  A watchdog kills the child at the
        run deadline.
        """
        self.spawned += 1
        out = os.path.join(self.scratch, f"sample-{self.spawned}.json")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run deadline passed before a sample started")
        cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"),
               "--workload", workload, "--phase", phase,
               "--seed", str(self.seed), "--out", out]
        if cache_dir:
            cmd += ["--cache-dir", cache_dir]
        if trace:
            cmd += ["--trace", trace]
        if on_pause is not None:
            cmd.append("--pause")
        with open(out + ".stderr", "w+", encoding="utf-8") as err:
            proc = subprocess.Popen(
                cmd + ["--spawned-at", repr(time.monotonic())], cwd=ROOT,
                env=child_env(self.seed), stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, stderr=err, text=True,
            )
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                for line in proc.stdout:
                    if line.strip() == "pause" and on_pause is not None:
                        on_pause()
                        proc.stdin.write("go\n")
                        proc.stdin.flush()
            except BrokenPipeError:
                pass  # the child died mid-pause; its exit code says why
            except BaseException:
                proc.kill()
                raise
            finally:
                watchdog.cancel()
                proc.wait()
                for pipe in (proc.stdin, proc.stdout):
                    try:
                        pipe.close()
                    except BrokenPipeError:
                        pass
            if proc.returncode != 0:
                err.seek(0)
                raise BenchError(
                    f"{workload} {phase} sample exited {proc.returncode}"
                    + (" at the run deadline" if proc.returncode < 0 else "")
                    + ":\n" + err.read()[-4000:]
                )
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)

    def timed(self, workload: str, phase: str = "timed",
              cache_dir: Optional[str] = None,
              trace: Optional[str] = None) -> Dict[str, Any]:
        """:meth:`spawn` with speed probes at every phase boundary.

        A fixed pure-Python task is timed before the child starts, at
        each of its pauses (end of set-up, between timed segments) and
        after it exits.  Each span of the child -- set-up, then every
        timed segment -- is scaled to the nominal host speed by the
        probes on its two sides: a host slowed down by other tenants
        slows the probe by about as much.  Adds ``setup_scaled_s`` and
        ``wall_scaled_s`` to the document.
        """
        bounds = [self.probes or probe_pair()]
        doc = self.spawn(workload, phase, cache_dir, trace,
                         on_pause=lambda: bounds.append(probe_pair()))
        self.probes = probe_pair()
        bounds.append(self.probes)
        scales = [PROBE_NOMINAL_S / statistics.median(a + b)
                  for a, b in zip(bounds, bounds[1:])]
        segments = doc.get("segments", [])
        if len(scales) != len(segments) + 1:
            raise BenchError(f"{workload} {phase}: {len(scales)} probed spans "
                             f"for {len(segments)} timed segments")
        doc["probe_s"] = PROBE_NOMINAL_S / statistics.median(scales)
        doc["setup_scaled_s"] = doc["setup_s"] * scales[0]
        doc["wall_scaled_s"] = sum(t * k for t, k in zip(segments, scales[1:]))
        return doc


#: :func:`speed_probe` seconds at the nominal host speed: its fastest
#: readings on an otherwise idle 2-core x86-64 container (Python 3.11).
PROBE_NOMINAL_S = 0.2


def probe_pair() -> List[float]:
    return [speed_probe(), speed_probe()]


def speed_probe() -> float:
    """Seconds a fixed pure-Python task (dict updates, a sort) takes now."""
    t0 = time.perf_counter()
    table: Dict[Tuple[int, int], int] = {}
    for i in range(300_000):
        key = (i % 977, i % 131)
        table[key] = table.get(key, 0) + i
    acc = 0
    for (a, b), v in sorted(table.items()):
        acc ^= hash((a, b, v))
    return time.perf_counter() - t0


def _file_count(root: str, tier: str) -> int:
    return sum(len(files) for _, _, files in os.walk(os.path.join(root, tier)))


def _empty_result_tier(cache: str) -> None:
    """Back to the state boot-replay times: no results, no stats sidecars."""
    for tier in ("result", "stats"):
        shutil.rmtree(os.path.join(cache, tier), ignore_errors=True)


def _source_key() -> str:
    """Digest of the program and of the code that populates its cache."""
    digest = hashlib.sha256()
    paths = [os.path.join(BENCH_DIR, name) for name in ("child.py", "layers.py")]
    for dirpath, dirnames, files in os.walk(os.path.join(ROOT, "src", "repro")):
        dirnames.sort()
        paths += [os.path.join(dirpath, f) for f in sorted(files)
                  if not f.endswith(".pyc")]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()[:16]


#: Workloads whose ``wall_s`` is raw host seconds, not speed-scaled: their
#: timed phase runs mostly in numpy kernels, whose speed the pure-Python
#: probe does not track.  Over five seeds, boot-cold's raw wall spread
#: 13% (IQR/median) while the probe spread 39% and the scaled wall 24%.
RAW_WALL = ("boot-cold",)
#: Populated boot-replay caches kept per checkout: this source tree's and
#: the last other one, so that switching between two trees does not
#: populate again on every switch.
KEEP_CACHES = 2


def replay_cache(runner: Runner) -> Tuple[str, Dict[str, Any], bool]:
    """boot-replay's disk cache: schedule and plan tiers from a cold run.

    The cold, disk-writing populate run happens once per source tree and
    is kept under ``.perfbench/`` for later runs of the same checkout.
    A populate that raised or differs from ``reference.json`` is not
    kept: this run uses it and counts its failures, and the next run
    populates again.  Returns the cache root, the populate run's
    document (its seconds under ``setup_scaled_s``) and whether this
    call populated.
    """
    root = os.path.join(STATE_DIR, f"replay-cache-{_source_key()}")
    meta = os.path.join(root, "populate.json")
    if os.path.isfile(meta):
        os.utime(root)  # most recently used, for the pruning below
        with open(meta, encoding="utf-8") as fh:
            return root, json.load(fh), False
    building = root + ".partial"
    shutil.rmtree(building, ignore_errors=True)
    populate = runner.timed("boot-replay", "populate", cache_dir=building)
    _empty_result_tier(building)
    populate["schedules_cached"] = _file_count(building, "schedule")
    if populate["errors"] or populate["results"] != load_reference()["boot"]:
        return building, populate, True
    with open(os.path.join(building, "populate.json"), "w", encoding="utf-8") as fh:
        json.dump(populate, fh, sort_keys=True)
    os.replace(building, root)
    os.utime(root)
    kept = sorted(glob.glob(os.path.join(STATE_DIR, "replay-cache-*")),
                  key=os.path.getmtime, reverse=True)
    for stale in kept[KEEP_CACHES:]:
        shutil.rmtree(stale, ignore_errors=True)
    return root, populate, True


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """One run: set-up, samples for ``seconds``, optional traced sample."""
    started = time.monotonic()
    runner = Runner(seed, started + RUN_DEADLINE_S)
    try:
        return _measure(runner, workload, seconds, trace, started)
    finally:
        runner.close()


def _measure(runner: Runner, workload: str, seconds: float, trace: bool,
             started: float) -> Dict[str, Any]:
    run: Dict[str, Any] = {"workload": workload, "seed": runner.seed,
                           "trace": int(trace)}
    cache = None
    if workload == "boot-replay":
        cache, run["populate"], run["populated"] = replay_cache(runner)

    samples: List[Dict[str, Any]] = []
    t_measure = time.monotonic()
    # Leave room for the traced sample (slower than an untraced one).
    reserve = 1.5 if trace else 0.0
    while True:
        if cache is not None:
            _empty_result_tier(cache)
        samples.append(runner.timed(workload, cache_dir=cache))
        now = time.monotonic()
        if now - t_measure >= seconds:
            break
        per_sample = (now - t_measure) / len(samples)
        if now + per_sample * (1 + reserve) > runner.deadline - 10:
            break
    run["samples"] = samples
    setups = list(samples)
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.timed(workload, "probe", cache_dir=cache))
    wall_key = "wall_s" if workload in RAW_WALL else "wall_scaled_s"
    run["metrics"] = {
        "wall_s": statistics.median(s[wall_key] for s in samples),
        "setup_s": statistics.median(s["setup_scaled_s"] for s in setups),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }
    run["raw"] = {
        "wall_s": statistics.median(s["wall_s"] for s in samples),
        "probe_s": statistics.median(s["probe_s"] for s in setups),
    }
    if trace:
        if cache is not None:
            _empty_result_tier(cache)
        path = os.path.join(STATE_DIR, "traces", f"{workload}-seed{runner.seed}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        traced = runner.timed(workload, cache_dir=cache, trace=path)
        layer = dict(traced["layers"])
        layer["trace.overhead"] = traced[wall_key] / run["metrics"]["wall_s"] - 1
        run["traced"] = traced
        run["per_layer"] = layer
        run["trace_file"] = os.path.relpath(path, ROOT)
    run["elapsed_s"] = time.monotonic() - started
    return run


# ---------------------------------------------------------------------------
# Correctness and shape
# ---------------------------------------------------------------------------


def check_boot(results: Dict[str, Any], errors: Dict[str, str],
               references: Sequence[Dict[str, Any]], problems: List[str],
               tag: str) -> int:
    """Failed evaluations: raised, degraded, missing, or unequal to any
    of ``references`` (label -> outputs maps, compared float for float)."""
    failed = 0
    for label in sorted(references[0]):
        got = results.get(label)
        off = [ref.get(label) for ref in references if ref.get(label) != got]
        if label in errors:
            problems.append(f"{tag} {label}: raised\n{errors[label]}")
        elif got is None:
            problems.append(f"{tag} {label}: no result")
        elif got.get("degraded"):
            problems.append(f"{tag} {label}: degraded schedule")
        elif off:
            want = off[0] or {}
            diff = sorted(k for k in got if got[k] != want.get(k))
            problems.append(f"{tag} {label}: differs in {diff}")
        else:
            continue
        failed += 1
    return failed


def check_serve(serve: Dict[str, Any], reference: Dict[str, Any],
                problems: List[str], tag: str) -> int:
    totals = serve["totals"]
    failed = totals["shed"] + totals["failed"] + totals["lost"]
    if failed:
        problems.append(f"{tag}: {failed} requests shed, failed or lost")
    if serve["sha256"] != reference["sha256"]:
        problems.append(f"{tag}: summary differs from reference")
        failed += 1
    return failed


def check_run(run: Dict[str, Any], reference: Dict[str, Any]) -> Dict[str, Any]:
    """Count attempted and failed operations over every sample of a run."""
    problems: List[str] = []
    attempted = failed = 0
    samples = list(run["samples"])
    if "traced" in run:
        samples.append(run["traced"])
    if run["workload"] == "serve-chaos":
        for i, s in enumerate(samples):
            attempted += s["serve"]["totals"]["requests"] + 1
            failed += check_serve(s["serve"], reference["serve"], problems,
                                  f"sample {i}")
    else:
        refs = [reference["boot"]]
        if "populate" in run:
            pop = run["populate"]
            if run["populated"]:
                attempted += len(refs[0])
                failed += check_boot(pop["results"], pop["errors"], refs,
                                     problems, "populate")
            # Replays must also equal the set-up's own cold results.
            refs.append(pop["results"])
        for i, s in enumerate(samples):
            attempted += len(refs[0])
            failed += check_boot(s["results"], s["errors"], refs,
                                 problems, f"sample {i}")
    return {"attempted": attempted, "failed": failed, "problems": problems}


def shape_violations(run: Dict[str, Any]) -> List[str]:
    """Each workload must still do what its name says."""
    out: List[str] = []
    workload = run["workload"]
    samples = list(run["samples"])
    if "traced" in run:
        samples.append(run["traced"])
    for i, s in enumerate(samples):
        c = s["counts"]
        searches = c.get("sched.searches", 0) + c.get("mad.searches", 0)
        replays = c.get("sched.replays", 0)
        where = f"{workload} sample {i}"
        if workload == "boot-cold":
            if s.get("disk_cache"):
                out.append(f"{where}: a disk cache is configured")
            if searches == 0 or replays:
                out.append(f"{where}: {searches} searches, {replays} replays "
                           "(expected a cold search, no replays)")
        elif workload == "boot-replay":
            cached = run["populate"]["schedules_cached"]
            if searches or not replays or replays != cached:
                out.append(f"{where}: {searches} searches, {replays} replays "
                           f"of {cached} cached schedules")
        else:
            if searches or replays:
                out.append(f"{where}: {searches} searches, {replays} replays")
            serve = s["serve"]
            if serve["faults_fired"] != serve["faults_planned"]:
                out.append(f"{where}: fired {serve['faults_fired']} of "
                           f"{serve['faults_planned']}")
    if workload == "boot-replay":
        pop = run["populate"]["counts"]
        if not pop.get("sched.searches", 0) + pop.get("mad.searches", 0):
            out.append("boot-replay set-up did not search")
    return out


def model_outputs(run: Dict[str, Any]) -> Dict[str, float]:
    """The simulated (virtual-clock) outputs of a run's first sample."""
    first = run["samples"][0]
    if run["workload"] == "serve-chaos":
        return {"model_p50_ms": first["serve"]["p50_ms"],
                "model_p999_ms": first["serve"]["p999_ms"]}
    res = first["results"]
    base = res["SHARP+MAD"]["seconds"]
    return {
        "model_ms": res["CROPHE-36"]["seconds"] * 1e3,
        "model_speedup": base / res["CROPHE-36"]["seconds"],
        "model_speedup_p": base / res["CROPHE-p-36"]["seconds"],
    }


def load_reference() -> Dict[str, Any]:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def finish_run(run: Dict[str, Any]) -> Dict[str, Any]:
    """Attach correctness, shape and model outputs to a measured run."""
    run.update(check_run(run, load_reference()))
    run["shape"] = shape_violations(run)
    run["error_rate"] = run["failed"] / run["attempted"]
    if not run["failed"]:
        run["model"] = model_outputs(run)
    return run


def result_line(run: Dict[str, Any], spec: Dict[str, Any]) -> Dict[str, Any]:
    section = "per_layer" if run["trace"] else "end_to_end"
    values = run["per_layer"] if run["trace"] else run["metrics"]
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec[section]
        },
    }


def save_runs(path: str, runs: List[Dict[str, Any]]) -> None:
    """Append runs to a result file (the input of ``compare``)."""
    doc = {"machine": machine(), "benchmark": declared(), "runs": []}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["runs"].extend(runs)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
