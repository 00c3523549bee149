"""Repository lint: typed-error rules (L001-L002) and the determinism
rules (D001-D005) guarding the byte-identity contract.

``assert`` statements vanish under ``python -O``, so a library invariant
guarded by one silently stops being checked; an untyped
``raise ValueError(...)`` denies callers the chance to branch on the
failure class.  Library code raises :class:`~repro.resilience.errors.
ReproError` subclasses instead (``InvariantViolation`` for internal
invariants).

The D* rules are the static guardrails for the repo's hardest-won
invariant — same seed, byte-identical artifacts: unseeded random
sources (D001), wall-clock values flowing into serialized artifacts
(D002), iteration over unordered sets (D003), unsorted directory
listings (D004), and completion-order thread-pool consumption (D005).
CI enforces the same property end to end with ``cmp``; the lint catches
the regression at review time instead of on a flaky re-run.

The pass is a plain ``ast`` walk — no third-party linter needed — and
fails **on new errors only**: existing findings are recorded in a
baseline file as ``path:rule:count`` lines (counts per file/rule are
robust to line shifts, unlike line-number pins), and the gate trips only
when a file/rule count exceeds its baseline.  ``--update-baseline``
accepts shrinking counts (auto-verified; it refuses to grow any entry),
``--write-baseline`` force-rewrites after a deliberately accepted
regression.

Run it as ``python -m repro.analysis.lint src`` (see ``make lint``).
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import (
    EXIT_VERIFY,
    DiagnosticReport,
    reports_document,
)

#: Builtin exception types library code must not raise directly.
#: ``NotImplementedError`` (abstract hooks), ``KeyError``/``IndexError``
#: (mapping protocol), and ``StopIteration`` stay legal: they *are* the
#: typed contract of the construct involved.
BANNED_RAISES = frozenset(
    {"Exception", "ValueError", "TypeError", "RuntimeError",
     "AssertionError", "ArithmeticError", "OSError", "IOError"}
)

#: Default baseline, resolved relative to this package so the gate works
#: from any working directory.
DEFAULT_BASELINE = Path(__file__).with_name("lint_baseline.txt")

BaselineKey = Tuple[str, str]  # (posix path, rule id)


#: Module-level ``random.*`` draws D001 flags (global-state entropy).
_RANDOM_DRAWS = frozenset(
    {"random", "randint", "randrange", "choice", "choices", "shuffle",
     "sample", "uniform", "gauss", "normalvariate", "triangular",
     "betavariate", "expovariate", "gammavariate", "lognormvariate",
     "vonmisesvariate", "paretovariate", "weibullvariate",
     "getrandbits", "randbytes"}
)

#: Zero-argument RNG constructors D001 flags (OS-entropy seeding).
_RNG_CONSTRUCTORS = frozenset({"Random", "default_rng", "RandomState"})

#: Wall-clock reads D002 flags when the same function serializes JSON.
_WALL_CLOCK = frozenset({"time", "time_ns", "now", "utcnow", "today"})

#: Directory enumerations D004 requires to be wrapped in ``sorted``.
_LISTING_MODULE_CALLS = frozenset(
    {("os", "listdir"), ("os", "scandir"), ("glob", "glob"),
     ("glob", "iglob")}
)
_LISTING_METHODS = frozenset({"glob", "rglob", "iterdir"})

#: Completion-order pool iteration D005 bans outright.
_UNORDERED_POOL = frozenset({"as_completed", "imap_unordered"})


def _banned_name(node: ast.Raise) -> Optional[str]:
    """The banned builtin a ``raise`` targets, or None when legal."""
    exc = node.exc
    if exc is None:  # bare re-raise
        return None
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Name) and exc.id in BANNED_RAISES:
        return exc.id
    return None


def _dotted(func: ast.expr) -> Tuple[str, ...]:
    """A call target as a dotted-name tuple (best effort).

    ``np.random.choice`` -> ``("np", "random", "choice")``; anything
    not a plain name chain contributes an empty leading segment.
    """
    parts: List[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    else:
        parts.append("")
    return tuple(reversed(parts))


def _is_sorted_wrapped(node: ast.AST, parents: Dict[ast.AST, ast.AST]) -> bool:
    """True when ``node`` is a direct argument of a ``sorted(...)`` call."""
    parent = parents.get(node)
    return (
        isinstance(parent, ast.Call)
        and isinstance(parent.func, ast.Name)
        and parent.func.id == "sorted"
        and node in parent.args
    )


def _check_unseeded_random(
    node: ast.Call, path: str, report: DiagnosticReport
) -> None:
    """D001: module-level random draws and zero-arg RNG constructors."""
    dotted = _dotted(node.func)
    if len(dotted) == 2 and dotted[0] == "random" and dotted[1] in _RANDOM_DRAWS:
        report.emit(
            "D001", f"{path}:{node.lineno}",
            f"module-level random.{dotted[1]}() draws from global state",
        )
        return
    if (
        len(dotted) == 3
        and dotted[0] in ("np", "numpy")
        and dotted[1] == "random"
        and dotted[2] not in _RNG_CONSTRUCTORS | {"Generator", "SeedSequence"}
    ):
        report.emit(
            "D001", f"{path}:{node.lineno}",
            f"legacy {dotted[0]}.random.{dotted[2]}() draws from global "
            "state",
        )
        return
    if (
        dotted[-1] in _RNG_CONSTRUCTORS
        and not node.args
        and not node.keywords
    ):
        report.emit(
            "D001", f"{path}:{node.lineno}",
            f"{dotted[-1]}() without a seed draws from OS entropy",
        )


def _check_wall_clock_artifacts(
    tree: ast.Module, path: str, report: DiagnosticReport
) -> None:
    """D002: wall-clock reads in functions that also serialize JSON.

    A per-function heuristic: ``time.time()``/``datetime.now()`` in the
    same function body as ``json.dump(s)`` is the pattern that stamps
    run-dependent values into artifact bytes.
    """
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        clock_lines: List[int] = []
        dumps = False
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if len(dotted) >= 2 and dotted[-1] in _WALL_CLOCK and dotted[-2] in (
                "time", "datetime", "date"
            ):
                clock_lines.append(node.lineno)
            if len(dotted) == 2 and dotted[0] == "json" and dotted[1] in (
                "dump", "dumps"
            ):
                dumps = True
        if dumps:
            for lineno in clock_lines:
                report.emit(
                    "D002", f"{path}:{lineno}",
                    f"wall-clock read in {func.name}(), which also "
                    "serializes JSON — run-dependent bytes in artifacts",
                )


def _iter_targets(tree: ast.Module) -> Iterable[ast.expr]:
    """Every expression something iterates over (for loops and
    comprehensions)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            for gen in node.generators:
                yield gen.iter

def _check_set_iteration(
    tree: ast.Module, path: str, report: DiagnosticReport
) -> None:
    """D003: iterating a set display / set() call in hash order."""
    for target in _iter_targets(tree):
        is_set = isinstance(target, ast.Set) or (
            isinstance(target, ast.Call)
            and isinstance(target.func, ast.Name)
            and target.func.id in ("set", "frozenset")
        )
        if is_set:
            report.emit(
                "D003", f"{path}:{target.lineno}",
                "iterates a set in hash order; wrap it in sorted(...)",
            )


def _check_unsorted_listing(
    node: ast.Call,
    path: str,
    parents: Dict[ast.AST, ast.AST],
    report: DiagnosticReport,
) -> None:
    """D004: directory enumeration not directly wrapped in sorted()."""
    dotted = _dotted(node.func)
    is_listing = (
        len(dotted) == 2 and (dotted[0], dotted[1]) in _LISTING_MODULE_CALLS
    ) or (
        isinstance(node.func, ast.Attribute)
        and node.func.attr in _LISTING_METHODS
        and len(dotted) >= 2
    )
    if is_listing and not _is_sorted_wrapped(node, parents):
        report.emit(
            "D004", f"{path}:{node.lineno}",
            f"{'.'.join(p for p in dotted if p)}() yields filesystem "
            "order; wrap the call in sorted(...)",
        )


def _check_unordered_pool(
    node: ast.Call, path: str, report: DiagnosticReport
) -> None:
    """D005: completion-order result consumption."""
    dotted = _dotted(node.func)
    if dotted[-1] in _UNORDERED_POOL:
        report.emit(
            "D005", f"{path}:{node.lineno}",
            f"{dotted[-1]}() yields results in completion order; "
            "consume futures in submission order instead",
        )


def lint_source(
    source: str, path: str, report: DiagnosticReport
) -> None:
    """Emit L001/L002 and D001-D005 findings for one module's source."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        # A file the lint pass cannot parse would not import either;
        # surface it as an untyped failure at the offending line.
        report.emit(
            "L002", f"{path}:{exc.lineno or 0}",
            f"unparseable module: {exc.msg}",
        )
        return
    parents: Dict[ast.AST, ast.AST] = {
        child: parent
        for parent in ast.walk(tree)
        for child in ast.iter_child_nodes(parent)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            report.emit(
                "L001", f"{path}:{node.lineno}",
                "bare assert in library code",
            )
        elif isinstance(node, ast.Raise):
            name = _banned_name(node)
            if name is not None:
                report.emit(
                    "L002", f"{path}:{node.lineno}",
                    f"raises builtin {name}",
                )
        elif isinstance(node, ast.Call):
            _check_unseeded_random(node, path, report)
            _check_unsorted_listing(node, path, parents, report)
            _check_unordered_pool(node, path, report)
    _check_wall_clock_artifacts(tree, path, report)
    _check_set_iteration(tree, path, report)


def _python_files(paths: Iterable[str]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            files.append(p)
    return files


def lint_paths(paths: Sequence[str]) -> DiagnosticReport:
    """Lint every ``.py`` file under the given paths."""
    report = DiagnosticReport(pass_name="lint")
    for path in _python_files(paths):
        lint_source(
            path.read_text(encoding="utf-8"), path.as_posix(), report
        )
    return report


# ----------------------------------------------------------------------
# Baseline bookkeeping
# ----------------------------------------------------------------------

def report_counts(report: DiagnosticReport) -> Dict[BaselineKey, int]:
    """Findings per (file, rule) — the unit the baseline tracks."""
    counts: Dict[BaselineKey, int] = {}
    for d in report.diagnostics:
        file = d.location.rsplit(":", 1)[0]
        key = (file, d.rule)
        counts[key] = counts.get(key, 0) + 1
    return counts


def load_baseline(path: Path) -> Dict[BaselineKey, int]:
    """Parse a baseline file (missing file = empty baseline)."""
    counts: Dict[BaselineKey, int] = {}
    if not path.exists():
        return counts
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        file, rule, count = line.rsplit(":", 2)
        counts[(file, rule)] = int(count)
    return counts


def write_baseline(path: Path, counts: Dict[BaselineKey, int]) -> None:
    """Serialize accepted finding counts as ``path:rule:count`` lines."""
    lines = [
        "# repro.analysis.lint baseline: path:rule:count",
        "# Regenerate with: python -m repro.analysis.lint src --write-baseline",
    ]
    lines.extend(
        f"{file}:{rule}:{count}"
        for (file, rule), count in sorted(counts.items())
    )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def regressions(
    current: Dict[BaselineKey, int], baseline: Dict[BaselineKey, int]
) -> Dict[BaselineKey, Tuple[int, int]]:
    """Keys whose count grew past the baseline: key -> (now, allowed)."""
    return {
        key: (count, baseline.get(key, 0))
        for key, count in sorted(current.items())
        if count > baseline.get(key, 0)
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Exit 0 when no (file, rule) count exceeds the baseline,
    :data:`~repro.analysis.diagnostics.EXIT_VERIFY` otherwise — the
    same code ``python -m repro.analysis`` and ``python -m repro.passes``
    use, so CI branches on one value.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Typed-error and determinism lint for library code "
        "(fails on new findings only).",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE,
        help="baseline file of accepted findings",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="force-rewrite the baseline from the current findings and "
        "exit (the escape hatch that may grow entries — use "
        "--update-baseline for routine cleanups)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="shrink the baseline to the current findings and exit; "
        "refuses to grow any entry (auto-verified: baselines never "
        "grow silently)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the runner-compatible verification JSON document",
    )
    args = parser.parse_args(argv)

    report = lint_paths(args.paths)
    current = report_counts(report)

    if args.write_baseline:
        write_baseline(args.baseline, current)
        print(
            f"baseline written: {args.baseline} "
            f"({sum(current.values())} finding(s) accepted)"
        )
        return 0

    baseline = load_baseline(args.baseline)
    if args.update_baseline:
        grown = regressions(current, baseline)
        if grown:
            for (file, rule), (now, allowed) in grown.items():
                print(
                    f"refusing to grow baseline: {file}:{rule} "
                    f"{allowed} -> {now}"
                )
            print(
                "fix the new findings or use --write-baseline to "
                "accept them deliberately"
            )
            return EXIT_VERIFY
        write_baseline(args.baseline, current)
        dropped = sum(
            count - current.get(key, 0)
            for key, count in baseline.items()
            if count > current.get(key, 0)
        )
        print(
            f"baseline updated: {args.baseline} "
            f"({sum(current.values())} finding(s) accepted, "
            f"{dropped} retired)"
        )
        return 0

    regressed = regressions(current, baseline)
    fresh = DiagnosticReport(pass_name="lint")
    for d in report.diagnostics:
        file = d.location.rsplit(":", 1)[0]
        if (file, d.rule) in regressed:
            fresh.diagnostics.append(d)

    if args.json:
        print(json.dumps(reports_document([fresh]), indent=2))
    else:
        print(fresh.render_text())
        suppressed = sum(current.values()) - len(fresh.diagnostics)
        if suppressed:
            print(f"({suppressed} pre-existing finding(s) under baseline)")
    return EXIT_VERIFY if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
