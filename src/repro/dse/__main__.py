"""Command-line upkeep for the persistent DSE cache.

::

    python -m repro.dse stat --cache-dir .dse-cache
    python -m repro.dse ls   --cache-dir .dse-cache
    python -m repro.dse gc   --cache-dir .dse-cache

Sweeps run through ``python -m repro.experiments.runner`` (``--jobs``,
``--cache-dir``); these commands inspect and prune the cache it fills.
They default their root to the ``REPRO_DSE_CACHE`` environment
variable, matching the runner's ``--cache-dir``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.dse.cache import CACHE_ENV, aggregate_stats, gc_cache, scan_entries
from repro.resilience.errors import ReproError

EXIT_OK = 0
EXIT_CONFIG = 2


def _resolve_root(cache_dir: Optional[str]) -> Optional[str]:
    return cache_dir or os.environ.get(CACHE_ENV, "").strip() or None


def _cmd_stat(args: argparse.Namespace) -> int:
    root = _resolve_root(args.cache_dir)
    if root is None:
        print(f"no cache root (pass --cache-dir or set {CACHE_ENV})",
              file=sys.stderr)
        return EXIT_CONFIG
    per_kind = {}
    invalid = 0
    total_bytes = 0
    for entry in scan_entries(root):
        info = per_kind.setdefault(entry.kind, {"entries": 0, "bytes": 0})
        info["entries"] += 1
        try:
            size = os.path.getsize(entry.path)
        except OSError:
            size = 0
        info["bytes"] += size
        total_bytes += size
        if not entry.ok:
            invalid += 1
    print(f"cache root: {root}")
    for kind in sorted(per_kind):
        info = per_kind[kind]
        print(f"  {kind:<9} {info['entries']:>6} entries  "
              f"{info['bytes'] / 1024:.1f} KiB")
    print(f"  total     {sum(i['entries'] for i in per_kind.values()):>6} "
          f"entries  {total_bytes / 1024:.1f} KiB  ({invalid} invalid)")
    stats = aggregate_stats(root)
    print("session counters (all processes):")
    for key in sorted(stats):
        print(f"  dse.cache.{key:<10} {stats[key]}")
    return EXIT_OK


def _cmd_ls(args: argparse.Namespace) -> int:
    root = _resolve_root(args.cache_dir)
    if root is None:
        print(f"no cache root (pass --cache-dir or set {CACHE_ENV})",
              file=sys.stderr)
        return EXIT_CONFIG
    for entry in scan_entries(root):
        label = entry.meta.get("label", "")
        workload = entry.meta.get("workload", "")
        state = "ok" if entry.ok else f"INVALID({entry.reason})"
        desc = " ".join(x for x in (label, workload) if x)
        print(f"{entry.kind:<9} {entry.fingerprint[:12]}  {state:<8} {desc}")
    return EXIT_OK


def _cmd_gc(args: argparse.Namespace) -> int:
    root = _resolve_root(args.cache_dir)
    if root is None:
        print(f"no cache root (pass --cache-dir or set {CACHE_ENV})",
              file=sys.stderr)
        return EXIT_CONFIG
    evicted = gc_cache(root)
    print(f"evicted {evicted} invalid entries from {root}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.dse`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.dse",
        description="Design-space exploration: cache upkeep.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help_text in (
        ("stat", _cmd_stat, "summarize a cache root"),
        ("ls", _cmd_ls, "list cache entries"),
        ("gc", _cmd_gc, "evict invalid/stale entries"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--cache-dir", default=None,
                         help=f"cache root (default: ${CACHE_ENV})")
        cmd.set_defaults(func=func)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BrokenPipeError:
        # Downstream pager/head closed the pipe mid-listing; redirect
        # stdout at the descriptor level so interpreter shutdown does
        # not trip over the dead pipe again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
