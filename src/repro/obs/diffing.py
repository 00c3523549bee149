"""Metric-snapshot diffing with threshold-based regression verdicts.

Compares two snapshots — plain registry snapshots or ``repro-metrics``
documents such as the committed ``BENCH_quick/<cell>.metrics.json`` and
``BENCH_serve.json`` baselines — and issues a verdict per metric:

* ``regressed`` — the new value is worse by more than the threshold;
* ``improved`` — better by more than the threshold;
* ``ok`` — within the threshold band;
* ``added`` / ``removed`` — present on only one side (informational).

All gated catalog metrics are *higher-is-worse* (busy cycles, windows
explored, degraded fallbacks): a reproducibility baseline should only
shrink.  The registry creates a counter when it first counts, so a
gated metric missing from the old snapshot was 0 there: it is compared
against 0 and regresses when it appears (a quick sweep that starts
degrading searches fails the gate); one missing from the new snapshot
dropped to 0 and stays an informational ``removed``.  Wall-clock
metrics (a dotted name segment ending ``_seconds``, see
:func:`repro.obs.metrics.is_time_metric`) are noisy across machines,
so they are reported but **never gated** unless ``include_time=True``
— this is what lets CI diff against a committed baseline without
flaking on runner speed; one on only one side is ``added`` or
``removed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.metrics import is_time_metric

__all__ = ["MetricDelta", "DiffReport", "diff_snapshots", "diff_documents"]

#: Default relative-change band for a verdict (10%).
DEFAULT_THRESHOLD = 0.10


@dataclass
class MetricDelta:
    """One metric's comparison outcome."""

    name: str
    old: Optional[float]
    new: Optional[float]
    verdict: str  # regressed | improved | ok | added | removed
    rel_change: float = 0.0
    gated: bool = True

    def render(self) -> str:
        """One aligned text line for the report listing."""
        old = "-" if self.old is None else f"{self.old:g}"
        new = "-" if self.new is None else f"{self.new:g}"
        pct = (
            f"{self.rel_change:+.1%}"
            if self.old is not None and self.new is not None
            else ""
        )
        gate = "" if self.gated else " (not gated)"
        return (
            f"{self.verdict:>9s}  {self.name:<44s} {old:>14s} ->"
            f" {new:>14s} {pct:>8s}{gate}"
        )


@dataclass
class DiffReport:
    """Every per-metric delta plus the gate outcome."""

    deltas: List[MetricDelta] = field(default_factory=list)
    threshold: float = DEFAULT_THRESHOLD

    @property
    def regressions(self) -> List[MetricDelta]:
        return [
            d for d in self.deltas if d.gated and d.verdict == "regressed"
        ]

    @property
    def improvements(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.verdict == "improved"]

    @property
    def ok(self) -> bool:
        """Whether the gate passes (no gated regressions)."""
        return not self.regressions

    def render_text(self, only_notable: bool = True) -> str:
        """Human-readable listing (notable verdicts first)."""
        notable = [d for d in self.deltas if d.verdict != "ok"]
        listed = notable if only_notable else self.deltas
        lines = [d.render() for d in listed]
        lines.append(
            f"-- {len(self.regressions)} regression(s), "
            f"{len(self.improvements)} improvement(s), "
            f"{sum(1 for d in self.deltas if d.verdict == 'ok')} within "
            f"±{self.threshold:.0%} of baseline"
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable report (the CLI's ``--json`` payload)."""
        return {
            "threshold": self.threshold,
            "ok": self.ok,
            "regressions": len(self.regressions),
            "improvements": len(self.improvements),
            "deltas": [
                {
                    "name": d.name,
                    "old": d.old,
                    "new": d.new,
                    "verdict": d.verdict,
                    "rel_change": d.rel_change,
                    "gated": d.gated,
                }
                for d in self.deltas
            ],
        }


def _comparable_value(name: str, rendered: object) -> Optional[float]:
    """The single number a rendered metric is compared on.

    Counters/gauges compare on ``value``; histograms on ``count`` (the
    deterministic part — totals of timing histograms are wall-clock).
    """
    if not isinstance(rendered, dict):
        return float(rendered) if isinstance(rendered, (int, float)) else None
    if rendered.get("type") == "histogram":
        count = rendered.get("count")
        return float(count) if isinstance(count, (int, float)) else None
    value = rendered.get("value")
    return float(value) if isinstance(value, (int, float)) else None


def _verdict(
    old: float, new: float, threshold: float
) -> tuple:
    base = abs(old) if old else 1.0
    rel = (new - old) / base
    if rel > threshold:
        return "regressed", rel
    if rel < -threshold:
        return "improved", rel
    return "ok", rel


def diff_snapshots(
    old: Dict[str, object],
    new: Dict[str, object],
    threshold: float = DEFAULT_THRESHOLD,
    include_time: bool = False,
) -> DiffReport:
    """Diff two registry snapshots (``{name: rendered metric}``)."""
    report = DiffReport(threshold=threshold)
    for name in sorted(set(old) | set(new)):
        gated = include_time or not is_time_metric(name)
        old_value = _comparable_value(name, old.get(name)) if name in old else None
        new_value = _comparable_value(name, new.get(name)) if name in new else None
        if old_value is None and new_value is None:
            continue
        if old_value is None and not gated:
            report.deltas.append(MetricDelta(
                name, None, new_value, "added", gated=False
            ))
            continue
        if new_value is None:
            report.deltas.append(MetricDelta(
                name, old_value, None, "removed", gated=False
            ))
            continue
        # A gated metric absent from the baseline was 0 there.
        verdict, rel = _verdict(old_value or 0.0, new_value, threshold)
        report.deltas.append(MetricDelta(
            name, old_value, new_value, verdict,
            rel_change=rel, gated=gated,
        ))
    return report


def diff_documents(
    old: Dict[str, object],
    new: Dict[str, object],
    threshold: float = DEFAULT_THRESHOLD,
    include_time: bool = False,
) -> DiffReport:
    """Diff two ``repro-metrics`` documents (or bare snapshot mappings)."""
    old_metrics = old.get("metrics", old)
    new_metrics = new.get("metrics", new)
    return diff_snapshots(
        old_metrics if isinstance(old_metrics, dict) else {},
        new_metrics if isinstance(new_metrics, dict) else {},
        threshold=threshold,
        include_time=include_time,
    )
