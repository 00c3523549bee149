"""Figure 9: overall performance comparison.

For each baseline pairing (BTS and ARK at 64-bit, SHARP at 36-bit, CL+
at 28-bit) and each workload, evaluates four designs:

* baseline + MAD scheduling,
* CROPHE hardware + MAD scheduling,
* CROPHE (full scheduler),
* CROPHE-p (data-parallel clusters).

Reports execution times normalized to the baseline (speedup > 1 means
the design is faster than baseline+MAD).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.baselines.accelerators import baseline_config, paired_crophe
from repro.experiments.common import DesignPoint, evaluate_workload
from repro.fhe.params import parameter_set

WORKLOADS = ("bootstrapping", "helr", "resnet20", "resnet110")

#: Baseline name -> Table III parameter-set name.
PAIRING_PARAMS = {"BTS": "BTS", "ARK": "ARK", "SHARP": "SHARP", "CL+": "CraterLake"}


@dataclass
class Fig9Cell:
    """One bar of Figure 9."""

    design: str
    workload: str
    baseline: str
    ms: float
    speedup: float  # vs baseline+MAD


def design_points(baseline_name: str) -> List[DesignPoint]:
    """The four Figure 9 designs for one baseline pairing."""
    base_hw = baseline_config(baseline_name)
    crophe_hw = paired_crophe(baseline_name)
    suffix = str(crophe_hw.word_bits)
    return [
        DesignPoint(f"{baseline_name}+MAD", base_hw, dataflow="mad"),
        DesignPoint(f"CROPHE-hw+MAD", crophe_hw, dataflow="mad"),
        DesignPoint(f"CROPHE-{suffix}", crophe_hw),
        DesignPoint(f"CROPHE-p-{suffix}", crophe_hw, clusters=4),
    ]


def fig9(
    baselines: Sequence[str] = ("BTS", "ARK", "SHARP", "CL+"),
    workloads: Sequence[str] = WORKLOADS,
    scheduler_config=None,
) -> List[Fig9Cell]:
    """Regenerate the Figure 9 series (restrict args for quick runs).

    ``scheduler_config`` optionally carries search-budget knobs; the
    default picks budgets up from the environment (see
    :func:`repro.experiments.common.default_scheduler_config`).
    """
    cells: List[Fig9Cell] = []
    for baseline_name in baselines:
        params = parameter_set(PAIRING_PARAMS[baseline_name])
        points = design_points(baseline_name)
        for workload in workloads:
            results = [
                evaluate_workload(
                    p, workload, params, scheduler_config=scheduler_config
                )
                for p in points
            ]
            base_seconds = results[0].seconds
            for point, result in zip(points, results):
                cells.append(
                    Fig9Cell(
                        design=point.label,
                        workload=workload,
                        baseline=baseline_name,
                        ms=result.ms,
                        speedup=base_seconds / result.seconds,
                    )
                )
    return cells


def format_fig9(cells: List[Fig9Cell]) -> str:
    """Render the comparison as per-baseline speedup tables."""
    lines = []
    by_baseline: Dict[str, List[Fig9Cell]] = {}
    for c in cells:
        by_baseline.setdefault(c.baseline, []).append(c)
    for baseline_name, group in by_baseline.items():
        lines.append(f"--- vs {baseline_name} ---")
        designs = sorted({c.design for c in group})
        workloads = sorted({c.workload for c in group})
        header = "design".ljust(18) + "".join(w.rjust(15) for w in workloads)
        lines.append(header)
        for d in designs:
            row = d.ljust(18)
            for w in workloads:
                cell = next(
                    c for c in group if c.design == d and c.workload == w
                )
                row += f"{cell.speedup:14.2f}x"
            lines.append(row)
    return "\n".join(lines)


if __name__ == "__main__":
    print(format_fig9(fig9()))
