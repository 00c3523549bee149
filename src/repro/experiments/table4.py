"""Table IV: resource utilization on ResNet-20.

Reports PE / NoC / SRAM-bandwidth / DRAM-bandwidth utilization for the
baseline+MAD designs and the CROPHE / CROPHE-p variants at both word
lengths.  Baseline NoC utilization is omitted, as in the paper (their
baseline reproduction idealizes the NoC).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.baselines.accelerators import baseline_config, paired_crophe
from repro.experiments.common import DesignPoint, evaluate_workload
from repro.fhe.params import parameter_set


@dataclass
class Table4Row:
    design: str
    pe: float
    noc: Optional[float]
    sram_bw: float
    dram_bw: float


def table4(workload: str = "resnet20", scheduler_config=None) -> List[Table4Row]:
    """Regenerate the Table IV utilization rows.

    ``scheduler_config`` optionally carries search-budget knobs for
    every schedule search behind the rows.
    """
    rows: List[Table4Row] = []
    for baseline_name in ("ARK", "SHARP"):
        params = parameter_set(baseline_name)
        base_hw = baseline_config(baseline_name)
        crophe_hw = paired_crophe(baseline_name)
        suffix = str(crophe_hw.word_bits)
        points = [
            (DesignPoint(f"{baseline_name}+MAD", base_hw, dataflow="mad"),
             False),
            (DesignPoint(f"CROPHE-{suffix}", crophe_hw), True),
            (DesignPoint(f"CROPHE-p-{suffix}", crophe_hw, clusters=4), True),
        ]
        for point, show_noc in points:
            r = evaluate_workload(
                point, workload, params, scheduler_config=scheduler_config
            )
            rows.append(
                Table4Row(
                    design=point.label,
                    pe=r.utilization.pe,
                    noc=r.utilization.noc if show_noc else None,
                    sram_bw=r.utilization.sram_bw,
                    dram_bw=r.utilization.dram_bw,
                )
            )
    return rows


def format_table4(rows: List[Table4Row]) -> str:
    """Render Table IV as an aligned text table."""
    lines = [
        f"{'Design':16s}{'PEs':>9s}{'NoC b/w':>10s}{'SRAM b/w':>10s}"
        f"{'DRAM b/w':>10s}"
    ]
    for r in rows:
        noc = f"{r.noc * 100:8.2f}%" if r.noc is not None else "       -"
        lines.append(
            f"{r.design:16s}{r.pe * 100:8.2f}%{noc:>10s}"
            f"{r.sram_bw * 100:8.2f}%{r.dram_bw * 100:8.2f}%"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    print(format_table4())
