"""Table II: area and power breakdown of CROPHE-36."""

from __future__ import annotations

from typing import List, Tuple

from repro.hw.area import AreaReport, area_report
from repro.hw.config import CROPHE_36

#: The paper's Table II values: (component, area, power).  PE components
#: are um^2 / mW; chip components mm^2 / W.
PAPER_TABLE2: List[Tuple[str, float, float]] = [
    ("modular multipliers", 337650.31, 388.80),
    ("modular adders/subtractors", 27784.55, 33.79),
    ("register files", 67242.02, 16.86),
    ("inter-lane network", 15806.76, 58.17),
    ("PE", 448483.64, 497.62),
    ("128 PEs", 57.40, 63.70),
    ("inter-PE NoC & crossbars", 40.70, 67.40),
    ("global buffer", 116.05, 15.34),
    ("transpose unit", 7.38, 2.87),
    ("HBM PHY", 29.60, 31.80),
    ("Total", 251.13, 181.11),
]


def table2() -> AreaReport:
    """Regenerate Table II from the analytical area model."""
    return area_report(CROPHE_36)


def compare_with_paper() -> List[Tuple[str, float, float, float, float]]:
    """(component, model area, paper area, model power, paper power)."""
    model_rows = {name: (a, p) for name, a, p in table2().rows()}
    out = []
    for name, paper_area, paper_power in PAPER_TABLE2:
        area, power = model_rows[name]
        out.append((name, area, paper_area, power, paper_power))
    return out


def format_table2() -> str:
    """Render Table II next to the paper values."""
    lines = [
        f"{'Component':32s}{'Area':>14s}{'(paper)':>12s}"
        f"{'Power':>10s}{'(paper)':>10s}"
    ]
    for name, area, p_area, power, p_power in compare_with_paper():
        lines.append(
            f"{name:32s}{area:14.2f}{p_area:12.2f}{power:10.2f}{p_power:10.2f}"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    print(format_table2())
