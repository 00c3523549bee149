"""Figure 11: optimization breakdown with SRAM/DRAM traffic.

Runs bootstrapping on the two CROPHE configurations at a reduced SRAM
capacity and steps through the ablation ladder:

* ``MAD``     — CROPHE hardware, MAD dataflow (Min-KS rotations);
* ``Base``    — CROPHE scheduler, no NTT decomposition, no hybrid rot;
* ``+NTTDec`` — adds four-step NTT decomposition;
* ``+HybRot`` — adds hybrid rotation (without NTTDec);
* ``CROPHE``  — both optimizations.

Each point reports speedup relative to the *baseline accelerator* + MAD
(ARK for the 64-bit config, SHARP for 36-bit) plus SRAM and DRAM traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.baselines.accelerators import baseline_config, paired_crophe
from repro.experiments.common import DesignPoint, evaluate_workload
from repro.fhe.params import parameter_set

#: The reduced SRAM capacities used by the breakdown study (MB).
SMALL_SRAM = {"ARK": 128.0, "SHARP": 45.0}

LADDER = ("MAD", "Base", "+NTTDec", "+HybRot", "CROPHE")


@dataclass
class Fig11Point:
    config: str          # "64-bit (vs ARK)" or "36-bit (vs SHARP)"
    variant: str         # one of LADDER
    ms: float
    speedup: float       # vs baseline+MAD
    sram_gb: float
    dram_gb: float


def _ladder_points(crophe_hw, sram: float) -> Dict[str, DesignPoint]:
    hw = crophe_hw.with_sram_mb(sram)
    return {
        "MAD": DesignPoint(
            "MAD", hw, dataflow="mad", rotation_strategy="min-ks"
        ),
        # The basic framework rotates plainly (one evk + key-switch per
        # amount); Min-KS/Hoisting/Hybrid are the ablated optimizations.
        "Base": DesignPoint(
            "Base", hw, use_ntt_decomposition=False,
            use_hybrid_rotation=False, rotation_strategy="plain",
        ),
        "+NTTDec": DesignPoint(
            "+NTTDec", hw, use_ntt_decomposition=True,
            use_hybrid_rotation=False, rotation_strategy="plain",
        ),
        "+HybRot": DesignPoint(
            "+HybRot", hw, use_ntt_decomposition=False,
            use_hybrid_rotation=True,
        ),
        "CROPHE": DesignPoint("CROPHE", hw),
    }


def fig11(
    pairings: Sequence[str] = ("ARK", "SHARP"),
    workload: str = "bootstrapping",
    scheduler_config=None,
) -> List[Fig11Point]:
    """Regenerate the Figure 11 ablation ladder.

    ``scheduler_config`` optionally carries search-budget knobs for
    every schedule search in the ladder.
    """
    out: List[Fig11Point] = []
    for baseline_name in pairings:
        params = parameter_set(baseline_name)
        sram = SMALL_SRAM[baseline_name]
        base_hw = baseline_config(baseline_name).with_sram_mb(sram)
        crophe_hw = paired_crophe(baseline_name)
        base = evaluate_workload(
            DesignPoint(f"{baseline_name}+MAD", base_hw, dataflow="mad"),
            workload, params, scheduler_config=scheduler_config,
        )
        label = f"{crophe_hw.word_bits}-bit (vs {baseline_name})"
        for variant, point in _ladder_points(crophe_hw, sram).items():
            r = evaluate_workload(
                point, workload, params, scheduler_config=scheduler_config
            )
            out.append(
                Fig11Point(
                    config=label,
                    variant=variant,
                    ms=r.ms,
                    speedup=base.seconds / r.seconds,
                    sram_gb=r.traffic.sram_bytes / 2 ** 30,
                    dram_gb=r.traffic.dram_bytes / 2 ** 30,
                )
            )
    return out


def format_fig11(points: List[Fig11Point]) -> str:
    """Render the ladder as an aligned text table."""
    lines = [
        f"{'config':22s}{'variant':10s}{'ms':>10s}{'speedup':>9s}"
        f"{'SRAM GB':>10s}{'DRAM GB':>10s}"
    ]
    for p in points:
        lines.append(
            f"{p.config:22s}{p.variant:10s}{p.ms:10.2f}{p.speedup:8.2f}x"
            f"{p.sram_gb:10.2f}{p.dram_gb:10.2f}"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    print(format_fig11())
