"""Table III: CKKS parameter sets used against each baseline."""

from __future__ import annotations

from typing import Dict, List

from repro.fhe.params import PARAMETER_SETS, security_bits_estimate

ROW_LABELS = ["log2 N", "L", "L_boot", "dnum", "alpha"]


def table3() -> Dict[str, List[int]]:
    """Regenerate Table III as {set name: [log2N, L, L_boot, dnum, alpha]}."""
    return {
        name: [p.log_n, p.max_level, p.boot_levels, p.dnum, p.alpha]
        for name, p in PARAMETER_SETS.items()
    }


def security_check() -> Dict[str, float]:
    """Rule-of-thumb security estimate per set (all should be >= ~100)."""
    return {
        name: security_bits_estimate(p) for name, p in PARAMETER_SETS.items()
    }


def format_table3() -> str:
    """Render Table III as an aligned text table."""
    data = table3()
    names = list(data)
    lines = ["Parameter set".ljust(16) + "".join(n.rjust(12) for n in names)]
    for i, label in enumerate(ROW_LABELS):
        lines.append(
            label.ljust(16) + "".join(str(data[n][i]).rjust(12) for n in names)
        )
    return "\n".join(lines)


if __name__ == "__main__":
    print(format_table3())
