"""Workload containers and build options."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.fhe.params import CKKSParams
from repro.ir.graph import OperatorGraph
from repro.resilience.errors import ConfigError

#: Baby-step strategies the graph builders implement.
ROTATION_STRATEGIES = ("plain", "min-ks", "hoisting", "hybrid")


@dataclass(frozen=True)
class WorkloadOptions:
    """Dataflow-relevant build options.

    Attributes:
        ntt_split: four-step split applied to every (i)NTT, or ``None``
            for monolithic NTTs (the NTTDec ablation knob).
        rotation_strategy: baby-step strategy ("min-ks" / "hoisting" /
            "hybrid") — the HybRot ablation knob.
        r_hyb: hybrid coarse-step distance (the Section V-C parameter;
            the experiment driver enumerates a few values and keeps the
            fastest, mirroring the per-graph enumeration of Section V-D).
    """

    ntt_split: Optional[Tuple[int, int]] = None
    rotation_strategy: str = "hybrid"
    r_hyb: int = 4

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Reject build options no graph builder can honour.

        Raises:
            ConfigError: naming the offending field.
        """
        if self.rotation_strategy not in ROTATION_STRATEGIES:
            raise ConfigError(
                "rotation_strategy", self.rotation_strategy,
                f"choose from {ROTATION_STRATEGIES}",
            )
        if not isinstance(self.r_hyb, int) or self.r_hyb < 1:
            raise ConfigError(
                "r_hyb", self.r_hyb,
                "the hybrid coarse-step distance must be an int >= 1",
            )
        if self.ntt_split is not None:
            n1, n2 = self.ntt_split
            for name, value in (("ntt_split[0]", n1), ("ntt_split[1]", n2)):
                if (
                    not isinstance(value, int)
                    or value < 2
                    or value & (value - 1)
                ):
                    raise ConfigError(
                        name, value,
                        "four-step factors must be powers of two >= 2",
                    )


@dataclass
class WorkloadSegment:
    """A distinct subgraph scheduled once and executed ``repeat`` times."""

    name: str
    graph: OperatorGraph
    repeat: int = 1

    @property
    def num_operators(self) -> int:
        return self.graph.num_operators


@dataclass
class Workload:
    """A full benchmark: named segments with repeat counts."""

    name: str
    params: CKKSParams
    segments: List[WorkloadSegment] = field(default_factory=list)
    description: str = ""

    @property
    def total_operators(self) -> int:
        return sum(s.num_operators * s.repeat for s in self.segments)

    @property
    def distinct_operators(self) -> int:
        return sum(s.num_operators for s in self.segments)

    def segment(self, name: str) -> WorkloadSegment:
        """Look up a segment by name."""
        for s in self.segments:
            if s.name == name:
                return s
        raise KeyError(f"no segment {name!r} in workload {self.name}")
