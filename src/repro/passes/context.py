"""Shared state threaded through a pass pipeline run."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.diagnostics import DiagnosticReport
from repro.fhe.params import CKKSParams
from repro.ir.builders import ConstantPool
from repro.ir.graph import OperatorGraph
from repro.ir.tensors import TensorKind
from repro.workloads.base import WorkloadOptions

__all__ = ["LoweringContext"]


@dataclass
class LoweringContext:
    """Everything a rewrite needs beyond the graph itself.

    The context owns the :class:`~repro.ir.builders.ConstantPool` that
    every expansion emitter writes through, so constants (twiddle
    factors, evaluation keys, base-conversion matrices) stay shared
    across passes exactly as one ``GraphBuilder`` shares them within a
    single build.

    Attributes:
        params: CKKS parameter set of the graph being lowered.
        options: the workload build options; ``options.ntt_split``
            drives the decompose-ntt pass.
        pool: constant pool shared by all emitters in this run.
        diagnostics: findings the rewrites themselves emit (e.g. the
            P002 off-catalog-split warning); the pipeline folds this
            into its inter-pass reports.
    """

    params: CKKSParams
    options: WorkloadOptions
    pool: ConstantPool = field(init=False)
    diagnostics: DiagnosticReport = field(
        default_factory=lambda: DiagnosticReport(pass_name="passes.rewrites")
    )

    def __post_init__(self) -> None:
        self.pool = ConstantPool(self.params)

    def seed_constants(self, graph: OperatorGraph) -> None:
        """Adopt a graph's twiddle constants into the pool.

        Primitive-level graphs carry monolithic-NTT twiddle tensors;
        seeding them keeps the decompose-ntt rewrite from minting fresh
        tensors for lengths the build already materialised, so every
        twiddle length resolves to one tensor per lowered graph, as in
        a single ``lowering="full"`` build.
        """
        for tensor in graph.constant_tensors():
            if tensor.kind is TensorKind.TWIDDLE:
                self.pool.seed_twiddles(tensor)
