"""Trace functional CKKS programs into scheduler-ready operator graphs.

A :class:`TracingContext` wraps a concrete :class:`~repro.fhe.context
.CKKSContext` and mirrors the ``repro.fhe.ops`` API.  Every call *both*
executes the real homomorphic operation (so the program's correctness is
checkable by decryption) *and* records the corresponding operator
subgraph through :class:`~repro.ir.builders.GraphBuilder` (so the exact
program the user ran can be scheduled on the accelerator model).

This closes the loop between the two halves of the repository: the
functional library is the executable specification, and tracing
guarantees the graph the scheduler optimizes is the graph the user's
program actually computes.

Example::

    tctx = TracingContext(ctx, accel_params)
    x = tctx.encrypt_input("x", values)
    y = tctx.encrypt_input("y", other)
    z = tctx.multiply(x, y)
    z = tctx.rescale(z)
    schedule = Scheduler(tctx.graph, CROPHE_64).schedule()
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.fhe import ops
from repro.fhe.ciphertext import Ciphertext
from repro.fhe.context import CKKSContext
from repro.fhe.params import CKKSParams
from repro.ir.builders import CiphertextTensors, GraphBuilder
from repro.ir.graph import OperatorGraph


@dataclass
class TracedCiphertext:
    """A ciphertext paired with its tensors in the traced graph."""

    ct: Ciphertext
    tensors: CiphertextTensors

    @property
    def level(self) -> int:
        return self.ct.level


class TracingContext:
    """Runs homomorphic ops while recording their operator graph.

    Args:
        ctx: a concrete CKKS context executing the real arithmetic.
        accel_params: the (usually larger) parameter set the recorded
            graph should be shaped for; defaults to the context's own
            parameters.  Levels are carried over one-to-one, so the
            functional program must fit within the accelerator set's
            level budget.
    """

    def __init__(
        self,
        ctx: CKKSContext,
        accel_params: Optional[CKKSParams] = None,
    ):
        self.ctx = ctx
        self.params = accel_params or ctx.params
        if self.params.max_level < ctx.params.max_level:
            raise ValueError(
                "accelerator parameter set has fewer levels than the "
                "functional context"
            )
        self.builder = GraphBuilder(self.params)

    @property
    def graph(self) -> OperatorGraph:
        """The operator graph recorded so far."""
        return self.builder.graph

    # ------------------------------------------------------------------
    # Inputs and outputs
    # ------------------------------------------------------------------

    def encrypt_input(
        self, name: str, values: Sequence[complex]
    ) -> TracedCiphertext:
        """Encrypt a program input and register it as a graph input."""
        ct = self.ctx.encrypt(self.ctx.encode(values))
        tensors = self.builder.input_ciphertext(name, ct.level)
        return TracedCiphertext(ct, tensors)

    def decrypt(self, traced: TracedCiphertext, num_slots: int = 0) -> np.ndarray:
        """Decrypt the functional half (the graph is unaffected)."""
        return self.ctx.decrypt_decode(traced.ct, num_slots)

    # ------------------------------------------------------------------
    # Mirrored homomorphic operations
    # ------------------------------------------------------------------

    def add(self, a: TracedCiphertext, b: TracedCiphertext) -> TracedCiphertext:
        """HAdd, executed and recorded."""
        ct = ops.add(a.ct, b.ct)
        tensors = self.builder.hadd(a.tensors, b.tensors, tag="traced.hadd")
        return TracedCiphertext(ct, tensors)

    def multiply(
        self, a: TracedCiphertext, b: TracedCiphertext
    ) -> TracedCiphertext:
        """HMult (tensor + relinearize), executed and recorded."""
        ct = ops.multiply(self.ctx, a.ct, b.ct)
        tensors = self.builder.hmult(a.tensors, b.tensors, tag="traced.hmult")
        return TracedCiphertext(ct, tensors)

    def square(self, a: TracedCiphertext) -> TracedCiphertext:
        """Homomorphic squaring, executed and recorded."""
        ct = ops.square(self.ctx, a.ct)
        tensors = self.builder.hmult(a.tensors, a.tensors, tag="traced.sq")
        return TracedCiphertext(ct, tensors)

    def rescale(self, a: TracedCiphertext) -> TracedCiphertext:
        """HRescale, executed and recorded."""
        ct = ops.rescale(self.ctx, a.ct)
        tensors = self.builder.rescale(a.tensors, tag="traced.rescale")
        return TracedCiphertext(ct, tensors)

    def rotate(self, a: TracedCiphertext, amount: int) -> TracedCiphertext:
        """HRot, executed and recorded (per-amount evk in the graph)."""
        ct = ops.rotate(self.ctx, a.ct, amount)
        tensors = self.builder.hrot(a.tensors, amount, tag="traced.hrot")
        return TracedCiphertext(ct, tensors)

    def multiply_plain(
        self, a: TracedCiphertext, values: Sequence[complex]
    ) -> TracedCiphertext:
        """PMult by a fresh encoded plaintext, executed and recorded."""
        pt = self.ctx.encode(values, level=a.ct.level, scale=a.ct.scale)
        ct = ops.mul_plain(a.ct, pt)
        tensors = self.builder.pmult(a.tensors, tag="traced.pmult")
        return TracedCiphertext(ct, tensors)
