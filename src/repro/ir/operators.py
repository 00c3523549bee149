"""Operator taxonomy of the CROPHE IR.

The paper's summary of CKKS (Section II-A): element-wise tensor
additions/multiplications, matrix/tensor multiplications (BConv, evk
inner-product), NTTs, and automorphisms.  Each :class:`Operator` knows

* its compute *work* (modular multiplications / additions) — used for
  PE allocation proportional to load (Section IV-B) and compute latency;
* its candidate :class:`~repro.ir.loops.LoopNest`s — used by the
  scheduler's matched-top-loop test for fine-grained pipelining/sharing;
* a structural *signature* — used to merge redundant subgraphs so the
  exhaustive search runs once per distinct structure (Section V-D).

NTT decomposition (Section V-B) is represented by the ``NTT_COL`` /
``NTT_ROW`` phase kinds plus an explicit ``TRANSPOSE`` between them; the
monolithic ``NTT``/``INTT`` kinds keep the slot dimension bound (only the
limb loop can be matched), which is exactly the orientation-switch
limitation the decomposition removes.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.ir.loops import Axis, Loop, LoopNest
from repro.ir.tensors import DataTensor


class OpKind(enum.Enum):
    """FHE operator types mapped onto the unified PEs."""

    EW_ADD = "ew_add"          # element-wise add/sub (HAdd, psum accumulate)
    EW_MUL = "ew_mul"          # element-wise multiply (PMult/CMult/twiddle)
    EW_MULADD = "ew_muladd"    # fused multiply-accumulate
    NTT = "ntt"                # monolithic forward NTT
    INTT = "intt"              # monolithic inverse NTT
    NTT_COL = "ntt_col"        # decomposed phase: N1 instances of len-N2
    NTT_ROW = "ntt_row"        # decomposed phase: N2 instances of len-N1
    INTT_COL = "intt_col"
    INTT_ROW = "intt_row"
    AUTOMORPHISM = "auto"      # Galois permutation
    BCONV = "bconv"            # base conversion (matrix multiply per slot)
    KSK_INP = "ksk_inp"        # inner product with evk along digits
    TRANSPOSE = "transpose"    # on the dedicated transpose unit
    # Coarse primitive-level kinds: placeholders the repro.passes
    # lowering pipeline expands before anything costs or schedules them.
    KEY_SWITCH = "key_switch"  # un-decomposed key switch (one digit loop)
    ROT_BATCH = "rot_batch"    # un-decomposed baby-rotation batch

    @property
    def is_ntt_phase(self) -> bool:
        return self in (
            OpKind.NTT_COL, OpKind.NTT_ROW, OpKind.INTT_COL, OpKind.INTT_ROW
        )

    @property
    def is_monolithic_ntt(self) -> bool:
        return self in (OpKind.NTT, OpKind.INTT)

    @property
    def is_coarse(self) -> bool:
        """Primitive-level kind that must be lowered before scheduling."""
        return self in (OpKind.KEY_SWITCH, OpKind.ROT_BATCH)


_ids = itertools.count()


def _log2(n: int) -> int:
    if n & (n - 1) or n < 1:
        raise ValueError(f"{n} is not a power of two")
    return n.bit_length() - 1


@dataclass
class Operator:
    """One FHE operator instance in the computational graph.

    Attributes:
        name: unique human-readable label.
        kind: operator type.
        limbs: limb trip count (``l + 1``, or ``alpha + l + 1`` on the
            extended basis, or ``alpha`` for a ModUp source digit).
        n: slot dimension (full ``N`` for monolithic ops; for decomposed
            NTT phases, still the full ``N`` with the split recorded in
            ``n_split``).
        digits: digit trip count ``beta`` (KSK_INP only).
        out_limbs: output limb count when it differs (BConv).
        n_split: ``(n1, n2)`` for decomposed NTT phases.
        inputs/outputs: connected tensors.
        tag: provenance (e.g. ``"keyswitch.modup0"``); used for grouping
            heuristics and pretty-printing.
        attrs: sorted ``(key, value)`` pairs carrying extra structural
            parameters of coarse primitive-level operators (e.g. a
            ``ROT_BATCH``'s rotation strategy and amounts).  Empty for
            every fully decomposed operator, and folded into
            :meth:`signature` only when non-empty so existing
            signatures — and every memo/cache key derived from them —
            are unchanged.
    """

    name: str
    kind: OpKind
    limbs: int
    n: int
    digits: int = 1
    out_limbs: Optional[int] = None
    n_split: Optional[Tuple[int, int]] = None
    inputs: List[DataTensor] = field(default_factory=list)
    outputs: List[DataTensor] = field(default_factory=list)
    tag: str = ""
    attrs: Tuple[Tuple[str, object], ...] = ()
    uid: int = field(default_factory=lambda: next(_ids))

    def __post_init__(self) -> None:
        if self.kind.is_ntt_phase and self.n_split is None:
            raise ValueError(f"{self.kind} requires n_split")
        if self.n_split is not None:
            n1, n2 = self.n_split
            if n1 * n2 != self.n:
                raise ValueError(f"n_split {self.n_split} != N={self.n}")

    def __hash__(self) -> int:
        return self.uid

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Operator):
            return NotImplemented
        return self.uid == other.uid

    # ------------------------------------------------------------------
    # Compute work
    # ------------------------------------------------------------------

    @property
    def mul_work(self) -> int:
        """Modular multiplications performed."""
        k = self.kind
        if k is OpKind.EW_MUL:
            return self.limbs * self.n
        if k is OpKind.EW_MULADD:
            # A MAC reduces `digits` product terms per output element
            # (e.g. the BSGS inner loop accumulating n1 baby-step terms).
            return self.digits * self.limbs * self.n
        if k is OpKind.EW_ADD:
            return 0
        if k.is_monolithic_ntt:
            return self.limbs * (self.n // 2) * _log2(self.n)
        if k in (OpKind.NTT_COL, OpKind.INTT_COL):
            n1, n2 = self.n_split
            return self.limbs * n1 * (n2 // 2) * _log2(n2)
        if k in (OpKind.NTT_ROW, OpKind.INTT_ROW):
            n1, n2 = self.n_split
            return self.limbs * n2 * (n1 // 2) * _log2(n1)
        if k is OpKind.AUTOMORPHISM:
            return 0
        if k is OpKind.BCONV:
            out = self.out_limbs if self.out_limbs is not None else self.limbs
            return self.limbs * out * self.n + self.limbs * self.n
        if k is OpKind.KSK_INP:
            return 2 * self.digits * self.limbs * self.n
        if k is OpKind.TRANSPOSE:
            return 0
        if k.is_coarse:
            self._reject_coarse("mul_work")
        raise AssertionError(f"unhandled kind {k}")

    def _reject_coarse(self, what: str) -> None:
        from repro.resilience.errors import InvariantViolation

        raise InvariantViolation(
            f"repro.ir.operators.Operator.{what}",
            f"coarse operator {self.name} ({self.kind.value}) reached a "
            "cost/scheduling query; run the repro.passes lowering "
            "pipeline to the decomposed level first",
        )

    @property
    def add_work(self) -> int:
        """Modular additions/subtractions performed."""
        k = self.kind
        if k is OpKind.EW_ADD:
            return self.limbs * self.n
        if k is OpKind.EW_MULADD:
            return self.digits * self.limbs * self.n
        if k.is_monolithic_ntt:
            return self.limbs * self.n * _log2(self.n)
        if k in (OpKind.NTT_COL, OpKind.INTT_COL):
            n1, n2 = self.n_split
            return self.limbs * n1 * n2 * _log2(n2)
        if k in (OpKind.NTT_ROW, OpKind.INTT_ROW):
            n1, n2 = self.n_split
            return self.limbs * n2 * n1 * _log2(n1)
        if k is OpKind.BCONV:
            out = self.out_limbs if self.out_limbs is not None else self.limbs
            return self.limbs * out * self.n
        if k is OpKind.KSK_INP:
            return 2 * self.digits * self.limbs * self.n
        if k.is_coarse:
            self._reject_coarse("add_work")
        return 0

    @property
    def total_work(self) -> int:
        """Mul-equivalent work (adds weighted 1/4, as one lane has one
        multiplier and a few adders)."""
        return self.mul_work + self.add_work // 4

    # ------------------------------------------------------------------
    # Candidate loop nests (what the matched-top-loop test consumes)
    # ------------------------------------------------------------------

    def candidate_loop_nests(
        self, n_split: Optional[Tuple[int, int]] = None
    ) -> List[LoopNest]:
        """Loop nests this operator can legally execute with.

        ``n_split`` tiles the slot dimension of *streaming* operators
        (element-wise, BConv, KSK_INP, and the NTT phases' free axis) so
        they can match a neighbouring decomposed NTT.
        """
        k = self.kind
        limb = Loop(Axis.LIMB, self.limbs)
        if k in (OpKind.EW_ADD, OpKind.EW_MUL, OpKind.EW_MULADD):
            nests = [
                LoopNest([limb, Loop(Axis.N, self.n)]),
                LoopNest([Loop(Axis.N, self.n), limb]),
            ]
            if n_split:
                n1, n2 = n_split
                nests += [
                    LoopNest([Loop(Axis.N1, n1), limb, Loop(Axis.N2, n2)]),
                    LoopNest([Loop(Axis.N2, n2), limb, Loop(Axis.N1, n1)]),
                    LoopNest([limb, Loop(Axis.N1, n1), Loop(Axis.N2, n2)]),
                    LoopNest([limb, Loop(Axis.N2, n2), Loop(Axis.N1, n1)]),
                ]
            return nests
        if k.is_monolithic_ntt:
            # The slot dimension is bound by butterfly dependencies: only
            # the limb loop can be matched with neighbours.
            return [
                LoopNest([
                    limb,
                    Loop(Axis.STAGE, _log2(self.n)),
                    Loop(Axis.N, self.n),
                ])
            ]
        if k in (OpKind.NTT_COL, OpKind.INTT_COL):
            # N1 independent instances of length-N2 sub-NTTs: free on N1.
            n1, n2 = self.n_split
            inner = [Loop(Axis.STAGE, _log2(n2)), Loop(Axis.N2, n2)]
            return [
                LoopNest([Loop(Axis.N1, n1), limb] + inner),
                LoopNest([limb, Loop(Axis.N1, n1)] + inner),
            ]
        if k in (OpKind.NTT_ROW, OpKind.INTT_ROW):
            n1, n2 = self.n_split
            inner = [Loop(Axis.STAGE, _log2(n1)), Loop(Axis.N1, n1)]
            return [
                LoopNest([Loop(Axis.N2, n2), limb] + inner),
                LoopNest([limb, Loop(Axis.N2, n2)] + inner),
            ]
        if k is OpKind.AUTOMORPHISM:
            # Slot permutation: all N slots bound, limbs independent.
            return [LoopNest([limb, Loop(Axis.N, self.n)])]
        if k is OpKind.BCONV:
            # Per-slot matrix multiply: slots independent, the limb
            # reduction is bound per slot.
            out = self.out_limbs if self.out_limbs is not None else self.limbs
            nests = [
                LoopNest([
                    Loop(Axis.N, self.n),
                    Loop(Axis.LIMB, out),
                ]),
            ]
            if n_split:
                n1, n2 = n_split
                nests += [
                    LoopNest([
                        Loop(Axis.N1, n1), Loop(Axis.LIMB, out),
                        Loop(Axis.N2, n2),
                    ]),
                    LoopNest([
                        Loop(Axis.N2, n2), Loop(Axis.LIMB, out),
                        Loop(Axis.N1, n1),
                    ]),
                ]
            return nests
        if k is OpKind.KSK_INP:
            # Figure 6: top loops alpha' > beta > N1, streaming N2 chunks.
            digit = Loop(Axis.DIGIT, self.digits)
            nests = [
                LoopNest([limb, digit, Loop(Axis.N, self.n)]),
                LoopNest([Loop(Axis.N, self.n), digit, limb]),
                LoopNest([limb, Loop(Axis.N, self.n), digit]),
            ]
            if n_split:
                n1, n2 = n_split
                nests += [
                    LoopNest([
                        limb, digit, Loop(Axis.N1, n1), Loop(Axis.N2, n2)
                    ]),
                    LoopNest([
                        limb, digit, Loop(Axis.N2, n2), Loop(Axis.N1, n1)
                    ]),
                ]
            return nests
        if k is OpKind.TRANSPOSE:
            # Orientation switch on the transpose unit; nothing matches.
            return [LoopNest([Loop(Axis.N, self.n), limb])]
        if k.is_coarse:
            self._reject_coarse("candidate_loop_nests")
        raise AssertionError(f"unhandled kind {k}")

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def signature(self) -> Tuple:
        """Structural signature (merging redundant subgraphs).

        Memoized: an operator's structure (and its tensor wiring) is
        immutable once built, and window-level memo keys recompute this
        for every candidate window of every DP search.
        """
        sig = self.__dict__.get("_signature")
        if sig is None:
            sig = (
                self.kind.value,
                self.limbs,
                self.out_limbs,
                self.digits,
                self.n,
                self.n_split,
                tuple((t.kind.value, t.shape) for t in self.inputs),
                tuple((t.kind.value, t.shape) for t in self.outputs),
            )
            if self.attrs:
                # Coarse-only extension: decomposed operators keep their
                # historical signatures (and derived memo/cache keys).
                sig = sig + (self.attrs,)
            self._signature = sig
        return sig

    def __repr__(self) -> str:
        return f"<op {self.name} {self.kind.value} L={self.limbs} N={self.n}>"
