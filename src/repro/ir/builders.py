"""Builders: operator graphs for CKKS primitives.

A :class:`GraphBuilder` lowers CKKS primitives (key-switching, HMult,
HRot with any of the three rotation strategies, rescale, BSGS
PtMatVecMult) into :class:`~repro.ir.graph.OperatorGraph` nodes.

Two properties matter for the scheduler downstream:

* Auxiliary constant tensors (evks, BConv matrices, twiddles, plaintext
  diagonals) are **cached and reused** across primitives: two HRots with
  the same amount and level reference the *same* evk tensor, which is
  exactly what makes cross-operator *sharing* visible in the graph.
  The cache lives in a :class:`ConstantPool` so the :mod:`repro.passes`
  lowering walk can emit into an existing graph while preserving the
  exact sharing a single monolithic build would have produced.
* With ``ntt_split`` set, every (i)NTT is emitted in four-step form —
  column phase, twiddle multiply, transpose, row phase — exposing the
  independent ``N1``/``N2`` loops of Section V-B.

The ``lowering`` mode selects how far primitives are decomposed at
emission time (the two levels of the :mod:`repro.passes` pipeline):

* ``"full"`` (default) — everything is decomposed inline: key switches
  expand to Decomp/ModUp/inner-product/ModDown chains and ``ntt_split``
  applies.  The lowering walk's emitter runs in this mode.
* ``"primitive"`` — key switches emit a single coarse ``KEY_SWITCH``
  operator, hoisting/hybrid baby-rotation batches emit one coarse
  ``ROT_BATCH`` operator, and every (i)NTT stays monolithic; the
  :mod:`repro.passes` walk lowers these later (this is what the
  workload builders emit).

Names are ``stem#index``, counting every name a builder hands out.  A
deferred decomposition (coarse key switch or rotation batch, monolithic
NTT awaiting its split) skips the indices its decomposed form takes; the
walk numbers its expansion from its first output's index
(:func:`name_index`, :meth:`GraphBuilder.name_at`), so lowered graphs
carry the names of a one-pass ``"full"`` emission.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fhe.params import CKKSParams
from repro.ir.graph import OperatorGraph
from repro.resilience.errors import ConfigError, InvariantViolation
from repro.ir.operators import Operator, OpKind
from repro.ir.tensors import (
    DataTensor,
    bconv_matrix_tensor,
    evk_tensor,
    external_tensor,
    plaintext_tensor,
    poly_tensor,
    twiddle_tensor,
)


#: Emission modes (see the module docstring).
LOWERING_MODES = ("full", "primitive")

#: Names a four-step (i)NTT takes: a tensor and an operator per phase.
_FOUR_STEP_NAMES = 6


def name_index(name: str) -> int:
    """The emission index a builder-made name ends with (``stem#index``)."""
    return int(name.rsplit("#", 1)[1])


@dataclass
class CiphertextTensors:
    """The (b, a) tensor pair of a ciphertext at some level."""

    b: DataTensor
    a: DataTensor
    level: int

    @property
    def polys(self) -> Tuple[DataTensor, DataTensor]:
        return (self.b, self.a)


def rot_batch_amounts(
    n1: int, strategy: str, r_hyb: int
) -> Tuple[int, ...]:
    """Rotation amounts whose evks a baby-step batch references, in the
    deterministic order the full lowering first touches them.

    * ``hoisting`` — one hoisted group over amounts ``1..n1-1``.
    * ``hybrid`` — the coarse Min-KS amount ``r_hyb`` first (only when
      more than one coarse group exists), then the fine amounts
      ``1..r_hyb-1`` that at least one group actually uses.

    A coarse ``ROT_BATCH`` operator takes exactly these evk tensors as
    inputs (after its two ciphertext halves), so the lowering walk can
    seed its emitter's :class:`ConstantPool` and replay the full
    expansion with identical constant sharing.
    """
    if strategy == "hoisting":
        return tuple(range(1, n1))
    if strategy == "hybrid":
        if r_hyb < 1:
            raise ConfigError("r_hyb", r_hyb, "must be an int >= 1")
        num_groups = -(n1 // -r_hyb)
        coarse = (r_hyb,) if num_groups > 1 else ()
        fine = tuple(r for r in range(1, r_hyb) if r <= n1 - 1)
        return coarse + fine
    raise ConfigError(
        "strategy", strategy, "no batched coarse form for this strategy"
    )


class ConstantPool:
    """Cached auxiliary-constant tensors shared across emitted primitives.

    One pool per built graph (or per lowering walk over a segment): two
    primitives asking for the same evk / BConv matrix / twiddle vector
    get the *same* tensor, which is what makes constant sharing visible
    to the scheduler.  The :mod:`repro.passes` walk seeds a pool with
    the constants already present in the source graph so in-place
    expansions reuse them instead of minting twins.
    """

    def __init__(self, params: CKKSParams):
        self.params = params
        self.word_bytes = params.bytes_per_word()
        self._evk: Dict[Tuple[str, int, int], DataTensor] = {}
        self._bconv: Dict[Tuple[int, int, str], DataTensor] = {}
        self._twiddle: Dict[int, DataTensor] = {}

    def evk(self, kind: str, level: int, amount: int = 0) -> DataTensor:
        """Evaluation key tensor, cached per (kind, amount, level).

        The ``a`` half of each evk pair is generated on-chip from a PRNG
        seed (the standard optimization of [2], [51], which the paper
        applies to all designs), so only one of the two polynomials per
        digit moves through the memory system.
        """
        key = (kind, amount, level)
        t = self._evk.get(key)
        if t is None:
            beta = self.params.digits_at_level(level)
            limbs = self.params.evk_limbs(level)
            t = evk_tensor(
                f"evk.{kind}.{amount}.L{level}",
                beta,
                limbs,
                self.params.n,
                self.word_bytes,
                prng_halved=True,
            )
            self._evk[key] = t
        return t

    def bconv_matrix(self, src: int, dst: int, tag: str) -> DataTensor:
        """BConv constant matrix tensor, cached per shape and use."""
        key = (src, dst, tag)
        t = self._bconv.get(key)
        if t is None:
            t = bconv_matrix_tensor(
                f"bconvM.{tag}.{src}x{dst}", dst, src, self.word_bytes
            )
            self._bconv[key] = t
        return t

    def twiddles(self, length: int) -> DataTensor:
        """Twiddle-factor tensor for one NTT size, cached."""
        t = self._twiddle.get(length)
        if t is None:
            t = twiddle_tensor(f"twiddle.{length}", length, self.word_bytes)
            self._twiddle[length] = t
        return t

    def seed_evk(
        self, kind: str, level: int, amount: int, tensor: DataTensor
    ) -> None:
        """Pre-register an existing evk tensor under its cache key."""
        self._evk[(kind, amount, level)] = tensor

    def seed_twiddles(self, tensor: DataTensor) -> None:
        """Pre-register an existing twiddle tensor (keyed by length)."""
        self._twiddle[tensor.shape[0]] = tensor


class GraphBuilder:
    """Lowers CKKS primitives into operator graphs.

    Args:
        params: CKKS parameter set (spec or concrete — only shapes used).
        ntt_split: optional ``(n1, n2)`` four-step split applied to every
            (i)NTT; ``None`` emits monolithic NTT operators.  Applied at
            emission time only in ``"full"`` mode; ``"primitive"`` mode
            emits monolithic NTTs for the lowering walk to split.
        lowering: emission mode, one of :data:`LOWERING_MODES` (see the
            module docstring).
        graph: existing graph to emit into (the lowering walk expands
            coarse operators into a graph under construction); a fresh
            graph by default.
        pool: shared :class:`ConstantPool`; a fresh pool by default.
    """

    def __init__(
        self,
        params: CKKSParams,
        ntt_split: Optional[Tuple[int, int]] = None,
        lowering: str = "full",
        graph: Optional[OperatorGraph] = None,
        pool: Optional[ConstantPool] = None,
    ):
        if ntt_split is not None:
            n1, n2 = ntt_split
            if n1 * n2 != params.n:
                raise ValueError(
                    f"ntt_split {ntt_split} does not multiply to N={params.n}"
                )
        if lowering not in LOWERING_MODES:
            raise ConfigError(
                "lowering", lowering, f"choose from {LOWERING_MODES}"
            )
        self.params = params
        self.ntt_split = ntt_split
        self.lowering = lowering
        self.word_bytes = params.bytes_per_word()
        self.graph = OperatorGraph() if graph is None else graph
        self.pool = ConstantPool(params) if pool is None else pool
        self._next = 0

    # ------------------------------------------------------------------
    # Naming and tensor helpers
    # ------------------------------------------------------------------

    def _name(self, stem: str) -> str:
        index = self._next
        self._next += 1
        return f"{stem}#{index}"

    def name_at(self, index: int) -> None:
        """Number the next emitted names from ``index`` (module docstring)."""
        self._next = index

    def poly(self, stem: str, limbs: int) -> DataTensor:
        """Fresh intermediate polynomial tensor."""
        return poly_tensor(self._name(stem), limbs, self.params.n, self.word_bytes)

    def input_ciphertext(self, stem: str, level: int) -> CiphertextTensors:
        """Fresh external ciphertext tensors (graph inputs)."""
        limbs = level + 1
        b = external_tensor(
            self._name(f"{stem}.b"), limbs, self.params.n, self.word_bytes
        )
        a = external_tensor(
            self._name(f"{stem}.a"), limbs, self.params.n, self.word_bytes
        )
        return CiphertextTensors(b, a, level)

    def evk(self, kind: str, level: int, amount: int = 0) -> DataTensor:
        """Evaluation key tensor from the pool (see :class:`ConstantPool`)."""
        return self.pool.evk(kind, level, amount)

    def bconv_matrix(self, src: int, dst: int, tag: str) -> DataTensor:
        """BConv constant matrix tensor from the pool, per shape and use."""
        return self.pool.bconv_matrix(src, dst, tag)

    def twiddles(self, length: int) -> DataTensor:
        """Twiddle-factor tensor from the pool for one NTT size."""
        return self.pool.twiddles(length)

    def _add(self, op: Operator) -> Operator:
        return self.graph.add_operator(op)

    # ------------------------------------------------------------------
    # NTT / iNTT (monolithic or four-step)
    # ------------------------------------------------------------------

    def ntt(
        self, src: DataTensor, limbs: int, inverse: bool, tag: str
    ) -> DataTensor:
        """Emit an (i)NTT over ``limbs`` limb rows of ``src``.

        In ``"primitive"`` mode the NTT is always monolithic — the
        four-step split (when requested) is applied later by the
        lowering walk, which replays this method in ``"full"`` mode.
        """
        if self.ntt_split is None or self.lowering == "primitive":
            base = self._next
            out = self.poly(f"{tag}.{'intt' if inverse else 'ntt'}", limbs)
            self._add(
                Operator(
                    name=self._name(tag),
                    kind=OpKind.INTT if inverse else OpKind.NTT,
                    limbs=limbs,
                    n=self.params.n,
                    inputs=[src, self.twiddles(self.params.n)],
                    outputs=[out],
                    tag=tag,
                )
            )
            if self.ntt_split is not None:
                self._next = base + _FOUR_STEP_NAMES
            return out
        return self._four_step(src, limbs, inverse, tag)

    def _four_step(
        self, src: DataTensor, limbs: int, inverse: bool, tag: str
    ) -> DataTensor:
        """Four-step (i)NTT: col phase -> twiddle -> transpose -> row phase.

        For the inverse direction the phase order mirrors so the middle
        pipeline of Figure 7 (row-iNTT -> BConv -> row-NTT) has the row
        phases adjacent to BConv, matched on the ``N2`` loop.
        """
        n1, n2 = self.ntt_split
        n = self.params.n
        if inverse:
            phases = [
                (OpKind.INTT_COL, "icol"),
                (OpKind.TRANSPOSE, "itrans"),
                (OpKind.INTT_ROW, "irow"),
            ]
        else:
            phases = [
                (OpKind.NTT_ROW, "row"),
                (OpKind.TRANSPOSE, "trans"),
                (OpKind.NTT_COL, "col"),
            ]
        # The four-step method's element-wise twiddle multiplication is
        # fused into the sub-NTT phases (its N extra products per limb are
        # folded into the phases' twiddle streams), matching how the
        # hardware pipelines it; no standalone EW operator is emitted.
        current = src
        for kind, suffix in phases:
            out = self.poly(f"{tag}.{suffix}", limbs)
            split = (n1, n2) if kind is not OpKind.TRANSPOSE else None
            inputs = [current]
            if kind is not OpKind.TRANSPOSE:
                inputs.append(self.twiddles(n2 if "col" in suffix else n1))
                inputs.append(self.twiddles(n))
            self._add(
                Operator(
                    name=self._name(f"{tag}.{suffix}"),
                    kind=kind,
                    limbs=limbs,
                    n=n,
                    n_split=split,
                    inputs=inputs,
                    outputs=[out],
                    tag=tag,
                )
            )
            current = out
        return current

    # ------------------------------------------------------------------
    # Element-wise helpers
    # ------------------------------------------------------------------

    def ew(
        self,
        kind: OpKind,
        srcs: Sequence[DataTensor],
        limbs: int,
        tag: str,
    ) -> DataTensor:
        """Emit one element-wise operator over ``limbs`` rows."""
        out = self.poly(f"{tag}.out", limbs)
        self._add(
            Operator(
                name=self._name(tag),
                kind=kind,
                limbs=limbs,
                n=self.params.n,
                inputs=list(srcs),
                outputs=[out],
                tag=tag,
            )
        )
        return out

    def automorphism(
        self, src: DataTensor, limbs: int, tag: str
    ) -> DataTensor:
        """Emit a Galois permutation operator."""
        out = self.poly(f"{tag}.auto", limbs)
        self._add(
            Operator(
                name=self._name(tag),
                kind=OpKind.AUTOMORPHISM,
                limbs=limbs,
                n=self.params.n,
                inputs=[src],
                outputs=[out],
                tag=tag,
            )
        )
        return out

    # ------------------------------------------------------------------
    # Key-switching (Figure 1)
    # ------------------------------------------------------------------

    def mod_up(
        self, digit_src: DataTensor, level: int, digit_index: int, tag: str
    ) -> DataTensor:
        """ModUp one digit: iNTT -> BConv -> NTT, then the extended poly.

        The emitted BConv produces the *missing* limbs (``alpha' - alpha``)
        and the extended polynomial tensor concatenates them with the
        digit's own rows; the concatenation is free data routing.
        """
        alpha = min(self.params.alpha, level + 1 - digit_index * self.params.alpha)
        alpha_ext = self.params.evk_limbs(level)
        coeff = self.ntt(digit_src, alpha, inverse=True, tag=f"{tag}.intt")
        missing = alpha_ext - alpha
        bconv_out = self.poly(f"{tag}.bconv", missing)
        self._add(
            Operator(
                name=self._name(f"{tag}.bconv"),
                kind=OpKind.BCONV,
                limbs=alpha,
                out_limbs=missing,
                n=self.params.n,
                inputs=[coeff, self.bconv_matrix(alpha, missing, "modup")],
                outputs=[bconv_out],
                tag=tag,
            )
        )
        ntt_out = self.ntt(bconv_out, missing, inverse=False, tag=f"{tag}.ntt")
        # Extended polynomial: digit rows ++ converted rows (routing only).
        ext = self.ew(
            OpKind.EW_ADD,
            [digit_src, ntt_out],
            alpha_ext,
            f"{tag}.extend",
        )
        return ext

    def ksk_inner_product(
        self,
        digits_ext: Sequence[DataTensor],
        evk: DataTensor,
        level: int,
        tag: str,
    ) -> Tuple[DataTensor, DataTensor]:
        """Inner product with the evk along the digit dimension."""
        alpha_ext = self.params.evk_limbs(level)
        beta = len(digits_ext)
        acc_b = self.poly(f"{tag}.accb", alpha_ext)
        acc_a = self.poly(f"{tag}.acca", alpha_ext)
        self._add(
            Operator(
                name=self._name(f"{tag}.inp"),
                kind=OpKind.KSK_INP,
                limbs=alpha_ext,
                digits=beta,
                n=self.params.n,
                inputs=list(digits_ext) + [evk],
                outputs=[acc_b, acc_a],
                tag=tag,
            )
        )
        return acc_b, acc_a

    def mod_down(
        self, src: DataTensor, level: int, tag: str
    ) -> DataTensor:
        """ModDown: iNTT(P part) -> BConv -> NTT -> subtract & scale."""
        k = self.params.num_special_limbs
        limbs = level + 1
        coeff = self.ntt(src, k, inverse=True, tag=f"{tag}.intt")
        bconv_out = self.poly(f"{tag}.bconv", limbs)
        self._add(
            Operator(
                name=self._name(f"{tag}.bconv"),
                kind=OpKind.BCONV,
                limbs=k,
                out_limbs=limbs,
                n=self.params.n,
                inputs=[coeff, self.bconv_matrix(k, limbs, "moddown")],
                outputs=[bconv_out],
                tag=tag,
            )
        )
        ntt_out = self.ntt(bconv_out, limbs, inverse=False, tag=f"{tag}.ntt")
        return self.ew(
            OpKind.EW_MULADD, [src, ntt_out], limbs, f"{tag}.correct"
        )

    def key_switch(
        self,
        d: DataTensor,
        level: int,
        evk: DataTensor,
        tag: str,
    ) -> Tuple[DataTensor, DataTensor]:
        """Key switch of one polynomial: returns ``(ks_b, ks_a)``.

        In ``"full"`` mode this emits the Decomp/ModUp/inner-product/
        ModDown chain.  In ``"primitive"`` mode it emits a single coarse
        ``KEY_SWITCH`` operator carrying the digit count, which the
        lowering walk expands in place by replaying this method in
        ``"full"`` mode.
        """
        beta = self.params.digits_at_level(level)
        if self.lowering == "primitive":
            limbs = level + 1
            base = self._next
            ks_b = self.poly(f"{tag}.ksb", limbs)
            ks_a = self.poly(f"{tag}.ksa", limbs)
            self._add(
                Operator(
                    name=self._name(f"{tag}.coarse"),
                    kind=OpKind.KEY_SWITCH,
                    limbs=limbs,
                    digits=beta,
                    n=self.params.n,
                    inputs=[d, evk],
                    outputs=[ks_b, ks_a],
                    tag=tag,
                )
            )
            self._next = base + _full_names(self.params, self.ntt_split, level)
            return ks_b, ks_a
        digits_ext = []
        for j in range(beta):
            alpha_j = min(
                self.params.alpha, level + 1 - j * self.params.alpha
            )
            digit_src = self.poly(f"{tag}.digit{j}", alpha_j)
            # Digit extraction is routing: model as a zero-mul EW op so the
            # dependency is explicit.
            self._add(
                Operator(
                    name=self._name(f"{tag}.decomp{j}"),
                    kind=OpKind.EW_ADD,
                    limbs=alpha_j,
                    n=self.params.n,
                    inputs=[d],
                    outputs=[digit_src],
                    tag=f"{tag}.decomp",
                )
            )
            digits_ext.append(
                self.mod_up(digit_src, level, j, f"{tag}.modup{j}")
            )
        acc_b, acc_a = self.ksk_inner_product(
            digits_ext, evk, level, f"{tag}.kskinp"
        )
        ks_b = self.mod_down(acc_b, level, f"{tag}.moddown_b")
        ks_a = self.mod_down(acc_a, level, f"{tag}.moddown_a")
        return ks_b, ks_a

    # ------------------------------------------------------------------
    # Homomorphic primitives
    # ------------------------------------------------------------------

    def hadd(
        self, ct0: CiphertextTensors, ct1: CiphertextTensors, tag: str = "hadd"
    ) -> CiphertextTensors:
        """HAdd: element-wise addition of two ciphertexts."""
        if ct0.level != ct1.level:
            raise ValueError("HAdd level mismatch")
        limbs = ct0.level + 1
        b = self.ew(OpKind.EW_ADD, [ct0.b, ct1.b], limbs, f"{tag}.b")
        a = self.ew(OpKind.EW_ADD, [ct0.a, ct1.a], limbs, f"{tag}.a")
        return CiphertextTensors(b, a, ct0.level)

    def pmult(
        self,
        ct: CiphertextTensors,
        plaintext: Optional[DataTensor] = None,
        tag: str = "pmult",
    ) -> CiphertextTensors:
        """PMult: multiply a ciphertext by an encoded plaintext."""
        limbs = ct.level + 1
        if plaintext is None:
            # On-the-fly limb extension (OF-Limb, ARK [34], applied to all
            # designs per Section VI): plaintexts are stored/moved as a
            # single base limb and extended to the full basis on-chip, so
            # the tensor models one limb of traffic.
            plaintext = plaintext_tensor(
                self._name(f"{tag}.pt"), 1, self.params.n, self.word_bytes
            )
        b = self.ew(OpKind.EW_MUL, [ct.b, plaintext], limbs, f"{tag}.b")
        a = self.ew(OpKind.EW_MUL, [ct.a, plaintext], limbs, f"{tag}.a")
        return CiphertextTensors(b, a, ct.level)

    def hmult(
        self,
        ct0: CiphertextTensors,
        ct1: CiphertextTensors,
        tag: str = "hmult",
    ) -> CiphertextTensors:
        """Tensor product + relinearization (no rescale)."""
        if ct0.level != ct1.level:
            raise ValueError("HMult level mismatch")
        level = ct0.level
        limbs = level + 1
        d0 = self.ew(OpKind.EW_MUL, [ct0.b, ct1.b], limbs, f"{tag}.d0")
        t0 = self.ew(OpKind.EW_MUL, [ct0.a, ct1.b], limbs, f"{tag}.a0b1")
        t1 = self.ew(OpKind.EW_MUL, [ct0.b, ct1.a], limbs, f"{tag}.b0a1")
        d1 = self.ew(OpKind.EW_ADD, [t0, t1], limbs, f"{tag}.d1")
        d2 = self.ew(OpKind.EW_MUL, [ct0.a, ct1.a], limbs, f"{tag}.d2")
        evk = self.evk("relin", level)
        ks_b, ks_a = self.key_switch(d2, level, evk, f"{tag}.ks")
        b = self.ew(OpKind.EW_ADD, [d0, ks_b], limbs, f"{tag}.b")
        a = self.ew(OpKind.EW_ADD, [d1, ks_a], limbs, f"{tag}.a")
        return CiphertextTensors(b, a, level)

    def rescale(
        self, ct: CiphertextTensors, tag: str = "rescale"
    ) -> CiphertextTensors:
        """HRescale: drop the last prime (iNTT/BConv/NTT + correction)."""
        if ct.level == 0:
            raise ValueError("cannot rescale at level 0")
        level = ct.level
        out_limbs = level  # one fewer limb
        outs = []
        for poly_t, side in ((ct.b, "b"), (ct.a, "a")):
            last_coeff = self.ntt(poly_t, 1, inverse=True, tag=f"{tag}.{side}.intt")
            spread = self.poly(f"{tag}.{side}.spread", out_limbs)
            self._add(
                Operator(
                    name=self._name(f"{tag}.{side}.bconv"),
                    kind=OpKind.BCONV,
                    limbs=1,
                    out_limbs=out_limbs,
                    n=self.params.n,
                    inputs=[last_coeff, self.bconv_matrix(1, out_limbs, "rescale")],
                    outputs=[spread],
                    tag=tag,
                )
            )
            spread_ntt = self.ntt(
                spread, out_limbs, inverse=False, tag=f"{tag}.{side}.ntt"
            )
            outs.append(
                self.ew(
                    OpKind.EW_MULADD,
                    [poly_t, spread_ntt],
                    out_limbs,
                    f"{tag}.{side}.correct",
                )
            )
        return CiphertextTensors(outs[0], outs[1], level - 1)

    def hrot(
        self,
        ct: CiphertextTensors,
        amount: int,
        tag: str = "hrot",
    ) -> CiphertextTensors:
        """A single HRot: automorphism + key switch (Section II-A)."""
        level = ct.level
        limbs = level + 1
        b_rot = self.automorphism(ct.b, limbs, f"{tag}.autob")
        a_rot = self.automorphism(ct.a, limbs, f"{tag}.autoa")
        evk = self.evk("rot", level, amount)
        ks_b, ks_a = self.key_switch(a_rot, level, evk, f"{tag}.ks")
        b = self.ew(OpKind.EW_ADD, [b_rot, ks_b], limbs, f"{tag}.b")
        return CiphertextTensors(b, ks_a, level)

    # ------------------------------------------------------------------
    # Baby-step rotation batches (Figure 8)
    # ------------------------------------------------------------------

    def baby_rotations(
        self,
        ct: CiphertextTensors,
        n1: int,
        strategy: str,
        r_hyb: int = 4,
        tag: str = "baby",
    ) -> List[CiphertextTensors]:
        """All baby-step rotations 0..n1-1 with the chosen strategy.

        In ``"primitive"`` lowering mode the hoisting and hybrid
        strategies emit one coarse ``ROT_BATCH`` operator instead of
        their full expansions (plain and Min-KS lower through
        :meth:`hrot`, whose key switch is already coarse in that mode).
        """
        if (
            self.lowering == "primitive"
            and strategy in ("hoisting", "hybrid")
            and n1 > 1
        ):
            return self._rot_batch(ct, n1, strategy, r_hyb, tag)
        if strategy == "plain":
            # No rotation optimization: one independent full HRot per
            # amount (distinct evk and complete key-switch each).
            return [ct] + [
                self.hrot(ct, i, f"{tag}.plain{i}") for i in range(1, n1)
            ]
        if strategy == "min-ks":
            return self._baby_min_ks(ct, n1, tag)
        if strategy == "hoisting":
            return self._baby_hoisting(ct, n1, tag)
        if strategy == "hybrid":
            return self._baby_hybrid(ct, n1, r_hyb, tag)
        raise ValueError(f"unknown rotation strategy {strategy!r}")

    def _rot_batch(
        self,
        ct: CiphertextTensors,
        n1: int,
        strategy: str,
        r_hyb: int,
        tag: str,
    ) -> List[CiphertextTensors]:
        """Coarse baby-rotation batch: one ``ROT_BATCH`` operator.

        Inputs are the ciphertext halves followed by the evks for
        :func:`rot_batch_amounts` (pulled through the pool, so they are
        shared with any other primitive rotating by the same amount at
        the same level — e.g. a BSGS giant step).  Outputs are the
        ``(b, a)`` pairs of rotations ``1..n1-1``; rotation 0 is the
        input ciphertext itself.  The strategy parameters ride along as
        structural ``attrs`` so the lowering walk can replay the exact
        full expansion.
        """
        level = ct.level
        limbs = level + 1
        amounts = rot_batch_amounts(n1, strategy, r_hyb)
        evks = [self.evk("rot", level, r) for r in amounts]
        base = self._next
        outs: List[DataTensor] = []
        for i in range(1, n1):
            outs.append(self.poly(f"{tag}.rot{i}.b", limbs))
            outs.append(self.poly(f"{tag}.rot{i}.a", limbs))
        self._add(
            Operator(
                name=self._name(f"{tag}.batch"),
                kind=OpKind.ROT_BATCH,
                limbs=limbs,
                digits=n1,
                n=self.params.n,
                inputs=[ct.b, ct.a] + evks,
                outputs=outs,
                tag=tag,
                attrs=(
                    ("amounts", amounts),
                    ("n1", n1),
                    ("r_hyb", r_hyb),
                    ("strategy", strategy),
                ),
            )
        )
        self._next = base + _full_names(
            self.params, self.ntt_split, level, (n1, strategy, r_hyb)
        )
        return [ct] + [
            CiphertextTensors(outs[2 * i], outs[2 * i + 1], level)
            for i in range(n1 - 1)
        ]

    def _baby_min_ks(
        self, ct: CiphertextTensors, n1: int, tag: str
    ) -> List[CiphertextTensors]:
        out = [ct]
        current = ct
        for i in range(1, n1):
            # All steps rotate by the same unit amount -> one shared evk.
            current = self.hrot(current, 1, f"{tag}.minks{i}")
            out.append(current)
        return out

    def _hoisted_group(
        self,
        base: CiphertextTensors,
        amounts: Sequence[int],
        tag: str,
    ) -> List[CiphertextTensors]:
        """Hoisting: one Decomp+ModUp, per-amount auto/inp/ModDown."""
        level = base.level
        limbs = level + 1
        beta = self.params.digits_at_level(level)
        digits_ext = []
        for j in range(beta):
            alpha_j = min(self.params.alpha, level + 1 - j * self.params.alpha)
            digit_src = self.poly(f"{tag}.digit{j}", alpha_j)
            self._add(
                Operator(
                    name=self._name(f"{tag}.decomp{j}"),
                    kind=OpKind.EW_ADD,
                    limbs=alpha_j,
                    n=self.params.n,
                    inputs=[base.a],
                    outputs=[digit_src],
                    tag=f"{tag}.decomp",
                )
            )
            digits_ext.append(self.mod_up(digit_src, level, j, f"{tag}.modup{j}"))
        out = []
        alpha_ext = self.params.evk_limbs(level)
        for r in amounts:
            rtag = f"{tag}.r{r}"
            rot_digits = [
                self.automorphism(d, alpha_ext, f"{rtag}.autod")
                for d in digits_ext
            ]
            b_rot = self.automorphism(base.b, limbs, f"{rtag}.autob")
            evk = self.evk("rot", level, r)
            acc_b, acc_a = self.ksk_inner_product(
                rot_digits, evk, level, f"{rtag}.inp"
            )
            ks_b = self.mod_down(acc_b, level, f"{rtag}.mdb")
            ks_a = self.mod_down(acc_a, level, f"{rtag}.mda")
            b = self.ew(OpKind.EW_ADD, [b_rot, ks_b], limbs, f"{rtag}.b")
            out.append(CiphertextTensors(b, ks_a, level))
        return out

    def _baby_hoisting(
        self, ct: CiphertextTensors, n1: int, tag: str
    ) -> List[CiphertextTensors]:
        if n1 <= 1:
            return [ct]
        rots = self._hoisted_group(ct, list(range(1, n1)), tag)
        return [ct] + rots

    def _baby_hybrid(
        self, ct: CiphertextTensors, n1: int, r_hyb: int, tag: str
    ) -> List[CiphertextTensors]:
        """Hybrid baby steps, emitted *amount-major*.

        The fine steps of every coarse group that use the same rotation
        amount are emitted adjacently so the scheduler can co-run them in
        one spatial group and fetch their shared evk once — the new
        cross-operator sharing opportunity Section V-C highlights.
        """
        if r_hyb < 1:
            raise ValueError("r_hyb must be >= 1")
        num_groups = -(n1 // -r_hyb)
        coarse = [ct]
        current = ct
        for g in range(1, num_groups):
            # Coarse Min-KS chain: shared amount-r_hyb evk.
            current = self.hrot(current, r_hyb, f"{tag}.coarse{g}")
            coarse.append(current)
        out: List[Optional[CiphertextTensors]] = [None] * n1
        # Hoist Decomp+ModUp once per coarse base that has fine steps.
        digits_by_group: List[List[DataTensor]] = []
        level = ct.level
        for g, base in enumerate(coarse):
            out[g * r_hyb] = base
            fine_max = min(r_hyb - 1, n1 - 1 - g * r_hyb)
            if fine_max < 1:
                digits_by_group.append([])
                continue
            beta = self.params.digits_at_level(level)
            digits_ext: List[DataTensor] = []
            for j in range(beta):
                alpha_j = min(
                    self.params.alpha, level + 1 - j * self.params.alpha
                )
                digit_src = self.poly(f"{tag}.g{g}.digit{j}", alpha_j)
                self._add(
                    Operator(
                        name=self._name(f"{tag}.g{g}.decomp{j}"),
                        kind=OpKind.EW_ADD,
                        limbs=alpha_j,
                        n=self.params.n,
                        inputs=[base.a],
                        outputs=[digit_src],
                        tag=f"{tag}.decomp",
                    )
                )
                digits_ext.append(
                    self.mod_up(digit_src, level, j, f"{tag}.g{g}.modup{j}")
                )
            digits_by_group.append(digits_ext)
        # Amount-major fine steps: all groups' rotation-r HRots together,
        # sharing the single amount-r evk.  Per amount, every group's
        # automorphisms are emitted before any inner product so the
        # same-evk inner products become ready together and land in one
        # spatial group (fetching the evk once).
        limbs = level + 1
        alpha_ext = self.params.evk_limbs(level)
        for r in range(1, r_hyb):
            evk = self.evk("rot", level, r)
            active = [
                (g, base) for g, base in enumerate(coarse)
                if g * r_hyb + r <= n1 - 1
            ]
            rot_digits_by_g = {}
            b_rot_by_g = {}
            for g, base in active:
                rtag = f"{tag}.g{g}.r{r}"
                rot_digits_by_g[g] = [
                    self.automorphism(d, alpha_ext, f"{rtag}.autod")
                    for d in digits_by_group[g]
                ]
                b_rot_by_g[g] = self.automorphism(base.b, limbs, f"{rtag}.autob")
            accs = {}
            for g, base in active:
                rtag = f"{tag}.g{g}.r{r}"
                accs[g] = self.ksk_inner_product(
                    rot_digits_by_g[g], evk, level, f"{rtag}.inp"
                )
            for g, base in active:
                rtag = f"{tag}.g{g}.r{r}"
                acc_b, acc_a = accs[g]
                ks_b = self.mod_down(acc_b, level, f"{rtag}.mdb")
                ks_a = self.mod_down(acc_a, level, f"{rtag}.mda")
                b = self.ew(
                    OpKind.EW_ADD, [b_rot_by_g[g], ks_b], limbs, f"{rtag}.b"
                )
                out[g * r_hyb + r] = CiphertextTensors(b, ks_a, level)
        if any(o is None for o in out):
            missing = [i for i, o in enumerate(out) if o is None]
            raise InvariantViolation(
                "repro.ir.builders.GraphBuilder._baby_hybrid",
                f"rotation outputs {missing} were never assigned",
            )
        return out  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # BSGS PtMatVecMult (Algorithm 1)
    # ------------------------------------------------------------------

    def bsgs_matvec(
        self,
        ct: CiphertextTensors,
        n1: int,
        n2: int,
        strategy: str = "hoisting",
        r_hyb: int = 4,
        tag: str = "bsgs",
    ) -> CiphertextTensors:
        """One BSGS plaintext matrix-vector multiplication."""
        baby = self.baby_rotations(ct, n1, strategy, r_hyb, f"{tag}.baby")
        level = ct.level
        limbs = level + 1
        # Phase 1: every giant step's inner baby loop is one
        # multiply-accumulate per ciphertext half — the partial sum lives
        # as an in-PE accumulator while the baby ciphertexts and
        # plaintext diagonals stream through (the co-running reduction
        # groups of Figure 6).  All MACs are emitted together so each
        # baby ciphertext streams to its n2 consumers inside one spatial
        # group instead of surviving across the giant-step key-switches.
        partials: List[CiphertextTensors] = []
        mac_outputs: Dict[Tuple[int, str], DataTensor] = {}
        for attr in ("b", "a"):
            for j in range(n2):
                inputs = [getattr(baby[i], attr) for i in range(n1)]
                inputs += [
                    plaintext_tensor(
                        self._name(f"{tag}.diag{j}_{i}.pt"), 1,
                        self.params.n, self.word_bytes,
                    )
                    for i in range(n1)
                ]
                out = self.poly(f"{tag}.mac{j}.{attr}", limbs)
                self._add(
                    Operator(
                        name=self._name(f"{tag}.mac{j}.{attr}"),
                        kind=OpKind.EW_MULADD,
                        limbs=limbs,
                        digits=n1,
                        n=self.params.n,
                        inputs=inputs,
                        outputs=[out],
                        tag=f"{tag}.mac",
                    )
                )
                mac_outputs[(j, attr)] = out
        for j in range(n2):
            partials.append(
                CiphertextTensors(
                    mac_outputs[(j, "b")], mac_outputs[(j, "a")], level
                )
            )
        # Phase 2: giant-step rotations and the final accumulation.
        result: Optional[CiphertextTensors] = None
        for j, partial in enumerate(partials):
            if j:
                partial = self.hrot(partial, n1 * j, f"{tag}.giant{j}")
            result = (
                partial if result is None
                else self.hadd(result, partial, f"{tag}.sum{j}")
            )
        if result is None:
            raise InvariantViolation(
                "repro.ir.builders.GraphBuilder.bsgs_matvec",
                "giant-step accumulation produced no partial sums",
            )
        return self.rescale(result, f"{tag}.rescale")


@functools.lru_cache(maxsize=None)
def _full_names(
    params: CKKSParams,
    split: Optional[Tuple[int, int]],
    level: int,
    batch: Optional[Tuple[int, str, int]] = None,
) -> int:
    """Names a key switch at ``level`` (or the ``(n1, strategy, r_hyb)``
    baby-rotation ``batch``) takes fully decomposed, counted on a
    throwaway builder after its two input names."""
    scratch = GraphBuilder(params, ntt_split=split)
    ct = scratch.input_ciphertext("ct", level)
    if batch is None:
        scratch.key_switch(ct.a, level, scratch.evk("ks", level), "ks")
    else:
        scratch.baby_rotations(ct, *batch, tag="baby")
    return scratch._next - 2
