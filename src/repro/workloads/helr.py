"""HELR-1024: homomorphic logistic-regression training [24].

One iteration trains a 196-element weight vector on a batch of 1024
MNIST images (14 x 14 pixels packed per ciphertext):

* the inner products between the weight vector and the batch use
  rotate-and-sum reductions (log2 trees of HRot + HAdd);
* the sigmoid is a degree-7 polynomial (3 HMult levels);
* the gradient update is PMult/HAdd;
* every iteration ends bootstrapping the weight ciphertext (HELR burns
  its whole level budget each iteration, which is why the baselines'
  papers all report it bootstrap-bound).

The reported metric is the average time per iteration (the paper trains
32 iterations and averages, which is equivalent under per-iteration
repetition).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.fhe.params import CKKSParams
from repro.ir.builders import GraphBuilder
from repro.workloads import bootstrapping as boot_mod
from repro.workloads.base import (
    Workload,
    WorkloadOptions,
    WorkloadSegment,
)

#: Features per sample (14 x 14 MNIST crops).
FEATURES = 196
#: Ciphertexts holding the batch (1024 samples packed by slot count).
BATCH_CTS = 4
#: Sigmoid polynomial degree (deg-7 minimax approximation).
SIGMOID_MULTS = 3


def _gradient_segment(
    params: CKKSParams, options: WorkloadOptions, level: int
) -> WorkloadSegment:
    """Inner products + sigmoid + gradient update for one batch chunk."""
    b = GraphBuilder(
        params, ntt_split=options.ntt_split, lowering="primitive",
    )
    w = b.input_ciphertext("helr.w", level)
    x = b.input_ciphertext("helr.x", level)
    # w . x per sample: HMult then a rotate-and-sum tree over features.
    prod = b.hmult(w, x, tag="helr.wx")
    reduce_steps = int(math.ceil(math.log2(FEATURES)))
    acc = prod
    for s in range(reduce_steps):
        rotated = b.hrot(acc, 1 << s, tag=f"helr.redrot{s}")
        acc = b.hadd(acc, rotated, tag=f"helr.redadd{s}")
    # Sigmoid: HMult chain with rescales.
    sig = acc
    lvl = level
    for m in range(SIGMOID_MULTS):
        sig = b.hmult(sig, sig, tag=f"helr.sig{m}")
        sig = b.rescale(sig, tag=f"helr.sigrs{m}")
        # Rebuild the pair at the lower level for the next chain step.
        lvl -= 1
        sig = b.pmult(sig, tag=f"helr.sigc{m}")
    # Gradient accumulate onto the weights (the running weight ciphertext
    # arrives at the gradient's level after its own rescales).
    grad = b.pmult(sig, tag="helr.grad")
    w_low = b.input_ciphertext("helr.wlow", grad.level)
    b.hadd(grad, b.pmult(w_low, tag="helr.wscale"), tag="helr.update")
    return WorkloadSegment("helr_gradient", b.graph, repeat=BATCH_CTS)


def emit_helr(
    params: CKKSParams, options: Optional[WorkloadOptions] = None
) -> Workload:
    """One HELR-1024 training iteration, emitted at the primitive level."""
    options = options or WorkloadOptions()
    grad_level = max(params.max_level - params.boot_levels, SIGMOID_MULTS + 2)
    segments = [_gradient_segment(params, options, grad_level)]
    # Weight refresh: a full bootstrap per iteration.  The bootstrap
    # segments come from the shared (memoized) emission; wrap them in fresh
    # WorkloadSegment objects so repeat counts never mutate shared state.
    boot = boot_mod.emit_bootstrapping(params, options)
    segments.extend(
        WorkloadSegment(s.name, s.graph, s.repeat) for s in boot.segments
    )
    return Workload(
        name="helr",
        params=params,
        segments=segments,
        description=(
            "HELR-1024 logistic regression, per-iteration cost: "
            f"{BATCH_CTS} gradient chunks (rotate-and-sum inner products, "
            "degree-7 sigmoid) plus one bootstrap."
        ),
    )


def build_helr(
    params: CKKSParams, options: Optional[WorkloadOptions] = None
) -> Workload:
    """One HELR-1024 training iteration (gradient + bootstrap), lowered."""
    # Imported at call time: repro.passes imports this package.
    from repro.passes import lowering

    return lowering.lower_workload(
        "helr", params, options or WorkloadOptions()
    )
