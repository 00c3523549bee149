"""ResNet-20 / ResNet-110 encrypted CIFAR-10 inference [26], [38].

Following the multiplexed-parallel-convolution CKKS lowering of Lee et
al. [38], each residual layer becomes

* two convolution kernels, each lowered to BSGS plaintext matmuls over
  the packed feature map (HRot-heavy, like the bootstrap transforms);
* a degree-27 minimax ReLU polynomial (a chain of HMult + CMult);
* periodic bootstrapping (the level budget covers roughly one layer, so
  inference bootstraps about once per layer).

ResNet-110 is the same per-layer structure with 110 layers — included,
as in the paper, to show the scheduling scales to large workloads (the
segment/repeat mechanism keeps the search cost identical to ResNet-20).
"""

from __future__ import annotations

from typing import Optional

from repro.fhe.params import CKKSParams
from repro.ir.builders import GraphBuilder
from repro.workloads import bootstrapping as boot_mod
from repro.workloads.base import (
    Workload,
    WorkloadOptions,
    WorkloadSegment,
)

#: BSGS split for the per-layer convolution matmuls.
CONV_N1 = 8
CONV_N2 = 4
#: HMult steps in the degree-27 ReLU approximation (Paterson-Stockmeyer).
RELU_MULTS = 8


def _conv_segment(
    params: CKKSParams, options: WorkloadOptions, level: int
) -> WorkloadSegment:
    """One convolution kernel as a BSGS plaintext matmul."""
    b = GraphBuilder(
        params, ntt_split=options.ntt_split, lowering="primitive",
    )
    ct = b.input_ciphertext("conv.in", level)
    b.bsgs_matvec(
        ct,
        CONV_N1,
        CONV_N2,
        strategy=options.rotation_strategy,
        r_hyb=options.r_hyb,
        tag="conv",
    )
    return WorkloadSegment("conv", b.graph, repeat=1)


def _relu_segment(
    params: CKKSParams, options: WorkloadOptions, level: int
) -> WorkloadSegment:
    """Degree-27 polynomial ReLU: HMult + CMult + rescale chain."""
    b = GraphBuilder(
        params, ntt_split=options.ntt_split, lowering="primitive",
    )
    x = b.input_ciphertext("relu.x", level)
    y = b.input_ciphertext("relu.y", level)
    prod = b.hmult(x, y, tag="relu.hmult")
    scaled = b.pmult(prod, tag="relu.cmult")
    b.rescale(scaled, tag="relu.rescale")
    return WorkloadSegment("relu_step", b.graph, repeat=RELU_MULTS)


_SEGMENT_CACHE: dict = {}


def _emit_resnet(
    params: CKKSParams,
    options: Optional[WorkloadOptions],
    layers: int,
    name: str,
) -> Workload:
    options = options or WorkloadOptions()
    cache_key = (params, options, layers)
    cached = _SEGMENT_CACHE.get(cache_key)
    if cached is not None:
        return cached
    usable = max(params.max_level - params.boot_levels, RELU_MULTS + 2)
    conv_level = usable
    relu_level = max(usable - 2, 2)
    seg_key = (params, options)
    base_segs = _SEGMENT_CACHE.get(("segs",) + seg_key)
    if base_segs is None:
        base_segs = (
            _conv_segment(params, options, conv_level),
            _relu_segment(params, options, relu_level),
        )
        _SEGMENT_CACHE[("segs",) + seg_key] = base_segs
    conv = WorkloadSegment("conv", base_segs[0].graph, 2 * layers)
    relu = WorkloadSegment("relu_step", base_segs[1].graph, RELU_MULTS * layers)
    segments = [conv, relu]
    # ~one bootstrap per layer (the level budget covers one conv+ReLU).
    # Bootstrap graphs come from the shared memoized emission; fresh
    # segment wrappers carry the per-network repeat counts.
    boot = boot_mod.emit_bootstrapping(params, options)
    segments.extend(
        WorkloadSegment(s.name, s.graph, s.repeat * layers)
        for s in boot.segments
    )
    workload = Workload(
        name=name,
        params=params,
        segments=segments,
        description=(
            f"{name}: {layers} residual layers, each two multiplexed "
            "convolutions (BSGS matmuls), a degree-27 ReLU polynomial, "
            "and one bootstrap."
        ),
    )
    _SEGMENT_CACHE[cache_key] = workload
    return workload


def emit_resnet20(
    params: CKKSParams, options: Optional[WorkloadOptions] = None
) -> Workload:
    """ResNet-20 inference, emitted at the primitive level."""
    return _emit_resnet(params, options, layers=20, name="resnet20")


def emit_resnet110(
    params: CKKSParams, options: Optional[WorkloadOptions] = None
) -> Workload:
    """ResNet-110 inference, emitted at the primitive level."""
    return _emit_resnet(params, options, layers=110, name="resnet110")


def build_resnet20(
    params: CKKSParams, options: Optional[WorkloadOptions] = None
) -> Workload:
    """ResNet-20 encrypted inference workload (lowered)."""
    # Imported at call time: repro.passes imports this package.
    from repro.passes import lowering

    return lowering.lower_workload(
        "resnet20", params, options or WorkloadOptions()
    )


def build_resnet110(
    params: CKKSParams, options: Optional[WorkloadOptions] = None
) -> Workload:
    """ResNet-110 encrypted inference workload (scale test, lowered)."""
    # Imported at call time: repro.passes imports this package.
    from repro.passes import lowering

    return lowering.lower_workload(
        "resnet110", params, options or WorkloadOptions()
    )
