"""Plan skeletons of every small window, pinned by digest.

For each case — a graph, a hardware config, a plan kind and an NTT
split — every window ``(start, size)`` with ``size <= 7`` of the
graph's topological order is requested from a scheduler, and one
sha256 covers the ``skeleton_to_doc`` form of all of them in
``(start, size)`` order.  The digests were recorded while a plan-memo
miss still built a whole :class:`~repro.sched.dataflow.SpatialGroupPlan`
and translated it back to positions; the skeleton builder must
reproduce them byte for byte.

The windows are requested twice: in DP order (each start's sizes
ascending, the order a search asks for them, so each miss extends the
previous one) and, after ``MEMO.clear()``, in a shuffled order (so a
miss extends an arbitrary earlier state or starts afresh).  A third
run builds every window on its own, with a fresh
:class:`~repro.sched.plan_memo.SkeletonBuilder` over the window's
operators — the plan constructor's path.
"""

import hashlib
import json
import random

import pytest

from repro.baselines.accelerators import SHARP
from repro.baselines.mad import MadScheduler
from repro.fhe.params import parameter_set
from repro.hw.config import CROPHE_36, CROPHE_64
from repro.sched.plan_memo import MEMO, SkeletonBuilder, skeleton_to_doc
from repro.sched.scheduler import Scheduler
from repro.workloads import build_bootstrapping
from repro.workloads.base import WorkloadOptions
from repro.workloads.resnet import build_resnet20

from tests.sched.test_pinned_schedules import (
    TINY_BOOT,
    TINY_DEEP,
    _distinct_graphs,
)

#: Largest window size pinned (the scheduler's default group size).
SPAN = 7

TINY_SPLIT = (64, 64)

#: case id -> sha256 over the skeleton documents of every window.
PINNED = {
    "tiny-CROPHE-36":
        "9c34147ae9f2595cd994df40e76cf151ec6d9c5133d81312f5f8ae0f62351595",
    "tiny-CROPHE-36-split":
        "7f9431af7f0ff2f3bcfdbd7ba4347fcdd886e54d5ebe37815421db3fb608fe69",
    "tiny-CROPHE-64":
        "fe13bc2b089e942a0b05c2d2dc08837d6bf47e10c239ca28e02d8add09106a45",
    "tiny-SHARP+MAD":
        "e16f576161f82d8c397ddcb40bf29e35de6199cbdf7bf11a922424fb306149c6",
    "tiny-CROPHE-36+MAD":
        "0ba5002fbc65fa1f8da80cb2e3670e18812cc1a86603af8d7cd3c0c41d84c111",
    "sharp-s2c0-CROPHE-36-split":
        "b05928aafb03c76170be2df6a92eea18cb551026e6441a32fd010c5876c7ca65",
}


def _tiny_graphs(split):
    options = WorkloadOptions(ntt_split=split)
    return (
        _distinct_graphs(build_bootstrapping(TINY_BOOT, options))
        + _distinct_graphs(build_resnet20(TINY_DEEP, options))
    )


def _sharp_graphs():
    params = parameter_set("SHARP")
    root = 1 << (params.log_n // 2)
    split = (root, params.n // root)
    workload = build_bootstrapping(params, WorkloadOptions(ntt_split=split))
    graph = next(
        s.graph for s in workload.segments if s.name == "slot_to_coeff0"
    )
    return [graph], split


def _case(case_id):
    """``(graphs, hw, dataflow, n_split)`` of one pinned case."""
    if case_id == "sharp-s2c0-CROPHE-36-split":
        graphs, split = _sharp_graphs()
        return graphs, CROPHE_36, "crophe", split
    split = TINY_SPLIT if case_id.endswith("-split") else None
    hw = {
        "tiny-CROPHE-36": CROPHE_36,
        "tiny-CROPHE-36-split": CROPHE_36,
        "tiny-CROPHE-64": CROPHE_64,
        "tiny-SHARP+MAD": SHARP,
        "tiny-CROPHE-36+MAD": CROPHE_36,
    }[case_id]
    dataflow = "mad" if case_id.endswith("+MAD") else "crophe"
    return _tiny_graphs(split), hw, dataflow, split


def _digest(graphs, hw, dataflow, n_split, mode):
    """The digest of every window's skeleton, requested from a scheduler
    in ``"dp"`` or ``"shuffled"`` order, or built ``"fresh"`` per
    window."""
    h = hashlib.sha256()
    for graph in graphs:
        if dataflow == "mad":
            sched = MadScheduler(graph, hw)
        else:
            sched = Scheduler(graph, hw, n_split=n_split)
        order = sched._begin()
        n = len(order)
        windows = [
            (start, size)
            for start in range(n)
            for size in range(1, min(SPAN, n - start) + 1)
        ]
        requested = list(windows)
        if mode == "shuffled":
            random.Random(n).shuffle(requested)
        if mode == "fresh":
            table = MEMO.table(graph)
            docs = {
                (start, size): skeleton_to_doc(SkeletonBuilder(
                    graph, table, hw, sched.n_split, sched.plan_kind,
                ).group(order[start:start + size]))
                for start, size in requested
            }
        else:
            docs = {
                w: skeleton_to_doc(sched._window(*w).skeleton)
                for w in requested
            }
        for w in windows:
            h.update(json.dumps([w, docs[w]], sort_keys=True).encode())
            h.update(b"\n")
    return h.hexdigest()


@pytest.fixture(autouse=True)
def _fresh(monkeypatch):
    """Empty memo tiers and no disk root, before and after each case."""
    monkeypatch.delenv("REPRO_DSE_CACHE", raising=False)
    MEMO.clear()
    yield
    MEMO.clear()


@pytest.mark.parametrize("case_id", sorted(PINNED))
def test_skeletons_match_pin_in_dp_then_shuffled_order(case_id):
    graphs, hw, dataflow, split = _case(case_id)
    assert _digest(graphs, hw, dataflow, split, "dp") == PINNED[case_id]
    MEMO.clear()
    assert _digest(graphs, hw, dataflow, split, "shuffled") \
        == PINNED[case_id]


@pytest.mark.parametrize(
    "case_id", ["tiny-CROPHE-36-split", "tiny-SHARP+MAD"]
)
def test_fresh_builds_match_pin(case_id):
    graphs, hw, dataflow, split = _case(case_id)
    assert _digest(graphs, hw, dataflow, split, "fresh") == PINNED[case_id]


if __name__ == "__main__":
    # Print the digests of the code in the tree (how PINNED was made).
    for case_id in sorted(PINNED):
        MEMO.clear()
        print(f"    {case_id!r}:\n        {_digest(*_case(case_id), 'dp')!r},")
