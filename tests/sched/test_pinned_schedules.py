"""Serialized schedules pinned byte for byte.

Each case searches one graph and hashes
``json.dumps(schedule_to_doc(schedule), sort_keys=True)``.  The hashes
were recorded while the scheduler still carried three agreeing
transition implementations (scalar over live plans, residency over
window views, numpy block pricing) and a threaded frontier; the single
transition path must reproduce them.  Each case runs twice: with the
plan memo's disk tier off (every window a search has not seen yet is
built by its skeleton builder) and on (a first search fills the tier,
the memory tiers are cleared, and the pinned search reads every
skeleton back from disk).  The cases cover CROPHE searches on two
hardware configs, the MAD baseline (whose windows go through the plan
memo under their own plan kind), and a budget-degraded greedy
schedule.  They were recorded on one-shot fully decomposed workload
builds and now run on the pipeline-lowered graphs the builders return.

Replaying each cover must rebuild the same document: that is how the
DSE cache rehydrates schedules across processes.

A degraded schedule's reason quotes the wall clock the search spent
before its budget tripped; that figure is masked before hashing.
"""

import hashlib
import json
import re

import pytest

from repro.baselines.accelerators import SHARP
from repro.baselines.mad import MadScheduler
from repro.fhe.params import CKKSParams
from repro.hw.config import CROPHE_36, CROPHE_64
from repro.sched.plan_memo import MEMO
from repro.sched.scheduler import Scheduler, SchedulerConfig
from repro.sched.serialize import schedule_from_doc, schedule_to_doc
from repro.workloads import build_bootstrapping
from repro.workloads.resnet import build_resnet20

TINY_DEEP = CKKSParams(
    log_n=12, max_level=13, boot_levels=3, dnum=2, alpha=7, word_bits=36,
    name="tiny-deep",
)
TINY_BOOT = CKKSParams(
    log_n=12, max_level=7, boot_levels=5, dnum=2, alpha=4, word_bits=36,
    name="tiny",
)

#: case id -> sha256 of the sorted-keys schedule document.
PINNED = {
    "boot0-CROPHE-36":
        "2d13550143b21e66faac564c678fd3397de57cfb85f08dc0f19783211fdd74d5",
    "boot0-CROPHE-64":
        "8f929db6d97b2ceb14278b314e2196c7a3984a8f9aad39dd5c2c270c5b955b17",
    "boot0-CROPHE-64-nodes3":
        "84c9de791dfe6ff4b46fd3004b448e96d238cd338e87323f010c724bc4d0e2ed",
    "boot0-SHARP+MAD":
        "7ae2c501d8e0c35478867a9a19f7bd24a42616751b535b52c3368c3373cb8ded",
    "boot1-CROPHE-36":
        "9f977b7082a396abfc08c3dd79bf3120c7cda40daaab95ac8118e5a1d7030721",
    "boot1-CROPHE-64":
        "00705454a828810d77615bbdac6ea5e742663fa7c75920dff19b1cce13445810",
    "boot1-SHARP+MAD":
        "9b18a28d93660fae4af4c33e97fd2bedb7e5930da58c5bf1727130d97184a318",
    "boot2-CROPHE-36":
        "0a72e1df59c6a3c92e30767f416104048d74234ce91ba6394c13aecac17ad62b",
    "boot2-CROPHE-64":
        "eabd9b4350084b21493d7c0f326d685d23f55559f11a498bea52984afe0927b7",
    "boot2-SHARP+MAD":
        "73a08c2b762478028ea7b58b8dadefc13dd511ed64e81c01760d0bc9e8a28308",
    "resnet0-CROPHE-36":
        "0e8b6091e9ec08d0b921203c2d1f1c4fca1a60b39235c53922fad86416b439ae",
    "resnet0-CROPHE-64":
        "f204e089dc1803e12d15d12eda0152428acac812bc5e4500130f2f0d2aa374d7",
    "resnet0-SHARP+MAD":
        "d97362a6e95badc4225f2ad3df9f7da4b4f0d91913bfa41a9198ad617b65ddc9",
    "resnet1-CROPHE-36":
        "eb89640949bf2618921f962bd7bb1eaaa74241b8be4d3cb3f9a70cf5087a85f9",
    "resnet1-CROPHE-64":
        "41abf0624c42324c699fc14c2c65ca1d1ed78550ac4bab2e2f23add0045d8546",
    "resnet1-SHARP+MAD":
        "faa364e3841f78abd8adf1dd8ad0299374fd56add0f50754aeb23b0668128a55",
    "resnet2-CROPHE-36":
        "613f68ac4d71233d4d92a1bab8bb2d729107630e0f742e878ab99f09f120bf87",
    "resnet2-CROPHE-64":
        "69d24c4707124040bd92dbe1d5ea7319b241f8f22550b02843c62d2d88fa1882",
    "resnet2-SHARP+MAD":
        "d9264a0b6fdac5fbaea9512f53d58ec44de383adbfc90019edea2d48a86b9b46",
}


def _distinct_graphs(workload, count=3):
    """The first ``count`` structurally distinct segment graphs."""
    seen, graphs = set(), []
    for seg in workload.segments:
        sig = seg.graph.subgraph_signature(
            tuple(seg.graph.operators_topological())
        )
        if sig not in seen:
            seen.add(sig)
            graphs.append(seg.graph)
    return graphs[:count]


_GRAPHS = {}


def _graph(name):
    if not _GRAPHS:
        for i, g in enumerate(_distinct_graphs(build_bootstrapping(TINY_BOOT))):
            _GRAPHS[f"boot{i}"] = g
        for i, g in enumerate(_distinct_graphs(build_resnet20(TINY_DEEP))):
            _GRAPHS[f"resnet{i}"] = g
    return _GRAPHS[name]


def _cases():
    """``(case id, graph name, hw, config, dataflow)`` for every pin."""
    cases = []
    for name in ("boot0", "boot1", "boot2",
                 "resnet0", "resnet1", "resnet2"):
        for hw in (CROPHE_36, CROPHE_64):
            cases.append((f"{name}-{hw.name}", name, hw, None, "crophe"))
        cases.append((f"{name}-SHARP+MAD", name, SHARP, None, "mad"))
    cases.append((
        "boot0-CROPHE-64-nodes3", "boot0", CROPHE_64,
        SchedulerConfig(max_search_nodes=3), "crophe",
    ))
    return cases


CASES = _cases()


def _scheduler(graph, hw, config, dataflow):
    if dataflow == "mad":
        return MadScheduler(graph, hw, config)
    return Scheduler(graph, hw, config)


def _doc(schedule):
    doc = schedule_to_doc(schedule)
    doc["degraded_reason"] = re.sub(
        r"\(\d+\.\d+s/", "(<elapsed>s/", doc["degraded_reason"]
    )
    return json.dumps(doc, sort_keys=True)


def _sha(schedule):
    return hashlib.sha256(_doc(schedule).encode()).hexdigest()


@pytest.fixture(autouse=True)
def _fresh(monkeypatch):
    """Empty memo tiers and no disk root, before and after each case."""
    monkeypatch.delenv("REPRO_DSE_CACHE", raising=False)
    MEMO.clear()
    yield
    MEMO.clear()


def test_every_case_is_pinned():
    assert sorted(PINNED) == sorted(case[0] for case in CASES)


@pytest.mark.parametrize("plan_tier", ["on", "off"])
@pytest.mark.parametrize(
    "case_id,name,hw,config,dataflow", CASES, ids=[c[0] for c in CASES]
)
def test_schedule_matches_pin(case_id, name, hw, config, dataflow,
                              plan_tier, tmp_path, monkeypatch):
    graph = _graph(name)
    if plan_tier == "on":
        monkeypatch.setenv("REPRO_DSE_CACHE", str(tmp_path))
        _scheduler(graph, hw, config, dataflow).schedule()
        MEMO.clear()
    schedule = _scheduler(graph, hw, config, dataflow).schedule()
    if plan_tier == "on":
        assert MEMO.stats["memo_miss"] == 0
        assert MEMO.stats["disk_hit"] >= 1
    assert schedule.degraded == (config is not None)
    assert _sha(schedule) == PINNED[case_id]


@pytest.mark.parametrize(
    "case_id,name,hw,config,dataflow", CASES, ids=[c[0] for c in CASES]
)
def test_replay_rebuilds_the_document(case_id, name, hw, config, dataflow):
    graph = _graph(name)
    schedule = _scheduler(graph, hw, config, dataflow).schedule()
    doc = schedule_to_doc(schedule, dataflow=dataflow)
    MEMO.clear()
    replayed = schedule_from_doc(doc, graph, hw, config)
    assert _doc(replayed) == _doc(schedule)
