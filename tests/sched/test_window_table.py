"""Per-graph window tables and the templates they share.

A window table interns the structure key of each (start, size) window;
it must equal :func:`~repro.sched.plan_memo.window_key` of the window's
operators.  Templates are keyed by plan kind, so MAD and CROPHE
searches never serve each other, and a second search over the same
graph and hardware (CROPHE-p's other cluster counts) reuses every
template it needs.  ``clear_cache`` empties all of it.

On full-size SHARP bootstrapping segments, every template the memo
serves — built by extending the previous miss at its start, or shared
from a structurally identical window of another segment — must equal
a fresh build of the window's own operators, and the simulator terms a
template carries (filled by whichever step is simulated first) must
equal the ones each step's own plan places.
"""

import json

import pytest

from repro.baselines.accelerators import SHARP
from repro.baselines.mad import MadScheduler
from repro.experiments.common import clear_cache
from repro.fhe.params import parameter_set
from repro.hw.config import CROPHE_36
from repro.ir.operators import OpKind
from repro.sched import plan_memo
from repro.sched.mapper import map_group
from repro.sched.plan_memo import MEMO, SkeletonBuilder, window_key
from repro.sched.scheduler import Scheduler, SchedulerConfig
from repro.sched.serialize import schedule_to_doc
from repro.sim.engine import SimulationEngine
from repro.workloads import build_bootstrapping
from repro.workloads.base import WorkloadOptions
from repro.workloads.resnet import build_resnet20

from tests.sched.test_pinned_schedules import TINY_BOOT, TINY_DEEP, _graph


@pytest.fixture(autouse=True)
def _fresh(monkeypatch):
    """Empty memo tiers and no disk root, before and after each test."""
    monkeypatch.delenv("REPRO_DSE_CACHE", raising=False)
    MEMO.clear()
    yield
    MEMO.clear()


def _doc(schedule):
    return json.dumps(schedule_to_doc(schedule), sort_keys=True)


def _segment_graphs(workload):
    seen, graphs = set(), []
    for seg in workload.segments:
        if id(seg.graph) not in seen:
            seen.add(id(seg.graph))
            graphs.append(seg.graph)
    return graphs


def test_table_keys_equal_window_key():
    """Every window up to the default size, in every segment graph of
    both workloads: one structure id per distinct key, process-wide."""
    span = SchedulerConfig().max_group_size
    key_of, id_of = {}, {}
    for graph in (
        _segment_graphs(build_bootstrapping(TINY_BOOT))
        + _segment_graphs(build_resnet20(TINY_DEEP))
    ):
        table = MEMO.table(graph)
        n = len(table.order)
        for start in range(n):
            for size in range(1, min(span, n - start) + 1):
                sid = MEMO.structure_id(table, start, size)
                key = window_key(table, table.order[start:start + size])
                assert key_of.setdefault(sid, key) == key
                assert id_of.setdefault(key, sid) == sid
    assert len(id_of) > 100


def test_mad_and_crophe_never_share_templates():
    """One graph, one hardware config, no split: each dataflow's search
    gives the same document whether it runs first or second (MAD's
    depth-1 skeletons differ from CROPHE's on this graph)."""
    graph = _graph("resnet1")

    def search(first, second):
        MEMO.clear()
        docs = {}
        for dataflow in (first, second):
            cls = MadScheduler if dataflow == "mad" else Scheduler
            docs[dataflow] = _doc(cls(graph, CROPHE_36).schedule())
        return docs

    crophe_first = search("crophe", "mad")
    mad_first = search("mad", "crophe")
    assert crophe_first == mad_first
    assert crophe_first["crophe"] != crophe_first["mad"]


def test_second_cluster_count_builds_no_template(monkeypatch):
    """A CROPHE-p re-search of the same graph and hardware reuses every
    template of the first search (each window it explores is a memo
    hit), and equals a cold search."""
    graph = _graph("boot1")
    Scheduler(graph, CROPHE_36, SchedulerConfig()).schedule()
    built = []
    init = plan_memo.WindowTemplate.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(plan_memo.WindowTemplate, "__init__", counting)
    shared = Scheduler(graph, CROPHE_36, SchedulerConfig(constant_share=4))
    warm = shared.schedule()
    assert not built
    assert shared.stats["plan_memo_misses"] == 0
    assert shared.stats["plan_memo_hits"] == shared.stats["windows_explored"]
    MEMO.clear()
    cold = Scheduler(graph, CROPHE_36, SchedulerConfig(constant_share=4))
    assert _doc(cold.schedule()) == _doc(warm)
    assert built
    assert cold.stats["plan_memo_misses"] >= 1


def test_clear_cache_clears_the_plan_memo():
    """The bench harness measures search work from cold after
    ``clear_cache()``: the next search misses and matches the first."""
    graph = _graph("resnet0")
    first = Scheduler(graph, CROPHE_36).schedule()
    clear_cache()
    again = Scheduler(graph, CROPHE_36)
    assert _doc(again.schedule()) == _doc(first)
    assert again.stats["plan_memo_misses"] >= 1
    assert again.stats["plan_memo_misses"] == MEMO.stats["memo_miss"]


def test_full_size_templates_equal_fresh_builds():
    """SHARP bootstrapping lowered for CROPHE-36 (hybrid, r_hyb 4, NTT
    split on) and for SHARP+MAD (hoisting, no split): every window of
    up to each scheduler's group size, requested in DP order with one
    memo shared across segments and designs, carries the skeleton a
    fresh builder makes of its operators."""
    params = parameter_set("SHARP")
    root = 1 << (params.log_n // 2)
    split = (root, params.n // root)
    designs = (
        (Scheduler, CROPHE_36, WorkloadOptions(
            ntt_split=split, rotation_strategy="hybrid", r_hyb=4,
        )),
        (MadScheduler, SHARP, WorkloadOptions(rotation_strategy="hoisting")),
    )
    segments = windows = 0
    for cls, hw, options in designs:
        for graph in _segment_graphs(build_bootstrapping(params, options)):
            if cls is MadScheduler:
                sched = MadScheduler(graph, hw)
            else:
                sched = Scheduler(graph, hw, n_split=options.ntt_split)
            order = sched._begin()
            table = MEMO.table(graph)
            n = len(order)
            for start in range(n):
                for size in range(
                    1, min(sched.config.max_group_size, n - start) + 1
                ):
                    fresh = SkeletonBuilder(
                        graph, table, hw, sched.n_split, sched.plan_kind
                    ).group(order[start:start + size])
                    served = sched._window(start, size).skeleton
                    assert served == fresh, (graph.name, start, size)
                    windows += 1
            segments += 1
    assert segments == 26
    assert windows == 22554
    assert MEMO.stats["memo_hit"] > 0


def test_template_sim_terms_equal_every_steps_own_placement():
    """SHARP bootstrapping scheduled for CROPHE-36 (hybrid, r_hyb 4,
    NTT split on) and for CROPHE-hw+MAD (hoisting), then simulated: for
    every step, not only the one that filled its template, the
    template's mean hops and lane work equal those of the step's own
    plan, and collecting events (which places every step) changes no
    simulated number."""
    params = parameter_set("SHARP")
    root = 1 << (params.log_n // 2)
    split = (root, params.n // root)
    designs = (
        (Scheduler, split, WorkloadOptions(
            ntt_split=split, rotation_strategy="hybrid", r_hyb=4,
        )),
        (MadScheduler, None, WorkloadOptions(rotation_strategy="hoisting")),
    )
    templates = set()
    steps = 0
    for cls, n_split, options in designs:
        for graph in _segment_graphs(build_bootstrapping(params, options)):
            if cls is MadScheduler:
                schedule = MadScheduler(graph, CROPHE_36).schedule()
            else:
                schedule = Scheduler(
                    graph, CROPHE_36, n_split=n_split
                ).schedule()
            plain, traced = (
                SimulationEngine(CROPHE_36, collect_trace=trace).run(
                    schedule
                )
                for trace in (False, True)
            )
            assert traced.events and not plain.events
            assert plain.total_seconds == traced.total_seconds
            assert plain.traffic == traced.traffic
            assert plain.utilization == traced.utilization
            for step in schedule.steps:
                plan = step.plan
                templates.add(id(step.template))
                hops, work = step.template.sim_terms
                assert hops == max(map_group(plan).average_hops(), 1.0)
                assert work == sum(
                    op.total_work for op in plan.ops
                    if op.kind is not OpKind.TRANSPOSE
                )
                steps += 1
    # 991 steps over 549 templates: the rest read another step's terms.
    assert steps > len(templates)
