"""F* dataflow verifiers: a reference property, seeded mutations, wiring."""

import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.__main__ as analysis_main
import repro.passes.pipeline as pipeline_mod
from repro.analysis import (
    EXIT_VERIFY,
    verify_flow_graph,
    verify_flow_schedule,
    verify_key_reach,
    verify_levels,
    verify_residency,
    verify_semantics,
    verify_sharing,
    verify_steps,
    verify_workloads,
)
from repro.analysis.diagnostics import DiagnosticReport, Severity
from repro.fhe.params import parameter_set
from repro.hw.config import CROPHE_64
from repro.ir.builders import GraphBuilder
from repro.ir.graph import OperatorGraph
from repro.ir.operators import Operator, OpKind
from repro.ir.tensors import (
    TensorKind,
    evk_tensor,
    external_tensor,
    plaintext_tensor,
    poly_tensor,
)
from repro.passes import clear_lowering_memo
from repro.resilience.errors import VerificationError
from repro.sched.scheduler import Scheduler, SchedulerConfig

PARAMS = parameter_set("ARK")


def _hmult_graph():
    b = GraphBuilder(PARAMS)
    b.hmult(b.input_ciphertext("x", PARAMS.max_level),
            b.input_ciphertext("y", PARAMS.max_level))
    return b.graph


def _single(op):
    g = OperatorGraph("fixture")
    g.add_operator(op)
    return g


def _ksk_graph(materialize):
    """KSKInP over three digits, with or without a ModUp BConv."""
    g = OperatorGraph("ksk")
    src = external_tensor("src", 6, 16)
    digits = []
    for j in range(3):
        d = poly_tensor(f"d{j}", 6, 16)
        kind = OpKind.BCONV if materialize else OpKind.EW_ADD
        g.add_operator(Operator(f"mk{j}", kind, 6, 16,
                                inputs=[src], outputs=[d]))
        digits.append(d)
    outs = [poly_tensor("ob", 6, 16), poly_tensor("oa", 6, 16)]
    g.add_operator(Operator(
        "ksk", OpKind.KSK_INP, 6, 16, digits=3,
        inputs=digits + [evk_tensor("evk", beta=3, limbs=6, n=16)],
        outputs=outs,
    ))
    return g, outs


def _dead_sibling_graph():
    """The materialized KSKInP with only its ``ob`` output consumed."""
    graph, outs = _ksk_graph(materialize=True)
    graph.add_operator(Operator("use", OpKind.EW_ADD, 6, 16,
                                inputs=[outs[0]],
                                outputs=[poly_tensor("r", 6, 16)]))
    return graph


@pytest.fixture()
def scheduled():
    """Fresh graph + schedule per test: mutations must not leak."""
    graph = _hmult_graph()
    schedule = Scheduler(graph, CROPHE_64,
                         SchedulerConfig(verify="off")).schedule()
    return graph, schedule


# ----------------------------------------------------------------------
# F003 against an order-independent reference
# ----------------------------------------------------------------------

_POLY_LIKE = (TensorKind.POLY, TensorKind.EXTERNAL, TensorKind.PLAINTEXT)


@st.composite
def _keyswitch_dags(draw):
    """A random DAG of element-wise, BConv and KSKInP operators.

    Inputs are producerless POLY, EXTERNAL and PLAINTEXT tensors; the
    operators are inserted in a drawn order, so a consumer may enter
    the graph before its producer.
    """
    makers = (poly_tensor, external_tensor, plaintext_tensor)
    pool = [
        draw(st.sampled_from(makers))(f"in{i}", 4, 16)
        for i in range(draw(st.integers(1, 4)))
    ]
    ops = []
    for i in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(
            (OpKind.EW_ADD, OpKind.BCONV, OpKind.KSK_INP)))
        arity = draw(st.integers(1, min(3, len(pool))))
        picks = draw(st.lists(
            st.integers(0, len(pool) - 1),
            min_size=arity, max_size=arity, unique=True,
        ))
        inputs = [pool[j] for j in picks]
        if kind is OpKind.KSK_INP:
            inputs.append(evk_tensor(f"evk{i}", beta=arity, limbs=4, n=16))
            outputs = [poly_tensor(f"ob{i}", 4, 16),
                       poly_tensor(f"oa{i}", 4, 16)]
        else:
            outputs = [poly_tensor(f"t{i}", 4, 16)]
        ops.append(Operator(f"op{i}", kind, 4, 16, digits=arity,
                            inputs=inputs, outputs=outputs))
        pool.extend(outputs)
    g = OperatorGraph("prop")
    for op in draw(st.permutations(ops)):
        g.add_operator(op)
    return g


def _reference_unmaterialized(graph, assume_boundary):
    """(operator, digit) pairs F003 must flag, by repeated passes.

    Sweeps ``graph.operators`` in insertion order (not a topological
    order) until no tensor changes: a polynomial output is materialized
    when its operator is a BConv or any polynomial input is.
    """
    produced = {t.uid for op in graph.operators for t in op.outputs}
    done = set()
    if assume_boundary:
        done = {
            t.uid for op in graph.operators for t in op.inputs
            if t.kind in _POLY_LIKE and t.uid not in produced
        }
    changed = True
    while changed:
        changed = False
        for op in graph.operators:
            if op.kind is OpKind.BCONV or any(
                t.uid in done for t in op.inputs if t.kind in _POLY_LIKE
            ):
                for t in op.outputs:
                    if t.uid not in done:
                        done.add(t.uid)
                        changed = True
    return sorted(
        (op.name, t.name)
        for op in graph.operators if op.kind is OpKind.KSK_INP
        for t in op.inputs
        if t.kind in (TensorKind.POLY, TensorKind.PLAINTEXT)
        and t.uid not in done
    )


class TestKeyReachProperty:
    @settings(max_examples=100, deadline=None)
    @given(graph=_keyswitch_dags(), assume_boundary=st.booleans())
    def test_flags_exactly_the_reference_digits(self, graph,
                                                assume_boundary):
        report = verify_key_reach(
            graph, assume_boundary_materialized=assume_boundary)
        flagged = sorted(
            (d.location.split()[1], d.message.split()[1])
            for d in report.diagnostics
        )
        assert set(report.rule_ids()) <= {"F003"}
        assert flagged == _reference_unmaterialized(graph, assume_boundary)


# ----------------------------------------------------------------------
# Graph-level mutations
# ----------------------------------------------------------------------

class TestGraphMutations:
    def test_limb_minting_trips_f001_where_c002_is_silent(self):
        # Two 2-row operands cannot yield 4 rows element-wise, but the
        # local sum rule (C002) accepts it: 4 <= 2 + 2.
        op = Operator("mint", OpKind.EW_MUL, 4, 16,
                      inputs=[poly_tensor("a", 2, 16),
                              poly_tensor("b", 2, 16)],
                      outputs=[poly_tensor("o", 4, 16)])
        graph = _single(op)
        assert "C002" not in verify_semantics(graph, PARAMS).rule_ids()
        assert "F001" in verify_levels(graph).rule_ids()

    def test_modup_extend_concatenation_is_legal(self):
        # The ModUp `.extend` EW_ADD is the one place rows legally sum.
        op = Operator("ext", OpKind.EW_ADD, 5, 16, tag="ks.modup.extend",
                      inputs=[poly_tensor("lo", 2, 16),
                              poly_tensor("hi", 3, 16)],
                      outputs=[poly_tensor("o", 5, 16)])
        assert verify_levels(_single(op)).clean

    def test_level_underflow_trips_f001(self):
        op = Operator("under", OpKind.EW_ADD, 0, 16,
                      inputs=[poly_tensor("i", 0, 16)],
                      outputs=[poly_tensor("o", 0, 16)])
        assert "F001" in verify_levels(_single(op)).rule_ids()

    def test_unmaterialized_digits_trip_f003(self):
        graph, _ = _ksk_graph(materialize=False)
        report = verify_key_reach(graph)
        assert report.rule_ids() == ["F003", "F003", "F003"]

    def test_bconv_materialized_digits_are_clean(self):
        graph, _ = _ksk_graph(materialize=True)
        assert verify_key_reach(graph).clean

    def test_partition_boundary_digits_exempt_when_assumed(self):
        # A partition segment can start mid-key-switch: the digits'
        # ModUp ran in an upstream segment, so their chains root at
        # producerless tensors.  The scheduler gate's tolerant mode
        # accepts that; the strict whole-graph mode still flags it.
        g = OperatorGraph("segment")
        digits = [poly_tensor(f"d{j}", 6, 16) for j in range(3)]
        exts = [poly_tensor(f"e{j}", 6, 16) for j in range(3)]
        for j in range(3):
            g.add_operator(Operator(f"ext{j}", OpKind.EW_ADD, 6, 16,
                                    tag="ks.modup.extend",
                                    inputs=[digits[j]],
                                    outputs=[exts[j]]))
        g.add_operator(Operator(
            "ksk", OpKind.KSK_INP, 6, 16, digits=3,
            inputs=exts + [evk_tensor("evk", beta=3, limbs=6, n=16)],
            outputs=[poly_tensor("ob", 6, 16), poly_tensor("oa", 6, 16)],
        ))
        assert "F003" in verify_key_reach(g).rule_ids()
        assert verify_key_reach(
            g, assume_boundary_materialized=True).clean

    def test_dead_sibling_output_trips_f004(self):
        # Consume acc_b only; acc_a is computed and written back dead.
        report = verify_sharing(_dead_sibling_graph())
        assert "F004" in report.rule_ids()
        assert "oa" in report.diagnostics[0].message

    def test_fully_consumed_outputs_are_clean_for_f004(self):
        graph, outs = _ksk_graph(materialize=True)
        graph.add_operator(Operator("use", OpKind.EW_ADD, 6, 16,
                                    inputs=list(outs),
                                    outputs=[poly_tensor("r", 6, 16)]))
        assert verify_sharing(graph).clean


# ----------------------------------------------------------------------
# Schedule-level mutations
# ----------------------------------------------------------------------

class TestScheduleMutations:
    def test_clean_schedule_passes_all_flow_checks(self, scheduled):
        graph, schedule = scheduled
        report = verify_flow_schedule(schedule, CROPHE_64, graph=graph)
        assert report.clean, report.render_text()

    def test_inflated_residency_claims_trip_f002(self):
        # ISSUE acceptance: every per-window check accepts this
        # schedule — S005 in particular, since each claimed tensor
        # really was kept by an earlier window — and the simulator
        # would price it while skipping the DRAM reads the claims
        # suppress.  Only the cross-window sum exposes that the claims
        # cannot all fit the keep pool.
        small_hw = CROPHE_64.with_sram_mb(16.0)
        config = SchedulerConfig(verify="off")
        schedule = Scheduler(_hmult_graph(), small_hw, config).schedule()
        steps = list(schedule.steps)
        assert verify_residency(steps, small_hw, config=config).clean
        budget = int(small_hw.sram_capacity_bytes * config.keep_fraction)
        sizes = {}
        for step in steps:
            for t in step.plan.boundary()[1]:
                sizes.setdefault(t.uid, t.bytes)
        last = len(steps) - 1
        claimed = 0
        for i, step in enumerate(steps):
            if i + config.stream_window >= last:
                break
            for uid in step.kept_outputs:
                steps[last].resident_inputs.add(uid)
                claimed += sizes.get(uid, 0)
        if claimed <= budget:
            pytest.skip("not enough kept bytes to oversubscribe the pool")
        assert verify_steps(steps, small_hw).ok
        report = verify_residency(steps, small_hw, config=config)
        assert "F002" in report.rule_ids()

    def test_dropped_evk_fetch_trips_f003(self, scheduled):
        graph, schedule = scheduled
        steps = list(schedule.steps)
        for step in steps:
            for op in step.plan.ops:
                if op.kind is not OpKind.KSK_INP:
                    continue
                evk = next(t for t in op.inputs
                           if t.kind is TensorKind.EVK)
                step.plan.metrics.constant_bytes.pop(evk.uid, None)
                step.resident_constants.discard(evk.uid)
                assert verify_steps(steps, CROPHE_64).ok
                report = verify_key_reach(graph, steps)
                assert "F003" in report.rule_ids()
                return
        pytest.fail("hmult schedule has no key-switch window")

    def test_cross_window_recompute_trips_f004(self, scheduled):
        graph, schedule = scheduled
        steps = list(schedule.steps)
        if len(steps) < 2:
            pytest.skip("schedule has a single window")
        clone = next(
            op for op in steps[0].plan.ops if ".decomp" not in op.tag)
        steps[-1].plan.ops = steps[-1].plan.ops + (clone,)
        assert "F004" in verify_sharing(graph, steps).rule_ids()

    def test_same_window_duplicates_not_flagged(self, scheduled):
        graph, schedule = scheduled
        steps = list(schedule.steps)
        clone = next(
            op for op in steps[0].plan.ops if ".decomp" not in op.tag)
        steps[0].plan.ops = steps[0].plan.ops + (clone,)
        assert verify_sharing(graph, steps).clean


# ----------------------------------------------------------------------
# Known-good workloads
# ----------------------------------------------------------------------

@pytest.fixture()
def fresh_lowerings():
    """A cold lowering memo, so the pipeline really runs, and no lowering
    a patched pipeline produced outlives the test."""
    clear_lowering_memo()
    yield
    clear_lowering_memo()


class TestKnownGood:
    """The shipped workloads pass every static check end to end."""

    def test_quick_workloads_verify_flow_clean(
        self, monkeypatch, fresh_lowerings
    ):
        calls = []
        real = pipeline_mod.verify_graph
        monkeypatch.setattr(
            pipeline_mod, "verify_graph",
            lambda graph: calls.append(graph) or real(graph),
        )
        reports = verify_workloads(
            workload_names=("bootstrapping", "helr", "resnet20"))
        assert reports
        for report in reports:
            assert report.clean, report.render_text()
        # The pipeline's graph checks are reported, not run again: one
        # verify_graph per source and per lowered graph, each reported
        # once.
        names = [r.pass_name for r in reports]
        assert len(names) == len(set(names))
        graph_reports = [
            n for n in names if n.split()[-1].startswith("graph:")
        ]
        assert len(calls) == len(graph_reports) == 32


# ----------------------------------------------------------------------
# Front ends
# ----------------------------------------------------------------------

class TestFrontEnds:
    def test_hmult_graph_is_flow_clean(self):
        report = verify_flow_graph(_hmult_graph())
        assert report.clean, report.render_text()

    def test_graph_findings_reported_once(self):
        # python -m repro.analysis reports both compositions on one
        # graph: the graph-level dead sibling is verify_flow_graph's
        # finding, not verify_flow_schedule's.
        graph = _dead_sibling_graph()
        schedule = Scheduler(graph, CROPHE_64,
                             SchedulerConfig(verify="off")).schedule()
        assert verify_flow_graph(graph).rule_ids() == ["F004"]
        report = verify_flow_schedule(schedule, CROPHE_64, graph=graph)
        assert "F004" not in report.rule_ids()

    def test_cli_clean_run_exits_zero(self, monkeypatch, capsys):
        monkeypatch.setattr(
            analysis_main, "verify_workloads",
            lambda **k: [DiagnosticReport(pass_name="flow")])
        assert analysis_main.main(["--workloads", "helr"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_cli_finding_exits_verify_code(self, monkeypatch, capsys):
        bad = DiagnosticReport(pass_name="flow")
        bad.emit("F002", "step 0", "seeded failure")
        monkeypatch.setattr(
            analysis_main, "verify_workloads", lambda **k: [bad])
        assert analysis_main.main(["--json"]) == EXIT_VERIFY
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 1
        assert payload["reports"][0]["diagnostics"][0]["rule"] == "F002"

    def test_cli_reports_a_failing_lowering(
        self, monkeypatch, capsys, fresh_lowerings
    ):
        # A walk that copies its input, so coarse operators survive and
        # the P001 postcondition fails every lowering.
        monkeypatch.setattr(
            pipeline_mod, "lower_primitives",
            lambda graph, params, split: graph.clone(),
        )
        assert analysis_main.main(["--json"]) == EXIT_VERIFY
        payload = json.loads(capsys.readouterr().out)
        rules = [
            d["rule"] for r in payload["reports"] for d in r["diagnostics"]
        ]
        assert "P001" in rules
        assert payload["errors"] == rules.count("P001")

    def test_lowering_warnings_reach_the_report(
        self, monkeypatch, fresh_lowerings
    ):
        # An empty Section V-D catalog puts the (256, 256) split off it.
        monkeypatch.setattr(pipeline_mod, "candidate_splits", lambda n: [])
        reports = verify_workloads(workload_names=("helr",))
        p002 = [
            d for r in reports for d in r.diagnostics if d.rule == "P002"
        ]
        assert p002
        assert all(d.severity is Severity.WARNING for d in p002)
        assert all(r.ok for r in reports)

    @pytest.mark.parametrize("argv", [
        ["--workloads", "bogus"], ["--params", "NOPE"],
    ])
    def test_cli_unknown_name_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            analysis_main.main(argv)
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Scheduler gate
# ----------------------------------------------------------------------

class TestGateWiring:
    """The gate fails or stays silent on an F* schedule finding."""

    @pytest.fixture()
    def seeded_f002(self, monkeypatch):
        import repro.analysis.flow as flow

        calls = []

        def fake_residency(steps, hw, report=None, config=None):
            calls.append(len(steps))
            report.emit("F002", "step 0", "seeded failure")
            return report

        monkeypatch.setattr(flow, "verify_residency", fake_residency)
        return calls

    def _scheduler(self, mode):
        return Scheduler(_hmult_graph(), CROPHE_64,
                         SchedulerConfig(verify=mode))

    def test_error_mode_raises(self, seeded_f002):
        with pytest.raises(VerificationError) as exc:
            self._scheduler("error").schedule()
        assert exc.value.rule_ids == ("F002",)

    def test_off_mode_is_silent(self, seeded_f002):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self._scheduler("off").schedule().steps
        assert seeded_f002 == []
