"""Tests for the functional-to-IR tracing bridge."""

import numpy as np
import pytest

from repro.analysis import verify_graph
from repro.fhe.params import parameter_set
from repro.hw.config import CROPHE_64
from repro.ir.operators import OpKind
from repro.ir.tracing import TracingContext
from repro.sched.scheduler import Scheduler


@pytest.fixture()
def tctx(small_ctx):
    return TracingContext(small_ctx, parameter_set("ARK").with_level(3))


class TestTracing:
    def test_functional_result_correct(self, tctx, rng):
        n = tctx.ctx.params.slots
        a = rng.uniform(-1, 1, n)
        b = rng.uniform(-1, 1, n)
        x = tctx.encrypt_input("x", a)
        y = tctx.encrypt_input("y", b)
        z = tctx.rescale(tctx.multiply(x, y))
        got = tctx.decrypt(z, n).real
        assert np.max(np.abs(got - a * b)) < 5e-3

    def test_graph_mirrors_program(self, tctx, rng):
        n = tctx.ctx.params.slots
        x = tctx.encrypt_input("x", rng.uniform(-1, 1, n))
        y = tctx.encrypt_input("y", rng.uniform(-1, 1, n))
        tctx.rescale(tctx.multiply(x, y))
        kinds = [op.kind for op in tctx.graph.operators]
        assert kinds.count(OpKind.KSK_INP) == 1  # the relinearization
        assert OpKind.BCONV in kinds
        assert verify_graph(tctx.graph).ok

    def test_traced_graph_schedules(self, tctx, rng):
        n = tctx.ctx.params.slots
        x = tctx.encrypt_input("x", rng.uniform(-1, 1, n))
        z = tctx.rotate(tctx.square(x), 2)
        got = tctx.decrypt(z, n)
        sched = Scheduler(tctx.graph, CROPHE_64).schedule()
        assert sched.total_seconds > 0
        covered = sum(len(s.plan.ops) for s in sched.steps)
        assert covered == tctx.graph.num_operators

    def test_rotation_correct_and_recorded(self, tctx, rng):
        n = tctx.ctx.params.slots
        v = rng.uniform(-1, 1, n)
        x = tctx.encrypt_input("x", v)
        z = tctx.rotate(x, 3)
        got = tctx.decrypt(z, n).real
        assert np.max(np.abs(got - np.roll(v, -3))) < 5e-3
        kinds = [op.kind for op in tctx.graph.operators]
        assert OpKind.AUTOMORPHISM in kinds

    def test_add_and_pmult(self, tctx, rng):
        n = tctx.ctx.params.slots
        a = rng.uniform(-1, 1, n)
        w = rng.uniform(-1, 1, n)
        x = tctx.encrypt_input("x", a)
        s = tctx.add(x, x)
        p = tctx.multiply_plain(s, w)
        got = tctx.decrypt(tctx.rescale(p), n).real
        assert np.max(np.abs(got - 2 * a * w)) < 5e-3

    def test_rejects_smaller_accel_params(self, small_ctx):
        with pytest.raises(ValueError):
            TracingContext(
                small_ctx, parameter_set("ARK").with_level(1)
            )
