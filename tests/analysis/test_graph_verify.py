"""Graph verifier: clean builder graphs, seeded-mutation fixtures."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import verify_graph
from repro.fhe.params import parameter_set
from repro.ir.builders import GraphBuilder
from repro.ir.graph import OperatorGraph
from repro.ir.operators import Operator, OpKind
from repro.ir.tensors import poly_tensor

PARAMS = parameter_set("ARK")


def _hmult_graph():
    b = GraphBuilder(PARAMS)
    b.hmult(b.input_ciphertext("x", PARAMS.max_level),
            b.input_ciphertext("y", PARAMS.max_level))
    return b.graph


def _ew(name, src, dst, limbs=2, n=16):
    return Operator(name, OpKind.EW_ADD, limbs, n,
                    inputs=[src], outputs=[dst])


class TestCleanGraphs:
    def test_hmult_graph_is_clean(self):
        assert verify_graph(_hmult_graph()).clean


class TestMutations:
    def test_cycle_trips_g001(self):
        g = OperatorGraph("cyclic")
        t1, t2 = poly_tensor("t1", 2, 16), poly_tensor("t2", 2, 16)
        a = _ew("a", t1, t2)
        b = _ew("b", t2, poly_tensor("t3", 2, 16))
        g.add_operator(a)
        g.add_operator(b)
        g._wire(b.uid, a.uid, t1)  # corrupt: close the loop
        report = verify_graph(g)
        assert "G001" in report.rule_ids()

    def test_cycle_behind_a_stuck_operator_is_named(self):
        g = OperatorGraph("cyclic")
        t_y, t_z = poly_tensor("t_y", 2, 16), poly_tensor("t_z", 2, 16)
        # x is inserted first and sits downstream of the y <-> z loop.
        x = _ew("x", t_z, poly_tensor("t_x", 2, 16))
        y = _ew("y", poly_tensor("in", 2, 16), t_y)
        z = _ew("z", t_y, t_z)
        for op in (x, y, z):
            g.add_operator(op)
        assert "G001" not in verify_graph(g).rule_ids()
        g._wire(z.uid, y.uid, t_z)  # corrupt: close the loop
        [finding] = [d for d in verify_graph(g).errors if d.rule == "G001"]
        assert finding.message.endswith("y -> z -> y")

    def test_duplicated_producer_trips_g002(self):
        g = OperatorGraph("dup")
        shared = poly_tensor("shared", 2, 16)
        a = _ew("a", poly_tensor("in_a", 2, 16), shared)
        b = _ew("b", poly_tensor("in_b", 2, 16), poly_tensor("out_b", 2, 16))
        g.add_operator(a)
        g.add_operator(b)
        b.outputs.append(shared)  # corrupt: second producer, post-insertion
        report = verify_graph(g)
        assert "G002" in report.rule_ids()
        assert any("shared" in d.location for d in report.errors)

    def test_dangling_poly_input_trips_g003(self):
        g = OperatorGraph("dangling")
        ghost = poly_tensor("ghost", 2, 16)  # never produced
        g.add_operator(_ew("a", ghost, poly_tensor("out", 2, 16)))
        report = verify_graph(g)
        assert "G003" in report.rule_ids()

    def test_orphan_tensor_trips_g004_as_warning(self):
        g = _hmult_graph()
        orphan = poly_tensor("orphan", 2, 16)
        g._tensors[orphan.uid] = orphan  # registered, never wired
        report = verify_graph(g)
        assert "G004" in report.rule_ids()
        assert report.ok  # warnings only

    def test_edge_tensor_mismatch_trips_g005(self):
        g = OperatorGraph("badedge")
        t = poly_tensor("t", 2, 16)
        a = _ew("a", poly_tensor("in", 2, 16), t)
        b = _ew("b", t, poly_tensor("out", 2, 16))
        g.add_operator(a)
        g.add_operator(b)
        g._succ[a.uid][b.uid] = poly_tensor("impostor", 2, 16)
        report = verify_graph(g)
        assert "G005" in report.rule_ids()


class TestCycleProperty:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_g001_fires_exactly_when_the_index_has_a_cycle(self, data):
        n = data.draw(st.integers(2, 7))
        g = OperatorGraph("random")
        outs = [poly_tensor(f"o{i}", 2, 16) for i in range(n)]
        ops = []
        for i in range(n):
            feeds = data.draw(st.sets(st.integers(0, i - 1))) if i else set()
            inputs = [poly_tensor(f"in{i}", 2, 16)]
            inputs += [outs[j] for j in sorted(feeds)]
            ops.append(g.add_operator(Operator(
                f"op{i}", OpKind.EW_ADD, 2, 16,
                inputs=inputs, outputs=[outs[i]],
            )))
        # Corrupt: wire arbitrary edges, self-loops included.
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for u, v in data.draw(st.lists(pairs, max_size=3)):
            g._wire(ops[u].uid, ops[v].uid, outs[u])

        def on_cycle(uid):
            seen, stack = set(), list(g._succ[uid])
            while stack:
                nxt = stack.pop()
                if nxt == uid:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.extend(g._succ[nxt])
            return False

        found = [d for d in verify_graph(g).errors if d.rule == "G001"]
        assert bool(found) == any(on_cycle(op.uid) for op in ops)
        if found:
            names = found[0].message.split(": ", 1)[1].split(" -> ")
            uid = {op.name: op.uid for op in ops}
            assert names[0] == names[-1]
            for a, b in zip(names, names[1:]):
                assert uid[b] in g._succ[uid[a]]
