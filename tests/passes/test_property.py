"""Property: the pipeline preserves G*/F* cleanliness and structure.

Random valid primitive-level DAGs (chains of HE primitives over a
couple of live ciphertexts) must lower through the pipeline in
``"error"`` invariant mode — i.e. with the G* structural, C* semantic,
and F* dataflow batteries clean on the source and the lowered graph —
and land at the decomposed level with no coarse operators surviving.  The
lowered graph must also be structurally identical to the same program
emitted fully decomposed in one go by ``GraphBuilder(lowering="full")``,
operator names included.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.flow import verify_flow_graph
from repro.analysis.graph_verify import verify_graph
from repro.fhe.params import make_concrete_params
from repro.ir.builders import GraphBuilder
from repro.ir.graph import structural_mismatch
from repro.passes import PassPipeline
from repro.workloads.base import WorkloadOptions

PARAMS = make_concrete_params(log_n=6, max_level=8, alpha=2)

_STEP = st.one_of(
    st.tuples(st.just("square")),
    st.tuples(st.just("add")),
    st.tuples(st.just("rescale")),
    st.tuples(st.just("rot"), st.integers(min_value=1, max_value=7)),
    st.tuples(
        st.just("baby"),
        st.sampled_from([2, 4]),
        st.sampled_from(["plain", "min-ks", "hoisting", "hybrid"]),
        st.sampled_from([1, 2, 4]),
    ),
)


def _random_graph(steps, lowering="primitive", split=None):
    """Replay a step list into a valid graph at one emission mode."""
    b = GraphBuilder(PARAMS, ntt_split=split, lowering=lowering)
    ct = b.input_ciphertext("x", 5)
    other = b.input_ciphertext("y", 5)
    for i, step in enumerate(steps):
        kind = step[0]
        if kind == "square":
            ct = b.hmult(ct, ct, f"s{i}.m")
        elif kind == "add":
            if other.level != ct.level:
                continue
            ct = b.hadd(ct, other, f"s{i}.a")
        elif kind == "rescale":
            if ct.level == 0:
                continue
            ct = b.rescale(ct, f"s{i}.rs")
            if other.level > ct.level:
                other = b.rescale(other, f"s{i}.rso")
        elif kind == "rot":
            ct = b.hrot(ct, step[1], f"s{i}.r")
        elif kind == "baby":
            _, n1, strategy, r_hyb = step
            rots = b.baby_rotations(ct, n1, strategy, r_hyb, f"s{i}.b")
            ct = rots[0]
    return b.graph


@given(
    steps=st.lists(_STEP, min_size=1, max_size=6),
    split=st.sampled_from([None, (8, 8)]),
)
@settings(max_examples=25, deadline=None)
def test_pipeline_preserves_cleanliness(steps, split):
    # The split rides along at primitive emission, as in the workload
    # builders: it fixes the names the deferred NTT phases will take.
    graph = _random_graph(steps, split=split)
    options = WorkloadOptions(ntt_split=split)
    # Any G*/C*/F* or P001 finding raises.
    result = PassPipeline(PARAMS, options).run(graph)
    assert not any(op.kind.is_coarse for op in result.graph.operators)
    # The final graph re-verifies clean outside the pipeline too.
    assert verify_graph(result.graph).ok
    assert verify_flow_graph(result.graph).ok
    # And it is the program a one-pass fully decomposed emission builds.
    full = _random_graph(steps, lowering="full", split=split)
    assert structural_mismatch(result.graph, full) is None
    assert [op.name for op in result.graph.operators] == [
        op.name for op in full.operators
    ]
