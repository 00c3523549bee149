"""Lowering-walk golden tests, and lowered graphs against pinned references.

The oracle is :func:`repro.ir.graph.structural_mismatch` (insertion
order + signatures + tags + sharing pattern) plus fingerprint equality;
every downstream artifact (windows, schedules, simulated counters) is a
deterministic function of what these two pin down.

Primitive programs are compared against the same program emitted fully
decomposed by one ``GraphBuilder(lowering="full")``.  Whole workloads
are compared against ``lowering_digests.json``, recorded while a
one-shot fully decomposed workload build still existed and every
pipeline-lowered segment matched it under ``structural_mismatch``: per
segment, one sha256 over its structure and one over the one-shot
build's operator and tensor names (names reach serialized schedules).
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.dse.fingerprint import graph_fingerprint
from repro.ir.builders import GraphBuilder
from repro.ir.graph import structural_mismatch
from repro.ir.operators import OpKind
from repro.passes import PassPipeline
from repro.workloads import WORKLOAD_BUILDERS
from repro.workloads.base import WorkloadOptions

#: "structure" / "names" -> combination label -> segment -> digest.
PINNED_DIGESTS = json.loads(
    (Path(__file__).with_name("lowering_digests.json")).read_text()
)

WORKLOADS = ("bootstrapping", "helr", "resnet20", "resnet110")

#: (strategy, r_hyb) pairs the experiments enumerate: hybrid over
#: ``R_HYB_CANDIDATES``, the other strategies at r_hyb=1.
COMBOS = (
    [("hybrid", r) for r in (1, 4, 8)]
    + [(s, 1) for s in ("plain", "min-ks", "hoisting")]
)


def structure_digest(graph):
    """sha256 over exactly what ``structural_mismatch`` compares.

    Insertion-order operator signatures and tags, each operand's
    (kind, shape, word size), and the sharing pattern — every tensor is
    named by the order of its first appearance, so uids and names drop
    out.
    """
    index = {}
    rows = []
    for op in graph.operators:
        tensors = []
        for t in list(op.inputs) + list(op.outputs):
            slot = index.setdefault(t.uid, len(index))
            tensors.append([slot, t.kind.value, list(t.shape), t.word_bytes])
        rows.append([repr(op.signature()), op.tag, tensors])
    blob = json.dumps(rows, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def names_digest(graph):
    """sha256 over the insertion-order operator and operand names."""
    rows = [
        [op.name, [t.name for t in op.inputs], [t.name for t in op.outputs]]
        for op in graph.operators
    ]
    blob = json.dumps(rows, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.fixture(scope="module")
def lowered_digests(deep_params):
    """(label, workload) -> [(segment, structure, names)], built once.

    One module-wide build lets the lowering memo share each structure
    across workloads and combinations, as a sweep does.
    """
    out = {}
    for strategy, r_hyb in COMBOS:
        for split in ((8, 8), None):
            label = f"{strategy}-r{r_hyb}-{'split' if split else 'mono'}"
            options = WorkloadOptions(
                ntt_split=split, rotation_strategy=strategy, r_hyb=r_hyb
            )
            for workload in WORKLOADS:
                built = WORKLOAD_BUILDERS[workload](deep_params, options)
                out[label, workload] = [
                    (
                        segment.name,
                        structure_digest(segment.graph),
                        names_digest(segment.graph),
                    )
                    for segment in built.segments
                ]
    return out


def _build(params, lowering, strategy, r_hyb, split):
    """One hmult + rescale + small BSGS, at the requested level."""
    b = GraphBuilder(params, ntt_split=split, lowering=lowering)
    ct0 = b.input_ciphertext("x", 3)
    ct1 = b.input_ciphertext("y", 3)
    ct = b.rescale(b.hmult(ct0, ct1, "m"), "rs")
    b.bsgs_matvec(ct, 4, 2, strategy=strategy, r_hyb=r_hyb, tag="mv")
    return b.graph


def _lower(graph, params, split):
    options = WorkloadOptions(ntt_split=split)
    return PassPipeline(params, options).run(graph)


class TestPerPassGoldens:
    def test_rot_batches_expand_with_their_key_switches(self, small_params):
        graph = _build(small_params, "primitive", "hybrid", 2, None)
        assert any(
            op.kind is OpKind.ROT_BATCH for op in graph.operators
        )
        result = _lower(graph, small_params, None)
        kinds = {op.kind for op in result.graph.operators}
        # One walk: the batch's own key switches come out decomposed.
        assert OpKind.ROT_BATCH not in kinds
        assert OpKind.KEY_SWITCH not in kinds
        assert OpKind.KSK_INP in kinds and OpKind.BCONV in kinds

    def test_key_switches_expand_fully(self, small_params):
        b = GraphBuilder(small_params, lowering="primitive")
        ct = b.input_ciphertext("x", 3)
        b.hmult(ct, ct, "m")  # one coarse key switch, no batches
        result = _lower(b.graph, small_params, None)
        assert not any(
            op.kind.is_coarse for op in result.graph.operators
        )
        assert sum(
            op.kind is OpKind.KSK_INP for op in result.graph.operators
        ) == 1

    def test_decompose_ntt_splits_monolithic_ntts(self, small_params):
        graph = _build(small_params, "primitive", "hybrid", 2, (8, 8))
        result = _lower(graph, small_params, (8, 8))
        kinds = {op.kind for op in result.graph.operators}
        assert OpKind.NTT not in kinds and OpKind.INTT not in kinds
        assert OpKind.NTT_ROW in kinds and OpKind.TRANSPOSE in kinds

    def test_no_split_keeps_ntts_monolithic(self, small_params):
        graph = _build(small_params, "primitive", "hybrid", 2, None)
        result = _lower(graph, small_params, None)
        kinds = {op.kind for op in result.graph.operators}
        assert OpKind.NTT in kinds
        assert not any(kind.is_ntt_phase for kind in kinds)

    def test_identity_pass_returns_same_object(self, small_params):
        b = GraphBuilder(small_params, lowering="primitive")
        ct = b.input_ciphertext("x", 3)
        b.hadd(ct, ct, "s")  # no rotations, no key switches
        result = _lower(b.graph, small_params, None)
        assert result.graph is b.graph
        assert not result.rewrote


class TestLegacyEquivalence:
    @pytest.mark.parametrize("split", [None, (8, 8)])
    @pytest.mark.parametrize(
        "strategy,r_hyb",
        [
            ("plain", 4),
            ("min-ks", 4),
            ("hoisting", 4),
            ("hybrid", 1),
            ("hybrid", 2),
            ("hybrid", 4),
            ("hybrid", 8),
        ],
    )
    def test_strategy_grid(self, small_params, strategy, r_hyb, split):
        primitive = _build(small_params, "primitive", strategy, r_hyb, split)
        legacy = _build(small_params, "full", strategy, r_hyb, split)
        result = _lower(primitive, small_params, split)
        assert structural_mismatch(result.graph, legacy) is None
        assert graph_fingerprint(result.graph) == graph_fingerprint(legacy)

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_quick_workloads_byte_identical(self, lowered_digests, workload):
        """Every lowered segment matches its pinned digests.

        Over every (strategy, r_hyb) the experiments enumerate, with
        the four-step split on and off; segments a workload shares with
        another (HELR's bootstrap, ResNet-110's layers) must match the
        same digests.
        """
        structure = PINNED_DIGESTS["structure"]
        names = PINNED_DIGESTS["names"]
        for label in sorted(structure):
            for segment, shape, named in lowered_digests[label, workload]:
                where = f"{label}/{workload}/{segment}"
                assert shape == structure[label][segment], where
                assert named == names[label][segment], where

    def test_deterministic_fingerprints(self, small_params):
        split = (8, 8)
        sources = [
            _build(small_params, "primitive", "hybrid", 2, split)
            for _ in range(2)
        ]
        first, second = (
            [
                graph_fingerprint(source),
                graph_fingerprint(_lower(source, small_params, split).graph),
            ]
            for source in sources
        )
        assert first == second
