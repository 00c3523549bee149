"""The shared diagnostics core of :mod:`repro.analysis`.

Every static pass (graph, CKKS semantics, schedule legality, repo lint)
reports through the same vocabulary: a :class:`Diagnostic` is one
finding — rule id, severity, location, message, fix hint — and a
:class:`DiagnosticReport` is an ordered collection with text and JSON
renderers.  Rules are declared once in :data:`RULES` so the catalog in
DESIGN.md, the passes, and the tests all agree on ids and severities.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.resilience.errors import InvariantViolation

#: Process exit status shared by every diagnostics front end:
#: ``python -m repro.analysis`` (the one workload verifier),
#: ``python -m repro.passes`` and the repo lint ratchet all exit 5 on
#: ERROR findings so CI branches on one code.
EXIT_VERIFY = 5


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings make a verification gate fail; ``WARNING``
    findings are reported but never block.
    """

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Rule:
    """One verification rule: stable id, summary, severity, fix hint."""

    id: str
    title: str
    severity: Severity
    hint: str


def _catalog(rules: Iterable[Rule]) -> Dict[str, Rule]:
    out: Dict[str, Rule] = {}
    for rule in rules:
        if rule.id in out:
            raise InvariantViolation(
                "repro.analysis.diagnostics._catalog",
                f"duplicate rule id {rule.id}",
            )
        out[rule.id] = rule
    return out


#: The rule catalog (mirrored in DESIGN.md).  Ids are stable: tests and
#: downstream tooling key on them, so never renumber — retire and add.
RULES: Dict[str, Rule] = _catalog([
    # ---- graph verifier (G) -------------------------------------------
    Rule("G001", "graph contains a cycle", Severity.ERROR,
         "break the dependency loop; OperatorGraph.add_operator rejects "
         "cycle-closing edges at insertion time"),
    Rule("G002", "tensor has more than one producer", Severity.ERROR,
         "every tensor is SSA: give each producing operator its own "
         "output tensor"),
    Rule("G003", "intermediate consumed but never produced", Severity.ERROR,
         "POLY tensors must be produced inside the graph; use an "
         "EXTERNAL tensor for program inputs"),
    Rule("G004", "tensor registered but never used", Severity.WARNING,
         "drop the orphaned tensor or wire it to an operator"),
    Rule("G005", "edge tensor inconsistent with endpoint operators",
         Severity.ERROR,
         "the tensor on a producer->consumer edge must appear in the "
         "producer's outputs and the consumer's inputs"),
    # ---- CKKS semantic verifier (C) -----------------------------------
    Rule("C001", "operator/tensor shape disagreement", Severity.ERROR,
         "the operator's declared limbs/N must match its tensors' "
         "(limbs, N) shapes"),
    Rule("C002", "limb inflation without base conversion", Severity.ERROR,
         "only BConv extends the limb basis; an element-wise operator "
         "cannot emit more limb rows than its inputs carry"),
    Rule("C003", "level budget underflow", Severity.ERROR,
         "a ciphertext polynomial needs at least one limb; rescale/"
         "modswitch bookkeeping dropped below level 0"),
    Rule("C004", "four-step NTT split mismatch", Severity.ERROR,
         "decomposed NTT phases need n_split with n1*n2 == N and "
         "twiddles of length N, N1, or N2"),
    Rule("C005", "evk/digit disagreement on key-switch inner product",
         Severity.ERROR,
         "the evk's beta/limb dimensions must match the operator's "
         "digit count and extended limb basis"),
    Rule("C006", "rescale must drop exactly one limb", Severity.ERROR,
         "an HRescale correction writes one limb row fewer than its "
         "source ciphertext carries"),
    # ---- schedule legality verifier (S) -------------------------------
    Rule("S001", "step consumes a tensor scheduled later", Severity.ERROR,
         "reorder the steps: every producer must run in the same or an "
         "earlier step than its consumers"),
    Rule("S002", "schedule does not cover the graph exactly once",
         Severity.ERROR,
         "each operator must appear in exactly one scheduled step"),
    Rule("S003", "group buffer footprint exceeds SRAM", Severity.ERROR,
         "boundary tensors + constants + double-buffered granules must "
         "fit sram_bytes; shrink the window or the split"),
    Rule("S004", "PE allocation out of bounds", Severity.ERROR,
         "a spatial group allocates at most num_pes PEs and every "
         "compute operator at least one"),
    Rule("S005", "resident input was never kept on-chip", Severity.ERROR,
         "a step may only discount DRAM reads for tensors an earlier "
         "step kept (or chained graph inputs)"),
    Rule("S006", "resident constant was never fetched", Severity.ERROR,
         "temporal sharing only covers constants an earlier step "
         "actually brought on-chip"),
    Rule("S007", "resident constants exceed the residency budget",
         Severity.ERROR,
         "the constants held across steps must fit "
         "constant_residency_fraction * sram_bytes"),
    Rule("S008", "kept output is not a boundary output", Severity.ERROR,
         "a step can only keep tensors it actually produces for later "
         "steps"),
    Rule("S009", "non-physical step cost", Severity.ERROR,
         "step seconds and traffic counters must be finite and "
         "non-negative"),
    # ---- repo lint (L) ------------------------------------------------
    Rule("L001", "bare assert in library code", Severity.ERROR,
         "asserts vanish under python -O; raise a typed ReproError "
         "subclass (e.g. InvariantViolation) instead"),
    Rule("L002", "untyped raise in library code", Severity.ERROR,
         "raise a ReproError subclass from repro.resilience.errors so "
         "callers can branch on the failure class"),
    # ---- whole-program dataflow verifier (F) --------------------------
    Rule("F001", "inter-operator level budget violation", Severity.ERROR,
         "an operator declares more limb rows than any chain of "
         "predecessors can supply (or the chain underflows below one "
         "limb); only BConv inside a ModUp may widen the basis"),
    Rule("F002", "cross-window residency exceeds the keep budget",
         Severity.ERROR,
         "the kept ciphertexts a schedule claims resident across a step "
         "must fit keep_fraction * sram_capacity_bytes; a claim that "
         "cannot fit lets the simulator skip DRAM reads that must "
         "physically happen — keep less or spill earlier"),
    Rule("F003", "key-switch window consumes unmaterialized operands",
         Severity.ERROR,
         "every KSKInP window needs its evk fetched (or proven resident "
         "from an earlier fetch) and its digits produced by a ModUp "
         "base-conversion chain scheduled no later than the window"),
    Rule("F004", "tensor recomputed or kept dead across windows",
         Severity.WARNING,
         "two scheduled windows recompute an identical operator (same "
         "kind/signature/tag on the same inputs), or a kept output is "
         "never claimed by a later window; share it via temporal "
         "pipelining instead"),
    # ---- lowering pipeline (P) ----------------------------------------
    Rule("P001", "lowering left operators above the decomposed level",
         Severity.ERROR,
         "the lowered graph still contains a coarse "
         "(KEY_SWITCH/ROT_BATCH) operator, or a monolithic (i)NTT while "
         "a four-step split is configured; the lowering walk is "
         "incomplete"),
    Rule("P002", "NTT split off the Section V-D candidate set",
         Severity.WARNING,
         "the configured four-step split is not among "
         "candidate_splits() for the default PE lane width; the "
         "decomposed tiles may under-fill the lanes — pick N1/N2 at "
         "least the lane count with a bounded aspect ratio"),
    # ---- determinism lint (D): byte-identity guardrails ---------------
    Rule("D001", "unseeded random source", Severity.ERROR,
         "module-level random.* / numpy.random.* and zero-argument "
         "Random()/default_rng() draw from global or OS entropy; seed "
         "explicitly (e.g. random.Random(f\"...\")) so artifacts are "
         "byte-identical per seed"),
    Rule("D002", "wall-clock value flows into artifact content",
         Severity.ERROR,
         "time.time()/datetime.now() in a function that also serializes "
         "JSON makes artifacts differ run-to-run; keep timestamps out "
         "of artifact bytes or stamp them outside the serialized dict"),
    Rule("D003", "iteration over an unordered set", Severity.ERROR,
         "for/comprehension over a set literal or set()/frozenset() "
         "call iterates in hash order; wrap it in sorted(...)"),
    Rule("D004", "unsorted directory listing", Severity.ERROR,
         "os.listdir/scandir and glob/iterdir return entries in "
         "filesystem order; wrap the call in sorted(...) before "
         "iterating or serializing"),
    Rule("D005", "order-sensitive pool result consumption", Severity.ERROR,
         "concurrent.futures.as_completed / Pool.imap_unordered yield "
         "in completion order; collect futures in submission order "
         "(e.g. pool.map or an indexed dict) before emitting results"),
])


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static pass."""

    rule: str
    severity: Severity
    location: str
    message: str
    hint: str = ""

    def render(self) -> str:
        """One-finding text form: ``severity[rule] location: message``."""
        text = f"{self.severity.value}[{self.rule}] {self.location}: {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def to_dict(self) -> Dict[str, str]:
        """JSON-serializable form of this finding."""
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "location": self.location,
            "message": self.message,
            "hint": self.hint,
        }


@dataclass
class DiagnosticReport:
    """Ordered findings of one pass (or several merged passes)."""

    pass_name: str = "analysis"
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def emit(
        self,
        rule_id: str,
        location: str,
        message: str,
        severity: Optional[Severity] = None,
    ) -> Diagnostic:
        """Record one finding under a cataloged rule.

        ``severity`` overrides the rule's default (a gate may downgrade
        a rule to a warning without losing the rule id).
        """
        rule = RULES[rule_id]
        diag = Diagnostic(
            rule=rule.id,
            severity=severity or rule.severity,
            location=location,
            message=message,
            hint=rule.hint,
        )
        self.diagnostics.append(diag)
        return diag

    def extend(self, other: "DiagnosticReport") -> None:
        """Append every finding of another report, in order."""
        self.diagnostics.extend(other.diagnostics)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when no ERROR-severity diagnostics were emitted."""
        return not self.errors

    @property
    def clean(self) -> bool:
        """True when nothing at all was emitted (not even warnings)."""
        return not self.diagnostics

    def rule_ids(self) -> List[str]:
        """The rule id of every finding, in emission order."""
        return [d.rule for d in self.diagnostics]

    def render_text(self) -> str:
        """Multi-line text report (header, findings, ``clean`` marker)."""
        lines = [
            f"== {self.pass_name}: "
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s) =="
        ]
        lines.extend(d.render() for d in self.diagnostics)
        if self.clean:
            lines.append("clean")
        return "\n".join(lines)

    def to_json(self, indent: Optional[int] = 2) -> str:
        """JSON report: pass name, counts, and every finding."""
        return json.dumps(
            {
                "pass": self.pass_name,
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "diagnostics": [d.to_dict() for d in self.diagnostics],
            },
            indent=indent,
        )


def reports_document(reports: Sequence[DiagnosticReport]) -> Dict[str, Any]:
    """The shared JSON document for multi-report verification runs.

    Every front end that aggregates several passes —
    ``python -m repro.analysis --json`` and the lint ratchet — emits
    this exact shape so CI parses one schema: total counts plus one
    entry per pass.
    """
    return {
        "errors": sum(len(r.errors) for r in reports),
        "warnings": sum(len(r.warnings) for r in reports),
        "reports": [
            {
                "pass": r.pass_name,
                "errors": len(r.errors),
                "warnings": len(r.warnings),
                "diagnostics": [d.to_dict() for d in r.diagnostics],
            }
            for r in reports
        ],
    }
