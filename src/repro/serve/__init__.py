"""``repro.serve`` — fault-tolerant multi-tenant serving simulation.

The serving layer answers the question the offline stack cannot:
*what happens to encrypted-inference latency when accelerators fail?*
Clients submit jobs (ResNet / HELR / bootstrapping), an admission +
batching front groups compatible requests, and a fleet scheduler
places batches on simulated accelerators whose per-request service
times come from the :mod:`repro.dse` result cache — warm replay,
never a cold DP search online.

The headline is the **deterministic fault-injection plane**
(:mod:`repro.serve.faults`): a seeded :class:`FaultPlan` schedules
crashes, stragglers, transient errors, and cache corruption over the
run, and the recovery machinery — retry with exponential backoff +
seeded jitter, hedged requests, health-checked eviction/rejoin, and
priority load shedding — absorbs them.  Everything runs on a virtual
clock, so the same seed replays the identical run byte for byte;
chaos testing becomes a regression test.

Quickstart::

    python -m repro.serve run --quick --faults quick --seed 7

Public surface: :class:`ServeSimulator`, :class:`ServeSummary`,
:class:`FaultPlan`, :class:`FaultEvent`, :class:`ServePolicies`,
:class:`LoadSpec`, :class:`TenantSpec`, :class:`FleetSpec`, the
:class:`TableOracle`, and the request/outcome types.
"""

from repro.serve.faults import (
    FAULT_KINDS,
    FAULT_PRESETS,
    FaultEvent,
    FaultPlan,
)
from repro.serve.fleet import (
    AcceleratorNode,
    DEFAULT_SERVICE_SECONDS,
    Fleet,
    FleetSpec,
    TableOracle,
)
from repro.serve.loadgen import (
    DEFAULT_TENANTS,
    LoadGenerator,
    LoadSpec,
    TenantSpec,
)
from repro.serve.policies import (
    AdmissionPolicy,
    BatchingPolicy,
    HealthPolicy,
    HedgePolicy,
    ObservabilityPolicy,
    RetryPolicy,
    ServePolicies,
)
from repro.serve.requests import (
    AdmissionQueue,
    Batch,
    OUTCOME_STATUSES,
    RequestOutcome,
    ServeRequest,
)
from repro.serve.sim import ServeSimulator, ServeSummary

__all__ = [
    "AcceleratorNode",
    "AdmissionPolicy",
    "AdmissionQueue",
    "Batch",
    "BatchingPolicy",
    "DEFAULT_SERVICE_SECONDS",
    "DEFAULT_TENANTS",
    "FAULT_KINDS",
    "FAULT_PRESETS",
    "FaultEvent",
    "FaultPlan",
    "Fleet",
    "FleetSpec",
    "HealthPolicy",
    "HedgePolicy",
    "LoadGenerator",
    "LoadSpec",
    "OUTCOME_STATUSES",
    "ObservabilityPolicy",
    "RequestOutcome",
    "RetryPolicy",
    "ServePolicies",
    "ServeRequest",
    "ServeSimulator",
    "ServeSummary",
    "TableOracle",
    "TenantSpec",
]
