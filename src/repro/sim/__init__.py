"""Event-driven performance simulator.

Consumes a :class:`~repro.sched.dataflow.Schedule` plus per-group
mappings and simulates execution group by group: operators within a
group run as pipeline stages with NoC link contention from the mapping's
hop distances, memory traffic queues on SRAM/DRAM bandwidth, and group
switches are fully synchronous barriers (Section IV-A).  Produces the
utilization and traffic statistics behind Table IV and Figure 11; the
engine names each step's limiting resource itself, and
:mod:`repro.obs.attribution` tabulates those winners from its events.

This event-driven engine substitutes the paper's RTL-matched
cycle-accurate simulator; see DESIGN.md for why the group-level
bottleneck interplay it captures is what drives the headline results.
"""

from repro.sim.engine import SimulationEngine, SimResult
from repro.sim.stats import TrafficReport, UtilizationReport
from repro.sim.trace import TraceEvent, dump_trace, load_trace

__all__ = [
    "SimulationEngine",
    "SimResult",
    "UtilizationReport",
    "TrafficReport",
    "TraceEvent",
    "dump_trace",
    "load_trace",
]
