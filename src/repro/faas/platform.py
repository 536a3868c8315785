"""The top-level simulation object experiments drive."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.errors import TraceError
from repro.faas.controller import Controller
from repro.faas.function import FunctionSpec
from repro.faas.keepalive import FixedKeepAlive, KeepAlivePolicy
from repro.faas.policy import OffloadPolicy
from repro.faas.request import Invocation, RequestRecord
from repro.faas.sharing import SharedRuntimeRegistry
from repro.faults import FaultInjector, FaultSchedule, FaultSpec
from repro.mem.node import ComputeNode
from repro.metrics.latency import LatencyStats
from repro.metrics.memory import MemoryTimeline
from repro.metrics.summary import RunSummary
from repro.metrics.timeweighted import TimeWeightedAccumulator
from repro.obs import runtime as obs_runtime
from repro.obs.audit import InvariantAuditor
from repro.obs.trace import Tracer
from repro.pool.bandwidth import BandwidthMonitor
from repro.pool.fastswap import Fastswap
from repro.pool.link import LinkConfig, LinkDirection
from repro.pool.tier import TieredPool, TierTopology
from repro.sim.engine import Engine
from repro.sim.randomness import RandomStreams
from repro.units import MINUTE
from repro.workloads.profile import WorkloadProfile

if TYPE_CHECKING:
    from repro.pressure.governor import PressureConfig


@dataclass
class PlatformConfig:
    """One platform's run configuration (paper §8.1 defaults).

    Everything that shapes a run travels here, explicitly: experiment
    harnesses take one as ``platform_config`` and derive per-platform
    copies with :func:`dataclasses.replace`.
    """

    node_capacity_mib: float = 64 * 1024  # 64 GB compute node
    pool_capacity_mib: float = 64 * 1024  # 64 GB memory node
    keep_alive_s: float = 10 * MINUTE
    link: LinkConfig = field(default_factory=LinkConfig)
    strict_node_capacity: bool = False
    # Scale-out hysteresis: an arrival with no idle container first
    # queues on a busy/launching container whose backlog is below this
    # bound; only when every container is saturated does the platform
    # cold-start another one (OpenWhisk-style activation handling).
    # The default of 1 lets a busy container absorb one waiter before
    # the fleet scales out.
    max_queue_per_container: int = 1
    # Keep-alive heartbeat: the action proxy answers controller health
    # pings every this many seconds while idle, touching the hot
    # runtime core (0 disables). This is why the runtime's hot core
    # never truly goes cold in a real deployment.
    heartbeat_s: float = 25.0
    # FAASM-style runtime sharing (§9 discussion): one runtime image
    # per function per node instead of one per container.
    share_runtime: bool = False
    # Memory-pressure eviction: when a cold start's quota does not fit
    # the node's free capacity, reclaim least-recently-idle containers
    # early to make room (what a real invoker does on a memory-
    # stranded node).
    evict_on_pressure: bool = False
    seed: int = 42
    # Structured event tracing (repro.obs). Off by default: with no
    # tracer attached every emission site is a single ``is not None``
    # check. ``audit_events`` additionally attaches the invariant
    # auditor to the trace stream (and implies tracing).
    trace_events: bool = False
    audit_events: bool = False
    trace_capacity: int = 1 << 16
    # Deterministic fault injection (repro.faults): a FaultSpec (one
    # concrete schedule is drawn from it) or a ready FaultSchedule.
    # None constructs no injector at all, so the datapath stays on its
    # zero-cost ``injector is None`` path.
    faults: Optional[Union[FaultSpec, FaultSchedule]] = None
    # Memory-pressure governor (repro.pressure). None constructs no
    # governor, so every hook stays on its zero-cost
    # ``governor is None`` path.
    pressure: Optional[PressureConfig] = None
    # Pool hierarchy below node DRAM. None is TierTopology.flat(): the
    # paper's single pool node behind one link.
    tiers: Optional[TierTopology] = None


@dataclass
class ContainerHistory:
    """Lifetime record of one (possibly reclaimed) container."""

    container_id: str
    function: str
    created_at: float
    reclaimed_at: Optional[float] = None
    requests_served: int = 0


class ServerlessPlatform:
    """Compute node + memory pool + controller + offloading policy."""

    def __init__(
        self,
        policy: OffloadPolicy,
        config: Optional[PlatformConfig] = None,
        keep_alive: Optional[KeepAlivePolicy] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config = config or PlatformConfig()
        self.engine = Engine()
        self.streams = RandomStreams(seed=config.seed)
        # Invocation ids are this platform's own sequence (region ids
        # are its compute node's), so a run's trace stream depends on
        # nothing else built in the process.
        self._invocation_ids = itertools.count(1)
        # Observability: an explicit tracer or the config enables
        # tracing; auditing subscribes the invariant checker to the
        # same stream. Every traced platform reports to the session
        # registry.
        if tracer is None and (config.trace_events or config.audit_events):
            tracer = Tracer(clock=lambda: self.engine.now, capacity=config.trace_capacity)
        self.tracer = tracer
        self.auditor: Optional[InvariantAuditor] = None
        if tracer is not None:
            self.engine.tracer = tracer
            if config.audit_events:
                self.auditor = InvariantAuditor().attach(tracer)
            session = obs_runtime.ObsSession(policy.name, tracer, self.auditor)
            obs_runtime.register_session(session)
        self.node = ComputeNode(
            clock=lambda: self.engine.now,
            capacity_mib=config.node_capacity_mib,
            strict=config.strict_node_capacity,
        )
        self.pool = TieredPool(
            clock=lambda: self.engine.now,
            topology=config.tiers or TierTopology.flat(),
            default_capacity_mib=config.pool_capacity_mib,
            default_link=config.link,
        )
        self.fastswap = Fastswap(self.engine, self.pool)
        self.link = self.fastswap.link
        if tracer is not None:
            for link in self.fastswap.links():
                link.tracer = tracer
            self.fastswap.tracer = tracer
        self.bandwidth_monitor = BandwidthMonitor(self.link)
        self.keep_alive = keep_alive or FixedKeepAlive(config.keep_alive_s)
        self.controller = Controller(self)
        self.runtime_shares = SharedRuntimeRegistry(self)
        faults = config.faults
        if isinstance(faults, FaultSpec):
            faults = FaultSchedule.from_spec(faults)
        self.fault_injector = None if faults is None else FaultInjector(self, faults).attach()
        self.governor = None
        if config.pressure is not None:
            # Imported here: repro.pressure imports repro.faas.
            from repro.pressure.governor import MemoryPressureGovernor

            self.governor = MemoryPressureGovernor(self, config.pressure).attach()
        self.policy = policy
        self._functions: Dict[str, FunctionSpec] = {}
        self.records: List[RequestRecord] = []
        self.container_history: List[ContainerHistory] = []
        self._history_by_id: Dict[str, ContainerHistory] = {}
        self._alive_containers = TimeWeightedAccumulator(start_time=0.0, value=0.0)
        # Observers called with each Invocation just before dispatch
        # (used by prewarming and other platform add-ons).
        self.on_invocation: List = []
        policy.attach(self)

    # ------------------------------------------------------------------
    # Function management
    # ------------------------------------------------------------------

    def register_function(self, name: str, profile: WorkloadProfile) -> FunctionSpec:
        """Deploy a function under ``name`` with the given profile."""
        spec = FunctionSpec(name=name, profile=profile)
        self._functions[name] = spec
        return spec

    def function(self, name: str) -> FunctionSpec:
        try:
            return self._functions[name]
        except KeyError:
            known = ", ".join(sorted(self._functions)) or "(none)"
            raise TraceError(f"unknown function {name!r}; registered: {known}") from None

    # ------------------------------------------------------------------
    # Driving the simulation
    # ------------------------------------------------------------------

    def submit(self, function: str, at_time: float) -> None:
        """Schedule one invocation of ``function`` at ``at_time``."""
        self.function(function)  # validate early

        def fire() -> None:
            invocation = Invocation(
                function=function,
                arrival=self.engine.now,
                invocation_id=next(self._invocation_ids),
            )
            for observer in self.on_invocation:
                observer(invocation)
            self.controller.dispatch(invocation)

        self.engine.schedule_at(at_time, fire, name=f"invoke:{function}")

    def run_trace(self, trace, until: Optional[float] = None) -> None:
        """Submit (time, function) pairs and run to completion.

        ``trace`` is any iterable of ``(timestamp, function_name)``.
        """
        last = 0.0
        for timestamp, function in trace:
            if timestamp < last:
                raise TraceError("trace timestamps must be non-decreasing")
            last = timestamp
            self.submit(function, timestamp)
        self.run(until=until)

    def run(self, until: Optional[float] = None) -> None:
        """Run pending events (keep-alive expiries included)."""
        self.engine.run(until=until)
        self.policy.detach()
        if self.auditor is not None:
            self.auditor.finalize(self)

    # ------------------------------------------------------------------
    # Bookkeeping callbacks
    # ------------------------------------------------------------------

    def record(self, record: RequestRecord) -> None:
        self.records.append(record)
        history = self._history_by_id.get(record.container_id)
        if history is not None:
            history.requests_served += 1

    def note_container_created(self, container) -> None:
        history = ContainerHistory(
            container_id=container.container_id,
            function=container.function.name,
            created_at=self.engine.now,
        )
        self.container_history.append(history)
        self._history_by_id[container.container_id] = history
        self._alive_containers.add(self.engine.now, 1)
        if self.governor is not None:
            self.governor.on_container_created(container)

    def note_container_reclaimed(self, container) -> None:
        history = self._history_by_id.get(container.container_id)
        if history is not None:
            history.reclaimed_at = self.engine.now
        self._alive_containers.add(self.engine.now, -1)
        if self.governor is not None:
            self.governor.on_container_reclaimed(container)

    @property
    def alive_container_average(self) -> float:
        """Time-weighted mean number of live containers."""
        return self._alive_containers.average(self.engine.now)

    def alive_container_average_between(self, start: float, end: float) -> float:
        """Time-weighted mean live containers over [start, end]."""
        return self._alive_containers.average_between(start, end)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------

    def latencies(self, function: Optional[str] = None) -> LatencyStats:
        stats = LatencyStats()
        for record in self.records:
            if function is None or record.function == function:
                stats.record(record.latency)
        return stats

    def latency_breakdown(self, function: Optional[str] = None) -> Dict[str, float]:
        """Mean per-component latency decomposition across requests."""
        records = [
            r for r in self.records if function is None or r.function == function
        ]
        if not records:
            raise TraceError("no requests recorded; nothing to decompose")
        n = len(records)
        return {
            "queue_wait_s": sum(r.queue_wait for r in records) / n,
            "fault_stall_s": sum(r.fault_stall_s for r in records) / n,
            "reclaim_stall_s": sum(r.reclaim_stall_s for r in records) / n,
            "exec_s": sum(r.exec_time for r in records) / n,
            "total_s": sum(r.latency for r in records) / n,
        }

    def summarize_by_function(
        self, trace: str = "", window: Optional[float] = None
    ) -> Dict[str, RunSummary]:
        """Per-function summaries for multi-function runs.

        Memory is node-global (containers share the node), so each
        summary carries the same timeline; latency and counters are
        per function.
        """
        summaries: Dict[str, RunSummary] = {}
        for name in sorted(self._functions):
            stats = self.latencies(name)
            if stats.count == 0:
                continue
            records = [r for r in self.records if r.function == name]
            summaries[name] = RunSummary(
                system=self.policy.name,
                benchmark=name,
                trace=trace,
                requests=stats.count,
                cold_starts=sum(1 for r in records if r.cold_start),
                latency_mean=stats.mean,
                latency_p50=stats.p50,
                latency_p95=stats.p95,
                latency_p99=stats.p99,
                memory=self.memory_timeline(window),
            )
        return summaries

    def memory_timeline(self, window: Optional[float] = None) -> MemoryTimeline:
        """Node memory usage, averaged over [0, window].

        ``window`` defaults to the full run (including the keep-alive
        drain after the last request). Experiments that replay a
        fixed-length trace pass the trace duration, matching how the
        paper reports average memory over the measurement hour.
        """
        samples = self.node.usage_samples()
        if window is None:
            average = self.node.average_pages(self.engine.now)
            peak = float(self.node.peak_pages)
        else:
            average = self.node.average_pages_between(0.0, window)
            peak = self.node.peak_pages_between(0.0, window)
        return MemoryTimeline(
            points=[(t, v) for t, v in samples],
            average_pages=average,
            peak_pages=peak,
        )

    def summarize(
        self, benchmark: str = "", trace: str = "", window: Optional[float] = None
    ) -> RunSummary:
        """Collapse the run into a :class:`RunSummary` row."""
        stats = self.latencies()
        if stats.count == 0:
            raise TraceError("run produced no requests; nothing to summarize")
        duration = max(window if window is not None else self.engine.now, 1e-9)
        cold_starts = sum(1 for r in self.records if r.cold_start)
        return RunSummary(
            system=self.policy.name,
            benchmark=benchmark,
            trace=trace,
            requests=stats.count,
            cold_starts=cold_starts,
            latency_mean=stats.mean,
            latency_p50=stats.p50,
            latency_p95=stats.p95,
            latency_p99=stats.p99,
            memory=self.memory_timeline(window),
            offloaded_mib_total=self.fastswap.stats.offloaded_mib,
            recalled_mib_total=self.fastswap.stats.recalled_mib,
            remote_peak_mib=self.pool.peak_pages * 4096 / (1024 * 1024),
            remote_avg_mib=self.pool.average_mib(self.engine.now),
            avg_offload_bandwidth_mibps=(
                sum(
                    link.bytes_moved(LinkDirection.OUT, 0.0, duration)
                    for link in self.fastswap.links()
                )
                / duration
                / (1024 * 1024)
            ),
        )
