"""Invocation and request-record types."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Invocation:
    """One triggered request for a function."""

    function: str
    arrival: float
    # Issued by the platform from its own sequence, starting at 1.
    invocation_id: int = 0
    # Set by the controller when this invocation forces a new container.
    cold: bool = False
    # Times this invocation was re-dispatched after its container
    # crashed (repro.faults); the restart penalty shows up in latency
    # because arrival never changes.
    restarts: int = 0


@dataclass
class RequestRecord:
    """The observable outcome of one served request."""

    function: str
    container_id: str
    invocation_id: int
    arrival: float
    start: float
    completion: float
    cold_start: bool
    fault_stall_s: float = 0.0
    recalled_pages: int = 0
    # Container crashes survived before completion (repro.faults).
    restarts: int = 0
    # Synchronous memory-pressure stall (direct reclaim + memory.high
    # throttle) charged to this request (repro.pressure).
    reclaim_stall_s: float = 0.0

    @property
    def latency(self) -> float:
        """End-to-end latency: trigger to completion."""
        return self.completion - self.arrival

    @property
    def queue_wait(self) -> float:
        """Time between arrival and execution start (includes cold start)."""
        return self.start - self.arrival

    @property
    def exec_time(self) -> float:
        """Pure function execution time (service minus stalls)."""
        return max(
            0.0, self.completion - self.start - self.fault_stall_s - self.reclaim_stall_s
        )

    @property
    def semi_warm_start(self) -> bool:
        """Whether the request paid a remote recall on a warm container."""
        return not self.cold_start and self.fault_stall_s > 0

    def breakdown(self) -> dict:
        """Decompose the end-to-end latency into its components.

        The parts sum to :attr:`latency` exactly (tested), which keeps
        the latency accounting honest across policies.
        """
        return {
            "queue_wait_s": self.queue_wait,
            "fault_stall_s": self.fault_stall_s,
            "reclaim_stall_s": self.reclaim_stall_s,
            "exec_s": self.exec_time,
        }
