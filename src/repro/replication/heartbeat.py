"""Heartbeat-based failure detection between the replication hosts.

HERE "relies on a periodic heartbeat between the primary and replica
hosts to ensure that the hypervisors are functioning normally" (§8.2).
The monitor runs on the secondary: it probes the primary at a fixed
interval and declares failure after ``miss_threshold`` consecutive
unanswered probes.  Crashes, hangs and host power loss all look the
same from here — no answer — which is exactly the property HERE needs:
the failover path does not care *why* the primary stopped.

:meth:`HeartbeatMonitor._probe_loop` is the one probe loop: the probe,
its ack-vs-deadline race, the alive rule, the failure reasons and the
``heartbeat.*`` records.  It hands each resolved probe to one
suspicion rule, :meth:`HeartbeatMonitor._verdict`; the miss counter
here is one rule, and :class:`~repro.faults.detection.PhiAccrualDetector`
overrides it with the phi-accrual rule.

External attack detectors (the CRIMES-style systems the paper cites)
can also declare failure directly via :meth:`HeartbeatMonitor.report_attack`.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Mapping, Optional, Tuple

from ..hardware.host import Host
from ..hardware.link import LinkPair
from ..hypervisor.base import Hypervisor
from ..simkernel.errors import Interrupt

#: What a suspicion rule returns when it declares failure: a suffix for
#: the failure reason and the evidence the ``heartbeat.failure_declared``
#: record carries.
Evidence = Tuple[str, Mapping[str, float]]


class HeartbeatMonitor:
    """Secondary-side prober of the primary host/hypervisor pair."""

    #: Names of the failure event and of the probing process.
    _failure_event_name = "heartbeat-failure"
    _process_name = "heartbeat"
    #: Extra attributes of every ``heartbeat.probe`` record.
    _probe_attrs: Mapping[str, float] = MappingProxyType({})

    def __init__(
        self,
        sim,
        primary_host: Host,
        primary_hypervisor: Hypervisor,
        link: LinkPair,
        interval: float = 0.03,
        miss_threshold: int = 3,
        probe_timeout: Optional[float] = None,
        degraded_miss_threshold: Optional[int] = None,
        loss_signal: Optional[Callable[[], bool]] = None,
    ):
        if interval <= 0:
            raise ValueError(f"interval must be positive: {interval}")
        if miss_threshold < 1:
            raise ValueError(f"miss_threshold must be >= 1: {miss_threshold}")
        if probe_timeout is not None and probe_timeout <= 0:
            raise ValueError(f"probe_timeout must be positive: {probe_timeout}")
        if (
            degraded_miss_threshold is not None
            and degraded_miss_threshold < miss_threshold
        ):
            raise ValueError(
                "degraded_miss_threshold must be >= miss_threshold: "
                f"{degraded_miss_threshold} < {miss_threshold}"
            )
        self.sim = sim
        self.primary_host = primary_host
        self.primary_hypervisor = primary_hypervisor
        self.link = link
        self.interval = interval
        self.miss_threshold = miss_threshold
        #: How long to wait for a probe's ack before counting a miss.
        #: Defaults to the probe interval — generous against jitter, yet
        #: bounded so a partitioned link cannot stall detection forever.
        self.probe_timeout = probe_timeout if probe_timeout is not None else interval
        #: Degraded-vs-dead discrimination (lossy links): while
        #: ``loss_signal()`` reports the transport is seeing loss *but
        #: still getting through*, missed probes are tolerated up to
        #: this higher threshold before failover fires.  A dead peer
        #: stops producing transport successes, so the signal drops and
        #: the normal threshold applies — degradation never masks a
        #: real failure.  Both default to None (classic behaviour).
        self.degraded_miss_threshold = degraded_miss_threshold
        self.loss_signal = loss_signal
        #: Succeeds with the failure reason when failure is declared.
        self.failure_detected = sim.event(name=self._failure_event_name)
        self.probes_sent = 0
        self.consecutive_misses = 0
        self.degraded_probes = 0
        self.last_success_at: Optional[float] = None
        self.process = None

    def start(self):
        """Begin probing; returns the monitor process."""
        if self.process is not None:
            raise RuntimeError(f"{self._process_name} already started")
        # Probing's start is the clock origin of a rule that measures
        # silences (phi); the miss counter never reads it.
        self.last_success_at = self.sim.now
        self.process = self.sim.process(self._probe_loop(), name=self._process_name)
        return self.process

    def stop(self) -> None:
        """Stop probing (clean replication shutdown)."""
        if self.process is not None and self.process.is_alive:
            self.process.interrupt("monitor stopped")

    def report_attack(self, description: str) -> None:
        """External detector path: declare the primary failed now.

        Used when an exploit-mitigation or intrusion-detection system
        (§6) downgrades an attack to a controlled crash — failover can
        start without waiting for missed heartbeats.
        """
        if not self.failure_detected.triggered:
            self.failure_detected.succeed(f"attack detected: {description}")

    @property
    def detection_latency_bound(self) -> float:
        """Worst-case time from failure to detection.

        Each probe cycle costs the interval plus, at worst, a full probe
        timeout (an unanswered probe on a partitioned link): after
        ``miss_threshold`` such cycles failure is declared.
        """
        per_cycle = self.interval + max(
            self.probe_timeout, self.link.round_trip_latency()
        )
        return per_cycle * self.miss_threshold

    def _verdict(self, alive: bool) -> Optional[Evidence]:
        """The suspicion rule: None while the primary is trusted.

        Counts consecutive misses against ``miss_threshold``, or against
        ``degraded_miss_threshold`` while ``loss_signal()`` holds.
        """
        if alive:
            self.consecutive_misses = 0
            self.last_success_at = self.sim.now
            return None
        self.consecutive_misses += 1
        threshold = self.miss_threshold
        if (
            self.degraded_miss_threshold is not None
            and self.loss_signal is not None
            and self.loss_signal()
        ):
            # The transport still commits epochs through the loss — the
            # peer is alive behind a bad wire.
            threshold = self.degraded_miss_threshold
            self.degraded_probes += 1
            bus = self.sim.telemetry
            if bus.enabled:
                bus.counter(
                    "heartbeat.degraded_miss",
                    1.0,
                    host=self.primary_host.name,
                    link=self.link.name,
                    misses=self.consecutive_misses,
                )
        if self.consecutive_misses < threshold:
            return None
        return "", {"misses": self.consecutive_misses}

    def _probe_loop(self):
        try:
            while not self.failure_detected.triggered:
                yield self.sim.timeout(self.interval)
                # Round trip to the primary (the probe itself), raced
                # against the probe timeout: a dead or partitioned link
                # drops the ack, and waiting on it alone would block
                # this loop forever.
                ack = self.link.ack(64)
                deadline = self.sim.timeout(self.probe_timeout)
                yield self.sim.any_of([ack, deadline])
                answered = ack.triggered
                self.probes_sent += 1
                alive = (
                    answered
                    and self.primary_host.is_up
                    and self.primary_hypervisor.is_responsive
                )
                bus = self.sim.telemetry
                # The flag first: a disabled bus (the fleet) costs no
                # call, and a scoped one builds no attrs for a record
                # nobody reads.
                if bus.enabled and bus.wants("heartbeat.probe"):
                    bus.counter(
                        "heartbeat.probe",
                        1.0,
                        host=self.primary_host.name,
                        link=self.link.name,
                        alive=alive,
                        **self._probe_attrs,
                    )
                evidence = self._verdict(alive)
                if evidence is None:
                    continue
                suffix, attrs = evidence
                if not answered:
                    reason = (
                        "heartbeat probes unanswered — primary "
                        "unreachable (link down or partitioned)"
                    )
                else:
                    reason = (
                        self.primary_hypervisor.failure_reason
                        or self.primary_host.failure_reason
                        or "primary unresponsive"
                    )
                reason += suffix
                if bus.enabled:
                    bus.counter(
                        "heartbeat.failure_declared",
                        1.0,
                        host=self.primary_host.name,
                        link=self.link.name,
                        reason=reason,
                        **attrs,
                    )
                if not self.failure_detected.triggered:
                    self.failure_detected.succeed(reason)
                return
        except Interrupt:
            return
