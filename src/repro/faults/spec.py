"""Declarative fault specifications and schedules.

A :class:`FaultSpec` names *what* breaks (a host, a hypervisor, a
guest, a link), *how* (crash, hang, degradation, partition, a real DoS
exploit), *when* (seconds after the schedule is armed) and — for
transient faults — *for how long* before the injector reverts it.
Specs are immutable values: the same schedule replayed against the
same seeded simulation produces the identical fault sequence, which is
what makes chaos campaigns reproducible.

A :class:`FaultSchedule` is an ordered bundle of specs, either written
by hand (the scenario suite) or drawn from a seeded random stream
(:meth:`FaultSchedule.random`, the campaign runner).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Tuple

from ..security.exploits import DosExploit


class FaultKind(Enum):
    """What kind of failure a spec injects."""

    #: Permanent host power loss (``Host.fail``).
    HOST_CRASH = "host-crash"
    #: Host fails, then reboots after ``duration`` (``Host.recover``);
    #: the hypervisor comes back empty — guests do not survive.
    HOST_TRANSIENT = "host-transient"
    #: Hypervisor core crash — guests die with it.
    HYPERVISOR_CRASH = "hypervisor-crash"
    #: Hypervisor stops responding; guests stall but survive in memory.
    HYPERVISOR_HANG = "hypervisor-hang"
    #: DoS by resource exhaustion: operations slow by ``starvation_factor``.
    HYPERVISOR_STARVE = "hypervisor-starve"
    #: The guest OS crashes itself (fork bomb, kernel panic).
    GUEST_CRASH = "guest-crash"
    #: Throttle a link: scale bandwidth and/or add latency, optionally
    #: reverting after ``duration``.
    LINK_DEGRADE = "link-degrade"
    #: Cut a link entirely (network partition), optionally reverting.
    LINK_PARTITION = "link-partition"
    #: Drop each packet on a link with probability ``loss_rate``.
    LINK_LOSS = "link-loss"
    #: Corrupt each checkpoint chunk with probability ``corrupt_rate``
    #: (caught by the reliable transport's checksums and NACKed).
    PACKET_CORRUPT = "packet-corrupt"
    #: Add a uniform random delay in ``[0, jitter_s]`` to each message.
    LATENCY_JITTER = "latency-jitter"
    #: Launch a real DoS exploit from the CVE dataset at the target
    #: host's hypervisor (bounces if the CVE does not affect it).
    EXPLOIT = "exploit"
    #: Every host in one zone goes dark at once (power/cooling domain
    #: failure).  A fleet-scale fault: the per-pair injector rejects
    #: it; :class:`repro.fleet` fans it out across shards — finite
    #: ``duration`` means the zone's hosts reboot afterwards, infinite
    #: means they stay down.  Target is a zone name.
    ZONE_OUTAGE = "zone-outage"
    #: Same blast semantics scoped to one rack; target is "zone/rack".
    RACK_OUTAGE = "rack-outage"
    #: Silent corruption: the state translator mis-repacks every
    #: checkpoint payload while armed (a flipped control-register bit
    #: in translation) — invisible to wire checksums, caught only by
    #: the semantic digest.  Target is a VM name; transient (reverting
    #: models a translator bug-fix rollout).
    TRANSLATOR_DRIFT = "translator-drift"
    #: Silent corruption: the replica's committed state rots in memory
    #: (a flipped register bit in the last applied payload).  Target is
    #: a VM name.
    REPLICA_BITROT = "replica-bitrot"
    #: Silent corruption: a device record of the replica's committed
    #: state is truncated as if an epoch apply tore half-way.  Target
    #: is a VM name.
    TORN_APPLY = "torn-apply"
    #: A correlated multi-fault event: ``parts`` fire relative to this
    #: spec's trigger time (e.g. a partition followed by a host crash).
    CORRELATED = "correlated"


#: Kinds the injector reverts after ``duration`` (when finite).
TRANSIENT_KINDS = frozenset(
    {
        FaultKind.HOST_TRANSIENT,
        FaultKind.LINK_DEGRADE,
        FaultKind.LINK_PARTITION,
        FaultKind.LINK_LOSS,
        FaultKind.PACKET_CORRUPT,
        FaultKind.LATENCY_JITTER,
        FaultKind.TRANSLATOR_DRIFT,
    }
)
#: Kinds whose target is a host name.
HOST_KINDS = frozenset(
    {
        FaultKind.HOST_CRASH,
        FaultKind.HOST_TRANSIENT,
        FaultKind.HYPERVISOR_CRASH,
        FaultKind.HYPERVISOR_HANG,
        FaultKind.HYPERVISOR_STARVE,
        FaultKind.EXPLOIT,
    }
)
#: Kinds whose target is a link (or link-pair) name.
LINK_KINDS = frozenset(
    {
        FaultKind.LINK_DEGRADE,
        FaultKind.LINK_PARTITION,
        FaultKind.LINK_LOSS,
        FaultKind.PACKET_CORRUPT,
        FaultKind.LATENCY_JITTER,
    }
)
#: Kinds whose target is a VM name.
VM_KINDS = frozenset({FaultKind.GUEST_CRASH})
#: Silent-corruption kinds (target is a VM name; dispatched to the
#: VM's :class:`~repro.integrity.monitor.IntegrityMonitor`).  Only
#: engines with integrity enabled can host them — the corruption is
#: applied through the semantic-digest machinery itself.
CORRUPTION_KINDS = frozenset(
    {
        FaultKind.TRANSLATOR_DRIFT,
        FaultKind.REPLICA_BITROT,
        FaultKind.TORN_APPLY,
    }
)
#: Fleet-scale kinds whose target is a failure domain (zone or
#: "zone/rack"), not a single host — only the fleet layer, which knows
#: the :class:`~repro.cluster.fleetplan.Topology`, can fan them out.
ZONE_KINDS = frozenset({FaultKind.ZONE_OUTAGE, FaultKind.RACK_OUTAGE})


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault.

    ``at`` is relative: seconds after the schedule is armed (top-level
    specs) or after the enclosing CORRELATED event fires (``parts``).
    """

    kind: FaultKind
    #: Host / link / VM name, resolved by the injector's registries.
    target: str = ""
    at: float = 0.0
    #: Transient kinds revert after this long; ``inf`` = never revert.
    duration: float = math.inf
    reason: str = ""
    # -- LINK_DEGRADE knobs --
    bandwidth_factor: float = 1.0
    extra_latency_s: float = 0.0
    # -- lossy-link knobs (LINK_LOSS / PACKET_CORRUPT / LATENCY_JITTER) --
    loss_rate: float = 0.0
    corrupt_rate: float = 0.0
    jitter_s: float = 0.0
    # -- HYPERVISOR_STARVE knob --
    starvation_factor: float = 8.0
    # -- EXPLOIT payload --
    exploit: Optional[DosExploit] = None
    # -- CORRELATED payload --
    parts: Tuple["FaultSpec", ...] = ()

    def __post_init__(self):
        if self.at < 0:
            raise ValueError(f"fault time must be >= 0: {self.at}")
        if self.duration <= 0:
            raise ValueError(f"fault duration must be positive: {self.duration}")
        if self.kind is FaultKind.CORRELATED:
            if not self.parts:
                raise ValueError("a CORRELATED fault needs at least one part")
            if any(p.kind is FaultKind.CORRELATED for p in self.parts):
                raise ValueError("CORRELATED faults do not nest")
            return
        if self.parts:
            raise ValueError(f"only CORRELATED faults carry parts, not {self.kind}")
        if not self.target:
            raise ValueError(f"a {self.kind.value} fault needs a target")
        if self.kind is FaultKind.EXPLOIT and self.exploit is None:
            raise ValueError("an EXPLOIT fault needs a DosExploit payload")
        if self.kind is FaultKind.HOST_TRANSIENT and not math.isfinite(self.duration):
            raise ValueError("a HOST_TRANSIENT fault needs a finite duration")
        if self.kind is FaultKind.LINK_DEGRADE:
            if not 0.0 < self.bandwidth_factor <= 1.0:
                raise ValueError(
                    f"bandwidth_factor must be in (0, 1]: {self.bandwidth_factor}"
                )
            if self.extra_latency_s < 0:
                raise ValueError(f"negative extra latency: {self.extra_latency_s}")
            if self.bandwidth_factor == 1.0 and self.extra_latency_s == 0.0:
                raise ValueError("a LINK_DEGRADE fault must actually degrade")
        if self.kind is FaultKind.LINK_LOSS and not 0.0 < self.loss_rate <= 1.0:
            raise ValueError(
                f"a LINK_LOSS fault needs loss_rate in (0, 1]: {self.loss_rate}"
            )
        if (
            self.kind is FaultKind.PACKET_CORRUPT
            and not 0.0 < self.corrupt_rate <= 1.0
        ):
            raise ValueError(
                "a PACKET_CORRUPT fault needs corrupt_rate in (0, 1]: "
                f"{self.corrupt_rate}"
            )
        if self.kind is FaultKind.LATENCY_JITTER and self.jitter_s <= 0.0:
            raise ValueError(
                f"a LATENCY_JITTER fault needs jitter_s > 0: {self.jitter_s}"
            )
        if self.kind is FaultKind.HYPERVISOR_STARVE and self.starvation_factor < 1.0:
            raise ValueError(
                f"starvation_factor must be >= 1: {self.starvation_factor}"
            )

    @property
    def reverts(self) -> bool:
        """Whether the injector undoes this fault after ``duration``."""
        return self.kind in TRANSIENT_KINDS and math.isfinite(self.duration)

    def describe(self) -> str:
        label = f"{self.kind.value} on {self.target!r} at +{self.at:g}s"
        if self.kind is FaultKind.CORRELATED:
            inner = ", ".join(p.describe() for p in self.parts)
            return f"correlated at +{self.at:g}s [{inner}]"
        if self.reverts or (
            self.kind in ZONE_KINDS and math.isfinite(self.duration)
        ):
            label += f" for {self.duration:g}s"
        return label


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered, immutable sequence of fault specs."""

    specs: Tuple[FaultSpec, ...] = ()

    def __post_init__(self):
        ordered = tuple(sorted(self.specs, key=lambda s: s.at))
        object.__setattr__(self, "specs", ordered)

    def __iter__(self):
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    @classmethod
    def single(cls, spec: FaultSpec) -> "FaultSchedule":
        return cls(specs=(spec,))

    @classmethod
    def random(
        cls,
        rng,
        hosts: Sequence[str] = (),
        links: Sequence[str] = (),
        vms: Sequence[str] = (),
        zones: Sequence[str] = (),
        kinds: Sequence[FaultKind] = (
            FaultKind.HOST_CRASH,
            FaultKind.HYPERVISOR_CRASH,
            FaultKind.HYPERVISOR_HANG,
        ),
        count: int = 1,
        window: Tuple[float, float] = (0.0, 30.0),
        transient_duration: Tuple[float, float] = (2.0, 10.0),
    ) -> "FaultSchedule":
        """Draw a schedule from a seeded ``random.Random`` stream.

        Only kinds whose target category has candidates are eligible; a
        kind with no possible target is skipped rather than raising, so
        one kind list serves topologies with and without link targets.
        ``zones`` feeds the fleet-scale :data:`ZONE_KINDS` (zone names
        for ZONE_OUTAGE, "zone/rack" labels for RACK_OUTAGE) — drawn
        outages get a finite duration so the domain reboots.
        """
        eligible = [
            kind
            for kind in kinds
            if (kind in HOST_KINDS and hosts)
            or (kind in LINK_KINDS and links)
            or (kind in VM_KINDS and vms)
            or (kind in CORRUPTION_KINDS and vms)
            or (kind in ZONE_KINDS and zones)
        ]
        if not eligible:
            raise ValueError(
                "no eligible fault kinds: every requested kind lacks targets"
            )
        low, high = window
        if low < 0 or high < low:
            raise ValueError(f"bad injection window: {window}")
        specs = []
        for _ in range(count):
            kind = rng.choice(eligible)
            if kind in HOST_KINDS:
                target = rng.choice(list(hosts))
            elif kind in LINK_KINDS:
                target = rng.choice(list(links))
            elif kind in ZONE_KINDS:
                target = rng.choice(list(zones))
            else:
                target = rng.choice(list(vms))
            at = rng.uniform(low, high)
            duration = math.inf
            if kind in TRANSIENT_KINDS or kind in ZONE_KINDS:
                duration = rng.uniform(*transient_duration)
            kwargs = dict(kind=kind, target=target, at=at, duration=duration)
            if kind is FaultKind.LINK_DEGRADE:
                kwargs["bandwidth_factor"] = rng.uniform(0.05, 0.5)
                kwargs["extra_latency_s"] = rng.uniform(0.0, 2e-3)
            elif kind is FaultKind.LINK_LOSS:
                kwargs["loss_rate"] = rng.uniform(0.02, 0.15)
            elif kind is FaultKind.PACKET_CORRUPT:
                kwargs["corrupt_rate"] = rng.uniform(0.02, 0.1)
            elif kind is FaultKind.LATENCY_JITTER:
                kwargs["jitter_s"] = rng.uniform(1e-4, 2e-3)
            specs.append(FaultSpec(**kwargs))
        return cls(specs=tuple(specs))


@dataclass
class InjectedFault:
    """The injector's record of one applied fault."""

    spec: FaultSpec
    fired_at: float
    detail: str = ""
    #: Set by the injector when a transient fault is undone.
    reverted_at: Optional[float] = None
