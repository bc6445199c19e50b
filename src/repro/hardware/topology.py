"""Testbed topology builder.

Wires two hosts together the way the paper's evaluation machines are
wired: a 100 Gbit Omni-Path interconnect dedicated to replication and
migration traffic, and a 10 GbE service network carrying VM/client
traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .host import Host, testbed_host
from .link import Link, LinkPair
from .nic import Nic


@dataclass
class Testbed:
    """Two hosts plus the links between them."""

    primary: Host
    secondary: Host
    #: Replication/migration path (primary -> secondary + ack path).
    interconnect: LinkPair
    #: Service network from the external client's viewpoint into primary.
    service_primary: Link
    #: Service network into the secondary (used after failover).
    service_secondary: Link


def build_testbed(
    sim,
    primary_name: str = "host-A",
    secondary_name: str = "host-B",
    interconnect_nic: Optional[Nic] = None,
    **host_kwargs,
) -> Testbed:
    """Construct the two-host evaluation testbed (paper Table 3)."""
    primary = testbed_host(sim, primary_name, **host_kwargs)
    secondary = testbed_host(sim, secondary_name, **host_kwargs)
    nic = interconnect_nic or primary.interconnect
    interconnect = LinkPair(sim, nic, name=f"{primary_name}->{secondary_name}")
    service_primary = Link(sim, primary.service_nic, name=f"svc:{primary_name}")
    service_secondary = Link(sim, secondary.service_nic, name=f"svc:{secondary_name}")
    return Testbed(
        primary=primary,
        secondary=secondary,
        interconnect=interconnect,
        service_primary=service_primary,
        service_secondary=service_secondary,
    )
