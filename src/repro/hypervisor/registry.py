"""Hypervisor flavor registry.

Orchestration code (the libvirt-style facade in :mod:`repro.cluster`)
installs hypervisors by flavor name, so data-center configurations can
be described as plain data.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..hardware.host import Host
from .base import Hypervisor
from .kvm.hypervisor import KvmHypervisor
from .xen.hypervisor import XenHypervisor

_REGISTRY: Dict[str, Callable[..., Hypervisor]] = {
    "xen": XenHypervisor,
    "kvm": KvmHypervisor,
}


def available_flavors() -> List[str]:
    """Installable flavor names, sorted."""
    return sorted(_REGISTRY)


def install(flavor: str, sim, host: Host, **kwargs) -> Hypervisor:
    """Install a hypervisor of ``flavor`` onto ``host``."""
    try:
        factory = _REGISTRY[flavor]
    except KeyError:
        raise KeyError(
            f"unknown hypervisor flavor {flavor!r}; "
            f"available: {available_flavors()}"
        ) from None
    return factory(sim, host, **kwargs)
