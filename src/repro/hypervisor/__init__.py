"""Simulated hypervisors: the heterogeneous substrate under HERE."""

from .base import Hypervisor, HypervisorState
from .errors import (
    GuestNotFound,
    HypervisorDown,
    HypervisorError,
    IncompatibleGuest,
)
from .features import (
    COMMON_FEATURES,
    KVM_EXTRA_FEATURES,
    KVM_FEATURES,
    XEN_EXTRA_FEATURES,
    XEN_FEATURES,
    compatible_featureset,
    incompatibilities,
)
from .kvm.hypervisor import KvmHypervisor
from .registry import available_flavors, install
from .xen.hypervisor import Dom0, XenHypervisor

__all__ = [
    "COMMON_FEATURES",
    "Dom0",
    "GuestNotFound",
    "Hypervisor",
    "HypervisorDown",
    "HypervisorError",
    "HypervisorState",
    "IncompatibleGuest",
    "KVM_EXTRA_FEATURES",
    "KVM_FEATURES",
    "KvmHypervisor",
    "XEN_EXTRA_FEATURES",
    "XEN_FEATURES",
    "XenHypervisor",
    "available_flavors",
    "compatible_featureset",
    "incompatibilities",
    "install",
]
