"""Simulated Xen 4.12 (type-1 hypervisor with a Dom0 control domain)."""

from . import formats
from .hypervisor import Dom0, XenHypervisor

__all__ = ["Dom0", "XenHypervisor", "formats"]
