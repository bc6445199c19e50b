"""Hypervisor failure exceptions."""

from __future__ import annotations


class HypervisorError(Exception):
    """Base class for hypervisor-level errors."""


class HypervisorDown(HypervisorError):
    """An operation reached a crashed or hung hypervisor."""

    def __init__(self, name: str, state: str):
        super().__init__(f"hypervisor {name!r} is {state}")
        self.hypervisor_name = name
        self.state = state


class GuestNotFound(HypervisorError):
    """Operation on a VM the hypervisor does not manage."""


class IncompatibleGuest(HypervisorError):
    """The guest's feature set cannot run on this hypervisor."""

