"""The state translator: guest state across hypervisor boundaries (§5.3, §7.4).

Translation follows the heterogeneous-migration lineage the paper cites
(Vagrant, HyperTP): parse the source hypervisor's serialisation format
into a *common intermediate representation* (the architectural state of
:mod:`repro.vm.vcpu` plus architectural device state), then rebuild the
target hypervisor's format from it.  The payload layouts live only in
the two format codecs, :mod:`repro.hypervisor.xen.formats` and
:mod:`repro.hypervisor.kvm.formats`; the translator composes their
``unpack``/``pack`` and record converters.  It also owns the
platform-compatibility step: masking the guest's CPUID feature set to
the intersection both hypervisors can provide, so the guest can safely
resume on either side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..hypervisor.base import Hypervisor, parse_vcpus
from ..hypervisor.errors import IncompatibleGuest
from ..hypervisor.features import compatible_featureset, incompatibilities
from ..hypervisor.kvm import formats as kvm_formats
from ..hypervisor.xen import formats as xen_formats
from ..vm.machine import VirtualMachine
from ..vm.vcpu import VcpuArchState

#: CPU-side cost of translating one vCPU's state (register repacking,
#: MSR filtering, LAPIC conversion).  Small, but real — part of the
#: checkpoint constant on the replica side.
TRANSLATION_COST_PER_VCPU = 120e-6
#: Cost of translating one device record.
TRANSLATION_COST_PER_DEVICE = 40e-6

#: Format id -> the codec module that owns that payload layout.
_CODECS = {xen_formats.FORMAT: xen_formats, kvm_formats.FORMAT: kvm_formats}


def _codec(format_id, role: str):
    """The codec of ``format_id``; ``role`` names it in the error."""
    try:
        return _CODECS[format_id]
    except KeyError:
        raise KeyError(
            f"unknown {role} format {format_id!r}; "
            f"supported: {tuple(sorted(_CODECS))}"
        ) from None


@dataclass
class IntermediateState:
    """The common representation between hypervisor formats."""

    vcpus: List[VcpuArchState]
    devices: List[dict]
    features: FrozenSet[str]
    memory_pages: int


class StateTranslator:
    """Converts guest-state payloads between hypervisor formats."""

    def __init__(self):
        self.translations_performed = 0
        #: Parsed-vCPU reuse across checkpoints of the same guest; see
        #: :func:`~repro.hypervisor.base.parse_vcpus`.  Per-translator,
        #: so it lives exactly as long as the replication/migration
        #: engine that owns it.
        self._vcpu_cache: Dict[int, Tuple[dict, VcpuArchState]] = {}

    # -- feature compatibility ------------------------------------------------
    @staticmethod
    def compatible_features(*hypervisors: Hypervisor) -> FrozenSet[str]:
        """Features a guest may use on every listed hypervisor."""
        return compatible_featureset(
            *(hypervisor.cpuid_features() for hypervisor in hypervisors)
        )

    @classmethod
    def prepare_guest(cls, vm: VirtualMachine, *hypervisors: Hypervisor) -> FrozenSet[str]:
        """Mask the guest's CPUID features for safe cross-resume (§7.4).

        Must run before the guest boots its workload in a real system;
        in the simulation we apply it at replication setup.  Returns
        the masked feature set.
        """
        allowed = cls.compatible_features(*hypervisors)
        vm.enabled_features = frozenset(vm.enabled_features) & allowed
        return vm.enabled_features

    # -- payload translation -----------------------------------------------------
    def parse(self, payload: dict, use_cache: bool = True) -> IntermediateState:
        """Parse ``payload`` into the common intermediate representation.

        The integrity machinery audits replica state through this: the
        semantic digest is defined over the intermediate representation,
        which both formats round-trip losslessly.  ``use_cache=False``
        forces a fresh parse of every vCPU record — required when the
        point is to detect in-place rot that an identity-keyed cache hit
        would mask.
        """
        codec = _codec(payload.get("format"), "source")
        return self._parse(codec, payload, self._vcpu_cache if use_cache else None)

    @staticmethod
    def _parse(codec, payload: dict, cache: Optional[Dict]) -> IntermediateState:
        vcpus, devices, features, memory_pages = codec.unpack(payload)
        return IntermediateState(
            vcpus=parse_vcpus(vcpus, codec.record_to_vcpu, cache),
            devices=[codec.record_to_device_state(r) for r in devices],
            features=features,
            memory_pages=memory_pages,
        )

    def build(self, state: IntermediateState, format_id: str) -> dict:
        """Rebuild a payload in ``format_id`` from intermediate state."""
        return self._build(_codec(format_id, "target"), state)

    @staticmethod
    def _build(codec, state: IntermediateState) -> dict:
        return codec.pack(
            [codec.vcpu_to_record(v) for v in state.vcpus],
            [codec.translated_device_record(d) for d in state.devices],
            state.features,
            state.memory_pages,
        )

    def translate(self, payload: dict, target: Hypervisor) -> dict:
        """Translate ``payload`` into ``target``'s native format.

        Raises :class:`IncompatibleGuest` when the guest uses features
        the target cannot expose (meaning ``prepare_guest`` was not
        applied).
        """
        source = _codec(payload.get("format"), "source")
        codec = _codec(target.state_format, "target")
        intermediate = self._parse(source, payload, self._vcpu_cache)
        missing = incompatibilities(intermediate.features, target.cpuid_features())
        if missing:
            raise IncompatibleGuest(
                f"guest state uses features {sorted(missing)} that "
                f"{target.product} cannot expose; prepare_guest() must "
                "mask features before replication starts"
            )
        self.translations_performed += 1
        if codec is source:
            return payload
        return self._build(codec, intermediate)

    def translation_cost(self, vcpus: int, devices: int) -> float:
        """Simulated CPU time of one payload translation."""
        if vcpus < 0 or devices < 0:
            raise ValueError("counts must be non-negative")
        return (
            vcpus * TRANSLATION_COST_PER_VCPU
            + devices * TRANSLATION_COST_PER_DEVICE
        )
