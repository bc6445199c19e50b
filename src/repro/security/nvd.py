"""CVE records and the queryable vulnerability database.

Models the slice of the NIST National Vulnerability Database the paper
studies (§2): per-product CVE entries for 2013–2020 with CVSS 2.0
vectors, plus the extra classification dimensions of the paper's §8.2
deep-dive into Xen's DoS-only vulnerabilities (attack vector, target
component, post-attack outcome, required privilege).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Iterator, List, Optional

from .cvss import CvssVector


class AttackVectorCategory(Enum):
    """Where the vulnerability lives (the §8.2 partition)."""

    DEVICE_MANAGEMENT = "virtual device management"
    HYPERCALL = "hypercall processing"
    VCPU_MANAGEMENT = "vCPU management"
    SHADOW_PAGING = "shadow paging"
    VMEXIT = "VM exit handling"
    OTHER = "other components"


class TargetComponent(Enum):
    """What the exploit brings down (Table 5 rows)."""

    HYPERVISOR_STACK = "Xen, Dom0, Tools"
    GUEST_OS = "Guest OS"
    OTHER_SOFTWARE = "Other software"


class PostAttackOutcome(Enum):
    """Observable result of a successful DoS exploit (Table 5)."""

    CRASH = "Crash"
    HANG = "Hang"
    STARVATION = "Starvation"


class RequiredPrivilege(Enum):
    """Privilege the attacker needs inside the guest (§8.2)."""

    GUEST_USER = "guest user-space process"
    GUEST_KERNEL = "guest ring-0"


@dataclass(frozen=True)
class CveRecord:
    """One vulnerability entry."""

    cve_id: str
    product: str
    year: int
    cvss: CvssVector
    #: Source-code lineage of the vulnerable component ("xen",
    #: "qemu", "kvm", …) — shared lineage means shared vulnerability.
    component_lineage: str = ""
    attack_vector: Optional[AttackVectorCategory] = None
    target: Optional[TargetComponent] = None
    outcome: Optional[PostAttackOutcome] = None
    privilege: Optional[RequiredPrivilege] = None
    description: str = ""

    @property
    def has_availability_impact(self) -> bool:
        return self.cvss.has_availability_impact

    @property
    def is_dos_only(self) -> bool:
        return self.cvss.is_dos_only


class VulnerabilityDatabase:
    """In-memory queryable CVE collection."""

    def __init__(self, records: Iterable[CveRecord] = ()):
        self._records: List[CveRecord] = list(records)
        seen = set()
        for record in self._records:
            if record.cve_id in seen:
                raise ValueError(f"duplicate CVE id {record.cve_id!r}")
            seen.add(record.cve_id)

    def add(self, record: CveRecord) -> None:
        if any(existing.cve_id == record.cve_id for existing in self._records):
            raise ValueError(f"duplicate CVE id {record.cve_id!r}")
        self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[CveRecord]:
        return iter(self._records)

    # -- queries -------------------------------------------------------------
    def filter(self, predicate: Callable[[CveRecord], bool]) -> "VulnerabilityDatabase":
        return VulnerabilityDatabase(
            record for record in self._records if predicate(record)
        )

    def for_product(self, product: str) -> "VulnerabilityDatabase":
        wanted = product.lower()
        return self.filter(lambda record: record.product.lower() == wanted)

    def in_years(self, first: int, last: int) -> "VulnerabilityDatabase":
        if first > last:
            raise ValueError(f"year range [{first}, {last}] is inverted")
        return self.filter(lambda record: first <= record.year <= last)

    def with_availability_impact(self) -> "VulnerabilityDatabase":
        return self.filter(lambda record: record.has_availability_impact)

    def dos_only(self) -> "VulnerabilityDatabase":
        return self.filter(lambda record: record.is_dos_only)

    def products(self) -> List[str]:
        return sorted({record.product for record in self._records})

    def count_by(self, key: Callable[[CveRecord], object]) -> dict:
        """Histogram of ``key(record)`` over the database."""
        counts: dict = {}
        for record in self._records:
            bucket = key(record)
            counts[bucket] = counts.get(bucket, 0) + 1
        return counts
