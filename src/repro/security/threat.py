"""HERE's threat model and coverage matrix (§4.1, Table 2).

Table 2 of the paper states, per failure source, whether HERE protects
against *guest failure* (the protected VM itself brought down from
within) and *host failure* (the hypervisor/host brought down):

======================  =============  ============
Source                  Guest failure  Host failure
======================  =============  ============
Accidents; HW/SW errors Yes            Yes
Guest user              No             Yes
Guest kernel            No             Yes
Other guests            Yes            Yes
Other services          Yes            Yes
======================  =============  ============

The two "No" cells are fundamental to state replication: a failure the
guest inflicts on *itself* (a fork bomb, a kernel panic induced by its
own user) is faithfully replicated into the replica — failover resumes
the same broken state.  Everything that kills the *host* around a
healthy guest is covered, because the replica resumes the guest's last
consistent state on different software.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Tuple


class FailureSource(Enum):
    """Row labels of Table 2."""

    ACCIDENT = "Accidents; HW/SW errors"
    GUEST_USER = "Guest user"
    GUEST_KERNEL = "Guest kernel"
    OTHER_GUESTS = "Other guests"
    OTHER_SERVICES = "Other services"


@dataclass(frozen=True)
class CoverageEntry:
    """One Table 2 row."""

    source: FailureSource
    guest_failure_covered: bool
    host_failure_covered: bool
    rationale: str


#: The paper's Table 2, with the reasoning made explicit.
EXPECTED_COVERAGE: Dict[FailureSource, CoverageEntry] = {
    FailureSource.ACCIDENT: CoverageEntry(
        FailureSource.ACCIDENT,
        guest_failure_covered=True,
        host_failure_covered=True,
        rationale=(
            "hardware faults and accidental software errors hit one host; "
            "the replica resumes the guest's last consistent state"
        ),
    ),
    FailureSource.GUEST_USER: CoverageEntry(
        FailureSource.GUEST_USER,
        guest_failure_covered=False,
        host_failure_covered=True,
        rationale=(
            "a guest user crashing its own guest is replicated into the "
            "replica (not covered); a guest user exploiting the hypervisor "
            "only takes down the primary host (covered)"
        ),
    ),
    FailureSource.GUEST_KERNEL: CoverageEntry(
        FailureSource.GUEST_KERNEL,
        guest_failure_covered=False,
        host_failure_covered=True,
        rationale=(
            "self-inflicted guest kernel failures replicate; hypervisor "
            "DoS from the guest kernel only kills the primary host"
        ),
    ),
    FailureSource.OTHER_GUESTS: CoverageEntry(
        FailureSource.OTHER_GUESTS,
        guest_failure_covered=True,
        host_failure_covered=True,
        rationale=(
            "a co-located attacker VM can only reach the protected guest "
            "through the hypervisor; both the collateral guest damage and "
            "the host takedown are survived via the heterogeneous replica"
        ),
    ),
    FailureSource.OTHER_SERVICES: CoverageEntry(
        FailureSource.OTHER_SERVICES,
        guest_failure_covered=True,
        host_failure_covered=True,
        rationale=(
            "network-reachable services attacking the hypervisor host are "
            "covered the same way external accidents are"
        ),
    ),
}


def coverage_matrix() -> List[Tuple[str, str, str]]:
    """Table 2 rows as printable (source, guest, host) triples."""
    rows = []
    for source in FailureSource:
        entry = EXPECTED_COVERAGE[source]
        rows.append(
            (
                source.value,
                "Yes" if entry.guest_failure_covered else "No",
                "Yes" if entry.host_failure_covered else "No",
            )
        )
    return rows


def is_covered(source: FailureSource, guest_failure: bool) -> bool:
    """Whether HERE covers a failure of the given source/kind."""
    entry = EXPECTED_COVERAGE[source]
    return (
        entry.guest_failure_covered if guest_failure else entry.host_failure_covered
    )

