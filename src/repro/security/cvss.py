"""CVSS 2.0 vectors and base-score computation.

The paper's vulnerability study (§2, Table 1) classifies CVEs by their
CVSS 2.0 impact triplet: a vulnerability *has an availability impact*
when ``A`` is Partial or Complete, and is *DoS-only* when it impacts
availability while ``C`` and ``I`` are both None.  This module
implements the full CVSS 2.0 vector grammar and the official base-score
equation so the dataset analysis works from first principles.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Impact(Enum):
    """CVSS 2.0 impact levels for C/I/A."""

    NONE = "N"
    PARTIAL = "P"
    COMPLETE = "C"

    @property
    def weight(self) -> float:
        return {"N": 0.0, "P": 0.275, "C": 0.660}[self.value]


class AccessVector(Enum):
    LOCAL = "L"
    ADJACENT = "A"
    NETWORK = "N"

    @property
    def weight(self) -> float:
        return {"L": 0.395, "A": 0.646, "N": 1.0}[self.value]


class AccessComplexity(Enum):
    HIGH = "H"
    MEDIUM = "M"
    LOW = "L"

    @property
    def weight(self) -> float:
        return {"H": 0.35, "M": 0.61, "L": 0.71}[self.value]


class Authentication(Enum):
    MULTIPLE = "M"
    SINGLE = "S"
    NONE = "N"

    @property
    def weight(self) -> float:
        return {"M": 0.45, "S": 0.56, "N": 0.704}[self.value]


@dataclass(frozen=True)
class CvssVector:
    """One CVSS 2.0 base vector."""

    access_vector: AccessVector = AccessVector.NETWORK
    access_complexity: AccessComplexity = AccessComplexity.LOW
    authentication: Authentication = Authentication.NONE
    confidentiality: Impact = Impact.NONE
    integrity: Impact = Impact.NONE
    availability: Impact = Impact.NONE

    # -- classification (the paper's filters) ------------------------------
    @property
    def has_availability_impact(self) -> bool:
        """Table 1's "Avail" filter: A is Partial or higher."""
        return self.availability is not Impact.NONE

    @property
    def is_dos_only(self) -> bool:
        """Table 1's "DoS" filter: A impacted, C and I both None."""
        return (
            self.has_availability_impact
            and self.confidentiality is Impact.NONE
            and self.integrity is Impact.NONE
        )

    # -- scoring (CVSS v2.0 base equation) -----------------------------------
    @property
    def impact_subscore(self) -> float:
        c = self.confidentiality.weight
        i = self.integrity.weight
        a = self.availability.weight
        return 10.41 * (1 - (1 - c) * (1 - i) * (1 - a))

    @property
    def exploitability_subscore(self) -> float:
        return (
            20.0
            * self.access_vector.weight
            * self.access_complexity.weight
            * self.authentication.weight
        )

    @property
    def base_score(self) -> float:
        impact = self.impact_subscore
        f_impact = 0.0 if impact == 0 else 1.176
        score = (
            (0.6 * impact) + (0.4 * self.exploitability_subscore) - 1.5
        ) * f_impact
        return round(max(0.0, score), 1)

    @property
    def severity(self) -> str:
        """NVD's v2 severity bands: Low / Medium / High."""
        score = self.base_score
        if score < 4.0:
            return "Low"
        if score < 7.0:
            return "Medium"
        return "High"

    # -- parsing ------------------------------------------------------------------
    @classmethod
    def parse(cls, vector: str) -> "CvssVector":
        """Parse the canonical vector string form."""
        fields = {}
        for part in vector.strip().strip("()").split("/"):
            if ":" not in part:
                raise ValueError(f"malformed CVSS component {part!r} in {vector!r}")
            key, _colon, value = part.partition(":")
            fields[key] = value
        required = {"AV", "AC", "Au", "C", "I", "A"}
        missing = required - set(fields)
        if missing:
            raise ValueError(f"CVSS vector {vector!r} missing {sorted(missing)}")
        try:
            return cls(
                access_vector=AccessVector(fields["AV"]),
                access_complexity=AccessComplexity(fields["AC"]),
                authentication=Authentication(fields["Au"]),
                confidentiality=Impact(fields["C"]),
                integrity=Impact(fields["I"]),
                availability=Impact(fields["A"]),
            )
        except ValueError as error:
            raise ValueError(f"invalid CVSS vector {vector!r}: {error}") from None


#: Handy canonical vectors used by the dataset builder.
DOS_ONLY_VECTOR = CvssVector(availability=Impact.COMPLETE)
AVAIL_PLUS_INTEGRITY_VECTOR = CvssVector(
    integrity=Impact.PARTIAL, availability=Impact.PARTIAL
)
NO_AVAIL_VECTOR = CvssVector(confidentiality=Impact.PARTIAL)
