"""CVSS 2.0 vectors and base scores."""

import pytest

from repro.security import CvssVector, Impact


class TestParsing:
    def test_parenthesised_form_accepted(self):
        vector = CvssVector.parse("(AV:L/AC:H/Au:S/C:P/I:P/A:P)")
        assert vector.confidentiality is Impact.PARTIAL

    def test_missing_component_rejected(self):
        with pytest.raises(ValueError):
            CvssVector.parse("AV:N/AC:L/Au:N/C:N/I:N")

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError):
            CvssVector.parse("AV:X/AC:L/Au:N/C:N/I:N/A:P")

    def test_malformed_component_rejected(self):
        with pytest.raises(ValueError):
            CvssVector.parse("AVN/AC:L/Au:N/C:N/I:N/A:P")


class TestClassification:
    def test_dos_only(self):
        vector = CvssVector.parse("AV:N/AC:L/Au:N/C:N/I:N/A:C")
        assert vector.is_dos_only
        assert vector.has_availability_impact

    def test_availability_plus_integrity_not_dos_only(self):
        vector = CvssVector.parse("AV:N/AC:L/Au:N/C:N/I:P/A:P")
        assert vector.has_availability_impact
        assert not vector.is_dos_only

    def test_no_availability_impact(self):
        vector = CvssVector.parse("AV:N/AC:L/Au:N/C:C/I:C/A:N")
        assert not vector.has_availability_impact
        assert not vector.is_dos_only


class TestBaseScore:
    """Known scores from the official CVSS v2 guide / NVD entries."""

    def test_full_compromise_network_vector_is_10(self):
        vector = CvssVector.parse("AV:N/AC:L/Au:N/C:C/I:C/A:C")
        assert vector.base_score == 10.0
        assert vector.severity == "High"

    def test_network_complete_availability_is_7_8(self):
        vector = CvssVector.parse("AV:N/AC:L/Au:N/C:N/I:N/A:C")
        assert vector.base_score == 7.8

    def test_network_partial_availability_is_5_0(self):
        vector = CvssVector.parse("AV:N/AC:L/Au:N/C:N/I:N/A:P")
        assert vector.base_score == 5.0
        assert vector.severity == "Medium"

    def test_no_impact_scores_zero(self):
        vector = CvssVector.parse("AV:N/AC:L/Au:N/C:N/I:N/A:N")
        assert vector.base_score == 0.0
        assert vector.severity == "Low"

    def test_venom_vector_score(self):
        # CVE-2015-3456 carries AV:A/AC:L/Au:S/C:C/I:C/A:C => 7.7 (NVD).
        vector = CvssVector.parse("AV:A/AC:L/Au:S/C:C/I:C/A:C")
        assert vector.base_score == pytest.approx(7.7, abs=0.1)

    def test_local_partial_availability(self):
        # CVSS guide example territory: AV:L/AC:L/Au:N/C:N/I:N/A:P => 2.1
        vector = CvssVector.parse("AV:L/AC:L/Au:N/C:N/I:N/A:P")
        assert vector.base_score == pytest.approx(2.1, abs=0.1)

    def test_score_monotone_in_impact(self):
        partial = CvssVector.parse("AV:N/AC:L/Au:N/C:N/I:N/A:P")
        complete = CvssVector.parse("AV:N/AC:L/Au:N/C:N/I:N/A:C")
        assert complete.base_score > partial.base_score
