"""Database queries, lineage exposure and the Table 2 matrix."""

import pytest

from repro.security import (
    EXPECTED_COVERAGE,
    CveRecord,
    CvssVector,
    FailureSource,
    VulnerabilityDatabase,
    build_default_database,
    coverage_matrix,
    heterogeneity_exposure,
    is_covered,
    shared_lineage_records,
)


@pytest.fixture(scope="module")
def database():
    return build_default_database()


class TestDatabaseQueries:
    def test_filter_chaining(self, database):
        xen_dos_2015 = database.for_product("Xen").in_years(2015, 2015).dos_only()
        assert len(xen_dos_2015) > 0
        assert all(
            r.product == "Xen" and r.year == 2015 and r.is_dos_only
            for r in xen_dos_2015
        )

    def test_inverted_year_range_rejected(self, database):
        with pytest.raises(ValueError):
            database.in_years(2020, 2013)

    def test_duplicate_insert_rejected(self):
        db = VulnerabilityDatabase()
        record = CveRecord(
            cve_id="CVE-1",
            product="Xen",
            year=2020,
            cvss=CvssVector.parse("AV:N/AC:L/Au:N/C:N/I:N/A:P"),
        )
        db.add(record)
        with pytest.raises(ValueError):
            db.add(record)

    def test_count_by(self, database):
        by_product = database.count_by(lambda r: r.product)
        assert by_product["Xen"] == 312


class TestLineageExposure:
    def test_qemu_lineage_spans_products(self, database):
        shared = shared_lineage_records(database, ["qemu"])
        products = {record.product for record in shared}
        # QEMU's own CVEs plus Xen's device-emulation CVEs.
        assert {"QEMU", "Xen"} <= products

    def test_xen_plus_qemukvm_would_share_vulnerabilities(self, database):
        # A (hypothetical) Xen + QEMU-KVM pairing shares the qemu lineage.
        exposed = heterogeneity_exposure(
            database,
            primary_lineages=["xen", "qemu"],
            secondary_lineages=["kvm", "qemu"],
        )
        assert len(exposed) > 0

    def test_xen_plus_kvmtool_shares_nothing(self, database):
        # HERE's actual pairing: no common lineage, no common CVEs.
        exposed = heterogeneity_exposure(
            database,
            primary_lineages=["xen", "qemu"],
            secondary_lineages=["kvm", "kvmtool"],
        )
        assert exposed == []


class TestTable2Matrix:
    def test_matrix_matches_paper(self):
        rows = coverage_matrix()
        expected = [
            ("Accidents; HW/SW errors", "Yes", "Yes"),
            ("Guest user", "No", "Yes"),
            ("Guest kernel", "No", "Yes"),
            ("Other guests", "Yes", "Yes"),
            ("Other services", "Yes", "Yes"),
        ]
        assert rows == expected

    def test_is_covered_lookup(self):
        assert is_covered(FailureSource.GUEST_USER, guest_failure=False)
        assert not is_covered(FailureSource.GUEST_USER, guest_failure=True)
        assert is_covered(FailureSource.ACCIDENT, guest_failure=True)

    def test_every_source_has_rationale(self):
        for entry in EXPECTED_COVERAGE.values():
            assert len(entry.rationale) > 20
