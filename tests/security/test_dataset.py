"""The bundled vulnerability dataset vs. the paper's published numbers."""

import pytest

from repro.security import (
    TABLE1_TARGETS,
    TABLE5_JOINT_PCT,
    VENOM_CVE_ID,
    XEN_ATTACK_VECTOR_PCT,
    XEN_PRIVILEGE_PCT,
    AttackVectorCategory,
    RequiredPrivilege,
    attack_vector_distribution,
    build_default_database,
    privilege_split,
    table1_stats,
    table5_distribution,
)


@pytest.fixture(scope="module")
def database():
    return build_default_database()


class TestTable1Exactness:
    def test_totals_match_paper(self, database):
        for row in table1_stats(database):
            expected = TABLE1_TARGETS[row["product"]]
            assert (row["cves"], row["avail"], row["dos"]) == expected

    def test_percentages_match_paper(self, database):
        by_product = {row["product"]: row for row in table1_stats(database)}
        assert by_product["Xen"]["avail_pct"] == pytest.approx(90.4, abs=0.1)
        assert by_product["Xen"]["dos_pct"] == pytest.approx(48.7, abs=0.1)
        assert by_product["QEMU"]["dos_pct"] == pytest.approx(62.3, abs=0.1)
        assert by_product["ESXi"]["dos_pct"] == pytest.approx(22.9, abs=0.1)

    def test_year_window_filter(self, database):
        narrow = table1_stats(database, 2015, 2016)
        full = table1_stats(database)
        for narrow_row, full_row in zip(narrow, full):
            assert narrow_row["cves"] < full_row["cves"]


class TestXenDosBreakdown:
    def test_attack_vector_partition(self, database):
        distribution = attack_vector_distribution(database, "Xen")
        for category, expected in XEN_ATTACK_VECTOR_PCT.items():
            assert distribution[category] == pytest.approx(expected, abs=0.7)

    def test_table5_joint_distribution(self, database):
        rows = table5_distribution(database, "Xen")
        by_key = {(row["target"], row["outcome"]): row for row in rows}
        for (target, outcome), expected in TABLE5_JOINT_PCT.items():
            row = by_key[(target.value, outcome.value)]
            assert row["outcome_pct"] == pytest.approx(expected, abs=0.7)

    def test_here_always_applicable(self, database):
        assert all(
            row["here"] == "Applicable"
            for row in table5_distribution(database, "Xen")
        )

    def test_privilege_split(self, database):
        split = privilege_split(database, "Xen")
        for privilege, expected in XEN_PRIVILEGE_PCT.items():
            assert split[privilege] == pytest.approx(expected, abs=0.7)
        assert split[RequiredPrivilege.GUEST_USER] > 50.0


class TestDatasetStructure:
    def test_deterministic(self):
        a = build_default_database(seed=5)
        b = build_default_database(seed=5)
        assert [r.cve_id for r in a] == [r.cve_id for r in b]

    def test_different_seed_different_details(self):
        a = build_default_database(seed=5)
        b = build_default_database(seed=6)
        assert [r.cvss for r in a] != [r.cvss for r in b]
        # ... but aggregates stay pinned to the paper.
        assert table1_stats(a) == table1_stats(b)

    def test_unique_cve_ids(self, database):
        ids = [record.cve_id for record in database]
        assert len(ids) == len(set(ids))

    def test_venom_present_with_qemu_lineage(self, database):
        venom = next(r for r in database if r.cve_id == VENOM_CVE_ID)
        assert venom.product == "QEMU"
        assert venom.component_lineage == "qemu"
        assert not venom.is_dos_only  # full C/I/A compromise

    def test_xen_device_dos_records_share_qemu_lineage(self, database):
        xen_device_dos = [
            record
            for record in database.for_product("Xen").dos_only()
            if record.attack_vector is AttackVectorCategory.DEVICE_MANAGEMENT
        ]
        assert xen_device_dos
        assert all(r.component_lineage == "qemu" for r in xen_device_dos)

    def test_years_cover_study_window(self, database):
        years = {record.year for record in database}
        assert years == set(range(2013, 2021))
