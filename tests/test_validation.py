"""Self-check battery: clean pass, report shape, and fault-injection sensitivity."""

import pytest

from mirrorqed import gamma_mirror_closed, kernels, validation


@pytest.fixture(scope="module")
def report():
    return validation.run_validation()


@pytest.fixture(scope="module")
def fault_report():
    return validation.run_validation(fault_injection=1e-3)


class TestCleanRun:
    def test_all_checks_pass(self, report):
        failed = [c.name for c in report.checks if not c.passed]
        assert failed == []
        assert report.passed
        assert report.n_failed == 0

    def test_report_is_nonempty_and_timed(self, report):
        assert len(report.checks) >= 25
        assert 0.0 < report.elapsed_seconds < 30.0

    def test_check_names_unique(self, report):
        names = [c.name for c in report.checks]
        assert len(names) == len(set(names))

    def test_summary_lines(self, report):
        text = report.summary()
        assert text.splitlines()[0] == "validation (42 checks)"
        assert text.count("PASS") >= len(report.checks)
        assert "FAIL" not in text
        for check in report.checks:
            assert check.line().startswith("PASS")

    def test_deterministic_given_seed(self, report):
        again = validation.run_validation()
        assert [c.measured for c in again.checks] == [
            c.measured for c in report.checks
        ]


class TestBatteryShape:
    """The check count is part of the report contract: pin it exactly."""

    WEIGHT_CHECKS = {"geometry-weight-completeness", "geometry-phi-average"}

    def test_full_battery_has_42_checks(self, report):
        names = {c.name for c in report.checks}
        assert report.passed
        assert len(report.checks) == 42
        assert self.WEIGHT_CHECKS <= names


class TestFaultInjection:
    def test_perturbed_kernel_is_caught(self, fault_report):
        failed = {c.name for c in fault_report.checks if not c.passed}
        assert not fault_report.passed
        # the oracle comparisons that lean on the shared kernel must trip
        assert "mirror-oracle-grid" in failed
        assert "cavity-route-equivalence" in failed

    def test_fault_noted_in_summary(self, fault_report):
        text = fault_report.summary()
        assert "fault injection" in text
        assert "FAILED" in text

    def test_kernel_restored_after_run(self, fault_report):
        assert kernels.f_kernel(0.0) == 2.0 / 3.0
        assert gamma_mirror_closed(-1.0, 0.0).ratio == 0.0
