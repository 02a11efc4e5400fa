"""Tier 2b: the vector/prefetch differential inside ``verify_workload``.

A rewrite family whose run diverges from the scalar DBM reference must
come back CONFIRMED_UNSOUND under ``modediff.<family>`` and drive the
``repro verify`` exit code to 1; a family that matches it reports INFO only.
"""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.verify import Severity, driver, verify_workload

WORKLOAD = "444.namd"


def _modediff(report):
    return {finding.check: finding for finding in report.findings
            if finding.check.startswith("modediff.")}


def _force_divergence(monkeypatch, family):
    """Make ``family``'s tier-2b run exit one higher than the reference."""
    diverging = []
    generate_prefetch_schedule = driver.generate_prefetch_schedule
    run_under_dbm = driver.run_under_dbm

    def schedule_for(analysis):
        # Suite binaries at the default options carry prefetch rules but
        # no vector rules; a prefetch schedule stands in for either family
        # so tier 2b always has a non-empty schedule to replay.
        schedule = generate_prefetch_schedule(analysis)
        diverging.append(schedule)
        return schedule

    def diverging_run(process, schedule=None, **kwargs):
        result = run_under_dbm(process, schedule=schedule, **kwargs)
        if any(schedule is candidate for candidate in diverging):
            result = dataclasses.replace(result,
                                         exit_code=result.exit_code + 1)
        return result

    monkeypatch.setattr(driver, f"generate_{family}_schedule", schedule_for)
    monkeypatch.setattr(driver, "run_under_dbm", diverging_run)


def test_matching_modes_report_info_only():
    report = verify_workload(WORKLOAD, train=False)
    findings = _modediff(report)
    assert "modediff.prefetch" in findings
    assert all(finding.severity is Severity.INFO
               for finding in findings.values())
    assert not report.confirmed


@pytest.mark.parametrize("family", ["vector", "prefetch"])
def test_divergence_is_confirmed_unsound(monkeypatch, family):
    _force_divergence(monkeypatch, family)
    report = verify_workload(WORKLOAD, train=False)
    findings = _modediff(report)
    assert findings[f"modediff.{family}"].severity \
        is Severity.CONFIRMED_UNSOUND
    assert [finding.check for finding in report.confirmed] \
        == [f"modediff.{family}"]
    # The other family still matches the reference.
    assert all(finding.severity is Severity.INFO
               for check, finding in findings.items()
               if check != f"modediff.{family}")


def test_divergence_fails_repro_verify(monkeypatch, capsys, tmp_path):
    _force_divergence(monkeypatch, "prefetch")
    out = tmp_path / "findings.json"
    assert main(["verify", WORKLOAD, "--no-train", "-o", str(out)]) == 1
    assert "UNSOUND" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["confirmed"] == 1
    (workload,) = payload["workloads"]
    confirmed = [finding for finding in workload["findings"]
                 if finding["severity"] == "confirmed_unsound"]
    assert [finding["check"] for finding in confirmed] \
        == ["modediff.prefetch"]
