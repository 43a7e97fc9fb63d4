"""Acceptance suite: one test per exit criterion, each printing a verdict
line and enforcing both correctness and the stated runtime budget."""

import pytest

from glcdist import selftest
from glcdist.selftest import CRITERIA, run_criterion


@pytest.mark.parametrize(
    "index", range(1, len(CRITERIA) + 1), ids=[name for name, _, _ in CRITERIA]
)
def test_acceptance_criterion(index, capsys):
    result = run_criterion(index)
    with capsys.disabled():
        print()
        print(result.line())
    assert result.passed, f"criterion {index} failed: {result.detail}"
    assert result.within_budget, (
        f"criterion {index} exceeded its budget: {result.elapsed:.2f}s "
        f">= {result.budget:.0f}s"
    )


def test_kernel_detail_counts_the_samples_run(monkeypatch):
    # The detail line reports the samples criterion 8 ran, not a fixed text.
    monkeypatch.setattr(selftest, "KERNEL_SAMPLES", (0.1 + 0j, 0.3 + 0.2j))
    result = run_criterion(8)
    assert result.passed and "2 samples, both cases" in result.detail
