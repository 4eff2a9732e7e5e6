"""Acceptance criteria A1-A16, one pass/fail line per criterion.

Each criterion runs at its stated tolerance via the shared registry; the
CLI `verify` command executes the same checks.

A4 asserts multiplicity E for equilateral mandarins: the eigenspace at
k = pi E holds the E - 1 sine-difference modes and the symmetric mode
cos(pi E x) on every edge, and the criterion certifies those closed-form
modes independently of the solver.
"""

import dataclasses

import pytest

from qgraph import InvalidInputError, full_catalog, verify
from qgraph.verify import CRITERIA, run_criterion


@pytest.mark.parametrize("name", list(CRITERIA))
def test_criterion(name):
    result = run_criterion(name, seed=0)
    status = "PASS" if result.passed else "FAIL"
    print(f"{result.name} {status} ({result.seconds:.1f}s) {result.summary}")
    assert result.passed, "\n".join([result.summary] + result.details)


def test_every_criterion_is_fast():
    # spec budget: each criterion under ten seconds
    for name in ("A1", "A2", "A3", "A4", "CAT"):
        result = run_criterion(name, seed=0)
        assert result.seconds < 10.0


def test_catalog_criterion_checks_multiplicities(monkeypatch):
    # the closed-form gaps all hold; one entry's multiplicity, set wrong,
    # fails the criterion on its own
    entries = full_catalog()
    assert sum(entry.multiplicity is not None for entry in entries) == 21   # all but the necklaces
    i = next(i for i, entry in enumerate(entries) if entry.family == "stower")
    wrong = entries[:i] + [dataclasses.replace(entries[i], multiplicity=entries[i].multiplicity + 1)] + entries[i + 1:]
    monkeypatch.setattr(verify, "full_catalog", lambda: wrong)
    result = run_criterion("CAT", seed=0)
    assert not result.passed
    assert result.details == [f"stower {entries[i].params}: multiplicity {entries[i].multiplicity}, "
                              f"closed form {entries[i].multiplicity + 1}"]


@pytest.mark.parametrize("name", ["A0", "a1", ""])
def test_an_unknown_criterion_is_rejected(name):
    with pytest.raises(InvalidInputError, match=f"unknown criterion {name}"):
        run_criterion(name)
