"""Acceptance gate: every criterion at its full count and stated tolerance.

Each test prints the criterion's pass/fail line; `majorbit selftest` runs
the same functions from the command line.
"""

from types import SimpleNamespace

import pytest

from majorbit import selftest
from majorbit.errors import SchemaError
from majorbit.selftest import (
    _HLP_CASES,
    criterion_agreement,
    criterion_golden,
    criterion_hlp,
    criterion_identities,
    criterion_matrix,
    criterion_ryff,
    criterion_truncation_family,
    criterion_witnesses,
)

SEED = 1


def _check(result):
    print(result.line())
    assert result.passed, result.line()


def test_criterion_1_oracle_equivalence():
    result = criterion_agreement(SEED, trials=1000)
    _check(result)
    assert result.seconds < 60.0


def test_criterion_2_hlp_recovery():
    _check(criterion_hlp(SEED))


def test_criterion_3_ryff_recovery():
    _check(criterion_ryff(SEED, trials=500))


def test_criterion_4_witnesses():
    result = criterion_witnesses(SEED, trials=1000)
    _check(result)
    assert result.trials >= 1000


def test_criterion_5_golden_examples():
    _check(criterion_golden(SEED))


def test_criterion_6_truncation_family():
    _check(criterion_truncation_family(SEED))


def test_criterion_7_matrix_suite():
    _check(criterion_matrix(SEED, trials=200))


def test_criterion_8_identity_suite():
    _check(criterion_identities(SEED, trials=200))


def test_no_criterion_passes_without_trials(monkeypatch):
    """No acceptance gate passes vacuously: a criterion that ran no trial
    fails, and so does criterion 4 when it meets no non-extreme instance.
    Criteria 5 and 6 are fixed example sets that the count does not scale."""
    for criterion in (criterion_agreement, criterion_hlp, criterion_ryff,
                      criterion_witnesses, criterion_matrix):
        result = criterion(SEED, 0)
        assert result.trials == 0 and not result.passed, result.line()
    with pytest.raises(SchemaError):
        criterion_identities(SEED, 0)
    assert [criterion_hlp(SEED, k).trials for k in (-2, 2, 99)] == [0, 2, len(_HLP_CASES)]
    assert criterion_golden(SEED, 0).trials == 3 and criterion_truncation_family(SEED, 0).trials == 9
    monkeypatch.setattr(selftest, "check_extreme", lambda x, y: SimpleNamespace(extreme=True))
    result = criterion_witnesses(SEED, 5)
    assert result.trials == 0 and not result.passed, result.line()
