"""Fixtures shared by the test modules."""

import pytest

import eigenclose.enclosure as enclosure_mod
from eigenclose.forms import TrialForms


@pytest.fixture
def pencil_solves(monkeypatch):
    """Shifts of the pencil solves the package makes during the test, in
    order: every internal solve goes through ``enclosure.zm_eigen``."""
    shifts = []
    real = enclosure_mod.zm_eigen

    def counted(forms, t):
        shifts.append(t)
        return real(forms, t)

    monkeypatch.setattr(enclosure_mod, "zm_eigen", counted)
    return shifts


@pytest.fixture
def fresh():
    """Makes new forms from the matrices of given forms: the forms keep
    their last pencil solve, and new ones keep none."""
    return lambda forms: TrialForms(forms.M0, forms.M1, forms.M2)
