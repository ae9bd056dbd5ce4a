"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from penergy import construction


def _from_n_min(grid, ident, plateau, reference, sched, tol):
    """The start chooser of a run from n_min, which proves no stop level."""
    return (np.full(plateau.size, sched.n_min),
            np.full(reference.size, sched.n_min + sched.stall_count))


@pytest.fixture
def from_n_min(monkeypatch):
    """make() with every identity threshold started at n_min: the
    reference that a run with late starts must match bit for bit."""
    def run(make):
        with monkeypatch.context() as m:
            m.setattr(construction, "_first_levels", _from_n_min)
            return make()
    return run
