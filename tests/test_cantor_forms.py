"""Energy measures of Cantor forms: many weight cells, turning singular.

Cantor form k on [0, 1] carries the weight (3/2)^k on the 2^k intervals
kept at the k-th step of the middle-thirds construction and 0 on the gaps
between them, 2^(k+1) - 1 weight cells in all; its energy measures turn
singular as k grows.  Almost every band of a threshold at the first levels
crosses many cells, most of them of weight 0, which is where late starts
save the most: a threshold's rows are built for its band at its own first
level, not at n_min.
"""

import numpy as np
import pytest

from penergy import construction
from penergy.construction import energy_measure, reference_measure
from penergy.forms import PLIntervalForm
from penergy.pl import PLFunction
from test_acceptance import _sup_density_gap

F = PLFunction([0.0, 0.3, 0.55, 1.0], [0.0, 1.0, 0.2, 0.9])
RESOLUTION = 512


def cantor_form(k: int, p: float = 2.0) -> PLIntervalForm:
    """Cantor form k: (3/2)^k on the kept intervals m/3^k + [0, 3^-k], m
    with ternary digits 0 and 2, and 0 on the gaps."""
    digits = (np.arange(2 ** k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    m = (2 * digits) @ 3 ** np.arange(k - 1, -1, -1)
    ends = np.stack((m, m + 1), axis=1).ravel() / 3.0 ** k
    weight = np.zeros(ends.size - 1)
    weight[::2] = 1.5 ** k
    return PLIntervalForm(p, weight=list(zip(ends[:-1], ends[1:], weight)))


def test_cantor_form_has_its_cells():
    form = cantor_form(3)
    assert form.weight_values.size == 2 ** 4 - 1
    assert form.weight_values.sum() * 3.0 ** -3 == pytest.approx(1.0)
    assert form.weight_bounds[[1, 2, -3, -2]] == pytest.approx(
        [1 / 27, 2 / 27, 25 / 27, 26 / 27])


@pytest.mark.parametrize("k", [2, 4, 6, 8, 10, 12])
def test_construction_matches_the_oracle(k):
    # criterion 01's tolerances: sup density gap 1e-4, mass gap 1e-6
    form = cantor_form(k)
    built = energy_measure(form, F, RESOLUTION)
    energy = form.energy(F)
    assert _sup_density_gap(built, reference_measure(form, F)) <= 1e-4
    assert abs(built.total_mass() - energy) <= 1e-6 * energy


def test_late_starts_keep_the_run_from_n_min(from_n_min):
    form = cantor_form(6)
    late = energy_measure(form, F, RESOLUTION)
    full = from_n_min(lambda: energy_measure(form, F, RESOLUTION))
    assert late.levels_used == full.levels_used
    assert late.masses.tobytes() == full.masses.tobytes()


def test_rows_follow_each_threshold_first_level(monkeypatch):
    # rows built for each band at its own first level, not at n_min: at
    # most three per threshold (building them all at n_min takes some
    # sixty)
    built = construction._identity_rows
    rows = []

    def counting(*args):
        out = built(*args)
        rows.append(out["owner"].size)
        return out

    monkeypatch.setattr(construction, "_identity_rows", counting)
    measure = energy_measure(cantor_form(10), F, RESOLUTION)
    assert len(rows) == 1
    assert rows[0] <= 3 * measure.nodes.size, (rows, measure.nodes.size)
