"""Wrong energy measures must fail the law registry.

The energy measure of a p-energy form is the one measure that obeys the
chain and Leibniz rules, so a measure that differs from it should fail
some law.  Each impostor here replaces the oracle mass route, the object
every oracle-route mass read in :mod:`penergy.laws` goes through, with a
measure given by its mass on each cell of a partition on which f is
affine.  The true measure, built the same way, must pass every law that
reads masses; each impostor must fail at least one by ten times that law's
tolerance.  The laws that never read a mass (leibniz, functional_identity,
multivariable_chain, minimal_dominant) cannot see an impostor and are not
run.
"""

import numpy as np
import pytest

from penergy import laws
from penergy.forms import Cells, PLIntervalForm
from penergy.sampler import PLSampler

FORM = PLIntervalForm(2.5)
SAMPLER = PLSampler(seed=5)
TRIALS = 3


def _true(form, f, cells):
    return cells.mass(f)


def _scaled(form, f, cells):
    return 1.001 * cells.mass(f)


def _exponent(form, f, cells):
    return cells.weight * np.abs(cells.slope(f)) ** (form.p + 0.05) \
        * cells.width


def _lebesgue_mix(form, f, cells):
    return cells.mass(f) + 0.01 * form.energy(f) * cells.width


def _tilted(form, f, cells):
    # the density is affine on a cell, so its midpoint value integrates it
    return cells.mass(f) * (1.0 + 0.01 * f.evaluate(cells.mid))


def _translated(form, f, cells):
    # mu moved right by 0.01, wrapping around: the cumulative energy F,
    # extended periodically, is linear on each cell of f, so the moved
    # masses are exact differences and the total mass is kept
    nodes, cum = form.cumulative_energy(f)
    x = cells.nodes - 0.01
    moved = np.interp(np.mod(x, 1.0), nodes, cum) + np.floor(x) * cum[-1]
    return moved[1:] - moved[:-1]


MEASURES = {
    "true": _true,
    "1.001 mu": _scaled,
    "exponent p + 0.05": _exponent,
    "mu + 0.01 E(f) dx": _lebesgue_mix,
    "mu (1 + 0.01 f)": _tilted,
    "mu moved by 0.01": _translated,
}


class Impostor(type(laws._ORACLE)):
    """The oracle route with the density replaced by ``cell_mass``.

    Set masses integrate per-cell masses on cells that have the component
    ends among their nodes, so a density that is not constant on a cell
    is still integrated exactly; sublevel masses come through ``masses``.
    """

    def __init__(self, cell_mass):
        self.cell_mass = cell_mass

    def masses(self, form, jobs):
        out = []
        for f, family in jobs:
            cells = Cells(form, f, nodes=(family.lo, family.hi))
            out.append(cells.integrate(self.cell_mass(form, f, cells), family))
        return out

    def cell_masses(self, form, jobs):
        return [self.cell_mass(form, fn, cells) for fn, cells in jobs]


# the laws that read masses, each on the oracle route
LAWS = {
    "total_mass": lambda: laws.law_total_mass(
        FORM, SAMPLER, TRIALS, route="oracle"),
    "homogeneity_shift": lambda: laws.law_homogeneity_shift(
        FORM, SAMPLER, TRIALS, route="oracle"),
    "measure_clarkson": lambda: laws.law_measure_clarkson(
        FORM, SAMPLER, TRIALS, route="oracle"),
    "measure_triangle": lambda: laws.law_measure_triangle(
        FORM, SAMPLER, TRIALS, route="oracle"),
    "locality": lambda: laws.law_locality(
        FORM, SAMPLER, TRIALS, route="oracle"),
    "minmax_bound": lambda: laws.law_minmax_bound(
        FORM, SAMPLER, TRIALS, route="oracle"),
    "chain_rule": lambda: laws.law_chain_rule(
        FORM, SAMPLER, TRIALS, route="oracle"),
    "domination": lambda: laws.law_domination(
        FORM, laws.heavier_form(FORM), SAMPLER, TRIALS, route="oracle"),
    "image_density": lambda: laws.law_image_density(
        FORM, SAMPLER, TRIALS, route="oracle"),
    "continuity": lambda: laws.law_continuity(FORM, SAMPLER, TRIALS),
    "two_variable": lambda: laws.law_two_variable(FORM, SAMPLER, TRIALS),
}


def matrix() -> dict:
    """worst_slack / tolerance of every law against every measure."""
    out = {}
    with pytest.MonkeyPatch.context() as m:
        for name, cell_mass in MEASURES.items():
            m.setattr(laws, "_ORACLE", Impostor(cell_mass))
            for law, run in LAWS.items():
                rep = run()
                out[name, law] = rep.worst_slack / rep.tolerance
    return out


@pytest.fixture(scope="module")
def slacks():
    return matrix()


def test_the_true_measure_passes_every_law(slacks):
    failed = {law: slacks["true", law] for law in LAWS
              if not slacks["true", law] >= -1.0}
    assert not failed, failed


@pytest.mark.parametrize("name", sorted(set(MEASURES) - {"true"}))
def test_every_impostor_fails_a_law_tenfold(slacks, name):
    worst = min(slacks[name, law] for law in LAWS)
    assert worst <= -10.0, {law: slacks[name, law] for law in LAWS}


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_impostors.py prints the law x measure
    # matrix as a markdown table
    table = matrix()
    print("| law | " + " | ".join(MEASURES) + " |")
    print("|---" * (len(MEASURES) + 1) + "|")
    for law in LAWS:
        print(f"| {law} | " + " | ".join(f"{table[name, law]:.2g}"
                                         for name in MEASURES) + " |")
