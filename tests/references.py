"""Reference objects the tests compare the package against.

Nothing in ``penergy`` runs these: a command, a law, a release criterion
or a demo never reaches them.  They are the literal definitions the fast
code is checked against (the materialised capped fold, the scalar lid),
the cut decomposition of E(phi o f) whose report ``tests/test_law_pins.py``
pins, the weak-monotonicity ratio of a Korevaar-Schoen scan, and the fold
schedule the law-level tests run at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from penergy.construction import FoldSchedule
from penergy.forms import PLIntervalForm
from penergy.ks import KSScanReport, SampledSpace, ks_limit_scan
from penergy.pl import (GEOM_TOL, PLFunction, PLMap, compose, cut, lattice,
                        shifted_cut, triangle_fold)

LAW_SCHEDULE = FoldSchedule(n_min=6, n_max=24, rel_tol=1e-5)

# Roundoff line of the fold identity, and the number of triangle folds it
# applies.
FOLD_IDENTITY_TOL = 1e-9
FOLD_LEVELS = 8


# ---------------------------------------------------------------------------
# the capped fold and its lid


def cell_function(f: PLFunction, g: PLFunction, a: float,
                  n: int) -> PLFunction:
    """The capped fold min(T_n o f, S_n^a o g), materialised literally.

    Exponential in n; the defining object, and the cross-check of the
    fold limits at small levels, which never build it.  The PL algebra
    rounds the lid's crossings and merges nodes closer than GEOM_TOL, so
    where a band of g is narrower than that the lid ramps on to the end of
    g's piece, and this differs from the level energies of the fold limits.
    """
    folded = triangle_fold(f, n)
    lid = shifted_cut(g, a, n)
    return lattice(folded, lid, "min")


def shifted_cut_scalar(t, a: float, n: int):
    """S_n^a(t) = ((a + 2^-n - t) ^ 2^-n)^+ : 2^-n for t <= a, 0 past a + 2^-n."""
    eps = 2.0 ** (-n)
    return np.clip(a + eps - np.asarray(t, dtype=float), 0.0, eps)


# ---------------------------------------------------------------------------
# fold identity


@dataclass
class FoldIdentityReport:
    """Relative gaps of the piecewise-affine fold decomposition."""
    descriptor: dict
    partition: tuple
    lipschitz: tuple
    lhs: float
    rhs: float
    rel_gap: float
    fold_invariance_gap: float
    tolerance: float
    passed: bool


def check_fold_identity(form: PLIntervalForm, f: PLFunction, phi: PLMap,
                        partition) -> FoldIdentityReport:
    """Verify the cut decomposition of E(phi o f) for piecewise-affine phi.

    ``partition`` must list the kink positions of phi (including the ends of
    its domain) in increasing order with phi(0) = 0; the energy of the
    composition then equals the sum over partition cells of
    ``Lip(phi on cell)^p * E(double cut of f at the cell)``.  As a companion,
    the energy invariance of the triangle fold, E(T_n o f) = E(f), is checked
    for n = 1 .. FOLD_LEVELS.  Both gaps must stay within FOLD_IDENTITY_TOL.
    """
    part = np.asarray(partition, dtype=float)
    if part.ndim != 1 or part.size < 2 or (part[1:] - part[:-1] <= 0).any():
        raise ValueError("partition must be strictly increasing")
    lo, hi = f.value_range()
    if part[0] > lo + GEOM_TOL or part[-1] < hi - GEOM_TOL:
        raise ValueError("partition must span the value range of f")
    if abs(phi.evaluate(0.0)) > GEOM_TOL:
        raise ValueError("phi must fix 0")
    for kink in phi.breakpoints[1:-1]:
        if np.min(np.abs(part - kink)) > GEOM_TOL:
            raise ValueError("phi must be affine on every partition cell")

    lips = tuple(abs((phi.evaluate(part[i + 1]) - phi.evaluate(part[i]))
                     / (part[i + 1] - part[i])) for i in range(part.size - 1))
    lhs = form.energy(compose(phi, f))
    rhs = sum(l ** form.p * form.energy(cut(f, part[i], part[i + 1]))
              for i, l in enumerate(lips))
    scale = max(form.energy(f), lhs, 1e-30)
    rel_gap = abs(lhs - rhs) / scale

    ef = form.energy(f)
    inv_gap = max(abs(form.energy(triangle_fold(f, n)) - ef) / max(ef, 1e-30)
                  for n in range(1, FOLD_LEVELS + 1))
    passed = rel_gap <= FOLD_IDENTITY_TOL and inv_gap <= FOLD_IDENTITY_TOL
    return FoldIdentityReport(form.to_descriptor(), tuple(part), lips,
                              lhs, rhs, rel_gap, inv_gap, FOLD_IDENTITY_TOL,
                              passed)


# ---------------------------------------------------------------------------
# weak monotonicity of a Korevaar-Schoen scan


@dataclass(frozen=True)
class WeakMonotonicityReport:
    """Empirical constant in sup_r J <= C liminf_{r -> 0} J."""

    c_star: float
    sup_value: float
    liminf_estimate: float
    scan: KSScanReport = field(repr=False)

    @property
    def finite(self) -> bool:
        return math.isfinite(self.c_star)


def check_weak_monotonicity(space: SampledSpace, u, p: float,
                            r_sequence) -> WeakMonotonicityReport:
    """Ratio of the running sup to the small-r window minimum.

    No universal constant is asserted; the report records the empirical
    C* and whether it is finite.  A constant profile makes the ratio 0/0
    and raises instead of reporting.
    """
    scan = ks_limit_scan(space, u, p, r_sequence)
    if scan.sup_value == 0.0:
        raise ValueError("constant profile: weak monotonicity is vacuous")
    if scan.liminf_estimate <= 0.0:
        c_star = math.inf
    else:
        c_star = scan.sup_value / scan.liminf_estimate
    return WeakMonotonicityReport(float(c_star), scan.sup_value,
                                  scan.liminf_estimate, scan)
