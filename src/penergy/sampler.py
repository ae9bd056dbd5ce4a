"""Seeded generators of random piecewise-linear test functions.

Every draw is a pure function of ``(seed, index)``, so reports can cite the
pair and any single case can be replayed in isolation.  Functions produced
here have breakpoints separated by at least ``MIN_GAP``, values inside
``[-2, 2]`` and slopes bounded by ``MAX_SLOPE``.  A sampler without a slope
floor makes a piece flat with probability ``FLAT_PROB``; one with a floor
(:meth:`PLSampler.with_slope_floor`, for differentiation-based checks, where
flat pieces are legitimate but uninformative) makes none flat.
"""

from __future__ import annotations

import numpy as np

from .pl import PLFunction, IntervalSet

MIN_GAP = 0.04
MAX_SLOPE = 4.0
FLAT_PROB = 0.15
# interval unions have 2 to MAX_COMPONENTS components
MAX_COMPONENTS = 4


class PLSampler:
    """Deterministic stream of PL functions and related fixtures."""

    def __init__(self, seed: int, max_breaks: int = 12,
                 min_slope: float = 0.0):
        # a draw picks 1 to max_breaks - 2 interior breakpoints
        if max_breaks < 3:
            raise ValueError(f"max_breaks must be at least 3, got {max_breaks}")
        self.seed = int(seed)
        self.max_breaks = int(max_breaks)
        self.min_slope = float(min_slope)
        self.flat_prob = FLAT_PROB if self.min_slope == 0.0 else 0.0

    def _rng(self, index: int, tag: int = 0) -> np.random.Generator:
        return np.random.default_rng([self.seed, int(index), tag])

    # -- function draws ----------------------------------------------------

    def _breakpoints(self, rng: np.random.Generator) -> list[float]:
        n_interior = int(rng.integers(1, self.max_breaks - 1))
        for _ in range(64):
            pts = sorted(rng.uniform(0.0, 1.0, size=n_interior).tolist())
            grid = [0.0, *pts, 1.0]
            if all(b - a >= MIN_GAP for a, b in zip(grid, grid[1:])):
                return grid
            n_interior = max(1, n_interior - 1)
        return np.linspace(0.0, 1.0, n_interior + 2).tolist()

    def pl(self, index: int, allow_flat: bool | None = None) -> PLFunction:
        """Draw one PL function; slopes respect the configured bounds."""
        rng = self._rng(index, tag=1)
        x = self._breakpoints(rng)
        vals = [rng.uniform(-1.5, 1.5)]
        flat_ok = (self.min_slope == 0.0) if allow_flat is None else allow_flat
        for dx in (x1 - x0 for x0, x1 in zip(x, x[1:])):
            if flat_ok and rng.uniform() < self.flat_prob:
                s = 0.0
            else:
                mag = rng.uniform(max(self.min_slope, 1e-3), MAX_SLOPE)
                s = mag if rng.uniform() < 0.5 else -mag
            v = vals[-1] + s * dx
            if abs(v) > 2.0:
                v = vals[-1] - s * dx
            vals.append(min(max(v, -2.0), 2.0))
        return PLFunction(x, vals)

    def pl_pair(self, index: int) -> tuple[PLFunction, PLFunction]:
        return self.pl(2 * index), self.pl(2 * index + 1)

    def nonzero_pl(self, index: int) -> PLFunction:
        """A draw rejected until it has positive energy (some nonflat piece)."""
        for k in range(32):
            f = self.pl(index * 37 + k, allow_flat=(k == 0 and self.flat_prob > 0))
            y = f.values
            if (np.abs(y[1:] - y[:-1]) > 1e-9).any():
                return f
        raise RuntimeError("sampler failed to produce a nonflat function")

    def disjoint_support_pair(self, index: int) -> tuple[PLFunction, PLFunction]:
        """Two functions with supports separated by a gap around a split point."""
        rng = self._rng(index, tag=2)
        split = rng.uniform(0.35, 0.65)
        gap = rng.uniform(0.05, 0.1)
        left = self._bump(rng, 0.0, split - gap)
        right = self._bump(rng, split + gap, 1.0)
        return left, right

    def _bump(self, rng: np.random.Generator, lo: float, hi: float) -> PLFunction:
        width = hi - lo
        inner = np.sort(rng.uniform(lo + 0.15 * width, hi - 0.15 * width, size=3))
        heights = rng.uniform(-2.0, 2.0, size=3)
        x = np.concatenate(([0.0], [lo] if lo > 0 else [], inner,
                            [hi] if hi < 1 else [], [1.0]))
        y = np.concatenate(([0.0], [0.0] if lo > 0 else [], heights,
                            [0.0] if hi < 1 else [], [0.0]))
        if lo == 0.0:
            y[0] = 0.0
        x, idx = np.unique(x, return_index=True)
        return PLFunction(x, y[idx])

    # -- vertex-value draws for graph-type forms ----------------------------

    def vertex_values(self, index: int, n: int) -> np.ndarray:
        return self._rng(index, tag=3).uniform(-2.0, 2.0, size=n)

    def vertex_pair(self, index: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        rng = self._rng(index, tag=4)
        return rng.uniform(-2, 2, size=n), rng.uniform(-2, 2, size=n)

    # -- sets ---------------------------------------------------------------

    def interval_union(self, index: int) -> IntervalSet:
        rng = self._rng(index, tag=5)
        k = int(rng.integers(2, MAX_COMPONENTS + 1))
        cuts = np.sort(rng.uniform(0.0, 1.0, size=2 * k))
        return IntervalSet(zip(cuts[0::2], cuts[1::2]))

    def with_slope_floor(self, min_slope: float) -> "PLSampler":
        """A copy of this sampler whose draws avoid slopes below min_slope."""
        return PLSampler(self.seed, self.max_breaks, min_slope)
