"""Profit surfaces and the leader-follower capacity equilibrium.

The line investor (player 1) earns the tariff on its own delivered energy
and a transmission fee on the local player's delivered energy, and pays its
generation cost plus the full line cost. The local player (player 2) earns
the tariff net of the transmission fee on its delivered energy and pays its
generation cost. The equilibrium is found by backward induction on the
capacity grid: the follower's best response per leader capacity, then the
leader's best choice against that response curve. Ties break toward the
smaller capacity. ``stackelberg`` over ``profit_surfaces`` is the
full-surface reference. ``equilibrium`` gives its bits on one of two paths:
the ``follower_best`` kernel of ``_kernels.c`` finds each row's best
response without a k x k surface, and the leader's profit is evaluated along
that curve alone; when no kernel loads, or the costs are large enough that
a profit off the curve could overflow, it returns the reference itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _native
from .errors import WindGameError
from .sim import EnergyTables, StrategyGrid


@dataclass(frozen=True)
class CostParams:
    """Tariffs and costs, all in one currency.

    p_g and p_t are per MWh; c_g1 and c_g2 are per MWh of energy generated;
    c_t is the total line cost (build plus operation) as a lump sum.
    """

    p_g: float
    p_t: float
    c_g1: float
    c_g2: float
    c_t: float

    def __post_init__(self):
        if self.p_g <= 0.0:
            raise WindGameError(f"generation tariff must be positive, got {self.p_g}")
        for name in ("p_g", "p_t", "c_g1", "c_g2", "c_t"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise WindGameError(f"{name} must be finite, got {value}")
            if value < 0.0:
                raise WindGameError(f"{name} must be nonnegative, got {value}")

    @classmethod
    def from_fractions(cls, p_g: float, p_t_frac: float, c_g1_frac: float,
                       c_g2_frac: float, c_t: float) -> "CostParams":
        """Build from per-MWh rates expressed as fractions of the tariff."""
        return cls(p_g=p_g, p_t=p_t_frac * p_g, c_g1=c_g1_frac * p_g,
                   c_g2=c_g2_frac * p_g, c_t=c_t)


@dataclass(frozen=True, eq=False)
class ProfitSurfaces:
    """Both players' profits over every capacity pair on the grid."""

    pi1: np.ndarray
    pi2: np.ndarray

    def __post_init__(self):
        if self.pi1.shape != self.pi2.shape or self.pi1.ndim != 2:
            raise WindGameError("profit surfaces must be 2-D grids of equal shape")
        if not (np.all(np.isfinite(self.pi1)) and np.all(np.isfinite(self.pi2))):
            raise WindGameError("profit surfaces must be finite")


@dataclass(frozen=True, eq=False)
class BestResponse:
    """Follower's profit-maximizing column per leader row."""

    indices: np.ndarray


@dataclass(frozen=True)
class Equilibrium:
    """Backward-induction solution on the grid."""

    p_n1_star: float
    p_n2_star: float
    pi1_star: float
    pi2_star: float
    leader_index: int
    follower_index: int
    best_response: BestResponse = field(repr=False, compare=False)


def _leader_profit(e_g1, e_c1, e_g2, e_c2, costs: CostParams) -> np.ndarray:
    """pi1 = delivered_1 * p_g - e_g1 * c_g1 + delivered_2 * p_t - c_t, where
    delivered_i = e_gi - e_ci, cell by cell over broadcastable energies."""
    return ((e_g1 - e_c1) * costs.p_g - e_g1 * costs.c_g1
            + (e_g2 - e_c2) * costs.p_t - costs.c_t)


def _follower_profit(e_g2, e_c2, costs: CostParams) -> np.ndarray:
    """pi2 = delivered_2 * (p_g - p_t) - e_g2 * c_g2, in place in one new array:
    a new array per operation made the k=1,002 reference solve ~1.3x slower."""
    pi2 = e_g2 - e_c2
    pi2 *= costs.p_g - costs.p_t
    pi2 -= e_g2 * costs.c_g2
    return pi2


def profit_surfaces(tables: EnergyTables, costs: CostParams) -> ProfitSurfaces:
    """Evaluate both profit functions at every grid cell (i, j)."""
    e_g1, e_g2 = tables.e_g1[:, None], tables.e_g2[None, :]
    return ProfitSurfaces(pi1=_leader_profit(e_g1, tables.e_c1, e_g2, tables.e_c2, costs),
                          pi2=_follower_profit(e_g2, tables.e_c2, costs))


def _best_response(pi2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``pi2``: np.argmax's first maximum, and that cell's value."""
    cols = np.argmax(pi2, axis=1)
    return cols, pi2[np.arange(len(cols)), cols]


def _follower_best(kernels, tables: EnergyTables,
                   costs: CostParams) -> tuple[np.ndarray, np.ndarray]:
    """``_best_response`` of ``_follower_profit`` over the tables, row by row in
    the ``follower_best`` kernel: O(k) memory, no k x k surface."""
    k = len(tables.grid)
    cols = np.empty(k, dtype=np.int64)
    work = np.empty((2, k))  # each row's best pi2, then the row in hand
    at = work.ctypes.data
    e_g2, e_c2 = np.ascontiguousarray(tables.e_g2), np.ascontiguousarray(tables.e_c2)
    if kernels.follower_best(k, e_g2.ctypes.data, e_c2.ctypes.data, costs.p_g - costs.p_t,
                             costs.c_g2, cols.ctypes.data, at, at + work.strides[0]):
        raise WindGameError("profit surfaces must be finite")
    return cols, work[0]


def _leader_choice(cols: np.ndarray, pi2_best: np.ndarray, pi1: np.ndarray,
                   grid: StrategyGrid) -> Equilibrium:
    """The leader's argmax of ``pi1``, its profit along the follower's response
    ``cols`` (whose cells' pi2 is ``pi2_best``); ties break low."""
    if not np.all(np.isfinite(pi1)):
        raise WindGameError("profit surfaces must be finite")
    i = int(np.argmax(pi1))
    j = int(cols[i])
    values = grid.values
    return Equilibrium(p_n1_star=float(values[i]), p_n2_star=float(values[j]),
                       pi1_star=float(pi1[i]), pi2_star=float(pi2_best[i]), leader_index=i,
                       follower_index=j, best_response=BestResponse(indices=cols))


def stackelberg(surfaces: ProfitSurfaces, grid: StrategyGrid) -> Equilibrium:
    """Solve the two-level game by backward induction on the grid.

    The leader maximizes its profit along the follower's best-response
    curve; the returned pair satisfies both argmax conditions, with ties
    broken toward the smaller capacity at each level.
    """
    if surfaces.pi2.shape != (len(grid), len(grid)):
        raise WindGameError(f"surface shape {surfaces.pi2.shape} does not match grid "
                            f"of {len(grid)}")
    cols, pi2_best = _best_response(surfaces.pi2)
    return _leader_choice(cols, pi2_best, surfaces.pi1[np.arange(len(grid)), cols], grid)


def equilibrium(tables: EnergyTables, costs: CostParams) -> Equilibrium:
    """``stackelberg(profit_surfaces(tables, costs), tables.grid)`` bit for bit.
    With the kernels loaded and the costs under the overflow bound, the kernel
    solves with the same profits, pi1 only along the follower's best response,
    and builds no surface; otherwise this returns that reference itself."""
    # |e_g1 - e_c1| <= 2 * peak1, so no intermediate of pi1 exceeds twice this
    # bound, and rounding cannot double it again: while four times the bound is
    # finite, no cell of pi1 overflows. Past it, the reference's whole-surface
    # check decides, so both paths refuse the same costs.
    kernels = _native.load_kernels()
    peak1, peak2 = tables.peaks
    if kernels is None or not math.isfinite(
            4 * (peak1 * (costs.p_g + costs.c_g1) + peak2 * costs.p_t + costs.c_t)):
        return stackelberg(profit_surfaces(tables, costs), tables.grid)
    cols, pi2_best = _follower_best(kernels, tables, costs)
    rows = np.arange(len(cols))
    pi1 = _leader_profit(tables.e_g1, tables.e_c1[rows, cols], tables.e_g2[cols],
                         tables.e_c2[rows, cols], costs)
    return _leader_choice(cols, pi2_best, pi1, tables.grid)
