"""Profit surfaces and the leader-follower capacity equilibrium.

The line investor (player 1) earns the tariff on its own delivered energy
and a transmission fee on the local player's delivered energy, and pays its
generation cost plus the full line cost. The local player (player 2) earns
the tariff net of the transmission fee on its delivered energy and pays its
generation cost. The equilibrium is found by backward induction on the
capacity grid: the follower's best response per leader capacity, then the
leader's best choice against that response curve. Ties break toward the
smaller capacity. ``equilibrium`` builds only the follower's surface;
``stackelberg`` over ``profit_surfaces`` is the full-surface reference.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
        for name in ("p_t", "c_g1", "c_g2", "c_t"):
            if getattr(self, name) < 0.0:
                raise WindGameError(f"{name} must be nonnegative, got {getattr(self, name)}")

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


def profit_surfaces(tables: EnergyTables, costs: CostParams) -> ProfitSurfaces:
    """Evaluate both profit functions at every grid cell.

    pi1 = delivered_1 * p_g - e_g1 * c_g1 + delivered_2 * p_t - c_t
    pi2 = delivered_2 * (p_g - p_t) - e_g2 * c_g2
    where delivered_i = e_gi - e_ci.
    """
    delivered1 = tables.e_g1[:, None] - tables.e_c1
    delivered2 = tables.e_g2[None, :] - tables.e_c2
    pi1 = (delivered1 * costs.p_g - tables.e_g1[:, None] * costs.c_g1
           + delivered2 * costs.p_t - costs.c_t)
    pi2 = delivered2 * (costs.p_g - costs.p_t) - tables.e_g2[None, :] * costs.c_g2
    return ProfitSurfaces(pi1=pi1, pi2=pi2)


def _backward_induction(pi2: np.ndarray, grid: StrategyGrid, leader_profits) -> Equilibrium:
    """The follower's argmax per row of ``pi2``, then the leader's argmax of
    ``leader_profits(rows, cols)``; np.argmax's first maximum breaks ties low."""
    if pi2.shape != (len(grid), len(grid)):
        raise WindGameError(f"surface shape {pi2.shape} does not match grid of {len(grid)}")
    cols = np.argmax(pi2, axis=1)
    pi1 = leader_profits(np.arange(len(grid)), cols)
    if not np.all(np.isfinite(pi1)):
        raise WindGameError("profit surfaces must be finite")
    i = int(np.argmax(pi1))
    j = int(cols[i])
    return Equilibrium(p_n1_star=float(grid.values[i]), p_n2_star=float(grid.values[j]),
                       pi1_star=float(pi1[i]), pi2_star=float(pi2[i, j]), leader_index=i,
                       follower_index=j, best_response=BestResponse(indices=cols))


def stackelberg(surfaces: ProfitSurfaces, grid: StrategyGrid) -> Equilibrium:
    """Solve the two-level game by backward induction on the grid.

    The leader maximizes its profit along the follower's best-response
    curve; the returned pair satisfies both argmax conditions, with ties
    broken toward the smaller capacity at each level.
    """
    return _backward_induction(surfaces.pi2, grid, lambda rows, cols: surfaces.pi1[rows, cols])


def equilibrium(tables: EnergyTables, costs: CostParams, out=None) -> Equilibrium:
    """``stackelberg(profit_surfaces(tables, costs), tables.grid)`` bit for bit, from
    one k x k buffer: pi1 is evaluated only along the follower's best response.
    Pass the same float64 ``out`` for every sweep point to reuse that buffer."""
    pi2 = np.subtract(tables.e_g2[None, :], tables.e_c2, out=out)
    pi2 *= costs.p_g - costs.p_t
    pi2 -= tables.e_g2[None, :] * costs.c_g2
    if not np.all(np.isfinite(pi2)):
        raise WindGameError("profit surfaces must be finite")

    def leader_profits(rows, cols):
        delivered1 = tables.e_g1[rows] - tables.e_c1[rows, cols]
        delivered2 = tables.e_g2[cols] - tables.e_c2[rows, cols]
        return (delivered1 * costs.p_g - tables.e_g1[rows] * costs.c_g1
                + delivered2 * costs.p_t - costs.c_t)

    return _backward_induction(pi2, tables.grid, leader_profits)
