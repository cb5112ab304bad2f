"""Profit surfaces and the leader-follower capacity equilibrium.

The line investor (player 1) earns the tariff on its own delivered energy
and a transmission fee on the local player's delivered energy, and pays its
generation cost plus the full line cost. The local player (player 2) earns
the tariff net of the transmission fee on its delivered energy and pays its
generation cost. The equilibrium is found by backward induction on the
capacity grid: the follower's best response per leader capacity, then the
leader's best choice against that response curve. Ties break toward the
smaller capacity. ``stackelberg`` over ``profit_surfaces`` is the
full-surface reference. ``equilibria`` gives its p_n1, p_n2, pi1 and pi2
bit for bit, as one row per sweep point of one realisation, by one solve on
every machine: ``_follower_best`` finds each row's best response at every
point (in one call of the ``follower_best`` kernel of ``_kernels.c``, with no
k x k surface, or, when no kernel loads, from the follower's profit alone),
and the leader's profit is evaluated along those curves alone.
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


def _leader_profit(e_g1, e_c1, e_g2, e_c2, p_g, c_g1, p_t, c_t) -> np.ndarray:
    """pi1 = delivered_1 * p_g - e_g1 * c_g1 + delivered_2 * p_t - c_t, where
    delivered_i = e_gi - e_ci, cell by cell over broadcastable energies and
    costs."""
    return (e_g1 - e_c1) * p_g - e_g1 * c_g1 + (e_g2 - e_c2) * p_t - c_t


def _follower_profit(e_g2, e_c2, costs: CostParams) -> np.ndarray:
    """pi2 = delivered_2 * (p_g - p_t) - e_g2 * c_g2, in place in one new array:
    a new array per operation made the k=1,002 reference solve ~1.3x slower."""
    pi2 = e_g2 - e_c2
    pi2 *= costs.p_g - costs.p_t
    pi2 -= e_g2 * costs.c_g2
    return pi2


def profit_surfaces(tables: EnergyTables, costs: CostParams) -> ProfitSurfaces:
    """Evaluate both profit functions at every grid cell (i, j). A cell that
    overflows raises no numpy warning: ``ProfitSurfaces`` refuses it."""
    e_g1, e_g2 = tables.e_g1[:, None], tables.e_g2[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        pi1 = _leader_profit(e_g1, tables.e_c1, e_g2, tables.e_c2,
                             costs.p_g, costs.c_g1, costs.p_t, costs.c_t)
        pi2 = _follower_profit(e_g2, tables.e_c2, costs)
    return ProfitSurfaces(pi1=pi1, pi2=pi2)


def _best_response(pi2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``pi2``: np.argmax's first maximum, and that cell's value."""
    cols = np.argmax(pi2, axis=1)
    return cols, pi2[np.arange(len(cols)), cols]


def _follower_best(kernels, tables: EnergyTables,
                   costs: list[CostParams]) -> tuple[np.ndarray, np.ndarray]:
    """``_best_response`` of ``_follower_profit`` over the tables at each of
    ``costs``, as (points, k) arrays, row by row in the ``follower_best``
    kernel: O(k) memory per point, no k x k surface; with ``kernels`` None,
    on each point's follower profit. ``equilibria`` keeps every cell finite."""
    if kernels is None:
        cols, best = zip(*(_best_response(_follower_profit(tables.e_g2, tables.e_c2, c))
                           for c in costs))
        return np.stack(cols), np.stack(best)
    k, points = len(tables.grid), len(costs)
    cols = np.empty((points, k), dtype=np.int64)
    best = np.empty((points, k))
    work = np.empty(k)  # a row's profits at one point
    margin = np.array([c.p_g - c.p_t for c in costs])
    c_g2 = np.array([c.c_g2 for c in costs])
    e_g2, e_c2 = np.ascontiguousarray(tables.e_g2), np.ascontiguousarray(tables.e_c2)
    kernels.follower_best(k, points, e_g2.ctypes.data, e_c2.ctypes.data, margin.ctypes.data,
                          c_g2.ctypes.data, cols.ctypes.data, best.ctypes.data,
                          work.ctypes.data)
    return cols, best


def _leader_choices(cols: np.ndarray, pi2_best: np.ndarray, pi1: np.ndarray,
                    values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``pi1``, the leader's argmax of its profit along the
    follower's response in that row of ``cols`` (whose cells' pi2 are in
    ``pi2_best``), ties low: those leader indices, and the (rows, 4) block of
    p_n1, p_n2, pi1 and pi2 there, with capacities read from ``values``."""
    lead = np.argmax(pi1, axis=1)
    at = np.arange(len(lead))
    return lead, np.stack([values[lead], values[cols[at, lead]], pi1[at, lead],
                           pi2_best[at, lead]], axis=1)


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
    pi1 = surfaces.pi1[np.arange(len(grid)), cols]
    (lead,), (row,) = _leader_choices(cols[None], pi2_best[None], pi1[None], grid.values)
    return Equilibrium(*row.tolist(), leader_index=int(lead), follower_index=int(cols[lead]),
                       best_response=BestResponse(indices=cols))


# Cells of the (points, k) arrays that one follower_best call and its leader
# step work on: a desk sweep (41 points at k=21) is one call, and at k=1,002
# four points share each pass over e_c2 while each array stays at 32 KB
# (8,192 cells solved a fine-grid sweep no faster, and raised the peak RSS of
# a two-worker run by ~0.5 MB more).
_CHUNK_CELLS = 4096


def equilibria(tables: EnergyTables, costs: list[CostParams]) -> np.ndarray:
    """The float64 (points, 4) block of p_n1, p_n2, pi1, pi2 that
    ``stackelberg(profit_surfaces(tables, c), tables.grid)`` gives at each
    ``c`` of ``costs``, bit for bit, or its refusal: solved a chunk of points
    at a time, each chunk in one ``_follower_best`` call, with pi1 only along
    the follower's best responses."""
    # |e_g1 - e_c1| <= 2 * peak1 and |p_g - p_t| <= p_g + p_t, so no
    # intermediate of pi1 or pi2 exceeds twice this bound, and rounding cannot
    # double it again: while four times the bound is finite, no cell of either
    # surface overflows. Past it, the reference's whole-surface check decides,
    # so the solve checks no cell and refuses exactly the costs it refuses.
    peak1, peak2 = tables.peaks
    for c in costs:
        if not math.isfinite(4 * (peak1 * (c.p_g + c.c_g1) + peak2 * (c.p_g + c.p_t + c.c_g2)
                                  + c.c_t)):
            profit_surfaces(tables, c)
    kernels = _native.load_kernels()
    rows = np.arange(len(tables.grid))
    block = np.empty((len(costs), 4))
    step = max(1, _CHUNK_CELLS // len(rows))
    for lo in range(0, len(costs), step):
        points = costs[lo:lo + step]
        cols, pi2_best = _follower_best(kernels, tables, points)
        # each cost as a (points, 1) column against the (points, k) curves
        p_g, c_g1, p_t, c_t = np.array([(c.p_g, c.c_g1, c.p_t, c.c_t)
                                        for c in points]).T[..., None]
        pi1 = _leader_profit(tables.e_g1, tables.e_c1[rows, cols], tables.e_g2[cols],
                             tables.e_c2[rows, cols], p_g, c_g1, p_t, c_t)
        block[lo:lo + step] = _leader_choices(cols, pi2_best, pi1, tables.grid.values)[1]
    return block
