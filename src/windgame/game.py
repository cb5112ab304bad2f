"""Profit surfaces and the leader-follower capacity equilibrium.

The line investor (player 1) earns the tariff on its own delivered energy
and a transmission fee on the local player's delivered energy, and pays its
generation cost plus the full line cost. The local player (player 2) earns
the tariff net of the transmission fee on its delivered energy and pays its
generation cost. The equilibrium is found by backward induction on the
capacity grid: the follower's best response per leader capacity, then the
leader's best choice against that response curve. Ties break toward the
smaller capacity. ``stackelberg`` over ``profit_surfaces`` is the
full-surface reference. ``equilibria`` (from energy tables) and
``solve_realisation`` (from a realisation, the runner's job) give its p_n1,
p_n2, pi1 and pi2 bit for bit, as one row per sweep point of one
realisation, by one solve on every machine that reads the curtailment
tables a block of rows at a time: ``_follower_best`` finds each row's best
response at every point (in one call of the ``follower_best`` kernel of
``_kernels.c`` per block, with no k x k surface, or, when no kernel loads,
from the follower's profit alone), the leader's profit is evaluated along
those curves alone, and the follower's at the one cell per point that the
leader picks. ``solve_realisation`` computes each block of the tables as it
needs it (``sim.energy_blocks``), so it never holds a k x k array.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _native
from .errors import WindGameError
from .gibbs import Realisation
from .sim import EnergyTables, PowerCurve, StrategyGrid, block_rows, build_energy_tables, \
    cell_peak, energy_blocks, player_peaks


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


def _follower_profit(e_g2, e_c2, margin, c_g2) -> np.ndarray:
    """pi2 = delivered_2 * margin - e_g2 * c_g2, with margin = p_g - p_t, cell by
    cell over broadcastable energies and costs, in place in one new array: a
    new array per operation made the k=1,002 reference solve ~1.3x slower."""
    pi2 = e_g2 - e_c2
    pi2 *= margin
    pi2 -= e_g2 * c_g2
    return pi2


def profit_surfaces(tables: EnergyTables, costs: CostParams) -> ProfitSurfaces:
    """Evaluate both profit functions at every grid cell (i, j). A cell that
    overflows raises no numpy warning: ``ProfitSurfaces`` refuses it."""
    e_g1, e_g2 = tables.e_g1[:, None], tables.e_g2[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        pi1 = _leader_profit(e_g1, tables.e_c1, e_g2, tables.e_c2,
                             costs.p_g, costs.c_g1, costs.p_t, costs.c_t)
        pi2 = _follower_profit(e_g2, tables.e_c2, costs.p_g - costs.p_t, costs.c_g2)
    return ProfitSurfaces(pi1=pi1, pi2=pi2)


def _follower_best(kernels, e_g2: np.ndarray, e_c2: np.ndarray, margin: np.ndarray,
                   c_g2: np.ndarray) -> np.ndarray:
    """The (points, rows) first argmax per row of ``_follower_profit`` over
    ``e_c2``, a block of rows of the follower's curtailment table, at each
    point's ``margin`` and ``c_g2`` (contiguous float64 arrays): row by row in
    the ``follower_best`` kernel, O(k) memory and no surface, or, with
    ``kernels`` None, by np.argmax of each point's follower profit over the
    block. A cell that overflows raises no numpy warning: ``_solve`` keeps a
    column only where no cell of its point can overflow, or where the
    reference found every cell finite."""
    if kernels is None:
        with np.errstate(over="ignore", invalid="ignore"):
            return np.stack([np.argmax(_follower_profit(e_g2, e_c2, m, c), axis=1)
                             for m, c in zip(margin, c_g2)])
    rows, k = e_c2.shape
    cols = np.empty((len(margin), rows), dtype=np.int64)
    work = np.empty(k)  # a row's profits at one point
    # every array passed by address stays bound to a name until the call returns
    e_g2, e_c2 = np.ascontiguousarray(e_g2), np.ascontiguousarray(e_c2)
    kernels.follower_best(k, rows, len(margin), e_g2.ctypes.data, e_c2.ctypes.data,
                          margin.ctypes.data, c_g2.ctypes.data, cols.ctypes.data,
                          work.ctypes.data)
    return cols


def stackelberg(surfaces: ProfitSurfaces, grid: StrategyGrid) -> Equilibrium:
    """Solve the two-level game by backward induction on the grid.

    The leader maximizes its profit along the follower's best-response
    curve; the returned pair satisfies both argmax conditions, with ties
    broken toward the smaller capacity at each level.
    """
    if surfaces.pi2.shape != (len(grid), len(grid)):
        raise WindGameError(f"surface shape {surfaces.pi2.shape} does not match grid "
                            f"of {len(grid)}")
    cols = np.argmax(surfaces.pi2, axis=1)
    pi1 = surfaces.pi1[np.arange(len(grid)), cols]
    lead = int(np.argmax(pi1))
    col = int(cols[lead])
    return Equilibrium(float(grid.values[lead]), float(grid.values[col]), float(pi1[lead]),
                       float(surfaces.pi2[lead, col]), leader_index=lead,
                       follower_index=col, best_response=BestResponse(indices=cols))


def _solve(e_g1: np.ndarray, e_g2: np.ndarray, blocks, grid: StrategyGrid,
           costs: list[CostParams], full) -> np.ndarray:
    """The float64 (points, 4) block of p_n1, p_n2, pi1, pi2 that
    ``stackelberg(profit_surfaces(full(), c), grid)`` gives at each ``c`` of
    ``costs``, bit for bit, or its refusal, from e_g1, e_g2 and ``blocks``:
    the rows of e_c1 and e_c2, in row order, as ``(row0, e_c1 rows, e_c2
    rows)``. Each block is read once: the follower's best response in each of
    its rows at every point (one ``_follower_best`` call), the leader's
    profit along those responses, and each point's first maximum of it in
    the block, with the follower's column and e_c2 there. The first block
    holding a point's largest pi1 gives its leader's capacity, which is
    np.argmax over the whole curve, and pi2 is evaluated at that one cell.
    ``full()`` gives the whole tables, called only for the reference's check
    of a point past the cost bound."""
    kernels = _native.load_kernels()
    # each cost as one (points,) array, contiguous for the kernel
    p_g, c_g1, p_t, c_t, c_g2 = np.array([(c.p_g, c.c_g1, c.p_t, c.c_t, c.c_g2)
                                          for c in costs]).T.copy()
    margin = p_g - p_t
    leader_costs = [a[:, None] for a in (p_g, c_g1, p_t, c_t)]  # against (points, rows)
    points = np.arange(len(costs))
    tops, leads, cols_at, curtailed_at = [], [], [], []
    peaks = np.zeros(2)  # of e_c1 and e_c2 so far; np.maximum keeps a NaN
    # a cell past the cost bound may overflow; it is refused below, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        for row0, e_c1, e_c2 in blocks:
            cols = _follower_best(kernels, e_g2, e_c2, margin, c_g2)
            rows = np.arange(len(e_c2))
            curtailed2 = e_c2[rows, cols]
            pi1 = _leader_profit(e_g1[row0:row0 + len(rows)], e_c1[rows, cols], e_g2[cols],
                                 curtailed2, *leader_costs)
            at = np.argmax(pi1, axis=1)  # ties low
            tops.append(pi1[points, at])
            leads.append(row0 + at)
            cols_at.append(cols[points, at])
            curtailed_at.append(curtailed2[points, at])
            peaks = np.maximum(peaks, (cell_peak(e_c1), cell_peak(e_c2)))
    peak1, peak2 = player_peaks({"e_g1": cell_peak(e_g1), "e_g2": cell_peak(e_g2),
                                 "e_c1": float(peaks[0]), "e_c2": float(peaks[1])})
    # |e_g1 - e_c1| <= 2 * peak1 and |p_g - p_t| <= p_g + p_t, so no
    # intermediate of pi1 or pi2 exceeds twice this bound, and rounding cannot
    # double it again: while four times the bound is finite, no cell of either
    # surface overflows. Past it, the reference's whole-surface check decides,
    # so the solve checks no cell and refuses exactly the costs it refuses.
    over = [c for c in costs
            if not math.isfinite(4 * (peak1 * (c.p_g + c.c_g1)
                                      + peak2 * (c.p_g + c.p_t + c.c_g2) + c.c_t))]
    if over:
        tables = full()
        for c in over:
            profit_surfaces(tables, c)
    block = np.argmax(tops, axis=0)  # ties to the lower block, so to the lower row

    def pick(per_block):
        return np.array(per_block)[block, points]

    lead, col = pick(leads), pick(cols_at)
    pi2 = _follower_profit(e_g2[col], pick(curtailed_at), margin, c_g2)
    return np.column_stack([grid.values[lead], grid.values[col], pick(tops), pi2])


def equilibria(tables: EnergyTables, costs: list[CostParams]) -> np.ndarray:
    """The float64 (points, 4) block of p_n1, p_n2, pi1, pi2 that
    ``stackelberg(profit_surfaces(tables, c), tables.grid)`` gives at each
    ``c`` of ``costs``, bit for bit, or its refusal: ``solve_realisation``'s
    solve, over views of the tables' rows in its blocks."""
    k = len(tables.grid)
    rows = block_rows(k)
    blocks = ((row0, tables.e_c1[row0:row0 + rows], tables.e_c2[row0:row0 + rows])
              for row0 in range(0, k, rows))
    return _solve(tables.e_g1, tables.e_g2, blocks, tables.grid, costs, lambda: tables)


def solve_realisation(realisation: Realisation, curve: PowerCurve, grid: StrategyGrid,
                      costs: list[CostParams]) -> np.ndarray:
    """``equilibria(build_energy_tables(realisation, curve, grid), costs)``, bit
    for bit, or its refusal, from ``sim.energy_blocks``: no k x k table exists,
    only one block of rows of each at a time, unless a point past the cost
    bound needs the reference's check."""
    e_g1, e_g2, blocks = energy_blocks(realisation, curve, grid)
    return _solve(e_g1, e_g2, blocks, grid, costs,
                  lambda: build_energy_tables(realisation, curve, grid))
