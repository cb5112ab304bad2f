"""Profit evaluation and backward-induction equilibrium."""
from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from windgame import (ChainConfig, CostParams, EnergyTables, Equilibrium, ProfitSurfaces,
                      StrategyGrid, WindGameError, _native, build_energy_tables,
                      default_power_curve, equilibria, equilibrium, profit_surfaces, run_chain,
                      stackelberg)
from windgame import game

from conftest import use_kernel_path


def tables_2x2():
    """Hand-built energies on grid {0, 10}: round numbers for calculator checks."""
    grid = StrategyGrid(step=10.0, p_n_max=10.0)
    return EnergyTables(
        e_g1=np.array([0.0, 1000.0]),
        e_g2=np.array([0.0, 800.0]),
        e_c1=np.array([[0.0, 0.0], [0.0, 100.0]]),
        e_c2=np.array([[0.0, 0.0], [0.0, 80.0]]),
        grid=grid), grid


COSTS = CostParams(p_g=50.0, p_t=10.0, c_g1=20.0, c_g2=15.0, c_t=5000.0)


def exhaustive_equilibrium(pi1, pi2, values):
    """Two-level enumeration oracle with smallest-capacity tie-breaks."""
    k = len(values)
    br = []
    for i in range(k):
        best_j = 0
        for j in range(1, k):
            if pi2[i, j] > pi2[i, best_j]:
                best_j = j
        br.append(best_j)
    best_i = 0
    for i in range(1, k):
        if pi1[i, br[i]] > pi1[best_i, br[best_i]]:
            best_i = i
    return best_i, br[best_i], br


class TestCostParams:
    @pytest.mark.parametrize("name", ["p_g", "p_t", "c_g1", "c_g2", "c_t"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cost_refused(self, name, bad):
        # nan <= 0.0 is false, so an order test alone would let NaN through
        message = ("generation tariff must be positive" if (name, bad) == ("p_g", -np.inf)
                   else f"{name} must be finite, got {bad}")
        with pytest.raises(WindGameError, match=message):
            dataclasses.replace(COSTS, **{name: bad})


class TestProfitSurfaces:
    def test_zero_capacity_cell(self):
        tables, grid = tables_2x2()
        surfaces = profit_surfaces(tables, COSTS)
        assert surfaces.pi1[0, 0] == -COSTS.c_t
        assert surfaces.pi2[0, 0] == 0.0

    def test_zero_follower_column_drops_transmission_revenue(self):
        tables, grid = tables_2x2()
        surfaces = profit_surfaces(tables, COSTS)
        expected = 1000.0 * 50.0 - 1000.0 * 20.0 - 5000.0
        assert surfaces.pi1[1, 0] == expected

    def test_hand_computed_full_cell(self):
        tables, grid = tables_2x2()
        surfaces = profit_surfaces(tables, COSTS)
        # delivered1 = 900, delivered2 = 720
        assert surfaces.pi1[1, 1] == 900 * 50.0 - 1000 * 20.0 + 720 * 10.0 - 5000.0
        assert surfaces.pi2[1, 1] == 720 * (50.0 - 10.0) - 800 * 15.0


class TestFollowerBestResponse:
    def test_unique_argmax(self):
        grid = StrategyGrid(step=0.5, p_n_max=1.0)
        pi2 = np.array([[0.0, 5.0, 3.0]] * 3)
        surfaces = ProfitSurfaces(pi1=np.zeros((3, 3)), pi2=pi2)
        response = stackelberg(surfaces, grid).best_response
        assert list(grid.values[response.indices]) == [0.5, 0.5, 0.5]

    def test_ties_break_to_smallest_capacity(self):
        grid = StrategyGrid(step=0.5, p_n_max=1.0)
        surfaces = ProfitSurfaces(pi1=np.zeros((3, 3)), pi2=np.zeros((3, 3)))
        response = stackelberg(surfaces, grid).best_response
        assert list(grid.values[response.indices]) == [0.0, 0.0, 0.0]

    def test_matches_exhaustive_row_scan(self):
        rng = np.random.default_rng(19)
        grid = StrategyGrid(step=1.0, p_n_max=19.0)
        pi2 = rng.normal(size=(20, 20))
        surfaces = ProfitSurfaces(pi1=rng.normal(size=(20, 20)), pi2=pi2)
        response = stackelberg(surfaces, grid).best_response
        for i in range(20):
            assert pi2[i, response.indices[i]] == pi2[i].max()

    def test_shape_mismatch_rejected(self):
        grid = StrategyGrid(step=1.0, p_n_max=5.0)
        surfaces = ProfitSurfaces(pi1=np.zeros((3, 3)), pi2=np.zeros((3, 3)))
        with pytest.raises(WindGameError, match="does not match"):
            stackelberg(surfaces, grid)


class TestStackelberg:
    def test_singleton_grid(self):
        # only the zero-capacity pair exists
        grid = StrategyGrid(step=1.0, p_n_max=0.0)
        tables = EnergyTables(e_g1=np.zeros(1), e_g2=np.zeros(1),
                              e_c1=np.zeros((1, 1)), e_c2=np.zeros((1, 1)), grid=grid)
        eq = stackelberg(profit_surfaces(tables, COSTS), grid)
        assert (eq.p_n1_star, eq.p_n2_star) == (0.0, 0.0)
        assert eq.pi1_star == -COSTS.c_t
        assert eq.pi2_star == 0.0

    def test_designed_unique_equilibrium(self):
        grid = StrategyGrid(step=1.0, p_n_max=2.0)
        # follower prefers column 2 at i=0, column 1 at i=1 and i=2;
        # leader's payoff along the response curve peaks at i=1
        pi2 = np.array([[0.0, 1.0, 2.0],
                        [0.0, 3.0, 1.0],
                        [0.0, 2.0, 1.0]])
        pi1 = np.array([[5.0, 0.0, 1.0],
                        [0.0, 7.0, 0.0],
                        [0.0, 4.0, 9.0]])
        eq = stackelberg(ProfitSurfaces(pi1=pi1, pi2=pi2), grid)
        assert (eq.leader_index, eq.follower_index) == (1, 1)
        assert (eq.pi1_star, eq.pi2_star) == (7.0, 3.0)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_fixed_point_on_random_surfaces(self, seed):
        rng = np.random.default_rng(seed)
        k = 12
        grid = StrategyGrid(step=1.0, p_n_max=float(k - 1))
        pi1 = rng.normal(size=(k, k))
        pi2 = rng.normal(size=(k, k))
        eq = stackelberg(ProfitSurfaces(pi1=pi1, pi2=pi2), grid)
        i, j, br = exhaustive_equilibrium(pi1, pi2, grid.values)
        assert (eq.leader_index, eq.follower_index) == (i, j)
        # both argmax conditions hold at the returned pair
        assert pi2[eq.leader_index, eq.follower_index] == pi2[eq.leader_index].max()
        curve = [pi1[a, br[a]] for a in range(k)]
        assert pi1[eq.leader_index, eq.follower_index] == max(curve)

    def test_positive_scaling_leaves_equilibrium(self):
        rng = np.random.default_rng(4)
        k = 8
        grid = StrategyGrid(step=1.0, p_n_max=float(k - 1))
        pi1 = rng.normal(size=(k, k))
        pi2 = rng.normal(size=(k, k))
        base = stackelberg(ProfitSurfaces(pi1=pi1, pi2=pi2), grid)
        scaled = stackelberg(ProfitSurfaces(pi1=3.7 * pi1, pi2=3.7 * pi2), grid)
        assert (base.leader_index, base.follower_index) == \
               (scaled.leader_index, scaled.follower_index)
        assert scaled.pi1_star == pytest.approx(3.7 * base.pi1_star)

    def test_line_cost_shift_moves_profit_not_capacities(self):
        tables, grid = tables_2x2()
        eq_low = stackelberg(profit_surfaces(tables, COSTS), grid)
        shifted = CostParams(p_g=50.0, p_t=10.0, c_g1=20.0, c_g2=15.0,
                             c_t=COSTS.c_t + 12345.0)
        eq_high = stackelberg(profit_surfaces(tables, shifted), grid)
        assert (eq_low.p_n1_star, eq_low.p_n2_star) == (eq_high.p_n1_star, eq_high.p_n2_star)
        assert eq_high.pi1_star == pytest.approx(eq_low.pi1_star - 12345.0)
        assert eq_high.pi2_star == eq_low.pi2_star

    def test_follower_profit_nonincreasing_in_fee(self):
        tables, grid = tables_2x2()
        snapshot = (tables.e_g1.tobytes(), tables.e_g2.tobytes(),
                    tables.e_c1.tobytes(), tables.e_c2.tobytes())
        previous = None
        for p_t in (0.0, 5.0, 10.0, 20.0, 40.0):
            costs = CostParams(p_g=50.0, p_t=p_t, c_g1=20.0, c_g2=15.0, c_t=5000.0)
            surfaces = profit_surfaces(tables, costs)
            if previous is not None:
                assert np.all(surfaces.pi2 <= previous + 1e-12)
            previous = surfaces.pi2
        # cost evaluation must never perturb the physics tables
        assert snapshot == (tables.e_g1.tobytes(), tables.e_g2.tobytes(),
                            tables.e_c1.tobytes(), tables.e_c2.tobytes())


def assert_same_equilibrium(eq, ref):
    """Field by field, the profits by their bits (so -0.0 is not 0.0, as in the
    reports), and the best-response curve."""
    names = [f.name for f in dataclasses.fields(Equilibrium) if f.compare]
    got, want = (np.array([getattr(e, name) for name in names], dtype=np.float64)
                 for e in (eq, ref))
    assert got.tobytes() == want.tobytes(), (eq, ref)
    assert np.array_equal(eq.best_response.indices, ref.best_response.indices)


def on_each_path(check):
    """Run ``check()`` on the compiled kernels, when they load here, and then
    where none loads, which solves the game on the full-surface reference."""
    paths = ("compiled", "numpy") if _native.load_kernels() is not None else ("numpy",)
    for path in paths:
        with pytest.MonkeyPatch.context() as patch:
            use_kernel_path(path, patch)
            check()


class TestEquilibrium:
    """The runner's solve against the full-surface reference, on both paths."""

    @settings(deadline=None, max_examples=100)
    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32 - 1),
           st.booleans())
    @example(k=1, seed=0, integral=True)
    def test_matches_full_surface_reference(self, k, seed, integral):
        # small integers make cells of a row, and rows, tie; floats round
        rng = np.random.default_rng(seed)

        def draw(high, size):
            return rng.integers(0, high, size).astype(float) if integral \
                else rng.uniform(0.0, high, size)

        grid = StrategyGrid(step=1.0, p_n_max=float(k - 1))
        tables = EnergyTables(e_g1=draw(4, k), e_g2=draw(4, k), e_c1=draw(3, (k, k)),
                              e_c2=draw(3, (k, k)), grid=grid)
        costs = CostParams(p_g=1.0 + draw(3, None), p_t=draw(3, None), c_g1=draw(3, None),
                           c_g2=draw(3, None), c_t=draw(9, None))
        ref = stackelberg(profit_surfaces(tables, costs), grid)

        on_each_path(lambda: assert_same_equilibrium(equilibrium(tables, costs), ref))

    @pytest.mark.parametrize("tables, costs", [
        (tables_2x2()[0], dataclasses.replace(COSTS, p_t=60.0)),
        # column 0 gives -0.0 and column 1 +0.0 (curtailment above generation):
        # the first zero wins and keeps its sign
        (EnergyTables(e_g1=np.array([0.0, 1.0]), e_g2=np.array([0.0, 1.0]),
                      e_c1=np.zeros((2, 2)), e_c2=np.array([[0.0, 2.0], [0.0, 2.0]]),
                      grid=StrategyGrid(step=1.0, p_n_max=1.0)),
         CostParams(p_g=1.0, p_t=2.0, c_g1=0.0, c_g2=1.0, c_t=0.0)),
    ], ids=["loss-per-mwh", "signed-zero-tie"])
    def test_fee_above_tariff(self, tables, costs):
        # p_t > p_g: every unit the follower delivers loses money, so it
        # builds nothing and its profit is -0.0, which the reports print
        ref = stackelberg(profit_surfaces(tables, costs), tables.grid)
        assert ref.follower_index == 0 and np.signbit(ref.pi2_star)
        on_each_path(lambda: assert_same_equilibrium(equilibrium(tables, costs), ref))

    # the follower answers leader row 0 with column 1, so e_c1[0, 0] is a cell
    # that no solve reads, yet the reference refuses its surface
    @pytest.mark.parametrize("name, cell", [("e_c2", (1, 1)), ("e_g1", 1), ("e_c1", (0, 0))],
                             ids=["follower-surface", "leader-curve", "leader-off-curve"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_energy_rejected(self, name, cell, bad):
        tables, grid = tables_2x2()
        table = getattr(tables, name).copy()
        table[cell] = bad

        def check():
            with pytest.raises(WindGameError, match="must be finite"):
                equilibrium(dataclasses.replace(tables, **{name: table}), COSTS)

        on_each_path(check)

    @pytest.mark.parametrize("costs", [dataclasses.replace(COSTS, p_g=1e308),
                                       dataclasses.replace(COSTS, c_g2=1e308)],
                             ids=["tariff", "follower-cost"])
    def test_costs_overflowing_profit_rejected(self, costs):
        # finite tables, yet pi2 overflows; with the follower's cost only pi2
        # does, and the best response avoids the infinite cell
        tables, grid = tables_2x2()
        with pytest.raises(WindGameError, match="must be finite"):
            profit_surfaces(tables, costs)

        def check():
            with pytest.raises(WindGameError, match="must be finite"):
                equilibrium(tables, costs)

        on_each_path(check)

    def test_pi1_overflowing_off_the_curve_rejected(self):
        # the follower answers every row with column 0, where pi1 is finite, but
        # the reference's surface overflows in column 1
        tables = EnergyTables(e_g1=np.zeros(2), e_g2=np.array([0.0, 800.0]),
                              e_c1=np.zeros((2, 2)), e_c2=np.array([[0.0, 0.0], [0.0, 80.0]]),
                              grid=StrategyGrid(step=10.0, p_n_max=10.0))
        costs = dataclasses.replace(COSTS, p_g=1.7e308, p_t=1.7e308)
        with pytest.raises(WindGameError, match="must be finite"):
            profit_surfaces(tables, costs)

        def check():
            with pytest.raises(WindGameError, match="must be finite"):
                equilibrium(tables, costs)

        on_each_path(check)

    @settings(deadline=None, max_examples=150)
    @given(st.integers(1, 5), st.integers(0, 2**32 - 1),
           st.lists(st.sampled_from([0.0, 1.0, 1e3, 1e300, 1e304, 4.4e304, 1e305, 1e306,
                                     4.4e306, 1e307, 4.4e307, 1.7e308]) | st.floats(0.0, 1.79e308),
                    min_size=5, max_size=5))
    def test_costs_near_overflow_match_reference(self, k, seed, magnitudes):
        # costs whose profits overflow in some cells, on or off the curve, or in
        # none: the solve raises exactly when the reference does, else agrees.
        # As on a real grid, capacity 0 generates and curtails nothing.
        rng = np.random.default_rng(seed)
        grid = StrategyGrid(step=1.0, p_n_max=float(k - 1))
        e_g1, e_g2 = (np.append(0.0, rng.choice([1.0, 500.0, 1e3], k - 1)) for _ in range(2))
        e_c1, e_c2 = (rng.choice([0.0, 1.0, 80.0, 100.0], (k, k)) for _ in range(2))
        for table in (e_c1, e_c2):
            table[0, :] = table[:, 0] = 0.0
        tables = EnergyTables(e_g1=e_g1, e_g2=e_g2, e_c1=e_c1, e_c2=e_c2, grid=grid)
        p_g, p_t, c_g1, c_g2, c_t = magnitudes
        costs = CostParams(p_g=max(p_g, 1.0), p_t=p_t, c_g1=c_g1, c_g2=c_g2, c_t=c_t)
        try:
            ref = stackelberg(profit_surfaces(tables, costs), grid)
        except WindGameError as exc:
            assert str(exc) == "profit surfaces must be finite"
            ref = None

        def check():
            if ref is None:
                with pytest.raises(WindGameError, match="must be finite"):
                    equilibrium(tables, costs)
            else:
                assert_same_equilibrium(equilibrium(tables, costs), ref)

        on_each_path(check)

    @settings(deadline=None, max_examples=100)
    @given(st.integers(1, 5), st.integers(0, 2**32 - 1),
           st.lists(st.tuples(st.sampled_from([1.0, 74.3, 1e305, 1.4e308]),
                              *[st.sampled_from([0.0, 0.26, 0.8, 1.2])] * 3,
                              st.sampled_from([0.0, 9.0e6])), min_size=1, max_size=6),
           st.sampled_from([1, 6, game._CHUNK_CELLS]))
    def test_sweep_in_one_call_matches_reference_per_point(self, k, seed, points, chunk_cells):
        # a sweep whose points fall under and over the overflow bound, solved
        # in chunks of one point, of a few, or all at once: one call solves
        # them all as the reference solves each, or raises as it does
        rng = np.random.default_rng(seed)
        grid = StrategyGrid(step=1.0, p_n_max=float(k - 1))
        tables = EnergyTables(e_g1=rng.uniform(0.0, 900.0, k), e_g2=rng.uniform(0.0, 900.0, k),
                              e_c1=rng.uniform(0.0, 80.0, (k, k)),
                              e_c2=rng.uniform(0.0, 80.0, (k, k)), grid=grid)
        sweep = [CostParams.from_fractions(*point) for point in points]
        try:
            refs = [stackelberg(profit_surfaces(tables, costs), grid) for costs in sweep]
        except WindGameError as exc:
            assert str(exc) == "profit surfaces must be finite"
            refs = None

        def check():
            if refs is None:
                with pytest.raises(WindGameError, match="must be finite"):
                    equilibria(tables, sweep)
            else:
                for eq, ref in zip(equilibria(tables, sweep), refs, strict=True):
                    assert_same_equilibrium(eq, ref)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(game, "_CHUNK_CELLS", chunk_cells)
            on_each_path(check)

    @pytest.mark.parametrize("name, value", [
        ("e_g1", np.zeros(3)), ("e_c2", np.zeros((2, 3))), ("e_c1", np.zeros((2, 2), np.float32)),
        ("e_g2", [0.0, 0.0])])
    def test_tables_of_wrong_shape_or_type_refused(self, name, value):
        tables, grid = tables_2x2()
        with pytest.raises(WindGameError, match="float64 array of shape"):
            dataclasses.replace(tables, **{name: value})


@pytest.fixture(scope="module")
def fine_grid_tables(synthetic_tables):
    """Energy tables of a short chain on the paper's 1,002-point grid."""
    realisation = run_chain(ChainConfig(n=125, realisations=1, seed=55), synthetic_tables, 0)
    return build_energy_tables(realisation, default_power_curve(),
                               StrategyGrid(step=0.5, p_n_max=500.5))


class TestEquilibriumOnFineGrid:
    """The paper's grid: the fee sweep plus a fee above the tariff."""

    P_T_FRACS = [i / 50 for i in range(41)] + [1.2]

    def test_fee_sweep_matches_full_surface_reference(self, fine_grid_tables):
        # the whole sweep in one call, as the runner solves a realisation
        sweep = [CostParams.from_fractions(74.3, frac, 0.26, 0.20, 9.0e6)
                 for frac in self.P_T_FRACS]
        refs = [stackelberg(profit_surfaces(fine_grid_tables, costs), fine_grid_tables.grid)
                for costs in sweep]

        def check():
            for eq, ref in zip(equilibria(fine_grid_tables, sweep), refs, strict=True):
                assert_same_equilibrium(eq, ref)

        on_each_path(check)

    def test_compiled_solve_builds_no_surface(self, fine_grid_tables, monkeypatch):
        use_kernel_path("compiled", monkeypatch)
        costs = CostParams.from_fractions(74.3, 0.26, 0.26, 0.20, 9.0e6)
        tracemalloc.start()
        try:
            equilibrium(fine_grid_tables, costs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # one k x k float64 surface is 7.7 MiB
