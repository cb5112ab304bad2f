"""Profit evaluation and backward-induction equilibrium."""
from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from windgame import (ChainConfig, CostParams, EnergyTables, ProfitSurfaces, StrategyGrid,
                      WindGameError, _native, build_energy_tables, default_power_curve,
                      equilibria, profit_surfaces, run_chain, stackelberg)
from windgame import game, sim

from conftest import follower_columns, use_kernel_path


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


def assert_same_equilibrium(row, ref):
    """A row of ``equilibria`` against the reference's p_n1, p_n2, pi1 and pi2,
    by their bits (so -0.0 is not 0.0, as in the reports)."""
    want = np.array([ref.p_n1_star, ref.p_n2_star, ref.pi1_star, ref.pi2_star])
    assert row.dtype == np.float64 and row.tobytes() == want.tobytes(), (row, ref)


def assert_same_curves(tables, sweep, refs):
    """The follower's best responses that ``equilibria`` reads at each point of
    ``sweep`` against each reference's curve."""
    cols = follower_columns(_native.load_kernels(), tables, sweep)
    for row, ref in zip(cols, refs, strict=True):
        assert np.array_equal(row, ref.best_response.indices)


def on_each_path(check):
    """Run ``check()`` on the compiled kernels, when they load here, and then
    where none loads, which finds the follower's best responses from its
    profit alone."""
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
        surfaces = profit_surfaces(tables, costs)
        ref = stackelberg(surfaces, grid)
        # both paths share the leader step, so its ties are checked on the oracle
        i, j, br = exhaustive_equilibrium(surfaces.pi1, surfaces.pi2, grid.values)
        assert (ref.leader_index, ref.follower_index, ref.best_response.indices.tolist()) == \
               (i, j, br)

        def check():
            assert_same_equilibrium(equilibria(tables, [costs])[0], ref)
            assert_same_curves(tables, [costs], [ref])

        on_each_path(check)

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
        on_each_path(lambda: assert_same_equilibrium(equilibria(tables, [costs])[0], ref))

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
                equilibria(dataclasses.replace(tables, **{name: table}), [COSTS])[0]

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
                equilibria(tables, [costs])[0]

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
                equilibria(tables, [costs])[0]

        on_each_path(check)

    def test_follower_overflow_refused_by_the_reference(self, monkeypatch):
        # only pi2 overflows: the cost bound sends the point to the reference's
        # check, on the compiled path too, and no kernel judges a cell
        use_kernel_path("compiled", monkeypatch)
        tables = tables_2x2()[0]
        calls, reference = [], game.profit_surfaces

        def spy(*args):
            calls.append(args)
            return reference(*args)

        monkeypatch.setattr(game, "profit_surfaces", spy)
        with pytest.raises(WindGameError, match="^profit surfaces must be finite$"):
            equilibria(tables, [dataclasses.replace(COSTS, c_g2=1e308)])
        assert len(calls) == 1

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
                    equilibria(tables, [costs])[0]
            else:
                assert_same_equilibrium(equilibria(tables, [costs])[0], ref)

        on_each_path(check)

    @settings(deadline=None, max_examples=100)
    @given(st.integers(1, 5), st.integers(0, 2**32 - 1),
           st.lists(st.tuples(st.sampled_from([1.0, 74.3, 1e305, 1.4e308]),
                              *[st.sampled_from([0.0, 0.26, 0.8, 1.2])] * 3,
                              st.sampled_from([0.0, 9.0e6])), min_size=1, max_size=6),
           st.sampled_from([1, 6, sim._BLOCK_CELLS]))
    def test_sweep_in_one_call_matches_reference_per_point(self, k, seed, points, block_cells):
        # a sweep whose points fall under and over the overflow bound, solved
        # over blocks of one row, of a few (the last one short), or of all
        # rows: one call solves them all as the reference solves each, or
        # raises as it does
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
                for row, ref in zip(equilibria(tables, sweep), refs, strict=True):
                    assert_same_equilibrium(row, ref)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "_BLOCK_CELLS", block_cells)
            on_each_path(check)

    def test_solve_never_calls_the_reference(self, monkeypatch):
        # a sweep with points under the overflow bound and one over it whose
        # surfaces are finite: every row is solved, none copied from stackelberg
        tables, grid = tables_2x2()
        sweep = [COSTS, dataclasses.replace(COSTS, p_g=1e305),
                 dataclasses.replace(COSTS, p_t=60.0)]
        assert not np.isfinite(4 * tables.peaks[0] * 1e305)
        refs = [stackelberg(profit_surfaces(tables, costs), grid) for costs in sweep]

        def refuse(*args):
            raise AssertionError("equilibria called the full-surface reference")

        monkeypatch.setattr(game, "stackelberg", refuse)

        def check():
            for row, ref in zip(equilibria(tables, sweep), refs, strict=True):
                assert_same_equilibrium(row, ref)

        on_each_path(check)

    @pytest.mark.parametrize("name, value", [
        ("e_g1", np.zeros(3)), ("e_c2", np.zeros((2, 3))), ("e_c1", np.zeros((2, 2), np.float32)),
        ("e_g2", [0.0, 0.0])])
    def test_tables_of_wrong_shape_or_type_refused(self, name, value):
        tables, grid = tables_2x2()
        with pytest.raises(WindGameError, match="float64 array of shape"):
            dataclasses.replace(tables, **{name: value})


FINE_GRID = StrategyGrid(step=0.5, p_n_max=500.5)  # the paper's 1,002 points


@pytest.fixture(scope="module")
def fine_grid_realisation(synthetic_tables):
    """A short chain, as the fine-grid benchmark samples them."""
    return run_chain(ChainConfig(n=125, realisations=1, seed=55), synthetic_tables, 0)


@pytest.fixture(scope="module")
def fine_grid_tables(fine_grid_realisation):
    """Energy tables of a short chain on the paper's 1,002-point grid."""
    return build_energy_tables(fine_grid_realisation, default_power_curve(), FINE_GRID)


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
            for row, ref in zip(equilibria(fine_grid_tables, sweep), refs, strict=True):
                assert_same_equilibrium(row, ref)
            assert_same_curves(fine_grid_tables, sweep, refs)

        on_each_path(check)

    def solve_peak(self, tables, path, monkeypatch) -> int:
        """The traced peak bytes of the whole fee sweep solved in one call, as
        the runner solves a realisation, on the given kernel path."""
        use_kernel_path(path, monkeypatch)
        sweep = [CostParams.from_fractions(74.3, frac, 0.26, 0.20, 9.0e6)
                 for frac in self.P_T_FRACS]
        tracemalloc.start()
        try:
            equilibria(tables, sweep)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_compiled_solve_builds_no_surface(self, fine_grid_tables, monkeypatch):
        # one k x k float64 surface is 7.7 MiB
        assert self.solve_peak(fine_grid_tables, "compiled", monkeypatch) < 2**20

    def test_fallback_solve_builds_no_leader_surface(self, fine_grid_tables, monkeypatch):
        # the follower's profit is the one k x k surface the fallback holds
        k = len(fine_grid_tables.grid)
        assert self.solve_peak(fine_grid_tables, "numpy", monkeypatch) < 1.5 * 8 * k * k


class TestSolveRealisation:
    """The runner's job: the solve over blocks of the tables' rows, each block
    computed as the solve reads it, against the solve over the whole tables."""

    SWEEP = [CostParams.from_fractions(74.3, frac, 0.26, 0.20, 9.0e6)
             for frac in TestEquilibriumOnFineGrid.P_T_FRACS]

    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    @pytest.mark.parametrize("grid, full_blocks, rest", [
        (StrategyGrid(step=5.0, p_n_max=100.0), 0, 21),  # the desk grid: one block
        (StrategyGrid(step=0.5, p_n_max=299.5), 5, 55),  # 600 rows: 5 x 109, then 55
    ], ids=["k21", "k600"])
    def test_matches_the_whole_tables_bit_for_bit(self, path, grid, full_blocks, rest,
                                                  synthetic_tables, monkeypatch):
        use_kernel_path(path, monkeypatch)
        k = len(grid)
        assert divmod(k, sim.block_rows(k)) == (full_blocks, rest)
        realisation = run_chain(ChainConfig(n=60, realisations=1, seed=7), synthetic_tables, 0)
        curve = default_power_curve()
        want = equilibria(build_energy_tables(realisation, curve, grid), self.SWEEP)
        got = game.solve_realisation(realisation, curve, grid, self.SWEEP)
        # the fee above the tariff gives pi2 = -0.0, so the bytes check signs
        assert np.signbit(want[-1, 3]) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    def test_holds_no_k_by_k_table(self, path, fine_grid_realisation, monkeypatch):
        # one k x k float64 table is 8.0 MB at k=1,002; the solve holds a block
        # of rows of each (~0.5 MB) and its (points, rows) intermediates
        use_kernel_path(path, monkeypatch)
        curve = default_power_curve()

        def peak(solve) -> int:
            tracemalloc.start()
            try:
                solve()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(lambda: game.solve_realisation(fine_grid_realisation, curve, FINE_GRID,
                                                   self.SWEEP)) < 4e6
        if path == "compiled":  # the whole tables' solve fails the bound
            assert peak(lambda: equilibria(build_energy_tables(
                fine_grid_realisation, curve, FINE_GRID), self.SWEEP)) > 4e6
