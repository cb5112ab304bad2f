"""Power curve, curtailment sharing, and energy-tensor aggregation."""
from __future__ import annotations

import ctypes
import dataclasses
import math
import os
import re
import shutil
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from importlib import resources

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from windgame import (ChainConfig, CostParams, EnergyTables, FitError, PowerCurve,
                      SamplerTables, StrategyGrid, WindGameError, build_energy_tables,
                      curtailment_timestep, default_power_curve, equilibria, fit_sigmoid,
                      load_curve_points, per_unit_output, per_unit_series, run_chain,
                      run_chains)
from windgame import _native, game, gibbs
from windgame.ingest import JointSeries
from windgame.sim import ENERGY_TABLES, PerUnitSeries, energy_blocks

from conftest import REPO_ROOT, follower_columns, numpy_energy_tables
from test_gibbs import oracle_chain


def brute_force_energy_tables(x1, x2, p_d, grid_values):
    """Literal per-timestep loop; the canonical summation order."""
    k = len(grid_values)
    n = len(x1)
    e_g1 = np.zeros(k)
    e_g2 = np.zeros(k)
    e_c1 = np.zeros((k, k))
    e_c2 = np.zeros((k, k))
    for a in range(k):
        acc1 = 0.0
        acc2 = 0.0
        for t in range(n):
            acc1 += x1[t] * grid_values[a]
            acc2 += x2[t] * grid_values[a]
        e_g1[a] = acc1
        e_g2[a] = acc2
    for a in range(k):
        for b in range(k):
            c1 = 0.0
            c2 = 0.0
            for t in range(n):
                g1 = x1[t] * grid_values[a]
                g2 = x2[t] * grid_values[b]
                total = g1 + g2
                surplus = total - p_d[t]
                if surplus < 0.0:
                    surplus = 0.0
                if total > 0.0:
                    pc1 = surplus * (g1 / total)
                    pc2 = surplus - pc1
                else:
                    pc1 = 0.0
                    pc2 = 0.0
                c1 += pc1
                c2 += pc2
            e_c1[a, b] = c1
            e_c2[a, b] = c2
    return e_g1, e_g2, e_c1, e_c2


def cpu_has(isa):
    """Whether this CPU lists ``isa`` among its flags (Linux only; False elsewhere)."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            return any(line.startswith("flags") and isa in line.split() for line in handle)
    except OSError:
        return False


def random_per_unit(n, seed=0):
    rng = np.random.default_rng(seed)
    return PerUnitSeries(x1=rng.uniform(0.0, 1.0, n),
                         x2=rng.uniform(0.0, 1.0, n),
                         p_d=rng.uniform(40.0, 160.0, n))


def compile_kernels(compiler, path, *flags):
    """Build ``_kernels.c`` into ``path`` with the package's flags and ``flags``."""
    subprocess.run([compiler, *_native._KERNEL_FLAGS, *flags, "-o", str(path), "-x", "c", "-"],
                   input=resources.files("windgame").joinpath(_native._KERNEL_SOURCE).read_bytes(),
                   capture_output=True, check=True, timeout=300)


def references(tables, costs) -> list:
    """``stackelberg(profit_surfaces(tables, c))``, the full-surface
    reference, at each ``c`` of ``costs``."""
    return [game.stackelberg(game.profit_surfaces(tables, c), tables.grid) for c in costs]


def reference_rows(tables, costs) -> np.ndarray:
    """The reference's p_n1, p_n2, pi1 and pi2 at each of ``costs``."""
    return np.array([[r.p_n1_star, r.p_n2_star, r.pi1_star, r.pi2_star]
                     for r in references(tables, costs)])


def reference_columns(tables, costs) -> np.ndarray:
    """The reference's follower best response per leader row, at each of ``costs``."""
    return np.array([r.best_response.indices for r in references(tables, costs)])


# The sanitizer test's case. 37 columns: no vector width divides it; blocks
# of 10 rows (the solve's too, at 370 cells a block), so the row-range
# kernels run at row0 0, 10, 20 and 30, the last block 7 rows long, and
# also over all 37 rows at once; a fee above the tariff; at burn-in 0 and
# 0.2, a chain pair and a chain alone (chains 0 and 1, then chain 2).
SANITIZED_BLOCK_CELLS = 370


def sanitized_case():
    """The per-unit series, grid, sweep, sampler tables and chain configs the
    sanitized kernels run on."""
    rng = np.random.default_rng(18)
    n = 600
    series = PerUnitSeries(x1=rng.uniform(0.0, 1.0, n), x2=rng.uniform(0.0, 1.0, n),
                           p_d=rng.uniform(0.0, 40.0, n))
    series.x1[::3] = 0.0
    costs = [CostParams.from_fractions(74.3, p_t_frac, 0.26, 0.20, 1.0e3)
             for p_t_frac in (0.0, 0.26, 0.8, 1.2)]
    history = JointSeries(timestamps=np.datetime64("2020-01-01T00", "s")
                          + np.arange(n) * np.timedelta64(3600, "s"),
                          w1=rng.gamma(2.0, 3.0, n), w2=rng.gamma(2.0, 3.0, n),
                          p_d=rng.uniform(50.0, 150.0, n))
    return (series, StrategyGrid(step=1.0, p_n_max=36.0), costs,
            SamplerTables.from_series(history, 1.0, 10),
            [ChainConfig(n=300, realisations=3, burn_in_fraction=burn, seed=5)
             for burn in (0.0, 0.2)])


def kernel_outputs(series, grid, costs, sampler, chains):
    """Every kernel's outputs on the case, through the package's calls."""
    tables = build_energy_tables(series, None, grid)
    yield from (getattr(tables, name) for name in ENERGY_TABLES)
    for _, e_c1, e_c2 in energy_blocks(series, None, grid)[2]:
        yield from (e_c1, e_c2)
    yield equilibria(tables, costs)
    yield game.solve_realisation(series, None, grid, costs)
    for config in chains:
        for chain in run_chains(config, sampler, (0, 1, 2)):
            yield from (chain.w1, chain.w2, chain.p_d)


def oracle_outputs(series, grid, costs, sampler, chains):
    """``kernel_outputs``' arrays from the oracles: the literal loop, the
    full-surface reference and the scalar sampler."""
    rows = SANITIZED_BLOCK_CELLS // len(grid)
    tables = EnergyTables(*brute_force_energy_tables(series.x1, series.x2, series.p_d,
                                                     grid.values), grid=grid)
    yield from (getattr(tables, name) for name in ENERGY_TABLES)
    for row0 in range(0, len(grid), rows):
        yield from (tables.e_c1[row0:row0 + rows], tables.e_c2[row0:row0 + rows])
    solved = reference_rows(tables, costs)
    yield from (solved, solved)  # equilibria's, then solve_realisation's
    for config in chains:
        for k in (0, 1, 2):
            yield from np.array(oracle_chain(config, sampler, k)).T


# Runs in a subprocess with the sanitizer runtimes preloaded: the four
# kernels of the sanitized library at argv[1] on the case, their outputs
# saved to argv[2].
SANITIZED_RUN = f"""
import sys
import numpy as np
from windgame import _native, sim
from test_sim import kernel_outputs, sanitized_case

sim._BLOCK_CELLS = {SANITIZED_BLOCK_CELLS}
sanitized = _native._bind(sys.argv[1])
_native.load_kernels = lambda: sanitized
# a copy of each block as it comes: the next block reuses its arrays
np.savez(sys.argv[2], *[a.copy() for a in kernel_outputs(*sanitized_case())])
"""


class TestPerUnitOutput:
    def test_midpoint_is_half(self):
        curve = PowerCurve(alpha=0.8, beta=9.0)
        assert per_unit_output(9.0, curve) == pytest.approx(0.5, abs=1e-12)

    def test_closed_form_point(self):
        curve = PowerCurve(alpha=0.8, beta=9.0)
        w = 9.0 + 10.0 / 0.8
        assert per_unit_output(w, curve) == pytest.approx(1.0 / (1.0 + math.exp(-10.0)), rel=1e-12)

    def test_strictly_increasing(self):
        curve = PowerCurve(alpha=0.5, beta=10.0)
        winds = np.linspace(0.0, 30.0, 200)
        outputs = per_unit_output(winds, curve)
        assert np.all(np.diff(outputs) > 0.0)
        assert np.all((outputs > 0.0) & (outputs < 1.0))

    def test_steep_curve_reaches_its_limits_without_a_warning(self):
        # exp(1e4) overflows to inf, and 1 / inf is the limit 0.0 exactly
        curve = PowerCurve(alpha=1000.0, beta=10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert per_unit_output(0.0, curve) == 0.0
            assert per_unit_output(20.0, curve) == 1.0

    @pytest.mark.parametrize("alpha, beta", [(math.nan, 7.0), (math.inf, 7.0),
                                             (0.9, math.nan), (0.9, math.inf)])
    def test_non_finite_curve_refused(self, alpha, beta):
        with pytest.raises(WindGameError, match="must be positive and finite"):
            PowerCurve(alpha=alpha, beta=beta)

    @pytest.mark.parametrize("name", ["x1", "x2"])
    @pytest.mark.parametrize("bad", [math.nan, -0.5, 1.5])
    def test_per_unit_outside_unit_interval_refused(self, name, bad):
        # the energy kernel reads these by address and relies on this check
        values = dict(x1=np.full(3, 0.5), x2=np.full(3, 0.5), p_d=np.full(3, 100.0))
        values[name][1] = bad
        with pytest.raises(WindGameError, match=rf"{name} must lie in \[0, 1\]"):
            PerUnitSeries(**values)

    def test_default_curve_tracks_fixture_points(self):
        from importlib import resources
        curve = default_power_curve()
        ref = resources.files("windgame").joinpath("data/enercon_e82_power_curve.csv")
        with resources.as_file(ref) as path:
            points = load_curve_points(path)
        sse = sum((per_unit_output(w, curve) - y) ** 2 for w, y in points)
        assert sse == pytest.approx(curve.fit_residual, rel=1e-9)
        # residual is small relative to the 25 fitted points
        assert curve.fit_residual < 0.01


class TestFitSigmoid:
    def test_round_trip_exact_points(self):
        truth = PowerCurve(alpha=0.8, beta=9.0)
        points = [(w, float(per_unit_output(w, truth))) for w in np.linspace(1.0, 20.0, 15)]
        fitted = fit_sigmoid(points)
        assert fitted.alpha == pytest.approx(0.8, abs=1e-3)
        assert fitted.beta == pytest.approx(9.0, abs=1e-3)
        assert fitted.fit_residual < 1e-8

    def test_step_data_puts_midpoint_near_step(self):
        points = [(float(w), 0.0 if w < 9 else 1.0) for w in range(19)]
        fitted = fit_sigmoid(points)
        # brute-force oracle over a coarse parameter grid
        best = None
        winds = np.array([p[0] for p in points])
        outs = np.array([p[1] for p in points])
        for alpha in np.linspace(0.1, 5.0, 60):
            for beta in np.linspace(1.0, 18.0, 120):
                pred = 1.0 / (1.0 + np.exp(-alpha * (winds - beta)))
                sse = float(((pred - outs) ** 2).sum())
                if best is None or sse < best[0]:
                    best = (sse, alpha, beta)
        assert fitted.fit_residual <= best[0] + 1e-9
        assert abs(fitted.beta - 9.0) <= 1.0

    def test_symmetric_noise_recovers_midpoint(self):
        truth = PowerCurve(alpha=0.9, beta=8.0)
        rng = np.random.default_rng(123)
        recovered = []
        for _ in range(10):
            winds = np.linspace(1.0, 18.0, 18)
            noise = rng.uniform(-0.01, 0.01, len(winds))
            outputs = np.clip(per_unit_output(winds, truth) + noise, 0.0, 1.0)
            fitted = fit_sigmoid(list(zip(winds, outputs)))
            recovered.append(fitted.beta)
        assert all(abs(b - 8.0) <= 0.2 for b in recovered)

    def test_degenerate_points_rejected(self):
        with pytest.raises(FitError, match="constant"):
            fit_sigmoid([(1.0, 0.5), (2.0, 0.5), (3.0, 0.5)])
        with pytest.raises(FitError, match="at least 3"):
            fit_sigmoid([(1.0, 0.1), (2.0, 0.9)])
        with pytest.raises(FitError, match=r"\[0, 1\]"):
            fit_sigmoid([(1.0, 0.1), (2.0, 0.5), (3.0, 1.5)])

    @pytest.mark.parametrize("point", [(math.nan, 0.5), (math.inf, 0.5), (-math.inf, 0.5),
                                       (2.0, math.nan)])
    def test_non_finite_points_rejected(self, point):
        with pytest.raises(FitError, match="must be finite"):
            fit_sigmoid([(1.0, 0.1), point, (3.0, 0.9)])


class TestCurtailmentTimestep:
    def test_no_curtailment_when_demand_covers(self):
        assert curtailment_timestep(10.0, 10.0, 30.0) == (0.0, 0.0)

    def test_proportional_split(self):
        assert curtailment_timestep(60.0, 40.0, 80.0) == (12.0, 8.0)

    def test_zero_generation(self):
        assert curtailment_timestep(0.0, 0.0, 50.0) == (0.0, 0.0)

    @staticmethod
    def _power(value: float) -> float:
        # keep magnitudes physical; sub-nanowatt outputs only probe IEEE edges
        return 0.0 if value < 1e-9 else value

    @settings(max_examples=300)
    @given(st.floats(min_value=0.0, max_value=1e6),
           st.floats(min_value=0.0, max_value=1e6),
           st.floats(min_value=0.0, max_value=1e6))
    def test_share_properties(self, g1, g2, pd):
        g1, g2, pd = self._power(g1), self._power(g2), self._power(pd)
        c1, c2 = curtailment_timestep(g1, g2, pd)
        total = max(0.0, g1 + g2 - pd)
        assert c1 + c2 == pytest.approx(total, rel=1e-15, abs=0.0)
        # the exact-sum construction can overshoot a bound by an ulp of the surplus
        slack = 2.0 * np.spacing(max(total, 1.0e-12))
        assert 0.0 <= c1 <= g1 + slack
        assert 0.0 <= c2 <= g2 + slack
        if g1 > 0.0 and g2 > 0.0 and total > 0.0:
            # equal curtailed fraction for both players, cross-multiplied to
            # avoid dividing by a vanishing output
            assert abs(c1 * g2 - c2 * g1) <= 8.0 * np.spacing(total) * max(g1, g2)


class TestStrategyGrid:
    def test_values_span_zero_to_max(self):
        grid = StrategyGrid(step=0.5, p_n_max=500.5)
        assert len(grid) == 1002
        assert grid.values[0] == 0.0
        assert grid.values[-1] == 500.5

    def test_non_integral_max_rejected(self):
        with pytest.raises(WindGameError, match="multiple"):
            StrategyGrid(step=0.4, p_n_max=1.0)

    def test_equal_grids_compare_and_hash_by_scalars(self):
        a, b = StrategyGrid(step=5.0, p_n_max=100.0), StrategyGrid(step=5.0, p_n_max=100.0)
        assert a == b and hash(a) == hash(b)
        assert a != StrategyGrid(step=5.0, p_n_max=50.0)
        assert [f.name for f in dataclasses.fields(StrategyGrid)] == ["step", "p_n_max"]

    def test_grid_refused_where_numpy_cannot_shape_its_tables(self):
        # 2**30 points make k x k float64 tables of 2**63 bytes, one past np.intp
        assert len(StrategyGrid(step=1.0, p_n_max=2.0**30 - 2)) == 2**30 - 1
        with pytest.raises(WindGameError, match=r"1.074e\+09 grid points are too many"):
            StrategyGrid(step=1.0, p_n_max=2.0**30 - 1)
        with pytest.raises(ValueError):
            np.zeros((2**30, 2**30))


class TestBuildEnergyTables:
    def test_zero_capacity_grid_all_zero(self):
        series = random_per_unit(50)
        grid = StrategyGrid(step=1.0, p_n_max=1.0)
        tables = build_energy_tables(series, default_power_curve(), grid)
        assert tables.e_g1[0] == 0.0 and tables.e_g2[0] == 0.0
        assert np.all(tables.e_c1[0, 0] == 0.0)

    def test_small_case_matches_brute_force_exactly(self):
        series = random_per_unit(5, seed=1)
        grid = StrategyGrid(step=50.0, p_n_max=100.0)
        tables = build_energy_tables(series, default_power_curve(), grid)
        e_g1, e_g2, e_c1, e_c2 = brute_force_energy_tables(
            series.x1, series.x2, series.p_d, grid.values)
        assert np.array_equal(tables.e_g1, e_g1)
        assert np.array_equal(tables.e_g2, e_g2)
        assert np.array_equal(tables.e_c1, e_c1)
        assert np.array_equal(tables.e_c2, e_c2)

    def test_generation_linear_in_capacity(self):
        series = random_per_unit(64, seed=2)
        grid = StrategyGrid(step=10.0, p_n_max=100.0)
        tables = build_energy_tables(series, default_power_curve(), grid)
        # grid[2k] = 2 * grid[k]; scaling by two is exact in floats
        assert tables.e_g1[4] == 2.0 * tables.e_g1[2]
        assert tables.e_g2[10] == 2.0 * tables.e_g2[5]

    def test_boundary_rows_are_zero(self):
        series = random_per_unit(40, seed=3)
        grid = StrategyGrid(step=20.0, p_n_max=100.0)
        tables = build_energy_tables(series, default_power_curve(), grid)
        assert np.all(tables.e_c1[0, :] == 0.0)
        assert np.all(tables.e_c2[:, 0] == 0.0)

    def test_monotone_in_both_capacities(self):
        series = random_per_unit(128, seed=4)
        grid = StrategyGrid(step=10.0, p_n_max=100.0)
        tables = build_energy_tables(series, default_power_curve(), grid)
        assert np.all(np.diff(tables.e_c1, axis=0) >= 0.0)
        assert np.all(np.diff(tables.e_c1, axis=1) >= 0.0)
        assert np.all(np.diff(tables.e_c2, axis=0) >= 0.0)
        assert np.all(np.diff(tables.e_c2, axis=1) >= 0.0)

    def test_energy_conservation_per_cell(self):
        series = random_per_unit(100, seed=5)
        grid = StrategyGrid(step=25.0, p_n_max=100.0)
        tables = build_energy_tables(series, default_power_curve(), grid)
        for a in range(len(grid)):
            for b in range(len(grid)):
                delivered = (tables.e_g1[a] - tables.e_c1[a, b]
                             + tables.e_g2[b] - tables.e_c2[a, b])
                absorbed = sum(min(series.x1[t] * grid.values[a]
                                   + series.x2[t] * grid.values[b], series.p_d[t])
                               for t in range(len(series)))
                assert delivered == pytest.approx(absorbed, rel=1e-12)

    def test_curtailment_bounded_by_generation(self):
        series = random_per_unit(80, seed=6)
        grid = StrategyGrid(step=10.0, p_n_max=100.0)
        tables = build_energy_tables(series, default_power_curve(), grid)
        total_c = tables.e_c1 + tables.e_c2
        total_g = tables.e_g1[:, None] + tables.e_g2[None, :]
        assert np.all(total_c <= total_g + 1e-9)

    def test_accepts_realisation_input(self, synthetic_tables):
        real = run_chain(ChainConfig(n=100, realisations=1, seed=3), synthetic_tables, 0)
        grid = StrategyGrid(step=50.0, p_n_max=100.0)
        curve = default_power_curve()
        from_real = build_energy_tables(real, curve, grid)
        from_series = build_energy_tables(per_unit_series(real, curve), curve, grid)
        assert np.array_equal(from_real.e_c1, from_series.e_c1)

    def test_empty_realisation_rejected(self):
        with pytest.raises(WindGameError, match="empty"):
            build_energy_tables(PerUnitSeries(x1=np.array([]), x2=np.array([]),
                                              p_d=np.array([])),
                                default_power_curve(), StrategyGrid(step=1.0, p_n_max=2.0))


@pytest.fixture(params=["compiled", "numpy"])
def energy_path(request):
    """Who builds the tables the literal loop checks: the compiled kernels,
    or the numpy oracle (``conftest.numpy_energy_tables``) that stands in for
    the literal loop where that is too slow."""
    return request.param


def assert_matches_brute_force(series, grid, path="compiled"):
    if path == "compiled":
        tables = build_energy_tables(series, default_power_curve(), grid)
        got = [getattr(tables, name) for name in ENERGY_TABLES]
    else:
        got = numpy_energy_tables(series.x1, series.x2, series.p_d, grid.values)
    expected = brute_force_energy_tables(series.x1, series.x2, series.p_d, grid.values)
    for table, want in zip(got, expected, strict=True):
        assert table.tobytes() == want.tobytes()


class TestEnergyKernelOracle:
    """The kernels and the numpy oracle against the literal loop, bit for bit."""

    def test_single_point_grid(self, energy_path):
        assert_matches_brute_force(random_per_unit(30, seed=10),
                                   StrategyGrid(step=1.0, p_n_max=0.0), energy_path)

    def test_grid_not_a_multiple_of_the_column_block(self, energy_path):
        # 259 columns, a count no vector width divides: the column loop ends
        # in a scalar tail
        assert_matches_brute_force(random_per_unit(3, seed=11),
                                   StrategyGrid(step=0.5, p_n_max=129.0), energy_path)

    def test_zero_output_lanes(self, energy_path):
        # grid[0] = 0 and timesteps with no wind make total = 0 (0/0 lanes)
        series = random_per_unit(40, seed=12)
        series.x1[::3] = 0.0
        series.x2[::4] = 0.0
        assert_matches_brute_force(series, StrategyGrid(step=10.0, p_n_max=100.0), energy_path)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_generated_series(self, energy_path, data):
        n = data.draw(st.integers(min_value=1, max_value=12))
        unit = st.floats(min_value=0.0, max_value=1.0)
        series = PerUnitSeries(
            x1=np.array(data.draw(st.lists(unit, min_size=n, max_size=n))),
            x2=np.array(data.draw(st.lists(unit, min_size=n, max_size=n))),
            p_d=np.array(data.draw(st.lists(st.floats(min_value=0.0, max_value=300.0),
                                            min_size=n, max_size=n))))
        step = data.draw(st.sampled_from([0.5, 2.5, 10.0, 30.0]))
        grid = StrategyGrid(step=step, p_n_max=step * data.draw(st.integers(0, 10)))
        assert_matches_brute_force(series, grid, energy_path)


class TestKernelBuild:
    def test_bindings_match_c_prototypes(self):
        # every array goes in as a bare address, so ctypes checks no dtype and
        # these prototypes are the only contract between caller and kernel
        lib = _native.load_kernels()
        source = resources.files("windgame").joinpath(_native._KERNEL_SOURCE).read_text()
        scalars = {"ptrdiff_t": ctypes.c_ssize_t, "int64_t": ctypes.c_int64,
                   "double": ctypes.c_double}
        results = {"void": None, "int": ctypes.c_int}
        for name in ("energy_generation", "energy_tables", "gibbs_chain", "follower_best"):
            result, params = re.search(rf"^(\w+) {name}\(([^)]*)\)", source, re.M).groups()
            argtypes = [ctypes.c_void_p if "*" in param else scalars[param.split()[0]]
                        for param in params.split(",")]
            entry = getattr(lib, name)
            assert (list(entry.argtypes), entry.restype) == (argtypes, results[result]), name
        # gibbs_chain reads its tables through a struct that Python fills
        body = re.search(r"^struct gibbs_tables \{(.*?)\};", source, re.M | re.S).group(1)
        fields = []
        for declaration in filter(str.strip, body.split(";")):
            base, names = re.match(r"\s*(?:const\s+)?(\w+)\s+(.*)", declaration, re.S).groups()
            fields += [(name.strip().lstrip("*"),
                        ctypes.c_void_p if "*" in name else scalars[base])
                       for name in names.split(",")]
        assert gibbs.GibbsTables._fields_ == fields

    @pytest.mark.parametrize("isa", ["avx512f", "avx2", None], ids=["avx512f", "avx2", "default"])
    def test_every_vector_clone_matches_the_oracles(self, isa, tmp_path, monkeypatch):
        # the loaded library runs only the widest clone this CPU has; built
        # alone, every clone this CPU can run must give the oracles' bits
        compiler = shutil.which("cc")
        if compiler is None:
            pytest.skip("no C compiler on this machine")
        if isa is not None and not cpu_has(isa):
            pytest.skip(f"this CPU has no {isa}")
        path = tmp_path / "kernels.so"
        compile_kernels(compiler, path, "-DVECTOR_CLONES=", *([f"-m{isa}"] if isa else []))
        clone = _native._bind(path)
        monkeypatch.setattr(_native, "load_kernels", lambda: clone)
        series = random_per_unit(50, seed=16)
        series.x1[::3] = 0.0  # lanes where total = 0
        grid = StrategyGrid(step=0.5, p_n_max=129.0)  # 259 columns: a scalar tail
        expected = EnergyTables(*numpy_energy_tables(series.x1, series.x2, series.p_d,
                                                     grid.values), grid=grid)
        tables = build_energy_tables(series, None, grid)
        for name in ENERGY_TABLES:
            assert getattr(tables, name).tobytes() == getattr(expected, name).tobytes(), name
        # blocks of 100 rows: row0 100 and 200, the last block 59 rows long
        e_g1, e_g2, blocks = energy_blocks(series, None, grid, rows=100)
        assert (e_g1.tobytes(), e_g2.tobytes()) == (expected.e_g1.tobytes(),
                                                    expected.e_g2.tobytes())
        for row0, e_c1, e_c2 in blocks:
            assert e_c1.tobytes() == expected.e_c1[row0:row0 + 100].tobytes(), row0
            assert e_c2.tobytes() == expected.e_c2[row0:row0 + 100].tobytes(), row0
        # 1.2: a fee above the tariff; every point in one call
        points = [CostParams.from_fractions(74.3, p_t_frac, 0.26, 0.20, 9.0e6)
                  for p_t_frac in (0.0, 0.26, 0.8, 1.2)]
        assert np.array_equal(follower_columns(clone, tables, points),
                              reference_columns(tables, points))
        # designed rows at margin -1 and c_g2 1, where a cell is
        # (g - c2) * -1 - g: column 13 (g = 0) gives -0.0, c2 = 2 over g = 1
        # gives +0.0, c2 = 3 gives 1.0 and c2 = 0 gives -2.0
        k = 37  # no vector width divides it
        e_g2, e_c2 = np.ones(k), np.zeros((k, k))
        e_g2[13] = 0.0
        e_c2[0, 29] = 2.0  # -0.0 at 13 ties +0.0 at 29
        e_c2[1, 5] = 2.0  # +0.0 at 5 ties -0.0 at 13
        e_c2[2, k - 1] = 3.0  # the maximum is the last cell
        e_c2[3, [13, k - 1]] = [-1.0, 2.0]  # the only zero is the last cell
        e_c2[4, 0] = 2.0  # +0.0 at the first cell ties -0.0 at 13
        designed = EnergyTables(e_g1=np.zeros(k), e_g2=e_g2, e_c1=np.zeros((k, k)),
                                e_c2=e_c2, grid=StrategyGrid(step=1.0, p_n_max=k - 1.0))
        point = [CostParams(p_g=1.0, p_t=2.0, c_g1=0.0, c_g2=1.0, c_t=0.0)]
        cols = follower_columns(clone, designed, point)
        assert cols[0, :5].tolist() == [13, 5, k - 1, k - 1, 0]
        assert np.array_equal(cols, reference_columns(designed, point))
        # the solve on this clone gives the reference's bits, -0.0 included
        for table, sweep in ((designed, point), (tables, points)):
            assert game.equilibria(table, sweep).tobytes() == \
                reference_rows(table, sweep).tobytes()

    def test_kernels_run_clean_under_sanitizers(self, tmp_path):
        # every array crosses into C as a bare address, so only a sanitized
        # build sees an out-of-bounds access or undefined behaviour; its
        # outputs must also be the oracles' bits
        compiler = shutil.which("cc")
        if compiler is None:
            pytest.skip("no C compiler on this machine")
        runtimes = [subprocess.run([compiler, f"-print-file-name={name}"], capture_output=True,
                                   text=True, check=True).stdout.strip()
                    for name in ("libasan.so", "libubsan.so")]
        if not all(os.path.isabs(lib) and os.path.exists(lib) for lib in runtimes):
            pytest.skip("no ASan and UBSan runtimes for this compiler")
        path, outputs = tmp_path / "kernels.so", tmp_path / "outputs.npz"
        compile_kernels(compiler, path, "-fsanitize=address,undefined,float-cast-overflow",
                        "-fno-sanitize-recover=all")
        done = subprocess.run([sys.executable, "-c", SANITIZED_RUN, str(path), str(outputs)],
                              cwd=REPO_ROOT,
                              env=dict(os.environ, PYTHONPATH="src:tests",
                                       LD_PRELOAD=" ".join(runtimes),
                                       ASAN_OPTIONS="detect_leaks=0"),
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr[-4000:]
        with np.load(outputs) as saved:
            got = [saved[f"arr_{i}"].tobytes() for i in range(len(saved.files))]
        want = [a.tobytes() for a in oracle_outputs(*sanitized_case())]
        assert len(got) == len(want)
        assert got == want, [i for i, (a, b) in enumerate(zip(got, want)) if a != b]

    def test_cached_binary_is_reused(self, tmp_path, monkeypatch):
        if shutil.which("cc") is None and shutil.which("gcc") is None:
            pytest.skip("no C compiler on this machine")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        path = _native._compile_kernel()
        assert path.parent == tmp_path / "windgame"
        assert [p.name for p in path.parent.iterdir()] == [path.name]

        def no_compiler(*args, **kwargs):
            raise AssertionError("compiler invoked despite a cached kernel")

        monkeypatch.setattr(subprocess, "run", no_compiler)
        assert _native._compile_kernel() == path

    def test_concurrent_first_load_fails_once(self, tmp_path, monkeypatch):
        lookups = []

        def slow_no_compiler(name):
            lookups.append(name)  # list.append is atomic
            time.sleep(0.05)  # holds the first load open while the others arrive
            return None

        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(shutil, "which", slow_no_compiler)
        series = random_per_unit(20, seed=15)
        grid = StrategyGrid(step=20.0, p_n_max=100.0)
        threads = 4  # more than the cores of a small CI runner
        barrier = threading.Barrier(threads)

        def build(_):
            barrier.wait(timeout=30)
            with pytest.raises(WindGameError) as refused:
                build_energy_tables(series, None, grid)
            return str(refused.value)

        _native._load_kernels.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(threads) as pool:
                futures = [pool.submit(build, t) for t in range(threads)]
                messages = [future.result(timeout=60) for future in futures]
            # a later load raises the kept failure, with no second lookup
            with pytest.raises(WindGameError, match="no C compiler"):
                _native.load_kernels()
        finally:
            sys.setswitchinterval(interval)
            _native._load_kernels.cache_clear()
        assert lookups == ["cc", "gcc"]
        assert messages == ["compiled kernels unavailable: no C compiler (cc or gcc) on PATH"] \
            * threads

    def test_failed_compile_refused_with_the_compilers_last_line(self, tmp_path, monkeypatch):
        compiler = tmp_path / "cc"
        compiler.write_text("#!/bin/sh\necho 'first line' >&2\necho 'last line' >&2\nexit 1\n")
        compiler.chmod(0o755)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setattr(shutil, "which", lambda name: str(compiler))
        _native._load_kernels.cache_clear()
        try:
            with pytest.raises(WindGameError, match=f"^compiled kernels unavailable: "
                                                    f"{re.escape(str(compiler))}: last line$"):
                _native.load_kernels()
        finally:
            _native._load_kernels.cache_clear()

    def test_library_without_an_entry_point_refused_by_its_name(self, tmp_path, monkeypatch):
        compiler = shutil.which("cc")
        if compiler is None:
            pytest.skip("no C compiler on this machine")
        path = tmp_path / "kernels.so"
        compile_kernels(compiler, path, "-Dfollower_best=follower_best_renamed")
        monkeypatch.setattr(_native, "_compile_kernel", lambda: path)
        _native._load_kernels.cache_clear()
        try:
            with pytest.raises(WindGameError, match=r"undefined symbol: follower_best$"):
                _native.load_kernels()
        finally:
            _native._load_kernels.cache_clear()

    def test_cache_that_cannot_be_written_refused_by_its_path(self, tmp_path, monkeypatch):
        if shutil.which("cc") is None and shutil.which("gcc") is None:
            pytest.skip("no C compiler on this machine")
        blocker = tmp_path / "a-file"
        blocker.write_bytes(b"")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        _native._load_kernels.cache_clear()
        try:
            with pytest.raises(WindGameError, match="^compiled kernels unavailable: .*"
                                                    f"{re.escape(str(blocker))}/windgame"):
                _native.load_kernels()
        finally:
            _native._load_kernels.cache_clear()
