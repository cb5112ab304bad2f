"""Power curve, curtailment sharing, and energy-tensor aggregation."""
from __future__ import annotations

import ctypes
import dataclasses
import logging
import math
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from importlib import resources

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from windgame import (ChainConfig, CostParams, FitError, PowerCurve, StrategyGrid,
                      WindGameError, build_energy_tables, curtailment_timestep,
                      default_power_curve, fit_sigmoid, load_curve_points,
                      per_unit_output, per_unit_series, run_chain)
from windgame import _native, game
from windgame.sim import PerUnitSeries

from conftest import use_kernel_path


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
def energy_path(request, monkeypatch):
    """Run the test once on the C kernel and once on the numpy fallback."""
    return use_kernel_path(request.param, monkeypatch)


def assert_matches_brute_force(series, grid):
    tables = build_energy_tables(series, default_power_curve(), grid)
    expected = brute_force_energy_tables(series.x1, series.x2, series.p_d, grid.values)
    for got, want in zip((tables.e_g1, tables.e_g2, tables.e_c1, tables.e_c2), expected):
        assert got.tobytes() == want.tobytes()
    return tables


class TestEnergyKernelOracle:
    """Both build paths against the literal loop, bit for bit."""

    def test_single_point_grid(self, energy_path):
        assert_matches_brute_force(random_per_unit(30, seed=10),
                                   StrategyGrid(step=1.0, p_n_max=0.0))

    def test_grid_not_a_multiple_of_the_column_block(self, energy_path):
        # 259 columns, a count no vector width divides: the column loop ends
        # in a scalar tail
        assert_matches_brute_force(random_per_unit(3, seed=11),
                                   StrategyGrid(step=0.5, p_n_max=129.0))

    def test_zero_output_lanes(self, energy_path):
        # grid[0] = 0 and timesteps with no wind make total = 0 (0/0 lanes)
        series = random_per_unit(40, seed=12)
        series.x1[::3] = 0.0
        series.x2[::4] = 0.0
        assert_matches_brute_force(series, StrategyGrid(step=10.0, p_n_max=100.0))

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
        assert_matches_brute_force(series, grid)


class TestKernelBuild:
    def test_bindings_match_c_prototypes(self):
        # every array goes in as a bare address, so ctypes checks no dtype and
        # these prototypes are the only contract between caller and kernel
        lib = _native.load_kernels()
        if lib is None:
            pytest.skip("compiled kernels unavailable on this machine")
        source = resources.files("windgame").joinpath(_native._KERNEL_SOURCE).read_text()
        scalars = {"ptrdiff_t": ctypes.c_ssize_t, "int64_t": ctypes.c_int64,
                   "double": ctypes.c_double}
        results = {"void": None, "int": ctypes.c_int}
        for name in ("energy_tables", "gibbs_chain", "follower_best"):
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
        assert _native.GibbsTables._fields_ == fields

    @pytest.mark.parametrize("isa", ["avx512f", "avx2", None], ids=["avx512f", "avx2", "default"])
    def test_every_vector_clone_matches_the_fallbacks(self, isa, tmp_path, monkeypatch):
        # the loaded library runs only the widest clone this CPU has; built
        # alone, every clone this CPU can run must give the fallbacks' bits
        compiler = _native.shutil.which("cc")
        if compiler is None:
            pytest.skip("no C compiler on this machine")
        if isa is not None and not cpu_has(isa):
            pytest.skip(f"this CPU has no {isa}")
        path = tmp_path / "kernels.so"
        subprocess.run([compiler, *_native._KERNEL_FLAGS, "-DVECTOR_CLONES=",
                        *([f"-m{isa}"] if isa else []), "-o", str(path), "-x", "c", "-"],
                       input=resources.files("windgame").joinpath(
                           _native._KERNEL_SOURCE).read_bytes(),
                       capture_output=True, check=True, timeout=300)
        clone = _native._bind(path)
        series = random_per_unit(50, seed=16)
        series.x1[::3] = 0.0  # lanes where total = 0
        grid = StrategyGrid(step=0.5, p_n_max=129.0)  # 259 columns: a scalar tail
        monkeypatch.setattr(_native, "load_kernels", lambda: clone)
        tables = build_energy_tables(series, None, grid)
        monkeypatch.setattr(_native, "load_kernels", lambda: None)
        expected = build_energy_tables(series, None, grid)
        for name in ("e_g1", "e_g2", "e_c1", "e_c2"):
            assert getattr(tables, name).tobytes() == getattr(expected, name).tobytes(), name
        # 1.2: a fee above the tariff; every point in one call
        points = [CostParams.from_fractions(74.3, p_t_frac, 0.26, 0.20, 9.0e6)
                  for p_t_frac in (0.0, 0.26, 0.8, 1.2)]
        cols, best = game._follower_best(clone, tables, points)
        for p, costs in enumerate(points):
            want_cols, want_best = game._best_response(
                game._follower_profit(tables.e_g2[None, :], tables.e_c2, costs))
            assert np.array_equal(cols[p], want_cols)
            assert best[p].tobytes() == want_best.tobytes()

    def test_cached_binary_is_reused(self, tmp_path, monkeypatch):
        if _native.shutil.which("cc") is None and _native.shutil.which("gcc") is None:
            pytest.skip("no C compiler on this machine")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        path = _native._compile_kernel()
        assert path.parent == tmp_path / "windgame"
        assert [p.name for p in path.parent.iterdir()] == [path.name]

        def no_compiler(*args, **kwargs):
            raise AssertionError("compiler invoked despite a cached kernel")

        monkeypatch.setattr(subprocess, "run", no_compiler)
        assert _native._compile_kernel() == path

    def test_failed_build_warns_once_and_falls_back(self, tmp_path, monkeypatch, caplog,
                                                     synthetic_tables):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(_native.shutil, "which", lambda name: None)
        series = random_per_unit(20, seed=14)
        grid = StrategyGrid(step=20.0, p_n_max=100.0)
        _native._load_kernels.cache_clear()
        try:
            with caplog.at_level(logging.WARNING, logger="windgame"):
                assert_matches_brute_force(series, grid)
                assert_matches_brute_force(series, grid)
                # the sampler shares the library, so it warns no further
                run_chain(ChainConfig(n=20, realisations=1, seed=1), synthetic_tables, 0)
        finally:
            _native._load_kernels.cache_clear()
        warnings = [r for r in caplog.records if "using the fallback loops" in r.getMessage()]
        assert len(warnings) == 1
        assert "no C compiler" in warnings[0].getMessage()

    def test_concurrent_first_load_warns_once(self, tmp_path, monkeypatch, caplog):
        def slow_no_compiler(name):
            time.sleep(0.05)  # holds the first load open while the others arrive
            return None

        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(_native.shutil, "which", slow_no_compiler)
        series = random_per_unit(20, seed=15)
        grid = StrategyGrid(step=20.0, p_n_max=100.0)
        threads = 4  # more than the cores of a small CI runner
        barrier = threading.Barrier(threads)

        def build(_):
            barrier.wait(timeout=30)
            return build_energy_tables(series, None, grid)

        _native._load_kernels.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with caplog.at_level(logging.WARNING, logger="windgame"), \
                    ThreadPoolExecutor(threads) as pool:
                futures = [pool.submit(build, t) for t in range(threads)]
                tables = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
            _native._load_kernels.cache_clear()
        warnings = [r for r in caplog.records if "using the fallback loops" in r.getMessage()]
        assert len(warnings) == 1
        for other in tables[1:]:
            for name in ("e_g1", "e_g2", "e_c1", "e_c2"):
                assert getattr(other, name).tobytes() == getattr(tables[0], name).tobytes()
