"""Shared fixtures: the synthetic dataset and its sampler tables."""
from __future__ import annotations

import numpy as np
import pytest

from windgame import SamplerTables, _native, game
from windgame.ingest import JointSeries
from windgame.synthetic import DEFAULT_SEED, DEMAND_START, HOUR, _generate

REPO_ROOT = __file__.rsplit("/", 2)[0]


def tables_for(series: JointSeries, wind_width: float = 1.0,
               min_count: int = 10) -> SamplerTables:
    return SamplerTables.from_series(series, wind_width, min_count)


def joint_from_arrays(w1, w2, p_d) -> JointSeries:
    n = len(w1)
    timestamps = (np.datetime64("2020-01-01T00:00:00", "s")
                  + np.arange(n) * np.timedelta64(3600, "s"))
    return JointSeries(timestamps=timestamps,
                       w1=np.asarray(w1, dtype=np.float64),
                       w2=np.asarray(w2, dtype=np.float64),
                       p_d=np.asarray(p_d, dtype=np.float64))


def use_kernel_path(path: str, monkeypatch) -> str:
    """Send the package to its compiled kernels ("compiled"; the test is
    skipped when they cannot load) or to its fallback loops ("numpy")."""
    if path == "compiled":
        if _native.load_kernels() is None:
            pytest.skip("compiled kernels unavailable on this machine")
    else:
        monkeypatch.setattr(_native, "load_kernels", lambda: None)
    return path


def follower_columns(kernels, tables, costs) -> np.ndarray:
    """``game._follower_best`` over every row of ``tables`` in one block, at
    each of ``costs``: the (points, k) best-response columns."""
    margin = np.array([c.p_g - c.p_t for c in costs])
    c_g2 = np.array([c.c_g2 for c in costs])
    return game._follower_best(kernels, tables.e_g2, tables.e_c2, margin, c_g2)


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """Build the compiled kernels under a session temp dir, not ~/.cache."""
    patch = pytest.MonkeyPatch()
    patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
    yield
    patch.undo()


@pytest.fixture(scope="session")
def synthetic_series() -> JointSeries:
    """A clean, aligned year of the fixture generator's series, with demand
    scaled to the shipped configs' target mean."""
    n_hours = 8760
    w1, w2, demand = _generate(n_hours, DEFAULT_SEED)
    return JointSeries(timestamps=DEMAND_START + np.arange(n_hours) * HOUR, w1=w1, w2=w2,
                       p_d=demand * (108.1830 / demand.mean()))


@pytest.fixture(scope="session")
def synthetic_tables(synthetic_series) -> SamplerTables:
    return tables_for(synthetic_series)
