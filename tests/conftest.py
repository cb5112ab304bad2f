"""Shared fixtures: the synthetic dataset and its sampler tables."""
from __future__ import annotations

import numpy as np
import pytest

from windgame import (BinSpec, SamplerTables, build_demand_conditional,
                      build_joint_wind_table, merge_sparse_bins)
from windgame.ingest import JointSeries
from windgame.synthetic import make_joint_series

REPO_ROOT = __file__.rsplit("/", 2)[0]


def tables_for(series: JointSeries, wind_width: float = 1.0,
               demand_width: float = 5.0, min_count: int = 10) -> SamplerTables:
    spec1 = BinSpec.covering(float(series.w1.min()), float(series.w1.max()), wind_width)
    spec2 = BinSpec.covering(float(series.w2.min()), float(series.w2.max()), wind_width)
    joint = merge_sparse_bins(build_joint_wind_table(series, spec1, spec2), min_count)
    mean_spec = BinSpec.covering(
        (float(series.w1.min()) + float(series.w2.min())) / 2.0,
        (float(series.w1.max()) + float(series.w2.max())) / 2.0, wind_width)
    demand_spec = BinSpec.covering(float(series.p_d.min()), float(series.p_d.max()),
                                   demand_width)
    demand = build_demand_conditional(series, mean_spec, demand_spec, min_count)
    return SamplerTables(joint=joint, demand=demand)


def joint_from_arrays(w1, w2, p_d) -> JointSeries:
    n = len(w1)
    timestamps = (np.datetime64("2020-01-01T00:00:00", "s")
                  + np.arange(n) * np.timedelta64(3600, "s"))
    return JointSeries(timestamps=timestamps,
                       w1=np.asarray(w1, dtype=np.float64),
                       w2=np.asarray(w2, dtype=np.float64),
                       p_d=np.asarray(p_d, dtype=np.float64))


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """Build the compiled energy kernel under a session temp dir, not ~/.cache."""
    patch = pytest.MonkeyPatch()
    patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
    yield
    patch.undo()


@pytest.fixture(scope="session")
def synthetic_series() -> JointSeries:
    return make_joint_series()


@pytest.fixture(scope="session")
def synthetic_tables(synthetic_series) -> SamplerTables:
    return tables_for(synthetic_series)
