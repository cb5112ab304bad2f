"""Deterministic synthetic fixtures: correlated site winds and a demand series.

Two wind sites share a persistent AR(1) weather driver with strong
cross-site correlation and Weibull-shaped marginals; demand carries annual,
daily and weekly structure, autocorrelated noise, and a weak negative
coupling to the mean wind. The CSV writer degrades the series the way real
archives do (missing rows, blank cells, sentinel values, duplicated
timestamps) so the ingestion path is exercised end to end.
"""
from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
from scipy.special import ndtr

DEFAULT_SEED = 414243
WIND_START = np.datetime64("2014-01-01T00:00:00", "s")
DEMAND_START = np.datetime64("2015-01-01T00:00:00", "s")
HOUR = np.timedelta64(3600, "s")


def _ar1(eps: np.ndarray, persistence: float) -> np.ndarray:
    out = np.empty_like(eps)
    out[0] = eps[0]
    scale = math.sqrt(1.0 - persistence ** 2)
    for t in range(1, len(eps)):
        out[t] = persistence * out[t - 1] + scale * eps[t]
    return out


def _generate(n_hours: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Site winds (m/s) and national-scale demand (MW) for n_hours."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))

    site_corr = 0.85
    eps = rng.standard_normal((n_hours, 2))
    chol = np.linalg.cholesky(np.array([[1.0, site_corr], [site_corr, 1.0]]))
    z = _ar1(eps @ chol.T, persistence=0.97)
    u = ndtr(z)

    shape = 2.0
    gamma_factor = math.gamma(1.0 + 1.0 / shape)
    lam1 = 12.10 / gamma_factor
    lam2 = 12.20 / gamma_factor
    w1 = lam1 * (-np.log1p(-u[:, 0])) ** (1.0 / shape)
    w2 = lam2 * (-np.log1p(-u[:, 1])) ** (1.0 / shape)

    hours = np.arange(n_hours)
    hod = hours % 24
    doy = (hours // 24) % 365
    dow = (hours // 24) % 7
    seasonal = 4200.0 * np.cos(2.0 * np.pi * (doy - 20) / 365.0)
    daily = 2600.0 * np.cos(2.0 * np.pi * (hod - 18) / 24.0)
    weekly = np.where(dow >= 5, -1200.0, 400.0)
    noise = 600.0 * _ar1(rng.standard_normal(n_hours), persistence=0.90)
    mean_wind = (w1 + w2) / 2.0
    coupling = -45.0 * (mean_wind - mean_wind.mean())
    demand = 30000.0 + seasonal + daily + weekly + noise + coupling
    np.maximum(demand, 15000.0, out=demand)
    return w1, w2, demand


def _write_csv(path: Path, header: tuple[str, str],
               timestamps: np.ndarray, values: list[str],
               dirt_rng: np.random.Generator,
               n_drop: int, n_blank: int, n_sentinel: int, n_duplicate: int) -> None:
    n = len(values)
    drop = set(dirt_rng.choice(n, size=n_drop, replace=False).tolist())
    eligible = [i for i in range(n) if i not in drop]
    blank = set(dirt_rng.choice(eligible, size=n_blank, replace=False).tolist())
    remaining = [i for i in eligible if i not in blank]
    sentinel = set(dirt_rng.choice(remaining, size=n_sentinel, replace=False).tolist())
    dup_pool = [i for i in remaining if i not in sentinel]
    duplicate = set(dirt_rng.choice(dup_pool, size=n_duplicate, replace=False).tolist())

    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for i in range(n):
            if i in drop:
                continue
            stamp = str(timestamps[i])
            if i in blank:
                writer.writerow([stamp, ""])
            elif i in sentinel:
                writer.writerow([stamp, "-999.0"])
            else:
                writer.writerow([stamp, values[i]])
            if i in duplicate:
                writer.writerow([stamp, values[i]])


def write_synthetic_csvs(out_dir: str | Path, seed: int = DEFAULT_SEED) -> list[Path]:
    """Write the three degraded fixture CSVs; returns the paths.

    Wind files cover two years, demand the second year only, so alignment
    trims to their intersection just as mismatched archives would.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_wind = 17520
    n_demand = 8760
    w1, w2, demand = _generate(n_wind, seed)
    demand = demand[n_wind - n_demand:]
    wind_ts = WIND_START + np.arange(n_wind) * HOUR
    demand_ts = DEMAND_START + np.arange(n_demand) * HOUR

    dirt = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(999,))))
    paths = [out_dir / "site_a_wind.csv", out_dir / "site_b_wind.csv", out_dir / "demand.csv"]
    _write_csv(paths[0], ("timestamp", "wind_speed_ms"), wind_ts,
               [f"{v:.2f}" for v in w1], dirt,
               n_drop=30, n_blank=6, n_sentinel=4, n_duplicate=2)
    _write_csv(paths[1], ("timestamp", "wind_speed_ms"), wind_ts,
               [f"{v:.2f}" for v in w2], dirt,
               n_drop=25, n_blank=5, n_sentinel=3, n_duplicate=1)
    _write_csv(paths[2], ("timestamp", "demand_mw"), demand_ts,
               [f"{v:.1f}" for v in demand], dirt,
               n_drop=12, n_blank=4, n_sentinel=0, n_duplicate=1)
    return paths
