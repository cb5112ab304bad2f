"""Configuration parsing, scenario execution, report files, CLI entry."""
from __future__ import annotations

import csv
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
import threading
import time
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from windgame import ConfigError, StageError, WindGameError
from windgame.cli import main
from windgame.config import PROFILES, SweepSpec, apply_profile, load_config, override_seed
from windgame.runner import emit_report, ingest_joint_series, run_scenario, run_stats

from conftest import REPO_ROOT, use_kernel_path

CONFIGS_DIR = f"{REPO_ROOT}/configs"


def write_tiny_dataset(tmp_path, n=240, seed=5):
    rng = np.random.default_rng(seed)
    w1 = np.clip(rng.normal(12.0, 4.0, n), 0.1, 28.0)
    w2 = np.clip(w1 + rng.normal(0.0, 2.0, n), 0.1, 28.0)
    demand = np.clip(rng.normal(100.0, 15.0, n), 40.0, 170.0)
    write_series(tmp_path, w1, w2, demand)


def write_series(tmp_path, w1, w2, demand):
    """Hourly w1.csv, w2.csv and demand.csv holding the given values."""
    start = np.datetime64("2019-01-01T00:00:00", "s")
    stamps = [str(start + np.timedelta64(3600 * i, "s")) for i in range(len(w1))]
    for name, header, vals in (("w1.csv", "wind_speed_ms", w1),
                               ("w2.csv", "wind_speed_ms", w2),
                               ("demand.csv", "demand_mw", demand)):
        with open(tmp_path / name, "w", encoding="utf-8") as handle:
            handle.write(f"timestamp,{header}\n")
            for stamp, val in zip(stamps, vals):
                handle.write(f"{stamp},{val:.3f}\n")


def write_tiny_config(tmp_path, *, sweep="parameter = p_t\nstart_frac = 0.1\n"
                                    "stop_frac = 0.3\nstep_frac = 0.1",
                      chain="n = 300\nrealisations = 3\nseed = 99",
                      bins="wind_width_ms = 4.0\nmin_count = 4",
                      grid="step_mw = 10.0\nmax_mw = 40.0",
                      costs="p_g = 74.3\nc_g1_frac = 0.30\nc_g2_frac = 0.25\np_t_frac = 0.20\n"
                            "c_t = 1.0e5",
                      extra_costs=""):
    text = f"""
[data]
wind1 = w1.csv
wind2 = w2.csv
demand = demand.csv
demand_target_mean_mw = 108.1830

[bins]
{bins}
demand_width_mw = 20.0

[chain]
{chain}

[grid]
{grid}

[costs]
{costs}
{extra_costs}

[sweep]
{sweep}
"""
    path = tmp_path / "tiny.ini"
    path.write_text(text, encoding="utf-8")
    return path


def run_cli_process(command, config, address_space_kb=None, python_flags=()):
    """``windgame <command> --config <config>`` in a fresh interpreter, where an
    escaping exception prints a traceback; ``address_space_kb`` caps its
    address space (``RLIMIT_AS``, set in the child before it starts the
    interpreter, so no shell is needed), and an allocation too large fails at
    once. ``python_flags`` go to the interpreter, before ``-m``."""
    args = [sys.executable, *python_flags, "-m", "windgame.cli", command,
            "--config", str(config)]
    if command == "run":
        args += ["--out", str(config.parent / "out")]

    def cap_address_space():
        limit = address_space_kb * 1024
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(args, cwd=REPO_ROOT, env=dict(os.environ, PYTHONPATH="src"),
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=None if address_space_kb is None else cap_address_space)


@pytest.fixture
def tiny_config(tmp_path):
    write_tiny_dataset(tmp_path)
    return write_tiny_config(tmp_path)


class TestLoadConfig:
    def test_shipped_scenarios_parse(self):
        for name, parameter in (("scenario1.ini", "c_g1"),
                                ("scenario2.ini", "c_g2"),
                                ("scenario3.ini", "p_t")):
            config = load_config(f"{CONFIGS_DIR}/{name}")
            assert config.sweep.parameter == parameter
            assert config.costs.p_g == 74.3
            assert config.chain.n == 5000
            assert config.wind1.path.is_file()

    def test_fraction_costs_resolved_against_tariff(self, tiny_config):
        config = load_config(tiny_config)
        assert config.costs.c_g1 == pytest.approx(0.30 * 74.3)
        assert config.costs.p_t == pytest.approx(0.20 * 74.3)

    def test_absolute_cost_override(self, tmp_path):
        write_tiny_dataset(tmp_path)
        path = write_tiny_config(tmp_path, extra_costs="c_g2_mwh = 12.5")
        with pytest.raises(ConfigError, match="not both"):
            load_config(path)

    def test_missing_section(self, tmp_path):
        path = tmp_path / "broken.ini"
        path.write_text("[data]\nwind1 = x.csv\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"missing required section"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.ini")

    def test_empty_sweep_refused(self, tmp_path):
        write_tiny_dataset(tmp_path)
        path = write_tiny_config(tmp_path, sweep="parameter = p_t\nstart_frac = 0.5\n"
                                                 "stop_frac = 0.1\nstep_frac = 0.1")
        with pytest.raises(ConfigError, match="below start"):
            load_config(path)

    def test_unknown_sweep_parameter(self, tmp_path):
        write_tiny_dataset(tmp_path)
        path = write_tiny_config(tmp_path, sweep="parameter = c_t\nstart_frac = 0\n"
                                                 "stop_frac = 1\nstep_frac = 0.5")
        with pytest.raises(ConfigError, match="sweep parameter"):
            load_config(path)

    def test_profiles(self, tiny_config):
        config = load_config(tiny_config)
        paper = apply_profile(config, "paper")
        assert paper.chain.n == 50_000
        assert paper.chain.realisations == 170
        assert paper.grid_step == 0.5
        assert paper.grid_max == 500.5
        desk = apply_profile(config, "desk")
        assert (desk.chain.n, desk.chain.realisations) == PROFILES["desk"][:2]
        with pytest.raises(ConfigError, match="unknown profile"):
            apply_profile(config, "huge")

    def test_optional_sections_default(self, tmp_path):
        write_tiny_dataset(tmp_path)
        full = load_config(write_tiny_config(tmp_path))
        # the tiny config has no [power_curve]; drop [bins] and [grid] too
        text = (tmp_path / "tiny.ini").read_text(encoding="utf-8")
        path = tmp_path / "bare.ini"
        path.write_text(re.sub(r"\[(bins|grid)\][^[]*", "", text), encoding="utf-8")
        config = load_config(path)
        assert (config.wind_bin_width, config.demand_bin_width, config.min_count) == (1.0, 5.0, 10)
        assert (config.grid_step, config.grid_max) == (5.0, 100.0)
        assert (config.curve_points, config.curve_alpha, config.curve_beta) == (None, None, None)
        assert config.chain == full.chain and config.costs == full.costs

    @pytest.mark.parametrize("old, new, message", [
        ("max_mw = 40.0", "max_mw = 40.3",
         r"\[grid\] p_n_max 40.3 is not an integer multiple of step 10.0"),
        ("[grid]", "[power_curve]\nalpha = 0.0\nbeta = 7.5\n\n[grid]",
         r"\[power_curve\] power curve parameters must be positive"),
        ("[grid]", "[power_curve]\nalpha = 0.9\nbeta = -1.0\n\n[grid]",
         r"\[power_curve\] power curve parameters must be positive"),
        ("[grid]", "[power_curve]\npoints = curve.csv\nalpha = 0.9\nbeta = 7.5\n\n[grid]",
         r"\[power_curve\] give either points or alpha and beta, not both"),
        ("step_mw = 10.0", "step_mw = 1e-300",
         r"\[grid\] 4e\+301 grid points are too many for k x k tables"),
        ("step_mw = 10.0", "step_mw = 5e-324",
         r"\[grid\] inf grid points are too many for k x k tables"),
        ("step_frac = 0.1", "step_frac = 1e-300",
         r"\[sweep\] step_frac 1e-300 gives 2e\+299 points: too many sweep points for 3 "),
        ("step_frac = 0.1", "step_frac = 5e-324",
         r"\[sweep\] step_frac 5e-324 gives inf points: too many sweep points for 3 "),
        ("[grid]", "[power_curve]\nalpha = 0.9\n\n[grid]",
         r"power curve needs both alpha and beta, or neither"),
        ("demand_target_mean_mw = 108.1830", "demand_target_mean_mw = 0",
         r"demand target mean must be positive"),
        ("wind_width_ms = 4.0", "wind_width_ms = 0", r"bin widths must be positive"),
        ("demand_width_mw = 20.0", "demand_width_mw = -5", r"bin widths must be positive"),
        ("min_count = 4", "min_count = 0", r"min_count must be >= 1"),
    ], ids=["grid-max-off-step", "zero-alpha", "negative-beta", "points-and-alpha-beta",
            "grid-step-1e-300", "grid-step-5e-324", "sweep-step-1e-300", "sweep-step-5e-324",
            "alpha-without-beta",
            "demand-target-mean", "wind-width", "demand-width", "min-count"])
    def test_bad_grid_or_curve_refused_at_load(self, tiny_config, old, new, message):
        text = tiny_config.read_text(encoding="utf-8")
        assert old in text
        tiny_config.write_text(text.replace(old, new), encoding="utf-8")
        with pytest.raises(ConfigError, match=message):
            load_config(tiny_config)

    def test_seed_override(self, tiny_config):
        config = override_seed(load_config(tiny_config), 4321)
        assert config.chain.seed == 4321


class TestRunScenario:
    def test_sweep_values_inclusive(self, tiny_config):
        config = load_config(tiny_config)
        assert config.sweep.values() == pytest.approx([0.1, 0.2, 0.3])

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-2.0, 2.0), st.sampled_from([0.01, 0.02, 0.1, 1 / 3, 0.05, 1e-3]),
           st.integers(0, 200),
           st.sampled_from([1.0, 1 + 1e-16, 1 - 1e-16, 1 + 5e-10, 1 - 5e-10, 1 + 2e-9]))
    def test_sweep_values_match_listing_one_by_one(self, start, step, steps, stretch):
        # stops on, just inside and just past the 1e-9 tolerance of a point
        stop = max(start, start + steps * step * stretch)
        sweep = SweepSpec("p_t", start, stop, step)
        listed, k = [], 0
        while start + k * step <= stop + 1e-9 * max(1.0, abs(stop)):
            listed.append(start + k * step)
            k += 1
        points = sweep.values()
        assert all(type(v) is float for v in points)
        assert [v.hex() for v in points] == [v.hex() for v in listed]

    @pytest.mark.parametrize("name", ["start_frac", "stop_frac", "step_frac"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sweep_refused(self, name, bad):
        # nan <= 0.0 is false, so the step's sign test alone lets NaN through,
        # and values() would then fail on its count
        fields = {"start_frac": 0.0, "stop_frac": 1.0, "step_frac": 0.1, name: bad}
        with pytest.raises(ConfigError, match=f"sweep {name} must be finite, got {bad}"):
            SweepSpec("p_t", **fields)

    # no shrinking: each failing example reruns the whole pipeline twice, and
    # shrinking one took minutes; the failure reports its unshrunk example
    @settings(deadline=None, max_examples=60,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(dataset_seed=st.integers(0, 50),
           bins=st.tuples(st.sampled_from([2.0, 3.0, 4.0, 6.0]), st.integers(1, 8)),
           grid=st.tuples(st.sampled_from([5.0, 10.0, 20.0]), st.integers(0, 6)),
           chain=st.tuples(st.integers(2, 400), st.integers(2, 4), st.integers(0, 2**31)),
           sweep=st.tuples(st.sampled_from(["p_t", "c_g1", "c_g2"]), st.integers(0, 12),
                           st.sampled_from([0.05, 0.1, 0.25, 0.5]), st.integers(1, 4)),
           costs=st.tuples(st.sampled_from([1.0, 74.3, 500.0, 1e305]),
                           *[st.floats(0.0, 1.5)] * 3, st.sampled_from([0.0, 1e3, 1e5])))
    # every realisation's pi2 is finite (1.03e308 to 1.14e308), but their mean overflows
    @example(dataset_seed=21, bins=(3.0, 6), grid=(20.0, 3), chain=(37, 3, 1835175),
             sweep=("p_t", 0, 0.5, 1),
             costs=(1e305, 1.3002329050567005, 0.937399680258423, 0.22200611132097153, 1000.0))
    def test_compiled_and_fallback_paths_write_the_same_reports(
            self, dataset_seed, bins, grid, chain, sweep, costs):
        # every stage that has a kernel (sampler, energy tables, game) against
        # its fallback, end to end; fee fractions above 1 charge more than the
        # tariff, and a 1e305 tariff overflows the profits. Reports must match
        # byte for byte, run.json apart from its timings, or both runs must
        # fail with the same stage-tagged error.
        width, min_count = bins
        step, points = grid
        parameter, start, sweep_step, count = sweep
        p_g, p_t_frac, c_g1_frac, c_g2_frac, c_t = costs
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            write_tiny_dataset(tmp, seed=dataset_seed)
            config = load_config(write_tiny_config(
                tmp, bins=f"wind_width_ms = {width!r}\nmin_count = {min_count}",
                grid=f"step_mw = {step!r}\nmax_mw = {step * points!r}",
                chain="n = {}\nrealisations = {}\nseed = {}".format(*chain),
                sweep=f"parameter = {parameter}\nstart_frac = {start / 10!r}\n"
                      f"stop_frac = {start / 10 + sweep_step * (count - 1)!r}\n"
                      f"step_frac = {sweep_step!r}",
                costs=f"p_g = {p_g!r}\np_t_frac = {p_t_frac!r}\nc_g1_frac = {c_g1_frac!r}\n"
                      f"c_g2_frac = {c_g2_frac!r}\nc_t = {c_t!r}"))
            outcomes = []
            for path in ("compiled", "numpy"):
                with pytest.MonkeyPatch.context() as patch:
                    use_kernel_path(path, patch)
                    try:
                        emit_report(run_scenario(config), tmp / path)
                    except StageError as exc:
                        outcomes.append(str(exc))
                        continue
                reports = {name: (tmp / path / name).read_bytes()
                           for name in ("equilibria.csv", "per_realisation.csv",
                                        "convergence.csv")}
                metadata = json.loads((tmp / path / "run.json").read_text(encoding="utf-8"))
                del metadata["timing_s"]
                outcomes.append((reports, metadata))
        assert outcomes[0] == outcomes[1]

    def test_singleton_run_min_equals_mean_equals_max(self, tmp_path):
        write_tiny_dataset(tmp_path)
        path = write_tiny_config(
            tmp_path,
            sweep="parameter = p_t\nstart_frac = 0.2\nstop_frac = 0.2\nstep_frac = 0.1",
            chain="n = 300\nrealisations = 1\nseed = 7")
        result = run_scenario(load_config(path))
        assert result.per_realisation.shape == (1, 1, 4)
        mean, low, high = result.aggregates[0]
        assert np.array_equal(mean, low)
        assert np.array_equal(mean, high)
        assert result.stats is None
        out = tmp_path / "single"
        emit_report(result, out)
        rows = (out / "equilibria.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 3  # header plus mean/min/max for the one point

    def test_rerun_identical(self, tiny_config, tmp_path):
        config = load_config(tiny_config)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        emit_report(run_scenario(config), out_a)
        emit_report(run_scenario(config), out_b)
        for name in ("equilibria.csv", "per_realisation.csv", "convergence.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_energy_tables_built_once_per_realisation(self, tiny_config, monkeypatch):
        import windgame.runner as runner_mod
        calls = []
        original = runner_mod.build_energy_tables

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "build_energy_tables", counting)
        config = load_config(tiny_config)
        result = run_scenario(config)
        assert len(calls) == config.chain.realisations
        assert result.per_realisation.shape == (3, 3, 4)

    def test_stage_tagged_failure(self, tmp_path):
        write_tiny_dataset(tmp_path)
        path = write_tiny_config(tmp_path)
        (tmp_path / "w1.csv").unlink()
        with pytest.raises(StageError, match=r"\[ingest\]"):
            run_scenario(load_config(path))

    def test_disconnected_table_fails_in_tables_stage(self, tmp_path):
        # two clusters of identical winds: at width 4 the empty middle bin
        # folds into the lower one, leaving two diagonal cells
        winds = np.repeat([5.0, 15.0], 12)
        write_series(tmp_path, winds, winds, np.full(24, 100.0))
        path = write_tiny_config(tmp_path)
        with pytest.raises(StageError, match=r"\[tables\] joint table splits into 2 "
                                             r"disconnected blocks"):
            run_scenario(load_config(path))

    def test_failure_in_a_thread_is_stage_tagged(self, tiny_config, monkeypatch):
        import windgame.runner as runner_mod

        def fails(realisation, curve, grid, costs):
            raise WindGameError(f"solve of realisation {realisation.chain_index} failed")

        monkeypatch.setattr(runner_mod, "_solve_realisation", fails)
        with pytest.raises(StageError, match=r"\[game\] solve of realisation 0 failed"):
            run_scenario(load_config(tiny_config), workers=2)

    def test_interrupt_in_a_thread_starts_no_new_realisation(self, tmp_path, monkeypatch,
                                                             capsys):
        import windgame.runner as runner_mod
        write_tiny_dataset(tmp_path)
        path = write_tiny_config(tmp_path, chain="n = 300\nrealisations = 20\nseed = 99")
        started = []

        def solve(realisation, curve, grid, costs):
            started.append(realisation.chain_index)  # list.append is atomic
            if realisation.chain_index == 1:
                raise KeyboardInterrupt
            time.sleep(0.05)
            return np.zeros((len(costs), 4))

        monkeypatch.setattr(runner_mod, "_solve_realisation", solve)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out), "--workers", "2"]) == 1
        assert "error: [game] interrupted" in capsys.readouterr().err
        assert 2 <= len(started) < 20
        assert not out.exists()

    def test_each_realisation_lives_only_in_its_job(self, tmp_path, monkeypatch):
        # chains are sampled in the jobs, so at most one realisation per
        # worker exists at a time, never the whole ensemble
        import windgame.runner as runner_mod
        write_tiny_dataset(tmp_path)
        path = write_tiny_config(tmp_path, chain="n = 300\nrealisations = 20\nseed = 99")
        alive, most, lock = weakref.WeakSet(), [0], threading.Lock()
        solve = runner_mod._solve_realisation

        def tracking(realisation, curve, grid, costs):
            with lock:
                alive.add(realisation)
                most[0] = max(most[0], len(alive))
            return solve(realisation, curve, grid, costs)

        monkeypatch.setattr(runner_mod, "_solve_realisation", tracking)
        result = run_scenario(load_config(path), workers=2)
        assert result.per_realisation.shape == (3, 20, 4)
        assert most[0] <= 2

    def test_interrupted_report_leaves_previous_files(self, tiny_config, tmp_path,
                                                      monkeypatch):
        result = run_scenario(load_config(tiny_config))
        out = tmp_path / "report"
        emit_report(result, out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def no_rename(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", no_rename)
        changed = replace(result, per_realisation=result.per_realisation + 1.0)
        with pytest.raises(StageError, match=r"\[report\] cannot write"):
            emit_report(changed, out)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_aggregates_match_brute_force_over_emitted_rows(self, tiny_config, tmp_path):
        config = load_config(tiny_config)
        result = run_scenario(config)
        out = tmp_path / "report"
        emit_report(result, out)

        per_real = {}
        with open(out / "per_realisation.csv", newline="", encoding="utf-8") as handle:
            for row in csv.DictReader(handle):
                key = row["sweep_value"]
                per_real.setdefault(key, []).append(
                    [float(row[c]) for c in ("p_n1", "p_n2", "pi1", "pi2")])
        with open(out / "equilibria.csv", newline="", encoding="utf-8") as handle:
            for row in csv.DictReader(handle):
                block = np.array(per_real[row["sweep_value"]])
                reduced = {"mean": block.mean(axis=0), "min": block.min(axis=0),
                           "max": block.max(axis=0)}[row["stat"]]
                emitted = np.array([float(row[c]) for c in ("p_n1", "p_n2", "pi1", "pi2")])
                assert np.allclose(emitted, reduced, rtol=0, atol=0)

    def test_run_json_metadata(self, tiny_config, tmp_path):
        result = run_scenario(load_config(tiny_config))
        out = tmp_path / "meta"
        emit_report(result, out)
        meta = json.loads((out / "run.json").read_text())
        assert meta["seed"] == 99
        assert meta["sweep_parameter"] == "p_t"
        assert "windgame" in meta["versions"]
        assert set(meta["timing_s"]) == {"ingest", "tables", "curve", "game"}

    def test_explicit_power_curve_used(self, tiny_config, tmp_path):
        text = tiny_config.read_text(encoding="utf-8")
        tiny_config.write_text(text.replace("[grid]", "[power_curve]\nalpha = 0.75\n"
                                            "beta = 9.25\n\n[grid]"), encoding="utf-8")
        emit_report(run_scenario(load_config(tiny_config)), tmp_path / "curve")
        meta = json.loads((tmp_path / "curve" / "run.json").read_text())
        assert meta["power_curve"] == {"alpha": 0.75, "beta": 9.25}

    def test_gap_reports_logged(self, tiny_config, caplog):
        import logging
        with caplog.at_level(logging.INFO, logger="windgame"):
            ingest_joint_series(load_config(tiny_config))
        text = caplog.text
        assert "read 240 rows" in text
        assert "aligned joint series: 240 records" in text


def curve_points_command(config, command, bad_row):
    """Write curve.csv beside ``config`` with ``bad_row`` as its line 3; return
    its path, the arguments of ``command`` reading it (``run`` through
    ``[power_curve] points``) and the prefix of its error."""
    points = (config.parent / "curve.csv").resolve()
    points.write_text(f"wind_ms,output_pu\n3.0,0.01\n{bad_row}\n15.0,0.99\n",
                      encoding="utf-8")
    if command == "fit-curve":
        return points, ["fit-curve", "--points", str(points)], "error: "
    text = config.read_text(encoding="utf-8")
    config.write_text(text.replace("[grid]", "[power_curve]\npoints = curve.csv\n\n[grid]"),
                      encoding="utf-8")
    return points, ["run", "--config", str(config), "--out", str(config.parent / "o")], \
        "error: [curve] "


class TestCli:
    def test_run_subcommand(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "cli_out"
        code = main(["run", "--config", str(tiny_config), "--out", str(out)])
        assert code == 0
        assert (out / "equilibria.csv").is_file()
        assert str(out / "run.json") in capsys.readouterr().out

    def test_run_with_workers_and_seed(self, tiny_config, tmp_path):
        out_seq = tmp_path / "seq"
        out_par = tmp_path / "par"
        assert main(["run", "--config", str(tiny_config), "--out", str(out_seq),
                     "--seed", "1234"]) == 0
        assert main(["run", "--config", str(tiny_config), "--out", str(out_par),
                     "--seed", "1234", "--workers", "2"]) == 0
        assert (out_seq / "per_realisation.csv").read_bytes() == \
               (out_par / "per_realisation.csv").read_bytes()

    def test_stats_subcommand(self, tiny_config, capsys):
        assert main(["stats", "--config", str(tiny_config)]) == 0
        out = capsys.readouterr().out
        assert "wci95" in out and "p_d" in out

    def test_stats_same_bytes_for_any_worker_count(self, tiny_config, capsys):
        # stats jobs sample two chains each, so an odd N leaves one chain alone
        text = tiny_config.read_text(encoding="utf-8")
        for realisations in (3, 4):
            tiny_config.write_text(text.replace("realisations = 3",
                                                f"realisations = {realisations}"),
                                   encoding="utf-8")
            printed = []
            for workers in ("1", "2", "3"):
                assert main(["stats", "--config", str(tiny_config), "--workers", workers]) == 0
                printed.append(capsys.readouterr().out)
            assert printed[0] == printed[1] == printed[2]
            assert f"realisations={realisations} " in printed[0]
            config = load_config(tiny_config)
            assert run_stats(config, workers=1) == run_stats(config, workers=2)

    def test_stats_samples_chains_on_the_pool(self, tiny_config, monkeypatch):
        import windgame.runner as runner_mod
        threads, jobs, sample = set(), [], runner_mod.run_chains

        def recording(config, tables, indices):
            threads.add(threading.get_ident())  # set.add is atomic
            jobs.append(tuple(indices))  # list.append is atomic
            time.sleep(0.05)
            return sample(config, tables, indices)

        monkeypatch.setattr(runner_mod, "run_chains", recording)
        run_stats(load_config(tiny_config), workers=2)
        assert len(threads) == 2
        assert sorted(jobs) == [(0, 1), (2,)]

    def test_overflowing_costs_fail_without_a_warning(self, tiny_config):
        # under -W error a numpy overflow warning would end in a traceback
        text = tiny_config.read_text(encoding="utf-8")
        tiny_config.write_text(text.replace("p_g = 74.3", "p_g = 1e305"), encoding="utf-8")
        done = run_cli_process("run", tiny_config, python_flags=("-W", "error"))
        assert done.returncode == 1
        assert "Warning:" not in done.stderr and "Traceback" not in done.stderr, done.stderr
        assert done.stderr.splitlines()[-1] == "error: [game] profit surfaces must be finite"

    def test_overflowing_ensemble_mean_fails_without_a_warning(self, tmp_path):
        # every realisation's profits are finite, but the mean across them is
        # not: under -W error numpy's warning in the mean would end in a
        # traceback, and without it the report would hold inf
        write_tiny_dataset(tmp_path, seed=21)
        config = write_tiny_config(
            tmp_path, bins="wind_width_ms = 3.0\nmin_count = 6",
            grid="step_mw = 20.0\nmax_mw = 60.0", chain="n = 37\nrealisations = 3\nseed = 1835175",
            sweep="parameter = p_t\nstart_frac = 0.0\nstop_frac = 0.0\nstep_frac = 0.5",
            costs="p_g = 1e305\np_t_frac = 1.3002329050567005\nc_g1_frac = 0.937399680258423\n"
                  "c_g2_frac = 0.22200611132097153\nc_t = 1000.0")
        done = run_cli_process("run", config, python_flags=("-W", "error"))
        assert done.returncode == 1
        assert "Warning:" not in done.stderr and "Traceback" not in done.stderr, done.stderr
        assert done.stderr.splitlines()[-1] == \
            "error: [game] the ensemble mean of the equilibria overflows"
        assert not (tmp_path / "out" / "equilibria.csv").exists()

    def test_out_of_memory_is_stage_tagged(self, tiny_config, monkeypatch, capsys):
        import windgame.runner as runner_mod

        def exhausted(realisation, curve, grid):
            raise MemoryError("Unable to allocate 1.82 TiB for an array with shape "
                              "(500001, 500001) and data type float64")

        monkeypatch.setattr(runner_mod, "build_energy_tables", exhausted)
        assert main(["run", "--config", str(tiny_config), "--out",
                     str(tiny_config.parent / "out"), "--workers", "2"]) == 1
        assert ("error: [game] out of memory: Unable to allocate 1.82 TiB"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["run", "stats"])
    def test_unallocatable_grid_named_by_section(self, tiny_config, command):
        # 1e14 points need k x k tables of 8e28 bytes, past np.intp, and at
        # 5e-324 the point count overflows to inf; nothing is allocated for either
        text = tiny_config.read_text(encoding="utf-8")
        for step, points in (("1e-12", "1e+14"), ("1e-300", "1e+302"), ("5e-324", "inf")):
            tiny_config.write_text(text.replace("step_mw = 10.0\nmax_mw = 40.0",
                                                f"step_mw = {step}\nmax_mw = 100.0"),
                                   encoding="utf-8")
            done = run_cli_process(command, tiny_config)
            assert done.returncode == 1
            assert done.stderr == (f"error: [grid] {points} grid points are too many "
                                   f"for k x k tables\n"), done.stderr

    @pytest.mark.parametrize("command", ["run", "stats"])
    def test_unshapeable_sweep_named_by_section(self, tiny_config, command):
        # 2e299 points make a report numpy cannot shape, and at 5e-324 the point
        # count overflows to inf; neither run lists a point
        text = tiny_config.read_text(encoding="utf-8")
        for step, points in (("1e-300", "2e+299"), ("5e-324", "inf")):
            tiny_config.write_text(text.replace("step_frac = 0.1", f"step_frac = {step}"),
                                   encoding="utf-8")
            done = run_cli_process(command, tiny_config)
            assert done.returncode == 1
            assert done.stderr == (f"error: [sweep] step_frac {step} gives {points} points: "
                                   f"too many sweep points for 3 realisations\n"), done.stderr

    def test_unlistable_sweep_is_out_of_memory(self, tiny_config):
        # 2e16 points pass the load check, since numpy can shape their report,
        # but no machine can list them: the game stage fails at once, where
        # listing them one float at a time would grind for years
        text = tiny_config.read_text(encoding="utf-8")
        tiny_config.write_text(text.replace("step_frac = 0.1", "step_frac = 1e-17"),
                               encoding="utf-8")
        done = run_cli_process("run", tiny_config, address_space_kb=2_000_000)
        assert done.returncode == 1
        assert done.stderr.splitlines()[-1].startswith(
            "error: [game] out of memory: Unable to allocate "), done.stderr

    @pytest.mark.parametrize("command", ["run", "stats"])
    def test_unshapeable_bins_named_by_stage(self, tiny_config, command):
        # ~2e10 bins already make an n x n joint table numpy cannot shape, and at
        # 5e-324 the bin count overflows to inf
        text = tiny_config.read_text(encoding="utf-8")
        for width in ("1e-9", "1e-300", "5e-324"):
            tiny_config.write_text(text.replace("wind_width_ms = 4.0",
                                                f"wind_width_ms = {width}"), encoding="utf-8")
            done = run_cli_process(command, tiny_config)
            assert done.returncode == 1
            assert "Traceback" not in done.stderr
            assert done.stderr.splitlines()[-1].startswith(
                f"error: [tables] bin width {float(width)} gives "), done.stderr

    def test_stats_failure_is_stage_tagged(self, tiny_config, capsys):
        (tiny_config.parent / "w1.csv").unlink()
        assert main(["stats", "--config", str(tiny_config)]) == 1
        assert "[ingest]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "stats"])
    def test_interrupt_is_stage_tagged(self, tiny_config, monkeypatch, capsys, command):
        import windgame.runner as runner_mod

        def interrupted(config):
            raise KeyboardInterrupt

        monkeypatch.setattr(runner_mod, "ingest_joint_series", interrupted)
        args = [command, "--config", str(tiny_config)]
        if command == "run":
            args += ["--out", str(tiny_config.parent / "out")]
        try:
            code = main(args)
        except KeyboardInterrupt:
            pytest.fail("KeyboardInterrupt escaped the CLI")
        assert code == 1
        assert "error: [ingest] interrupted" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, message", [
        ("n = 300", "n = 0", "[chain] chain length n must be >= 1, got 0"),
        ("seed = 99", "seed = 99\nburn_in_fraction = 1.5",
         "[chain] burn_in_fraction must be in [0, 1), got 1.5"),
        ("seed = 99", "seed = -1", "[chain] seed must be >= 0, got -1"),
        ("p_g = 74.3", "p_g = 0", "[costs] generation tariff must be positive, got 0.0"),
        ("n = 300", "n = 10000000000000000000",
         "[chain] chain length n=10000000000000000000 is too long for numpy to address "
         "its 3 x n samples"),
        ("realisations = 3", "realisations = 0", "[chain] realisations must be >= 1, got 0"),
    ], ids=["n", "burn_in_fraction", "seed", "p_g", "n-unaddressable", "realisations"])
    def test_bad_chain_or_costs_named_by_section(self, tiny_config, capsys, old, new, message):
        text = tiny_config.read_text(encoding="utf-8")
        assert old in text
        tiny_config.write_text(text.replace(old, new), encoding="utf-8")
        assert main(["run", "--config", str(tiny_config),
                     "--out", str(tiny_config.parent / "out")]) == 1
        assert f"error: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new", [
        ("step_mw = 10.0", "step_mw = nan"),
        ("max_mw = 40.0", "max_mw = inf"),
        ("wind_width_ms = 4.0", "wind_width_ms = inf"),
        ("wind_width_ms = 4.0", "wind_width_ms = nan"),
        ("c_t = 1.0e5", "c_t = nan"),
        ("demand_target_mean_mw = 108.1830", "demand_target_mean_mw = nan"),
        ("p_t_frac = 0.20", "p_t_frac = -inf"),
        ("stop_frac = 0.3", "stop_frac = inf"),
    ], ids=["grid-step-nan", "grid-max-inf", "bins-width-inf", "bins-width-nan",
            "costs-c_t-nan", "data-demand-mean-nan", "costs-p_t-frac-minus-inf",
            "sweep-stop-inf"])
    def test_non_finite_float_refused_at_load(self, tiny_config, monkeypatch, capsys,
                                              old, new):
        import windgame.runner as runner_mod

        monkeypatch.setattr(runner_mod, "ingest_joint_series",
                            lambda config: pytest.fail("ingest started"))
        text = tiny_config.read_text(encoding="utf-8")
        assert old in text
        tiny_config.write_text(text.replace(old, new), encoding="utf-8")
        section = re.findall(r"^\[(\w+)\]", text.split(old)[0], flags=re.M)[-1]
        key, value = new.split(" = ")
        assert main(["run", "--config", str(tiny_config),
                     "--out", str(tiny_config.parent / "out")]) == 1
        assert (f"error: bad value for [{section}] {key}: '{value}' (not a finite number)\n"
                == capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["run", "stats"])
    def test_negative_seed_refused_before_ingest(self, tiny_config, monkeypatch, capsys,
                                                 command):
        import windgame.runner as runner_mod

        monkeypatch.setattr(runner_mod, "ingest_joint_series",
                            lambda config: pytest.fail("ingest started"))
        args = [command, "--config", str(tiny_config), "--seed", "-1"]
        if command == "run":
            args += ["--out", str(tiny_config.parent / "out")]
        assert main(args) == 1
        assert "error: seed must be >= 0, got -1\n" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["series", "ini", "points"])
    def test_file_not_utf8(self, tiny_config, capsys, kind):
        root = tiny_config.parent
        points = (root / "curve.csv").resolve()
        points.write_text("wind_ms,output_pu\n3.0,0.01\n9.0,0.5\n15.0,0.99\n",
                          encoding="utf-8")
        text = tiny_config.read_text(encoding="utf-8")
        tiny_config.write_text(text.replace("[grid]", "[power_curve]\npoints = curve.csv"
                                            "\n\n[grid]"), encoding="utf-8")
        target, prefix = {"series": ((root / "w1.csv").resolve(), "[ingest] wind1: cannot read"),
                          "ini": (tiny_config, "cannot parse"),
                          "points": (points, "[curve] cannot read")}[kind]
        target.write_bytes(target.read_bytes() + b"# 15 \xb0C\n")
        assert main(["run", "--config", str(tiny_config), "--out", str(root / "out")]) == 1
        assert (f"error: {prefix} {target}: 'utf-8' codec can't decode byte 0xb0"
                in capsys.readouterr().err)

    def test_readme_library_use(self):
        with open(f"{REPO_ROOT}/README.md", encoding="utf-8") as handle:
            readme = handle.read()
        block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1]
        block = block.split("```", 1)[0]
        # the subprocess inherits the session's kernel cache directory
        done = subprocess.run([sys.executable, "-c", block], cwd=REPO_ROOT,
                              env=dict(os.environ, PYTHONPATH="src"),
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "100.0 100.0"

    def test_cli_does_not_import_scipy_special(self, tmp_path):
        write_tiny_dataset(tmp_path)
        config = str(write_tiny_config(tmp_path, chain="n = 300\nrealisations = 2\nseed = 7"))
        out = str(tmp_path / "out")
        script = f"""
import sys
def check(step):
    if "scipy.special" in sys.modules:
        sys.exit(f"{{step}} imported scipy.special")
import windgame.cli
check("import windgame.cli")
assert windgame.cli.main(["run", "--config", {config!r}, "--out", {out!r}]) == 0
check("run")
assert windgame.cli.main(["stats", "--config", {config!r}]) == 0
check("stats")
"""
        # the subprocess inherits the session's kernel cache directory
        done = subprocess.run([sys.executable, "-c", script], cwd=REPO_ROOT,
                              env=dict(os.environ, PYTHONPATH="src"),
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr

    def test_stats_needs_two_realisations(self, tmp_path, capsys):
        write_tiny_dataset(tmp_path)
        path = write_tiny_config(tmp_path, chain="n = 300\nrealisations = 1\nseed = 7")
        assert main(["stats", "--config", str(path)]) == 1
        assert "at least 2 realisations" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "stats"])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_refused(self, tiny_config, capsys, command, workers):
        args = [command, "--config", str(tiny_config), "--workers", workers]
        if command == "run":
            args += ["--out", str(tiny_config.parent / "out")]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert (f"argument --workers: must be an integer of at least 1, got '{workers}'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["fit-curve", "run"])
    @pytest.mark.parametrize("bad_row, shown", [("9.0,abc", "'abc'"), ("9.0", "None")],
                             ids=["non-numeric-cell", "short-row"])
    def test_malformed_curve_points(self, tiny_config, capsys, command, bad_row, shown):
        points, args, prefix = curve_points_command(tiny_config, command, bad_row)
        assert main(args) == 1
        err = capsys.readouterr().err
        assert f"{prefix}{points} line 3: wind_ms and output_pu must be numbers" in err
        assert shown in err

    @pytest.mark.parametrize("command", ["fit-curve", "run"])
    @pytest.mark.parametrize("bad_row", ["nan,0.5", "inf,0.5", "9.0,nan"])
    def test_non_finite_curve_points(self, tiny_config, capsys, command, bad_row):
        # float() reads these cells, so the fit refuses them, in the curve stage
        _, args, prefix = curve_points_command(tiny_config, command, bad_row)
        assert main(args) == 1
        assert capsys.readouterr().err == f"{prefix}power-curve points must be finite\n"

    def test_fit_curve_subcommand(self, capsys):
        code = main(["fit-curve", "--points",
                     f"{REPO_ROOT}/src/windgame/data/enercon_e82_power_curve.csv"])
        assert code == 0
        out = capsys.readouterr().out
        assert "alpha=" in out and "beta=" in out

    def test_failure_exit_code_and_message(self, tmp_path, capsys):
        missing = tmp_path / "nope.ini"
        assert main(["run", "--config", str(missing), "--out", str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err
