"""Configuration parsing, scenario execution, report files, CLI entry."""
from __future__ import annotations

import csv
import errno
import json
import math
import os
import re
import resource
import subprocess
import sys
import threading
import time
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from windgame import ConfigError, StageError, WindGameError
from windgame.cli import main
from windgame.config import PROFILES, SweepSpec, apply_profile, load_config, override_seed
from windgame.runner import emit_report, ingest_joint_series, run_scenario, run_stats

from conftest import REPO_ROOT

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
        path = write_tiny_config(tmp_path, costs="p_g = 74.3\nc_g1_frac = 0.30\n"
                                                 "c_g2_mwh = 12.5\np_t_frac = 0.20\nc_t = 1.0e5")
        assert load_config(path).costs.c_g2 == 12.5
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

    @pytest.mark.parametrize("command", ["run", "stats"])
    def test_negative_sweep_start(self, tiny_config, capsys, command):
        # the points rise from the start, so a negative one is refused at load,
        # before ingest, also by stats, which solves no game
        text = tiny_config.read_text(encoding="utf-8")
        tiny_config.write_text(text.replace("start_frac = 0.1", "start_frac = -0.1"),
                               encoding="utf-8")
        args = [command, "--config", str(tiny_config)]
        if command == "run":
            args += ["--out", str(tiny_config.parent / "out")]
        assert main(args) == 1
        assert capsys.readouterr().err == "error: [sweep] start_frac -0.1 gives a negative p_t\n"

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
        ("c_g2_frac = 0.25\n", "", r"\[costs\] missing c_g2_frac or c_g2_mwh"),
        ("seed = 99", "", r"missing required key \[chain\] seed"),
    ], ids=["grid-max-off-step", "zero-alpha", "negative-beta", "points-and-alpha-beta",
            "grid-step-1e-300", "grid-step-5e-324", "sweep-step-1e-300", "sweep-step-5e-324",
            "alpha-without-beta",
            "demand-target-mean", "wind-width", "demand-width", "min-count",
            "no-c_g2", "no-chain-seed"])
    def test_bad_grid_or_curve_refused_at_load(self, tiny_config, old, new, message):
        text = tiny_config.read_text(encoding="utf-8")
        assert old in text
        tiny_config.write_text(text.replace(old, new), encoding="utf-8")
        with pytest.raises(ConfigError, match=message):
            load_config(tiny_config)

    def test_seed_override(self, tiny_config):
        config = override_seed(load_config(tiny_config), 4321)
        assert config.chain.seed == 4321

    def test_percent_in_a_value_is_read_literally(self, tiny_config, capsys):
        # no %-interpolation: the sign is part of the file and column names
        root = tiny_config.parent
        (root / "w1.csv").rename(root / "100%_w1.csv")
        text = (root / "demand.csv").read_text(encoding="utf-8")
        (root / "demand.csv").write_text(text.replace("demand_mw", "demand%mw", 1),
                                         encoding="utf-8")
        text = tiny_config.read_text(encoding="utf-8")
        tiny_config.write_text(text.replace("wind1 = w1.csv", "wind1 = 100%_w1.csv\n"
                                            "demand_value_col = demand%mw"), encoding="utf-8")
        config = load_config(tiny_config)
        assert (config.wind1.path.name, config.demand.value_col) == ("100%_w1.csv", "demand%mw")
        assert main(["run", "--config", str(tiny_config), "--out", str(root / "out")]) == 0
        assert (root / "out" / "equilibria.csv").is_file()

    @pytest.mark.parametrize("old, new, unknown", [
        ("step_mw = 10.0", "step_mv = 10.0", "key [grid] step_mv"),
        ("[grid]", "[gird]", "section [gird]"),
        ("\n[data]", "[DEFAULT]\nseed = 99\n\n[data]", "key [DEFAULT] seed"),
    ], ids=["key", "section", "default-key"])
    @pytest.mark.parametrize("command", ["run", "stats"])
    def test_unknown_key_or_section_refused(self, tiny_config, monkeypatch, capsys, command,
                                            old, new, unknown):
        # a mistyped key would otherwise leave its default in force unseen
        import windgame.runner as runner_mod

        monkeypatch.setattr(runner_mod, "ingest_joint_series",
                            lambda config: pytest.fail("ingest started"))
        text = tiny_config.read_text(encoding="utf-8")
        assert old in text
        tiny_config.write_text(text.replace(old, new, 1), encoding="utf-8")
        args = [command, "--config", str(tiny_config)]
        if command == "run":
            args += ["--out", str(tiny_config.parent / "out")]
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: unknown {unknown} in {tiny_config}\n"


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
        original = runner_mod.solve_realisation

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "solve_realisation", counting)
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

        monkeypatch.setattr(runner_mod, "solve_realisation", fails)
        with pytest.raises(StageError, match=r"\[game\] solve of realisation 0 failed"):
            run_scenario(load_config(tiny_config), workers=2)

    def test_interrupt_in_a_thread_starts_no_new_realisation(self, tmp_path, monkeypatch,
                                                             capsys):
        import windgame.runner as runner_mod
        write_tiny_dataset(tmp_path)
        path = write_tiny_config(tmp_path, chain="n = 300\nrealisations = 20\nseed = 99")
        started, solve = [], runner_mod.solve_realisation

        def slow(realisation, curve, grid, costs):
            started.append(realisation.chain_index)  # list.append is atomic
            if realisation.chain_index == 1:
                raise KeyboardInterrupt
            time.sleep(0.05)
            return solve(realisation, curve, grid, costs)

        monkeypatch.setattr(runner_mod, "solve_realisation", slow)
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
        solve = runner_mod.solve_realisation

        def tracking(realisation, curve, grid, costs):
            with lock:
                alive.add(realisation)
                most[0] = max(most[0], len(alive))
            return solve(realisation, curve, grid, costs)

        monkeypatch.setattr(runner_mod, "solve_realisation", tracking)
        result = run_scenario(load_config(path), workers=2)
        assert result.per_realisation.shape == (3, 20, 4)
        assert most[0] <= 2

    def test_a_solving_job_holds_one_realisation(self, tiny_config, monkeypatch):
        # stats jobs sample two chains; a run job samples one, so one worker
        # never holds two realisations at once
        import windgame.runner as runner_mod
        alive, most, solve = weakref.WeakSet(), [0], runner_mod.solve_realisation

        def tracking(realisation, curve, grid, costs):
            alive.add(realisation)
            most[0] = max(most[0], len(alive))
            return solve(realisation, curve, grid, costs)

        monkeypatch.setattr(runner_mod, "solve_realisation", tracking)
        run_scenario(load_config(tiny_config), workers=1)
        assert most[0] == 1

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

    def test_failed_report_write_leaves_previous_set(self, tiny_config, tmp_path,
                                                      monkeypatch):
        # the second temporary file fails to write: the new equilibria.csv
        # must not replace the old one beside the old other three
        import windgame.runner as runner_mod

        result = run_scenario(load_config(tiny_config))
        out = tmp_path / "report"
        emit_report(result, out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        opened = []

        def second_open_fails(path, *args, **kwargs):
            opened.append(path)
            if len(opened) == 2:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(runner_mod, "open", second_open_fails, raising=False)
        changed = replace(result, aggregates=result.aggregates + 1.0,
                          per_realisation=result.per_realisation + 1.0)
        with pytest.raises(StageError, match=r"\[report\] cannot write"):
            emit_report(changed, out)
        assert len(opened) == 2
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_directory_in_place_of_a_report_refused_before_any_rename(self, tiny_config,
                                                                      tmp_path):
        # equilibria.csv is renamed first: it must keep its bytes when a
        # later report's path is a directory, and no temporary file is left
        result = run_scenario(load_config(tiny_config))
        out = tmp_path / "report"
        emit_report(result, out)
        before = (out / "equilibria.csv").read_bytes()
        (out / "per_realisation.csv").unlink()
        (out / "per_realisation.csv").mkdir()
        changed = replace(result, aggregates=result.aggregates + 1.0)
        with pytest.raises(StageError, match=r"\[report\] cannot write .*per_realisation\.csv"):
            emit_report(changed, out)
        assert (out / "equilibria.csv").read_bytes() == before
        assert sorted(p.name for p in out.iterdir()) == ["convergence.csv", "equilibria.csv",
                                                         "per_realisation.csv", "run.json"]

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


# a curve.csv whose line 3 is the row under test
CURVE_ROWS = "wind_ms,output_pu\n3.0,0.01\n{}\n15.0,0.99\n"


def curve_points_command(config, command, text):
    """Write ``text`` as curve.csv beside ``config`` (None: no file); return
    its path, the arguments of ``command`` reading it (``run`` through
    ``[power_curve] points``) and the prefix of its error."""
    points = (config.parent / "curve.csv").resolve()
    if text is not None:
        points.write_text(text, encoding="utf-8")
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

    @pytest.mark.parametrize("realisations", [3, 4])
    def test_run_and_stats_give_the_same_statistics(self, tiny_config, realisations):
        # run samples one chain per job and stats two, from the same streams
        text = tiny_config.read_text(encoding="utf-8")
        tiny_config.write_text(text.replace("realisations = 3",
                                            f"realisations = {realisations}"),
                               encoding="utf-8")
        config = load_config(tiny_config)
        for workers in (1, 2):
            assert run_scenario(config, workers=workers).stats == \
                   run_stats(config, workers=workers)

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

    def test_non_finite_energy_table_refused_by_name(self, tiny_config, capsys):
        # capacities near the largest double: the sum of e_g1 over the hours
        # overflows first; the solve reads the tables a block of rows at a
        # time, yet names the table the whole-table check names, with no
        # numpy warning (the suite turns one into an error)
        text = tiny_config.read_text(encoding="utf-8")
        tiny_config.write_text(text.replace("step_mw = 10.0\nmax_mw = 40.0",
                                            "step_mw = 1e307\nmax_mw = 1e308"), encoding="utf-8")
        out = tiny_config.parent / "out"
        assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == \
            "error: [game] energy table e_g1 must be finite"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["stats", "run"])
    def test_zero_mean_wind_gives_nan_max_error(self, tmp_path, command):
        # an all-calm site: its max error is 0 / 0, a nan with no numpy warning,
        # which -W error would turn into a traceback
        rng = np.random.default_rng(5)
        write_series(tmp_path, np.zeros(240), np.clip(rng.normal(12.0, 4.0, 240), 0.1, 28.0),
                     np.clip(rng.normal(100.0, 15.0, 240), 40.0, 170.0))
        done = run_cli_process(command, write_tiny_config(tmp_path),
                               python_flags=("-W", "error"))
        assert done.returncode == 0, done.stderr
        if command == "stats":
            w1 = next(line for line in done.stdout.splitlines() if line.startswith("w1 "))
            assert w1.split()[4] == "nan"
        else:
            rows = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
            assert rows[0].split(",")[4] == "max_err_pct"
            assert rows[1].split(",")[:5] == ["w1", "0.0", "0.0", "0.0", "nan"]

    def test_steep_power_curve_raises_no_overflow_warning(self, tiny_config, tmp_path):
        # exp overflows for calm hours at alpha = 1000 and, in the fit's search,
        # for winds far from beta; the outputs there are exactly 0.0, so
        # neither command may warn
        text = tiny_config.read_text(encoding="utf-8")
        tiny_config.write_text(text.replace("[grid]", "[power_curve]\nalpha = 1000\n"
                                            "beta = 10\n\n[grid]"), encoding="utf-8")
        done = run_cli_process("run", tiny_config, python_flags=("-W", "error"))
        assert done.returncode == 0, done.stderr
        points = tmp_path / "wide.csv"
        points.write_text("wind_ms,output_pu\n0.0,0.0\n5.0,0.1\n10.0,0.5\n15.0,0.9\n"
                          "100.0,1.0\n", encoding="utf-8")
        done = subprocess.run([sys.executable, "-W", "error", "-m", "windgame.cli", "fit-curve",
                               "--points", str(points)], cwd=REPO_ROOT,
                              env=dict(os.environ, PYTHONPATH="src"), capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("alpha=")

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

        def exhausted(realisation, curve, grid, costs):
            raise MemoryError("Unable to allocate 1.82 TiB for an array with shape "
                              "(500001, 500001) and data type float64")

        monkeypatch.setattr(runner_mod, "solve_realisation", exhausted)
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

    @staticmethod
    def input_file(tiny_config, kind):
        """The config with a power-curve file added, and the input of ``kind``
        with the prefix of the error that names it."""
        root = tiny_config.parent
        points = (root / "curve.csv").resolve()
        points.write_text("wind_ms,output_pu\n3.0,0.01\n9.0,0.5\n15.0,0.99\n",
                          encoding="utf-8")
        text = tiny_config.read_text(encoding="utf-8")
        tiny_config.write_text(text.replace("[grid]", "[power_curve]\npoints = curve.csv"
                                            "\n\n[grid]"), encoding="utf-8")
        return {"series": ((root / "w1.csv").resolve(), "[ingest] wind1: cannot read"),
                "ini": (tiny_config, "cannot parse"),
                "points": (points, "[curve] cannot read")}[kind]

    @pytest.mark.parametrize("kind", ["series", "ini", "points"])
    def test_file_not_utf8(self, tiny_config, capsys, kind):
        target, prefix = self.input_file(tiny_config, kind)
        target.write_bytes(target.read_bytes() + b"# 15 \xb0C\n")
        assert main(["run", "--config", str(tiny_config),
                     "--out", str(tiny_config.parent / "out")]) == 1
        assert (f"error: {prefix} {target}: 'utf-8' codec can't decode byte 0xb0"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("kind", ["series", "ini", "points"])
    def test_file_unreadable(self, tiny_config, capsys, monkeypatch, kind):
        # a file that exists but cannot be opened, as without read permission
        # (which root does not need, so opening it is made to fail instead)
        target, prefix = self.input_file(tiny_config, kind)
        prefix = prefix.replace("cannot parse", "cannot read")
        denied = PermissionError(13, "Permission denied", str(target))

        def guard(opener):
            def opened(file, *args, **kwargs):
                if Path(file) == target:
                    raise denied
                return opener(file, *args, **kwargs)
            return opened

        monkeypatch.setattr("builtins.open", guard(open))
        monkeypatch.setattr(Path, "read_bytes", guard(Path.read_bytes))
        assert main(["run", "--config", str(tiny_config),
                     "--out", str(tiny_config.parent / "out")]) == 1
        err = capsys.readouterr().err
        assert f"error: {prefix} {target}: {denied}\n" in err and "Traceback" not in err

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
        # stats loads no scipy at all; run loads it for run.json's versions only
        script = f"""
import sys
def check(step, module):
    if module in sys.modules:
        sys.exit(f"{{step}} imported {{module}}")
import windgame.cli
check("import windgame.cli", "scipy")
assert windgame.cli.main(["stats", "--config", {config!r}]) == 0
check("stats", "scipy")
assert windgame.cli.main(["run", "--config", {config!r}, "--out", {out!r}]) == 0
check("run", "scipy.special")
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

    def test_run_stats_refuses_one_realisation_before_ingest(self, tmp_path, monkeypatch):
        import windgame.runner as runner_mod

        def ingest(*args, **kwargs):
            raise AssertionError("run_stats read a series")

        write_tiny_dataset(tmp_path)
        path = write_tiny_config(tmp_path, chain="n = 300\nrealisations = 1\nseed = 7")
        monkeypatch.setattr(runner_mod, "load_series_csv", ingest)
        with pytest.raises(ConfigError, match="^stats needs at least 2 realisations$"):
            run_stats(load_config(path))

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
    @pytest.mark.parametrize("text, message", [
        (CURVE_ROWS.format("9.0,abc"), "%s line 3: wind_ms and output_pu must be numbers, "
                                       "got {'wind_ms': '9.0', 'output_pu': 'abc'}"),
        (CURVE_ROWS.format("9.0"), "%s line 3: wind_ms and output_pu must be numbers, "
                                   "got {'wind_ms': '9.0', 'output_pu': None}"),
        (None, "power-curve file not found: %s"),
        ("wind,output\n3.0,0.01\n",
         "%s must have columns wind_ms, output_pu; found ['wind', 'output']"),
        ("wind_ms,output_pu\n", "%s contains no data rows"),
    ], ids=["non-numeric-cell", "short-row", "missing-file", "wrong-header", "header-only"])
    def test_malformed_curve_points(self, tiny_config, capsys, command, text, message):
        points, args, prefix = curve_points_command(tiny_config, command, text)
        assert main(args) == 1
        assert capsys.readouterr().err == f"{prefix}{message % points}\n"

    @pytest.mark.parametrize("command", ["fit-curve", "run"])
    @pytest.mark.parametrize("bad_row", ["nan,0.5", "inf,0.5", "9.0,nan"])
    def test_non_finite_curve_points(self, tiny_config, capsys, command, bad_row):
        # float() reads these cells, so the fit refuses them, in the curve stage
        _, args, prefix = curve_points_command(tiny_config, command, CURVE_ROWS.format(bad_row))
        assert main(args) == 1
        assert capsys.readouterr().err == f"{prefix}power-curve points must be finite\n"

    def test_fit_curve_subcommand(self, capsys):
        code = main(["fit-curve", "--points",
                     f"{REPO_ROOT}/src/windgame/data/enercon_e82_power_curve.csv"])
        assert code == 0
        out = capsys.readouterr().out
        assert "alpha=" in out and "beta=" in out

    def test_without_a_compiler_run_and_stats_stop_and_fit_curve_works(self, tiny_config):
        # PATH names an empty directory and the kernel cache is empty, so no
        # kernel can be built: the first job that needs one stops the run with
        # the loader's message, tagged with its stage, however many jobs fail
        tmp = tiny_config.parent
        env = dict(os.environ, PYTHONPATH="src", PATH=str(tmp / "no-bin"),
                   XDG_CACHE_HOME=str(tmp / "empty-cache"))

        def windgame(*args):
            return subprocess.run([sys.executable, "-m", "windgame.cli", *args], cwd=REPO_ROOT,
                                  env=env, capture_output=True, text=True, timeout=60)

        for command, stage in (("run", "game"), ("stats", "sample")):
            done = windgame(command, "--config", str(tiny_config), "--workers", "2",
                            *(["--out", str(tmp / "out")] if command == "run" else []))
            assert done.returncode == 1 and "Traceback" not in done.stderr, done.stderr
            assert [line for line in done.stderr.splitlines() if line.startswith("error:")] == \
                [f"error: [{stage}] compiled kernels unavailable: no C compiler (cc or gcc) on "
                 "PATH"]
            assert done.stdout == ""
        assert not (tmp / "out").exists()
        fit = windgame("fit-curve", "--points",
                       f"{REPO_ROOT}/src/windgame/data/enercon_e82_power_curve.csv")
        assert fit.returncode == 0 and fit.stdout.startswith("alpha="), fit.stderr

    def test_failure_exit_code_and_message(self, tmp_path, capsys):
        write_tiny_dataset(tmp_path)
        config = write_tiny_config(tmp_path)
        (tmp_path / "afile").write_text("", encoding="utf-8")
        for args, message in [
            (["--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "o")],
             "error: config file not found: "),
            # the whole run succeeds, and only then does the report directory fail
            (["--config", str(config), "--out", str(tmp_path / "afile" / "sub")],
             f"error: [report] cannot create {tmp_path / 'afile' / 'sub'}: "),
        ]:
            assert main(["run", *args]) == 1
            assert capsys.readouterr().err.startswith(message)
