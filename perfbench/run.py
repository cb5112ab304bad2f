"""windgame benchmark: end-to-end CLI runs plus an outside-in per-layer trace.

Run from the root of a checkout (the directory holding ``src/windgame``):

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

The seed drives ``windgame.synthetic.write_synthetic_csvs``; the benchmark
writes those CSVs and a generated INI per sweep into ``.perfbench/`` and the
program only ever reads those files. With ``--trace 0`` it times fresh CLI
processes (``setup_s``, ``wall_s``, ``peak_rss_mb``, ``ok_frac``); with
``--trace 1`` it alternates untraced CLI runs with runs of ``traced.py`` and
reports per-layer metrics. Every report is checked against the golden digests
in ``golden.json`` when the seed has them, and otherwise against the traced
recomposition. The last stdout line is the JSON result; a full record with the
machine description goes to ``.perfbench/results/``.

    python3 perfbench/run.py --workload desk --seed 7 --record-golden

adds the digests and exact counters of seed 7 to ``golden.json``.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
DATA_SEED = 414243  # regenerates data/synthetic/ byte for byte
CHAIN_SEED = 20260808  # the shipped configs' chain seed
SYNTHETIC = ("site_a_wind.csv", "site_b_wind.csv", "demand.csv")
CURVE = "enercon_e82_power_curve.csv"
REPORTS = ("equilibria.csv", "per_realisation.csv", "convergence.csv")
MIN_REPS = 2
SETUP_REPS = 3
RUN_LIMIT_S = 170.0  # children still running this long after start are killed

# The three shipped desk sweeps (configs/scenario{1,2,3}.ini), parameter by
# parameter, so a later edit of configs/ cannot move the benchmark.
COSTS_1 = {"p_g": "74.3", "c_g2_frac": "0.30", "p_t_frac": "0.26",
           "c_g1_frac": "0.30", "c_t": "9.0e6"}
COSTS_3 = dict(COSTS_1, c_g2_frac="0.20", c_g1_frac="0.26")
SWEEPS = {
    "c_g1": (COSTS_1, {"parameter": "c_g1", "start_frac": "0.16",
                       "stop_frac": "0.68", "step_frac": "0.02"}),
    "c_g2": (COSTS_1, {"parameter": "c_g2", "start_frac": "0.08",
                       "stop_frac": "0.54", "step_frac": "0.02"}),
    "p_t": (COSTS_3, {"parameter": "p_t", "start_frac": "0.00",
                      "stop_frac": "0.80", "step_frac": "0.02"}),
}
DESK = {"n": 5000, "realisations": 10, "step_mw": "5.0", "max_mw": "100.0"}

# Why each workload exists, and which layer it loads:
#   desk       the everyday check and the single-process baseline: import,
#              ingest and a k=21 energy loop bound by per-call overhead.
#   fine-grid  the paper's 0.5 MW, 1,002-point grid with short chains: energy
#              tensors (8 MB per k*k array) and profit surfaces dominate,
#              sampling is negligible. A faster energy kernel shows here.
#   long-chain `stats --profile paper`: 8.5M chain steps and 163 MB of
#              samples through the pool, no sim or game work, so an energy
#              or game change should leave it unmoved.
WORKLOADS = {
    "desk": {"command": "run", "workers": 1, "sweeps": ("c_g1", "c_g2", "p_t"),
             "dims": DESK, "profile": None},
    "fine-grid": {"command": "run", "workers": 2, "sweeps": ("p_t",),
                  "dims": {"n": 125, "realisations": 2, "step_mw": "0.5",
                           "max_mw": "500.5"}, "profile": None},
    "long-chain": {"command": "stats", "workers": 2, "sweeps": ("p_t",),
                   "dims": DESK, "profile": "paper"},
}


class BenchError(Exception):
    """The benchmark cannot run here (missing program or inputs)."""


def write_ini(path, sweep, dims):
    costs, sweep_keys = SWEEPS[sweep]
    sections = {
        "data": {"wind1": SYNTHETIC[0], "wind1_value_col": "wind_speed_ms",
                 "wind2": SYNTHETIC[1], "wind2_value_col": "wind_speed_ms",
                 "demand": SYNTHETIC[2], "demand_value_col": "demand_mw",
                 "demand_target_mean_mw": "108.1830"},
        "bins": {"wind_width_ms": "1.0", "demand_width_mw": "5.0", "min_count": "10"},
        "chain": {"n": dims["n"], "realisations": dims["realisations"],
                  "burn_in_fraction": "0.20", "seed": CHAIN_SEED},
        "power_curve": {"points": CURVE},
        "grid": {"step_mw": dims["step_mw"], "max_mw": dims["max_mw"]},
        "costs": costs,
        "sweep": sweep_keys,
    }
    text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
                   for name, keys in sections.items())
    path.write_text(text, encoding="utf-8")


def grid_points(workload):
    from windgame.config import PROFILES

    spec = WORKLOADS[workload]
    if spec["profile"]:
        step, grid_max = PROFILES[spec["profile"]][2:]
    else:
        step, grid_max = float(spec["dims"]["step_mw"]), float(spec["dims"]["max_mw"])
    return round(grid_max / step) + 1


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Runner:
    """Starts child processes in their own session, reaps them with wait4 and
    kills the whole group of one still running at the deadline."""

    def __init__(self, root, deadline):
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.cwd = root
        self.deadline = deadline

    def call(self, args, stdout, stderr):
        """Run ``python3 args``; returns (seconds, peak RSS MB of the child and
        its reaped children, exit code, start time)."""
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + args, cwd=self.cwd, env=self.env,
                                    stdout=out, stderr=err, start_new_session=True)
        timer = threading.Timer(max(0.0, self.deadline - time.perf_counter()),
                                _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return time.perf_counter() - start, usage.ru_maxrss / 1024.0, proc.returncode, start


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Bench:
    def __init__(self, root, workload, seed):
        self.root = root
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.work = root / ".perfbench" / f"work-{os.getpid()}"
        self.runner = Runner(root, time.perf_counter() + RUN_LIMIT_S)
        self.golden = json.loads(GOLDEN.read_text()).get(workload, {}).get(str(seed))
        self.reference = {}  # sweep -> digests of the first verified report
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.n_calls = 0
        self.samples = {}  # raw timings behind each median, for the result record

    # ---- inputs -----------------------------------------------------------
    def prepare(self):
        """Write the seed's CSVs and INIs, and check seed 414243 against
        data/synthetic/ byte for byte."""
        shipped = self.root / "data" / "synthetic"
        curve = self.root / "src" / "windgame" / "data" / CURVE
        if not (self.root / "src" / "windgame" / "cli.py").is_file() or not curve.is_file():
            raise BenchError(f"no windgame sources under {self.root / 'src'}")
        if not all((shipped / name).is_file() for name in SYNTHETIC):
            raise BenchError(f"missing {shipped}")
        sys.path.insert(0, str(self.root / "src"))
        import windgame
        if Path(windgame.__file__).resolve().parent != (self.root / "src" / "windgame").resolve():
            raise BenchError(f"imported windgame from {windgame.__file__}, not the checkout")
        from windgame.synthetic import write_synthetic_csvs

        self.work.mkdir(parents=True)
        check = self.work / "seed-414243"
        write_synthetic_csvs(check, DATA_SEED)
        for name in SYNTHETIC:
            if (check / name).read_bytes() != (shipped / name).read_bytes():
                self.problems.append(f"seed {DATA_SEED} no longer regenerates {shipped / name}")
        self.inputs = self.work / "inputs"
        if self.seed == DATA_SEED:
            check.rename(self.inputs)
        else:
            write_synthetic_csvs(self.inputs, self.seed)
        shutil.copyfile(curve, self.inputs / CURVE)
        for sweep in self.spec["sweeps"]:
            write_ini(self.inputs / f"{sweep}.ini", sweep, self.spec["dims"])

    def _tmp(self, tag):
        self.n_calls += 1
        path = self.work / f"{self.n_calls:03d}-{tag}"
        path.mkdir()
        return path

    # ---- one invocation ---------------------------------------------------
    def _args(self, sweep, out, traced):
        spec = self.spec
        ini = str(self.inputs / f"{sweep}.ini")
        common = ["--config", ini, "--workers", str(spec["workers"])]
        if spec["profile"]:
            common += ["--profile", spec["profile"]]
        if traced:
            target = (["--out", str(out / "reports")] if spec["command"] == "run"
                      else ["--stats-out", str(out / "stdout")])
            return [str(HERE / "traced.py")] + common + target + [
                "--trace-out", str(out / "trace.json")]
        args = ["-m", "windgame.cli", spec["command"]] + common
        return args + (["--out", str(out / "reports")] if spec["command"] == "run" else [])

    def _digests(self, out):
        if self.spec["command"] == "stats":
            return {"stdout": sha256(out / "stdout")}
        reports = out / "reports"
        digests = {name: sha256(reports / name) for name in REPORTS}
        meta = json.loads((reports / "run.json").read_text())
        meta.pop("timing_s")
        versions = meta.pop("versions")
        import numpy
        import scipy
        if (versions.get("numpy"), versions.get("scipy"), versions.get("python")) != (
                numpy.__version__, scipy.__version__, platform.python_version()):
            raise ValueError(f"run.json versions {versions} are not this interpreter's")
        digests["run.json"] = hashlib.sha256(
            json.dumps(meta, sort_keys=True).encode()).hexdigest()
        return digests

    def invoke(self, sweep, traced):
        """One CLI (or traced) process; wall time runs until its reports are
        written and verified. Returns (wall, rss, digests, trace)."""
        out = self._tmp(("traced-" if traced else "cli-") + sweep)
        seconds, rss, code, start = self.runner.call(
            self._args(sweep, out, traced), out / "stdout" if not traced else out / "log",
            out / "stderr")
        self.attempted += 1
        digests = trace = None
        try:
            if code != 0:
                raise ValueError(f"exit code {code}: "
                                 f"{(out / 'stderr').read_text(errors='replace')[-400:]}")
            digests = self._digests(out)
            self._verify(sweep, digests)
            if traced:
                trace = json.loads((out / "trace.json").read_text())
        except (OSError, ValueError, KeyError) as exc:
            self.failed += 1
            self.problems.append(f"{'traced' if traced else 'cli'} {sweep}: {exc}")
        wall = time.perf_counter() - start
        shutil.rmtree(out)
        return wall, rss, digests, trace

    def _verify(self, sweep, digests):
        if self.golden is not None:
            want = self.golden[sweep]["digests"]
        else:
            want = self.reference.setdefault(sweep, digests)
        bad = sorted(name for name in want if digests.get(name) != want[name])
        if bad:
            source = "golden" if self.golden is not None else "first"
            raise ValueError(f"digest of {', '.join(bad)} differs from the {source} report")

    # ---- repetitions ------------------------------------------------------
    def rep(self, traced):
        """One pass over the workload's sweeps."""
        results = [self.invoke(sweep, traced) for sweep in self.spec["sweeps"]]
        wall = sum(r[0] for r in results)
        rss = max(r[1] for r in results)
        traces = [r[3] for r in results]
        return wall, rss, traces

    def repeat(self, seconds, plan, min_passes):
        """Run passes of ``plan`` (a list of traced flags), at least
        ``min_passes`` of them, until the next one would end after ``seconds``."""
        start = time.perf_counter()
        passes = []
        while True:
            t0 = time.perf_counter()
            passes.append([self.rep(traced) for traced in plan])
            last = time.perf_counter() - t0
            if len(passes) >= min_passes and time.perf_counter() - start + last > seconds:
                return passes

    def import_times(self, extra=()):
        """SETUP_REPS fresh interpreters importing windgame.cli: (seconds, stderr)."""
        runs = []
        for _ in range(SETUP_REPS):
            out = self._tmp("import")
            seconds, _, code, _ = self.runner.call(
                list(extra) + ["-c", "import windgame.cli"], out / "stdout", out / "stderr")
            stderr = (out / "stderr").read_text(errors="replace")
            if code != 0:
                raise BenchError(f"import windgame.cli failed: {stderr[-400:]}")
            runs.append((seconds, stderr))
        return runs

    # ---- the two kinds of run ---------------------------------------------
    def end_to_end(self, seconds):
        self.samples["setup_s"] = [seconds for seconds, _ in self.import_times()]
        passes = [p[0] for p in self.repeat(seconds, [False], MIN_REPS)]
        self.samples["pass_wall_s"] = [p[0] for p in passes]
        self.samples["pass_rss_mb"] = [p[1] for p in passes]
        if self.golden is None:
            # No recorded digests for this seed: the traced recomposition
            # must reproduce the CLI's reports instead.
            self.check_traces(self.rep(True)[2])
        return {
            "wall_s": (statistics.median(p[0] for p in passes), "s"),
            "setup_s": (statistics.median(self.samples["setup_s"]), "s"),
            "peak_rss_mb": (statistics.median(p[1] for p in passes), "MB"),
            "ok_frac": ((self.attempted - self.failed) / self.attempted, "ratio"),
        }

    def per_layer(self, seconds):
        imports = [parse_importtime(stderr)
                   for _, stderr in self.import_times(["-X", "importtime"])]
        passes = self.repeat(seconds, [False, True], 1)
        self.samples["pass_wall_s"] = [plain[0] for plain, _ in passes]
        self.samples["traced_pass_wall_s"] = [traced[0] for _, traced in passes]
        layers = [self.check_traces(traced[2]) for _, traced in passes]
        metrics = {name: (_median_or_count([layer[name][0] for layer in layers]),
                          layers[0][name][1]) for name in layers[0]}
        metrics["cli.import_s"] = (statistics.median(i[0] for i in imports), "s")
        metrics["cli.import_scipy_stats_s"] = (statistics.median(i[1] for i in imports), "s")
        metrics["trace.overhead_s"] = (
            statistics.median(traced[0] for _, traced in passes)
            - statistics.median(plain[0] for plain, _ in passes), "s")
        return metrics

    def check_traces(self, traces):
        """Per-layer metrics of one traced pass; asserts exact counters."""
        if any(trace is None for trace in traces):
            return layer_metrics([], {})
        counters = sum_counters([t["counters"] for t in traces])
        want = self.golden["counters"] if self.golden is not None else \
            self.reference.setdefault("counters", counters)
        if counters != want:
            self.problems.append(f"exact counters moved: {counters} != {want}")
        return layer_metrics(traces, counters)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


SHAPE_COUNTERS = ("dist.joint_rows", "dist.joint_cols", "dist.demand_rows")


def sum_counters(counter_sets):
    total = {}
    for counters in counter_sets:
        for name, value in counters.items():
            total[name] = max(total.get(name, 0), value) if name in SHAPE_COUNTERS \
                else total.get(name, 0) + value
    return total


def span_times(traces):
    """Summed duration and self time per span name across traces."""
    duration, self_time = {}, {}
    for trace in traces:
        spans = trace["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), inner in zip(spans, child):
            duration[name] = duration.get(name, 0.0) + end - start
            self_time[name] = self_time.get(name, 0.0) + end - start - inner
    return duration, self_time


def _median_or_count(values):
    """Exact counters repeat, so they stay whole numbers."""
    return values[0] if len(set(values)) == 1 else statistics.median(values)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(traces, counters):
    """The per-layer metrics named in BENCHMARK.json, from spans and counters."""
    d, own = span_times(traces)
    c = dict.fromkeys(("ingest.rows_read", "ingest.rows_dropped", "ingest.records",
                       "gibbs.steps", "gibbs.result_bytes", "sim.timesteps",
                       "sim.cell_steps", "sim.surplus_cells", "game.points",
                       "runner.report_bytes") + SHAPE_COUNTERS, 0)
    c.update(counters)
    t = {name: d.get(name, 0.0) for name in (
        "ingest", "dist.tables", "gibbs.sample", "gibbs.stats", "sim.curve",
        "sim.energy", "game.surfaces", "game.solve", "runner.report")}
    return {
        "ingest.s": (t["ingest"], "s"),
        "ingest.rows_read": (c["ingest.rows_read"], "count"),
        "ingest.rows_dropped": (c["ingest.rows_dropped"], "count"),
        "ingest.records": (c["ingest.records"], "count"),
        "ingest.rows_per_s": (_ratio(c["ingest.rows_read"], t["ingest"]), "1/s"),
        "dist.tables_s": (t["dist.tables"], "s"),
        "dist.joint_rows": (c["dist.joint_rows"], "count"),
        "dist.joint_cols": (c["dist.joint_cols"], "count"),
        "dist.demand_rows": (c["dist.demand_rows"], "count"),
        "gibbs.sample_s": (t["gibbs.sample"], "s"),
        "gibbs.steps": (c["gibbs.steps"], "count"),
        "gibbs.us_per_step": (_ratio(t["gibbs.sample"] * 1e6, c["gibbs.steps"]), "us"),
        "gibbs.result_mb": (c["gibbs.result_bytes"] / 1e6, "MB"),
        "gibbs.stats_s": (t["gibbs.stats"], "s"),
        "sim.curve_s": (t["sim.curve"], "s"),
        "sim.energy_s": (t["sim.energy"], "s"),
        "sim.energy_ms_per_t": (_ratio(t["sim.energy"] * 1e3, c["sim.timesteps"]), "ms"),
        "sim.cell_steps": (c["sim.cell_steps"], "count"),
        "sim.cell_steps_per_s": (_ratio(c["sim.cell_steps"], t["sim.energy"]), "1/s"),
        "sim.surplus_cell_frac": (_ratio(c["sim.surplus_cells"], c["sim.cell_steps"]),
                                  "ratio"),
        "game.surfaces_s": (t["game.surfaces"], "s"),
        "game.solve_s": (t["game.solve"], "s"),
        "game.points": (c["game.points"], "count"),
        "game.ms_per_point": (_ratio((t["game.surfaces"] + t["game.solve"]) * 1e3,
                                     c["game.points"]), "ms"),
        "runner.report_s": (t["runner.report"], "s"),
        "runner.report_bytes": (c["runner.report_bytes"], "bytes"),
        "runner.self_s": (own.get("runner", 0.0), "s"),
    }


def parse_importtime(text):
    """Cumulative seconds of ``windgame.cli`` and of ``scipy.stats`` (0 when
    the CLI no longer imports it) from ``python -X importtime`` output."""
    cumulative = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = (field.strip() for field in line[len("import time:"):].split("|"))
        if cum.isdigit():
            cumulative.setdefault(name, int(cum) / 1e6)
    if "windgame.cli" not in cumulative:
        raise BenchError("-X importtime output lacks windgame.cli")
    return cumulative["windgame.cli"], cumulative.get("scipy.stats", 0.0)


def machine_record(workload):
    def lscpu():
        try:
            text = subprocess.run(["lscpu"], capture_output=True, text=True,
                                  timeout=10).stdout
        except (OSError, subprocess.SubprocessError):
            return {}
        return {k.strip(): v.strip() for k, _, v in
                (line.partition(":") for line in text.splitlines())}

    import numpy
    import scipy
    info = lscpu()
    k = grid_points(workload)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": info.get("Model name", platform.processor()),
        "l2_cache": info.get("L2 cache"),
        "l3_cache": info.get("L3 cache"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "grid_points": k,
        "kxk_float64_bytes": k * k * 8,
    }


def record_golden(bench):
    """Run one CLI pass and one traced pass; store their digests and counters."""
    bench.golden = None
    digests = {}
    for sweep in bench.spec["sweeps"]:
        digests[sweep] = bench.invoke(sweep, traced=False)[2]
    traces = bench.rep(True)[2]
    if bench.problems or any(t is None for t in traces):
        raise BenchError("; ".join(bench.problems) or "traced pass failed")
    entry = {sweep: {"digests": digests[sweep]} for sweep in digests}
    entry["counters"] = sum_counters([t["counters"] for t in traces])
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    golden.setdefault(bench.workload, {})[str(bench.seed)] = entry
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="store this seed's digests and counters in golden.json")
    args = parser.parse_args()

    root = Path.cwd()
    bench = Bench(root, args.workload, args.seed)
    try:
        bench.prepare()
        if args.record_golden:
            record_golden(bench)
            print(f"recorded {args.workload} seed {args.seed}")
            return 0
        measured = bench.per_layer(args.seconds) if args.trace else \
            bench.end_to_end(args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        bench.close()

    if bench.golden is None:
        print(f"perfbench: golden check skipped: no digests for seed {args.seed}",
              file=sys.stderr)
    for problem in bench.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    result = {"correct": not bench.problems and bench.failed == 0,
              "attempted": bench.attempted, "failed": bench.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in measured.items()}}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "golden_checked": bench.golden is not None, "problems": bench.problems,
              "samples": bench.samples,
              "machine": machine_record(args.workload), "result": result}
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"machine": record["machine"],
                      "golden_checked": record["golden_checked"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
