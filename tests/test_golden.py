"""Shipped desk sweeps and their `stats` table against committed SHA-256 digests.

Rerun determinism alone would pass a change that shifts a bit in every run;
these digests pin the bytes themselves. A change that is meant to alter the
results must update them and say why.
"""
from __future__ import annotations

import csv
import dataclasses
import hashlib
import json

import pytest

from windgame import ingest
from windgame.cli import main
from windgame.config import load_config
from windgame.runner import emit_report, run_scenario

from conftest import REPO_ROOT

CONVERGENCE = "2e2d2bde73974dcdd0df66bb6afda87c6e59ae13c2abd030968f84b6e9735302"

GOLDEN = {
    1: {"equilibria.csv": "0328c872e2c7da6204622f741df2c812fa8540a5eb8fccc51140e6f1da07a0f5",
        "per_realisation.csv": "8b96a5762c7eb7b5e0599d1f5b11547464dec3a827f83dd7059b3027eb7c63e4",
        "convergence.csv": CONVERGENCE},
    2: {"equilibria.csv": "e19233139be6eda4398598d3fc40ad460641dd92f91852fe7b38f8a6f7f65c5e",
        "per_realisation.csv": "0faa4df5647185684334ecb99acf9758a832b6b9f7f423fdfe95faea36c94b70",
        "convergence.csv": CONVERGENCE},
    3: {"equilibria.csv": "ce01ed1e07cf85095e56ae94a00e2f29cb6f3f450f4d4aceb6f617a842b2908b",
        "per_realisation.csv": "31af2b67e05a3b6264cace9478e08f2ef7bbacdfd3aa3c60ec9bd7f13cea7ec5",
        "convergence.csv": CONVERGENCE},
}

# run.json less its timing_s and versions, hashed as json.dumps(meta,
# sort_keys=True), as the benchmark hashes it
RUN_JSON = {1: "e5706edfb9aadadd0ddd022cdbfd19c84bcd74cd3b2145d3e4c357fe8bac2ec2",
            2: "5f6e957ead4d81e6afac02375bb588be7a7926c4a3c6ffe1e9911496c333dabd",
            3: "5999604d90ac6acfcfc0df98737e04bc6f2623063572719c6ce8928d014867d2"}

# the stdout of `windgame stats`: the three desk configs share their data and
# chain, so they print the same table
STATS = "d8d9970cb3c43d07953c0ffcea76e4344174c94ab2d5315b0c2bbeb2993d30b3"

# each desk config with 1 and 3 workers
CASES = [pytest.param(s, w, id=f"{s}{suffix}")
         for w, suffix in ((1, ""), (3, "-workers3")) for s in sorted(GOLDEN)]


def run_json_digest(path) -> str:
    meta = json.loads(path.read_text())
    del meta["timing_s"], meta["versions"]
    return hashlib.sha256(json.dumps(meta, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("scenario, workers", CASES)
def test_reports_match_golden_digests(scenario, workers, tmp_path):
    config = load_config(f"{REPO_ROOT}/configs/scenario{scenario}.ini")
    emit_report(run_scenario(config, workers=workers), tmp_path)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDEN[scenario]}
    assert digests == GOLDEN[scenario]
    assert run_json_digest(tmp_path / "run.json") == RUN_JSON[scenario]


@pytest.mark.parametrize("scenario, workers", CASES)
def test_stats_table_matches_golden_digest(scenario, workers, capsys):
    assert main(["stats", "--config", f"{REPO_ROOT}/configs/scenario{scenario}.ini",
                 "--workers", str(workers)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == STATS


def test_quoted_inputs_match_golden_digests(tmp_path, monkeypatch):
    # scenario 3's three CSVs with every cell quoted go through csv.reader,
    # not the array tokenizer, and must give the same reports
    array_rows = ingest._array_rows
    monkeypatch.setattr(ingest, "_array_rows", lambda data: None if array_rows(data) is None
                        else pytest.fail("array tokenizer"))
    config = load_config(f"{REPO_ROOT}/configs/scenario3.ini")
    sources = {}
    for role in ("wind1", "wind2", "demand"):
        source = getattr(config, role)
        quoted = tmp_path / source.path.name
        with open(source.path, newline="", encoding="utf-8") as plain, \
                open(quoted, "w", newline="", encoding="utf-8") as out:
            csv.writer(out, quoting=csv.QUOTE_ALL).writerows(csv.reader(plain))
        sources[role] = dataclasses.replace(source, path=quoted)
    out = tmp_path / "out"
    emit_report(run_scenario(dataclasses.replace(config, **sources)), out)
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in GOLDEN[3]}
    assert digests == GOLDEN[3]
