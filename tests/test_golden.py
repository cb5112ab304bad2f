"""Shipped desk sweeps against committed SHA-256 digests of their reports.

Rerun determinism alone would pass a change that shifts a bit in every run;
these digests pin the bytes themselves. A change that is meant to alter the
results must update them and say why.
"""
from __future__ import annotations

import hashlib

import pytest

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


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_reports_match_golden_digests(scenario, tmp_path):
    config = load_config(f"{REPO_ROOT}/configs/scenario{scenario}.ini")
    emit_report(run_scenario(config), tmp_path)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDEN[scenario]}
    assert digests == GOLDEN[scenario]
