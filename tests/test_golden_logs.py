"""Seeded training logs pinned across commits.

tests/data/dubins_k100_golden.json holds the (iter, rho, branch, lr) rows
and the returned theta of train_dropout on the bundled dubins_k100
scenario for training seeds 1-3, seeded as the benchmark seeds them: one
random.Random(seed) builds the initial policy and then drives training.
A speedup that changes any bit of these fails here.  Regenerate the file
only for a deliberate change of the numbers:

    PYTHONPATH=src python tests/test_golden_logs.py
"""

import json
import os
import random

import pytest

from stlctrl.cli import load_scenario, resolve_scenario
from stlctrl.trainer import train_dropout

DATA = os.path.join(os.path.dirname(__file__), "data", "dubins_k100_golden.json")
SEEDS = (1, 2, 3)


def run_seed(seed):
    sc = load_scenario(resolve_scenario("dubins_k100"))
    rng = random.Random(seed)
    pol = sc.build_policy(rng)
    ctrl, log, info = train_dropout(sc.plant, pol, sc.formula, sc.init_set,
                                    sc.waypoints, sc.train_cfg, rng)
    return {
        "rows": [[r.iter, r.rho, r.branch, r.lr] for r in log.records],
        "theta": ctrl.theta,
        "dnf": info["dnf"],
    }


def _golden():
    with open(DATA) as fh:
        return json.load(fh)


@pytest.mark.parametrize("seed", SEEDS)
def test_dropout_log_matches_golden(seed):
    want = _golden()[str(seed)]
    got = run_seed(seed)
    assert got["dnf"] == want["dnf"]
    assert got["rows"] == want["rows"]
    assert got["theta"] == want["theta"]


if __name__ == "__main__":
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    with open(DATA, "w") as fh:
        json.dump({str(s): run_seed(s) for s in SEEDS}, fh)
        fh.write("\n")
