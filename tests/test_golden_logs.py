"""Seeded training logs pinned across commits.

tests/data/dubins_k100_golden.json holds the (iter, rho, branch, lr) rows
and the returned theta of train_dropout on the bundled dubins_k100
scenario for training seeds 1-3, seeded as the benchmark seeds them: one
random.Random(seed) builds the initial policy and then drives training.

tests/data/baselines_golden.json holds the same for the two baselines,
with the scenario's training settings and max_iters=60: train_vanilla on
dubins_k10 and integrator2d for seeds 1-2 (seeded the same way), and
train_openloop from zero actions on the first training sample of each,
driven by random.Random(1).  integrator2d trains with the scenario's noise
pair; dubins_k10 has none.

tests/data/dubins_k1000_golden.json holds the same for the first 20
dropout iterations of the bundled dubins_k1000 scenario from its own seed,
and the grad_smooth at the returned theta over the first training sample
with the scenario's M = 50 partition sets, drawn by random.Random(0).  Its
smooth candidates all keep the incumbent, so the rows alone do not depend
on grad_smooth's bits; the gradient pins them where a smooth aggregation
mixes float and Var entries, which the M = 1 runs above never reach.

A speedup or refactor that changes any bit of these fails here.
Regenerate the files only for a deliberate change of the numbers:

    PYTHONPATH=src python tests/test_golden_logs.py
"""

import dataclasses
import json
import os
import random

import pytest

from stlctrl.cli import load_scenario, resolve_scenario
from stlctrl.plants import rollout
from stlctrl.sampler import grad_smooth, partition_times
from stlctrl.smooth import SmoothConfig
from stlctrl.stl import horizon
from stlctrl.trainer import train_dropout, train_openloop, train_vanilla

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
DATA = os.path.join(DATA_DIR, "dubins_k100_golden.json")
BASELINES = os.path.join(DATA_DIR, "baselines_golden.json")
LONG = os.path.join(DATA_DIR, "dubins_k1000_golden.json")
LONG_ITERS = 20
SEEDS = (1, 2, 3)
BASELINE_RUNS = [("vanilla", name, seed)
                 for name in ("dubins_k10", "integrator2d") for seed in (1, 2)]
BASELINE_RUNS += [("openloop", name, 1)
                  for name in ("dubins_k10", "integrator2d")]


def _result(log, info, theta):
    return {
        "rows": [[r.iter, r.rho, r.branch, r.lr] for r in log.records],
        "theta": theta,
        "dnf": info["dnf"],
    }


def run_seed(seed):
    sc = load_scenario(resolve_scenario("dubins_k100"))
    rng = random.Random(seed)
    pol = sc.build_policy(rng)
    ctrl, log, info = train_dropout(sc.plant, pol, sc.formula, sc.init_set,
                                    sc.waypoints, sc.train_cfg, rng)
    return _result(log, info, ctrl.theta)


def run_long():
    sc = load_scenario(resolve_scenario("dubins_k1000"))
    cfg = dataclasses.replace(sc.train_cfg, max_iters=LONG_ITERS)
    rng = random.Random(sc.seed)
    pol = sc.build_policy(rng)
    ctrl, log, info = train_dropout(sc.plant, pol, sc.formula, sc.init_set,
                                    sc.waypoints, cfg, rng)
    K = horizon(sc.formula)
    ref = rollout(sc.plant, ctrl, sc.init_set.samples[0], K)
    part = partition_times(K, cfg.M, random.Random(0))
    grad = grad_smooth(ref, part, sc.formula, SmoothConfig(cfg.b), ctrl,
                       sc.plant)
    return {**_result(log, info, ctrl.theta), "grad_smooth": grad}


def run_baseline(algorithm, name, seed):
    sc = load_scenario(resolve_scenario(name))
    cfg = dataclasses.replace(sc.train_cfg, max_iters=60)
    rng = random.Random(seed)
    if algorithm == "vanilla":
        pol = sc.build_policy(rng)
        ctrl, log, info = train_vanilla(sc.plant, pol, sc.formula,
                                        sc.init_set, cfg, rng)
        return _result(log, info, ctrl.theta)
    zeros = [[0.0] * sc.plant.action_dim for _ in range(horizon(sc.formula))]
    actions, log, info = train_openloop(sc.plant, zeros, sc.formula,
                                        sc.init_set.samples[0], cfg, rng)
    return _result(log, info, actions)


def _key(algorithm, name, seed):
    return f"{algorithm}/{name}/{seed}"


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _check(got, want):
    assert got["dnf"] == want["dnf"]
    assert got["rows"] == want["rows"]
    assert got["theta"] == want["theta"]


@pytest.mark.parametrize("seed", SEEDS)
def test_dropout_log_matches_golden(seed):
    _check(run_seed(seed), _load(DATA)[str(seed)])


@pytest.mark.parametrize("algorithm,name,seed", BASELINE_RUNS)
def test_baseline_log_matches_golden(algorithm, name, seed):
    _check(run_baseline(algorithm, name, seed),
           _load(BASELINES)[_key(algorithm, name, seed)])


def test_long_horizon_log_matches_golden():
    got, want = run_long(), _load(LONG)
    _check(got, want)
    assert got["grad_smooth"] == want["grad_smooth"]


def _dump(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


if __name__ == "__main__":
    os.makedirs(DATA_DIR, exist_ok=True)
    _dump(DATA, {str(s): run_seed(s) for s in SEEDS})
    _dump(BASELINES, {_key(*run): run_baseline(*run) for run in BASELINE_RUNS})
    _dump(LONG, run_long())
