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

tests/data/quad12_golden.json holds the rows and theta of the first 20
dropout iterations of the bundled quad12 scenario from its own seed, a
run whose candidates diverge: 16 critical and 4 smooth rows.

tests/data/dubins_k500_golden.json holds the rows and theta of the whole
dropout run of the bundled dubins_k500 scenario from its own seed, solved
at iteration 99.  3 of its 50 smooth rows commit a grad_smooth step at
the scenario's M = 100, so it is the one solved bundled run whose log
pins grad_smooth at M > 1; it takes about 10 s and is marked slow.

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
QUAD12 = os.path.join(DATA_DIR, "quad12_golden.json")
K500 = os.path.join(DATA_DIR, "dubins_k500_golden.json")
LONG_ITERS = QUAD12_ITERS = 20
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


def run_first_iters(name, iters=None):
    """(scenario, its config, policy, _result) of the first iters dropout
    iterations of a bundled scenario from its own seed (all of them when
    iters is None)."""
    sc = load_scenario(resolve_scenario(name))
    cfg = dataclasses.replace(sc.train_cfg,
                              max_iters=iters or sc.train_cfg.max_iters)
    rng = random.Random(sc.seed)
    pol = sc.build_policy(rng)
    ctrl, log, info = train_dropout(sc.plant, pol, sc.formula, sc.init_set,
                                    sc.waypoints, cfg, rng)
    return sc, cfg, ctrl, _result(log, info, ctrl.theta)


def run_long():
    sc, cfg, ctrl, result = run_first_iters("dubins_k1000", LONG_ITERS)
    K = horizon(sc.formula)
    ref = rollout(sc.plant, ctrl, sc.init_set.samples[0], K)
    part = partition_times(K, cfg.M, random.Random(0))
    grad = grad_smooth(ref, part, sc.formula, SmoothConfig(cfg.b), ctrl,
                       sc.plant)
    return {**result, "grad_smooth": grad}


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


def test_diverging_run_log_matches_golden():
    _check(run_first_iters("quad12", QUAD12_ITERS)[3], _load(QUAD12))


@pytest.mark.slow
def test_smooth_steps_at_many_sets_log_matches_golden():
    got = run_first_iters("dubins_k500")[3]
    assert not got["dnf"] and len(got["rows"]) == 99
    _check(got, _load(K500))


def _dump(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


if __name__ == "__main__":
    os.makedirs(DATA_DIR, exist_ok=True)
    _dump(DATA, {str(s): run_seed(s) for s in SEEDS})
    _dump(BASELINES, {_key(*run): run_baseline(*run) for run in BASELINE_RUNS})
    _dump(LONG, run_long())
    _dump(QUAD12, run_first_iters("quad12", QUAD12_ITERS)[3])
    _dump(K500, run_first_iters("dubins_k500")[3])
