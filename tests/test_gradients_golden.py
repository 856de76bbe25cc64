"""Sampled gradients pinned across commits, by the SHA-256 of their IEEE bytes.

tests/data/gradients_golden.json holds, for each bundled scenario at its
full horizon, with its seeded initial policy and from its first training
sample, the hash of the little-endian IEEE doubles of:

- grad_critical at N = 1, 3 and the scenario's N (rng random.Random(N));
- the waypoint objective's value and gradient over sampled times, for a
  crafted path and for the scenario's own path if it has one;
- grad_smooth at M = 1, 2 and the scenario's M (partition drawn by
  random.Random(M)), but for quad6_platform's M = 100, whose one call
  takes over a second.

A noisy reference (noise (0.02, 0.001)) is live at every step, so there
grad_critical takes N = K, the waypoint objective every time and
grad_smooth M = 1.  Per plant, a noisy differentiable rollout of 20 steps
adds its states and the gradients of every coordinate of its middle and
last state.

A speedup or refactor that changes any bit of these fails here.
Regenerate the file only for a deliberate change of the numbers:

    PYTHONPATH=src python tests/test_gradients_golden.py
"""

import hashlib
import json
import os
import random
import struct

import pytest

from stlctrl.autodiff import value_of
from stlctrl.cli import bundled_names, load_scenario, resolve_scenario
from stlctrl.plants import rollout
from stlctrl.sampler import (
    build_sampled, grad_critical, grad_smooth, partition_times,
)
from stlctrl.smooth import SmoothConfig
from stlctrl.stl import Trace, critical, horizon
from stlctrl.trainer import WaypointPath, waypoint_objective

DATA = os.path.join(os.path.dirname(__file__), "data",
                    "gradients_golden.json")
NOISE = (0.02, 0.001)
# the one scenario whose grad_smooth at its own M takes over a second a call
SLOW_M = {"quad6_platform"}
# one bundled scenario per plant for the differentiable rollouts
ROLLOUTS = ["dubins_k10", "multi_dubins_10", "quad6_platform", "quad12",
            "integrator2d", "scalar_power"]


def _hash(xs):
    return hashlib.sha256(struct.pack(f"<{len(xs)}d", *xs)).hexdigest()


def _setup(name, noisy, K=None):
    sc = load_scenario(resolve_scenario(name))
    pol = sc.build_policy(random.Random(sc.seed))
    K = horizon(sc.formula) if K is None else K
    noise = (*NOISE, random.Random(4)) if noisy else None
    return sc, pol, K, noise


def gradients(name, noisy):
    """{entry: hash} of one scenario's sampled gradients (see above)."""
    sc, pol, K, noise = _setup(name, noisy)
    plant, f, cfg = sc.plant, sc.formula, sc.train_cfg
    ref = rollout(plant, pol, sc.init_set.samples[0], K, noise=noise)
    out = {}
    w = critical(f, Trace(ref.states))
    for N in [K] if noisy else sorted({1, 3, cfg.N}):
        out[f"critical/N={N}"] = grad_critical(
            ref, w.time, w.predicate, N, pol, plant, random.Random(N))
    n = plant.state_dim
    paths = {"crafted": WaypointPath([
        (0, [0.5] * n, [1] * n),
        (K // 2, [-1.0] * n, [1, 0] * (n // 2) + [1] * (n % 2)),
        (K, [2.0] * n, [0] * (n - 1) + [1])])}
    if sc.waypoints is not None:
        paths["scenario"] = sc.waypoints
    times = (list(range(K + 1)) if noisy else
             [0] + sorted(random.Random(7).sample(range(1, K + 1),
                                                  min(cfg.N, K))))
    for key, wp in paths.items():
        smpl = build_sampled(ref, times, pol, plant)
        J, adjs = waypoint_objective(times, [ref.states[t] for t in times], wp)
        out[f"waypoint/{key}"] = [J, *smpl.grad(adjs[1:])]
    Ms = {1} if noisy else {1, 2} | ({cfg.M} if name not in SLOW_M else set())
    for M in sorted(m for m in Ms if m <= K):
        part = partition_times(K, M, random.Random(M))
        out[f"smooth/M={M}"] = grad_smooth(ref, part, f, SmoothConfig(cfg.b),
                                           pol, plant)
    return {k: _hash(v) for k, v in out.items()}


def differentiable_rollout(name):
    """{entry: hash} of a noisy 20-step differentiable rollout: its states'
    values and the gradients of its middle and last states' coordinates."""
    sc, pol, K, noise = _setup(name, True, K=20)
    run = rollout(sc.plant, pol, sc.init_set.samples[0], K,
                  mode="differentiable", noise=noise)
    out = {"states": _hash([value_of(x) for s in run.states for x in s])}
    for k in (K // 2, K):
        out[f"grad/{k}"] = _hash([g for x in run.states[k]
                                  for g in run.tape.backward(x, run.theta_vars)])
    return out


def _load():
    with open(DATA) as fh:
        return json.load(fh)


@pytest.mark.parametrize("noisy", [False, True], ids=["plain", "noisy"])
@pytest.mark.parametrize("name", bundled_names())
def test_sampled_gradients_match_golden(name, noisy):
    key = f"{name}/{'noisy' if noisy else 'plain'}"
    assert gradients(name, noisy) == _load()[key]


@pytest.mark.parametrize("name", ROLLOUTS)
def test_noisy_differentiable_rollout_matches_golden(name):
    assert differentiable_rollout(name) == _load()[f"rollout/{name}"]


if __name__ == "__main__":
    doc = {f"{name}/{'noisy' if noisy else 'plain'}": gradients(name, noisy)
           for name in bundled_names() for noisy in (False, True)}
    doc.update((f"rollout/{name}", differentiable_rollout(name))
               for name in ROLLOUTS)
    with open(DATA, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
