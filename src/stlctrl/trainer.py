"""Training loops for the neural feedback controller.

All three trainers run one outer loop, _train: each iteration checks the
parameters on every training sample, stops once the minimum robustness
exceeds rho_bar, and otherwise takes one step of its trainer, retrying a
step whose rollout diverged.  A step maps (theta, worst sample, {sample:
(exact rho, rollout)}) to (theta, branch, lr, diverged candidates, such
runs of its theta), and the log's rho is the exact rho of that theta
from the worst sample, read from those runs; a NaN rho fails the check.

train_dropout's step is the gradient-sampling iteration: it ascends the
critical predicate value (and optionally a waypoint surrogate) through
sampled trajectories, halves the learning rate when the critical-predicate
direction stalls, and falls back to the smooth robustness over a time
partition when even a tiny step fails to improve.  A candidate whose
rollout diverged takes no further ascent passes and is not rolled out
again, and a commit test's rollout stops at the first state that proves
the candidate's rho below the incumbent's.  train_vanilla's step is
plain smooth-robustness ascent over the whole horizon, and
train_openloop runs it on a raw action sequence instead of network
weights.
"""

import csv
import math
import time
from dataclasses import dataclass
from functools import partial

from .plants import DivergedRollout, InitialSet, rollout
from .policy import AdamState, adam_update
from .sampler import build_sampled, grad_critical, grad_smooth, partition_times
from .smooth import SmoothConfig
from .stl import Record, critical, horizon, robustness


@dataclass
class TrainConfig:
    rho_bar: float = 0.0
    eps: float = 1e-5
    M: int = 1
    N: int = 5
    N1: int = 30
    N2: int = 3
    b: float = 15.0
    max_iters: int = 1000
    alpha: float = 1e-2
    guard_smooth: bool = True
    noise: tuple = None  # (c1, c2) for noisy training rollouts

    def __post_init__(self):
        if not self.eps > 0 or min(self.M, self.N, self.N1, self.N2,
                                   self.max_iters) < 1:
            raise ValueError("need eps > 0 and M, N, N1, N2, max_iters >= 1")
        if math.isnan(self.rho_bar):  # no min rho would ever exceed it
            raise ValueError("rho_bar must be a number, got nan")
        if not 0.0 < self.alpha < math.inf:  # Adam ascends, theta stays finite
            raise ValueError(f"alpha must be positive and finite, "
                             f"got {self.alpha}")
        SmoothConfig(self.b)  # the same check of the smoothing sharpness


class WaypointPath:
    """Desired path as (time, target, mask) knots: targets between knots
    are linear blends, and times past the ends clamp to the nearest knot.
    """

    def __init__(self, knots):
        if not knots:
            raise ValueError("waypoint path needs at least one knot")
        knots = [(int(t), tuple(tgt), tuple(mask)) for t, tgt, mask in knots]
        if any(b[0] <= a[0] for a, b in zip(knots, knots[1:])):
            raise ValueError("waypoint times must be strictly increasing")
        for _, tgt, mask in knots:
            if len(tgt) != len(mask):
                raise ValueError("target/mask length mismatch")
        self.knots = knots

    def entry(self, t):
        """(target, mask) at time t."""
        ks = self.knots
        if t <= ks[0][0]:
            return ks[0][1], ks[0][2]
        if t >= ks[-1][0]:
            return ks[-1][1], ks[-1][2]
        for (t0, g0, _), (t1, g1, m1) in zip(ks, ks[1:]):
            if t0 <= t <= t1:
                w = (t - t0) / (t1 - t0)
                tgt = tuple(a + w * (b - a) for a, b in zip(g0, g1))
                return tgt, m1
        raise AssertionError("unreachable")


def waypoint_objective(times, states, wp):
    """(J, adjs): J the negative masked squared distance of states[i] to
    the desired path at times[i], adjs[i] its adjoint at states[i].

    J = J - diff * diff per masked coordinate, diff = x - target, in the
    Var operators' order, and a masked entry's adjoint is the
    interpreter's MUL terms (0.0 + g_sq * diff) + g_sq * diff, g_sq = 0.0 -
    1.0 (0.0 at diff = 0.0), so both have the Var operators' bits.
    """
    J, adjs, g_sq = 0.0, [], 0.0 - 1.0
    for t, state in zip(times, states):
        tgt, mask = wp.entry(t)
        adj = [0.0] * len(state)
        for d, m in enumerate(mask):
            if m:
                diff = state[d] - tgt[d]
                J = J - diff * diff
                adj[d] = (0.0 + g_sq * diff) + g_sq * diff
        adjs.append(adj)
    return J, adjs


class TrainRecord(Record):
    _fields = ("iter", "rho", "branch", "lr", "seconds")


class TrainLog:
    def __init__(self):
        self.records = []

    def append(self, **kw):
        self.records.append(TrainRecord(**kw))

    def branch_counts(self):
        out = {}
        for r in self.records:
            out[r.branch] = out.get(r.branch, 0) + 1
        return out

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["iter", "rho", "branch", "lr", "seconds"])
            for r in self.records:
                w.writerow([r.iter, repr(r.rho), r.branch, repr(r.lr),
                            repr(r.seconds)])


_MAX_RETRIES = 50  # steps that raised DivergedRollout, retried per run
_DIVERGED = (-math.inf, None)
_BELOW = (math.nan, None)  # a watched run stopped: rho < floor, or nan


def _exact_rho(plant, policy, theta, s0, K, f, floor=None):
    """(exact rho of theta from s0, its rollout), _DIVERGED if the rollout
    diverged, or _BELOW if given a floor the rollout stopped at a state
    that proves rho >= floor false (see plants.rollout's watch)."""
    try:
        r = rollout(plant, policy.with_theta(theta), s0, K,
                    watch=None if floor is None else (f, floor))
    except DivergedRollout:
        return _DIVERGED
    return _BELOW if r is None else (robustness(f, r), r)


def _min_rho(plant, policy, theta, init_set, K, f, kept):
    """(min rho over the training samples, its first sample, {sample:
    _exact_rho of theta}), runs in kept taken as they are; NaN raises."""
    runs = {}
    for s0 in init_set.samples:
        if s0 not in runs:  # a repeated sample is rolled out once
            runs[s0] = kept.get(s0) or _exact_rho(plant, policy, theta, s0,
                                                  K, f)
            if runs[s0][0] != runs[s0][0]:
                raise FloatingPointError(f"the robustness of theta from "
                                         f"training sample {s0} is nan")
    worst_s0 = min(runs, key=lambda s0: runs[s0][0])
    return runs[worst_s0][0], worst_s0, runs


def _incumbent(runs, s0):
    """runs[s0], or RuntimeError naming s0 if that run of theta diverged."""
    if runs[s0] == _DIVERGED:
        raise RuntimeError(f"the rollout of theta from training sample {s0} "
                           "diverged: no step can be taken from it")
    return runs[s0]


def _train(plant, policy, f, init_set, cfg, step):
    """The outer loop of every trainer; returns (theta, log, info).

    Each iteration checks theta on every training sample and stops once
    the minimum rho exceeds cfg.rho_bar.  Otherwise it takes
    step(theta, worst_s0, runs) -> (theta, branch, lr, diverged, kept),
    runs being _min_rho's and kept its runs of the new theta, and logs the
    rho of kept's run from worst_s0.  A step that raises DivergedRollout is
    retried, at most _MAX_RETRIES times per run.  The returned theta is
    the one that solved the task, or the best one checked if none did.
    """
    K = horizon(f)
    theta = list(policy.theta)
    log = TrainLog()
    retries = diverged = iters = 0
    dnf, best_theta, best_rho, kept = True, theta, -math.inf, {}
    t_start = time.perf_counter()
    while iters < cfg.max_iters:
        min_rho, worst_s0, runs = _min_rho(plant, policy, theta, init_set, K,
                                           f, kept)
        if min_rho > best_rho:
            best_rho, best_theta = min_rho, theta
        if min_rho > cfg.rho_bar:
            dnf, kept = False, runs
            break
        t_iter = time.perf_counter()
        try:
            theta, branch, lr, div, kept = step(theta, worst_s0, runs)
        except DivergedRollout:
            retries += 1
            if retries > _MAX_RETRIES:
                raise
            continue
        diverged += div
        log.append(iter=iters, rho=kept[worst_s0][0], branch=branch, lr=lr,
                   seconds=time.perf_counter() - t_iter)
        iters += 1
    # a solved check again, on its runs: the benchmark counts its .samples read
    final_rho = _min_rho(plant, policy, theta, init_set, K, f, kept)[0]
    if final_rho > best_rho:
        best_rho, best_theta = final_rho, theta
    info = {
        "dnf": dnf,
        "iters": iters,
        "branch_counts": log.branch_counts(),
        "final_rho": best_rho,
        "retries": retries,
        "diverged": diverged,
        "seconds": time.perf_counter() - t_start,
    }
    return (best_theta if dnf else theta), log, info


def train_dropout(plant, policy, f, init_set, wp, cfg, rng):
    """Sampled-gradient training; returns (policy, log, info)."""
    adams = [AdamState(len(policy.theta), alpha=cfg.alpha) for _ in range(3)]
    step = partial(_dropout_iteration, plant, policy, f, wp, cfg, rng, adams)
    theta, log, info = _train(plant, policy, f, init_set, cfg, step)
    return policy.with_theta(theta), log, info


def _dropout_iteration(plant, policy, f, wp, cfg, rng, adams, theta, s0,
                       runs):
    """_train's step from theta on its worst sample s0, whose _exact_rho
    is runs[s0]: (theta, branch, lr, diverged candidates, {s0: committed
    theta's _exact_rho}, or runs if the smooth guard kept theta).

    The waypoint candidate, the critical one and a line search towards it
    are committed if their exact rho is at least theta's, else the smooth
    candidate unless guarded.  A guarded commit test's rollout stops, as
    _BELOW, at the first state that proves the candidate's rho below
    theta's (rho_j its floor).  Rollouts are deterministic, so a candidate
    whose pass rollout diverged takes no further passes, and its commit
    test reads _DIVERGED unrolled.  If theta's own run from s0 diverged,
    any candidate would pass at -inf >= -inf: _incumbent raises.
    """
    K, rho_j, diverged, dead = horizon(f), _incumbent(runs, s0)[0], 0, []

    def ascend(steps, n):
        # n passes from theta, the first on runs[s0]; each steps every live
        # candidate by Adam along its grad(rollout, policy) / n
        nonlocal diverged
        run, cands = runs[s0], [theta] * len(steps)
        live = [True] * len(steps)
        for _ in range(n):
            for i, (grad, adam) in enumerate(steps):
                if live[i]:
                    pol = policy.with_theta(cands[i])
                    try:
                        ref = run[1] or rollout(plant, pol, s0, K)
                        d = [g / n for g in grad(ref, pol)]
                        cands[i] = adam_update(adam, cands[i], d)
                    except DivergedRollout:
                        live[i] = False
            run = (None, None)
        dead.extend(c for c, ok in zip(cands, live) if not ok)
        diverged += live.count(False)
        return cands

    def crit(ref, pol):
        w = critical(f, ref)
        return grad_critical(ref, w.time, w.predicate, cfg.N, pol, plant, rng)

    def way(ref, pol):
        times = [0] + sorted(rng.sample(range(1, K + 1), min(cfg.N, K)))
        adjs = waypoint_objective(times, [ref.states[t] for t in times], wp)[1]
        return build_sampled(ref, times, pol, plant).grad(adjs[1:])

    def smooth(ref, pol):
        partition = partition_times(K, cfg.M, rng)
        return grad_smooth(ref, partition, f, SmoothConfig(cfg.b), pol, plant)

    def commit(cand, branch, lr, guard=True):
        # the step to cand if its exact rho from s0 passes the commit test;
        # a guarded test stops the rollout once it proves rho < rho_j
        run = (_DIVERGED if any(c is cand for c in dead)
               else _exact_rho(plant, policy, cand, s0, K, f,
                               rho_j if guard else None))
        if run[0] >= rho_j or not guard:
            return cand, branch, lr, diverged, {s0: run}

    steps = [(crit, adams[0])] + ([(way, adams[1])] if wp is not None else [])
    theta1, *theta2 = ascend(steps, cfg.N1)  # theta2: [waypoint candidate]
    if theta2 and (out := commit(theta2[0], "waypoint", 1.0)):
        return out
    if out := commit(theta1, "critical", 1.0):
        return out
    ell = 1.0
    while True:
        ell = ell / 2.0
        hat = [tj + ell * (t1 - tj) for tj, t1 in zip(theta, theta1)]
        if out := commit(hat, "critical", ell):
            return out
        if ell < cfg.eps:
            break
    theta3, = ascend([(smooth, adams[2])], cfg.N2)
    return (commit(theta3, "smooth", 1.0, cfg.guard_smooth)
            or (theta, "smooth", 1.0, diverged, runs))  # the guard kept theta


def train_vanilla(plant, policy, f, init_set, cfg, rng):
    """Smooth-robustness gradient ascent over the whole horizon."""
    K = horizon(f)
    scfg = SmoothConfig(cfg.b)
    adam = AdamState(len(policy.theta), alpha=cfg.alpha)

    def step(theta, s0, runs):
        pol = policy.with_theta(theta)
        ref = (_incumbent(runs, s0)[1] if cfg.noise is None
               else rollout(plant, pol, s0, K, noise=(*cfg.noise, rng)))
        d = grad_smooth(ref, [range(K + 1)], f, scfg, pol, plant)
        theta = adam_update(adam, theta, d)
        return theta, "smooth", 1.0, 0, {s0: _exact_rho(plant, policy, theta,
                                                        s0, K, f)}

    theta, log, info = _train(plant, policy, f, init_set, cfg, step)
    return policy.with_theta(theta), log, info


class _OpenLoop:
    """Adapter presenting a raw action sequence as a per-step policy."""

    def __init__(self, actions):
        self.actions = actions
        self.theta = [a for step in actions for a in step]
        self.action_dim = len(actions[0])

    def with_theta(self, theta):
        m = self.action_dim
        return _OpenLoop([theta[i:i + m] for i in range(0, len(theta), m)])

    def forward(self, s, k):
        m = self.action_dim
        if (k + 1) * m > len(self.theta):
            raise ValueError(f"open-loop actions end before step {k}")
        return self.theta[k * m:(k + 1) * m]


def train_openloop(plant, actions, f, s0, cfg, rng):
    """train_vanilla on the raw action sequence itself, from s0; returns
    (actions, log, info).

    actions is a K x action_dim list of raw (pre-squash) inputs.
    """
    K = horizon(f)
    if K < 1:
        raise ValueError(f"open-loop training needs horizon >= 1, got {K}")
    if len(actions) != K:
        raise ValueError(f"need {K} action rows, got {len(actions)}")
    ol, log, info = train_vanilla(plant, _OpenLoop(actions), f,
                                  InitialSet(s0, s0, [s0]), cfg, rng)
    return ol.actions, log, info
