"""Training loops for the neural feedback controller.

All three trainers run one outer loop, _train: each iteration checks the
parameters on every training sample, stops once the minimum robustness
exceeds rho_bar, and otherwise takes one step of its trainer, retrying a
step whose rollout diverged.  A step maps (theta, min rho, worst sample,
{sample: (rho, rollout, exact signals)}) to (theta, branch, lr, logged
rho, diverged candidates, such runs of its theta for the next check).

train_dropout's step is the gradient-sampling iteration: it ascends the
critical predicate value (and optionally a waypoint surrogate) through
sampled trajectories, halves the learning rate when the critical-predicate
direction stalls, and falls back to the smooth robustness over a time
partition when even a tiny step fails to improve.  train_vanilla's step is
plain smooth-robustness ascent, and train_openloop's is that ascent over
the whole horizon on a raw action sequence instead of network weights.
"""

import csv
import math
import time
from dataclasses import dataclass, field

from .autodiff import Var
from .plants import DivergedRollout, InitialSet, rollout
from .policy import AdamState, adam_update
from .sampler import build_sampled, grad_critical, grad_smooth, partition_times
from .smooth import SmoothConfig
# robustness is unused, but the benchmark's tracer expects it here by name
from .stl import Trace, critical, horizon, robustness, signals  # noqa: F401


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
    time_sampling: bool = True
    guard_smooth: bool = True
    noise: tuple = None  # (c1, c2) for noisy training rollouts
    max_retries: int = 50

    def __post_init__(self):
        if self.eps <= 0 or min(self.M, self.N, self.N1, self.N2) < 1:
            raise ValueError("eps must be positive and M, N, N1, N2 >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.alpha > 0:  # a step of Adam ascends only then
            raise ValueError(f"alpha must be positive, got {self.alpha}")
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


def waypoint_objective(smpl, wp):
    """Negative masked squared distance of anchors to the desired path."""
    J = 0.0
    for t, anchor in zip(smpl.times, smpl.anchors):
        tgt, mask = wp.entry(t)
        for d, m in enumerate(mask):
            if m:
                diff = anchor[d] - tgt[d]
                J = J - diff * diff
    return J


@dataclass
class TrainRecord:
    iter: int
    rho: float
    branch: str
    lr: float
    seconds: float


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


def _exact_rho(plant, policy, theta, s0, K, f):
    """(exact rho of theta from s0, its rollout, its exact signals), or
    (-inf, None, None) if the rollout diverged."""
    try:
        r = rollout(plant, policy.with_theta(theta), s0, K)
    except DivergedRollout:
        return -math.inf, None, None
    sig = signals(f, Trace(r.states))
    return sig[-1][0], r, sig


def _min_rho(plant, policy, theta, init_set, K, f, kept):
    """(min rho over the training samples, its sample, {sample: _exact_rho
    of theta}), taking the runs of theta in kept as they are."""
    best = worst_s0 = None
    runs = {}
    for s0 in init_set.samples:
        runs[s0] = kept.get(s0) or _exact_rho(plant, policy, theta, s0, K, f)
        if best is None or runs[s0][0] < best:
            best, worst_s0 = runs[s0][0], s0
    return best, worst_s0, runs


def _train(plant, policy, f, init_set, cfg, step):
    """The outer loop of every trainer; returns (theta, log, info).

    Each iteration checks theta on every training sample and stops once
    the minimum rho exceeds cfg.rho_bar.  Otherwise it takes
    step(theta, min_rho, worst_s0, runs) -> (theta, branch, lr, rho,
    diverged, kept), runs being _min_rho's and kept its runs of the new
    theta, and logs rho.  A step that raises DivergedRollout is retried, at
    most cfg.max_retries times per run.  The returned theta is the one that
    solved the task, or the best one checked if none did.
    """
    K = horizon(f)
    theta = list(policy.theta)
    log = TrainLog()
    retries = diverged = iters = 0
    dnf, best_theta, best_rho, kept = True, theta, -math.inf, {}
    t_start = time.time()
    while iters < cfg.max_iters:
        min_rho, worst_s0, runs = _min_rho(plant, policy, theta, init_set, K,
                                           f, kept)
        if min_rho > best_rho:
            best_rho, best_theta = min_rho, theta
        if min_rho > cfg.rho_bar:
            dnf = False
            break
        t_iter = time.time()
        try:
            theta, branch, lr, rho, div, kept = step(theta, min_rho,
                                                     worst_s0, runs)
        except DivergedRollout:
            retries += 1
            if retries > cfg.max_retries:
                raise
            continue
        diverged += div
        log.append(iter=iters, rho=rho, branch=branch, lr=lr,
                   seconds=time.time() - t_iter)
        iters += 1
    # repeats a solved check; the benchmark's spans count its .samples read
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
        "seconds": time.time() - t_start,
    }
    return (best_theta if dnf else theta), log, info


def train_dropout(plant, policy, f, init_set, wp, cfg, rng):
    """Sampled-gradient training; returns (policy, log, info)."""
    K = horizon(f)
    scfg = SmoothConfig(cfg.b)
    adams = [AdamState(len(policy.theta), alpha=cfg.alpha) for _ in range(3)]

    def step(theta, min_rho, s0, runs):
        rho_j, ref_j, sig_j = runs[s0]
        *out, run = _dropout_iteration(plant, policy, f, wp, cfg, scfg, rng,
                                       theta, s0, rho_j, ref_j, K, *adams,
                                       sig_j)
        return (*out, runs if run is None else {s0: run})

    theta, log, info = _train(plant, policy, f, init_set, cfg, step)
    return policy.with_theta(theta), log, info


def _dropout_iteration(plant, policy, f, wp, cfg, scfg, rng, theta, s0, rho_j,
                       ref_j, K, adam1, adam2, adam3, sig_j=None):
    """One iteration from theta, whose exact rho, plain rollout from s0 and
    its exact signals are rho_j, ref_j and sig_j (None if it diverged or
    not kept).

    Returns (committed theta, branch, lr, exact rho of the committed theta,
    number of candidate updates skipped because their rollout diverged,
    _exact_rho of the committed theta from s0 or None if it is theta).
    """
    diverged = 0
    theta1 = list(theta)
    theta2 = list(theta)
    ref1 = ref2 = ref_j  # theta1 = theta2 = theta3 = theta on a first pass
    sig1 = sig_j
    for _ in range(cfg.N1):
        try:
            if ref1 is None:
                ref1 = rollout(plant, policy.with_theta(theta1), s0, K)
            w = critical(f, Trace(ref1.states), sig=sig1)
            d1 = grad_critical(ref1, w.time, w.predicate, cfg.N,
                               policy.with_theta(theta1), plant, rng)
            theta1 = adam_update(adam1, theta1, [g / cfg.N1 for g in d1])
        except DivergedRollout:
            diverged += 1  # keep theta1; the commit test filters bad candidates
        ref1 = sig1 = None
        if wp is not None:
            try:
                if ref2 is None:
                    ref2 = rollout(plant, policy.with_theta(theta2), s0, K)
                times = [0] + sorted(rng.sample(range(1, K + 1),
                                                min(cfg.N, K)))
                smpl = build_sampled(ref2, times, policy.with_theta(theta2),
                                     plant)
                J = waypoint_objective(smpl, wp)
                if hasattr(J, "tape"):
                    d2 = smpl.tape.backward(J, smpl.theta_vars)
                else:
                    d2 = [0.0] * len(theta2)
                theta2 = adam_update(adam2, theta2, [g / cfg.N1 for g in d2])
            except DivergedRollout:
                diverged += 1
            ref2 = None

    if wp is not None:
        run = _exact_rho(plant, policy, theta2, s0, K, f)
        if run[0] >= rho_j:
            return theta2, "waypoint", 1.0, run[0], diverged, run
    run = _exact_rho(plant, policy, theta1, s0, K, f)
    if run[0] >= rho_j:
        return theta1, "critical", 1.0, run[0], diverged, run
    ell = 1.0
    while True:
        ell = ell / 2.0
        hat = [tj + ell * (t1 - tj) for tj, t1 in zip(theta, theta1)]
        run = _exact_rho(plant, policy, hat, s0, K, f)
        if run[0] >= rho_j:
            return hat, "critical", ell, run[0], diverged, run
        if ell < cfg.eps:
            break

    theta3 = list(theta)
    ref3 = ref_j
    for _ in range(cfg.N2):
        try:
            if ref3 is None:
                ref3 = rollout(plant, policy.with_theta(theta3), s0, K)
            partition = partition_times(K, cfg.M, rng)
            d3 = grad_smooth(ref3, partition, f, scfg,
                             policy.with_theta(theta3), plant)
            theta3 = adam_update(adam3, theta3, [g / cfg.N2 for g in d3])
        except DivergedRollout:
            diverged += 1
            break
        ref3 = None
    run = _exact_rho(plant, policy, theta3, s0, K, f)
    if cfg.guard_smooth and run[0] < rho_j:
        # keep the incumbent rather than regress
        return theta, "smooth", 1.0, rho_j, diverged, None
    return theta3, "smooth", 1.0, run[0], diverged, run


def _reference(plant, policy, s0, K, cfg, rng, checked):
    """A rollout of policy from s0 to ascend from: with noise off, checked,
    the min-rho check's run of it, unless that diverged (None)."""
    if cfg.noise is None:
        return checked or rollout(plant, policy, s0, K)
    return rollout(plant, policy, s0, K, noise=(*cfg.noise, rng))


def train_vanilla(plant, policy, f, init_set, cfg, rng):
    """Smooth-robustness gradient ascent baseline."""
    K = horizon(f)
    scfg = SmoothConfig(cfg.b)
    adam = AdamState(len(policy.theta), alpha=cfg.alpha)

    def step(theta, min_rho, s0, runs):
        pol = policy.with_theta(theta)
        ref = _reference(plant, pol, s0, K, cfg, rng, runs[s0][1])
        partition = (partition_times(K, cfg.M, rng) if cfg.time_sampling
                     and cfg.M > 1 else [list(range(K + 1))])
        d = grad_smooth(ref, partition, f, scfg, pol, plant)
        theta = adam_update(adam, theta, d)
        run = _exact_rho(plant, policy, theta, s0, K, f)
        return theta, "smooth", 1.0, run[0], 0, {s0: run}

    theta, log, info = _train(plant, policy, f, init_set, cfg, step)
    return policy.with_theta(theta), log, info


class _OpenLoop:
    """Adapter presenting a raw action sequence as a per-step policy."""

    def __init__(self, actions):
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

    def recorder(self, tape, theta):
        m = self.action_dim
        return lambda s, k: [Var(tape, i) for i in theta[k * m:(k + 1) * m]]


def train_openloop(plant, actions, f, s0, cfg, rng):
    """Optimize the raw action sequence itself; returns (actions, log, info).

    actions is a K x action_dim list of raw (pre-squash) inputs.  Each
    step logs the exact rho from before it.
    """
    K = horizon(f)
    if K < 1:
        raise ValueError(f"open-loop training needs horizon >= 1, got {K}")
    if len(actions) != K:
        raise ValueError(f"need {K} action rows, got {len(actions)}")
    ol = _OpenLoop(actions)
    scfg = SmoothConfig(cfg.b)
    adam = AdamState(len(ol.theta), alpha=cfg.alpha)

    def step(theta, min_rho, worst_s0, runs):
        pol = ol.with_theta(theta)
        ref = _reference(plant, pol, s0, K, cfg, rng, runs[worst_s0][1])
        d = grad_smooth(ref, [range(K + 1)], f, scfg, pol, plant)
        return adam_update(adam, theta, d), "smooth", 1.0, min_rho, 0, {}

    theta, log, info = _train(plant, ol, f, InitialSet(s0, s0, [s0]), cfg,
                              step)
    m = ol.action_dim
    return [theta[i:i + m] for i in range(0, len(theta), m)], log, info
