import dataclasses
import math
import random
from types import SimpleNamespace

import pytest

from stlctrl.autodiff import Tape, Var
from stlctrl.cli import bundled_names, load_scenario, resolve_scenario
from stlctrl.plants import InitialSet, builtin, rollout
from stlctrl.policy import AdamState, Policy, init
from stlctrl.sampler import build_sampled
from stlctrl.stl import Trace, horizon, parse, robustness
from stlctrl.trainer import (
    TrainConfig, TrainLog, WaypointPath, train_dropout, train_openloop,
    train_vanilla, waypoint_objective,
)
from tests.test_stl import nan_as_one


def _point_set(s0):
    return InitialSet(s0, s0, [s0])


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(eps=0.0)
    with pytest.raises(ValueError):
        TrainConfig(N1=0)
    with pytest.raises(ValueError):
        TrainConfig(max_iters=0)
    # every comparison with nan is false: ell < nan never reaches the
    # smooth fallback, and min rho > nan never stops a run
    with pytest.raises(ValueError):
        TrainConfig(eps=math.nan)
    with pytest.raises(ValueError):
        TrainConfig(rho_bar=math.nan)
    # an infinite step makes theta nan at the first Adam update
    for alpha in (0.0, -0.05, math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha must be positive"):
            TrainConfig(alpha=alpha)


def test_waypoint_path_interpolation():
    wp = WaypointPath([(0, (0.0, 0.0), (1, 1)), (10, (1.0, 2.0), (1, 1))])
    tgt, mask = wp.entry(5)
    assert tgt == (0.5, 1.0)
    assert wp.entry(0)[0] == (0.0, 0.0)
    assert wp.entry(99)[0] == (1.0, 2.0)
    single = WaypointPath([(3, (1.0,), (1,))])  # clamps to every time
    assert single.entry(2) == single.entry(3) == ((1.0,), (1,))
    with pytest.raises(ValueError):
        WaypointPath([])
    with pytest.raises(ValueError):
        WaypointPath([(0, (0.0,), (1,)), (0, (1.0,), (1,))])


def test_waypoint_objective_values():
    plant = builtin("integrator2d")
    pol = init([3, 4, 2], scheme="zero")
    ref = rollout(plant, pol, (2.0, 0.0), 4)
    smpl = build_sampled(ref, [0, 2, 4], pol, plant)
    # the 3 anchors sit at (2,0); one knot, target 5 in dim 0 only
    wp = WaypointPath([(2, (5.0, 99.0), (1, 0))])
    J = waypoint_objective(smpl, wp)
    val = J.value if hasattr(J, "value") else J
    assert val == pytest.approx(-27.0)
    on_target = WaypointPath([(2, (2.0, 0.0), (1, 1))])
    J0 = waypoint_objective(smpl, on_target)
    assert (J0.value if hasattr(J0, "value") else J0) == pytest.approx(0.0)


def test_waypoint_objective_gradient_fd():
    plant = builtin("dubins")
    pol = init([3, 4, 2], rng=random.Random(5))
    ref = rollout(plant, pol, (0.0, 0.0), 6)
    wp = WaypointPath([(0, (0.0, 0.0), (1, 1)), (6, (1.0, 1.0), (1, 1))])
    times = list(range(7))  # full sampling: sampled gradient is exact
    smpl = build_sampled(ref, times, pol, plant)
    J = waypoint_objective(smpl, wp)
    g = smpl.tape.backward(J, smpl.theta_vars)
    h = 1e-6
    for idx in [0, 7, len(pol.theta) - 1]:
        vals = []
        for delta in (h, -h):
            th = list(pol.theta)
            th[idx] += delta
            p2 = pol.with_theta(th)
            r2 = rollout(plant, p2, (0.0, 0.0), 6)
            s2 = build_sampled(r2, times, p2, plant)
            Jv = waypoint_objective(s2, wp)
            vals.append(Jv.value if hasattr(Jv, "value") else Jv)
        fd = (vals[0] - vals[1]) / (2 * h)
        assert g[idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def oracle_waypoint_objective(smpl, wp):
    """waypoint_objective by the Var operators, node by node: the oracle of
    the one-block objective."""
    J = 0.0
    for t, anchor in zip(smpl.times, smpl.anchors):
        tgt, mask = wp.entry(t)
        for d, m in enumerate(mask):
            if m:
                diff = anchor[d] - tgt[d]
                J = J - diff * diff
    return J


def _bits(xs):
    # NaNs as one value: which NaN operand an add returns can differ
    # between two code paths (see tests/test_smooth.py)
    return b"".join(map(nan_as_one, xs))


def _objective_bits(objective, smpl, seeds):
    """The objective's value and its gradient over seeds, as bytes."""
    J = objective(smpl, smpl.wp)
    if not isinstance(J, Var):
        return _bits([J]), None
    return _bits([J.value]), _bits(J.tape.backward(J, seeds(J.tape)))


@pytest.mark.parametrize("name", [n for n in bundled_names() if load_scenario(
    resolve_scenario(n)).waypoints])
def test_waypoint_block_matches_the_var_operators(name):
    # the scenario's path, and one whose knots start after 0 and end
    # before the horizon, with 0 mask entries; the anchor at 0 is floats
    sc = load_scenario(resolve_scenario(name))
    plant, pol = sc.plant, sc.build_policy(random.Random(sc.seed))
    K, n = horizon(sc.formula), plant.state_dim
    ref = rollout(plant, pol, sc.init_set.samples[0], K)
    (_, g0, _), *_, (_, g1, _) = sc.waypoints.knots
    inner = WaypointPath([(3, g0, [d % 2 for d in range(n)]),
                          (K // 2, g1, [d % 3 > 0 for d in range(n)])])
    rng = random.Random(3)
    for wp in (sc.waypoints, inner):
        for times in ([0, 1, 2, K // 3, K - 1, K], [0, K // 2 + 1],
                      [0] + sorted(rng.sample(range(1, K + 1), 5))):
            runs = []
            for objective in (waypoint_objective, oracle_waypoint_objective):
                smpl = build_sampled(ref, times, pol, plant)
                smpl.wp = wp
                ids = [*smpl.theta_vars, *(x.i for a in smpl.anchors[1:]
                                           for x in a)]
                runs.append(_objective_bits(
                    objective, smpl, lambda t: [Var(t, i) for i in ids]))
            assert runs[0] == runs[1], (wp.knots[0][0], times)


@pytest.mark.parametrize("scale", [1.0, -2.5, 0.0, -0.0, math.inf, math.nan])
def test_waypoint_block_special_values_match_the_var_operators(scale):
    # targets hit exactly (diff +-0.0), infinite and nan entries, one Var
    # in two anchors, a float entry after a Var one, and an output
    # adjoint other than 1.0
    inf, nan = math.inf, math.nan
    wp = WaypointPath([(1, (0.5, 0.0, 2.0), (1, 1, 0)),
                       (4, (3.0, -0.0, 1.0), (1, 1, 1))])
    runs = []
    for objective in (waypoint_objective, oracle_waypoint_objective):
        tape = Tape()
        a, b, c, d, e, f = (tape.const(v) for v in (
            0.5, -0.0, 3.0, inf, nan, 1e200))
        y = a * c  # a record below the block
        anchors = [(0.25, 7.0, 1.0), (a, e, b), (y, f, d), (a, 0.0, c),
                   (c, -0.0, a)]
        smpl = SimpleNamespace(times=[0, 1, 2, 4, 6], anchors=anchors, wp=wp)
        J = objective(smpl, wp)
        out = J * scale
        seeds = [a, b, c, d, e, f, y, J]
        runs.append((_bits([J.value, out.value]),
                     _bits(tape.backward(out, seeds))))
    assert runs[0] == runs[1]
    floats = SimpleNamespace(times=[0, 3], anchors=[(0.25, 7.0, 1.0),
                                                     (1.0, -0.5, 0.0)], wp=wp)
    assert (_objective_bits(waypoint_objective, floats, None)
            == _objective_bits(oracle_waypoint_objective, floats, None))


def test_waypoint_block_sums_an_entry_newest_term_first():
    # one Var in three anchors: its terms 1.0, 1e16 and -1e16 sum to 1.0
    # newest first, as the interpreter sweeps, and to 0.0 oldest first
    wp = WaypointPath([(1, (0.5,), (1,)), (2, (5e15,), (1,)),
                       (3, (-5e15,), (1,))])
    grads = []
    for objective in (waypoint_objective, oracle_waypoint_objective):
        tape = Tape()
        z = tape.const(0.0)
        J = objective(SimpleNamespace(times=[1, 2, 3], anchors=[(z,)] * 3), wp)
        grads.append(tape.backward(J, [z]))
    assert grads == [[1.0], [1.0]]


def test_waypoint_block_rejects_anchors_on_two_tapes():
    t1, t2 = Tape(), Tape()
    smpl = SimpleNamespace(times=[1, 2], anchors=[(t1.const(1.0),),
                                                   (t2.const(2.0),)])
    wp = WaypointPath([(0, (0.0,), (1,))])
    for objective in (waypoint_objective, oracle_waypoint_objective):
        with pytest.raises(ValueError, match="different tapes"):
            objective(smpl, wp)


def test_already_satisfying_returns_immediately():
    plant = builtin("integrator2d")
    pol = init([3, 4, 2], scheme="zero")
    f = parse("G[0,5](x0 < 10)")
    iset = _point_set((0.0, 0.0))
    cfg = TrainConfig(max_iters=5, N1=2, N2=1)
    for fn in (train_dropout, train_vanilla):
        args = (plant, pol, f, iset)
        if fn is train_dropout:
            out_pol, log, info = fn(plant, pol, f, iset, None, cfg,
                                    random.Random(0))
        else:
            out_pol, log, info = fn(plant, pol, f, iset, cfg, random.Random(0))
        assert info["iters"] == 0
        assert not info["dnf"]
        assert out_pol.theta == pol.theta
        assert log.records == []


def test_vanilla_zero_gradient_is_dnf():
    # plant ignores the action entirely
    from stlctrl.plants import Plant
    plant = Plant("inert", 1, 2, 1.0, lambda s, u, dt: (s[0],), lambda a: a)
    pol = init([2, 3, 2], rng=random.Random(1))
    f = parse("F[0,3](x0 > 5)")
    cfg = TrainConfig(max_iters=10)
    out_pol, log, info = train_vanilla(plant, pol, f, _point_set((0.0,)), cfg,
                                       random.Random(0))
    assert info["dnf"]
    assert out_pol.theta == pol.theta


def test_vanilla_solves_simple_reach():
    plant = builtin("integrator2d")
    pol = init([3, 6, 2], rng=random.Random(2))
    f = parse("F[8,10](x0 > 0.5 && x1 > 0.5) && G[0,10](x0 > -2 && x1 > -2)")
    cfg = TrainConfig(max_iters=400, alpha=0.05, b=10.0)
    out_pol, log, info = train_vanilla(plant, pol, f, _point_set((-1.0, -1.0)),
                                       cfg, random.Random(0))
    assert not info["dnf"]
    r = rollout(plant, out_pol, (-1.0, -1.0), 10)
    assert robustness(f, Trace(r.states)) >= 0.0
    assert all(rec.branch == "smooth" for rec in log.records)


def test_dropout_solves_simple_reach():
    plant = builtin("integrator2d")
    pol = init([3, 6, 2], rng=random.Random(2))
    f = parse("F[8,10](x0 > 0.5 && x1 > 0.5) && G[0,10](x0 > -2 && x1 > -2)")
    cfg = TrainConfig(max_iters=150, alpha=0.05, b=10.0, M=3, N=4, N1=5, N2=2,
                      rho_bar=0.0)
    wp = WaypointPath([(0, (-1.0, -1.0), (1, 1)), (10, (0.8, 0.8), (1, 1))])
    out_pol, log, info = train_dropout(plant, pol, f, _point_set((-1.0, -1.0)),
                                       wp, cfg, random.Random(0))
    assert not info["dnf"]
    r = rollout(plant, out_pol, (-1.0, -1.0), 10)
    assert robustness(f, Trace(r.states)) > 0.0
    assert set(info["branch_counts"]) <= {"waypoint", "critical", "smooth"}
    assert sum(info["branch_counts"].values()) == info["iters"]


def test_dropout_commits_are_monotone_on_singleton():
    plant = builtin("scalar_power")
    pol = Policy([1, 1], theta=[0.49698, 0.0], include_time=False)
    f = parse("F[0,45](G[0,5](x0 > 0)) && G[6,50](1 - 10*x0 > 0)")
    cfg = TrainConfig(max_iters=25, N=3, N1=4, N2=2, M=5, alpha=0.02,
                      rho_bar=100.0)  # unreachable bar: runs all iterations
    out_pol, log, info = train_dropout(plant, pol, f, _point_set((1.15,)),
                                       None, cfg, random.Random(1))
    rhos = [rec.rho for rec in log.records]
    assert info["dnf"]
    for a, b in zip(rhos, rhos[1:]):
        assert b >= a - 1e-12


def test_dropout_max_iters_dnf_returns_best():
    plant = builtin("dubins")
    pol = init([3, 4, 2], rng=random.Random(3))
    f = parse("F[4,5](x0 > 1e6)")  # unreachable
    cfg = TrainConfig(max_iters=3, N1=2, N2=1, M=2, N=2)
    out_pol, log, info = train_dropout(plant, pol, f, _point_set((0.0, 0.0)),
                                       None, cfg, random.Random(0))
    assert info["dnf"]
    assert info["iters"] == 3
    assert math.isfinite(info["final_rho"])


def test_openloop_one_step_interior_optimum():
    plant = builtin("integrator2d")
    # band around x0 = 0.2 after one step; optimum u = (2, 0) is interior
    f = parse("G[1,1](x0 > 0.1 && x0 < 0.3)")
    cfg = TrainConfig(max_iters=3000, alpha=0.05, b=20.0, rho_bar=0.099)
    actions, log, info = train_openloop(plant, [[0.0, 0.0]], f, (0.0, 0.0),
                                        cfg, random.Random(0))
    assert not info["dnf"]
    u = plant.squash(actions[0])
    assert 0.1 * u[0] == pytest.approx(0.2, abs=1e-3)
    assert info["final_rho"] == pytest.approx(0.1, abs=1e-3)


def test_openloop_zero_budget_keeps_actions():
    plant = builtin("integrator2d")
    f = parse("G[1,1](x0 > 100)")
    cfg = TrainConfig(max_iters=1)
    actions, log, info = train_openloop(plant, [[0.3, -0.4]], f, (0.0, 0.0),
                                        cfg, random.Random(0))
    assert info["dnf"]
    # best-so-far is the (only slightly updated) sequence; shape preserved
    assert len(actions) == 1 and len(actions[0]) == 2


def test_openloop_needs_a_formula_horizon_of_at_least_1():
    # a horizon-0 formula leaves no action to optimise; it used to fail
    # with an IndexError on the empty action list
    plant = builtin("integrator2d")
    with pytest.raises(ValueError, match="horizon >= 1, got 0"):
        train_openloop(plant, [], parse("x0 > 1"), (0.0, 0.0), TrainConfig(),
                       random.Random(0))


def test_log_csv_format(tmp_path):
    log = TrainLog()
    log.append(iter=0, rho=-1.5, branch="critical", lr=1.0, seconds=0.25)
    log.append(iter=1, rho=0.5, branch="smooth", lr=0.5, seconds=0.5)
    path = tmp_path / "log.csv"
    log.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,rho,branch,lr,seconds"
    assert lines[1].startswith("0,-1.5,critical,")
    assert log.branch_counts() == {"critical": 1, "smooth": 1}


@pytest.mark.parametrize("guard_smooth", [True, False])
def test_dropout_passes_exact_rho_of_incumbent_and_commit(monkeypatch,
                                                          guard_smooth):
    # rho_j and the logged rho are reused from the min-rho check and the
    # commit test; each must equal a fresh rollout of its theta
    from stlctrl import trainer
    sc = load_scenario(resolve_scenario("dubins_k100"))
    rng = random.Random(1)
    pol = sc.build_policy(rng)
    cfg = dataclasses.replace(sc.train_cfg, max_iters=5,
                              guard_smooth=guard_smooth)
    calls = []
    orig = trainer._dropout_iteration

    def spy(*args):
        out = orig(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(trainer, "_dropout_iteration", spy)
    _, log, info = train_dropout(sc.plant, pol, sc.formula, sc.init_set,
                                 sc.waypoints, cfg, rng)
    assert "smooth" in info["branch_counts"]
    K = horizon(sc.formula)
    for args, (theta, branch, lr, _, kept) in calls:
        theta_in, s0, runs = args[7:10]
        assert runs[s0][0] == trainer._exact_rho(sc.plant, pol, theta_in, s0,
                                                 K, sc.formula)[0]
        fresh = trainer._exact_rho(sc.plant, pol, theta, s0, K, sc.formula)
        assert kept[s0][0] == fresh[0]
        # the runs handed to the next check, the incumbent's if it was kept
        run = kept[s0]
        assert (theta is theta_in if kept is runs else
                (run[0], run[1].states, run[2])
                == (fresh[0], fresh[1].states, fresh[2]))
    assert [r.rho for r in log.records] == [out[4][args[8]][0]
                                            for args, out in calls]


def test_next_check_reuses_the_committed_run(monkeypatch):
    # the commit test rolled the committed theta out from s0: the next
    # min-rho check takes that run, and all the incumbent's runs if the
    # smooth guard kept it
    from stlctrl import trainer
    sc = load_scenario(resolve_scenario("dubins_k100"))
    rng = random.Random(1)
    pol = sc.build_policy(rng)
    cfg = dataclasses.replace(sc.train_cfg, max_iters=8)
    rolled, commits = [], []
    orig_rollout, orig_iteration = trainer.rollout, trainer._dropout_iteration

    def spy_rollout(plant, policy, s0, K, **kw):
        rolled.append((tuple(policy.theta), tuple(s0)))
        return orig_rollout(plant, policy, s0, K, **kw)

    def spy_iteration(*args):
        out = orig_iteration(*args)
        commits.append((out[0], args[8], out[4] is args[9]))
        return out

    monkeypatch.setattr(trainer, "rollout", spy_rollout)
    monkeypatch.setattr(trainer, "_dropout_iteration", spy_iteration)
    _, log, info = train_dropout(sc.plant, pol, sc.formula, sc.init_set,
                                 sc.waypoints, cfg, rng)
    # seven iterations, one of them a smooth step the guard rejected
    assert len(commits) == len(log.records) == 7 and not info["dnf"]
    assert [kept for _, _, kept in commits].count(True) == 1
    for theta, s0, _ in commits:  # by the commit test or the first check
        assert rolled.count((tuple(theta), tuple(s0))) == 1


@pytest.mark.parametrize("algorithm", ["vanilla", "openloop"])
def test_smooth_step_ascends_from_the_checks_rollout(monkeypatch, algorithm):
    # with noise off, the step takes the min-rho check's run of theta from
    # s0: four iterations roll out the first theta and the four made
    from stlctrl import trainer
    sc = load_scenario(resolve_scenario("dubins_k10"))
    assert sc.train_cfg.noise is None
    cfg = dataclasses.replace(sc.train_cfg, max_iters=4)
    rng = random.Random(1)
    rolled, orig_rollout = [], trainer.rollout

    def spy_rollout(plant, policy, s0, K, **kw):
        rolled.append((tuple(policy.theta), tuple(s0)))
        return orig_rollout(plant, policy, s0, K, **kw)

    monkeypatch.setattr(trainer, "rollout", spy_rollout)
    if algorithm == "vanilla":
        _, log, info = train_vanilla(sc.plant, sc.build_policy(rng),
                                     sc.formula, sc.init_set, cfg, rng)
    else:
        zeros = [[0.0] * sc.plant.action_dim] * horizon(sc.formula)
        _, log, info = train_openloop(sc.plant, zeros, sc.formula,
                                      sc.init_set.samples[0], cfg, rng)
    assert len(log.records) == 4 and info["dnf"]
    assert len(rolled) == len(set(rolled)) == 5


def test_dropout_reuses_the_incumbent_rollout(monkeypatch):
    # the first N1 pass starts at theta1 = theta2 = theta from s0, whose
    # plain rollout the min-rho check has just made; it is not made again
    from stlctrl import trainer
    sc = load_scenario(resolve_scenario("dubins_k100"))
    rng = random.Random(1)
    pol = sc.build_policy(rng)
    cfg = dataclasses.replace(sc.train_cfg, max_iters=5)
    assert sc.waypoints is not None
    rolled = []
    orig_rollout = trainer.rollout
    orig_iteration = trainer._dropout_iteration

    def spy_rollout(plant, policy, s0, K, **kw):
        rolled.append((tuple(policy.theta), tuple(s0)))
        return orig_rollout(plant, policy, s0, K, **kw)

    def spy_iteration(*args):
        rolled.clear()
        out = orig_iteration(*args)
        theta, s0, runs = args[7:10]
        K = horizon(sc.formula)
        assert runs[s0][1].states == orig_rollout(
            sc.plant, pol.with_theta(theta), s0, K).states
        assert (tuple(theta), tuple(s0)) not in rolled
        return out

    monkeypatch.setattr(trainer, "rollout", spy_rollout)
    monkeypatch.setattr(trainer, "_dropout_iteration", spy_iteration)
    _, log, _ = train_dropout(sc.plant, pol, sc.formula, sc.init_set,
                              sc.waypoints, cfg, rng)
    assert len(log.records) == 5


def test_dropout_first_pass_backtracks_the_incumbent_signals(monkeypatch):
    # the first N1 pass takes the critical predicate of theta's rollout
    # from the signals the min-rho check evaluated on it, once per iteration
    from stlctrl import stl, trainer
    sc = load_scenario(resolve_scenario("dubins_k100"))
    rng = random.Random(1)
    pol = sc.build_policy(rng)
    cfg = dataclasses.replace(sc.train_cfg, max_iters=5)
    kept = []

    def spy(f, tr, k=0, sig=None):
        if sig is not None:
            assert sig == stl.signals(f, tr, k)
            kept.append(tr.states)
        return stl.critical(f, tr, k, sig)

    monkeypatch.setattr(trainer, "critical", spy)
    _, log, _ = train_dropout(sc.plant, pol, sc.formula, sc.init_set,
                              sc.waypoints, cfg, rng)
    assert len(kept) == len(log.records) == 5


def _iteration(sc, pol, theta, s0, reuse, N1):
    # one iteration with or without theta's run from s0 to reuse
    from stlctrl import trainer
    K = horizon(sc.formula)
    cfg = dataclasses.replace(sc.train_cfg, N1=N1)
    run = trainer._exact_rho(sc.plant, pol, theta, s0, K, sc.formula)
    runs = {s0: run if reuse else (run[0], None, None)}
    adams = [AdamState(len(theta), alpha=cfg.alpha) for _ in range(3)]
    *out, kept = trainer._dropout_iteration(
        sc.plant, pol, sc.formula, sc.waypoints, cfg, random.Random(5),
        adams, theta, s0, runs)
    # the committed run, compared by its states, or None if theta was kept
    run = None if kept is runs else kept[s0]
    return (*out, run and (run[0], run[1] and run[1].states, run[2]))


def test_dropout_iteration_same_with_or_without_the_reused_rollout():
    sc = load_scenario(resolve_scenario("dubins_k100"))
    pol = sc.build_policy(random.Random(1))
    s0 = sc.init_set.samples[0]
    assert (_iteration(sc, pol, list(pol.theta), s0, True, 3)
            == _iteration(sc, pol, list(pol.theta), s0, False, 3))


def test_dropout_incumbent_that_diverged_is_not_rolled_out_again(
        monkeypatch):
    # theta's run is (-inf, None, None): the first pass marks the
    # candidate dead without a rollout; it stays theta and takes no
    # further pass, and its commit test reads -inf without a rollout
    from stlctrl import trainer
    sc = load_scenario(resolve_scenario("scalar_power"))
    sc.waypoints = None
    pol = Policy([2, 1], theta=[0.0, 0.0, -100.0])
    calls = []
    orig = trainer.rollout
    monkeypatch.setattr(trainer, "rollout",
                        lambda *a, **kw: calls.append(1) or orig(*a, **kw))
    out = _iteration(sc, pol, list(pol.theta), (80.0,), True, 2)
    assert out == ([0.0, 0.0, -100.0], "critical", 1.0, 1,
                   (-math.inf, None, None))
    assert len(calls) == 1  # rho_j only


def test_dropout_rolls_out_no_diverged_candidate_again(monkeypatch):
    # dropout rollouts are deterministic, so a candidate whose pass
    # rollout diverged takes no further pass and its commit test reads
    # -inf: within an iteration its theta is not rolled out again, and an
    # iteration counts at most three diverged candidates (critical,
    # waypoint, smooth)
    from stlctrl import trainer
    from stlctrl.plants import DivergedRollout
    sc = load_scenario(resolve_scenario("quad12"))
    rng = random.Random(sc.seed)
    pol = sc.build_policy(rng)
    cfg = dataclasses.replace(sc.train_cfg, max_iters=3)
    orig_rollout, orig_exact = trainer.rollout, trainer._exact_rho
    orig_iteration = trainer._dropout_iteration
    failed, again, passes_failed, in_commit = set(), [], [], [False]

    def spy_rollout(plant, policy, s0, K, **kw):
        key = (tuple(policy.theta), tuple(s0))
        if key in failed:
            again.append(key)
        try:
            return orig_rollout(plant, policy, s0, K, **kw)
        except DivergedRollout:
            failed.add(key)
            if not in_commit[0]:
                passes_failed.append(key)
            raise

    def spy_exact(*args):
        in_commit[0] = True  # the commit test, or the check's
        try:
            return orig_exact(*args)
        finally:
            in_commit[0] = False

    def spy_iteration(*args):
        failed.clear()
        return orig_iteration(*args)

    monkeypatch.setattr(trainer, "rollout", spy_rollout)
    monkeypatch.setattr(trainer, "_exact_rho", spy_exact)
    monkeypatch.setattr(trainer, "_dropout_iteration", spy_iteration)
    _, log, info = train_dropout(sc.plant, pol, sc.formula, sc.init_set,
                                 sc.waypoints, cfg, rng)
    assert again == []
    assert info["iters"] == 3
    assert 0 < len(passes_failed) == info["diverged"] <= 3 * info["iters"]


def test_dropout_counts_diverged_candidates():
    # the first N1 pass diverges, so each iteration counts one diverged
    # candidate, which takes no further pass; the count reaches info, and
    # the log rows stay those of an iteration that commits the unchanged
    # theta
    sc = load_scenario(resolve_scenario("scalar_power"))
    pol = Policy([2, 1], theta=[0.0, 0.0, -100.0])
    cfg = dataclasses.replace(sc.train_cfg, N1=3, max_iters=2)
    _, log, info = train_dropout(sc.plant, pol, sc.formula,
                                 _point_set((80.0,)), None, cfg,
                                 random.Random(0))
    assert info["diverged"] == 2
    assert info["retries"] == 0
    assert [(r.rho, r.branch, r.lr) for r in log.records] == \
        [(-math.inf, "critical", 1.0)] * 2


def test_dropout_counts_a_diverged_smooth_pass(monkeypatch):
    # a smooth pass that diverges ends the N2 loop and is counted once
    from stlctrl import trainer
    from stlctrl.plants import DivergedRollout

    def diverge(*args):
        raise DivergedRollout(1, math.inf)

    sc = load_scenario(resolve_scenario("dubins_k100"))
    rng = random.Random(1)
    pol = sc.build_policy(rng)
    cfg = dataclasses.replace(sc.train_cfg, max_iters=5)
    monkeypatch.setattr(trainer, "grad_smooth", diverge)
    _, _, info = train_dropout(sc.plant, pol, sc.formula, sc.init_set,
                               sc.waypoints, cfg, rng)
    assert info["diverged"] == info["branch_counts"]["smooth"] >= 1


def _train_unsolvable(algorithm, cfg):
    # x0 = 0 at time 0 caps rho at 0, and zero actions reach it exactly;
    # a strict predicate is violated there, so no trainer may stop
    plant = builtin("integrator2d")
    f = parse("G[0,3](x0 > 0)")
    rng = random.Random(0)
    if algorithm == "openloop":
        return train_openloop(plant, [[0.0, 0.0]] * 3, f, (0.0, 0.0), cfg,
                              rng)
    pol = init([3, 4, 2], scheme="zero")
    if algorithm == "dropout":
        return train_dropout(plant, pol, f, _point_set((0.0, 0.0)), None, cfg,
                             rng)
    return train_vanilla(plant, pol, f, _point_set((0.0, 0.0)), cfg, rng)


@pytest.mark.parametrize("algorithm", ["dropout", "vanilla", "openloop"])
def test_rho_equal_to_rho_bar_is_not_solved(algorithm):
    cfg = TrainConfig(max_iters=2, N1=2, N2=1, rho_bar=0.0)
    _, log, info = _train_unsolvable(algorithm, cfg)
    assert info["dnf"]
    assert info["final_rho"] == 0.0
    assert info["iters"] == 2
    # one loop reports for every trainer
    assert set(info) == {"dnf", "iters", "branch_counts", "final_rho",
                         "retries", "diverged", "seconds"}


@pytest.mark.parametrize("algorithm", ["dropout", "vanilla", "openloop"])
def test_a_solved_runs_last_row_logs_its_final_rho(algorithm):
    # every row logs the exact rho of the theta its step committed, so the
    # row of the step that solved the task holds the rho that solved it
    plant = builtin("integrator2d")
    f = parse("F[2,3](x0 > 0.1) && G[0,3](x1 > -1)")
    s0, rng = (0.0, 0.0), random.Random(0)
    cfg = TrainConfig(max_iters=200, N1=2, N2=1, alpha=0.05)
    pol = init([3, 4, 2], rng=random.Random(3))
    if algorithm == "openloop":
        _, log, info = train_openloop(plant, [[0.0, 0.0]] * 3, f, s0, cfg,
                                      rng)
    elif algorithm == "dropout":
        _, log, info = train_dropout(plant, pol, f, _point_set(s0), None, cfg,
                                     rng)
    else:
        _, log, info = train_vanilla(plant, pol, f, _point_set(s0), cfg, rng)
    assert not info["dnf"] and info["iters"] >= 2
    assert log.records[-1].rho == info["final_rho"] > 0.0


@pytest.mark.parametrize("algorithm,inner", [
    ("dropout", "_dropout_iteration"),
    ("vanilla", "grad_smooth"),
    ("openloop", "grad_smooth"),
])
def test_a_diverged_step_is_retried(monkeypatch, algorithm, inner):
    # a step that raises DivergedRollout is taken again without a log row,
    # at most max_retries times per run
    from stlctrl import trainer
    from stlctrl.plants import DivergedRollout
    orig = getattr(trainer, inner)
    calls = []

    def flaky(*args, **kw):
        calls.append(1)
        if len(calls) in (2, 3):
            raise DivergedRollout(1, math.inf)
        return orig(*args, **kw)

    monkeypatch.setattr(trainer, inner, flaky)
    cfg = TrainConfig(max_iters=2, N1=2, N2=1, max_retries=2)
    _, log, info = _train_unsolvable(algorithm, cfg)
    assert info["retries"] == 2
    assert info["iters"] == 2
    assert [r.iter for r in log.records] == [0, 1]
    calls.clear()
    with pytest.raises(DivergedRollout):
        _train_unsolvable(algorithm, dataclasses.replace(cfg, max_retries=1))


def test_openloop_rollout_past_its_actions_is_an_error():
    from stlctrl.trainer import _OpenLoop
    plant = builtin("integrator2d")
    ol = _OpenLoop([[0.5, 0.0]] * 3)
    assert len(rollout(plant, ol, (0.0, 0.0), 3).states) == 4
    with pytest.raises(ValueError):
        rollout(plant, ol, (0.0, 0.0), 4)
