import copy
import dataclasses
import math
import random

import pytest

from stlctrl.autodiff import Tape, Var, value_of
from stlctrl.cli import bundled_names, load_scenario, resolve_scenario
from stlctrl.plants import InitialSet, Plant, Rollout, builtin, rollout
from stlctrl.policy import AdamState, Policy, init
from stlctrl.sampler import build_sampled, state_adjoints
from stlctrl.stl import (
    Always, Named, Pred, Trace, horizon, parse, robustness,
)
from stlctrl.trainer import (
    TrainConfig, TrainLog, WaypointPath, _OpenLoop, train_dropout,
    train_openloop, train_vanilla, waypoint_objective,
)
from tests.test_plants import oracle_sampled
from tests.test_stl import forbid_traces, nan_as_one


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
    states = [ref.states[t] for t in (0, 2, 4)]
    # the 3 states sit at (2,0); one knot, target 5 in dim 0 only
    wp = WaypointPath([(2, (5.0, 99.0), (1, 0))])
    assert waypoint_objective([0, 2, 4], states, wp) == (
        pytest.approx(-27.0), [[6.0, 0.0]] * 3)
    on_target = WaypointPath([(2, (2.0, 0.0), (1, 1))])
    J0, adjs = waypoint_objective([0, 2, 4], states, on_target)
    assert J0 == 0.0 and _bits(sum(adjs, [])) == _bits([0.0] * 6)


def test_waypoint_objective_gradient_fd():
    plant = builtin("dubins")
    pol = init([3, 4, 2], rng=random.Random(5))
    ref = rollout(plant, pol, (0.0, 0.0), 6)
    wp = WaypointPath([(0, (0.0, 0.0), (1, 1)), (6, (1.0, 1.0), (1, 1))])
    times = list(range(7))  # full sampling: sampled gradient is exact
    smpl = build_sampled(ref, times, pol, plant)
    g = smpl.grad(waypoint_objective(times, ref.states, wp)[1][1:])
    h = 1e-6
    for idx in [0, 7, len(pol.theta) - 1]:
        vals = []
        for delta in (h, -h):
            th = list(pol.theta)
            th[idx] += delta
            r2 = rollout(plant, pol.with_theta(th), (0.0, 0.0), 6)
            vals.append(waypoint_objective(times, r2.states, wp)[0])
        fd = (vals[0] - vals[1]) / (2 * h)
        assert g[idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def oracle_waypoint_objective(times, anchors, wp):
    """waypoint_objective by the Var operators, node by node: the oracle of
    its value and its state adjoints."""
    J = 0.0
    for t, anchor in zip(times, anchors):
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


def _objective_bits(objective, states, wp, smpl):
    """J, its adjoint at each entry of states, and the gradient over theta
    of smpl, a sampled trajectory whose anchors hold states, as bytes: by
    waypoint_objective and smpl.grad, or by the Var operators over Vars of
    states, with one backward, and over Vars of the anchors after the
    start, with one backward to them and then smpl's adjoint."""
    if objective is waypoint_objective:
        J, adjs = objective(smpl.times, states, wp)
        return _bits([J, *sum(adjs, []), *smpl.grad(adjs[1:])])
    tape = Tape()
    vs = [tuple(map(tape.const, s)) for s in states]
    J = objective(smpl.times, vs, wp)
    seeds = [x for s in vs for x in s]
    out = (J.tape.backward(J, seeds) if isinstance(J, Var)
           else [0.0] * len(seeds))
    adjs = state_adjoints(
        lambda *xs: objective(smpl.times, [states[0], *xs], wp), states[1:])
    return _bits([value_of(J), *out, *smpl.grad(adjs)])


def _passed_through(states):
    """A trajectory live at every step whose anchors are states: each is
    the raw action of an action table, which the plant passes through."""
    n, acts = len(states[0]), [list(s) for s in states[1:]]
    plant = Plant("through", n, n, 1.0, lambda s, u, dt: tuple(u),
                  lambda a: a)
    ref = Rollout(states, [tuple(a) for a in acts])
    return build_sampled(ref, range(len(states)), _OpenLoop(acts), plant)


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
            smpl = build_sampled(ref, times, pol, plant)
            states = [ref.states[t] for t in times]
            runs = [_objective_bits(objective, states, wp, smpl) for objective
                    in (waypoint_objective, oracle_waypoint_objective)]
            assert runs[0] == runs[1], (wp.knots[0][0], times)


@pytest.mark.parametrize("scale", [1.0, -2.5, 0.0, -0.0, math.inf, math.nan])
def test_waypoint_block_special_values_match_the_var_operators(scale):
    # targets hit exactly (diff +-0.0: the adjoint is 0.0, not -0.0),
    # infinite and nan entries, scaled states and a blended target
    wp = WaypointPath([(1, (0.5, 0.0, 2.0), (1, 1, 0)),
                       (3, (3.0, -0.0, 1.0), (1, 1, 1))])
    states = [tuple(scale * x for x in s) for s in (
        (0.25, 7.0, 1.0), (0.5, math.nan, -0.0), (1.5, 1e200, math.inf),
        (0.5, 0.0, 3.0), (3.0, -0.0, 0.5))]
    smpl = _passed_through(states)
    assert (_objective_bits(waypoint_objective, states, wp, smpl)
            == _objective_bits(oracle_waypoint_objective, states, wp, smpl))
    floats = [(0.25, 7.0, 1.0), (0.5, 0.0, 0.0)]  # no masked entry
    for objective in (waypoint_objective, oracle_waypoint_objective):
        assert _objective_bits(objective, floats, WaypointPath(
            [(0, (1.0,) * 3, (0, 0, 0))]), _passed_through(floats)) == _bits(
                [0.0] * 10)


def test_waypoint_block_sums_an_entry_newest_term_first():
    # one action reaches three states: their terms 1.0, 1e16 and -1e16
    # sum to 1.0 newest first, as the interpreter sweeps, and to 0.0
    # oldest first
    wp = WaypointPath([(1, (0.5,), (1,)), (2, (5e15,), (1,)),
                       (3, (-5e15,), (1,))])
    plant = Plant("sum", 1, 1, 1.0, lambda s, u, dt: (s[0] + u[0],),
                  lambda a: a)
    ref = Rollout([(0.0,)] * 4, [(0.0,)] * 3)
    ol = _OpenLoop([[0.0]] * 3)
    smpl = build_sampled(ref, [0, 1, 2, 3], ol, plant)
    tape, theta, anchors = oracle_sampled(ref, smpl.times, ol, plant)
    assert smpl.grad(waypoint_objective(smpl.times, ref.states, wp)[1][1:]) \
        == tape.backward(oracle_waypoint_objective(smpl.times, anchors, wp),
                         theta) == [1.0, 0.0, -1e16]


def test_sampled_grad_rejects_adjoints_of_other_anchors():
    # adjoints for another trajectory's anchors are rejected, and a
    # gradient changes nothing of the trajectory
    plant = builtin("dubins")
    pol = init([3, 4, 2], rng=random.Random(1))
    ref = rollout(plant, pol, (0.0, 0.0), 6)
    wp = WaypointPath([(0, (1.0, 0.0), (1, 1))])
    st = build_sampled(ref, [0, 2, 6], pol, plant)
    args = copy.deepcopy(st.args)
    for times in ([0, 3], [0, 2, 4, 6]):
        adjs = waypoint_objective(times, [ref.states[t] for t in times], wp)[1]
        with pytest.raises(ValueError, match="one adjoint per entry"):
            st.grad(adjs[1:])
    assert any(st.grad(waypoint_objective(
        st.times, [ref.states[t] for t in st.times], wp)[1][1:]))
    assert st.args == args


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


def test_seconds_stay_nonnegative_when_the_wall_clock_steps_back(
        monkeypatch):
    # the wall clock can be set back while a run trains: iterations and the
    # run are timed on a monotonic clock, so no seconds are negative
    import time
    clock = iter(range(10 ** 6, 0, -1))
    monkeypatch.setattr(time, "time", lambda: float(next(clock)))
    plant = builtin("dubins")
    pol = init([3, 4, 2], rng=random.Random(3))
    cfg = TrainConfig(max_iters=3, N1=2, N2=1, M=2, N=2)
    _, log, info = train_dropout(plant, pol, parse("F[4,5](x0 > 1e6)"),
                                 _point_set((0.0, 0.0)), None, cfg,
                                 random.Random(0))
    assert len(log.records) == 3
    assert all(r.seconds >= 0.0 for r in log.records)
    assert info["seconds"] >= 0.0


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
                (run[0], run[1].states) == (fresh[0], fresh[1].states))
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
    # the first N1 pass takes the critical predicate of the rollout of
    # theta that the min-rho check made, critical evaluating its signals;
    # the checks and commit tests read robustness, which on dubins_k100's
    # formula is the root kernel's, and evaluate none
    from stlctrl import stl, trainer
    sc = load_scenario(resolve_scenario("dubins_k100"))
    rng = random.Random(1)
    pol = sc.build_policy(rng)
    cfg = dataclasses.replace(sc.train_cfg, max_iters=5)
    backtracked, incumbents, evaluated = [], [], []
    orig_signals, orig_iteration = stl.signals, trainer._dropout_iteration

    def spy(f, tr, k=0):
        backtracked.append(tr.states)
        return stl.critical(f, tr, k)

    def spy_iteration(*args):
        theta, s0, runs = args[7:10]
        incumbents.append((len(backtracked), runs[s0][1].states))
        return orig_iteration(*args)

    monkeypatch.setattr(trainer, "critical", spy)
    monkeypatch.setattr(trainer, "_dropout_iteration", spy_iteration)
    monkeypatch.setattr(stl, "signals", lambda *a: evaluated.append(1)
                        or orig_signals(*a))
    _, log, _ = train_dropout(sc.plant, pol, sc.formula, sc.init_set,
                              sc.waypoints, cfg, rng)
    assert len(incumbents) == len(log.records) == 5
    for first, states in incumbents:
        assert backtracked[first] == Trace(states).states
    assert len(evaluated) == len(backtracked)


def _iteration(sc, pol, theta, s0, reuse, N1):
    # one iteration with or without theta's run from s0 to reuse
    from stlctrl import trainer
    K = horizon(sc.formula)
    cfg = dataclasses.replace(sc.train_cfg, N1=N1)
    run = trainer._exact_rho(sc.plant, pol, theta, s0, K, sc.formula)
    runs = {s0: run if reuse else (run[0], None)}
    adams = [AdamState(len(theta), alpha=cfg.alpha) for _ in range(3)]
    *out, kept = trainer._dropout_iteration(
        sc.plant, pol, sc.formula, sc.waypoints, cfg, random.Random(5),
        adams, theta, s0, runs)
    # the committed run, compared by its states, or None if theta was kept
    run = None if kept is runs else kept[s0]
    return (*out, run and (run[0], run[1] and run[1].states))


def test_dropout_iteration_same_with_or_without_the_reused_rollout():
    sc = load_scenario(resolve_scenario("dubins_k100"))
    pol = sc.build_policy(random.Random(1))
    s0 = sc.init_set.samples[0]
    assert (_iteration(sc, pol, list(pol.theta), s0, True, 3)
            == _iteration(sc, pol, list(pol.theta), s0, False, 3))


def _watched_calls(monkeypatch):
    """Spy on the trainer's rollouts: (watch, stopped) per call, and
    ("iteration", rho_j) as each dropout iteration starts."""
    from stlctrl import trainer
    calls, orig_rollout = [], trainer.rollout
    orig_iteration = trainer._dropout_iteration

    def spy_rollout(*args, **kw):
        run = orig_rollout(*args, **kw)
        calls.append((kw.get("watch"), run is None))
        return run

    def spy_iteration(*args):
        theta, s0, runs = args[7:10]
        calls.append(("iteration", runs[s0][0]))
        return orig_iteration(*args)

    monkeypatch.setattr(trainer, "rollout", spy_rollout)
    monkeypatch.setattr(trainer, "_dropout_iteration", spy_iteration)
    return calls


def _iterations(calls):
    """calls split at the iteration marks: (rho_j, [(watch, stopped)])."""
    out = [(None, [])]
    for watch, x in calls:
        if watch == "iteration":
            out.append((x, []))
        else:
            out[-1][1].append((watch, x))
    return out


def test_guarded_commit_tests_stop_at_the_first_losing_state(monkeypatch):
    # the seeded dubins_k100 run: every watched rollout is a commit test
    # at the incumbent's rho_j, some stop early (39 of 51 when this was
    # written), and the first min-rho check watches nothing
    sc = load_scenario(resolve_scenario("dubins_k100"))
    rng = random.Random(sc.seed)
    calls = _watched_calls(monkeypatch)
    _, log, info = train_dropout(sc.plant, sc.build_policy(rng), sc.formula,
                                 sc.init_set, sc.waypoints, sc.train_cfg, rng)
    assert not info["dnf"]
    (_, check), *iterations = _iterations(calls)
    assert check == [(None, False)] and len(iterations) == len(log.records)
    tests = [stopped for rho_j, runs in iterations for watch, stopped in runs
             if watch is not None and watch[0] is sc.formula
             and watch[1] == rho_j]
    assert len(tests) == sum(w is not None for _, runs in iterations
                             for w, _ in runs)
    assert 0 < sum(tests) < len(tests)


@pytest.mark.parametrize("guard_smooth", [True, False])
def test_an_unguarded_smooth_commit_rolls_out_in_full(monkeypatch,
                                                      guard_smooth):
    # the smooth step's commit test is the last rollout of its iteration:
    # guarded it passes rho_j and may stop, unguarded it passes no floor,
    # its run being committed
    sc = load_scenario(resolve_scenario("dubins_k100"))
    rng = random.Random(1)
    cfg = dataclasses.replace(sc.train_cfg, max_iters=5,
                              guard_smooth=guard_smooth)
    calls = _watched_calls(monkeypatch)
    _, log, _ = train_dropout(sc.plant, sc.build_policy(rng), sc.formula,
                              sc.init_set, sc.waypoints, cfg, rng)
    smooth = [runs[-1] for (rho_j, runs), r in zip(_iterations(calls)[1:],
                                                   log.records)
              if r.branch == "smooth"]
    assert smooth
    for watch, stopped in smooth:
        assert (watch is None) == (not guard_smooth)
        assert guard_smooth or not stopped


def test_vanilla_steps_and_min_rho_checks_watch_nothing(monkeypatch):
    from stlctrl import trainer
    sc = load_scenario(resolve_scenario("dubins_k10"))
    rng = random.Random(1)
    pol = sc.build_policy(rng)
    calls = _watched_calls(monkeypatch)
    cfg = dataclasses.replace(sc.train_cfg, max_iters=3)
    train_vanilla(sc.plant, pol, sc.formula, sc.init_set, cfg, rng)
    init_set = InitialSet((0.0, 0.0), (0.1, 0.0),
                          [(0.0, 0.0), (0.1, 0.0)])
    trainer._min_rho(sc.plant, pol, pol.theta, init_set, 10, sc.formula, {})
    assert len(calls) == 6 and all(w is None for w, _ in calls)


def test_min_rho_rolls_a_repeated_sample_out_once(monkeypatch):
    # a repeated sample, as a "corners_center" point box once gave, is
    # rolled out once; the first sample with the minimum is the worst
    from stlctrl import trainer
    sc = load_scenario(resolve_scenario("dubins_k10"))
    pol = sc.build_policy(random.Random(1))
    a, b = (0.0, 0.0), (0.0, 0.1)
    K, f = horizon(sc.formula), sc.formula
    rho = {s: trainer._exact_rho(sc.plant, pol, pol.theta, s, K, f)[0]
           for s in (a, b)}
    calls = _watched_calls(monkeypatch)
    for samples in ([a, b, a, b], [b, a, b, b, a], [a, a, a]):
        calls.clear()
        best, worst, runs = trainer._min_rho(
            sc.plant, pol, pol.theta, InitialSet(a, b, samples), K, f, {})
        first = min(dict.fromkeys(samples), key=rho.get)
        assert (best, worst) == (rho[first], first)
        assert len(calls) == len(runs) == len(set(samples))


@pytest.mark.parametrize("nan_first", [False, True])
def test_a_nan_rho_fails_the_check_in_either_order(nan_first):
    # a Named predicate that is NaN from one of two samples: the other
    # sample's rho, 0.5, would pass as solved if the NaN came second, and
    # the NaN would be the min only if it came first
    plant = Plant("inert", 1, 2, 1.0, lambda s, u, dt: (s[0],), lambda a: a)
    f = Always(0, 3, Pred(Named("h", lambda s: math.nan if s[0] > 0.0
                                else 0.5)))
    a, b = (-1.0,), (1.0,)
    iset = InitialSet(a, b, [b, a] if nan_first else [a, b])
    pol = init([2, 3, 2], rng=random.Random(1))
    with pytest.raises(FloatingPointError,
                       match=r"training sample \(1\.0,\) is nan"):
        train_dropout(plant, pol, f, iset, None, TrainConfig(max_iters=5),
                      random.Random(0))


def test_a_solved_check_is_not_rolled_out_again(monkeypatch):
    # a two-sample dropout solve: the final check takes the solving
    # check's runs, so nothing is rolled out after the solving check
    from stlctrl import trainer
    sc = load_scenario(resolve_scenario("dubins_k10"))
    rng = random.Random(sc.seed)
    pol = sc.build_policy(rng)
    a, b = (0.0, 0.0), (0.01, 0.01)
    calls, marks = [], []
    orig_rollout, orig_min_rho = trainer.rollout, trainer._min_rho
    monkeypatch.setattr(trainer, "rollout", lambda *a, **kw: calls.append(
        1) or orig_rollout(*a, **kw))
    monkeypatch.setattr(trainer, "_min_rho", lambda *a: (
        orig_min_rho(*a), marks.append(len(calls)))[0])
    _, _, info = train_dropout(sc.plant, pol, sc.formula,
                               InitialSet(a, b, [a, b]), None,
                               dataclasses.replace(sc.train_cfg, max_iters=50),
                               rng)
    assert not info["dnf"] and info["iters"] >= 2
    assert len(marks) == info["iters"] + 2
    assert marks[-2] == marks[-1] == len(calls)


def test_training_builds_no_trace(monkeypatch):
    # the trainer hands its rollouts to the STL semantics as they are: a
    # seeded dubins_k10 vanilla run and three dropout iterations of
    # dubins_k100, which take critical passes, build no Trace
    forbid_traces(monkeypatch)
    with pytest.raises(AssertionError, match="a Trace was built"):
        Trace([(0.0,)])
    sc = load_scenario(resolve_scenario("dubins_k10"))
    rng = random.Random(sc.seed)
    _, log, info = train_vanilla(sc.plant, sc.build_policy(rng), sc.formula,
                                 sc.init_set, sc.train_cfg, rng)
    assert not info["dnf"] and log.records
    sc = load_scenario(resolve_scenario("dubins_k100"))
    rng = random.Random(sc.seed)
    _, log, info = train_dropout(
        sc.plant, sc.build_policy(rng), sc.formula, sc.init_set,
        sc.waypoints, dataclasses.replace(sc.train_cfg, max_iters=3), rng)
    assert info["iters"] == 3


def test_dropout_incumbent_that_diverged_is_not_rolled_out_again(
        monkeypatch):
    # theta's run is (-inf, None): any candidate would commit at
    # -inf >= -inf, so the iteration fails, naming the sample, before it
    # rolls anything out
    from stlctrl import trainer
    sc = load_scenario(resolve_scenario("scalar_power"))
    sc.waypoints = None
    pol = Policy([2, 1], theta=[0.0, 0.0, -100.0])
    calls = []
    orig = trainer.rollout
    monkeypatch.setattr(trainer, "rollout",
                        lambda *a, **kw: calls.append(1) or orig(*a, **kw))
    with pytest.raises(RuntimeError, match=r"sample \(80\.0,\) diverged"):
        _iteration(sc, pol, list(pol.theta), (80.0,), True, 2)
    assert len(calls) == 1  # rho_j only


def test_dropout_fails_on_an_incumbent_that_diverged(monkeypatch):
    # scalar_power from 80.0 under this theta diverges: the run fails at
    # its first iteration, naming the sample; it is not retried, and it
    # draws nothing
    from stlctrl import trainer
    sc = load_scenario(resolve_scenario("scalar_power"))
    pol = Policy([2, 1], theta=[0.0, 0.0, -100.0])
    cfg = dataclasses.replace(sc.train_cfg, max_iters=50)
    calls, orig = [], trainer._dropout_iteration
    monkeypatch.setattr(trainer, "_dropout_iteration",
                        lambda *a: calls.append(1) or orig(*a))
    rng = random.Random(0)
    with pytest.raises(RuntimeError, match=r"training sample \(80\.0,\) "
                                           "diverged"):
        train_dropout(sc.plant, pol, sc.formula, _point_set((80.0,)), None,
                      cfg, rng)
    assert len(calls) == 1
    assert rng.getstate() == random.Random(0).getstate()


@pytest.mark.parametrize("trainer_name", ["vanilla", "openloop"])
def test_vanilla_fails_on_an_incumbent_that_diverged(monkeypatch,
                                                     trainer_name):
    # without noise a vanilla step differentiates the check's run of
    # theta: from 80.0 it diverged, so the run fails at once, naming the
    # sample, after that one rollout; it is not retried
    from stlctrl import trainer
    sc = load_scenario(resolve_scenario("scalar_power"))
    cfg = TrainConfig(max_iters=20)
    calls, orig = [], trainer.rollout
    monkeypatch.setattr(trainer, "rollout",
                        lambda *a, **kw: calls.append(1) or orig(*a, **kw))
    with pytest.raises(RuntimeError, match=r"training sample \(80\.0,\) "
                                           "diverged"):
        if trainer_name == "vanilla":
            train_vanilla(sc.plant, Policy([2, 1], [0.0, 0.0, -100.0]),
                          sc.formula, _point_set((80.0,)), cfg,
                          random.Random(0))
        else:
            train_openloop(sc.plant, [[0.0]] * horizon(sc.formula),
                           sc.formula, (80.0,), cfg, random.Random(0))
    assert len(calls) == 1


def test_sampled_gradients_make_no_tape(monkeypatch):
    # a sampled trajectory is its adjoint: build_sampled and grad on a
    # dubins_k100 reference, and a dropout iteration that takes the
    # waypoint and critical branches with a float objective, make no Tape
    from stlctrl import autodiff, trainer
    sc = load_scenario(resolve_scenario("dubins_k100"))
    pol = sc.build_policy(random.Random(sc.seed))
    s0, K = sc.init_set.samples[0], horizon(sc.formula)
    ref = rollout(sc.plant, pol, s0, K)
    times = [0, 3, 40, 41, K]
    build_sampled(ref, times, pol, sc.plant)  # generates the kernels

    def no_tape(self):
        raise AssertionError("a Tape was made")

    monkeypatch.setattr(autodiff.Tape, "__init__", no_tape)
    with pytest.raises(AssertionError, match="a Tape was made"):
        Tape()
    adjs = waypoint_objective(times, [ref.states[t] for t in times],
                              sc.waypoints)[1]
    assert any(build_sampled(ref, times, pol, sc.plant).grad(adjs[1:]))
    monkeypatch.setattr(trainer, "grad_critical",
                        lambda ref, *a: [0.0] * len(pol.theta))
    theta, branch, *_ = _iteration(sc, pol, list(pol.theta), s0, True, 3)
    assert branch in ("waypoint", "critical")


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


def test_dropout_counts_diverged_candidates(monkeypatch):
    # the first N1 pass diverges, so each iteration counts one diverged
    # candidate, which takes no further pass; the count reaches info, and
    # the line search commits theta itself at ell = 0.5
    from stlctrl import trainer
    from stlctrl.plants import DivergedRollout
    calls = []

    def diverge(*args):
        calls.append(1)
        raise DivergedRollout(1, math.inf)

    monkeypatch.setattr(trainer, "grad_critical", diverge)
    sc = load_scenario(resolve_scenario("scalar_power"))
    pol = sc.build_policy(random.Random(0))
    cfg = dataclasses.replace(sc.train_cfg, N1=3, max_iters=2)
    _, log, info = train_dropout(sc.plant, pol, sc.formula, sc.init_set,
                                 None, cfg, random.Random(0))
    assert info["diverged"] == len(calls) == 2
    assert info["retries"] == 0
    rho = robustness(sc.formula, Trace(rollout(
        sc.plant, pol, sc.init_set.samples[0], horizon(sc.formula)).states))
    assert [(r.rho, r.branch, r.lr) for r in log.records] == \
        [(rho, "critical", 0.5)] * 2


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
    # at most _MAX_RETRIES times per run
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
    monkeypatch.setattr(trainer, "_MAX_RETRIES", 2)
    cfg = TrainConfig(max_iters=2, N1=2, N2=1)
    _, log, info = _train_unsolvable(algorithm, cfg)
    assert info["retries"] == 2
    assert info["iters"] == 2
    assert [r.iter for r in log.records] == [0, 1]
    calls.clear()
    monkeypatch.setattr(trainer, "_MAX_RETRIES", 1)
    with pytest.raises(DivergedRollout):
        _train_unsolvable(algorithm, cfg)


def test_openloop_rollout_past_its_actions_is_an_error():
    from stlctrl.trainer import _OpenLoop
    plant = builtin("integrator2d")
    ol = _OpenLoop([[0.5, 0.0]] * 3)
    assert len(rollout(plant, ol, (0.0, 0.0), 3).states) == 4
    with pytest.raises(ValueError):
        rollout(plant, ol, (0.0, 0.0), 4)
