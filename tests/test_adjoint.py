"""The sampled trajectory's generated adjoint against the Var operators.

The oracle is tests/test_plants.py's oracle_sampled, Plant.step and the
reference loop of the controller run on Vars, and smooth_robustness,
whose soft min/max record the Var operators: their records, which
Tape.backward interprets node by node, with no generated code.  A
sampled trajectory's adjoint is run on a unit adjoint at each anchor
entry (tests/test_plants.py's adjoint_anchors), and values and gradients
are compared, as IEEE bytes: of sampled trajectories, differentiable
rollouts and the gradients built on them, over theta and the start state.
"""

import math
import random
import struct

import pytest

from stlctrl.autodiff import Var, vmax
from stlctrl.cli import bundled_names, load_scenario, resolve_scenario
from stlctrl.plants import Plant, Rollout, builtin, rollout
from stlctrl.policy import Policy, init
from stlctrl.sampler import (
    build_sampled, grad_critical, grad_smooth, partition_times,
    sample_times_to,
)
from stlctrl.smooth import SmoothConfig, smooth_robustness
from stlctrl.stl import Trace, critical, horizon, parse
from stlctrl.trainer import _OpenLoop
from tests.test_plants import (
    adjoint_anchors, oracle_sampled, rollout_with_offsets, var_anchors,
)
from tests.test_policy import loop_forward

# every builtin plant with its bundled scenario's controller widths
CASES = [
    ("dubins", [3, 20, 2], True, (0.0, 0.0)),
    ("multi_dubins_10", [21, 40, 20], True, tuple(0.1 * i for i in range(20))),
    ("quad6_platform", [8, 20, 20, 10, 4], True,
     (-40.0, 0.0, 0.0, 0.0, 0.0, 0.0, 10.0)),
    ("quad12", [13, 20, 20, 10, 4], True, (0.05,) * 3 + (0.0,) * 9),
    ("integrator2d", [3, 20, 20, 2], True, (-1.0, -1.0)),
    ("scalar_power", [1, 1], False, (1.15,)),
]


def _bits(xs):
    return struct.pack(f"<{len(xs)}d", *xs)


def _anchor_bits(anchors):
    """adjoint_anchors' or var_anchors' list as bytes, entry by entry."""
    return [[_bits([v, *g]) for v, g in a] for a in anchors]


def _seeds(pol, ref):
    """theta's and the start state's node ids on a trajectory's tape."""
    return range(len(pol.theta) + len(ref.states[0]))


def _policy(widths, include_time, seed=9):
    pol = init(widths, rng=random.Random(seed), include_time=include_time)
    return pol.with_theta([0.5 * w for w in pol.theta])


def _reference(name, widths, include_time, s0, noisy, K=14, mode="plain"):
    """(plant, policy, its rollout, the noise offsets that added)."""
    plant, pol = builtin(name), _policy(widths, include_time)
    noise = (0.02, 0.0, random.Random(4)) if noisy else None
    return (plant, pol,
            *rollout_with_offsets(plant, pol, s0, K, noise=noise, mode=mode))


def _assert_sampled_matches_oracle(ref, times, pol, plant, offsets=None):
    st = build_sampled(ref, times, pol, plant)
    want = oracle_sampled(ref, times, pol, plant, offsets)[2]
    assert _anchor_bits(adjoint_anchors(st)) == _anchor_bits(
        var_anchors(want, _seeds(pol, ref)))
    return st


def _open_loop(plant, s0, acts, times, noise=None):
    """The trajectory over the raw actions acts from s0, live at times (an
    action table, theta the actions), checked against the Var operators.
    Without noise its states are Plant.step's on floats, past any limit."""
    ol, states = _OpenLoop([list(a) for a in acts]), [tuple(s0)]
    for a in acts:
        states.append(tuple(plant.step(states[-1], a, 0)))
    ref, offsets = (rollout_with_offsets(plant, ol, s0, len(acts), noise)
                    if noise else (Rollout(states, [tuple(a) for a in acts]),
                                   None))
    return _assert_sampled_matches_oracle(ref, times, ol, plant, offsets)


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("name,widths,include_time,s0", CASES)
def test_sampled_gradients_match_interpreter(name, widths, include_time, s0,
                                             noisy):
    plant, pol, ref, offs = _reference(name, widths, include_time, s0, noisy)
    # runs of frozen steps of length 0, 1, 3 and 6, and none at all
    for times in ([0, 2, 3, 7, 14], list(range(15))):
        _assert_sampled_matches_oracle(ref, times, pol, plant, offs)
    # a differentiable rollout, whose states and raw actions are the
    # step-by-step loop's: its every state, each coordinate's gradient
    diff = _reference(name, widths, include_time, s0, noisy,
                      mode="differentiable")[2]
    assert diff.raw_actions == ref.raw_actions
    anchors = oracle_sampled(ref, range(15), pol, plant, offs)[2]
    assert len(diff.states) == len(anchors) == 15
    assert _bits([x.value for x in diff.states[0]]) == _bits(anchors[0])
    assert _anchor_bits(var_anchors(diff.states, _seeds(pol, ref))) == \
        _anchor_bits(var_anchors(anchors, _seeds(pol, ref)))


@pytest.mark.parametrize("name,widths,include_time,s0", CASES)
def test_forward_adjoints_for_var_and_float_operands(name, widths,
                                                     include_time, s0):
    # Var operands: the controller at live steps 0 and 5 of a trajectory,
    # over theta and the states; floats: Policy.forward
    plant, pol, ref, _ = _reference(name, widths, include_time, s0, False,
                                    K=6)
    _assert_sampled_matches_oracle(ref, [0, 5, 6], pol, plant)
    assert _bits(pol.forward(s0, 5)) == _bits(loop_forward(pol, s0, 5))


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("name,widths,include_time,s0", CASES)
def test_step_adjoints_for_var_and_float_operands(name, widths, include_time,
                                                  s0, noisy):
    # Var actions: a live step of an action table, whose actions are
    # theta's; float actions: the frozen step after it; noisy or not
    plant = builtin(name)
    rng = random.Random(5)
    acts = [tuple(rng.uniform(-2, 2) for _ in range(plant.action_dim))
            for _ in range(2)]
    noise = (0.02, 0.0, random.Random(4)) if noisy else None
    for times in ([0, 1, 2], [0, 2]):
        _open_loop(plant, s0, acts, times, noise)


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("steps", [1, 2, 7])
@pytest.mark.parametrize("name,widths,include_time,s0", CASES)
def test_run_records_and_adjoint_match_steps(name, widths, include_time, s0,
                                             steps, noisy):
    # a run of frozen steps between the live steps 3 and 3 + steps + 1,
    # from a noisy reference's states too
    plant, pol, ref, offs = _reference(name, widths, include_time, s0, noisy)
    _assert_sampled_matches_oracle(ref, [0, 3, 3 + steps + 1], pol, plant,
                                   offs)


def test_run_of_no_steps_returns_its_input():
    # the start alone: no anchor after it, and no anchor adjoint gives a
    # zero gradient
    plant, pol, ref, _ = _reference("dubins", [3, 20, 2], True, (0.1, 0.2),
                                    False, K=3)
    st = build_sampled(ref, [0], pol, plant)
    assert st.times == [0] and adjoint_anchors(st) == []
    assert st.grad([]) == [0.0] * len(pol.theta)
    # consecutive sample times: no frozen step between them
    _assert_sampled_matches_oracle(ref, [0, 1, 2, 3], pol, plant)


@pytest.mark.parametrize("fn,kernels", [
    # states swapped, a state squared
    (lambda s, u, dt: (s[1] * u[0], s[0] - u[0]), 1),
    (lambda s, u, dt: (s[0] + u[0], s[0] * s[0]), 1),
])
def test_runs_of_unusual_steps_match_step_by_step(fn, kernels):
    # one pair of kernels for the action table, whatever the sample times
    from stlctrl.plants import _traced
    plant = Plant("odd", 2, 1, 1.0, fn, lambda a: a)
    acts, s0 = [(0.3,), (-0.2,), (0.7,), (0.1,)], (0.4, -0.6)
    for times in ([0, 4], [0, 1, 4], [0, 1, 2, 3, 4]):
        _open_loop(plant, s0, acts, times)
    assert len(_traced(plant)[1]) == kernels


@pytest.mark.parametrize("fn", [
    lambda s, u, dt: (s[1], 2.0),
    lambda s, u, dt: (s[0] * u[0],) * 2,
    lambda s, u, dt: (s[0] + u[0], 2.0),
    lambda s, u, dt: (s[1], s[0] + u[0]),
], ids=["through_and_constant", "one_node_for_two", "constant", "through"])
def test_recorders_reject_a_step_they_cannot_record(fn):
    # the trajectory's adjoint takes a next state passed through or
    # constant, live or frozen: its anchors have the Var operators' values
    # and gradients (a float's is zero).  It cannot
    # record two next states that are one node, whose adjoints it would
    # sum in another order than the interpreter's one node does:
    # generating the kernel raises, naming the plant
    plant = Plant("odd", 2, 1, 1.0, fn, lambda a: a)
    pol = Policy([3, 1], theta=[0.5, -0.25, 0.1, 0.2])
    ref = rollout(plant, pol, (0.4, -0.6), 4)  # the plain loop steps it
    for times in ([0, 2, 4], [0, 4], list(range(5))):
        if fn((1.0, 2.0), (3.0,), 1.0)[0] == 3.0:  # one node for two
            with pytest.raises(ValueError, match="^plant odd: two next"):
                build_sampled(ref, times, pol, plant)
            continue
        _assert_sampled_matches_oracle(ref, times, pol, plant)


def test_vmax_tie_splits_in_step_and_run():
    # x == 1e-3 ties scalar_power's vmax(x, 1e-3) at every step
    plant = builtin("scalar_power")
    tie = Plant("tie", 1, 1, 1.0,
                lambda s, u, dt: (vmax(s[0], 1e-3) + 0.0 * u[0],),
                lambda a: a)
    for p, acts in ((plant, [(0.4,)] * 4), (tie, [(0.0,)] * 4)):
        for times in ([0, 1], [0, 2], [0, 4], [0, 1, 2, 3, 4]):
            _open_loop(p, (1e-3,), acts, times)
    # gradients over the start state, after theta's four actions
    [[(_, g)]] = adjoint_anchors(_open_loop(tie, (1e-3,), [(0.0,)] * 4,
                                            [0, 4]))
    assert g[4:5] == [0.0625]
    # ties between two states: each gets half
    both = Plant("both", 2, 1, 1.0, lambda s, u, dt: (
        vmax(s[0], s[1]) + 0.0 * u[0], vmax(s[1], s[0]) * u[0]), lambda a: a)
    for steps in (1, 3):
        [anchor] = adjoint_anchors(_open_loop(both, (0.5, 0.5),
                                              [(1.0,)] * steps, [0, steps]))
        assert [g[steps:steps + 2] for _, g in anchor] == [[0.5, 0.5]] * 2
    [[(_, g)]] = adjoint_anchors(_open_loop(plant, (1e-3,), [(0.2,)],
                                            [0, 1]))
    assert g[1] == pytest.approx(0.5 * 0.8 * 1.2 * 1e-3 ** 0.2)


def test_blocks_whose_outputs_have_zero_adjoint_are_skipped():
    # below 1e-3, vmax(x, 1e-3) passes no adjoint back to x, so every step
    # before the last has a zero adjoint, and the adjoint skips it as the
    # interpreter does; an infinite value in such a step would make its
    # terms nan
    plant = builtin("scalar_power")
    inf = Plant("inf", 1, 1, 1.0, lambda s, u, dt: (
        vmax(s[0] * u[0], 1e-3) + 1e308 * u[0] * s[0],), lambda a: a)
    for p, acts in ((plant, [(0.4,)] * 5), (inf, [(-1e-9,), (10.0,), (0.0,)])):
        ol, states = _OpenLoop([list(a) for a in acts]), [(-2.0,)]
        for a in acts:
            states.append(p.step(states[-1], a, 0))
        for times in ([0, len(acts)], list(range(len(acts) + 1))):
            (_, g), = adjoint_anchors(build_sampled(Rollout(states, acts),
                                                    times, ol, p))[-1]
            assert g[len(acts):] == [0.0]  # over the start state
    _open_loop(plant, (-2.0,), [(0.4,)] * 5, [0, 2, 5])


@pytest.mark.parametrize("noisy", [False, True])
def test_sampled_tape_equals_step_by_step_recording(noisy):
    """build_sampled's adjoint gives the anchors and gradients of the Var
    operators step by step, noisy or not."""
    plant, pol, ref, offs = _reference("dubins", [3, 20, 2], True,
                                       (0.0, 0.0), noisy, K=100)
    rng = random.Random(1)
    for _ in range(5):
        times = sample_times_to(rng.randint(1, 100), 7, 100, rng)
        _assert_sampled_matches_oracle(ref, times, pol, plant, offs)


@pytest.mark.parametrize("noisy", [False, True])
def test_frozen_runs_take_the_reference_state(noisy):
    # a frozen state is the reference's, and no plant's frozen adjoint
    # reads a frozen action: nan frozen actions show in no anchor and no
    # gradient; a live step's action must be the policy's
    times = [0, 2, 3, 7, 14]
    for name, widths, include_time, s0 in CASES:
        plant, pol, ref, _ = _reference(name, widths, include_time, s0,
                                        noisy)
        nan = (math.nan,) * plant.action_dim
        acts = [a if k in times else nan
                for k, a in enumerate(ref.raw_actions)]
        runs = [_anchor_bits(adjoint_anchors(build_sampled(r, times, pol,
                                                           plant)))
                for r in (ref, Rollout(ref.states, acts))]
        assert runs[0] == runs[1], name
        acts[3] = nan
        with pytest.raises(ValueError, match="at step 3"):
            build_sampled(Rollout(ref.states, acts), times, pol, plant)


def _oracle_grad_critical(ref, w, N, pol, plant, rng, offsets):
    times = sample_times_to(w.time, N, ref.K, rng)
    tape, theta, anchors = oracle_sampled(ref, times, pol, plant, offsets)
    J = w.predicate.h.eval(anchors[-1])
    return (tape.backward(J, theta) if isinstance(J, Var)
            else [0.0] * len(theta))


def _oracle_grad_smooth(ref, partition, f, cfg, pol, plant, offsets):
    total = [0.0] * len(pol.theta)
    for times in partition:
        tape, theta, anchors = oracle_sampled(ref, times, pol, plant, offsets)
        states = list(ref.states)
        for t, anchor in zip(times, anchors):
            states[t] = anchor
        out = smooth_robustness(f, Trace(states), cfg)
        if isinstance(out, Var):
            for i, g in enumerate(tape.backward(out, theta)):
                total[i] += g
    return total


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("name", bundled_names())
def test_bundled_scenarios_match_the_var_operators(name, noisy):
    """Each bundled scenario's plant, controller layout and training
    settings: anchors, grad_critical and grad_smooth at M = 1, 2 and the
    scenario's M (at most the horizon), whose aggregations mix float and
    Var entries, from a noisy reference too."""
    sc = load_scenario(resolve_scenario(name))
    cfg, plant = sc.policy_cfg, sc.plant
    pol = init(cfg["widths"], rng=random.Random(2),
               include_time=cfg["include_time"], time_scale=cfg["time_scale"])
    pol = pol.with_theta([0.5 * w for w in pol.theta])
    f = sc.formula
    if horizon(f) > 60:  # a short formula over the same states
        f = parse(f"F[2,12](x0 > 0.1) && G[0,20](x{plant.state_dim - 1} < 50)")
    K = horizon(f)
    ref, offs = rollout_with_offsets(
        plant, pol, sc.init_set.samples[0], K,
        noise=(0.02, 0.001, random.Random(4)) if noisy else None)
    _assert_sampled_matches_oracle(ref, [0, 1, 3, K // 2, K], pol, plant,
                                   offs)
    w = critical(f, Trace(ref.states))
    N = sc.train_cfg.N
    assert _bits(grad_critical(ref, w.time, w.predicate, N, pol, plant,
                               random.Random(5))) == _bits(
        _oracle_grad_critical(ref, w, N, pol, plant, random.Random(5), offs))
    scfg = SmoothConfig(sc.train_cfg.b)
    for M in sorted({1, 2, min(sc.train_cfg.M, K)}):
        part = partition_times(K, M, random.Random(M))
        assert _bits(grad_smooth(ref, part, f, scfg, pol, plant)) == _bits(
            _oracle_grad_smooth(ref, part, f, scfg, pol, plant, offs))
