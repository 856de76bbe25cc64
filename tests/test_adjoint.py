"""Generated recorders and their adjoints against the Var operators.

The oracle is Plant.step and policy.reference_forward run on Vars, and
the smooth kernel with tests/test_smooth.py's soft min/max by the Var
operators: their records, which Tape.backward interprets node by node,
with no generated code and no aggregation block.  A generated block
keeps no records, so values and gradients are compared, as IEEE bytes:
of sampled trajectories, differentiable rollouts and the gradients built
on them.
"""

import math
import random
import struct

import pytest

from stlctrl.autodiff import Tape, Var, vmax
from stlctrl.cli import bundled_names, load_scenario, resolve_scenario
from stlctrl.plants import (
    Plant, Rollout, builtin, rollout, run_recorder, step_recorder,
)
from stlctrl.policy import Policy, init, reference_forward
from stlctrl.sampler import (
    build_sampled, grad_critical, grad_smooth, partition_times,
    sample_times_to,
)
from stlctrl.smooth import SmoothConfig
from stlctrl.stl import Trace, critical, horizon, parse
from tests.test_plants import run_end
from tests.test_smooth import oracle_smooth_robustness

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


def _assert_same(got, want, seeds, oracle_seeds):
    """Entry by entry: the same float, or Vars with the same value and the
    same gradient over their tape's seeds."""
    assert len(got) == len(want)
    for x, y in zip(got, want):
        if not isinstance(y, Var):
            assert _bits([x]) == _bits([y])
            continue
        assert isinstance(x, Var) and _bits([x.value]) == _bits([y.value])
        assert _bits(x.tape.backward(x, seeds)) == _bits(
            y.tape.backward(y, oracle_seeds)), x


def _oracle_forward(pol, theta, s, k):
    t = [float(k) * pol.time_scale] if pol.include_time else []
    return reference_forward(pol.widths, theta, [*s, *t])


def _oracle_step(plant, s, a, off=None):
    nxt = plant.step(s, a, 0)
    return nxt if off is None else tuple(x + o for x, o in zip(nxt, off))


def _oracle_sampled(ref, times, pol, plant):
    """build_sampled by the Var operators: (tape, theta Vars, anchors,
    [(raw action, next state)] per step), the start state on the tape
    after theta."""
    tape = Tape()
    theta = [tape.const(w) for w in pol.theta]
    live, offs = set(times), ref.noise_offsets
    cur = tuple(tape.const(x) for x in ref.states[0])
    anchors, steps = [ref.states[0]], []
    for k in range(times[-1]):
        a = (_oracle_forward(pol, theta, cur, k) if k in live
             else ref.raw_actions[k])
        cur = _oracle_step(plant, cur, a, offs and offs[k])
        steps.append((a, cur))
        if k + 1 in live:
            anchors.append(cur)
    return tape, theta, anchors, steps


def _policy(widths, include_time, seed=9):
    pol = init(widths, rng=random.Random(seed), include_time=include_time)
    return pol.with_theta([0.5 * w for w in pol.theta])


def _reference(name, widths, include_time, s0, noisy, K=14, mode="plain"):
    plant, pol = builtin(name), _policy(widths, include_time)
    noise = (0.02, 0.0, random.Random(4)) if noisy else None
    return plant, pol, rollout(plant, pol, s0, K, mode=mode, noise=noise)


def _assert_sampled_matches_oracle(ref, times, pol, plant):
    st = build_sampled(ref, times, pol, plant)
    tape, theta, anchors, _ = _oracle_sampled(ref, times, pol, plant)
    for got, want in zip(st.anchors, anchors):
        _assert_same(got, want, st.theta_vars, theta)
    return st


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("name,widths,include_time,s0", CASES)
def test_sampled_gradients_match_interpreter(name, widths, include_time, s0,
                                             noisy):
    plant, pol, ref = _reference(name, widths, include_time, s0, noisy)
    # runs of frozen steps of length 0, 1, 3 and 6, which a noisy
    # reference does not have, and none at all
    for times in ([0, 2, 3, 7, 14], list(range(15))):
        if noisy and len(times) < 15:
            with pytest.raises(ValueError, match="ref is noisy"):
                build_sampled(ref, times, pol, plant)
            continue
        _assert_sampled_matches_oracle(ref, times, pol, plant)
    # a differentiable rollout: its every state, each coordinate's gradient
    diff = _reference(name, widths, include_time, s0, noisy,
                      mode="differentiable")[2]
    assert diff.raw_actions == ref.raw_actions
    assert diff.noise_offsets == ref.noise_offsets
    _, theta, anchors, _ = _oracle_sampled(ref, range(15), pol, plant)
    assert len(diff.states) == len(anchors) == 15
    for got, want in zip(diff.states, anchors):
        _assert_same(got, want, diff.theta_vars, theta)


@pytest.mark.parametrize("name,widths,include_time,s0", CASES)
def test_forward_adjoints_for_var_and_float_operands(name, widths,
                                                     include_time, s0):
    # Vars: Policy.recorder on the tape; floats: Policy.forward
    pol = _policy(widths, include_time)
    runs = []
    for recorded in (True, False):
        tape = Tape()
        tape.const(3.0)
        theta = tape.consts(pol.theta)
        tv = [Var(tape, i) for i in theta]
        s = tuple(tape.const(x) for x in s0)
        out = (pol.recorder(tape, theta)(s, 5) if recorded
               else _oracle_forward(pol, tv, s, 5))
        runs.append((out, tv + list(s)))
    _assert_same(runs[0][0], runs[1][0], runs[0][1], runs[1][1])
    assert _bits(pol.forward(s0, 5)) == _bits(
        _oracle_forward(pol, pol.theta, s0, 5))


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("name,widths,include_time,s0", CASES)
def test_step_adjoints_for_var_and_float_operands(name, widths, include_time,
                                                  s0, noisy):
    plant = builtin(name)
    n, m = plant.state_dim, plant.action_dim
    rng = random.Random(5)
    a0 = tuple(rng.uniform(-2, 2) for _ in range(m))
    off = tuple(0.01 * (i + 1) for i in range(n)) if noisy else None
    # Var actions: step_recorder, then the noise offsets by the Var
    # operators as build_sampled adds them at a live step; float actions:
    # a run of one step, which only a noise-free reference records
    for var_a in (True, False)[:2 - noisy]:
        runs = []
        for step in (step_recorder(plant) if var_a else
                     lambda tape, s, a: run_recorder(plant)(
                         tape, s, [a], run_end(plant, s, [a])),
                     lambda tape, s, a: plant.step(s, a, 0)):
            tape = Tape()
            tape.const(3.0)
            s = tuple(tape.const(x) for x in s0)
            a = tuple(tape.const(x) if var_a else x for x in a0)
            seeds = [x for x in (*s, *a) if isinstance(x, Var)]
            nxt = step(tape, s, a)
            if off:
                nxt = tuple(x + o for x, o in zip(nxt, off))
            runs.append((nxt, seeds))
        _assert_same(runs[0][0], runs[1][0], runs[0][1], runs[1][1])


def _run_and_steps(plant, s0, acts):
    """(tape, final state, seeds) of run_recorder (its end by Plant.step on
    floats), of step_recorder step by step (its raw actions tape
    constants) and of the Var operators step by step, each from states
    that are Vars (the seeds) after a few nodes."""
    out = []
    for how in ("run", "steps", "oracle"):
        tape = Tape()
        tape.consts([0.5, 1.5])
        s = seeds = tuple(tape.const(x) for x in s0)
        if how == "run":
            s = run_recorder(plant)(tape, s, acts, run_end(plant, s, acts))
        else:
            for a in acts:
                s = (step_recorder(plant)(tape, s, tuple(map(tape.const, a)))
                     if how == "steps" else plant.step(s, a, 0))
        out.append((tape, s, seeds))
    return out


def _assert_run_matches_steps(plant, s0, acts):
    """The run's final state equals the oracle's and step_recorder's step
    by step, from each output; returns the three (tape, state, seeds)."""
    runs = _run_and_steps(plant, s0, acts)
    (tape, s, seeds), *others = runs
    for _, s_other, seeds_other in others:
        _assert_same(s, s_other, seeds, seeds_other)
    return runs


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("steps", [1, 2, 7])
@pytest.mark.parametrize("name,widths,include_time,s0", CASES)
def test_run_records_and_adjoint_match_steps(name, widths, include_time, s0,
                                             steps, noisy):
    # a run steps without noise: from a noisy reference's state too, and
    # build_sampled rejects a noisy reference's run of frozen steps
    plant, pol, ref = _reference(name, widths, include_time, s0, noisy)
    acts = ref.raw_actions[3:3 + steps]
    (tape, s, _), (by_steps, _, _), _ = _assert_run_matches_steps(
        plant, ref.states[3], acts)
    assert len(tape.blocks) == 1 and len(by_steps.blocks) == steps
    # the run pushes its final state only
    assert len(tape) == 2 + 2 * plant.state_dim
    if noisy:
        with pytest.raises(ValueError, match="ref is noisy"):
            build_sampled(ref, [0, 1, 2, 3, 3 + steps + 1], pol, plant)


def test_backward_from_the_first_output_of_a_run_block():
    # dubins carries two states: its first output is not the block's last
    # node, so the block's adjoint must run for it too
    plant, _, ref = _reference("dubins", [3, 20, 2], True, (0.0, 0.0), False)
    (tape, s, seeds), _, (oracle, s_oracle, oracle_seeds) = (
        _assert_run_matches_steps(plant, ref.states[2], ref.raw_actions[2:8]))
    start, end, _, _ = tape.blocks[-1]
    assert [x.i for x in s] == [start, start + 1] and end == len(tape)
    g = tape.backward(s[0], seeds)
    assert _bits(g) == _bits(oracle.backward(s_oracle[0], oracle_seeds))
    assert g[0] == 1.0 and g[1] == 0.0


def test_run_of_no_steps_returns_its_input():
    plant = builtin("dubins")
    tape = Tape()
    s = (tape.const(0.1), tape.const(0.2))
    assert run_recorder(plant)(tape, s, [], (0.1, 0.2)) == s
    assert len(tape) == 2 and not tape.blocks


@pytest.mark.parametrize("fn,blocks", [
    # states swapped, a state squared
    (lambda s, u, dt: (s[1] * u[0], s[0] - u[0]), 1),
    (lambda s, u, dt: (s[0] + u[0], s[0] * s[0]), 1),
])
def test_runs_of_unusual_steps_match_step_by_step(fn, blocks):
    plant = Plant("odd", 2, 1, 1.0, fn, lambda a: a)
    acts, s0 = [(0.3,), (-0.2,), (0.7,), (0.1,)], (0.4, -0.6)
    (tape, s, _), (_, by_steps, _), _ = _assert_run_matches_steps(
        plant, s0, acts)
    assert len(tape.blocks) == blocks
    assert all(isinstance(x, Var) for x in (*s, *by_steps))


@pytest.mark.parametrize("fn,step_records", [
    (lambda s, u, dt: (s[1], 2.0), False),
    (lambda s, u, dt: (s[0] * u[0],) * 2, True),
    (lambda s, u, dt: (s[0] + u[0], 2.0), False),
    (lambda s, u, dt: (s[1], s[0] + u[0]), True),
], ids=["through_and_constant", "one_node_for_two", "constant", "through"])
def test_recorders_reject_a_step_they_cannot_record(fn, step_records):
    # a run needs a step replay_source can loop: no state passed through,
    # a node of its own per state and no constant; every recorder output
    # reads a Var.  Else generating the kernel raises, naming the plant,
    # and so does build_sampled where it needs that kernel
    plant = Plant("odd", 2, 1, 1.0, fn, lambda a: a)
    for recorder in [run_recorder] + [step_recorder] * (not step_records):
        with pytest.raises(ValueError, match="^plant odd: its step cannot"):
            recorder(plant)
    pol = Policy([3, 1], theta=[0.5, -0.25, 0.1, 0.2])
    ref = rollout(plant, pol, (0.4, -0.6), 4)  # the plain loop steps it
    with pytest.raises(ValueError, match="^plant odd: "):  # a frozen step
        build_sampled(ref, [0, 2, 4], pol, plant)
    if step_records:  # every step live: no run recorder is needed
        _assert_sampled_matches_oracle(ref, list(range(5)), pol, plant)
    else:
        with pytest.raises(ValueError, match="^plant odd: "):
            build_sampled(ref, list(range(5)), pol, plant)


def test_vmax_tie_splits_in_step_and_run():
    # x == 1e-3 ties scalar_power's vmax(x, 1e-3) at every step
    plant = builtin("scalar_power")
    tie = Plant("tie", 1, 1, 1.0,
                lambda s, u, dt: (vmax(s[0], 1e-3) + 0.0 * u[0],),
                lambda a: a)
    for p in (plant, tie):
        for steps in (1, 3):
            acts = [(0.0,)] * steps if p is tie else [(0.4,)] * steps
            _assert_run_matches_steps(p, (1e-3,), acts)
    (tape, s, seeds), _, _ = _assert_run_matches_steps(tie, (1e-3,),
                                                      [(0.0,)] * 3)
    assert tape.backward(s[0], seeds) == [0.125]
    # ties between two states: each gets half
    both = Plant("both", 2, 1, 1.0, lambda s, u, dt: (
        vmax(s[0], s[1]) + 0.0 * u[0], vmax(s[1], s[0]) * u[0]), lambda a: a)
    for steps in (1, 3):
        (tape, s, seeds), _, _ = _assert_run_matches_steps(
            both, (0.5, 0.5), [(1.0,)] * steps)
        assert [tape.backward(x, seeds) for x in s] == [[0.5, 0.5]] * 2
    runs = []
    for step in (step_recorder(plant),
                 lambda tape, s, a: _oracle_step(plant, s, a)):
        tape = Tape()
        x = tape.const(1e-3)
        runs.append((step(tape, (x,), (tape.const(0.2),)), [x]))
    _assert_same(runs[0][0], runs[1][0], runs[0][1], runs[1][1])
    (y,), [x] = runs[0]
    assert y.tape.backward(y, [x])[0] == pytest.approx(
        0.5 * 0.8 * 1.2 * 1e-3 ** 0.2)


def test_blocks_whose_outputs_have_zero_adjoint_are_skipped():
    # below 1e-3, vmax(x, 1e-3) passes no adjoint back to x, so every step
    # before the last has a zero adjoint, as the interpreter skips it; an
    # infinite value in such a step would make its terms nan
    plant = builtin("scalar_power")
    inf = Plant("inf", 1, 1, 1.0, lambda s, u, dt: (
        vmax(s[0] * u[0], 1e-3) + 1e308 * u[0] * s[0],), lambda a: a)
    for p, acts in ((plant, [(0.4,)] * 5), (inf, [(-1e-9,), (10.0,), (0.0,)])):
        (tape, s, seeds), _, _ = _assert_run_matches_steps(p, (-2.0,), acts)
        assert tape.backward(s[0], seeds) == [0.0]
    runs = []
    for step in (step_recorder(plant),
                 lambda tape, s, a: _oracle_step(plant, s, a)):
        tape = Tape()
        x = tape.const(-2.0)
        (y,) = step(tape, (x,), (tape.const(0.3),))
        runs.append((step(tape, (tape.const(1.0),), (y,)), [x]))
    _assert_same(runs[0][0], runs[1][0], runs[0][1], runs[1][1])
    (z,), [x] = runs[0]
    assert z.tape.backward(z, [x]) == [0.0]


def test_backward_from_a_node_inside_a_block():
    # every output of every block, not only a block's last node
    plant, pol, ref = _reference("dubins", [3, 20, 2], True, (0.0, 0.0),
                                 False)
    times = [0, 1, 9]
    st = build_sampled(ref, times, pol, plant)
    _, theta, _, steps = _oracle_sampled(ref, times, pol, plant)
    # a forward and a step per live time, then a run up to the next
    want = [steps[0][0], steps[0][1], steps[1][0], steps[1][1], steps[8][1]]
    tape, nonzero = st.tape, 0
    assert len(tape.blocks) == len(want)
    for (start, end, _, _), outs in zip(tape.blocks, want):
        assert end - start == len(outs) == 2
        _assert_same([Var(tape, i) for i in range(start, end)], outs,
                     st.theta_vars, theta)
        nonzero += sum(any(tape.backward(Var(tape, i), st.theta_vars))
                       for i in range(start, end))
    assert nonzero == 2 * len(want)


@pytest.mark.parametrize("noisy", [False, True])
def test_sampled_tape_equals_step_by_step_recording(noisy):
    """build_sampled, one run per stretch of frozen steps, gives the
    anchors and gradients of the Var operators step by step; a noisy
    reference, which has no frozen step, at every step up to the last
    sample time."""
    plant, pol, ref = _reference("dubins", [3, 20, 2], True, (0.0, 0.0),
                                 noisy, K=100)
    rng = random.Random(1)
    for _ in range(5):
        times = sample_times_to(rng.randint(1, 100), 7, 100, rng)
        if noisy:
            times = list(range(times[-1] + 1))
        st = _assert_sampled_matches_oracle(ref, times, pol, plant)
        assert len(st.tape.blocks) == 3 * (len(times) - 1) - sum(
            b == a + 1 for a, b in zip(times, times[1:]))


@pytest.mark.parametrize("noisy", [False, True])
def test_frozen_runs_take_the_reference_state(noisy):
    # a frozen state is the reference's: a run whose adjoint keeps no
    # locals per step pushes it and steps nothing, so nan frozen actions
    # do not show in its anchors or gradients; quad12 and scalar_power
    # keep a tuple per step, so they step the poisoned actions, and the
    # live step after such a run does not give the reference's action;
    # a noisy reference's frozen steps are rejected before any of that
    times, stepped = [0, 2, 3, 7, 14], set()
    for name, widths, include_time, s0 in CASES:
        plant, pol, ref = _reference(name, widths, include_time, s0, noisy)
        nan = (math.nan,) * plant.action_dim
        acts = [a if k in times else nan
                for k, a in enumerate(ref.raw_actions)]
        poisoned = Rollout(ref.states, acts, noise_offsets=ref.noise_offsets)
        if noisy:
            for r in (ref, poisoned):
                with pytest.raises(ValueError, match="ref is noisy"):
                    build_sampled(r, times, pol, plant)
            continue
        runs = []
        for r in (ref, poisoned):
            try:
                st = build_sampled(r, times, pol, plant)
            except ValueError as e:
                assert r is poisoned and "at step 2" in str(e), name
                stepped.add(name)
                # one frozen run and no live step after it: nan anchors
                st = build_sampled(r, [0, 7], pol, plant)
                assert all(math.isnan(x.value) for x in st.anchors[-1]), name
                break
            runs.append([[_bits([x.value, *st.grad(x)]) for x in a]
                         for a in st.anchors[1:]])
        else:
            assert runs[0] == runs[1], name
    assert stepped == (set() if noisy else {"quad12", "scalar_power"})


def _oracle_grad_critical(ref, w, N, pol, plant, rng):
    times = sample_times_to(w.time, N, ref.K, rng)
    tape, theta, anchors, _ = _oracle_sampled(ref, times, pol, plant)
    J = w.predicate.h.eval(anchors[-1])
    return (tape.backward(J, theta) if isinstance(J, Var)
            else [0.0] * len(theta))


def _oracle_grad_smooth(ref, partition, f, cfg, pol, plant):
    total = [0.0] * len(pol.theta)
    for times in partition:
        tape, theta, anchors, _ = _oracle_sampled(ref, times, pol, plant)
        states = list(ref.states)
        for t, anchor in zip(times, anchors):
            states[t] = anchor
        out = oracle_smooth_robustness(f, states, cfg.b)
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
    Var entries.  A noisy reference has no frozen step: its anchors are
    sampled at every step, grad_critical with N = K and grad_smooth at M =
    1, and sampling it with frozen steps is rejected."""
    sc = load_scenario(resolve_scenario(name))
    cfg, plant = sc.policy_cfg, sc.plant
    pol = init(cfg["widths"], rng=random.Random(2),
               include_time=cfg["include_time"], time_scale=cfg["time_scale"])
    pol = pol.with_theta([0.5 * w for w in pol.theta])
    f = sc.formula
    if horizon(f) > 60:  # a short formula over the same states
        f = parse(f"F[2,12](x0 > 0.1) && G[0,20](x{plant.state_dim - 1} < 50)")
    K = horizon(f)
    ref = rollout(plant, pol, sc.init_set.samples[0], K,
                  noise=(0.02, 0.001, random.Random(4)) if noisy else None)
    times = [0, 1, 3, K // 2, K]
    if noisy:
        with pytest.raises(ValueError, match="ref is noisy"):
            build_sampled(ref, times, pol, plant)
        times = list(range(K + 1))
    _assert_sampled_matches_oracle(ref, times, pol, plant)
    w = critical(f, Trace(ref.states))
    N = K if noisy else sc.train_cfg.N
    assert _bits(grad_critical(ref, w.time, w.predicate, N, pol, plant,
                               random.Random(5))) == _bits(
        _oracle_grad_critical(ref, w, N, pol, plant, random.Random(5)))
    scfg = SmoothConfig(sc.train_cfg.b)
    for M in [1] if noisy else sorted({1, 2, min(sc.train_cfg.M, K)}):
        part = partition_times(K, M, random.Random(M))
        assert _bits(grad_smooth(ref, part, f, scfg, pol, plant)) == _bits(
            _oracle_grad_smooth(ref, part, f, scfg, pol, plant))
