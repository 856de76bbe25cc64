"""Generated recorders and their adjoints against the Var operators.

The oracle is Plant.step and policy.reference_forward run on Vars: the
Var operators' records, which Tape.backward interprets node by node, with
no generated code.  A generated block keeps no records, so values and
gradients are compared, as IEEE bytes: of sampled trajectories,
differentiable rollouts and the gradients built on them.
"""

import random
import struct

import pytest

from stlctrl.autodiff import Tape, Var, vmax, vmin
from stlctrl.cli import bundled_names, load_scenario, resolve_scenario
from stlctrl.plants import Plant, builtin, rollout, run_recorder, step_recorder
from stlctrl.policy import init, reference_forward
from stlctrl.sampler import (
    build_sampled, grad_critical, grad_smooth, partition_times,
    sample_times_to,
)
from stlctrl.smooth import SmoothConfig, smooth_robustness
from stlctrl.stl import Trace, critical, horizon, parse

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
            assert not isinstance(x, Var) and _bits([x]) == _bits([y])
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
    [(raw action, next state)] per step)."""
    tape = Tape()
    theta = [tape.const(w) for w in pol.theta]
    live, offs, cur = set(times), ref.noise_offsets, ref.states[0]
    anchors, steps = [cur], []
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
    # runs of frozen steps of length 0, 1, 3 and 6, and none at all
    for times in ([0, 2, 3, 7, 14], list(range(15))):
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
    pol = _policy(widths, include_time)
    n = len(s0)
    for var_in in [[True] * n, [False] * n, [i % 2 == 0 for i in range(n)]]:
        runs = []
        for recorded in (True, False):
            tape = Tape()
            tape.const(3.0)
            theta = tape.consts(pol.theta)
            tv = [Var(tape, i) for i in theta]
            s = tuple(tape.const(x) if v else x for x, v in zip(s0, var_in))
            out = (pol.recorder(tape, theta)(s, 5) if recorded
                   else _oracle_forward(pol, tv, s, 5))
            runs.append((out, tv + [x for x in s if isinstance(x, Var)]))
        _assert_same(runs[0][0], runs[1][0], runs[0][1], runs[1][1])


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("name,widths,include_time,s0", CASES)
def test_step_adjoints_for_var_and_float_operands(name, widths, include_time,
                                                  s0, noisy):
    plant = builtin(name)
    n, m = plant.state_dim, plant.action_dim
    rng = random.Random(5)
    a0 = tuple(rng.uniform(-2, 2) for _ in range(m))
    off = tuple(0.01 * (i + 1) for i in range(n)) if noisy else None
    for var_s, var_a in [(True, True), (True, False), (False, True)]:
        runs = []
        for step in (step_recorder(plant),
                     lambda tape, s, a, off: _oracle_step(plant, s, a, off)):
            tape = Tape()
            tape.const(3.0)
            s = tuple(tape.const(x) if var_s else x for x in s0)
            a = tuple(tape.const(x) if var_a else x for x in a0)
            seeds = [x for x in (*s, *a) if isinstance(x, Var)]
            runs.append((step(tape, s, a, off), seeds))
        _assert_same(runs[0][0], runs[1][0], runs[0][1], runs[1][1])


def _run_and_steps(plant, s0, acts, offs):
    """(tape, final state, seeds) of run_recorder, of step_recorder step by
    step and of the Var operators step by step, each from states that are
    Vars (the seeds) after a few nodes."""
    out = []
    for how in ("run", "steps", "oracle"):
        tape = Tape()
        tape.consts([0.5, 1.5])
        s = seeds = tuple(tape.const(x) for x in s0)
        if how == "run":
            s = run_recorder(plant)(tape, s, acts, offs)
        else:
            for j, a in enumerate(acts):
                off = offs and offs[j]
                s = (step_recorder(plant)(tape, s, a, off) if how == "steps"
                     else _oracle_step(plant, s, a, off))
        out.append((tape, s, seeds))
    return out


def _assert_run_matches_steps(plant, s0, acts, offs=None):
    """The run's final state equals the oracle's and step_recorder's step
    by step, from each output; returns the three (tape, state, seeds)."""
    runs = _run_and_steps(plant, s0, acts, offs)
    (tape, s, seeds), *others = runs
    for _, s_other, seeds_other in others:
        _assert_same(s, s_other, seeds, seeds_other)
    return runs


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("steps", [1, 2, 7])
@pytest.mark.parametrize("name,widths,include_time,s0", CASES)
def test_run_records_and_adjoint_match_steps(name, widths, include_time, s0,
                                             steps, noisy):
    plant, _, ref = _reference(name, widths, include_time, s0, noisy)
    acts = ref.raw_actions[3:3 + steps]
    offs = ref.noise_offsets and ref.noise_offsets[3:3 + steps]
    (tape, s, _), (by_steps, _, _), _ = _assert_run_matches_steps(
        plant, ref.states[3], acts, offs)
    assert len(tape.blocks) == 1 and len(by_steps.blocks) == steps
    # the run pushes its final state only
    assert len(tape) == 2 + 2 * plant.state_dim


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
    assert run_recorder(plant)(tape, s, []) == s
    assert len(tape) == 2 and not tape.blocks


@pytest.mark.parametrize("fn,blocks", [
    # steps that cannot loop: a state passed through, one node for two
    # states, a state that stops being a Var
    (lambda s, u, dt: (s[1], 2.0), 0),
    (lambda s, u, dt: (s[0] * u[0],) * 2, 4),
    (lambda s, u, dt: (s[0] + u[0], 2.0), 4),
    # steps that loop: states swapped, a state squared
    (lambda s, u, dt: (s[1] * u[0], s[0] - u[0]), 1),
    (lambda s, u, dt: (s[0] + u[0], s[0] * s[0]), 1),
])
def test_runs_of_unusual_steps_match_step_by_step(fn, blocks):
    plant = Plant("odd", 2, 1, 1.0, fn, lambda a: a)
    acts, s0 = [(0.3,), (-0.2,), (0.7,), (0.1,)], (0.4, -0.6)
    (tape, _, _), _, _ = _assert_run_matches_steps(plant, s0, acts)
    assert len(tape.blocks) == blocks


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
        vmax(s[0], s[1]) + 0.0 * u[0], vmin(s[1], s[0]) * u[0]), lambda a: a)
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
        (y,) = step(tape, (x,), (0.3,))
        runs.append((step(tape, (tape.const(1.0),), (y,)), [x]))
    _assert_same(runs[0][0], runs[1][0], runs[0][1], runs[1][1])
    (z,), [x] = runs[0]
    assert z.tape.backward(z, [x]) == [0.0]


def test_backward_from_a_node_inside_a_block():
    # every output of every block, not only a block's last node
    plant, pol, ref = _reference("dubins", [3, 20, 2], True, (0.0, 0.0),
                                 True)
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
    anchors and gradients of the Var operators step by step."""
    plant, pol, ref = _reference("dubins", [3, 20, 2], True, (0.0, 0.0),
                                 noisy, K=100)
    rng = random.Random(1)
    for _ in range(5):
        times = sample_times_to(rng.randint(1, 100), 7, 100, rng)
        st = _assert_sampled_matches_oracle(ref, times, pol, plant)
        assert len(st.tape.blocks) == 3 * (len(times) - 1) - sum(
            b == a + 1 for a, b in zip(times, times[1:]))


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
        out = smooth_robustness(f, Trace(states), cfg)
        if isinstance(out, Var):
            for i, g in enumerate(tape.backward(out, theta)):
                total[i] += g
    return total


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("name", bundled_names())
def test_bundled_scenarios_match_the_var_operators(name, noisy):
    """Each bundled scenario's plant, controller layout and training
    settings: anchors, grad_critical and grad_smooth at M = 1, 2."""
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
    _assert_sampled_matches_oracle(ref, [0, 1, 3, K // 2, K], pol, plant)
    w = critical(f, Trace(ref.states))
    N = sc.train_cfg.N
    assert _bits(grad_critical(ref, w.time, w.predicate, N, pol, plant,
                               random.Random(5))) == _bits(
        _oracle_grad_critical(ref, w, N, pol, plant, random.Random(5)))
    scfg = SmoothConfig(sc.train_cfg.b)
    for M in (1, 2):
        part = partition_times(K, M, random.Random(M))
        assert _bits(grad_smooth(ref, part, f, scfg, pol, plant)) == _bits(
            _oracle_grad_smooth(ref, part, f, scfg, pol, plant))
