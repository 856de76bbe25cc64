"""Generated adjoints of recorded blocks against the tape interpreter.

The oracle is the same tape with its blocks cleared, which Tape.backward
then interprets node by node; gradients are compared as IEEE bytes.
"""

import random
import struct

import pytest

from stlctrl import autodiff
from stlctrl.autodiff import Tape, Var, vmax, vmin
from stlctrl.plants import Plant, builtin, rollout, run_recorder, step_recorder
from stlctrl.policy import init
from stlctrl.sampler import build_sampled, sample_times_to

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


def _interpreted(tape, out, seeds):
    blocks, tape.blocks = tape.blocks, []
    try:
        return tape.backward(out, seeds)
    finally:
        tape.blocks = blocks


def _assert_adjoints_match(tape, outs, seeds):
    """Each Var in outs has the interpreter's gradient over seeds."""
    assert tape.blocks
    outs = [o for o in outs if isinstance(o, Var)]
    assert outs
    for out in outs:
        got = tape.backward(out, seeds)
        assert _bits(got) == _bits(_interpreted(tape, out, seeds)), out


def _policy(widths, include_time, seed=9):
    pol = init(widths, rng=random.Random(seed), include_time=include_time)
    return pol.with_theta([0.5 * w for w in pol.theta])


def _reference(name, widths, include_time, s0, noisy, K=14):
    plant, pol = builtin(name), _policy(widths, include_time)
    noise = (0.02, 0.0, random.Random(4)) if noisy else None
    return plant, pol, rollout(plant, pol, s0, K, noise=noise)


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("name,widths,include_time,s0", CASES)
def test_sampled_gradients_match_interpreter(name, widths, include_time, s0,
                                             noisy):
    plant, pol, ref = _reference(name, widths, include_time, s0, noisy)
    # runs of frozen steps of length 0, 1, 3 and 6, and none at all
    for times in ([0, 2, 3, 7, 14], list(range(15))):
        st = build_sampled(ref, times, pol, plant)
        for anchor in st.anchors[1:]:
            _assert_adjoints_match(st.tape, anchor, st.theta_vars)


@pytest.mark.parametrize("name,widths,include_time,s0", CASES)
def test_forward_adjoints_for_var_and_float_operands(name, widths,
                                                     include_time, s0):
    pol = _policy(widths, include_time)
    for var_theta, var_in in [(True, True), (True, False), (False, True)]:
        tape = Tape()
        tape.const(3.0)
        theta = tape.consts(pol.theta) if var_theta else pol.theta
        s = tuple(tape.const(x) if var_in else x for x in s0)
        a = pol.forward(s, 5, theta=theta)
        seeds = [x for x in (*theta, *s) if isinstance(x, Var)]
        _assert_adjoints_match(tape, a, seeds)


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
        tape = Tape()
        tape.const(3.0)
        s = tuple(tape.const(x) if var_s else x for x in s0)
        a = tuple(tape.const(x) if var_a else x for x in a0)
        nxt = step_recorder(plant)(tape, s, a, off)
        seeds = [x for x in (*s, *a) if isinstance(x, Var)]
        _assert_adjoints_match(tape, nxt, seeds)


def _run_and_steps(plant, s0, acts, offs):
    """(tape, final state) of run_recorder and of step_recorder step by
    step, each from states that are Vars after a few nodes."""
    out = []
    for by_steps in (False, True):
        tape = Tape()
        tape.consts([0.5, 1.5])
        s = tuple(tape.consts(s0))
        if by_steps:
            record = step_recorder(plant)
            for j, a in enumerate(acts):
                s = record(tape, s, a, offs and offs[j])
        else:
            s = run_recorder(plant)(tape, s, acts, offs)
        out.append((tape, s))
    return out


def _records(tape):
    return [tape.ops, tape.lhs, tape.rhs, _bits(tape.vals), _bits(tape.aux)]


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("steps", [1, 2, 7])
@pytest.mark.parametrize("name,widths,include_time,s0", CASES)
def test_run_records_and_adjoint_match_steps(name, widths, include_time, s0,
                                             steps, noisy):
    plant, _, ref = _reference(name, widths, include_time, s0, noisy)
    acts = ref.raw_actions[3:3 + steps]
    offs = ref.noise_offsets and ref.noise_offsets[3:3 + steps]
    (tape, s), (oracle, s_steps) = _run_and_steps(plant, ref.states[3], acts,
                                                  offs)
    assert _records(tape) == _records(oracle)
    assert [x.i for x in s] == [x.i for x in s_steps]
    assert len(tape.blocks) == 1 and len(oracle.blocks) == steps
    seeds = [Var(tape, i) for i in range(2, 2 + plant.state_dim)]
    _assert_adjoints_match(tape, s, seeds)
    for out, out_steps in zip(s, s_steps):
        assert _bits(tape.backward(out, seeds)) == _bits(
            oracle.backward(out_steps, [Var(oracle, x.i) for x in seeds]))


def test_run_of_no_steps_returns_its_input():
    plant = builtin("dubins")
    tape = Tape()
    s = tuple(tape.consts([0.1, 0.2]))
    assert run_recorder(plant)(tape, s, []) == s
    assert len(tape) == 2 and not tape.blocks


@pytest.mark.parametrize("fn,blocks", [
    # steps that cannot loop: a state passed through, one record for two
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
    (tape, s), (oracle, s_steps) = _run_and_steps(plant, s0, acts, None)
    assert _records(tape) == _records(oracle)
    assert len(tape.blocks) == blocks
    assert [getattr(x, "i", x) for x in s] == [getattr(x, "i", x)
                                               for x in s_steps]
    seeds = [Var(tape, 2), Var(tape, 3)]
    for out in (x for x in s if isinstance(x, Var)):
        assert _bits(tape.backward(out, seeds)) == _bits(
            _interpreted(tape, out, seeds))


def test_vmax_tie_splits_in_step_and_run():
    # x == 1e-3 ties scalar_power's vmax(x, 1e-3) at every step
    plant = builtin("scalar_power")
    tie = Plant("tie", 1, 1, 1.0,
                lambda s, u, dt: (vmax(s[0], 1e-3) + 0.0 * u[0],),
                lambda a: a)
    for p in (plant, tie):
        for steps in (1, 3):
            acts = [(0.0,)] * steps if p is tie else [(0.4,)] * steps
            (tape, s), _ = _run_and_steps(p, (1e-3,), acts, None)
            _assert_adjoints_match(tape, s, [Var(tape, 2)])
    (tape, s), _ = _run_and_steps(tie, (1e-3,), [(0.0,)] * 3, None)
    assert tape.backward(s[0], [Var(tape, 2)]) == [0.125]
    # ties between two states: each gets half
    both = Plant("both", 2, 1, 1.0, lambda s, u, dt: (
        vmax(s[0], s[1]) + 0.0 * u[0], vmin(s[1], s[0]) * u[0]), lambda a: a)
    for steps in (1, 3):
        (tape, s), _ = _run_and_steps(both, (0.5, 0.5), [(1.0,)] * steps, None)
        seeds = [Var(tape, 2), Var(tape, 3)]
        _assert_adjoints_match(tape, s, seeds)
        assert [tape.backward(x, seeds) for x in s] == [[0.5, 0.5]] * 2
    tape = Tape()
    x = tape.const(1e-3)
    (y,) = step_recorder(plant)(tape, (x,), (tape.const(0.2),))
    assert tape.ops.count(autodiff.MAX2) == 1 and tape.blocks
    _assert_adjoints_match(tape, [y], [x])
    assert tape.backward(y, [x])[0] == pytest.approx(
        0.5 * 0.8 * 1.2 * 1e-3 ** 0.2)


def test_blocks_whose_outputs_have_zero_adjoint_are_skipped():
    # below 1e-3, vmax(x, 1e-3) passes no adjoint back to x, so every step
    # before the last has a zero adjoint, as the interpreter skips it; an
    # infinite value in such a step would make its terms nan
    plant = builtin("scalar_power")
    inf = Plant("inf", 1, 1, 1.0, lambda s, u, dt: (
        vmax(s[0] * u[0], 1e-3) + 1e308 * u[0] * s[0],), lambda a: a)
    for p, acts in ((plant, [(0.4,)] * 5), (inf, [(-1e-9,), (10.0,), (0.0,)])):
        (tape, s), _ = _run_and_steps(p, (-2.0,), acts, None)
        g = tape.backward(s[0], [Var(tape, 2)])
        assert g == [0.0] and _bits(g) == _bits(
            _interpreted(tape, s[0], [Var(tape, 2)]))
    tape = Tape()
    x = tape.const(-2.0)
    (y,) = step_recorder(plant)(tape, (x,), (0.3,))
    (z,) = step_recorder(plant)(tape, (tape.const(1.0),), (y,))
    assert tape.backward(z, [x]) == _interpreted(tape, z, [x]) == [0.0]


def test_backward_from_a_node_inside_a_block():
    plant, pol, ref = _reference("dubins", [3, 20, 2], True, (0.0, 0.0),
                                 True)
    st = build_sampled(ref, [0, 1, 9], pol, plant)
    tape, nonzero = st.tape, 0
    assert len(tape.blocks) == 5
    for start, end, _, _ in tape.blocks:
        for i in (start, (start + end) // 2, end - 2):
            # the block reaches past the output, so it is interpreted
            g = tape.backward(Var(tape, i), st.theta_vars)
            assert _bits(g) == _bits(
                _interpreted(tape, Var(tape, i), st.theta_vars))
            nonzero += any(g)
    assert nonzero > 5


@pytest.mark.parametrize("noisy", [False, True])
def test_sampled_tape_equals_step_by_step_recording(noisy):
    """build_sampled, one run per stretch of frozen steps, records the
    tape that a step_recorder call per step records."""
    plant, pol, ref = _reference("dubins", [3, 20, 2], True, (0.0, 0.0),
                                 noisy, K=100)
    rng = random.Random(1)
    for _ in range(5):
        times = sample_times_to(rng.randint(1, 100), 7, 100, rng)
        st = build_sampled(ref, times, pol, plant)
        tape = Tape()
        forward = pol.recorder(tape.consts(pol.theta))
        record, live, cur = step_recorder(plant), set(times), ref.states[0]
        for k in range(times[-1]):
            a = forward(cur, k) if k in live else ref.raw_actions[k]
            cur = record(tape, cur, a, ref.noise_offsets and
                         ref.noise_offsets[k])
        assert len(st.tape) == len(tape)
        assert _records(st.tape) == _records(tape)
        assert [x.i for x in st.anchors[-1]] == [x.i for x in cur]
        assert len(st.tape.blocks) == 3 * (len(times) - 1) - sum(
            b == a + 1 for a, b in zip(times, times[1:]))
