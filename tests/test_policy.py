import math
import random
import struct

import pytest

from stlctrl.autodiff import TANH, Tape, Var, tanh
from stlctrl import policy as pol
from stlctrl.cli import (
    _load_checkpoint, bundled_names, load_scenario, resolve_scenario,
)
from stlctrl.policy import AdamState, Policy, adam_update, init, param_count


def test_param_count_formula():
    assert param_count([8, 20, 20, 10, 4]) == 20 * 9 + 20 * 21 + 10 * 21 + 4 * 11
    rng = random.Random(0)
    for _ in range(20):
        widths = [rng.randint(1, 9) for _ in range(rng.randint(2, 5))]
        want = sum(widths[i + 1] * (widths[i] + 1) for i in range(len(widths) - 1))
        assert param_count(widths) == want
        p = init(widths, rng=rng)
        assert len(p.theta) == want


def test_zero_weights_zero_output():
    p = init([3, 20, 2], scheme="zero")
    assert p.forward((0.5, -1.2), 7) == [0.0, 0.0]
    assert p.state_dim == 2 and p.action_dim == 2


def test_forward_deterministic_and_shapes():
    rng = random.Random(3)
    p = init([3, 20, 2], rng=rng)
    a1 = p.forward((0.1, 0.2), 5)
    a2 = p.forward((0.1, 0.2), 5)
    assert a1 == a2
    assert len(a1) == 2


def test_forward_matches_manual_single_layer():
    # widths [3,1]: a = w0*s0 + w1*s1 + w2*k + b
    p = Policy([3, 1], theta=[0.5, -1.0, 0.25, 2.0])
    (a,) = p.forward((2.0, 3.0), 4)
    assert a == pytest.approx(0.5 * 2 - 1.0 * 3 + 0.25 * 4 + 2.0)


def test_include_time_off_and_time_scale():
    p = Policy([1, 1], theta=[2.0, 0.0], include_time=False)
    assert p.state_dim == 1
    assert p.forward((3.0,), 99) == [6.0]
    q = Policy([2, 1], theta=[0.0, 1.0, 0.0], time_scale=0.1)
    assert q.forward((0.0,), 5) == [0.5]


def test_forward_gradient_finite_differences():
    rng = random.Random(9)
    p = init([3, 5, 2], rng=rng)
    s, k = (0.3, -0.7), 2
    for idx in [0, 7, 19, len(p.theta) - 1]:
        tape = Tape()
        tv = tape.consts(p.theta)
        out = p.recorder(tape, tv)(_on_tape(tape, s), k)
        g = tape.backward(out[0], tv)[idx]
        h = 1e-6
        hi = list(p.theta)
        lo = list(p.theta)
        hi[idx] += h
        lo[idx] -= h
        fd = (p.with_theta(hi).forward(s, k)[0]
              - p.with_theta(lo).forward(s, k)[0]) / (2 * h)
        assert g == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_init_determinism_and_schemes():
    t1 = init([4, 8, 3], rng=random.Random(7)).theta
    t2 = init([4, 8, 3], rng=random.Random(7)).theta
    assert t1 == t2
    assert any(w != 0 for w in t1)
    z = init([4, 8, 3], scheme="zero").theta
    assert all(w == 0 for w in z)
    with pytest.raises(ValueError):
        init([4, 3], scheme="he", rng=random.Random(0))


def test_checkpoint_roundtrip(tmp_path):
    p = init([3, 6, 2], rng=random.Random(1), time_scale=0.01)
    path = tmp_path / "ckpt.json"
    p.save(path, plant_name="dubins", metadata={"note": "test"})
    q = _load_checkpoint(path, load_scenario(resolve_scenario("dubins_k10")))
    assert q.widths == p.widths
    assert q.theta == p.theta
    assert q.time_scale == p.time_scale
    assert q.forward((0.1, 0.2), 3) == p.forward((0.1, 0.2), 3)


def test_adam_zero_gradient_no_move():
    st = AdamState(3)
    theta = [1.0, 2.0, 3.0]
    assert adam_update(st, theta, [0.0, 0.0, 0.0]) == theta


def test_adam_first_step_magnitude():
    st = AdamState(1, alpha=0.01)
    (new,) = adam_update(st, [0.0], [1.0])
    # bias-corrected first step is alpha * g/|g| up to eps
    assert new == pytest.approx(0.01, rel=1e-6)


def test_adam_constant_gradient_step_approaches_alpha():
    st = AdamState(1, alpha=0.05)
    theta = [0.0]
    prev = 0.0
    for _ in range(200):
        theta = adam_update(st, theta, [3.0])
    last = theta[0] - prev
    theta2 = adam_update(st, theta, [3.0])
    assert theta2[0] - theta[0] == pytest.approx(0.05, rel=1e-3)


def test_adam_ascends():
    st = AdamState(1, alpha=0.1)
    theta = [0.0]
    for _ in range(50):
        # gradient of -(x-1)^2 is -2(x-1); ascent should approach 1
        theta = adam_update(st, theta, [-2.0 * (theta[0] - 1.0)])
    assert theta[0] == pytest.approx(1.0, abs=0.1)


def test_adam_rejects_nonfinite():
    # a numerical failure at run time, not invalid input (CLI exit 4, not 2)
    st = AdamState(2)
    with pytest.raises(FloatingPointError, match="non-finite gradient"):
        adam_update(st, [0.0, 0.0], [1.0, math.nan])
    with pytest.raises(FloatingPointError, match="non-finite gradient"):
        adam_update(st, [0.0, 0.0], [math.inf, 0.0])
    with pytest.raises(ValueError):
        adam_update(st, [0.0], [1.0, 1.0])


def test_policy_validation():
    with pytest.raises(ValueError):
        Policy([3], theta=[])
    with pytest.raises(ValueError):
        Policy([3, 2], theta=[1.0])
    p = Policy([3, 2])
    with pytest.raises(ValueError):
        p.forward((1.0,), 0)


def loop_forward(p, s, k, theta=None):
    """The interpreted forward pass the generated kernels replace (oracle)."""
    th = p.theta if theta is None else theta
    x = list(s)
    if p.include_time:
        x.append(float(k) * p.time_scale)
    off = 0
    last = len(p.widths) - 2
    for li in range(len(p.widths) - 1):
        nin = p.widths[li]
        nout = p.widths[li + 1]
        bias_off = off + nout * nin
        out = []
        for j in range(nout):
            row = off + j * nin
            acc = th[bias_off + j]
            for i in range(nin):
                acc = acc + th[row + i] * x[i]
            out.append(acc if li == last else tanh(acc))
        x = out
        off = bias_off + nout
    return x


def _grads(tape, outs, seeds):
    """Each output's value and gradient over the seeds, as bytes."""
    return [list(map(_bits, [v.value, *tape.backward(v, seeds)]))
            for v in outs]


def _assert_kernel_matches_loop(p, rng, trials=3):
    n = p.state_dim
    for _ in range(trials):
        s = tuple(rng.uniform(-3, 3) for _ in range(n))
        k = rng.randrange(1000)
        assert p.forward(s, k) == loop_forward(p, s, k)
        # two forwards on one tape, as in a sampled trajectory
        _assert_recorder_matches_loop(p, lambda tape: (
            tape.consts(p.theta), [_on_tape(tape, s), _on_tape(tape, s)[::-1]]),
            k)


def _policy_configs():
    out = set()
    for name in bundled_names():
        cfg = load_scenario(resolve_scenario(name)).policy_cfg
        out.add((tuple(cfg["widths"]), cfg["include_time"], cfg["time_scale"]))
    return sorted(out)


@pytest.mark.parametrize("widths,include_time,time_scale", _policy_configs())
def test_kernel_matches_loop_on_bundled_widths(widths, include_time,
                                               time_scale):
    rng = random.Random(11)
    p = init(list(widths), rng=rng, include_time=include_time,
             time_scale=time_scale)
    _assert_kernel_matches_loop(p, rng)


def test_kernel_matches_loop_on_random_widths():
    rng = random.Random(12)
    for _ in range(25):
        widths = [rng.randint(1, 12) for _ in range(rng.randint(2, 5))]
        include_time = rng.random() < 0.5
        if include_time and widths[0] == 1:
            widths[0] = 2
        p = init(widths, rng=rng, include_time=include_time,
                 time_scale=rng.uniform(0.001, 1.0))
        _assert_kernel_matches_loop(p, rng, trials=2)


def test_kernel_matches_loop_with_time_input_only():
    rng = random.Random(13)
    p = init([1, 3, 2], rng=rng)
    assert p.state_dim == 0
    _assert_kernel_matches_loop(p, rng)


def test_kernel_compiles_fan_in_4000():
    # one `+` chain of ~3000 operands overflows CPython's compiler
    rng = random.Random(14)
    p = init([4000, 2, 1], rng=rng, include_time=False)
    _assert_kernel_matches_loop(p, rng, trials=1)


def _bits(x):
    return struct.pack("d", x)


def _on_tape(tape, xs):
    return [tape.const(x) for x in xs]


def _assert_recorder_matches_loop(p, setup, k=7):
    """setup(tape) -> (theta's node ids from Tape.consts, inputs of each
    forward); Policy.recorder and loop_forward on theta's Vars must give
    the same outputs on fresh tapes, values and gradients over theta and
    the Var inputs, bit for bit.  Returns (tape, theta, outputs) of each."""
    runs, grads = [], []
    for recorded in (True, False):
        tape = Tape()
        theta, inputs = setup(tape)
        tv = [Var(tape, i) for i in theta]
        fwd = (p.recorder(tape, theta) if recorded
               else lambda s, k: loop_forward(p, s, k, theta=tv))
        outs = [fwd(s, k) for s in inputs]
        seeds = tv + [x for s in inputs for x in s if isinstance(x, Var)]
        grads.append(_grads(tape, [v for o in outs for v in o], seeds))
        runs.append((tape, theta, outs))
    assert grads[0] == grads[1]
    return runs


@pytest.mark.parametrize("widths,include_time,time_scale", _policy_configs())
def test_plain_forward_is_one_statement_per_neuron(widths, include_time,
                                                   time_scale):
    # per-operation statements made the forward 1.4-3x slower; a neuron
    # that only one neuron reads is folded into that neuron's statement
    fn, names = pol._kernel(widths, include_time), []
    while fn:  # a wide net runs as a chain of functions
        names += [v for v in fn.__code__.co_varnames if v[0] == "h"]
        fn = fn.__globals__["nxt"]
    folded = sum(w for w, nxt in zip(widths[1:-1], widths[2:]) if nxt == 1)
    assert len(names) == sum(widths[1:]) - folded


def test_recorder_matches_loop_with_theta_anywhere_on_the_tape():
    p = init([3, 7, 2], rng=random.Random(17))

    def after_other_nodes(tape):
        for _ in range(5):
            tape.const(1.5)
        return tape.consts(p.theta), [_on_tape(tape, (0.25, -0.5))]

    _assert_recorder_matches_loop(p, after_other_nodes)


def test_recorder_several_forwards_on_one_tape():
    # as in a sampled trajectory: each forward's inputs depend on the last
    p = init([3, 8, 2], rng=random.Random(18))

    def setup(tape):
        theta = tape.consts(p.theta)
        tv = [Var(tape, i) for i in theta]
        s, inputs = _on_tape(tape, (0.4, -0.7)), []
        for k in range(4):
            inputs.append(s)
            s = [x * 0.5 + 0.1 for x in loop_forward(p, s, k, theta=tv)]
        return theta, inputs

    (tape, _, _), _ = _assert_recorder_matches_loop(p, setup)
    # TANH: setup's; the recorder's push none
    assert [r and r[0] for r in tape.recs].count(TANH) == 8 * 4


def test_recorder_rejects_before_writing():
    p = init([3, 4, 2], rng=random.Random(19))
    t1, t2 = Tape(), Tape()
    forward = p.recorder(t1, t1.consts(p.theta))
    x1, x2 = t1.const(0.1), t2.const(0.5)
    sizes = (len(t1), len(t2))
    for s in [(x2, x1), (x1, x2)]:
        with pytest.raises(ValueError, match="different tapes"):
            forward(s, 3)
    assert (len(t1), len(t2)) == sizes
    for t in (t1, t2):
        assert len(t.recs) == len(t.vals) == len(t)


def test_recorder_gradients_bit_identical_to_the_loop():
    rng = random.Random(20)
    for widths in ([3, 20, 2], [4, 9, 9, 3]):
        p = init(widths, rng=rng)
        xs = [rng.uniform(-1, 1) for _ in range(p.state_dim)]

        def setup(tape):
            theta = tape.consts(p.theta)
            return theta, [_on_tape(tape, xs)]

        grads = []
        for tape, theta, [out] in _assert_recorder_matches_loop(p, setup):
            y = out[0]
            for v in out[1:]:
                y = y * v
            grads.append([_bits(g) for g in tape.backward(y, theta)])
        assert grads[0] == grads[1]
