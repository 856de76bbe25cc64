import math
import random
import struct

import pytest

from stlctrl.autodiff import TANH, Tape, Var, tanh
from stlctrl import autodiff, plants, sampler
from stlctrl import policy as pol
from stlctrl.cli import (
    _load_checkpoint, bundled_names, load_scenario, resolve_scenario,
)
from stlctrl.plants import Plant, rollout
from stlctrl.policy import AdamState, Policy, adam_update, init, param_count
from stlctrl.sampler import build_sampled, state_adjoints


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
    # a next state that adds the action to a zero term: its gradient is
    # the action's at step k alone
    rng = random.Random(9)
    p = init([3, 5, 2], rng=rng)
    s, k = (0.3, -0.7), 2
    plant = Plant("expose", 2, 2, 1.0, lambda s, u, dt: (
        s[0] * 0.0 + u[0], s[1] * 0.0 + u[1]), lambda a: a)
    ref = rollout(plant, p, s, k + 1)
    st = build_sampled(ref, [0, k, k + 1], p, plant)
    s = ref.states[k]  # the forward's input at step k
    for idx in [0, 7, 19, len(p.theta) - 1]:
        g = st.grad([(0.0, 0.0), (1.0, 0.0)])[idx]
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


def _assert_kernel_matches_loop(p, rng, trials=3):
    n = p.state_dim
    for _ in range(trials):
        s = tuple(rng.uniform(-3, 3) for _ in range(n))
        k = rng.randrange(1, 20)
        assert list(map(_bits, p.forward(s, k))) == list(
            map(_bits, loop_forward(p, s, k)))
        # two forwards on one tape, as in a sampled trajectory
        if n:
            _assert_recorder_matches_loop(p, s, [0, k, k + 1])


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


def _probe(p):
    """A plant for p whose next state is 0.5 times the state plus, per
    entry d, action d mod m: an anchor's gradient shows an action's."""
    n, m = p.state_dim, p.action_dim
    return Plant("probe", n, m, 1.0, lambda s, u, dt: tuple(
        s[d] * 0.5 + u[d % m] for d in range(n)), lambda a: a)


def _assert_recorder_matches_loop(p, s, times):
    """A trajectory of _probe(p) from s, live at times: its anchors'
    values, and the gradients over theta and the start state of their
    first, middle and last entries, must be the same by build_sampled's
    adjoint and by the Var operators (oracle_sampled), bit for bit.
    Returns the sampled trajectory and oracle_sampled's (tape, theta,
    anchors)."""
    from tests.test_plants import (
        _bits as bits, adjoint_anchors, oracle_sampled, var_anchors,
    )
    plant = _probe(p)
    ref = rollout(plant, p, s, times[-1])
    st, oracle = (build_sampled(ref, times, p, plant),
                  oracle_sampled(ref, times, p, plant))
    seeds = range(len(p.theta) + len(s))
    some = sorted({0, len(s) // 2, len(s) - 1})  # the gradients of these
    assert bits(adjoint_anchors(st, some)) == bits(
        var_anchors(oracle[2], seeds, some))
    assert bits([ref.states[t] for t in times[1:]]) == bits(
        [[x.value for x in a] for a in oracle[2][1:]])
    return st, oracle


@pytest.mark.parametrize("widths,include_time,time_scale", _policy_configs())
def test_plain_forward_is_one_statement_per_neuron(widths, include_time,
                                                   time_scale):
    # per-operation statements made the forward 1.4-3x slower; in the
    # rollout loop's forward a neuron that only one neuron reads is folded
    # into that neuron's statement, and the trajectory kernel's forward
    # keeps each neuron's tanh, which its adjoint reads
    p = init(list(widths), scheme="zero", include_time=include_time)
    fn = sampler._kernels(_probe(p), p)[0]
    names = [v for v in fn.__code__.co_varnames if v[0] == "h"]
    assert len(names) == sum(widths[1:])
    ws = [(f"w{r}", None) for r in range(param_count(widths))]
    xs = [(f"x{i}", None) for i in range(widths[0] - include_time)]
    lines = pol.forward_source(widths, include_time, ws, xs)[0]
    folded = sum(w for w, nxt in zip(widths[1:-1], widths[2:]) if nxt == 1)
    assert len([ln for ln in lines if ln[0] == "h"]) == (
        sum(widths[1:]) - folded)


def test_forward_is_the_reference_loop_and_compiles_nothing(monkeypatch):
    def boom(*args):
        raise AssertionError("Policy.forward compiled a kernel")

    for module in (autodiff, plants, sampler):
        monkeypatch.setattr(module, "compile_kernel", boom)
    rng = random.Random(21)
    p = init([3, 13, 2], rng=rng, time_scale=0.1)
    s, k = (rng.uniform(-3, 3), rng.uniform(-3, 3)), 17
    assert list(map(_bits, p.forward(s, k))) == list(
        map(_bits, loop_forward(p, s, k)))
    assert not hasattr(pol, "compile_kernel")


def test_recorder_puts_theta_then_the_start_state_on_the_tape():
    # a differentiable rollout: theta's consts are the first nodes, the
    # start state's the next, then the recorded steps; seeds given as Vars
    # in any order read them, and their gradients are those of the adjoint
    # of the trajectory sampled at every step
    from tests.test_plants import adjoint_anchors, var_anchors
    p = init([3, 7, 2], rng=random.Random(17))
    _assert_recorder_matches_loop(p, (0.25, -0.5), [0, 2, 3, 7])
    run = rollout(_probe(p), p, (0.25, -0.5), 7, mode="differentiable")
    st = build_sampled(rollout(_probe(p), p, (0.25, -0.5), 7), range(8), p,
                       _probe(p))
    tape, theta, P = run.tape, run.theta_vars, len(p.theta)
    assert theta == range(P) and tape.vals[:P] == p.theta
    assert tape.vals[P:P + 2] == [0.25, -0.5]
    assert [x.i for x in run.states[0]] == [P, P + 1]
    order = list(range(P + 2))[::-1]
    y = run.states[-1][1]
    g = tape.backward(y, range(P + 2))
    assert tape.backward(y, [Var(tape, i) for i in order]) == [
        g[i] for i in order]
    assert adjoint_anchors(st) == var_anchors(run.states, range(P + 2))


def test_recorder_several_forwards_on_one_tape():
    # as in a sampled trajectory: each forward's inputs depend on the last
    p = init([3, 8, 2], rng=random.Random(18))
    _, (oracle, _, _) = _assert_recorder_matches_loop(
        p, (0.4, -0.7), [0, 1, 2, 3, 4])
    run = rollout(_probe(p), p, (0.4, -0.7), 4, mode="differentiable")
    # TANH: the Var operators' records, one per hidden neuron and step
    for tape in (oracle, run.tape):
        assert [r and r[0] for r in tape.recs].count(TANH) == 8 * 4


def test_recorder_rejects_before_writing(monkeypatch):
    # a live step whose raw action is not the reference's is rejected;
    # build_sampled makes no tape
    p = init([3, 4, 2], rng=random.Random(19))
    plant = _probe(p)
    ref = rollout(plant, p, (0.1, 0.5), 4)
    bad = plants.Rollout(ref.states, [*ref.raw_actions[:2], (0.0, 0.0),
                                      *ref.raw_actions[3:]])
    tapes = []
    monkeypatch.setattr(sampler, "Tape",
                        lambda: tapes.append(Tape()) or tapes[-1])
    for times in ([0, 2, 3], [0, 1, 2, 3, 4]):
        with pytest.raises(ValueError, match="raw action at step 2"):
            build_sampled(bad, times, p, plant)
    assert not tapes
    st = build_sampled(bad, [0, 1, 4], p, plant)  # step 2 frozen: its action
    assert st.times == [0, 1, 4] and not tapes


def test_recorder_gradients_bit_identical_to_the_loop():
    rng = random.Random(20)
    for widths in ([3, 20, 2], [4, 9, 9, 3]):
        p = init(widths, rng=rng)
        xs = tuple(rng.uniform(-1, 1) for _ in range(p.state_dim))
        st, (tape, theta, anchors) = _assert_recorder_matches_loop(
            p, xs, [0, 3, 4])

        def product(*states):
            y = states[-1][0]
            for v in states[-1][1:]:
                y = y * v
            return y

        # Tape.backward to the anchors, then the trajectory's adjoint
        adjs = state_adjoints(product, [st.args[1][t] for t in st.times[1:]])
        assert [_bits(g) for g in st.grad(adjs)] == [
            _bits(g) for g in tape.backward(product(*anchors[1:]), theta)]
