import copy
import math
import random
import struct

import pytest

from stlctrl import plants
from stlctrl.autodiff import (
    EvalError, Tape, Var, exp, ln, powc, value_of, vmax,
)
from stlctrl.plants import (
    DivergedRollout, InitialSet, Plant, builtin, corners_and_center,
    read_trace_csv, rollout, write_trace_csv,
)
from stlctrl.policy import Policy, init
from stlctrl.stl import (
    Affine, Always, And, Eventually, Named, Or, Pred, Trace, _kernel, horizon,
    robustness,
)


def test_builtin_names_and_dims():
    dims = {
        "dubins": (2, 2), "multi_dubins_10": (20, 20),
        "quad6_platform": (7, 4), "quad12": (12, 4),
        "integrator2d": (2, 2), "scalar_power": (1, 1),
    }
    for name, (n, m) in dims.items():
        p = builtin(name)
        assert (p.state_dim, p.action_dim) == (n, m)
    with pytest.raises(ValueError):
        builtin("pendulum")


def test_integrator_zero_dynamics():
    p = builtin("integrator2d")
    pol = init([3, 4, 2], scheme="zero")
    r = rollout(p, pol, (-1.0, -1.0), 10)
    assert all(s == (-1.0, -1.0) for s in r.states)


def test_dubins_speed_limits():
    p = builtin("dubins")
    v_hi, _ = p.squash((1e9, 0.0))
    v_lo, _ = p.squash((-1e9, 0.0))
    assert v_hi == pytest.approx(2.0)
    assert v_lo == pytest.approx(0.0, abs=1e-12)
    # squash leaves heading unbounded
    assert p.squash((0.0, 5.0))[1] == 5.0


def test_dubins_step_values():
    p = builtin("dubins")
    s = p.step((0.0, 0.0), (0.0, 0.5), 0)
    v = math.tanh(0.0) + 1.0
    assert s[0] == pytest.approx(0.1 * v * math.cos(0.5))
    assert s[1] == pytest.approx(0.1 * v * math.sin(0.5))


def test_quad12_zero_action_rotor_force():
    p = builtin("quad12")
    d = p.squash((0.0, 0.0, 0.0, 0.0))
    assert d == (0.5, 0.5, 0.5, 0.5)
    # hover check: at rest with half throttle, net vertical accel is
    # g - 4*k1*0.5/m = g(1 - 1.5) < 0 (upward in this frame)
    s0 = (0.0,) * 12
    s1 = p.step(s0, (0.0, 0.0, 0.0, 0.0), 0)
    accel = (s1[5] - 0.0) / p.dt
    assert accel == pytest.approx(9.81 - 4 * 0.75 * 1.4 * 9.81 * 0.5 / 1.4)


def test_quad6_input_bounds():
    p = builtin("quad6_platform")
    rng = random.Random(0)
    for _ in range(200):
        a = tuple(rng.uniform(-100, 100) for _ in range(4))
        u1, u2, u3, u4 = p.squash(a)
        assert -0.1 <= u1 <= 0.1
        assert -0.1 <= u2 <= 0.1
        assert 7.81 <= u3 <= 11.81
        assert -1.0 <= u4 <= 1.0


def test_integrator_saturation():
    p = builtin("integrator2d")
    u = p.squash((1e6, -1e6))
    assert math.hypot(*u) <= 4 * math.sqrt(2) + 1e-9
    assert u[0] == pytest.approx(4.0)
    assert u[1] == pytest.approx(-4.0)


def test_multi_dubins_is_ten_copies():
    p = builtin("multi_dubins_10")
    single = Plant("dubins", 2, 2, 0.26, plants._dubins_step,
                   plants._dubins_squash)
    s = tuple(random.Random(5).uniform(-1, 1) for _ in range(20))
    a = tuple(random.Random(6).uniform(-2, 2) for _ in range(20))
    got = p.step(s, a, 0)
    for i in range(10):
        want = single.step(s[2 * i:2 * i + 2], a[2 * i:2 * i + 2], 0)
        assert got[2 * i:2 * i + 2] == want
    assert p.dt == 0.26


def test_scalar_power_step():
    p = builtin("scalar_power")
    (x1,) = p.step((1.15,), (0.0,), 0)
    assert x1 == pytest.approx(0.8 * 1.15 ** 1.2 - 1.0)
    # strong input shrinks the subtracted term
    (x1b,) = p.step((1.15,), (100.0,), 0)
    assert x1b > x1


def test_plain_rollout_deterministic():
    p = builtin("dubins")
    pol = init([3, 8, 2], rng=random.Random(2))
    r1 = rollout(p, pol, (0.0, 0.0), 30)
    r2 = rollout(p, pol, (0.0, 0.0), 30)
    assert r1.states == r2.states
    assert r1.raw_actions == r2.raw_actions


def test_differentiable_matches_plain_bit_exact():
    for name, widths, s0 in [
        ("dubins", [3, 8, 2], (0.0, 0.0)),
        ("quad6_platform", [8, 6, 4], (-40.0, 0.0, 0.0, 0.0, 0.0, 0.0, 10.0)),
        ("quad12", [13, 6, 4], (0.05,) * 3 + (0.0,) * 9),
        ("scalar_power", [2, 1], (1.15,)),
    ]:
        p = builtin(name)
        pol = init(widths, rng=random.Random(4))
        plain = rollout(p, pol, s0, 12)
        diff = rollout(p, pol, s0, 12, mode="differentiable")
        assert [tuple(map(value_of, s)) for s in diff.states] == plain.states


def test_noisy_rollout_seeded():
    p = builtin("integrator2d")
    pol = init([3, 4, 2], rng=random.Random(1))
    r1 = rollout(p, pol, (-1.0, -1.0), 20,
                 noise=(0.0314, 0.0005, random.Random(99)))
    r2 = rollout(p, pol, (-1.0, -1.0), 20,
                 noise=(0.0314, 0.0005, random.Random(99)))
    assert r1.states == r2.states
    clean = rollout(p, pol, (-1.0, -1.0), 20)
    assert r1.states != clean.states
    assert r1.states[0] != (-1.0, -1.0)


def test_noisy_differentiable_matches_plain():
    p = builtin("integrator2d")
    pol = init([3, 4, 2], rng=random.Random(1))
    rng1, rng2 = random.Random(7), random.Random(7)
    r1 = rollout(p, pol, (-1.0, -1.0), 15, noise=(0.0314, 0.0005, rng1))
    r2 = rollout(p, pol, (-1.0, -1.0), 15, mode="differentiable",
                 noise=(0.0314, 0.0005, rng2))
    assert [tuple(map(value_of, s)) for s in r2.states] == r1.states
    # the same draws, so a trainer's later draws are the same too
    assert rng2.getstate() == rng1.getstate()


def test_rollout_gradient_finite_differences():
    p = builtin("dubins")
    pol = init([3, 4, 2], rng=random.Random(8))
    diff = rollout(p, pol, (0.0, 0.0), 2, mode="differentiable")
    out = diff.states[2][0]  # final x coordinate
    grads = diff.tape.backward(out, diff.theta_vars)
    h = 1e-6
    for idx in [0, 5, len(pol.theta) - 1]:
        hi = list(pol.theta)
        lo = list(pol.theta)
        hi[idx] += h
        lo[idx] -= h
        fx = rollout(p, pol.with_theta(hi), (0.0, 0.0), 2).states[2][0]
        gx = rollout(p, pol.with_theta(lo), (0.0, 0.0), 2).states[2][0]
        fd = (fx - gx) / (2 * h)
        assert grads[idx] == pytest.approx(fd, rel=1e-4, abs=1e-9)


def test_diverged_rollout_names_step():
    p = builtin("scalar_power")

    # raw dynamics with no control blow up once x goes past ~70
    pol = Policy([2, 1], theta=[0.0, 0.0, -100.0])
    with pytest.raises(DivergedRollout) as e:
        rollout(p, pol, (80.0,), 50)
    assert e.value.step >= 1


def test_initial_set():
    s = InitialSet((-0.1, -0.1), (0.1, 0.1), [(0.0, 0.0), (0.1, -0.1)])
    with pytest.raises(ValueError):
        InitialSet((-0.1,), (0.1,), [(0.5,)])
    with pytest.raises(ValueError):
        InitialSet((-0.1,), (0.1,), [])
    rng = random.Random(0)
    for _ in range(50):
        x, y = s.sample_uniform(rng)
        assert -0.1 <= x <= 0.1 and -0.1 <= y <= 0.1


def test_corners_and_center():
    pts = corners_and_center((-0.1, -0.1, -0.1, 0.0), (0.1, 0.1, 0.1, 0.0))
    assert len(pts) == 9
    assert pts[-1] == (0.0, 0.0, 0.0, 0.0)
    assert len(set(pts)) == 9
    # a point box is its one state, not that state twice
    assert corners_and_center([0.0, 1.0], [0.0, 1.0]) == [(0.0, 1.0)]


def test_trace_csv_roundtrip(tmp_path):
    p = builtin("dubins")
    pol = init([3, 4, 2], rng=random.Random(3))
    r = rollout(p, pol, (0.0, 0.0), 5)
    path = tmp_path / "trace.csv"
    write_trace_csv(path, r.states, r.raw_actions)
    header = path.read_text().splitlines()[0]
    assert header == "k,s_0,s_1,a_0,a_1"
    states = read_trace_csv(path)
    assert states == r.states


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "abc", ""])
def test_trace_csv_cell_that_is_no_finite_number_is_named(tmp_path, cell):
    # float() reads nan and inf, which monitored as a satisfied formula
    path = tmp_path / "trace.csv"
    path.write_text(f"k,s_0,s_1,a_0\n0,1.0,2.0,0.0\n1,1.0,{cell},\n")
    with pytest.raises(ValueError) as e:
        read_trace_csv(path)
    assert f"{path}: row 3 column s_1: {cell!r}" in str(e.value)


@pytest.mark.parametrize("text", ["", "\n", "k,s_0,a_0\n", "k,s_0,a_0\n\n"])
def test_trace_csv_that_holds_no_state_is_named(tmp_path, text):
    # an empty file raised StopIteration; a header alone read as no states
    path = tmp_path / "trace.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as e:
        read_trace_csv(path)
    assert str(e.value).startswith(f"{path}: no state ")


@pytest.mark.parametrize("grow", [lambda x: x * 1e4, lambda x: x + math.nan,
                                  lambda x: x - math.inf])
def test_diverged_rollout_same_on_plain_and_tape_paths(grow):
    p = Plant("blowup", 1, 1, 1.0, lambda s, u, dt: (grow(s[0]),), lambda a: a)
    pol = Policy([2, 1])
    errs = []
    for mode in ("plain", "differentiable"):
        with pytest.raises(DivergedRollout) as e:
            rollout(p, pol, (1.0,), 10, mode=mode)
        errs.append((e.value.step, str(e.value)))
    assert errs[0] == errs[1]


def test_rollout_checks_dims_at_entry():
    p = builtin("dubins")
    with pytest.raises(ValueError):
        rollout(p, init([3, 4, 1], scheme="zero"), (0.0, 0.0), 5)
    with pytest.raises(ValueError):
        rollout(p, init([3, 4, 2], scheme="zero"), (0.0,), 5)


# -- generated kernels against the generic Plant.step loop --------------------

def _bits(x):
    """x with every float replaced by its IEEE bytes, so nan and -0.0 compare."""
    if isinstance(x, float):
        return struct.pack("<d", x)
    if isinstance(x, (list, tuple)):
        return [_bits(y) for y in x]
    return x


def _generic_rollout(plant, policy, s0, K, noise=None):
    """The plain rollout as one Plant.step per step: (states, raw actions,
    noise offsets), or DivergedRollout."""
    s = tuple(float(x) for x in s0)
    c1, c2, rng = noise or (0.0, 0.0, None)
    if c2 != 0.0:
        s = tuple(x + c2 * rng.gauss(0.0, 1.0) for x in s)
    states, raw_actions, offsets = [s], [], [] if c1 != 0.0 else None
    for k in range(K):
        a = tuple(policy.forward(s, k))
        s = plant.step(s, a, k)
        if c1 != 0.0:
            off = tuple(c1 * rng.gauss(0.0, 1.0) for _ in s)
            s = tuple(x + o for x, o in zip(s, off))
            offsets.append(off)
        for x in s:
            if not abs(x) <= plants.DIVERGE_LIMIT:
                raise DivergedRollout(k + 1, x)
        states.append(s)
        raw_actions.append(a)
    return states, raw_actions, offsets


def rollout_with_offsets(plant, policy, s0, K, noise=None, mode="plain"):
    """(rollout(...), the noise offsets it added): the offsets are
    _generic_rollout's from a copy of noise's rng, whose states and raw
    actions must be the rollout's, bit for bit."""
    twin = noise and random.Random()
    if twin:
        twin.setstate(noise[2].getstate())
    states, acts, offsets = _generic_rollout(plant, policy, s0, K,
                                             noise and (*noise[:2], twin))
    run = rollout(plant, policy, s0, K, mode=mode, noise=noise)
    assert _bits([[value_of(x) for x in s] for s in run.states]) == _bits(
        [list(s) for s in states])
    assert _bits(run.raw_actions) == _bits(acts)
    return run, offsets


def oracle_sampled(ref, times, policy, plant, offsets=None):
    """The trajectory build_sampled(ref, times, policy, plant) samples, by
    the Var operators: (tape, theta's ids, anchors).  Plant.step at every step,
    its action at a live step the reference loop's on theta's Vars, or for
    an action table theta's own; offsets[k], _generic_rollout's noise
    offsets, are added after step k.  theta and then the start state are
    the first nodes on the tape."""
    from tests.test_policy import loop_forward
    tape = Tape()
    theta = tape.consts(policy.theta)
    th, live, m = [Var(tape, i) for i in theta], set(times), plant.action_dim
    cur = tuple(tape.const(x) for x in ref.states[0])
    anchors = [ref.states[0]]
    for k in range(times[-1]):
        a = (ref.raw_actions[k] if k not in live
             else loop_forward(policy, cur, k, theta=th)
             if isinstance(policy, Policy) else th[k * m:k * m + m])
        cur = plant.step(cur, a, k)
        if offsets:
            cur = tuple(x + o for x, o in zip(cur, offsets[k]))
        if k + 1 in live:
            anchors.append(cur)
    return tape, theta, anchors


def adjoint_anchors(st, entries=None):
    """Each entry (those at the indices entries, if given) of each anchor
    after the start state of the sampled trajectory st, as (value,
    gradient over theta and the start state): st.adjoint run on a unit
    adjoint at that entry, laid out as grad lays out its adjoints, after
    the slots of theta and the start state."""
    th, states = st.args[:2]
    n, start = len(states[0]), len(th) + len(states[0])
    out = []
    for j, t in enumerate(st.times[1:]):
        out.append([])
        for d in range(n) if entries is None else entries:
            adj = [0.0] * (start + n * (len(st.times) - 1))
            adj[start + j * n + d] = 1.0
            st.adjoint(adj, start, st.args)
            out[-1].append((states[t][d], adj[:start]))
    return out


def var_anchors(anchors, seeds, entries=None):
    """adjoint_anchors' list for anchors of Vars (oracle_sampled's, or a
    differentiable rollout's states): each entry's value and its gradient
    over seeds, a float entry's zero."""
    return [[(value_of(x), x.tape.backward(x, seeds) if isinstance(x, Var)
              else [0.0] * len(seeds))
             for x in (a if entries is None else [a[d] for d in entries])]
            for a in anchors[1:]]


def _outcome(run, rng):
    """What a rollout left behind, diverged or not, with the rng's state."""
    try:
        got = run()
    except DivergedRollout as e:
        got = ("diverged", e.step, str(e))
    else:
        got = (([tuple(map(value_of, s)) for s in got.states], got.raw_actions)
               if isinstance(got, plants.Rollout)
               else got[:2])  # _generic_rollout's, without its offsets
    return _bits(got), rng.getstate() if rng else None


# (plant, widths, s0, scale of theta); the larger scales make some rollouts
# diverge
_PLANT_CASES = [
    ("dubins", [3, 20, 2], (0.0, 0.0), 1.0),
    ("multi_dubins_10", [21, 40, 20], tuple(0.1 * i for i in range(20)), 1.0),
    ("quad6_platform", [8, 20, 20, 10, 4],
     (-40.0, 0.0, 0.0, 0.0, 0.0, 0.0, 10.0), 1.0),
    ("quad12", [13, 8, 4], (0.05,) * 3 + (0.0,) * 9, 0.5),
    ("quad12", [13, 8, 4], (0.05,) * 3 + (0.0,) * 9, 3.0),
    ("integrator2d", [3, 6, 2], (-1.0, -1.0), 1.0),
    ("scalar_power", [2, 3, 1], (1.15,), 1.0),
    ("scalar_power", [2, 3, 1], (60.0,), 1.0),
]


def _recorded(plant, policy, s0, K, noise=None):
    return rollout(plant, policy, s0, K, mode="differentiable", noise=noise)


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("name,widths,s0,scale", _PLANT_CASES)
def test_fused_loop_matches_generic_loop(name, widths, s0, scale, noisy):
    # the differentiable rollout too: the same values, or a divergence at
    # the same step with the same message, and the rng left where the
    # plain run leaves it
    plant = builtin(name)
    for seed in range(2):
        pol = init(widths, rng=random.Random(seed))
        pol = pol.with_theta([w * scale for w in pol.theta])
        runs = []
        for fn in (rollout, _generic_rollout, _recorded):
            rng = random.Random(seed + 7)
            noise = (0.03, 0.002, rng) if noisy else None
            runs.append(_outcome(lambda: fn(plant, pol, s0, 40, noise=noise),
                                 rng))
        assert runs[0] == runs[1] == runs[2]


def _inline_cases():
    """(plant, policy, s0) of every bundled scenario's seeded net, and of
    [21,40,20] and [3,100,100,2] (10,702 weights)."""
    from stlctrl.cli import bundled_names, load_scenario, resolve_scenario
    for name in bundled_names():
        sc = load_scenario(resolve_scenario(name))
        if sc.policy_cfg:
            yield name, sc.plant, sc.build_policy(random.Random(sc.seed)), \
                sc.init_set.samples[0]
    yield "wide", builtin("multi_dubins_10"), init(
        [21, 40, 20], rng=random.Random(3)), tuple(0.1 * i for i in range(20))
    yield "deep", builtin("dubins"), init(
        [3, 100, 100, 2], rng=random.Random(4)), (0.5, -0.5)


@pytest.mark.parametrize("noisy", [False, True])
def test_fused_loop_inlines_every_policy_forward(noisy):
    # the rollout never calls Policy.forward, for a net of any size, and
    # runs the interpreted forward's arithmetic
    from tests.test_policy import loop_forward

    def boom(s, k):
        raise AssertionError("the closed loop called forward")

    for name, plant, pol, s0 in _inline_cases():
        oracle = Policy(pol.widths, pol.theta, pol.include_time,
                        pol.time_scale)
        oracle.forward = lambda s, k, pol=pol: loop_forward(pol, s, k)
        pol.forward = boom
        runs = []
        for fn, p in ((rollout, pol), (_generic_rollout, oracle)):
            rng = random.Random(5)
            noise = (0.03, 0.002, rng) if noisy else None
            runs.append(_outcome(lambda: fn(plant, p, s0, 30, noise=noise),
                                 rng))
        assert runs[0] == runs[1], name


@pytest.mark.parametrize("noisy", [False, True])
def test_only_weights_need_extended_args_in_the_loop(noisy):
    # [21,40,20] has 1700 weights: the step's locals come first, so in the
    # loop body no local but a weight has a slot past 255 (an EXTENDED_ARG)
    import dis
    pol = init([21, 40, 20], rng=random.Random(3))
    code = plants._closed_loop(builtin("multi_dubins_10"), pol, noisy).__code__
    body = list(dis.get_instructions(code))
    body = body[next(i for i, ins in enumerate(body)
                     if ins.opname == "FOR_ITER"):]
    far = {ins.argval for ins in body
           if ins.opcode in dis.haslocal and ins.arg > 255}
    assert far and all(x[0] == "w" and x[1:].isdigit() for x in far), far


def test_fused_loop_calls_an_open_loop_policy():
    from stlctrl.trainer import _OpenLoop
    plant = builtin("quad6_platform")
    rng = random.Random(3)
    ol = _OpenLoop([[rng.uniform(-3, 3) for _ in range(4)] for _ in range(15)])
    s0 = (-40.0, 0.0, 0.0, 0.0, 0.0, 0.0, 10.0)
    for c1 in (0.0, 0.03):
        want = _generic_rollout(plant, ol, s0, 15,
                                noise=(c1, 0.0, random.Random(1)))
        got = rollout(plant, ol, s0, 15, noise=(c1, 0.0, random.Random(1)))
        assert _bits(want[:2]) == _bits((got.states, got.raw_actions))
    with pytest.raises(ValueError, match="actions end"):
        rollout(plant, ol, s0, 16)


def test_kernels_are_generated_per_dt():
    pol = init([3, 4, 2], rng=random.Random(1))
    slow = builtin("dubins")
    fast = Plant("dubins", 2, 2, 0.26, plants._dubins_step,
                 plants._dubins_squash)
    got = [rollout(p, pol, (0.0, 0.0), 6).states for p in (slow, fast, slow)]
    assert got[0] == got[2] != got[1]
    assert _bits(got[1]) == _bits(_generic_rollout(fast, pol, (0.0, 0.0), 6)[0])


def test_rollout_rejects_a_policy_for_other_states():
    p = builtin("quad6_platform")
    s0 = (0.0,) * 7
    for widths in ([7, 4], [9, 4]):
        with pytest.raises(ValueError, match="state dim"):
            rollout(p, init(widths, scheme="zero"), s0, 3)


def _one_trajectory(plant, s, acts, times):
    """Each anchor entry of an open-loop trajectory from s over the raw
    actions acts (states by Plant.step on floats), live at times, as its
    value and its gradient over the actions and the start state, in bytes:
    (build_sampled's by its adjoint, the Var operators' step by step; a
    float entry's gradient is zero)."""
    from stlctrl.sampler import build_sampled
    from stlctrl.trainer import _OpenLoop
    ol, states = _OpenLoop([list(a) for a in acts]), [tuple(s)]
    for a in acts:
        states.append(tuple(plant.step(states[-1], a, 0)))
    ref = plants.Rollout(states, [tuple(a) for a in acts])
    seeds = range(len(acts) * plant.action_dim + plant.state_dim)
    return [_bits(adjoint_anchors(build_sampled(ref, times, ol, plant))),
            _bits(var_anchors(oracle_sampled(ref, times, ol, plant)[2],
                              seeds))]


def _assert_recorder_matches_var_operators(plant, s, a, a0=None):
    """A step over the raw action a from s, live (a Var action) and frozen
    (a float action, after a live step over a0 to s), against the Var
    operators."""
    got, want = _one_trajectory(plant, s, [a], [0, 1])
    assert got == want
    if a0 is not None:
        got, want = _one_trajectory(plant, s, [a0, a], [0, 2])
        assert got == want


@pytest.mark.parametrize("name,widths,s0,scale", _PLANT_CASES[:-1])
def test_step_recorder_matches_var_operators(name, widths, s0, scale):
    plant = builtin(name)
    n, m = plant.state_dim, plant.action_dim
    rng = random.Random(5)
    a, a0 = (tuple(rng.uniform(-2, 2) for _ in range(m)) for _ in "aa")
    _assert_recorder_matches_var_operators(plant, s0, a, a0)


def test_step_recorder_scalar_power_max_tie_and_power():
    # x == 1e-3 ties vmax(x, 1e-3): backward splits on the MAX2 record's
    # operand order, so lhs/rhs must be the Var path's
    plant = builtin("scalar_power")
    for x in (1e-3, -2.0, 1.15, 0.0):
        _assert_recorder_matches_var_operators(plant, (x,), (0.7,), (0.7,))
    from stlctrl.sampler import build_sampled
    from stlctrl.trainer import _OpenLoop
    ref = plants.Rollout([(1e-3,), plant.step((1e-3,), (0.2,), 0)], [(0.2,)])
    [[(_, g)]] = adjoint_anchors(build_sampled(ref, [0, 1],
                                               _OpenLoop([[0.2]]), plant))
    assert g[1] == pytest.approx(0.5 * 0.8 * 1.2 * 1e-3 ** 0.2)  # over s0


@pytest.mark.parametrize("fn", [
    lambda s, u, dt: (s[0] + math.nan,), lambda s, u, dt: (s[0] - math.inf,),
    lambda s, u, dt: (math.inf * u[0] + s[0],),
    lambda s, u, dt: (-s[0], u[0] - s[0]),
    # outputs that read a state through a zero term
    lambda s, u, dt: (s[1] + 0.0, 2.0 + 0.0 * s[0]),
    # float on the left of a Var: the Var becomes lhs when u is frozen
    lambda s, u, dt: (vmax(u[0], s[0]) + u[0] * s[1], vmax(u[0], s[1])),
    lambda s, u, dt: (u[0] - s[0], u[0] / s[1] + exp(u[0] + s[0])),
])
def test_step_recorder_constants_and_operand_order(fn):
    n = len(fn((1.0, 1.0), (1.0,), 1.0))
    plant = Plant("consts", n, 1, 1.0, fn, lambda a: a)
    s = (0.5, -0.25)[:n]
    _assert_recorder_matches_var_operators(plant, s, (0.75,), (0.5,))
    pol = Policy([n + 1, 1], theta=[0.5] * (n + 1) + [0.1])
    runs = [_outcome(lambda: f(plant, pol, s, 4), None)
            for f in (rollout, _generic_rollout)]
    assert runs[0] == runs[1]


def test_step_recorder_keeps_the_var_operand_first():
    # max(0.0, -0.0) is 0.0 and max(-0.0, 0.0) is -0.0: the rollout
    # computes max(u, s), and the anchors are its states; a frozen step's
    # adjoint reads the Var operators' max(s, u), whose tie at u == s
    # sends s half its adjoint
    plant = Plant("zeros", 2, 1, 1.0, lambda s, u, dt: (
        vmax(u[0], s[0]), vmax(u[0], s[1])), lambda a: a)
    s = (-0.0, 0.0)
    got, want = _one_trajectory(plant, s, [(0.0,)], [0, 1])
    assert got == want
    for times in ([0, 1, 2], [0, 2]):
        got, want = _one_trajectory(plant, s, [(0.0,), (0.0,)], times)
        assert [[x[0] for x in a] for a in got] == _bits([[0.0, 0.0]] * (
            len(times) - 1))
        assert [[x[1] for x in a] for a in got] == [
            [x[1] for x in a] for a in want]


@pytest.mark.parametrize("fn,s,a", [
    (lambda s, u, dt: (s[0] + u[0] / s[0],), 0.0, 1.0),
    (lambda s, u, dt: (s[0] * u[0] + 1.0 / (s[0] - 0.5),), 0.5, 1.0),
    (lambda s, u, dt: (u[0] + ln(s[0] * 2.0),), -1.0, 1.0),
    (lambda s, u, dt: (u[0] * powc(s[0] + 0.0, 0.5),), -3.0, 1.0),
])
def test_step_recorder_guards_write_nothing(fn, s, a):
    # build_sampled steps nothing; the trajectory's adjoint recomputes a
    # step from the reference's floats, behind the Var operators' guards,
    # as EvalError at grad's first anchor slot, and changes nothing of the
    # trajectory
    from stlctrl.sampler import build_sampled
    from stlctrl.trainer import _OpenLoop
    plant = Plant("guarded", 1, 1, 1.0, fn, lambda a: a)
    errs = []
    for step in (lambda tape, s, a: plant.step(s, a, 0),):
        for var_a in (True, False):
            tape = Tape()
            tape.const(9.0)
            with pytest.raises(EvalError) as e:
                step(tape, (tape.const(s),), (tape.const(a) if var_a else a,))
            errs.append(str(e.value).split(": ", 1)[1])
    # live at step 0, or frozen at step 1 after a live step from 1.0
    for states, acts, times in (([(s,), (0.0,)], [(a,)], [0, 1]),
                                ([(1.0,), (s,), (0.0,)], [(a,), (a,)], [0, 2])):
        st = build_sampled(plants.Rollout(states, acts), times,
                           _OpenLoop([list(x) for x in acts]), plant)
        args = copy.deepcopy(st.args)
        with pytest.raises(EvalError) as e:
            st.grad([(1.0,)])
        assert st.args == args
        assert e.value.node_id == len(acts) + 1  # after theta's and s0's
        assert str(e.value).split(": ", 1)[1] in errs
    # the plain loop fails before it draws the step's noise
    rngs = []
    for run in (rollout, _generic_rollout):
        rngs.append(random.Random(2))
        with pytest.raises((ValueError, ZeroDivisionError)):
            run(plant, Policy([2, 1], theta=[0.0, 0.0, a]), (s,), 1,
                noise=(0.1, 0.0, rngs[-1]))
    assert rngs[0].getstate() == rngs[1].getstate() == random.Random(2).getstate()


@pytest.mark.parametrize("name,loops", [
    ("dubins", False), ("multi_dubins_10", False), ("quad6_platform", False),
    ("quad12", True), ("integrator2d", False), ("scalar_power", True),
])
def test_each_builtin_plant_generates_both_recorders_once(name, loops):
    # one build and one adjoint kernel per (plant, controller), from the
    # noise-free trace; the adjoint recomputes a frozen step from the
    # reference's floats only where it reads the step's locals
    from stlctrl.sampler import _kernels
    pol = init([builtin(name).state_dim + 1, 3, builtin(name).action_dim],
               scheme="zero")
    build, adjoint = _kernels(builtin(name), pol)
    assert (build, adjoint) == _kernels(builtin(name), pol.with_theta(
        [1.0] * len(pol.theta)))
    assert build is not adjoint
    assert loops == ("j" in adjoint.__code__.co_varnames)


def test_plant_recorders_reject_a_state_from_another_tape():
    # the states of two differentiable rollouts are on two tapes: an
    # objective that mixes them, or a backward seeded on the other tape,
    # is rejected before anything is pushed
    from stlctrl.smooth import softmax_lb, softmin
    plant = builtin("dubins")
    pol = init([3, 4, 2], rng=random.Random(1))
    r1, r2 = (rollout(plant, pol, (0.0, 0.0), K, mode="differentiable")
              for K in (6, 3))
    t1, t2 = r1.tape, r2.tape
    own, other = r1.states[2][0], r2.states[3][0]
    calls = [lambda: own + other, lambda: softmin([own, other], 5.0),
             lambda: softmax_lb([0.5, own, own, other], 5.0),
             lambda: t1.backward(own, [other])]
    for call in calls:
        sizes = [len(t) for t in (t1, t2)]
        with pytest.raises(ValueError) as e:
            call()
        assert str(e.value) in ("operands recorded on different tapes",
                                "seed not on this tape")
        assert [len(t) for t in (t1, t2)] == sizes
    # a state on its own tape is recorded as before
    assert isinstance(own + own, Var) and len(t1) == sizes[0] + 1



# -- the watch: a rollout stopped at the first state that proves rho < floor --

def _through_step(s, u, dt):
    return tuple(u)


def _through_squash(a):
    return a


class _Rows:
    """A controller whose raw action at step k is rows[k]."""

    theta = ()

    def __init__(self, rows):
        self.rows, self.action_dim = rows, len(rows[0])

    def forward(self, s, k):
        return self.rows[k]


def _table(states):
    """(plant, policy, s0, K) whose plain rollout is states: the plant's
    next state is the raw action, the next state's row."""
    n = len(states[0])
    return (Plant(f"through{n}", n, n, 1.0, _through_step, _through_squash),
            _Rows(states[1:] or [states[0]]), states[0], len(states) - 1)


def watched(f):
    """f's watched conjuncts, read off the tree: a G[a,b] over an Affine
    predicate or an And/Or of Affine predicates that is f or a child of
    f's root And."""
    def affine(g):
        return isinstance(g, Pred) and isinstance(g.h, Affine)

    return [g for g in (f.children if isinstance(f, And) else (f,))
            if isinstance(g, Always) and (affine(g.child) or isinstance(
                g.child, (And, Or)) and all(map(affine, g.child.children)))]


def first_stop(f, states, floor):
    """The first time at which a watched conjunct's builtin min over its
    rows so far is below floor, or None."""
    stops = []
    for g in watched(f):
        phi, r = g.child, None
        for t in range(g.a, min(g.b, len(states) - 1) + 1):
            v = (phi.h.eval(states[t]) if isinstance(phi, Pred) else
                 (max if isinstance(phi, Or) else min)(
                     c.h.eval(states[t]) for c in phi.children))
            r = v if t == g.a else min(r, v)
            if r < floor:
                stops.append(t)
                break
    return min(stops, default=None)


def floors(f, states):
    """rho, its neighbouring floats and rho +- 1 for f's robustness and
    each watched conjunct's over states, then +-inf and NaN."""
    rhos = [robustness(g, Trace(states)) for g in [f, *watched(f)]]
    return [x for rho in rhos for x in (
        rho, math.nextafter(rho, math.inf), math.nextafter(rho, -math.inf),
        rho + 1.0, rho - 1.0)] + [math.inf, -math.inf, math.nan]


def assert_watched(plant, policy, s0, K, f, floor):
    """The watched run is the plain run, states and raw actions bit for
    bit, unless the plain run has a first stop t (first_stop): then it is
    None, robustness >= floor is false, and the watched run of t steps
    stops while that of t - 1 steps does not.  True if it stopped."""
    watch = (f, floor)
    try:
        plain = rollout(plant, policy, s0, K)
        t = first_stop(f, plain.states, floor)
    except DivergedRollout as e:  # stopped before, or diverged at e.step
        plain = None
        t = first_stop(f, rollout(plant, policy, s0, e.step - 1).states,
                       floor)
        if t is None:
            with pytest.raises(DivergedRollout):
                rollout(plant, policy, s0, K, watch=watch)
            return False
    run = rollout(plant, policy, s0, K, watch=watch)
    if t is None:
        assert _bits([run.states, run.raw_actions]) == _bits(
            [plain.states, plain.raw_actions]), (f, floor)
        return False
    assert run is None, (f, floor, t)
    assert plain is None or not robustness(f, Trace(plain.states)) >= floor
    assert rollout(plant, policy, s0, t, watch=watch) is None, (f, floor, t)
    if t:
        prefix = rollout(plant, policy, s0, t - 1, watch=watch)
        assert _bits(prefix.states) == _bits(rollout(
            plant, policy, s0, t - 1).states), (f, floor, t)
    return True


def test_watched_rollouts_of_bundled_scenarios():
    # each scenario's seeded controller and a perturbed one, at floors on
    # both sides of rho and of each watched conjunct's value:
    # scalar_power's G[6,50] starts after time 0, quad6_platform's first
    # conjunct is watched, dubins' second; quad12's perturbed run diverges
    from stlctrl.cli import bundled_names, load_scenario, resolve_scenario
    stopped = kept = 0
    for name in bundled_names():
        sc = load_scenario(resolve_scenario(name))
        f, K, s0 = sc.formula, horizon(sc.formula), sc.init_set.samples[0]
        pol, rng = sc.build_policy(random.Random(sc.seed)), random.Random(3)
        for scale in (0.0, 0.3) if K < 1000 else (0.0,):
            p = pol.with_theta([w + rng.gauss(0.0, scale) for w in pol.theta])
            try:
                states = rollout(sc.plant, p, s0, K).states
            except DivergedRollout:
                states = [s0] * (K + 1)
            for floor in floors(f, states):
                got = assert_watched(sc.plant, p, s0, K, f, floor)
                stopped, kept = stopped + got, kept + (not got)
    assert stopped > 100 and kept > 100


def test_watched_rollouts_of_the_corpus():
    # random formulas, and reach-avoid ones, whose guarded conjuncts are
    # all watched, each rolled out as a table of its trace
    from tests.test_stl import CORPUS, reach_avoid
    rng = random.Random(17)
    cases = list(CORPUS)
    for _ in range(150):
        dim = rng.randint(1, 3)
        f = reach_avoid(rng, dim)
        cases.append((f, [tuple(rng.uniform(-3, 3) for _ in range(dim))
                          for _ in range(horizon(f) + rng.randint(1, 3))]))
    stopped = 0
    for f, states in cases:
        for floor in floors(f, states):
            stopped += assert_watched(*_table(states), f, floor)
    assert stopped > 500


def _p(c, d=0.0):
    return Pred(Affine(tuple(c), d))


_INF_PRED = _p([math.inf])  # inf * 0.0 is NaN, inf * -1.0 is -inf

_CRAFTED = {  # name: (formula, states, whether some floor stops the run)
    # a NaN first row keeps the conjunct out, later or first
    "nan_first": (And((_p([1.0]), Always(0, 3, _INF_PRED))),
                  [0.0, -1.0, 2.0, -1.0], False),
    "nan_first_in_first_place": (And((Always(0, 3, _INF_PRED),
                                      _p([1.0], 5.0))),
                                 [0.0, -1.0, 2.0, -1.0], False),
    # a later NaN row replaces nothing; -inf after it does
    "nan_later": (And((_p([0.0], 1.0), Always(0, 3, _INF_PRED))),
                  [1.0, 0.0, 2.0, -1.0], True),
    # ties of 0.0 and -0.0: the first row's zero is kept
    "signed_zeros": (And((_p([0.0], 1.0), Always(0, 3, Or((
        _p([1.0], -0.0), _p([-1.0], -0.0)))))), [0.0, -0.0, -0.0, 0.0], True),
    "signed_zeros_and": (Always(0, 3, And((_p([1.0], -0.0),
                                           _p([1.0, 1.0], -0.0)))),
                         [(-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0), (0.0, 0.0)],
                         True),
    # a window after time 0, a root G, windows of one row
    "late_window": (And((_p([0.0], 9.0), Always(2, 4, Or((
        _p([1.0]), _p([-1.0], -4.0)))))), [-5.0, -4.0, 3.0, 1.0, 2.0, -3.0],
        True),
    "root_g": (Always(1, 3, Or((_p([1.0, 0.0], -1.0), _p([0.0, 2.0])))),
               [(5.0, -5.0), (2.0, 1.0), (0.5, 0.1), (3.0, -1.0), (0.0, 0.0)],
               True),
    "one_row": (And((Always(2, 2, _p([1.0])), Always(2, 2, _p([-1.0])))),
                [0.0, 5.0, -2.0, 7.0], True),
}


@pytest.mark.parametrize("name", _CRAFTED)
def test_watched_rollouts_of_crafted_cases(name):
    f, states, stops = _CRAFTED[name]
    states = [s if isinstance(s, tuple) else (s,) for s in states]
    got = [assert_watched(*_table(states), f, floor)
           for floor in floors(f, states) + [0.0, -0.0, 0.5, -0.5, 1.5]]
    assert any(got) == stops and not all(got)


def test_watched_or_rows_keep_a_nan_first_row_out():
    # a later Or row below the floor (-0.5 at time 1) stops nothing after
    # a NaN first row, which builtin min keeps: rho is the first child's
    f = And((_p([1.0]), Always(0, 3, Or((_INF_PRED, _p([1.0], 0.5))))))
    states = [(0.0,), (-1.0,), (2.0,), (-1.0,)]
    assert robustness(f, Trace(states)) == 0.0
    for floor in floors(f, states) + [0.0, -0.25, 1.5]:
        assert not assert_watched(*_table(states), f, floor), floor


def test_unwatched_formulas_roll_out_in_full():
    # an Or root, Named predicates, F, and G over a temporal operator or a
    # mix of Named and Affine predicates are never watched: even a floor
    # of inf leaves the plain run, and no kernel is compiled for them
    named = Pred(Named("x", lambda s: s[0]))
    g = Always(0, 2, _p([1.0]))
    formulas = [Or((g, g)), Always(0, 2, named),
                And((named, Always(0, 2, Or((named, _p([1.0])))))),
                Eventually(0, 2, _p([1.0])),
                Always(0, 2, Always(0, 1, g.child)),
                And((Or((g, _p([1.0]))), Eventually(1, 2, g)))]
    states = [(-1.0,), (-2.0,), (-3.0,), (-4.0,), (-5.0,)]
    plant, pol, s0, K = _table(states)
    rollout(plant, pol, s0, K)
    kernels = len(plants._traced(plant)[1])
    for f in formulas:
        assert _kernel(f, None, 0, "watch") == () and watched(f) == [], f
        assert rollout(plant, pol, s0, K, watch=(f, math.inf)).states == states
    assert len(plants._traced(plant)[1]) == kernels
    assert _kernel(And((named, g)), None, 0, "watch") != ()


def test_watch_needs_a_plain_noise_free_run_over_the_formulas_coordinates():
    plant, pol, s0, K = _table([(0.0,), (1.0,)])
    f = Always(0, 1, _p([1.0]))
    with pytest.raises(ValueError, match="plain, without per-step noise"):
        rollout(plant, pol, s0, K, mode="differentiable", watch=(f, 0.0))
    with pytest.raises(ValueError, match="plain, without per-step noise"):
        rollout(plant, pol, s0, K, noise=(0.1, 0.0, random.Random(1)),
                watch=(f, 0.0))
    with pytest.raises(ValueError, match="reads x1, past plant through1"):
        rollout(plant, pol, s0, K, watch=(Always(0, 1, _p([0.0, 1.0])), 0.0))


def test_watched_loop_keeps_far_slots_for_weights():
    # multi_dubins_10's 45 watched pairs add locals to the [21,40,20] loop:
    # they come before the weights, so only weights need an EXTENDED_ARG
    import dis
    from stlctrl.cli import load_scenario, resolve_scenario
    sc = load_scenario(resolve_scenario("multi_dubins_10"))
    pol = init([21, 40, 20], rng=random.Random(3))
    code = plants._closed_loop(sc.plant, pol, False, _kernel(
        sc.formula, None, 0, "watch")).__code__
    body = list(dis.get_instructions(code))
    body = body[next(i for i, ins in enumerate(body)
                     if ins.opname == "FOR_ITER"):]
    far = {ins.argval for ins in body
           if ins.opcode in dis.haslocal and ins.arg > 255}
    assert far and all(x[0] == "w" and x[1:].isdigit() for x in far), far
    assert sum(x[0] == "r" for x in code.co_varnames) == 45
