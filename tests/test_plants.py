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
    read_trace_csv, rollout, run_recorder, step_recorder, write_trace_csv,
)
from stlctrl.policy import Policy, init


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


def _outcome(run, rng):
    """What a rollout left behind, diverged or not, with the rng's state."""
    try:
        got = run()
    except DivergedRollout as e:
        got = ("diverged", e.step, str(e))
    else:
        if isinstance(got, plants.Rollout):
            got = (got.states, got.raw_actions, got.noise_offsets)
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


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("name,widths,s0,scale", _PLANT_CASES)
def test_fused_loop_matches_generic_loop(name, widths, s0, scale, noisy):
    plant = builtin(name)
    for seed in range(2):
        pol = init(widths, rng=random.Random(seed))
        pol = pol.with_theta([w * scale for w in pol.theta])
        runs = []
        for fn in (rollout, _generic_rollout):
            rng = random.Random(seed + 7)
            noise = (0.03, 0.002, rng) if noisy else None
            runs.append(_outcome(lambda: fn(plant, pol, s0, 40, noise=noise),
                                 rng))
        assert runs[0] == runs[1]


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
        assert _bits(want) == _bits((got.states, got.raw_actions,
                                     got.noise_offsets))
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


def _recorded(step, s, a, var_a, prefix=3):
    """The next state of one step on a tape that already holds a few nodes,
    states Vars, raw actions Vars if var_a: per entry its value and its
    gradient over the Var inputs (a float's is zero), as bytes."""
    tape = Tape()
    for i in range(prefix):
        tape.const(0.5 * i)
    s = tuple(map(tape.const, s))
    a = tuple(map(tape.const, a)) if var_a else a
    nxt = step(tape, s, a)
    seeds = [x for x in (*s, *a) if isinstance(x, Var)]
    return [_bits((x.value, tape.backward(x, seeds)) if isinstance(x, Var)
                  else (x, [0.0] * len(seeds))) for x in nxt]


def _var_step(plant):
    """The Var operators, interpreted: Plant.step."""
    return lambda tape, s, a: plant.step(s, a, 0)


def run_end(plant, s, acts):
    """The state as floats that a run of steps over the raw actions acts
    reaches from s: Plant.step on floats, run_recorder's end."""
    s = tuple(map(value_of, s))
    for a in acts:
        s = plant.step(s, a, 0)
    return s


def _one_step_run(plant):
    """A frozen step: run_recorder over the one raw action a."""
    run = run_recorder(plant)

    def step(tape, s, a):
        try:
            end = run_end(plant, s, [a])
        except (ArithmeticError, ValueError):
            end = None  # the guarded local is kept per step, so it loops
        return run(tape, s, [a], end)

    return step


def _assert_recorder_matches_var_operators(plant, s, a):
    """A live step (step_recorder, Var actions) and a frozen one (a run of
    one float action) against the Var operators."""
    for var_a, record in ((True, step_recorder(plant)),
                          (False, _one_step_run(plant))):
        want = _recorded(_var_step(plant), s, a, var_a)
        assert _recorded(record, s, a, var_a) == want, var_a


@pytest.mark.parametrize("name,widths,s0,scale", _PLANT_CASES[:-1])
def test_step_recorder_matches_var_operators(name, widths, s0, scale):
    plant = builtin(name)
    n, m = plant.state_dim, plant.action_dim
    rng = random.Random(5)
    a = tuple(rng.uniform(-2, 2) for _ in range(m))
    _assert_recorder_matches_var_operators(plant, s0, a)


def test_step_recorder_scalar_power_max_tie_and_power():
    # x == 1e-3 ties vmax(x, 1e-3): backward splits on the MAX2 record's
    # operand order, so lhs/rhs must be the Var path's
    plant = builtin("scalar_power")
    for x in (1e-3, -2.0, 1.15, 0.0):
        _assert_recorder_matches_var_operators(plant, (x,), (0.7,))
    tape = Tape()
    x = tape.const(1e-3)
    (y,) = step_recorder(plant)(tape, (x,), (tape.const(0.2),))
    # one block, its output the only node it pushes
    assert len(tape.blocks) == 1 and tape.recs == [None] * 3
    g = tape.backward(y, [x])[0]
    assert g == pytest.approx(0.5 * 0.8 * 1.2 * 1e-3 ** 0.2)


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
    _assert_recorder_matches_var_operators(plant, s, (0.75,))
    pol = Policy([n + 1, 1], theta=[0.5] * (n + 1) + [0.1])
    runs = [_outcome(lambda: f(plant, pol, s, 4), None)
            for f in (rollout, _generic_rollout)]
    assert runs[0] == runs[1]


def test_step_recorder_keeps_the_var_operand_first():
    # max(0.0, -0.0) is 0.0 and max(-0.0, 0.0) is -0.0: with a frozen u,
    # vmax(u, s) computes max(s, u), as the Var operators put the Var first
    plant = Plant("zeros", 2, 1, 1.0, lambda s, u, dt: (
        vmax(u[0], s[0]), vmax(u[0], s[1])), lambda a: a)
    _assert_recorder_matches_var_operators(plant, (-0.0, 0.0), (0.0,))
    tape = Tape()
    nxt = _one_step_run(plant)(tape, (tape.const(-0.0), tape.const(0.0)),
                               (-0.0,))
    assert _bits([x.value for x in nxt]) == _bits([-0.0, 0.0])


@pytest.mark.parametrize("fn,s,a", [
    (lambda s, u, dt: (s[0] + u[0] / s[0],), 0.0, 1.0),
    (lambda s, u, dt: (s[0] * u[0] + 1.0 / (s[0] - 0.5),), 0.5, 1.0),
    (lambda s, u, dt: (u[0] + ln(s[0] * 2.0),), -1.0, 1.0),
    (lambda s, u, dt: (u[0] * powc(s[0] + 0.0, 0.5),), -3.0, 1.0),
])
def test_step_recorder_guards_write_nothing(fn, s, a):
    plant = Plant("guarded", 1, 1, 1.0, fn, lambda a: a)
    errs = []
    for var_a in (True, False):
        for step in (_var_step(plant), step_recorder(plant) if var_a
                     else _one_step_run(plant)):
            tape = Tape()
            tape.const(9.0)
            ins = ((tape.const(s),), (tape.const(a) if var_a else a,))
            size = len(tape)
            with pytest.raises(EvalError) as e:
                step(tape, *ins)
            errs.append(str(e.value).split(": ", 1)[1])
        assert len(tape) == size  # the recorder's tape
        assert e.value.node_id == size  # the id its first output would get
        assert errs[-1] == errs[-2]
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
    # from the noise-free trace: one step recorder and one run recorder,
    # which pushes the end state unless its adjoint keeps locals per step
    import dis
    record, run = step_recorder(builtin(name)), run_recorder(builtin(name))
    assert record is step_recorder(builtin(name)) is not run
    assert run is run_recorder(builtin(name))
    assert loops == any(ins.opname == "FOR_ITER"
                        for ins in dis.get_instructions(run))


def test_plant_recorders_reject_a_state_from_another_tape():
    # the generated check runs before anything is pushed, a run's loop too
    plant = builtin("dubins")
    record, run = step_recorder(plant), run_recorder(plant)
    t1, t2 = Tape(), Tape()
    t2.const(9.0)
    own, other, a = t2.const(1.0), t1.const(2.0), t2.const(0.5)
    end = (0.0, 0.0)  # read after the check
    calls = [lambda s: record(t2, s, (a, a)),
             lambda s: run(t2, s, [(0.5, -0.5)], end),
             lambda s: run(t2, s, [(0.5, -0.5)] * 3, end)]
    for s in [(other, own), (own, other), (other, other)]:
        for call in calls:
            sizes = (len(t1), len(t2), list(t1.blocks), list(t2.blocks))
            with pytest.raises(ValueError) as e:
                call(s)
            assert str(e.value) == "operands recorded on different tapes"
            assert (len(t1), len(t2), t1.blocks, t2.blocks) == sizes
    # a state on the recorders' tape is recorded as before
    assert len(run(t2, (own, a), [(0.5, -0.5)] * 3, end)) == 2
    assert len(t2.blocks) == 1
