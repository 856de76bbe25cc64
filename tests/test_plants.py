import math
import random

import pytest

from stlctrl import plants
from stlctrl.plants import (
    DivergedRollout, InitialSet, Plant, builtin, corners_and_center,
    read_trace_csv, rollout, write_trace_csv,
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
    single = builtin("dubins").with_dt(0.26)
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
        assert diff.plain_states() == plain.states


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
    r1 = rollout(p, pol, (-1.0, -1.0), 15,
                 noise=(0.0314, 0.0005, random.Random(7)))
    r2 = rollout(p, pol, (-1.0, -1.0), 15, mode="differentiable",
                 noise=(0.0314, 0.0005, random.Random(7)))
    assert r2.plain_states() == r1.states


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
