"""Discrete-time plant models and closed-loop rollouts.

All continuous plants are integrated with forward Euler at their stated
sampling time.  step() is generic over plain floats and tape Vars, so
plain and differentiable rollouts run the exact same arithmetic and
produce bit-identical primal trajectories.
"""

import csv
import math

from .autodiff import Tape, Var, cos, exp, powc, sin, tanh, value_of, vmax

G = 9.81

DIVERGE_LIMIT = 1e9


class DivergedRollout(RuntimeError):
    def __init__(self, step, value):
        super().__init__(f"state magnitude {value:g} exceeds {DIVERGE_LIMIT:g} "
                         f"at step {step}")
        self.step = step


class Plant:
    """name, dims, sampling time, and a step map s' = f(s, squash(a_raw))."""

    def __init__(self, name, state_dim, action_dim, dt, step_fn, squash_fn):
        self.name = name
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.dt = dt
        self._step_fn = step_fn
        self._squash_fn = squash_fn

    def squash(self, a_raw):
        return self._squash_fn(a_raw)

    def step(self, s, a_raw, k):
        """Next state; callers check dimensions (rollout does at entry)."""
        return self._step_fn(s, self._squash_fn(a_raw), self.dt)

    def check_dims(self, s0, policy):
        """ValueError unless s0 and the policy's actions fit this plant."""
        if len(s0) != self.state_dim:
            raise ValueError(f"s0 dim {len(s0)} != plant dim {self.state_dim}")
        if policy.action_dim != self.action_dim:
            raise ValueError(f"policy action dim {policy.action_dim} != "
                             f"plant {self.name} action dim {self.action_dim}")

    def with_dt(self, dt):
        return Plant(self.name, self.state_dim, self.action_dim, dt,
                     self._step_fn, self._squash_fn)


class InitialSet:
    """Axis-aligned initial box plus the finite training sample set."""

    def __init__(self, low, high, samples):
        self.low = tuple(low)
        self.high = tuple(high)
        self.samples = [tuple(s) for s in samples]
        if not self.samples:
            raise ValueError("initial set needs at least one sample")
        for s in self.samples:
            if len(s) != len(self.low):
                raise ValueError("sample dimension mismatch")
            if any(x < lo - 1e-12 or x > hi + 1e-12
                   for x, lo, hi in zip(s, self.low, self.high)):
                raise ValueError(f"sample {s} outside the initial box")

    def sample_uniform(self, rng):
        return tuple(rng.uniform(lo, hi) for lo, hi in zip(self.low, self.high))


def corners_and_center(low, high):
    """Corners over the dims with low < high, plus the box center."""
    free = [i for i in range(len(low)) if high[i] > low[i]]
    out = []
    for mask in range(1 << len(free)):
        s = list(low)
        for bit, i in enumerate(free):
            if mask >> bit & 1:
                s[i] = high[i]
        out.append(tuple(s))
    out.append(tuple((lo + hi) / 2.0 for lo, hi in zip(low, high)))
    return out


class Rollout:
    def __init__(self, states, raw_actions, tape=None, theta_vars=None,
                 noise_offsets=None):
        self.states = states
        self.raw_actions = raw_actions
        self.tape = tape
        self.theta_vars = theta_vars
        self.noise_offsets = noise_offsets  # per-step additive terms, or None

    @property
    def K(self):
        return len(self.states) - 1

    def plain_states(self):
        return [tuple(value_of(x) for x in s) for s in self.states]


# -- builtin plants ------------------------------------------------------------

def _dubins_step(s, u, dt):
    v, th = u
    return (s[0] + dt * v * cos(th), s[1] + dt * v * sin(th))


def _dubins_squash(a):
    return (tanh(0.5 * a[0]) + 1.0, a[1])


def _multi_dubins_step(s, u, dt):
    out = []
    for i in range(10):
        v, th = u[2 * i], u[2 * i + 1]
        out.append(s[2 * i] + dt * v * cos(th))
        out.append(s[2 * i + 1] + dt * v * sin(th))
    return tuple(out)


def _multi_dubins_squash(a):
    out = []
    for i in range(10):
        out.append(tanh(0.5 * a[2 * i]) + 1.0)
        out.append(a[2 * i + 1])
    return tuple(out)


def _quad6_step(s, u, dt):
    x, y, z, vx, vy, vz, xf = s
    u1, u2, u3, u4 = u
    return (
        x + dt * vx,
        y + dt * vy,
        z + dt * vz,
        vx + dt * G * sin(u1) / cos(u1),
        vy - dt * G * sin(u2) / cos(u2),
        vz + dt * (G - u3),
        xf + dt * u4,
    )


def _quad6_squash(a):
    return (0.1 * tanh(0.1 * a[0]), 0.1 * tanh(0.1 * a[1]),
            G - 2.0 * tanh(0.1 * a[2]), tanh(a[3]))


_Q_M = 1.4
_Q_L = 0.3273
_Q_JX = 0.054
_Q_JY = 0.054
_Q_JZ = 0.104
_Q_K1 = 0.75 * _Q_M * G
_Q_K2 = 1.5 * _Q_L * _Q_K1


def _quad12_step(s, u, dt):
    x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12 = s
    df, dr, db, dl = u
    F = _Q_K1 * (df + dr + db + dl)
    tau_phi = _Q_L * _Q_K1 * (dl - dr)
    tau_theta = _Q_L * _Q_K1 * (df - db)
    tau_psi = _Q_K2 * (dr + dl - df - db)
    s7, c7 = sin(x7), cos(x7)
    s8, c8 = sin(x8), cos(x8)
    s9, c9 = sin(x9), cos(x9)
    t8 = s8 / c8
    d = (
        c8 * c9 * x4 + (s7 * s8 * c9 - c7 * s9) * x5 + (c7 * s8 * c9 + s7 * s9) * x6,
        c8 * s9 * x4 + (s7 * s8 * s9 + c7 * c9) * x5 + (c7 * s8 * s9 - s7 * c9) * x6,
        s8 * x4 - s7 * c8 * x5 - c7 * c8 * x6,
        x12 * x5 - x11 * x6 - G * s8,
        x10 * x6 - x12 * x4 + G * c8 * s7,
        x11 * x4 - x10 * x5 + G * c8 * c7 - F / _Q_M,
        x10 + s7 * t8 * x11 + c7 * t8 * x12,
        c7 * x11 - s7 * x12,
        (s7 / c8) * x11 + (c7 / c8) * x12,
        -((_Q_JY - _Q_JZ) / _Q_JX) * x11 * x12 + tau_phi / _Q_JX,
        ((_Q_JZ - _Q_JX) / _Q_JY) * x10 * x12 + tau_theta / _Q_JY,
        tau_psi / _Q_JZ,
    )
    return tuple(si + dt * di for si, di in zip(s, d))


def _quad12_squash(a):
    return tuple(0.5 * (tanh(0.5 * ai) + 1.0) for ai in a)


def _integrator2d_step(s, u, dt):
    return (s[0] + dt * u[0], s[1] + dt * u[1])


def _integrator2d_squash(a):
    # per-dimension bound 4, so the input norm stays below 4*sqrt(2)
    return (4.0 * tanh(0.25 * a[0]), 4.0 * tanh(0.25 * a[1]))


def _scalar_power_step(s, u, dt):
    # the power map leaves [0, inf) for strong inputs; the base is clamped
    # slightly above 0 to keep the exponent defined
    (x,) = s
    (uu,) = u
    su = sin(uu)
    return (0.8 * powc(vmax(x, 1e-3), 1.2) - exp(-4.0 * uu * su * su),)


def _scalar_power_squash(a):
    return (tanh(a[0]),)


_BUILTINS = {
    "dubins": lambda: Plant("dubins", 2, 2, 0.1, _dubins_step, _dubins_squash),
    "multi_dubins_10": lambda: Plant("multi_dubins_10", 20, 20, 0.26,
                                     _multi_dubins_step, _multi_dubins_squash),
    "quad6_platform": lambda: Plant("quad6_platform", 7, 4, 0.05,
                                    _quad6_step, _quad6_squash),
    "quad12": lambda: Plant("quad12", 12, 4, 0.1, _quad12_step, _quad12_squash),
    "integrator2d": lambda: Plant("integrator2d", 2, 2, 0.1,
                                  _integrator2d_step, _integrator2d_squash),
    "scalar_power": lambda: Plant("scalar_power", 1, 1, 1.0,
                                 _scalar_power_step, _scalar_power_squash),
}


def builtin(name):
    try:
        make = _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown plant {name!r}; choose from "
                         f"{sorted(_BUILTINS)}") from None
    return make()


# -- closed-loop rollout --------------------------------------------------------

def _check_finite(s, k):
    for x in s:
        v = value_of(x)
        if not math.isfinite(v) or abs(v) > DIVERGE_LIMIT:
            raise DivergedRollout(k, v)


def rollout(plant, policy, s0, K, mode="plain", noise=None):
    """Closed-loop trace of K steps under pi_theta.

    noise is (c1, c2, rng): s0 is perturbed once by c2*eta and every step
    gains c1*v_k, with eta, v_k i.i.d. standard normal per dimension.
    Noise draws happen in a fixed order so traces are seed-reproducible.
    """
    plant.check_dims(s0, policy)
    s0 = tuple(float(x) for x in s0)
    c1 = c2 = 0.0
    rng = None
    if noise is not None:
        c1, c2, rng = noise
        if c2 != 0.0:
            s0 = tuple(x + c2 * rng.gauss(0.0, 1.0) for x in s0)
    tape = None
    theta_vars = None
    theta = None
    if mode == "differentiable":
        tape = Tape()
        theta_vars = [tape.const(w) for w in policy.theta]
        theta = theta_vars
    elif mode != "plain":
        raise ValueError(f"unknown rollout mode {mode!r}")
    states = [s0]
    raw_actions = []
    offsets = [] if c1 != 0.0 else None
    s = s0
    for k in range(K):
        a = tuple(policy.forward(s, k, theta))
        s = plant.step(s, a, k)
        if c1 != 0.0:
            off = tuple(c1 * rng.gauss(0.0, 1.0) for _ in s)
            s = tuple(x + o for x, o in zip(s, off))
            offsets.append(off)
        if tape is None:
            for x in s:
                # also true for nan
                if not abs(x) <= DIVERGE_LIMIT:
                    raise DivergedRollout(k + 1, x)
        else:
            _check_finite(s, k + 1)
        states.append(s)
        raw_actions.append(a)
    return Rollout(states, raw_actions, tape=tape, theta_vars=theta_vars,
                   noise_offsets=offsets)


def write_trace_csv(path, states, raw_actions):
    """CSV trace; the final row has no action columns filled."""
    n = len(states[0])
    m = len(raw_actions[0]) if raw_actions else 0
    header = (["k"] + [f"s_{i}" for i in range(n)] + [f"a_{j}" for j in range(m)])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for k, s in enumerate(states):
            row = [k] + [repr(value_of(x)) for x in s]
            if k < len(raw_actions):
                row += [repr(value_of(x)) for x in raw_actions[k]]
            else:
                row += [""] * m
            w.writerow(row)


def read_trace_csv(path):
    """States back from a trace CSV (action columns ignored)."""
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd)
        sidx = [i for i, h in enumerate(header) if h.strip().startswith("s_")]
        if not sidx:
            raise ValueError(f"{path}: no state columns in header {header}")
        states = [tuple(float(row[i]) for i in sidx) for row in rd if row]
    return states
