"""Discrete-time plant models and closed-loop rollouts.

All continuous plants are integrated with forward Euler at their stated
sampling time.  Plant.step() over tape Vars is traced once per (step_fn,
squash_fn, dt), without noise, and autodiff.replay_source generates from
it a plain rollout loop per (widths, include_time, noise), which unpacks
theta into locals once per rollout, inlines the controller forward
traced the same way, for a Policy of any size (any other controller is
called as forward(s, k)), and draws the noise and adds it to the next
state.  sampler.build_sampled generates its trajectory kernels from the
same trace.  Both compute in the Var operators' order, so a
differentiable rollout, which records the plain run's steps by Plant.step
and the controller's forward on Vars, has its bits, and a sampled
trajectory's adjoint its gradients.  So step_fn and squash_fn must be
straight-line code over arithmetic and the autodiff helpers: nothing may
depend on their arguments' values.  A noise-free loop may also run a
formula's watch (stl._kernel's "watch"), which stops the run at the
first state that proves its robustness below a floor.
"""

import copy
import csv
import math

from .autodiff import (
    Tape, Var, _bound, compile_kernel, cos, exp, powc, replay_source, sin,
    tanh, value_of, vmax,
)
from .policy import Policy, forward_source, param_count
from .stl import _kernel

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
        """ValueError unless s0 and the policy's inputs and actions fit."""
        if len(s0) != self.state_dim:
            raise ValueError(f"s0 dim {len(s0)} != plant dim {self.state_dim}")
        if policy.action_dim != self.action_dim:
            raise ValueError(f"policy action dim {policy.action_dim} != "
                             f"plant {self.name} action dim {self.action_dim}")
        if getattr(policy, "state_dim", self.state_dim) != self.state_dim:
            raise ValueError(f"policy state dim {policy.state_dim} != "
                             f"plant {self.name} state dim {self.state_dim}")


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
    """Corners over the dims with low < high, plus the box center if
    there is such a dim (a point box is its one corner)."""
    free = [i for i in range(len(low)) if high[i] > low[i]]
    out = []
    for mask in range(1 << len(free)):
        s = list(low)
        for bit, i in enumerate(free):
            if mask >> bit & 1:
                s[i] = high[i]
        out.append(tuple(s))
    if free:
        out.append(tuple((lo + hi) / 2.0 for lo, hi in zip(low, high)))
    return out


class Rollout:
    """A closed-loop run, a trace of stl's as it is: K + 1 states and K raw
    actions (floats).  In a differentiable run the states are Vars on tape
    (value_of reads their floats), after theta's (ids in theta_vars)."""

    def __init__(self, states, raw_actions, tape=None, theta_vars=None):
        self.states = states
        self.raw_actions = raw_actions
        self.tape = tape  # differentiable: the states are recorded on it
        self.theta_vars = theta_vars  # theta's node ids, backward's seeds

    @property
    def K(self):
        return len(self.states) - 1


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

def _check(k, s):
    """DivergedRollout at step k at the first entry of s past the limit."""
    for x in s:
        if not abs(x) <= DIVERGE_LIMIT:  # also true for nan
            raise DivergedRollout(k, x)


def rollout(plant, policy, s0, K, mode="plain", noise=None, watch=None):
    """Closed-loop trace of K steps under pi_theta.

    noise is (c1, c2, rng): s0 is perturbed once by c2*eta and every step
    gains c1*v_k, with eta, v_k i.i.d. standard normal per dimension.
    Noise draws happen in a fixed order so traces are seed-reproducible.
    mode="differentiable" runs the plain run, then records its steps on
    a tape by Plant.step and the controller's forward over Vars: theta,
    then the start state, with the noise redrawn from a copy of rng.
    Its values, errors and the state it leaves rng in are the plain run's.

    watch is (formula, floor), for a plain run without per-step noise:
    the run is None from the first state at which a watched conjunct of
    the formula has a running min below floor, which proves that
    robustness(formula, run) >= floor is false for the whole run, and
    otherwise the run it would be without watch, bit for bit.  The
    watched conjuncts are the G[a,b] over an affine predicate or an
    And/Or of affine predicates that are the formula or a child of its
    root And (see stl_kernels._watch); a formula with none is never
    stopped, and a NaN floor stops no run.
    """
    if mode not in ("plain", "differentiable"):
        raise ValueError(f"unknown rollout mode {mode!r}")
    plant.check_dims(s0, policy)
    s0 = tuple(float(x) for x in s0)
    c1, c2, rng = noise or (0.0, 0.0, None)
    if c2 != 0.0:
        s0 = tuple(x + c2 * rng.gauss(0.0, 1.0) for x in s0)
    gauss = rng.gauss if c1 != 0.0 else None
    twin = copy.copy(rng) if gauss and mode != "plain" else None
    args = [policy.theta, policy.forward, s0, K,
            getattr(policy, "time_scale", None), c1, gauss]
    code = ()
    if watch is not None:
        if mode != "plain" or gauss:
            raise ValueError("a watched rollout is plain, without per-step "
                             "noise")
        code = _kernel(watch[0], None, 0, "watch")
        if code and code[3] > plant.state_dim:
            raise ValueError(f"the formula reads x{code[3] - 1}, past plant "
                             f"{plant.name}'s {plant.state_dim} coordinates")
        args += [watch[1]] * bool(code)
    out = _closed_loop(plant, policy, bool(gauss), code)(*args)
    if out is None:
        return None
    if mode == "plain":
        return Rollout(*out)
    tape = Tape()
    theta = tape.consts(policy.theta)
    ctrl = policy.with_theta([Var(tape, i) for i in theta])
    states = [tuple(map(tape.const, s0))]
    for k in range(K):
        s = plant.step(states[-1], ctrl.forward(states[-1], k), k)
        states.append(tuple(x + c1 * twin.gauss(0.0, 1.0) for x in s)
                      if twin else tuple(s))
    return Rollout(states, out[1], tape, theta)


# -- generated kernels: Plant.step traced once ------------------------------------

_TRACES = {}  # (functions, dt, dims) -> (trace, kernels)


def _traced(plant):
    """(trace, kernels): the tape and outputs of one Plant.step over Vars
    of nan, on which no domain guard fires, and the kernels generated."""
    key = (plant._step_fn, plant._squash_fn, repr(plant.dt),
           plant.state_dim, plant.action_dim)
    if key not in _TRACES:
        tape, n = Tape(), plant.state_dim
        xs = [tape.const(math.nan) for _ in range(n + plant.action_dim)]
        out = tuple(plant.step(tuple(xs[:n]), tuple(xs[n:]), 0))
        if len(out) != n:
            raise ValueError(f"plant {plant.name} steps to {len(out)} "
                             f"entries, not state_dim={n}")
        _TRACES[key] = ((tape, out), {})
    return _TRACES[key]


def _closed_loop(plant, policy, noisy, watch=()):
    """kernel(th, forward, s0, K, time_scale, c1, gauss) -> (states, raw
    actions): it inlines a Policy's forward with theta in locals, and
    calls forward(s, k) of any other controller.  Given a watch
    (stl_kernels._watch), kernel(..., floor) runs its lines on s0 and
    after each step's divergence check, and returns None if they do."""
    trace, loops = _traced(plant)
    key = ((tuple(policy.widths), policy.include_time, noisy)
           if isinstance(policy, Policy) else (None, False, noisy))
    if watch:
        key += (watch,)
    if key in loops:
        return loops[key]
    n, m = plant.state_dim, plant.action_dim
    xs = list(map("x{}".format, range(n)))
    state = f"({', '.join(xs)},)"
    head = ["states, acts = [s], []"]
    if key[0]:  # the forward inline, theta in locals
        ws = [(f"w{r}", None) for r in range(param_count(key[0]))]
        fwd, acts, _, _ = forward_source(*key[:2], ws, [(x, None) for x in xs])
        head.append(f"{', '.join(w for w, _ in ws)}, = th")
        fwd, acts = ["t = float(k) * ts"] * key[1] + fwd, [a for a, _ in acts]
    else:
        acts = list(map("a{}".format, range(m)))
        fwd = [f"{', '.join(acts)}, = forward({state}, k)"]
    lines, outs, consts, _ = replay_source(trace,
                                           [(x, None) for x in xs + acts])
    nxt = [x for x, _ in outs]
    if noisy:  # drawn after the step, as the Plant.step loop draws them
        lines += [f"e{j} = sigma * gauss(0.0, 1.0)" for j in range(n)]
        nxt = [f"{x} + e{j}" for j, x in enumerate(nxt)]
    start, each, names, _ = watch or ((), (), (), 0)
    step = fwd + lines + [
        f"{', '.join(xs)}, = {', '.join(nxt)},",
        f"if not ({' and '.join(f'abs({x}) <= LIMIT' for x in xs)}):",
        f"    check(k + 1, {state})", *each, f"states.append({state})",
        f"acts.append(({', '.join(acts)},))"]
    # a local's slot is the order of its first binding: the step's locals
    # go before the weights, so that past 256 names only weights need an
    # EXTENDED_ARG prefix
    state = set(xs)
    own = dict.fromkeys(["k"] + [x for ln in [*start, *step]
                                 for x in _bound(ln.lstrip())
                                 if x not in state])
    loops[key] = compile_kernel(
        "th, forward, s, K, ts, sigma, gauss" + ", floor" * bool(watch), [
            f"{', '.join(xs)}, = s", f"{' = '.join(own)} = None"] + head
        + [*start, "for k in range(K):"] + ["    " + line for line in step]
        + ["return states, acts"],
        {**consts, "LIMIT": DIVERGE_LIMIT, "check": _check, **dict(names)})
    return loops[key]


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
    """States back from a trace CSV (action columns ignored): one or more
    rows, each state cell a finite number."""
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd, [])  # an empty file has no header
        sidx = [i for i, h in enumerate(header) if h.strip().startswith("s_")]
        if not sidx:
            raise ValueError(f"{path}: no state columns in header {header}")
        states = []
        for row in filter(None, rd):  # blank lines hold no state
            if len(row) != len(header):
                raise ValueError(f"{path}: row {rd.line_num} has {len(row)} "
                                 f"fields but the header has {len(header)}")
            states.append(tuple(_cell(path, rd.line_num, header[i], row[i])
                                for i in sidx))
    if not states:
        raise ValueError(f"{path}: no state rows below the header")
    return states


def _cell(path, row, column, text):
    """The finite number in a trace cell, else a ValueError naming it."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise ValueError(f"{path}: row {row} column {column.strip()}: "
                         f"{text!r} is not a finite number")
    return x
