"""Feedforward tanh controller a_k = pi_theta(s_k, k) and the Adam update.

Parameters are a flat list theta; layer i occupies weights (row-major,
out x in) followed by biases.  The time-step k is appended to the state
as an extra input coordinate unless include_time is off.

reference_forward is the net as a loop, and Policy.forward runs it on
floats.  Code is generated from it only where the program runs the net:
autodiff.replay_source writes it, traced on Vars like a plant step, as
one function per net, whatever its size, with one statement per neuron,
``h = tanh(th[b] + th[r] * x0 + ...)``, summed left to right like the
loop, so it is bit-identical to it.  A rollout inlines that source into
its loop, and a sampled trajectory's kernel, which sampler generates
from the same source, computes the same floats and keeps the ones its
adjoint reads (each neuron's tanh).  On Vars (a differentiable rollout)
the loop records the Var operators.

Policy.save writes a checkpoint; the command line reads one back with the
checks of a scenario's policy section.
"""

import json
import math

from .autodiff import Tape, replay_source, tanh


def param_count(widths):
    return sum(widths[i + 1] * (widths[i] + 1) for i in range(len(widths) - 1))


class Policy:
    """MLP with tanh hidden layers and identity output."""

    def __init__(self, widths, theta=None, include_time=True, time_scale=1.0):
        if len(widths) < 2 or any(w < 1 for w in widths):
            raise ValueError(f"bad layer widths {widths}")
        self.widths = list(widths)
        self.include_time = bool(include_time)
        self.time_scale = float(time_scale)
        n = param_count(widths)
        if theta is None:
            theta = [0.0] * n
        if len(theta) != n:
            raise ValueError(f"theta length {len(theta)} != {n} for widths {widths}")
        self.theta = list(theta)

    @property
    def state_dim(self):
        return self.widths[0] - (1 if self.include_time else 0)

    @property
    def action_dim(self):
        return self.widths[-1]

    def forward(self, s, k):
        """Raw action vector for inputs s (floats, or Vars, on whose tape
        it records) at time-step k, by the reference loop, whose bits
        every generated forward has."""
        if len(s) + self.include_time != self.widths[0]:
            raise ValueError(
                f"input dim {len(s) + self.include_time} != "
                f"widths[0]={self.widths[0]}")
        t = [float(k) * self.time_scale] * self.include_time
        return reference_forward(self.widths, self.theta, [*s, *t])

    def with_theta(self, theta):
        return Policy(self.widths, theta, self.include_time, self.time_scale)

    # -- persistence ----------------------------------------------------------

    def save(self, path, plant_name=None, metadata=None):
        doc = {
            "widths": self.widths,
            "theta": self.theta,
            "activation": "tanh",
            "include_time": self.include_time,
            "time_scale": self.time_scale,
            "plant": plant_name,
            "metadata": metadata or {},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def reference_forward(widths, theta, x):
    """The outputs of the net on inputs x, weight r theta[r], as a loop
    over floats or Vars: forward_source traces it."""
    off = 0
    for li in range(len(widths) - 1):
        nin, nout = widths[li], widths[li + 1]
        bias, h = off + nout * nin, []
        for j in range(nout):
            acc = theta[bias + j]
            for i in range(nin):
                acc = acc + theta[off + j * nin + i] * x[i]
            h.append(acc if li == len(widths) - 2 else tanh(acc))
        x, off = h, bias + nout
    return x


def forward_source(widths, include_time, theta, xs):
    """(lines, outputs, constants) of replay_source for the net traced on
    Vars: weight r reads theta[r], input i xs[i] and the time t."""
    ins = xs + [("t", None)] * include_time
    tape = Tape()
    th = [tape.const(math.nan) for _ in range(len(theta) + len(ins))]
    x = reference_forward(widths, th, th[len(theta):])
    return replay_source((tape, x), theta + ins, prefix="h")


def init(widths, scheme="xavier", rng=None, include_time=True, time_scale=1.0):
    """Fresh policy; xavier scheme is uniform +-sqrt(6/(nin+nout)) per layer."""
    theta = []
    for li in range(len(widths) - 1):
        nin, nout = widths[li], widths[li + 1]
        if scheme == "xavier":
            lim = math.sqrt(6.0 / (nin + nout))
            theta.extend(rng.uniform(-lim, lim) for _ in range(nout * nin))
        elif scheme == "zero":
            theta.extend([0.0] * (nout * nin))
        else:
            raise ValueError(f"unknown init scheme {scheme!r}")
        theta.extend([0.0] * nout)
    return Policy(widths, theta, include_time, time_scale)


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's decay rates and eps


class AdamState:
    def __init__(self, n, alpha=1e-2):
        self.m = [0.0] * n
        self.v = [0.0] * n
        self.t = 0
        self.alpha = alpha


def adam_update(st, theta, g):
    """One ascent step theta <- theta + Adam(g); mutates st, returns new theta."""
    if len(theta) != len(st.m) or len(g) != len(st.m):
        raise ValueError("parameter/gradient length mismatch")
    for gi in g:
        if not math.isfinite(gi):
            raise FloatingPointError(f"non-finite gradient component {gi}")
    st.t += 1
    b1t = 1.0 - _BETA1 ** st.t
    b2t = 1.0 - _BETA2 ** st.t
    out = list(theta)
    for i, gi in enumerate(g):
        st.m[i] = _BETA1 * st.m[i] + (1.0 - _BETA1) * gi
        st.v[i] = _BETA2 * st.v[i] + (1.0 - _BETA2) * gi * gi
        mhat = st.m[i] / b1t
        vhat = st.v[i] / b2t
        out[i] = theta[i] + st.alpha * mhat / (math.sqrt(vhat) + _EPS)
    return out
