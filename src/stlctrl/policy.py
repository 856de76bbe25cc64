"""Feedforward tanh controller a_k = pi_theta(s_k, k) and the Adam update.

Parameters are a flat list theta; layer i occupies weights (row-major,
out x in) followed by biases.  The time-step k is appended to the state
as an extra input coordinate unless include_time is off.

The forward pass runs as code that autodiff.replay_source generates from
reference_forward, traced on Vars like a plant step: one statement per
neuron, ``h = tanh(th[b] + th[r] * x0 + ...)``, summed left to right like
the loop, so it is bit-identical to it.  Policy.forward runs it on
floats.  The only way onto a tape is Policy.recorder, whose theta is a
range of node ids from Tape.consts and whose inputs are Vars: one per
net, it computes the same floats, keeps the ones its generated adjoint
reads (the inputs and each neuron's tanh) and pushes only the outputs.

Policy.save writes a checkpoint; the command line reads one back with the
checks of a scenario's policy section.
"""

import json
import math

from .autodiff import Tape, compile_kernel, replay_source, tanh

_KERNELS = {}  # (widths, include_time, recorder) -> _kernel
_TERMS = 1000  # weights of a net compiled as one function, see chained


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
        self._forward = None

    @property
    def state_dim(self):
        return self.widths[0] - (1 if self.include_time else 0)

    @property
    def action_dim(self):
        return self.widths[-1]

    def forward(self, s, k):
        """Raw action vector for float inputs s at time-step k."""
        if len(s) + self.include_time != self.widths[0]:
            raise ValueError(
                f"input dim {len(s) + self.include_time} != "
                f"widths[0]={self.widths[0]}")
        fn = self._forward
        if fn is None:
            fn = self._forward = _kernel(self.widths, self.include_time)
        return fn(self.theta, s, float(k) * self.time_scale
                  if self.include_time else None)

    def recorder(self, tape, theta):
        """forward(s, k) on the tape, inputs s Vars, for the weights with
        node ids theta, a range from Tape.consts: a call checks only its
        inputs' tapes, and not their dimension."""
        th = (tape.vals[theta.start:theta.stop], list(theta), tape)
        run, ts = _kernel(self.widths, self.include_time, True), self.time_scale
        return lambda s, k: run(th, s, float(k) * ts if self.include_time
                                else None)

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


def _kernel(widths, include_time, rec=False):
    """forward(th, s, t), one function per run of layers, each calling the
    next: on floats, or with rec a recorder of Var inputs, whose th is
    (theta's values, their node ids, the tape).  Compiled once per net."""
    key = (tuple(widths), include_time, rec)
    if key in _KERNELS:
        return _KERNELS[key]
    theta = [(f"th[{r}]", f"ids[{r}]" if rec else None)
             for r in range(param_count(widths))]
    xs = [(f"x{i}", f"i{i}" if rec else None)
          for i in range(widths[0] - include_time)]
    fn = None
    for xs, lines, outs, consts in reversed(
            forward_source(widths, include_time, theta, xs)):
        body = [f"[{', '.join(x for x, _ in xs)}] = s"]
        body += ["th, ids, tape = arg = th"] * rec
        ret = ", ".join(x if i is None else f"Var(tape, {i})" for x, i in outs)
        fn = compile_kernel("th, s, t", body + lines + [
            f"return [{ret}]" if fn is None
            else f"return nxt({'arg' if rec else 'th'}, [{ret}], t)"],
            {**consts, "nxt": fn})
    _KERNELS[key] = fn
    return fn


def chained(widths):
    """Whether a net runs a layer per function: compiling takes memory in
    proportion to the source, so one function of over _TERMS weights would
    raise the process's peak memory."""
    return param_count(widths) > _TERMS


def reference_forward(widths, theta, x, layers=None):
    """The outputs of layers (all if None) of the net on inputs x, weight
    r theta[r], as a loop over floats or Vars: forward_source traces it."""
    layers = range(len(widths) - 1) if layers is None else layers
    off = param_count(widths[:layers[0] + 1])
    for li in layers:
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
    """[(inputs, lines, outputs, constants)] of replay_source per run of
    layers traced on Vars (one per layer if chained): weight r reads
    theta[r], the first run's input i xs[i] and the time t, a later run's
    x{i} (a Var's id i{i})."""
    every, out = list(range(len(widths) - 1)), []
    for layers in [[li] for li in every] if chained(widths) else [every]:
        ins = xs + [("t", None)] * (include_time and not layers[0])
        tape = Tape()
        th = [tape.const(math.nan) for _ in range(len(theta) + len(ins))]
        x = reference_forward(widths, th, th[len(theta):], layers)
        lines, outs, consts = replay_source((tape, x), theta + ins, prefix="h")
        out.append((xs, lines, outs, consts))
        xs = [(f"x{j}", i and f"i{j}") for j, (_, i) in enumerate(outs)]
    return out


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
