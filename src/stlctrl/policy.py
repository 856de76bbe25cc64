"""Feedforward tanh controller a_k = pi_theta(s_k, k) and the Adam update.

Parameters are a flat list theta; layer i occupies weights (row-major,
out x in) followed by biases.  The time-step k is appended to the state
as an extra input coordinate unless include_time is off.

The forward pass runs as straight-line code generated once per
(widths, include_time): one statement per neuron,
``h = tanh(th[b] + th[r]*x0 + th[r+1]*x1 + ...)``, summed left to right
like a loop over the inputs, so its results are bit-identical to the
loop's and, on a tape, it records the same nodes in the same order.
"""

import json
import math

from . import autodiff
from .autodiff import Var, sum_source

_KERNELS = {}  # (widths, include_time) -> (plain forward, tape forward)
_TERMS = 1000  # weight terms per compiled function, see _forward_sources


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
        self._kernels = None

    @property
    def state_dim(self):
        return self.widths[0] - (1 if self.include_time else 0)

    @property
    def action_dim(self):
        return self.widths[-1]

    def forward(self, s, k, theta=None):
        """Raw action vector; generic over floats and tape Vars.

        theta holds floats only or Vars only; the kernel that records on a
        tape runs when it holds Vars or an input is a Var.
        """
        th = self.theta if theta is None else theta
        if len(s) + self.include_time != self.widths[0]:
            raise ValueError(
                f"input dim {len(s) + self.include_time} != "
                f"widths[0]={self.widths[0]}")
        kernels = self._kernels
        if kernels is None:
            kernels = self._kernels = _kernels(self.widths, self.include_time)
        t = float(k) * self.time_scale if self.include_time else None
        if isinstance(th[0], Var) or Var in map(type, s):
            return kernels[1](th, s, t)
        return kernels[0](th, s, t)

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

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("activation", "tanh") != "tanh":
            raise ValueError(f"unsupported activation {doc['activation']!r}")
        return cls(doc["widths"], doc["theta"],
                   doc.get("include_time", True), doc.get("time_scale", 1.0))


def _kernels(widths, include_time):
    key = (tuple(widths), include_time)
    got = _KERNELS.get(key)
    if got is None:
        codes = [compile(src, f"<forward {list(widths)}>", "exec")
                 for src in _forward_sources(widths, include_time)]
        got = []
        for tanh in (math.tanh, autodiff.tanh):
            fns = []
            for code in codes:
                ns = {"tanh": tanh}
                exec(code, ns)
                fns.append(ns["forward"])
            got.append(fns[0] if len(fns) == 1 else _chain(fns))
        got = _KERNELS[key] = tuple(got)
    return got


def _chain(fns):
    def forward(th, s, t):
        for fn in fns:
            s = fn(th, s, t)
        return s
    return forward


def _forward_sources(widths, include_time):
    """Sources of forward(th, s, t), one per run of consecutive layers.

    s is the input of the run's first layer and t the time input.  A run
    ends before a layer that would take it past _TERMS weight terms:
    compiling takes memory in proportion to the source, and one function
    for a wide net would raise the peak memory of the process.
    """
    xs = [f"x{i}" for i in range(widths[0] - include_time)]
    srcs, lines, terms = [], [], 0
    off = 0
    last = len(widths) - 2
    for li in range(len(widths) - 1):
        nin, nout = widths[li], widths[li + 1]
        if lines and terms + nin * nout > _TERMS:
            srcs.append("\n".join(lines + [f"    return [{', '.join(xs)}]\n"]))
            lines = []
        if not lines:
            lines = ["def forward(th, s, t):", f"    [{', '.join(xs)}] = s"]
            terms = 0
            if li == 0 and include_time:
                xs = xs + ["t"]
        terms += nin * nout
        bias_off = off + nout * nin
        hs = []
        for j in range(nout):
            row = off + j * nin
            h = f"h{li}_{j}"
            stmts, acc = sum_source(
                h, f"th[{bias_off + j}]",
                [f"th[{row + i}]*{x}" for i, x in enumerate(xs)])
            lines += [f"    {st}" for st in stmts]
            lines.append(f"    {h} = {acc if li == last else f'tanh({acc})'}")
            hs.append(h)
        xs = hs
        off = bias_off + nout
    return srcs + ["\n".join(lines + [f"    return [{', '.join(xs)}]\n"])]


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


class AdamState:
    def __init__(self, n, alpha=1e-2, beta1=0.9, beta2=0.999, eps=1e-8):
        self.m = [0.0] * n
        self.v = [0.0] * n
        self.t = 0
        self.alpha = alpha
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps


def adam_update(st, theta, g):
    """One ascent step theta <- theta + Adam(g); mutates st, returns new theta."""
    if len(theta) != len(st.m) or len(g) != len(st.m):
        raise ValueError("parameter/gradient length mismatch")
    for gi in g:
        if not math.isfinite(gi):
            raise FloatingPointError(f"non-finite gradient component {gi}")
    st.t += 1
    b1t = 1.0 - st.beta1 ** st.t
    b2t = 1.0 - st.beta2 ** st.t
    out = list(theta)
    for i, gi in enumerate(g):
        st.m[i] = st.beta1 * st.m[i] + (1.0 - st.beta1) * gi
        st.v[i] = st.beta2 * st.v[i] + (1.0 - st.beta2) * gi * gi
        mhat = st.m[i] / b1t
        vhat = st.v[i] / b2t
        out[i] = theta[i] + st.alpha * mhat / (math.sqrt(vhat) + st.eps)
    return out
