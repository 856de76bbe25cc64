"""Feedforward tanh controller a_k = pi_theta(s_k, k) and the Adam update.

Parameters are a flat list theta; layer i occupies weights (row-major,
out x in) followed by biases.  The time-step k is appended to the state
as an extra input coordinate unless include_time is off.

The forward pass runs as straight-line code generated once per
(widths, include_time): one statement per neuron,
``h = tanh(th[b] + th[r]*x0 + th[r+1]*x1 + ...)``, summed left to right
like a loop over the inputs, so its results are bit-identical to the
loop's.  On a tape a generated recorder computes the values with float
arithmetic and writes the node records straight into the tape's lists:
the same records in the same order as the loop's Var operators push.
"""

import json
import math
from functools import partial

from .autodiff import ADD, CONST, MUL, TANH, Var, sum_source

_KERNELS = {}  # (widths, include_time) -> (plain, tape forward, _run)
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

        theta holds floats only or Vars on one tape only (else ValueError);
        the tape forward runs when it holds Vars or an input is a Var.
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

    def recorder(self, theta_vars):
        """forward(s, k, theta_vars) for theta_vars on one tape, read once
        here: a call checks only its inputs, and not their dimension."""
        tape = theta_vars[0].tape
        ids = [w.i for w in theta_vars]
        th = ([tape.vals[i] for i in ids], ids, tape)
        run, ts = _kernels(self.widths, self.include_time)[2], self.time_scale
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
        plain = _compile(key, False, (False,) * (widths[0] - include_time))
        recorders = {}
        got = _KERNELS[key] = (plain, partial(_record, key, recorders),
                               partial(_run, key, recorders))
    return got


def _record(key, recorders, th, s, t):
    """Tape forward: checks every operand before the recorder for
    (theta is Var, which inputs are Vars) writes, so a rejected call
    leaves the tape untouched."""
    var_theta = isinstance(th[0], Var)
    tape = (th[0] if var_theta else next(x for x in s if type(x) is Var)).tape
    ids = [w.i for w in th if type(w) is Var and w.tape is tape]
    if len(ids) != len(th) if var_theta else Var in map(type, th):
        raise ValueError("theta must be all Vars on one tape or all floats")
    th = ([tape.vals[i] for i in ids], ids) if var_theta else (
        list(map(float, th)), None)
    return _run(key, recorders, (*th, tape), s, t)


def _run(key, recorders, th, s, t):
    """The recorder for th = (theta's values, their node ids or None for
    float theta, tape); checks only the inputs."""
    var_in = tuple(isinstance(x, Var) for x in s)
    if any(x.tape is not th[2] for x, v in zip(s, var_in) if v):
        raise ValueError("operands recorded on different tapes")
    pattern = (th[1] is not None, var_in)
    if pattern not in recorders:
        recorders[pattern] = _compile(key, *pattern)
    return recorders[pattern](th, s, t)


def _compile(key, var_theta, var_in):
    fns = []
    for src in _forward_sources(*key, var_theta, var_in):
        ns = {"tanh": math.tanh, "Var": Var}
        exec(compile(src, f"<forward {list(key[0])}>", "exec"), ns)
        fns.append(ns["forward"])
    return fns[0] if len(fns) == 1 else _chain(fns)


def _chain(fns):
    def forward(th, s, t):
        for fn in fns:
            s = fn(th, s, t)
        return s
    return forward


def _forward_sources(widths, include_time, var_theta, var_in, th="th[{}]"):
    """Sources of forward(th, s, t), one per run of consecutive layers;
    when an operand is a Var, of the recorder, whose th is (theta's
    values, their node ids, the tape).  Weight r reads th.format(r).

    s is the input of the run's first layer and t the time input.  A run
    ends before a layer that would take it past _TERMS weight terms:
    compiling takes memory in proportion to the source, and one function
    for a wide net would raise the peak memory of the process.

    The recorder replays the reference loop over operands (value, node id)
    by Var's rules: a float operand (id None) of a node op is pushed as a
    CONST just before it, the node is lhs even on the right (float * Var
    runs Var.__rmul__), and float-only subexpressions stay floats.
    """
    runs = [[]]
    for li in range(len(widths) - 1):
        if runs[-1] and sum(widths[i] * widths[i + 1]
                            for i in runs[-1] + [li]) > _TERMS:
            runs.append([])
        runs[-1].append(li)
    rec, last, off, out = var_theta or any(var_in), len(widths) - 2, 0, []
    for run in runs:
        xs = [(f"x{i}", f"i{i}" if v else None) for i, v in enumerate(var_in)]
        xs += [("t", None)] if run[0] == 0 and include_time else []
        lines, recs = [], []

        def push(op, a, b, val):
            lines.append(f"    v{len(recs)} = {val}")
            recs.append((str(op), a, b))
            return f"v{len(recs) - 1}", f"n + {len(recs) - 1}"

        def node(op, sym, a, b):
            if a[1] is None and b[1] is None:
                return f"{a[0]}{sym}{b[0]}", None
            if a[1] is None:
                a, b = b, a
            if b[1] is None:
                b = push(CONST, "-1", "-1", b[0])
            return push(op, a[1], b[1], f"{a[0]}{sym}{b[0]}")

        for li in run:
            nin, nout = widths[li], widths[li + 1]
            hs, bias = [], off + nout * nin
            for j in range(nout):
                h, row = f"h{li}_{j}", off + j * nin
                ws = [(th.format(r), f"ids[{r}]" if var_theta else None)
                      for r in [bias + j, *range(row, row + nin)]]
                # the terms before the first node sum as floats
                k = 0 if var_theta else next(
                    (i for i, x in enumerate(xs) if x[1]), nin)
                stmts, acc = sum_source(h, ws[0][0], [
                    f"{w[0]}*{x[0]}" for w, x in zip(ws[1:k + 1], xs)])
                lines += [f"    {st}" for st in stmts]
                acc = (acc, ws[0][1])
                for w, x in zip(ws[k + 1:], xs[k:]):
                    acc = node(ADD, " + ", acc, node(MUL, "*", w, x))
                if li != last:
                    acc = (push(TANH, acc[1], "-1", f"tanh({acc[0]})")
                           if acc[1] else (f"tanh({acc[0]})", None))
                if acc[1] is None:
                    lines.append(f"    {h} = {acc[0]}")
                    acc = (h, None)
                hs.append(acc)
            xs, off = hs, bias + nout
        head = ["def forward(th, s, t):",
                f"    [{', '.join(f'x{i}' for i in range(len(var_in)))}] = s"]
        if rec:
            ops, lhs, rhs = zip(*recs)
            head += ["    th, ids, tape = th", "    vals = tape.vals",
                     "    n = len(vals)"] + [
                f"    i{i} = x{i}.i\n    x{i} = vals[i{i}]" if v
                else f"    x{i} = float(x{i})" for i, v in enumerate(var_in)]
            lines += [f"    tape.ops += ({', '.join(ops)},)",
                      f"    tape.lhs += [{', '.join(lhs)}]",
                      f"    tape.rhs += [{', '.join(rhs)}]",
                      f"    vals += [{', '.join(f'v{d}' for d in range(len(recs)))}]",
                      f"    tape.aux += (0.0,) * {len(recs)}"]
        rets = ", ".join(x if i is None else f"Var(tape, {i})" for x, i in xs)
        out.append("\n".join(head + lines + [f"    return [{rets}]\n"]))
        var_in = [i is not None for _, i in xs]
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
