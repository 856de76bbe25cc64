"""Smooth lower bound of the robustness, differentiable on the tape.

min is replaced by softmin(x) = -(1/b) ln(sum_i e^{-b x_i}) and max by
the weighted mean softmax_lb(x) = sum_i x_i e^{b x_i} / sum_i e^{b x_i}.
Both are below the exact extremum, so a positive smooth value still
certifies satisfaction.  Inputs are shifted by the running extremum
before exponentiation; the shift is mathematically exact for both
aggregations, it only prevents overflow.
"""

import math
from dataclasses import dataclass

from .autodiff import Var
from .stl import _kernel


@dataclass(frozen=True)
class SmoothConfig:
    b: float = 15.0

    def __post_init__(self):
        if not 0.0 < self.b < math.inf:
            raise ValueError("smoothing sharpness b must be finite and > 0")


# softmin and softmax_lb compute on floats, in the order and with the
# operations the Var operators would, so the values are theirs.  With a
# Var entry they push one node whose block adjoint replays Tape.backward's
# sweep over the records those operators would have made: each entry x
# recorded x - m, * b and exp, and each add of a running sum passes its
# adjoint on unchanged (0.0 + g), so only the Var entries get terms, in
# reverse entry order, with the interpreter's skips of a zero adjoint.
# (Var.__radd__ adds a Var entry after a float-only prefix as e + acc, the
# same float as acc + e.)  The least entry's weight is exp(0.0) = 1.0, so a
# sum of weights is at least 1.0 or NaN, and the log and the division
# need no guard.

def softmin(xs, b):
    if len(xs) == 1:
        return xs[0]
    vs = [x.value if type(x) is Var else float(x) for x in xs]
    m = min(vs)
    tape = acc = None
    live = []  # each Var entry's id and weight
    for x, v in zip(xs, vs):
        e = math.exp((m - v) * b)
        if type(x) is Var:
            if x.tape is not tape:
                if tape is not None:
                    raise ValueError("operands recorded on different tapes")
                tape = x.tape
            live += x.i, e
        acc = e if acc is None else acc + e
    out = m - math.log(acc) / b
    return out if tape is None else tape.block(out, _softmin_adjoint,
                                               (acc, b, live))


def _softmin_adjoint(adj, n, args):
    # the output m - ln(acc) / b: SUB, DIV, LN, then the sum's adds
    g = adj[n]
    if g == 0.0:
        return
    acc, b, live = args
    g = 0.0 + (0.0 - g) / b
    if g == 0.0:
        return
    g = 0.0 + g / acc
    if g == 0.0:
        return
    for j in range(len(live) - 2, -1, -2):
        g_mul = 0.0 + g * live[j + 1]  # exp's
        if g_mul != 0.0:
            g_sub = 0.0 + g_mul * b
            if g_sub != 0.0:
                adj[live[j]] -= g_sub  # m - x


def softmax_lb(xs, b):
    if len(xs) == 1:
        return xs[0]
    vs = [x.value if type(x) is Var else float(x) for x in xs]
    m = max(vs)
    tape = num = den = None
    live = []  # each Var entry's id, value and weight
    for x, v in zip(xs, vs):
        w = math.exp((v - m) * b)
        if type(x) is Var:
            if x.tape is not tape:
                if tape is not None:
                    raise ValueError("operands recorded on different tapes")
                tape = x.tape
            live += x.i, v, w
        num = v * w if num is None else num + v * w
        den = w if den is None else den + w
    out = num / den
    return out if tape is None else tape.block(out, _softmax_lb_adjoint,
                                               (den, out, b, live))


def _softmax_lb_adjoint(adj, n, args):
    # the output num / den: DIV, then the two sums' adds; den's add of an
    # entry's weight w comes after num's add of x * w, so w's adjoint
    # takes den's term first
    g = adj[n]
    if g == 0.0:
        return
    den, out, b, live = args
    g_num = 0.0 + g / den
    g_den = 0.0 - g * out / den
    for j in range(len(live) - 3, -1, -3):
        i, v, w = live[j:j + 3]
        g_w = g_den
        if g_num != 0.0:  # x * w
            adj[i] += g_num * w
            g_w = g_w + g_num * v
        if g_w != 0.0:
            g_mul = 0.0 + g_w * w  # exp's
            if g_mul != 0.0:
                g_sub = 0.0 + g_mul * b
                if g_sub != 0.0:
                    adj[i] += g_sub  # x - m


def smooth_robustness(f, tr, cfg=SmoothConfig()):
    """Smooth robustness of f over tr at time 0.

    tr is an stl.Trace whose states may hold tape Vars, plain floats, or
    a mix (frozen positions stay constant, gradients flow through Vars).
    """
    b = cfg.b
    return _kernel(f, tr, 0, "smooth")(tr.states, 0, lambda xs: softmin(xs, b),
                                       lambda xs: softmax_lb(xs, b))
