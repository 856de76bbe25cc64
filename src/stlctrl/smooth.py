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

from .autodiff import exp, ln, value_of
from .stl import _kernel


@dataclass(frozen=True)
class SmoothConfig:
    b: float = 15.0

    def __post_init__(self):
        if not 0.0 < self.b < math.inf:
            raise ValueError("smoothing sharpness b must be finite and > 0")


def softmin(xs, b):
    if len(xs) == 1:
        return xs[0]
    m = min(value_of(x) for x in xs)
    acc = None
    for x in xs:
        e = exp((m - x) * b)
        acc = e if acc is None else acc + e
    return m - ln(acc) / b


def softmax_lb(xs, b):
    if len(xs) == 1:
        return xs[0]
    m = max(value_of(x) for x in xs)
    num = None
    den = None
    for x in xs:
        w = exp((x - m) * b)
        num = x * w if num is None else num + x * w
        den = w if den is None else den + w
    return num / den


def smooth_robustness(f, tr, cfg=SmoothConfig()):
    """Smooth robustness of f over tr at time 0.

    tr is an stl.Trace whose states may hold tape Vars, plain floats, or
    a mix (frozen positions stay constant, gradients flow through Vars).
    """
    b = cfg.b
    return _kernel(f, tr, 0, "smooth")(tr.states, 0, lambda xs: softmin(xs, b),
                                       lambda xs: softmax_lb(xs, b))
