"""Smooth lower bound of the robustness, differentiable on the tape or,
with Affine predicates, on floats.

min is replaced by softmin(x) = -(1/b) ln(sum_i e^{-b x_i}) and max by
the weighted mean softmax_lb(x) = sum_i x_i e^{b x_i} / sum_i e^{b x_i}
(Pant, Abbas & Mangharam, "Smooth Operator", CCTA 2017).  Both are below
the exact extremum, so a positive smooth value still certifies
satisfaction.  Inputs are shifted by the running extremum before
exponentiation; the shift is mathematically exact for both
aggregations, it only prevents overflow.

smooth_robustness runs the smooth kernel over Vars, floats or a mix; over
Vars, softmin and softmax_lb record the Var operators.  smooth_adjoints
gives its adjoint at every state entry without a tape: a forward pass
over the program on the states' floats, then one reverse sweep in
Tape.backward's order over a flat list of slots, running hand-written
adjoints of the aggregations and the predicates' records, so its bits
are the tape's (reverse mode over floats: Griewank & Walther,
"Evaluating Derivatives", 2008, ch. 4 and 6).
"""

import math
from itertools import repeat
from operator import add, itemgetter, mul, sub

from .autodiff import Var, exp, ln, value_of
from .stl import Record, Trace, _kernel, _program


class SmoothConfig(Record):
    _fields = ("b",)
    b = 15.0

    def __post_init__(self):
        if not 0.0 < self.b < math.inf:
            raise ValueError("smoothing sharpness b must be finite and > 0")


def softmin(xs, b):
    if len(xs) == 1:
        return xs[0]
    m = min(map(value_of, _one_tape(xs)))
    acc = None
    for x in xs:
        e = exp((m - x) * b)
        acc = e if acc is None else acc + e
    return m - ln(acc) / b


def softmax_lb(xs, b):
    if len(xs) == 1:
        return xs[0]
    m = max(map(value_of, _one_tape(xs)))
    num = den = None
    for x in xs:
        w = exp((x - m) * b)
        num = x * w if num is None else num + x * w
        den = w if den is None else den + w
    return num / den


def _one_tape(xs):
    """xs, after a ValueError if its Vars are on two tapes, before any
    node is pushed."""
    if len({x.tape for x in xs if type(x) is Var}) > 1:
        raise ValueError("operands recorded on different tapes")
    return xs


# The float cores of smooth_adjoints: _softmin and _softmax_lb compute on
# floats (an entry's value and its slot, None for a float) in the order
# and with the operations of softmin and softmax_lb, so the values are
# theirs, and keep the args of an adjoint that replays Tape.backward's
# sweep over the records those would make: each entry x recorded x - m,
# * b and exp, and each add of a running sum passes its adjoint on
# unchanged (0.0 + g), so only the entries with a slot get terms, in
# reverse entry order, with the interpreter's skips of a zero adjoint.
# (Var.__radd__ adds a Var entry after a float-only prefix as e + acc, the
# same float as acc + e.)  The least entry's weight is exp(0.0) = 1.0, so
# a sum of weights is at least 1.0 or NaN, and the log and the division
# need no guard.

def _softmin(vs, ids, b):
    """(softmin of the values vs, its adjoint's args): live holds the slot
    and weight of each entry whose slot is not None."""
    m = min(vs)
    acc = None
    live = []
    for i, v in zip(ids, vs):
        e = math.exp((m - v) * b)
        if i is not None:
            live += i, e
        acc = e if acc is None else acc + e
    return m - math.log(acc) / b, (acc, b, live)


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


def _softmax_lb(vs, ids, b):
    """(softmax_lb of the values vs, its adjoint's args): live holds the
    slot, value and weight of each entry whose slot is not None."""
    m = max(vs)
    num = den = None
    live = []
    for i, v in zip(ids, vs):
        w = math.exp((v - m) * b)
        if i is not None:
            live += i, v, w
        num = v * w if num is None else num + v * w
        den = w if den is None else den + w
    out = num / den
    return out, (den, out, b, live)


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


def smooth_adjoints(f, states, cfg=SmoothConfig()):
    """The adjoint of smooth_robustness(f, Trace(states), cfg) at each entry
    of each state, a list per state: state_adjoints' over Vars of the
    states, bit for bit, without a tape.  None if f has a Named predicate,
    which only a tape differentiates.

    A forward pass walks f's program on the floats: an Affine predicate's
    rows are its eval's sum, taken a term at a time over the rows, and
    _softmin and _softmax_lb keep their adjoints' args.
    Each value with a node on the tape has a slot in adj, after one per
    state entry; a float (a predicate without a nonzero coefficient, an
    aggregation of floats) has none, and an aggregation of one entry is
    that entry.  The reverse sweep is Tape.backward's over the records
    of the aggregations and of each predicate row, in reverse creation
    order (see _affine_adjoint).
    """
    steps = _program(f, Trace(states), 0)[1]
    if any(op == "named" for *_, op in steps):
        return None
    b, dim = cfg.b, len(states[0])
    size = len(states) * dim  # the next free slot
    ops, vals, slots = [], [], []  # (adjoint, slot, args); each step's signal

    def aggregate(fn, pairs):
        # fn's smooth aggregation of each (values, slots) in pairs, in
        # order: their values and slots
        nonlocal size
        core, adjoint = _CORES[fn]
        vs, ids = [], []
        for v, i in pairs:
            if len(v) == 1:
                v, i = v[0], i[0]
            else:
                v, args = core(v, i, b)
                i = None
                if args[-1]:  # an entry has a slot
                    ops.append((adjoint, size, args))
                    i, size = size, size + 1
            vs.append(v)
            ids.append(i)
        return vs, ids

    for g, lo, n, kids, fn, op in steps:
        if op == "affine":
            # eval's sum over the rows, a term at a time
            rows, vs = states[lo:lo + n], [g.h.d] * n
            terms = [(c, i) for i, c in enumerate(g.h.c) if c != 0.0]
            for c, i in terms:
                xs = map(itemgetter(i), rows)
                vs = list(map(add, vs, xs) if c == 1.0 else map(sub, vs, xs)
                          if c == -1.0 else map(add, vs, map(mul, repeat(c),
                                                              xs)))
            ids = [None] * n
            if terms and n:
                ids = list(range(size, size + n))
                ops.append((_affine_adjoint, size, (lo * dim, dim, n, terms)))
                size += n
        elif op == "andor":
            vs, ids = aggregate(fn, zip(zip(*[vals[c] for c in kids]),
                                        zip(*[slots[c] for c in kids])))
        elif op == "window":
            (z, zi), w = (vals[kids[0]], slots[kids[0]]), g.b - g.a + 1
            vs, ids = aggregate(fn, ((z[j:j + w], zi[j:j + w])
                                     for j in range(n)))
        else:  # U/R as _soft_until, fn the inner aggregation
            (lv, li), (rv, ri) = [(vals[c], slots[c]) for c in kids]
            vs, ids = [], []
            for j in range(n):
                inner = aggregate(fn, (
                    (lv[j:j + g.a + p] + rv[j + p:j + p + 1],
                     li[j:j + g.a + p] + ri[j + p:j + p + 1])
                    for p in range(g.b - g.a + 1)))
                v, i = aggregate(max if fn is min else min, [inner])
                vs += v
                ids += i
        vals.append(vs)
        slots.append(ids)
    root = slots[-1][0]
    adj = [0.0] * size
    if root is not None:
        adj[root] = 1.0
        for adjoint, n, args in reversed(ops):
            adjoint(adj, n, args)
    return [adj[i:i + dim] for i in range(0, len(states) * dim, dim)]


_CORES = {min: (_softmin, _softmin_adjoint),
          max: (_softmax_lb, _softmax_lb_adjoint)}


def _affine_adjoint(adj, n, args):
    # the records of Affine.eval's rows over Vars, whose values are at
    # slots n..: a term c * x{i} adds g (ADD) or subtracts it (SUB) or
    # adds g * c (MUL by a constant) at x{i}, each partial sum passing g on
    # unchanged (0.0 + g).  A step's rows read distinct state entries, so
    # it goes a term at a time.  The interpreter skips a zero g; adding it
    # leaves a state's slot as it is, as that never holds -0.0 (a sum from
    # 0.0), but for a MUL term, whose 0.0 * c is NaN if c is infinite.
    o, dim, rows, terms = args
    gs = adj[n:n + rows]
    for c, i in terms:
        col = slice(o + i, o + i + rows * dim, dim)
        adj[col] = list(
            map(add, adj[col], gs) if c == 1.0 else map(sub, adj[col], gs)
            if c == -1.0 else map(add, adj[col], [g * c if g else 0.0
                                                  for g in gs]))
