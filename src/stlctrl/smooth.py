"""Smooth lower bound of the robustness, differentiable on the tape or,
with Affine predicates, on floats.

min is replaced by softmin(x) = -(1/b) ln(sum_i e^{-b x_i}) and max by
the weighted mean softmax_lb(x) = sum_i x_i e^{b x_i} / sum_i e^{b x_i}
(Pant, Abbas & Mangharam, "Smooth Operator", CCTA 2017).  Both are below
the exact extremum, so a positive smooth value still certifies
satisfaction.  Inputs are shifted by the running extremum before
exponentiation; the shift is mathematically exact for both
aggregations, it only prevents overflow.

One walk over the compiled program (stl._compile), the steps one by one,
computes both.  smooth_robustness walks it over Vars, floats or a mix;
over Vars, softmin and softmax_lb record the Var operators.
smooth_adjoints gives its adjoint at every state entry without a tape:
the walk on the states' floats records a reverse sweep in Tape.backward's
order over a flat list of slots, running hand-written adjoints of the
aggregations and the predicates' records, so its bits are the tape's
(reverse mode over floats: Griewank & Walther, "Evaluating Derivatives",
2008, ch. 4 and 6).
"""

import math
from itertools import repeat
from operator import add, itemgetter, mul, sub

from .autodiff import Var, exp, ln, value_of
from .stl import Record, Trace, _program


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
    return _walk(_program(f, tr, 0)[1], tr.states, cfg.b)[0][-1][0]


def smooth_adjoints(f, states, cfg=SmoothConfig()):
    """The adjoint of smooth_robustness(f, Trace(states), cfg) at each entry
    of each state, a list per state: state_adjoints' over Vars of the
    states, bit for bit, without a tape.  None if f has a Named predicate,
    which only a tape differentiates.

    _walk records the reverse sweep on the floats, which is Tape.backward's
    over the records of the aggregations and of each predicate row, in
    reverse creation order (see _affine_adjoint).
    """
    steps = _program(f, Trace(states), 0)[1]
    if any(op == "named" for *_, op in steps):
        return None
    ops, dim = [], len(states[0])
    _, slots, size = _walk(steps, states, cfg.b, ops)
    root = slots[-1][0]
    adj = [0.0] * size
    if root is not None:
        adj[root] = 1.0
        for adjoint, n, args in reversed(ops):
            adjoint(adj, n, args)
    return [adj[i:i + dim] for i in range(0, len(states) * dim, dim)]


def _walk(steps, states, b, ops=None):
    """(each step's signal, its slots, the slots used) of the smooth
    robustness over states, the program's steps one by one in order.

    Without ops, a predicate's rows go through its eval and softmin and
    softmax_lb aggregate, over Vars, floats or a mix, so a tape records
    each step's nodes in turn; no value has a slot.  With ops, a list, the
    states are floats and every predicate Affine: its rows are its eval's
    sum, taken a term at a time over the rows, and _softmin and
    _softmax_lb keep their adjoints' args, each (adjoint, slot, args)
    appended to ops.  Each value with a node on the tape then has a slot,
    after one per state entry; a float (a predicate without a nonzero
    coefficient, an aggregation of floats) has none, and an aggregation
    of one entry is that entry.
    """
    dim = len(states[0])
    size = len(states) * dim  # the next free slot
    vals, slots = [], []

    def aggregate(fn, pick, z=vals, zi=slots):
        # fn's smooth aggregation of each list of values pick(z) gives, in
        # order, pick(zi) their slots: the values, and their slots with ops
        nonlocal size
        if ops is None:
            agg = softmin if fn is min else softmax_lb
            return [agg(v, b) for v in pick(z)], None
        core, adjoint = _CORES[fn]
        vs, ids = [], []
        for v, i in zip(pick(z), pick(zi)):
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
        if not kids and ops is None:
            vs, ids = list(map(fn, states[lo:lo + n])), None
        elif not kids:
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
            vs, ids = aggregate(fn, lambda z: zip(*[z[c] for c in kids]))
        elif op == "window":
            c, w = kids[0], g.b - g.a + 1
            vs, ids = aggregate(fn, lambda z: (z[c][j:j + w]
                                               for j in range(n)))
        else:  # U/R, fn the inner aggregation of left@t..k'-1, right@k'
            (c, d), out, vs, ids = kids, max if fn is min else min, [], []
            for j in range(n):
                v, i = aggregate(out, lambda z: [z], *aggregate(
                    fn, lambda z: (z[c][j:j + g.a + p] + z[d][j + p:j + p + 1]
                                   for p in range(g.b - g.a + 1))))
                vs += v
                ids += i or ()  # no slots without ops
        vals.append(vs)
        slots.append(ids)
    return vals, slots, size


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
