import math
import random

import pytest

from stlctrl.autodiff import Tape, Var
from stlctrl.smooth import SmoothConfig, smooth_robustness, softmin, softmax_lb
from stlctrl.stl import (
    Affine, Always, And, Eventually, Or, Pred, Release, Trace, Until,
    aggregation_shape, horizon, parse, robustness, satisfies,
)
from tests.test_stl import (
    CORPUS, bits, crafted_traces, random_formula, zero_offsets,
)


def smooth_value(f, states, b):
    return smooth_robustness(f, Trace(states), SmoothConfig(b))


def test_softmin_closed_form():
    got = softmin([1.0, 2.0], 10.0)
    want = -0.1 * math.log(math.exp(-10.0) + math.exp(-20.0))
    assert got == pytest.approx(want, rel=1e-12)
    assert got <= 1.0


def test_softmax_lb_closed_form():
    b = 10.0
    w1, w2 = math.exp(10.0), math.exp(20.0)
    want = (1.0 * w1 + 2.0 * w2) / (w1 + w2)
    assert softmax_lb([1.0, 2.0], b) == pytest.approx(want, rel=1e-12)
    assert softmax_lb([1.0, 2.0], b) <= 2.0


def test_single_predicate_exact():
    f = parse("x0 > 0")
    states = [(1.7,)]
    assert smooth_value(f, states, 15.0) == robustness(f, Trace(states))


def test_arity_one_aggregations_identity():
    f = parse("G[2,2](F[1,1](x0 > 0.5))")
    states = [(0.1,), (0.2,), (0.3,), (0.9,)]
    assert smooth_value(f, states, 5.0) == robustness(f, Trace(states))


def test_lower_bound_and_gap_on_corpus():
    for f, states in CORPUS:
        rho = robustness(f, Trace(states))
        depth, fanin = aggregation_shape(f)
        for b in (5.0, 15.0):
            s = smooth_value(f, states, b)
            assert s <= rho + 1e-12
            assert rho - s <= depth * math.log(max(fanin, 2)) / b + 1e-9


def test_positivity_soundness():
    hits = 0
    for f, states in CORPUS:
        if smooth_value(f, states, 15.0) > 0.0:
            assert satisfies(f, Trace(states))
            hits += 1
    assert hits > 50


def test_overflow_safety_large_values():
    f = parse("G[0,3](x0 > 0)")
    states = [(1e6,), (2e6,), (3e6,), (4e6,)]
    s = smooth_value(f, states, 15.0)
    assert math.isfinite(s)
    assert s <= 1e6


def test_gradient_matches_finite_differences():
    rng = random.Random(11)
    picked = [fs for fs in CORPUS if aggregation_shape(fs[0])[0] >= 1][:20]
    for f, states in picked:
        tape = Tape()
        var_states = [tuple(tape.const(x) for x in s) for s in states]
        out = smooth_robustness(f, Trace(var_states), SmoothConfig(8.0))
        seeds = [v for s in var_states for v in s]
        got = tape.backward(out, seeds)
        h = 1e-6
        flat = [x for s in states for x in s]
        dim = len(states[0])
        for _ in range(3):
            i = rng.randrange(len(flat))
            def at(v):
                p = list(flat)
                p[i] = v
                st = [tuple(p[r * dim:(r + 1) * dim]) for r in range(len(states))]
                return smooth_value(f, st, 8.0)
            fd = (at(flat[i] + h) - at(flat[i] - h)) / (2 * h)
            assert got[i] == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_mixed_var_and_float_trace():
    f = parse("G[0,2](x0 > 0)")
    tape = Tape()
    v = tape.const(2.0)
    tr = Trace([(1.0,), (v,), (3.0,)])
    out = smooth_robustness(f, tr, SmoothConfig(15.0))
    (g,) = tape.backward(out, [v])
    assert out.value <= 1.0
    assert 0.0 <= g <= 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        SmoothConfig(0.0)
    with pytest.raises(ValueError):
        SmoothConfig(-3.0)
    for b in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            SmoothConfig(b)


def test_sharper_b_is_tighter():
    f = parse("F[0,3](x0 > 0) && G[0,3](x0 > -2)")
    states = [(0.5,), (-0.1,), (0.8,), (0.2,)]
    rho = robustness(f, Trace(states))
    gaps = [rho - smooth_value(f, states, b) for b in (2.0, 5.0, 15.0, 50.0)]
    assert all(gaps[i] >= gaps[i + 1] - 1e-12 for i in range(len(gaps) - 1))


# -- the memoised recursion the compiled program replaced (oracle) -----------

def srho_rec(f, states, k, b, memo):
    key = (id(f), k)
    got = memo.get(key)
    if got is not None:
        return got
    if isinstance(f, Pred):
        v = f.h.eval(states[k])
    elif isinstance(f, And):
        v = softmin([srho_rec(c, states, k, b, memo) for c in f.children], b)
    elif isinstance(f, Or):
        v = softmax_lb([srho_rec(c, states, k, b, memo) for c in f.children], b)
    elif isinstance(f, Always):
        v = softmin([srho_rec(f.child, states, kk, b, memo)
                     for kk in range(k + f.a, k + f.b + 1)], b)
    elif isinstance(f, Eventually):
        v = softmax_lb([srho_rec(f.child, states, kk, b, memo)
                        for kk in range(k + f.a, k + f.b + 1)], b)
    elif isinstance(f, Until):
        outer = []
        for kp in range(k + f.a, k + f.b + 1):
            inner = [srho_rec(f.left, states, kpp, b, memo)
                     for kpp in range(k, kp)]
            inner.append(srho_rec(f.right, states, kp, b, memo))
            outer.append(softmin(inner, b))
        v = softmax_lb(outer, b)
    elif isinstance(f, Release):
        outer = []
        for kp in range(k + f.a, k + f.b + 1):
            inner = [srho_rec(f.left, states, kpp, b, memo)
                     for kpp in range(k, kp)]
            inner.append(srho_rec(f.right, states, kp, b, memo))
            outer.append(softmax_lb(inner, b))
        v = softmin(outer, b)
    else:
        raise TypeError
    memo[key] = v
    return v


def outcome(fn, *args):
    """fn's value as bits, or the exception it raised."""
    try:
        return bits(fn(*args))
    except Exception as e:
        return type(e), str(e)


def test_program_matches_recursion_bit_for_bit_on_corpus():
    for f, states in CORPUS:
        for b in (5.0, 15.0):
            assert bits(smooth_value(f, states, b)) == \
                bits(srho_rec(f, states, 0, b, {})), (f, b)


@pytest.mark.parametrize("pool", [
    (0.0, -0.0, 1.0, -1.0, 2.0, math.inf, -math.inf),
    (0.0, -0.0, 1.0, math.nan, math.inf, -math.inf),
])
def test_program_matches_recursion_on_ties_zeros_and_infinities(pool):
    rng = random.Random(8)
    checked = 0
    while checked < 400:
        dim = rng.randint(1, 3)
        f = random_formula(rng, dim, rng.randint(1, 3))
        h = horizon(f)
        if h > 12:
            continue
        f = zero_offsets(f)
        states = crafted_traces(rng, dim, h + rng.randint(0, 3), pool)
        for b in (5.0, 15.0):
            assert outcome(smooth_value, f, states, b) == \
                outcome(srho_rec, f, states, 0, b, {}), (f, states, b)
        checked += 1


def taped(run, f, states, b):
    """(node count, value, gradient) of run on a fresh tape over states."""
    tape = Tape()
    var_states = [tuple(tape.const(x) for x in s) for s in states]
    out = run(f, var_states, b)
    seeds = [v for s in var_states for v in s]
    if not isinstance(out, Var):  # a formula whose predicates read no state
        return len(tape), out, None
    return len(tape), out.value, tape.backward(out, seeds)


def test_tape_records_and_gradients_match_recursion_on_corpus():
    # the program records predicate nodes step by step rather than time by
    # time, so a state read by several predicates may sum its adjoint in
    # another order: gradients agree to rounding, node counts exactly
    for f, states in CORPUS:
        for b in (5.0, 15.0):
            n, value, grad = taped(
                lambda f, st, b: smooth_robustness(f, Trace(st),
                                                   SmoothConfig(b)),
                f, states, b)
            n_rec, value_rec, grad_rec = taped(
                lambda f, st, b: srho_rec(f, st, 0, b, {}), f, states, b)
            assert n == n_rec, (f, b)
            assert bits(value) == bits(value_rec), (f, b)
            assert grad == (grad_rec if grad is None else
                            pytest.approx(grad_rec, rel=1e-14, abs=0.0)), (f, b)
