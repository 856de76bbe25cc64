import math
import random

import pytest

from stlctrl import autodiff as ad
from stlctrl.autodiff import Tape, EvalError


def grads(build, point, h=1e-6):
    """Central finite differences of a scalar builder over a point list."""
    out = []
    for i in range(len(point)):
        hi = list(point)
        lo = list(point)
        hi[i] += h
        lo[i] -= h
        out.append((build(hi) - build(lo)) / (2 * h))
    return out


def test_product_rule():
    t = Tape()
    x = t.const(2.0)
    y = t.const(3.0)
    z = x * y
    assert t.backward(z, [x, y]) == [3.0, 2.0]


def test_tanh_prime_at_zero():
    t = Tape()
    x = t.const(0.0)
    y = ad.tanh(x)
    assert t.backward(y, [x]) == [1.0]


def test_unused_seed_gradient_exactly_zero():
    t = Tape()
    x = t.const(1.0)
    dead = t.const(4.0)
    y = ad.exp(x) * 2.0
    g = t.backward(y, [x, dead])
    assert g[1] == 0.0


def test_seed_recorded_after_output():
    t = Tape()
    x = t.const(1.0)
    y = x * x
    late = t.const(9.0)
    assert t.backward(y, [x, late]) == [2.0, 0.0]


def _rand_expr(vals):
    t = Tape()
    xs = [t.const(v) for v in vals]
    a, b, c, d = xs
    e1 = ad.sin(a * b) + ad.cos(c)
    e2 = ad.tanh(a - c) * ad.exp(b * 0.3)
    e3 = ad.ln(ad.exp(d) + 1.5) / (2.0 + ad.powc(c * c + 0.5, 1.7))
    out = e1 * e2 + e3 - a / (b * b + 2.0)
    return t, xs, out


def test_finite_difference_oracle_smooth_ops():
    rng = random.Random(42)
    for _ in range(100):
        vals = [rng.uniform(-2, 2) for _ in range(4)]
        t, xs, out = _rand_expr(vals)
        got = t.backward(out, xs)

        def f(p):
            _, _, o = _rand_expr(p)
            return o.value

        want = grads(f, vals)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-4, abs=1e-7)


def test_recording_deterministic():
    t1, xs1, out1 = _rand_expr([0.1, 0.2, 0.3, 0.4])
    t2, xs2, out2 = _rand_expr([0.1, 0.2, 0.3, 0.4])
    assert t1.recs == t2.recs
    assert t1.vals == t2.vals
    assert out1.i == out2.i


def test_max_min_subgradients():
    t = Tape()
    x = t.const(1.0)
    y = t.const(2.0)
    assert t.backward(ad.vmax(x, y), [x, y]) == [0.0, 1.0]
    # exact tie splits the adjoint evenly
    z = t.const(2.0)
    assert t.backward(ad.vmax(y, z), [y, z]) == [0.5, 0.5]


def test_float_operand_wrapping():
    t = Tape()
    x = t.const(3.0)
    y = 1.0 + 2.0 * x - x / 4.0 + (10.0 - x)
    assert y.value == pytest.approx(1.0 + 6.0 - 0.75 + 7.0)
    (g,) = t.backward(y, [x])
    assert g == pytest.approx(2.0 - 0.25 - 1.0)


def test_domain_errors():
    t = Tape()
    x = t.const(-1.0)
    with pytest.raises(EvalError):
        ad.ln(x)
    with pytest.raises(EvalError):
        x / t.const(0.0)
    with pytest.raises(EvalError):
        ad.powc(x, 0.5)


def test_cross_tape_rejected():
    t1, t2 = Tape(), Tape()
    x = t1.const(1.0)
    y = t2.const(1.0)
    with pytest.raises(ValueError):
        _ = x + y
    with pytest.raises(ValueError):
        t1.backward(y, [x])


def test_helpers_on_plain_floats():
    assert ad.tanh(0.3) == math.tanh(0.3)
    assert ad.vmax(1.0, 2.0) == 2.0
    assert ad.value_of(3) == 3.0
    t = Tape()
    assert ad.value_of(t.const(7.0)) == 7.0


def test_div_and_pow_backward_values():
    t = Tape()
    x = t.const(3.0)
    y = t.const(2.0)
    q = x / y
    gx, gy = t.backward(q, [x, y])
    assert gx == pytest.approx(0.5)
    assert gy == pytest.approx(-0.75)
    p = ad.powc(x, 3.0)
    (g,) = t.backward(p, [x])
    assert g == pytest.approx(27.0)


def test_range_seeds_past_the_tape_are_zero():
    # a range of seeds is returned as one slice of the adjoints, padded
    # with zeros for the ids past the tape, as a list of Vars reads them
    t = Tape()
    xs = t.consts([2.0, 3.0])
    y = ad.Var(t, xs[0]) * ad.Var(t, xs[1])
    assert len(t) == 3
    assert t.backward(y, range(0, 5)) == [3.0, 2.0, 1.0, 0.0, 0.0]
    assert t.backward(y, range(1, 3)) == [2.0, 1.0]
    assert t.backward(y, range(4, 7)) == [0.0, 0.0, 0.0]
    assert t.backward(y, range(2, 2)) == []
    assert t.backward(y, range(2, -1, -1)) == [1.0, 2.0, 3.0]
