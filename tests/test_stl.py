import math
import random
import struct

import pytest

from stlctrl import stl
from stlctrl.stl import (
    Affine, Always, And, Eventually, HorizonError, Named, Or, ParseError,
    Pred, Release, Trace, Until, UnsupportedNegation, critical, horizon,
    negate, parse, robustness, satisfies,
)


def tr1(xs):
    return Trace([(x,) for x in xs])


def forbid_traces(monkeypatch):
    """Make building a Trace fail, for a run that should hand its rollouts
    to the semantics as they are."""
    def no_trace(self, states):
        raise AssertionError("a Trace was built")

    monkeypatch.setattr(stl.Trace, "__init__", no_trace)


# -- brute-force oracle: a separate, loop-explicit transcription --------------

def brute(f, states, k):
    if isinstance(f, Pred):
        return f.h.eval(states[k])
    if isinstance(f, And):
        return min(brute(c, states, k) for c in f.children)
    if isinstance(f, Or):
        return max(brute(c, states, k) for c in f.children)
    if isinstance(f, Always):
        vals = []
        for kk in range(k + f.a, k + f.b + 1):
            vals.append(brute(f.child, states, kk))
        return min(vals)
    if isinstance(f, Eventually):
        vals = []
        for kk in range(k + f.a, k + f.b + 1):
            vals.append(brute(f.child, states, kk))
        return max(vals)
    if isinstance(f, Until):
        outer = []
        for kp in range(k + f.a, k + f.b + 1):
            inner = [brute(f.right, states, kp)]
            for kpp in range(k, kp):
                inner.append(brute(f.left, states, kpp))
            outer.append(min(inner))
        return max(outer)
    if isinstance(f, Release):
        outer = []
        for kp in range(k + f.a, k + f.b + 1):
            inner = [brute(f.right, states, kp)]
            for kpp in range(k, kp):
                inner.append(brute(f.left, states, kpp))
            outer.append(max(inner))
        return min(outer)
    raise TypeError


def brute_sat(f, states, k):
    if isinstance(f, Pred):
        v = f.h.eval(states[k])
        return v > 0 if f.strict else v >= 0
    if isinstance(f, And):
        return all(brute_sat(c, states, k) for c in f.children)
    if isinstance(f, Or):
        return any(brute_sat(c, states, k) for c in f.children)
    if isinstance(f, Always):
        return all(brute_sat(f.child, states, kk)
                   for kk in range(k + f.a, k + f.b + 1))
    if isinstance(f, Eventually):
        return any(brute_sat(f.child, states, kk)
                   for kk in range(k + f.a, k + f.b + 1))
    if isinstance(f, Until):
        return any(brute_sat(f.right, states, kp)
                   and all(brute_sat(f.left, states, kpp) for kpp in range(k, kp))
                   for kp in range(k + f.a, k + f.b + 1))
    if isinstance(f, Release):
        return all(brute_sat(f.right, states, kp)
                   or any(brute_sat(f.left, states, kpp) for kpp in range(k, kp))
                   for kp in range(k + f.a, k + f.b + 1))
    raise TypeError


def random_formula(rng, dim, depth):
    """Random formula, depth <= 3, fan-in <= 3, horizon kept <= 15."""
    if depth == 0 or rng.random() < 0.3:
        c = [0.0] * dim
        c[rng.randrange(dim)] = rng.choice([1.0, -1.0, 2.0, -0.5])
        if rng.random() < 0.4 and dim > 1:
            c[rng.randrange(dim)] += rng.choice([1.0, -1.0])
        return Pred(Affine(tuple(c), rng.uniform(-1, 1)),
                    strict=rng.random() < 0.5)
    kind = rng.randrange(6)
    if kind == 0:
        n = rng.randint(2, 3)
        return And(tuple(random_formula(rng, dim, depth - 1) for _ in range(n)))
    if kind == 1:
        n = rng.randint(2, 3)
        return Or(tuple(random_formula(rng, dim, depth - 1) for _ in range(n)))
    a = rng.randint(0, 2)
    b = a + rng.randint(0, 5 - a)
    if kind == 2:
        return Always(a, b, random_formula(rng, dim, depth - 1))
    if kind == 3:
        return Eventually(a, b, random_formula(rng, dim, depth - 1))
    if kind == 4:
        return Until(a, b, random_formula(rng, dim, depth - 1),
                     random_formula(rng, dim, depth - 1))
    return Release(a, b, random_formula(rng, dim, depth - 1),
                   random_formula(rng, dim, depth - 1))


def corpus(n=500, seed=2024):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        dim = rng.randint(1, 3)
        f = random_formula(rng, dim, rng.randint(1, 3))
        h = horizon(f)
        if h > 15:
            continue
        K = h + rng.randint(0, 3)
        states = [tuple(rng.uniform(-3, 3) for _ in range(dim))
                  for _ in range(K + 1)]
        out.append((f, states))
    return out


CORPUS = corpus()


def test_oracle_equivalence_bit_exact():
    for f, states in CORPUS:
        tr = Trace(states)
        assert robustness(f, tr) == brute(f, states, 0)
        assert satisfies(f, tr) == brute_sat(f, states, 0)


def test_critical_witness_identity():
    for f, states in CORPUS:
        tr = Trace(states)
        w = critical(f, tr)
        assert w.value == robustness(f, tr)
        assert w.value == w.predicate.h.eval(states[w.time])


def test_sign_agreement():
    checked = 0
    for f, states in CORPUS[:200]:
        tr = Trace(states)
        rho = robustness(f, tr)
        if rho != 0.0:
            assert satisfies(f, tr) == (rho > 0)
            checked += 1
    assert checked > 150


def test_horizon_examples():
    assert horizon(parse("F[0,3](x0 > 0)")) == 3
    assert horizon(parse("F[0,3](G[0,9](x0 > 0))")) == 12
    assert horizon(parse("x0 > 0")) == 0
    assert horizon(parse("U[1,4](x0 > 0, G[0,2](x0 > 1))")) == 6


def test_horizon_is_minimal():
    # evaluating with exactly horizon+1 states works; one fewer fails
    for f, states in CORPUS[:100]:
        h = horizon(f)
        tr = Trace(states[:h + 1])
        robustness(f, tr)
        if h > 0:
            with pytest.raises(HorizonError):
                robustness(f, Trace(states[:h]))


def test_example_eventually_critical_time():
    f = parse("F[0,3](x0 > 0)")
    tr = tr1([1, 2, 3, 1.5])
    assert robustness(f, tr) == 3.0
    w = critical(f, tr)
    assert w.time == 2
    assert w.value == 3.0
    assert satisfies(f, tr)


def test_tie_breaks_to_smallest_time():
    f = parse("G[0,2](x0 > 0)")
    w = critical(f, tr1([5, 5, 5]))
    assert w.time == 0
    assert w.value == 5.0


def test_tie_breaks_to_left_operand():
    left = Pred(Affine((1.0,), 0.0))
    right = Pred(Affine((2.0,), -3.0))
    f = And((left, right))
    w = critical(f, tr1([3]))  # both evaluate to 3
    assert w.predicate is left


def test_always_min():
    assert robustness(parse("G[0,2](x0 > 0)"), tr1([1, 2, 3])) == 1.0


def test_eventually_all_negative():
    f = parse("F[0,3](x0 > 0)")
    assert not satisfies(f, tr1([-1, -1, -1, -1]))


def test_until_empty_range_convention():
    # at k'=0 the inner min over left is empty, so U reduces to right at 0
    f = Until(0, 0, Pred(Affine((1.0,), -100.0)), Pred(Affine((1.0,), 0.0)))
    assert robustness(f, tr1([7])) == 7.0
    g = Release(0, 0, Pred(Affine((1.0,), 100.0)), Pred(Affine((1.0,), 0.0)))
    assert robustness(g, tr1([7])) == 7.0


# -- parser -------------------------------------------------------------------

def test_parse_basic_shapes():
    f = parse("F[0,3](x0 > 0)")
    assert isinstance(f, Eventually) and (f.a, f.b) == (0, 3)
    assert isinstance(f.child, Pred)
    g = parse("x0 > 0 && x1 > 1 || x0 < 2")
    assert isinstance(g, Or)
    assert isinstance(g.children[0], And)


def test_parse_affine_terms():
    f = parse("2*x0 - 1.5*x1 + 3 >= 0.5")
    assert f.h.c == (2.0, -1.5)
    assert f.h.d == pytest.approx(2.5)
    assert not f.strict


def test_parse_less_than_normalizes():
    f = parse("x0 < 2")
    assert f.h.c == (-1.0,)
    assert f.h.d == pytest.approx(2.0)
    assert f.strict
    assert f.h.eval((1.5,)) == pytest.approx(0.5)


def test_parse_negation_pushdown():
    f = parse("!(x0 > 1)")
    assert isinstance(f, Pred)
    assert not f.strict
    assert f.h.eval((0.0,)) == pytest.approx(1.0)
    g = parse("!(F[0,2](x0 > 0 && x1 > 0))")
    assert isinstance(g, Always)
    assert isinstance(g.child, Or)


def test_parse_until_release():
    f = parse("U[1,4](x0 > 0, x1 > 1)")
    assert isinstance(f, Until) and (f.a, f.b) == (1, 4)
    g = parse("!(U[1,4](x0 > 0, x1 > 1))")
    assert isinstance(g, Release)


def test_parse_named_predicates():
    near = Named("near", lambda s: 1.0 - s[0] * s[0])
    f = parse("pred(near) && x0 > -5", named={"near": near})
    tr = tr1([0.5])
    assert robustness(f, tr) == pytest.approx(0.75)
    with pytest.raises(UnsupportedNegation):
        parse("!(pred(near))", named={"near": near})


def test_parse_errors_with_position():
    with pytest.raises(ParseError) as e:
        parse("F[0,3](x0 >)")
    assert e.value.line == 1 and e.value.col > 1
    with pytest.raises(ParseError):
        parse("F[3,1](x0 > 0)")
    with pytest.raises(ParseError):
        parse("x0 > 0 &&")
    with pytest.raises(ParseError):
        parse("pred(nope)")
    with pytest.raises(ParseError):
        parse("F[0.5,3](x0 > 0)")
    with pytest.raises(ParseError):
        parse("x0 > 0 x1 > 0")


P1 = Pred(Affine((1.0,), 0.0))

PARSED = [
    # (text, tree): a sign may lead the first term
    ("-x0 > 0", Pred(Affine((-1.0,), 0.0))),
    ("+2*x1 - x0 > 0", Pred(Affine((-1.0, 2.0), 0.0))),
    ("x0 > -3", Pred(Affine((1.0,), 3.0))),
    ("G [0,2](x0 > 0)", Always(0, 2, P1)),
    ("F[1e0,2](x0 > 0)", Eventually(1, 2, P1)),
    ("x0 > .5", Pred(Affine((1.0,), -0.5))),
    ("3.*x1 <= 1.5E-3", Pred(Affine((-0.0, -3.0), 1.5e-3), strict=False)),
    ("x0 > 0\n&& x0 > 0", And((P1, P1))),
]


@pytest.mark.parametrize("text,tree", PARSED)
def test_parse_tree_table(text, tree):
    assert parse(text) == tree


REJECTED = [
    # (text, the ParseError's column): a state variable is one token, x
    # then digits; a number is finite; a term takes one sign
    ("x+1 > 0", 1),
    ("x 1 > 0", 1),
    ("x1.0 > 0", 3),
    ("x1e0 > 0", 1),
    ("x0. < 3", 3),
    ("x0 > 1e400", 6),
    ("F[0,1e400](x0 > 0)", 5),
    ("x0 - -3 > 0", 6),
]


@pytest.mark.parametrize("text,col", REJECTED)
def test_parse_rejects_at_column(text, col):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (e.value.line, e.value.col) == (1, col)


def test_parse_rejects_a_state_variable_past_dim_at_its_token():
    assert parse("x0 > 0 && x1 > 0", dim=2) == parse("x0 > 0 && x1 > 0")
    with pytest.raises(ParseError) as e:
        parse("x0 > 0 &&\n  3*x2 > 0", dim=2)
    assert (e.value.line, e.value.col) == (2, 5) and "x2" in str(e.value)


def test_negate_is_involutive_on_robustness():
    for f, states in CORPUS[:100]:
        try:
            nf = negate(f)
        except UnsupportedNegation:
            continue
        tr = Trace(states)
        assert robustness(nf, tr) == pytest.approx(-robustness(f, tr))


def test_roundtrip_parse_matches_manual_ast():
    f = parse("G[0,2](x0 > 0)")
    g = Always(0, 2, Pred(Affine((1.0,), 0.0)))
    tr = tr1([1, 2, 3])
    assert robustness(f, tr) == robustness(g, tr)


def test_trace_validation():
    with pytest.raises(ValueError):
        Trace([])
    with pytest.raises(ValueError):
        Trace([(1.0,), (1.0, 2.0)])


def test_aggregation_shape():
    d, w = stl.aggregation_shape(parse("x0 > 0"))
    assert (d, w) == (0, 1)
    d, w = stl.aggregation_shape(parse("G[0,9](x0 > 0 && x1 > 0 && x0 > 1)"))
    assert d == 2 and w == 10
    d, w = stl.aggregation_shape(parse("U[0,4](x0 > 0, x1 > 0)"))
    assert d == 2 and w == 5


def loop_affine(h, state):
    """The coordinate loop Affine.eval replaces, every term c[i] * s[i]
    (oracle)."""
    v = h.d
    for i, ci in enumerate(h.c):
        if ci != 0.0:
            v = v + ci * state[i]
    return v


def test_affine_eval_matches_loop_on_floats_and_tape():
    # unit coefficients are a bare + or - s[i]: the same value bits as
    # 1.0 * s[i] and -1.0 * s[i], and the same gradient bits with fewer
    # tape nodes; the kernel's inline sum has the same bits
    from stlctrl.autodiff import Tape
    # signed zeros, infinities and subnormals, drawn now and then
    special = (0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2e-308,
               -1e-310)
    rng = random.Random(21)
    for dim in (1, 2, 7, 20, 4000):
        for trial in range(6):
            c = tuple(rng.choice((0.0, -0.0, 1.0, -1.0, 1, -1,
                                  rng.uniform(-5, 5))) for _ in range(dim))
            h = Affine(c, rng.choice((0.0, -0.0, rng.uniform(-5, 5))))
            odds = 0.0 if trial % 2 else 0.2 / dim ** 0.5
            s = tuple(rng.choice(special) if rng.random() < odds
                      else rng.uniform(-9, 9) for _ in range(dim))
            want = loop_affine(h, s)
            assert bits(h.eval(s)) == bits(want), (c, s)
            assert bits(robustness(Pred(h), Trace([s]))) == bits(want)
            runs = []
            for fn in (Affine.eval, loop_affine):
                tape = Tape()
                xs = tuple(tape.const(x) for x in s)
                out = fn(h, xs)
                runs.append((bits(out.value), len(tape),
                             [bits(g) for g in tape.backward(out, xs)]))
            assert runs[0][0] == runs[1][0] and runs[0][2] == runs[1][2]
            # a unit term is one node, not a constant, a product and a sum
            assert runs[1][1] - runs[0][1] == 2 * sum(
                ci in (1.0, -1.0) for ci in c)


def test_affine_compiled_evaluator_is_not_a_field():
    h = Affine((1.0, 0.0), 2.0)
    g = Affine((1.0, 0.0), 2.0)
    assert h.eval((3.0, 4.0)) == 5.0
    assert h == g and hash(h) == hash(g)
    assert repr(h) == repr(g)


def test_a_300_coordinate_predicate_is_affine_eval_bit_for_bit():
    # the kernels write a sum this long as several statements; each must
    # carry on Affine.eval's left-to-right order, unit terms (+ x, - x)
    # across the statement breaks too
    rng = random.Random(30)
    h = Affine(tuple(rng.choice((0.0, 1.0, -1.0, rng.uniform(-5, 5)))
                     for _ in range(300)), rng.uniform(-5, 5))
    tr = Trace([tuple(rng.uniform(-9, 9) for _ in range(300))
                for _ in range(4)])
    f = Pred(h)
    for k, s in enumerate(tr.states):
        assert bits(robustness(f, tr, k)) == bits(h.eval(s)) == bits(
            loop_affine(h, s))
        assert satisfies(f, tr, k) == (h.eval(s) > 0.0)


# -- the min/max recursions the compiled program replaced (oracles) -----------

def rho_rec(f, states, k, memo):
    key = (id(f), k)
    got = memo.get(key)
    if got is not None:
        return got
    if isinstance(f, Pred):
        v = f.h.eval(states[k])
    elif isinstance(f, And):
        v = min(rho_rec(c, states, k, memo) for c in f.children)
    elif isinstance(f, Or):
        v = max(rho_rec(c, states, k, memo) for c in f.children)
    elif isinstance(f, Always):
        v = min(rho_rec(f.child, states, kk, memo)
                for kk in range(k + f.a, k + f.b + 1))
    elif isinstance(f, Eventually):
        v = max(rho_rec(f.child, states, kk, memo)
                for kk in range(k + f.a, k + f.b + 1))
    elif isinstance(f, Until):
        v = -math.inf
        for kp in range(k + f.a, k + f.b + 1):
            inner = rho_rec(f.right, states, kp, memo)
            for kpp in range(k, kp):
                inner = min(inner, rho_rec(f.left, states, kpp, memo))
            v = max(v, inner)
    elif isinstance(f, Release):
        v = math.inf
        for kp in range(k + f.a, k + f.b + 1):
            inner = rho_rec(f.right, states, kp, memo)
            for kpp in range(k, kp):
                inner = max(inner, rho_rec(f.left, states, kpp, memo))
            v = min(v, inner)
    else:
        raise TypeError
    memo[key] = v
    return v


def crit_rec(f, states, k, memo):
    """(value, time, predicate), ties to the earlier time, then the left."""
    key = (id(f), k)
    got = memo.get(key)
    if got is not None:
        return got
    if isinstance(f, Pred):
        out = (f.h.eval(states[k]), k, f)
    elif isinstance(f, (And, Or)):
        take_min = isinstance(f, And)
        out = None
        for c in f.children:
            cand = crit_rec(c, states, k, memo)
            out = cand if out is None else pick(out, cand, take_min)
    elif isinstance(f, (Always, Eventually)):
        take_min = isinstance(f, Always)
        out = None
        for kk in range(k + f.a, k + f.b + 1):
            cand = crit_rec(f.child, states, kk, memo)
            out = cand if out is None else pick(out, cand, take_min)
    elif isinstance(f, (Until, Release)):
        is_until = isinstance(f, Until)
        out = None
        for kp in range(k + f.a, k + f.b + 1):
            inner = None
            for kpp in range(k, kp):
                cand = crit_rec(f.left, states, kpp, memo)
                inner = cand if inner is None else pick(inner, cand, is_until)
            cand = crit_rec(f.right, states, kp, memo)
            inner = cand if inner is None else pick(inner, cand, is_until)
            out = inner if out is None else pick(out, inner, not is_until)
    else:
        raise TypeError
    memo[key] = out
    return out


def pick(best, cand, take_min):
    if take_min:
        return cand if cand[0] < best[0] else best
    return cand if cand[0] > best[0] else best


def bits(x):
    return struct.pack("d", x)


def nan_as_one(x):
    """bits(x), with every NaN as math.nan: with two NaN operands CPython's
    float add returns either one's NaN, by whether the interpreter has
    specialised the instruction yet, so a NaN's sign does not repeat even
    for the same code.  Signed zeros and infinities stay told apart."""
    return bits(x if x == x else math.nan)


def assert_matches_recursions(f, states, key=bits):
    """Robustness, satisfaction and witness at every valid k equal the
    recursions', robustness compared as key(value).

    With NaN states the witness is not compared, nor at a k where the
    witness recursion and the robustness recursion disagree themselves:
    a predicate NaN from 0 * inf or inf - inf makes them disagree."""
    tr = Trace(states)
    has_nan = any(x != x for s in states for x in s)
    for k in range(len(states) - horizon(f)):
        want = rho_rec(f, states, k, {})
        assert key(robustness(f, tr, k)) == key(want), (f, k)
        assert satisfies(f, tr, k) is brute_sat(f, states, k), (f, k)
        w = critical(f, tr, k)
        value, time, pred = crit_rec(f, states, k, {})
        if has_nan or not (value == want or value != value and want != want):
            continue
        assert (w.time, w.predicate) == (time, pred), (f, k)
        assert bits(w.value) == bits(value), (f, k)


def test_program_matches_recursions_on_corpus():
    for f, states in CORPUS:
        assert_matches_recursions(f, states)


def crafted_traces(rng, dim, K, pool):
    """Traces drawn from a few values, so that ties reach every operator."""
    return [tuple(rng.choice(pool) for _ in range(dim)) for _ in range(K + 1)]


@pytest.mark.parametrize("pool", [
    (0.0, -0.0, 1.0, -1.0, 2.0, math.inf, -math.inf),
    (0.0, -0.0, 1.0, math.nan, math.inf, -math.inf),
])
def test_program_matches_recursions_on_ties_zeros_and_infinities(pool):
    rng = random.Random(7)
    checked = 0
    while checked < 400:
        dim = rng.randint(1, 3)
        f = random_formula(rng, dim, rng.randint(1, 3))
        h = horizon(f)
        if h > 12:
            continue
        # predicates read +-s_i directly, so signed zeros, infinities and
        # NaN reach the operators as drawn (Affine adds d, losing -0.0)
        f = zero_offsets(f)
        states = crafted_traces(rng, dim, h + rng.randint(0, 3), pool)
        assert_matches_recursions(f, states, key=nan_as_one)
        checked += 1


def zero_offsets(f):
    """f with every predicate h(s) = +-s_i, copying signed zeros and infs."""
    if isinstance(f, Pred) and isinstance(f.h, Named):
        return f
    if isinstance(f, Pred):
        i = next((i for i, ci in enumerate(f.h.c) if ci != 0.0), 0)
        sign = -1.0 if f.h.c[i] < 0 else 1.0
        return Pred(Named(f"{sign:+g}x{i}",
                          (lambda s, i=i: s[i]) if sign > 0
                          else (lambda s, i=i: -s[i])), f.strict)
    if isinstance(f, (And, Or)):
        return type(f)(tuple(zero_offsets(c) for c in f.children))
    if isinstance(f, (Eventually, Always)):
        return type(f)(f.a, f.b, zero_offsets(f.child))
    return type(f)(f.a, f.b, zero_offsets(f.left), zero_offsets(f.right))


def test_signed_zero_ties_follow_the_recursions():
    # right@0 is 0.0 and left@0 is -0.0: robustness keeps the right operand's
    # zero, the witness the left one, exactly as the two recursions did
    x = Pred(Named("x", lambda s: s[0]))
    y = Pred(Named("y", lambda s: s[1]))
    for f in (Until(1, 1, x, y), Release(1, 1, x, y), And((x, y)),
              Or((x, y)), Eventually(0, 1, x), Always(0, 1, x)):
        for states in ([(-0.0, 5.0), (0.0, 0.0)], [(0.0, 5.0), (-0.0, -0.0)],
                       [(-0.0, 0.0), (0.0, -0.0)]):
            assert_matches_recursions(f, states)


class Compared(float):
    """A float that counts the < and > comparisons made on it."""

    n = 0

    def __lt__(self, other):
        Compared.n += 1
        return float.__lt__(self, other)

    def __gt__(self, other):
        Compared.n += 1
        return float.__gt__(self, other)


def test_a_negative_time_is_an_error():
    # states[k + lo:...] once wrapped a negative k round the trace's end
    tr = tr1([0.5, 1.5, 2.0, 3.5, 0.0, 1.0, 6.0, 2.0])
    for text, k in (("F[0,2](x0 > 2.5)", -8), ("F[0,2](x0 > 2.5)", -1),
                    ("x0 > 2.5", -2)):
        f = parse(text)
        for run in (robustness, satisfies, critical, stl.signals):
            with pytest.raises(ValueError, match=f"k={k} is negative"):
                run(f, tr, k)
        assert robustness(f, tr, 0) == (-0.5 if "F" in text else -2.0)


def test_linear_in_the_window():
    # each predicate is evaluated at most once per time step, and a running
    # extremum keeps U/R at O(b) comparisons per output (the recursion made
    # about b*b/2 = 125000 here); the smooth semantics aggregates plain
    # floats, so only its predicate calls are counted
    from stlctrl.smooth import SmoothConfig, smooth_robustness
    K = 1000
    tr = Trace([(math.sin(0.01 * k),) for k in range(K + 1)])
    for make in (lambda p, q: Until(0, 500, p, q),
                 lambda p, q: Release(0, 500, p, q),
                 lambda p, q: Eventually(0, 500, And((p, q))),
                 lambda p, q: Always(0, 500, Or((p, q)))):
        calls = []
        p, q = (Pred(Named(name, lambda s, name=name:
                           calls.append(name) or Compared(s[0])))
                for name in "pq")
        f = make(p, q)
        for run in (robustness, critical, satisfies,
                    lambda f, tr: smooth_robustness(f, tr, SmoothConfig(5.0))):
            calls.clear()
            Compared.n = 0
            run(f, tr)
            assert calls.count("p") <= K + 1 and calls.count("q") <= K + 1
            assert Compared.n <= 5 * 501, (f, run)


class Scored(float):
    """A predicate value whose comparison with 0 is a Compared 1.0 or 0.0,
    so that the Boolean kernel's And/Or comparisons are counted."""

    def __gt__(self, other):
        return Compared(float.__gt__(self, other))

    def __ge__(self, other):
        return Compared(float.__ge__(self, other))


def fused(op, n, wrap=float):
    """op (And or Or) over the n predicates wrap(x0)..wrap(x{n-1}): one
    fused step whose children have no signals of their own."""
    return op(tuple(Pred(Named(f"x{i}", lambda s, i=i: wrap(s[i])))
                    for i in range(n)))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_fused_and_or_compares_n_minus_1_times_per_state(n):
    # G[0,3] over the fused node: n - 1 comparisons at each of 4 states,
    # then 3 for the window's min
    rng = random.Random(n)
    tr = Trace([tuple(rng.uniform(-1, 1) for _ in range(n))
                for _ in range(4)])
    for op in (And, Or):
        for run, wrap in ((robustness, Compared), (satisfies, Scored)):
            f = Always(0, 3, fused(op, n, wrap))
            Compared.n = 0
            run(f, tr)
            assert Compared.n == 4 * (n - 1) + 3, (op, run)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_fused_and_or_is_the_builtin_over_the_same_tuple(n):
    # ties and 0.0/-0.0 keep the first child's value and witness, and a
    # NaN anywhere gives what min/max over the tuple gives, bit for bit
    import itertools
    nan = math.nan
    rng = random.Random(n)
    rows = [*itertools.product((0.0, -0.0, 1.0), repeat=n)]
    rows += [tuple(rng.choice((0.0, -0.0, 1.0, -1.0, -math.inf))
                   for _ in range(n)) for _ in range(40)]
    rows += [r[:j] + (nan,) + r[j + 1:] for r in rows[::7]
             for j in (0, n // 2, n - 1)]
    for op, agg in ((And, min), (Or, max)):
        f = fused(op, n)
        for row in rows:
            tr = Trace([row])
            want = agg(row)
            assert bits(robustness(f, tr)) == bits(want), (op, row)
            assert satisfies(f, tr) is agg(tuple(x > 0.0 for x in row))
            if want == want:
                w = critical(f, tr)
                assert w.predicate is f.children[row.index(want)], row
                assert bits(w.value) == bits(want), (op, row)


def test_operands_no_output_reads_are_not_evaluated():
    # U[0,0] reads its left operand at no time, nor does anything below it,
    # so p is never evaluated; q is read at times 0..4
    from stlctrl.smooth import smooth_robustness
    calls = []
    p, q = (Pred(Named(name, lambda s, name=name:
                       calls.append(name) or s[0] - 0.5))
            for name in "pq")
    tr = tr1([1.0, 0.0, 2.0, 3.0, 0.7, -1.0, 0.6, 0.4])
    for f in (Always(0, 4, Until(0, 0, p, q)),
              Eventually(0, 4, Release(0, 0, Always(0, 3, p), q))):
        for run in (robustness, critical, satisfies, smooth_robustness):
            calls.clear()
            run(f, tr)
            assert calls == ["q"] * 5, (f, run)


def test_horizon_skips_operands_no_output_reads():
    # R[0,0] reads G[0,3](p) at no time, so the formula needs times 0..4
    p, q = (Pred(Named(name, lambda s: s[0] - 0.5)) for name in "pq")
    f = Eventually(0, 4, Release(0, 0, Always(0, 3, p), q))
    assert horizon(f) == 4
    assert horizon(Until(0, 0, Always(0, 3, p), q)) == 0
    assert horizon(Until(0, 1, Always(0, 3, p), q)) == 4
    from stlctrl.smooth import smooth_robustness
    tr = tr1([1.0, 0.0, 2.0, 3.0, 0.7])
    assert robustness(f, tr) == critical(f, tr).value == 2.5
    assert satisfies(f, tr)
    smooth_robustness(f, tr)
    with pytest.raises(HorizonError):
        robustness(f, tr1([1.0, 0.0, 2.0, 3.0]))


def test_program_compiled_once_and_not_a_field(monkeypatch):
    from stlctrl.smooth import smooth_robustness
    from stlctrl import stl_kernels
    made, kernels = [], []
    orig, gen = stl._compile, stl_kernels.generate
    monkeypatch.setattr(stl, "_compile", lambda f: made.append(f) or orig(f))
    monkeypatch.setattr(stl_kernels, "generate",
                        lambda steps, sem: kernels.append(sem) or gen(steps, sem))
    f = parse("U[0,3](x0 > 0, G[0,2](x0 < 1))")
    g = parse("U[0,3](x0 > 0, G[0,2](x0 < 1))")
    tr = tr1([0.5, 0.2, -1.0, 3.0, 0.0, 0.1])
    for k in range(tr.K - horizon(f) + 1):
        robustness(f, tr, k)
        critical(f, tr, k)
        satisfies(f, tr, k)
        smooth_robustness(f, Trace(tr.states[k:]))
    assert made == [f]
    assert kernels == ["root", "exact", "boolean"]
    assert "_prog" not in type(f)._fields
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
    assert g._prog is None and f._prog is not None


def counted(name, calls):
    return Pred(Named(name, lambda s: calls.append(name) or s[0] - 0.5))


def test_shared_node_is_evaluated_once_per_time():
    # one predicate object under two operators with the same window is one
    # program step: 4 calls over 4 states, not 8, and as many smooth tape
    # nodes as the id-memoised recursion records
    from stlctrl.smooth import SmoothConfig, smooth_robustness
    from tests.test_smooth import srho_rec, taped
    calls = []
    p, q, r = (counted(name, calls) for name in "pqr")
    states = [(1.0,), (0.0,), (2.0,), (0.7,)]
    tr = Trace(states)
    for f in (And((Always(0, 3, p), Eventually(0, 3, p))),
              Always(0, 3, And((Or((p, q)), Or((p, r)))))):
        for run in (robustness, satisfies, critical,
                    lambda f, tr: smooth_robustness(f, tr, SmoothConfig(5.0))):
            calls.clear()
            run(f, tr)
            # critical evaluates a fused And/Or's children at k* again
            assert 4 <= calls.count("p") <= 4 + (run is critical), (f, run)
        assert_matches_recursions(f, states)
        for b in (5.0, 15.0):
            n, value, _ = taped(lambda f, st, b: smooth_robustness(
                f, Trace(st), SmoothConfig(b)), f, states, b)
            n_rec, value_rec, _ = taped(
                lambda f, st, b: srho_rec(f, st, 0, b, {}), f, states, b)
            assert (n, bits(value)) == (n_rec, bits(value_rec)), (f, b)


def looped(f, memo):
    """f with each Affine predicate a Named one that sums loop_affine's
    c[i] * s[i] terms, object sharing kept; memo maps id(node) to its
    copy."""
    if id(f) in memo:
        return memo[id(f)]
    if isinstance(f, Pred):
        h = f.h
        g = Pred(Named(h.describe(), lambda s: loop_affine(h, s)),
                 f.strict) if isinstance(h, Affine) else f
    elif isinstance(f, (And, Or)):
        g = type(f)(tuple(looped(c, memo) for c in f.children))
    elif isinstance(f, (Eventually, Always)):
        g = type(f)(f.a, f.b, looped(f.child, memo))
    else:
        g = type(f)(f.a, f.b, looped(f.left, memo), looped(f.right, memo))
    memo[id(f)] = g
    return g


def test_bundled_scenarios_match_recursions():
    # one seeded rollout of each bundled scenario's initial policy: the
    # large fused formulas (multi_dubins_10's 55 conjuncts, quad6_platform
    # at K=1500) against the recursions bit for bit, and against the same
    # formula whose affine predicates multiply by every coefficient
    from stlctrl.cli import bundled_names, load_scenario, resolve_scenario
    from stlctrl.plants import rollout
    from stlctrl.sampler import grad_critical, grad_smooth, partition_times
    from stlctrl.smooth import SmoothConfig, smooth_robustness
    from tests.test_smooth import srho_rec
    for name in bundled_names():
        sc = load_scenario(resolve_scenario(name))
        memo = {}
        f, g, K = sc.formula, looped(sc.formula, memo), horizon(sc.formula)
        back = {id(copy): i for i, copy in memo.items()}
        policy = sc.build_policy(random.Random(sc.seed))
        s0 = sc.init_set.sample_uniform(random.Random(1))
        ref = rollout(sc.plant, policy, s0, K)
        states, tr = ref.states, Trace(ref.states)
        assert_matches_recursions(f, states)
        assert [s and [bits(x) for x in s] for s in stl.signals(f, tr)] == [
            s and [bits(x) for x in s] for s in stl.signals(g, tr)], name
        assert satisfies(f, tr) is satisfies(g, tr), name
        wf, wg = critical(f, tr), critical(g, tr)
        assert (wf.time, id(wf.predicate), bits(wf.value)) == (
            wg.time, back[id(wg.predicate)], bits(wg.value)), name
        cfg = SmoothConfig(sc.train_cfg.b)
        assert bits(smooth_robustness(f, tr, cfg)) == bits(
            smooth_robustness(g, tr, cfg)) == bits(
            srho_rec(f, states, 0, cfg.b, {})), name
        grads = []
        for h in (f, g):
            w = critical(h, tr)
            grads.append([grad_critical(ref, w.time, w.predicate,
                                        sc.train_cfg.N, policy, sc.plant,
                                        random.Random(5))])
            for M in sorted({1, 2, min(sc.train_cfg.M, K)}):
                grads[-1].append(grad_smooth(
                    ref, partition_times(K, M, random.Random(M)), h, cfg,
                    policy, sc.plant))
        assert [[bits(x) for x in gr] for gr in grads[0]] == [
            [bits(x) for x in gr] for gr in grads[1]], name


def test_load_scenario_compiles_no_kernel(monkeypatch):
    # set-up only parses and checks: programs and kernels compile on the
    # first evaluation
    from stlctrl import stl_kernels
    from stlctrl.cli import bundled_names, load_scenario, resolve_scenario
    made = []
    monkeypatch.setattr(stl, "_compile", lambda f: made.append(f))
    monkeypatch.setattr(stl_kernels, "generate", lambda *a: made.append(a))
    for name in bundled_names():
        sc = load_scenario(resolve_scenario(name))
        assert sc.formula._prog is None, name
    assert made == []


def test_formula_from_an_earlier_import_gets_a_kernel(monkeypatch):
    # the benchmark imports stlctrl again between runs, which also drops the
    # kernel generator imported on first use: a formula parsed by the
    # earlier import gets its kernels from the new generator
    import importlib
    import sys
    text = "G[0,2](x0 > 0 && x0 < 3) && U[0,1](x0 > 1, x0 > 0)"
    tr = tr1([1.0, 2.0, 1.5, 0.5])
    want = robustness(parse(text), tr), satisfies(parse(text), tr)
    for name in [n for n in sys.modules if n.startswith("stlctrl")]:
        monkeypatch.delitem(sys.modules, name)
    new = importlib.import_module("stlctrl.stl")
    new.robustness(new.parse(text), new.Trace(tr.states))
    f = parse(text)
    assert (robustness(f, tr), satisfies(f, tr)) == want
    assert critical(f, tr).value == want[0]


# -- the root kernel: rows of a safety conjunct that cannot set the min -------

WINDOWS = ((0, 0), (0, 3), (1, 4), (2, 2))


def guarded(rng, dim):
    """G[a,b] over an Or of 2-4 affine predicates, the conjunct the root
    kernel prunes; windows repeat, so that runs share a row loop."""
    return Always(*rng.choice(WINDOWS), Or(tuple(
        random_formula(rng, dim, 0) for _ in range(rng.randint(2, 4)))))


def reach(rng, dim):
    """F[a,b](G[c,d](phi)), the reach conjunct the root kernel settles from
    one window, phi a predicate, an And, an Or or a counted Named one."""
    kind = rng.randrange(4)
    phi = (random_formula(rng, dim, 0) if kind == 0
           else counted("n", []) if kind == 3
           else (And, Or)[kind - 1](tuple(
               random_formula(rng, dim, 0) for _ in range(rng.randint(2, 3)))))
    return Eventually(*rng.choice(WINDOWS), Always(*rng.choice(WINDOWS), phi))


def reach_avoid(rng, dim):
    """A root And of random children, guarded ones and up to two reach
    ones; a guarded child and every reach child come after the first
    child, which is guarded in about a third of the draws."""
    kids = [guarded(rng, dim) if rng.random() < 0.5
            else random_formula(rng, dim, rng.randint(0, 2))
            for _ in range(rng.randint(1, 5))]
    kids.insert(rng.randint(1, len(kids)), guarded(rng, dim))
    for _ in range(rng.randint(0, 2)):
        kids.insert(rng.randint(1, len(kids)), reach(rng, dim))
    if rng.random() < 0.33:
        kids[0] = guarded(rng, dim)
    return And(tuple(kids))


@pytest.mark.parametrize("pool", [
    (0.0, -0.0, 1.0, -1.0, 2.0, math.inf, -math.inf),
    (0.0, -0.0, 1.0, math.nan, math.inf, -math.inf),
])
def test_root_kernel_is_the_exact_root_on_reach_avoid_formulas(pool):
    # ties, signed zeros, infinities and NaN, the last also in the first
    # row of a guarded child's window and in later rows, at every k
    rng = random.Random(13)
    for _ in range(300):
        dim = rng.randint(1, 3)
        f = reach_avoid(rng, dim)
        f = zero_offsets(f) if rng.random() < 0.5 else f
        h = horizon(f)
        states = crafted_traces(rng, dim, h + rng.randint(1, 3), pool)
        if math.nan in pool:
            g = rng.choice([c for c in f.children if isinstance(c, Always)])
            for t in (g.a, rng.randint(g.a, g.b + 1)):
                states[t] = tuple(math.nan if rng.random() < 0.5 else x
                                  for x in states[t])
        assert_matches_recursions(f, states, key=nan_as_one)
        tr = Trace(states)
        for k in range(len(states) - h):
            assert nan_as_one(robustness(f, tr, k)) == nan_as_one(
                stl.signals(f, tr, k)[-1][0]), (f, k)
        assert f._prog[2]["root"] is not None


def test_root_kernel_is_the_exact_root_on_bundled_rollouts():
    # each scenario's seeded rollout, and rollouts of perturbed policies
    from stlctrl.cli import bundled_names, load_scenario, resolve_scenario
    from stlctrl.plants import DivergedRollout, rollout
    from stlctrl.policy import Policy
    for name in bundled_names():
        sc = load_scenario(resolve_scenario(name))
        f, K = sc.formula, horizon(sc.formula)
        policy, rng = sc.build_policy(random.Random(sc.seed)), random.Random(3)
        for scale in (0.0, 0.3, 0.3, 1.0):
            p = Policy(policy.widths, [w + rng.gauss(0.0, scale)
                                       for w in policy.theta],
                       policy.include_time, policy.time_scale)
            try:
                r = rollout(sc.plant, p, sc.init_set.sample_uniform(
                    random.Random(1)), K)
            except DivergedRollout:
                continue
            tr = Trace(r.states)
            assert bits(robustness(f, tr)) == bits(
                stl.signals(f, tr)[-1][0]), name
        assert callable(f._prog[2]["root"]), name


def test_root_kernel_skips_the_rows_that_cannot_set_the_min():
    # with -100 first, the Or's later predicates run at the window's first
    # row only: the first predicate is not below -100 at the later rows,
    # one of which ties it and one of which is NaN
    calls = []
    p, q, r = (counted(name, calls) for name in "pqr")
    low = Pred(Affine((0.0,), -100.0))
    f = And((low, Always(1, 4, Or((p, q, r)))))
    tr = tr1([5.0, 3.0, -99.5, math.nan, 0.5, 7.0])
    for k in (0, 1):
        calls.clear()
        assert robustness(f, tr, k) == -100.0
        assert calls == ["p", "q", "r", "p", "p", "p"], k
    # below the bound, a later row is evaluated in full
    calls.clear()
    assert robustness(f, tr1([5.0, 3.0, -200.0, 1.0, 1.0]), 0) == -200.5
    assert calls == ["p", "q", "r", "p", "q", "r", "p", "p"]


# -- the root kernel: reach children settled from one window ----------------

class Cuts(list):
    """A rows list that records the (start, stop) of each slice taken."""

    def __init__(self, rows, cuts):
        super().__init__(rows)
        self.cuts = cuts

    def __getitem__(self, i):
        self.cuts.append((i.start, i.stop))
        return super().__getitem__(i)


def test_reach_fold_stops_at_the_first_window_from_the_last_not_below_m():
    from stlctrl.stl_kernels import _reach
    rows = [5.0, -3.0, 4.0, 6.0, 2.0, 7.0]       # G[0,2] windows: -3 -3 2 2
    cuts = []
    assert _reach(1.0, Cuts(rows, cuts), 3, 4) == 1.0
    assert cuts == [(3, 6)]
    cuts.clear()
    assert _reach(2.5, Cuts(rows, cuts), 3, 4) == 2.0
    assert cuts == [(3, 6), (2, 5), (1, 4), (0, 3)]
    cuts.clear()
    assert _reach(-3.0, Cuts(rows, cuts), 3, 1) == -3.0    # a tie
    assert cuts == [(0, 3)]


@pytest.mark.parametrize("pool", [
    (0.0, -0.0, 1.0, -1.0, math.inf, -math.inf),
    (0.0, -0.0, 1.0, math.nan, math.inf, -math.inf),
])
def test_reach_fold_is_the_max_of_window_mins_folded_into_m(pool):
    # NaN first and later rows, signed zero ties, infinities, a NaN m and
    # an m equal to a window's min
    from stlctrl.stl_kernels import _reach, _window
    rng = random.Random(41)
    for _ in range(3000):
        w, n = rng.randint(1, 4), rng.randint(1, 5)
        rows = [rng.choice(pool) for _ in range(n + w - 1)]
        mins = _window(min, rows, w, n)
        for m in (*pool, *mins):
            v = max(mins)
            want = v if v < m else m
            assert bits(_reach(m, rows, w, n)) == bits(want), (m, rows, w)


def test_root_kernel_settles_a_reach_child_from_its_last_window(monkeypatch):
    from stlctrl import stl_kernels
    cuts, real = [], stl_kernels._reach
    monkeypatch.setattr(stl_kernels, "_reach", lambda m, c, w, n: real(
        m, Cuts(c, cuts), w, n))
    r = Eventually(0, 3, Always(0, 2, Pred(Affine((1.0,), 0.0))))
    tr = tr1([5.0, -3.0, 4.0, 6.0, 2.0, 7.0])
    for low, want in ((-100.0, [(3, 6)] * 2),
                      (100.0, [(3, 6), (2, 5), (1, 4), (0, 3)] * 2)):
        f = And((Pred(Affine((0.0,), low)), r, Eventually(0, 3, Always(
            0, 2, Pred(Affine((1.0,), -1.0))))))
        cuts.clear()
        assert bits(robustness(f, tr)) == bits(stl.signals(f, tr)[-1][0])
        assert cuts == want, low


def test_a_reach_child_read_elsewhere_keeps_its_windows(monkeypatch):
    # the same F step first and third, and one G step under two F nodes:
    # only the guarded child is pruned, and no reach child is settled
    from stlctrl import stl_kernels
    calls = []
    monkeypatch.setattr(stl_kernels, "_reach", lambda *a: calls.append(a))
    x0 = Pred(Affine((1.0,), -1.0))
    r = Eventually(0, 2, Always(1, 2, x0))
    g = Always(0, 3, Or((x0, Pred(Affine((-1.0,), 2.0)))))
    twice = Always(0, 1, x0)
    rng = random.Random(5)
    for f in (And((r, g, r)),
              And((x0, Eventually(0, 2, twice), g, Eventually(0, 2, twice)))):
        steps = stl._program(f)[1]
        assert list(stl_kernels.prunable(steps)) == [f.children.index(g)]
        for pool in ((0.0, -0.0, 1.0, 2.0, -math.inf),
                     (0.0, 1.0, math.nan, math.inf)):
            states = crafted_traces(rng, 1, horizon(f) + 2, pool)
            assert_matches_recursions(f, states, key=nan_as_one)
            tr = Trace(states)
            for k in range(3):
                assert nan_as_one(robustness(f, tr, k)) == nan_as_one(
                    stl.signals(f, tr, k)[-1][0])
    assert calls == []
