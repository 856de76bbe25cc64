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
    """The coordinate loop Affine.eval's compiled code replaces (oracle)."""
    v = h.d
    for i, ci in enumerate(h.c):
        if ci != 0.0:
            v = v + ci * state[i]
    return v


def test_affine_eval_matches_loop_on_floats_and_tape():
    from stlctrl.autodiff import Tape
    rng = random.Random(21)
    for dim in (1, 2, 7, 20, 4000):
        for _ in range(3):
            c = tuple(rng.choice((0.0, -0.0, rng.uniform(-5, 5)))
                      for _ in range(dim))
            h = Affine(c, rng.uniform(-5, 5))
            s = tuple(rng.uniform(-9, 9) for _ in range(dim))
            assert h.eval(s) == loop_affine(h, s)
            runs = []
            for fn in (Affine.eval, loop_affine):
                tape = Tape()
                out = fn(h, tuple(tape.const(x) for x in s))
                runs.append((getattr(out, "value", out), tape.recs, tape.vals))
            assert runs[0] == runs[1]


def test_affine_compiled_evaluator_is_not_a_field():
    h = Affine((1.0, 0.0), 2.0)
    g = Affine((1.0, 0.0), 2.0)
    assert h.eval((3.0, 4.0)) == 5.0
    assert h == g and hash(h) == hash(g)
    assert repr(h) == repr(g)


def test_a_300_coordinate_predicate_is_affine_eval_bit_for_bit():
    # the kernels write a sum this long as several statements; each must
    # carry on Affine.eval's left-to-right order
    rng = random.Random(30)
    h = Affine(tuple(0.0 if rng.random() < 0.1 else rng.uniform(-5, 5)
                     for _ in range(300)), rng.uniform(-5, 5))
    tr = Trace([tuple(rng.uniform(-9, 9) for _ in range(300))
                for _ in range(4)])
    f = Pred(h)
    for k, s in enumerate(tr.states):
        assert (struct.pack("<d", robustness(f, tr, k))
                == struct.pack("<d", h.eval(s)))
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


def assert_matches_recursions(f, states):
    """Robustness, satisfaction and witness at every valid k equal the
    recursions'.

    With NaN values the witness is not compared: the witness recursion
    and the robustness recursion disagree there themselves."""
    tr = Trace(states)
    has_nan = any(x != x for s in states for x in s)
    for k in range(len(states) - horizon(f)):
        want = rho_rec(f, states, k, {})
        assert bits(robustness(f, tr, k)) == bits(want), (f, k)
        assert satisfies(f, tr, k) is brute_sat(f, states, k), (f, k)
        w = critical(f, tr, k)
        if has_nan:
            continue
        value, time, pred = crit_rec(f, states, k, {})
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
        assert_matches_recursions(f, states)
        checked += 1


def zero_offsets(f):
    """f with every predicate h(s) = +-s_i, copying signed zeros and infs."""
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
    import dataclasses
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
    assert kernels == ["exact", "boolean", "smooth"]
    assert "_prog" not in {fl.name for fl in dataclasses.fields(f)}
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
    assert g._prog is None and f._prog is not None


def counted(name, calls):
    return Pred(Named(name, lambda s: calls.append(name) or s[0] - 0.5))


def test_shared_node_is_evaluated_once_per_time():
    # one predicate object under two operators with the same window is one
    # program step: 4 calls over 4 states, not 8, and as many smooth tape
    # nodes as the id-memoised recursion records with the same soft min/max
    from stlctrl.smooth import (
        SmoothConfig, smooth_robustness, softmax_lb, softmin,
    )
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
                lambda f, st, b: srho_rec(f, st, 0, b, {},
                                          (softmin, softmax_lb)),
                f, states, b)
            assert (n, bits(value)) == (n_rec, bits(value_rec)), (f, b)


def test_critical_from_kept_signals_only_backtracks():
    # given the signals robustness evaluated, critical evaluates no
    # predicate except the children of a fused And/Or at the chosen time
    calls = []
    p, q = (counted(name, calls) for name in "pq")
    tr = tr1([1.0, 0.0, 2.0, 3.0, 0.7, -1.0])
    for f in (Eventually(0, 3, Until(1, 2, p, q)), Always(0, 5, And((p, q)))):
        sig = stl.signals(f, tr)
        assert bits(sig[-1][0]) == bits(robustness(f, tr))
        calls.clear()
        w = critical(f, tr, sig=sig)
        assert len(calls) <= 2, (f, calls)
        assert w == critical(f, tr)


def test_bundled_scenarios_match_recursions():
    # one seeded rollout of each bundled scenario's initial policy: the
    # large fused formulas (multi_dubins_10's 55 conjuncts, quad6_platform
    # at K=1500) against the recursions bit for bit
    from stlctrl.cli import bundled_names, load_scenario, resolve_scenario
    from stlctrl.plants import rollout
    from stlctrl.smooth import SmoothConfig, smooth_robustness
    from tests.test_smooth import srho_rec
    for name in bundled_names():
        sc = load_scenario(resolve_scenario(name))
        policy = sc.build_policy(random.Random(sc.seed))
        s0 = sc.init_set.sample_uniform(random.Random(1))
        states = rollout(sc.plant, policy, s0, horizon(sc.formula)).states
        assert_matches_recursions(sc.formula, states)
        b = sc.train_cfg.b
        assert bits(smooth_robustness(sc.formula, Trace(states),
                                      SmoothConfig(b))) == \
            bits(srho_rec(sc.formula, states, 0, b, {})), name


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
