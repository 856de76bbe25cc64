import hashlib
import math
import random
import struct

import pytest

from stlctrl.autodiff import SUB, Tape, Var, value_of
from stlctrl.cli import bundled_names, load_scenario, resolve_scenario
from stlctrl.plants import rollout
from stlctrl.sampler import state_adjoints
from stlctrl.smooth import (
    _CORES, SmoothConfig, smooth_adjoints, smooth_robustness, softmin,
    softmax_lb,
)
from stlctrl.stl import (
    Affine, Always, And, Eventually, HorizonError, Named, Or, Pred, Release,
    Trace, Until, aggregation_shape, horizon, parse, robustness, satisfies,
)
from tests.test_stl import (
    CORPUS, bits, crafted_traces, nan_as_one, random_formula, zero_offsets,
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
    """The smooth robustness by recursion, aggregating with softmin and
    softmax_lb, which record the Var operators over Vars."""
    key = (id(f), k)
    got = memo.get(key)
    if got is not None:
        return got
    if isinstance(f, Pred):
        v = f.h.eval(states[k])
    elif isinstance(f, And):
        v = softmin([srho_rec(c, states, k, b, memo)
                     for c in f.children], b)
    elif isinstance(f, Or):
        v = softmax_lb([srho_rec(c, states, k, b, memo)
                        for c in f.children], b)
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


def outcome(fn, *args, key=bits):
    """fn's value as key(value), or the exception it raised."""
    try:
        return key(fn(*args))
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
            assert outcome(smooth_value, f, states, b, key=nan_as_one) == \
                outcome(srho_rec, f, states, 0, b, {}, key=nan_as_one), (
                    f, states, b)
        checked += 1


def test_smooth_robustness_compiles_no_kernel(monkeypatch):
    # the smooth semantics walks the program: with kernel compiling
    # refused, F, G, U, R, And/Or and a Named predicate still evaluate,
    # on floats and over Vars, as the recursion does
    from stlctrl import autodiff, stl_kernels

    def refuse(*args):
        raise AssertionError("a kernel was compiled")

    monkeypatch.setattr(autodiff, "compile_kernel", refuse)
    monkeypatch.setattr(stl_kernels, "compile_kernel", refuse)
    near = Named("near", lambda s: 0.1 - s[0] * s[1])
    f = parse("F[0,3](x0 > 0.2 && pred(near)) && G[1,4](x1 > -0.5 || "
              "x0 < 0.9) && U[0,3](pred(near), x0 > 0.4) && "
              "R[1,2](x1 > 0.1, x0 - x1 >= -0.3)", named={"near": near})
    rng = random.Random(5)
    states = [(rng.uniform(-1, 1), rng.uniform(-1, 1))
              for _ in range(horizon(f) + 2)]
    for b in (5.0, 15.0):
        assert bits(smooth_value(f, states, b)) == \
            bits(srho_rec(f, states, 0, b, {})), b
        run = (lambda f, st, b: smooth_robustness(f, Trace(st),
                                                  SmoothConfig(b)))
        n, value, _ = taped(run, f, states, b)
        n_rec, value_rec, _ = taped(
            lambda f, st, b: srho_rec(f, st, 0, b, {}), f, states, b)
        assert (n, bits(value)) == (n_rec, bits(value_rec)), b
    assert f._prog[2] == {}


def tape_digest(f, states, b):
    """sha256 of the records, the values' IEEE bytes and the output's node
    id of smooth_robustness over Vars of states on a fresh tape."""
    tape = Tape()
    var_states = [tuple(tape.const(x) for x in s) for s in states]
    out = smooth_robustness(f, Trace(var_states), SmoothConfig(b))
    h = hashlib.sha256(repr(tape.recs).encode())
    h.update(struct.pack(f"<{len(tape.vals)}d", *tape.vals))
    h.update(struct.pack("<q", out.i))
    return h.hexdigest()[:16]


def tape_digests():
    """tape_digest on the seeded rollouts of dubins_k10 and integrator2d
    (their formulas and sharpness) and on a U/R formula over 12 random
    states."""
    out = {}
    for name in ("dubins_k10", "integrator2d"):
        sc = load_scenario(resolve_scenario(name))
        pol = sc.build_policy(random.Random(sc.seed))
        ref = rollout(sc.plant, pol, sc.init_set.samples[0],
                      horizon(sc.formula))
        out[name] = tape_digest(sc.formula, ref.states, sc.train_cfg.b)
    rng = random.Random(3)
    f = parse("U[0,4](x0 > 0.1 && x1 < 0.5, F[0,2](x1 > 0)) || "
              "R[1,3](x0 > -0.3, x1 > 0.2 || x0 < 0.8)")
    out["UR"] = tape_digest(f, [(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                for _ in range(12)], 15.0)
    return out


def test_tape_records_are_those_of_the_steps_one_by_one():
    # recorded before the smooth semantics lost its generated kernel,
    # whose tape was that of evaluating the steps one by one, each
    # predicate's eval over all its times before the next step
    assert tape_digests() == TAPE_DIGESTS


TAPE_DIGESTS = {"dubins_k10": "c8bbadf670772cf0",
                "integrator2d": "be10ecce1e951168", "UR": "08e2d99f46408488"}


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
    # another order: gradients agree to rounding with the recursion's, and
    # node counts exactly
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


# -- the float cores of smooth_adjoints against the Var operators -----------

def _pack(xs):
    return b"".join(map(nan_as_one, xs))


def _aggregated(fn, entries, b, post, cores=False):
    """Value and gradient bits of fn's aggregation (min: softmin, max:
    softmax_lb) of xs on a fresh tape.  An int entry j is the j-th Var of
    a pool of seeds holding VALUES and two nodes computed from them; a
    float stays a float.  post "nest" puts the output and the list's
    first entry through the other aggregation and squares that; "zero"
    multiplies the output by 0.0, so its adjoint is 0.0 whatever its
    value; "tiny" multiplies it by the least subnormal, so that an
    adjoint divided by a sum of weights of 2 or more underflows to 0.0.
    With cores, each aggregation with a Var entry is one const holding
    the value of its float core (smooth._CORES), whose adjoint is run on
    the sweep as smooth_adjoints runs it: after the records above it,
    before the pool's two records below."""
    tape, swept = Tape(), []
    seeds = [tape.const(v) for v in VALUES]
    pool = seeds + [seeds[0] * seeds[1], seeds[2] - 2.0]

    def aggregate(fn, xs):
        if not cores:
            return {min: softmin, max: softmax_lb}[fn](xs, b)
        if len(xs) == 1:
            return xs[0]
        core, adjoint = _CORES[fn]
        v, args = core([value_of(x) for x in xs], [
            x.i if isinstance(x, Var) else None for x in xs], b)
        if not args[-1]:  # no Var entry
            return v
        swept.append((len(tape), adjoint, args))
        return tape.const(v)

    xs = [pool[e] if type(e) is int else e for e in entries]
    out = aggregate(fn, xs)
    if post == "nest":
        out = aggregate(max if fn is min else min, [xs[0], out, 0.25])
        out = out * out
    elif post == "zero":
        out = out * 0.0
    elif post == "tiny":
        out = out * 5e-324
    if not isinstance(out, Var):
        return _pack([out]), None
    adj = tape.backward(out, range(len(tape)))
    for n, adjoint, args in reversed(swept):
        adjoint(adj, n, args)
    for i in (len(VALUES) + 2, len(VALUES)) if swept else ():
        op, a, c, _ = tape.recs[i]
        g = adj[i]
        if g != 0.0 and op == SUB:  # seeds[2] - 2.0
            adj[a] += g
            adj[c] -= g
        elif g != 0.0:  # seeds[0] * seeds[1]
            adj[a] += g * tape.vals[c]
            adj[c] += g * tape.vals[a]
    return _pack([out.value]), _pack(adj[:len(VALUES)])


VALUES = (0.5, -1.25, 3.0, 100.0, -100.0, math.inf, -math.inf, math.nan,
          -0.0, 0.0)
V = {v if v == v else "nan": j for j, v in enumerate(VALUES)}  # Var of v

CRAFTED = [
    [0.5, V[0.5], V[0.5]],                         # ties, a float among them
    [V[0.5], 0.5, V[0.5], 0.5],
    [0.0, V[100.0]],                               # softmin's weight 0.0
    [V[-100.0], 0.0, V[0.5]],                      # softmax_lb's weight 0.0
    [V[100.0], V[-100.0], 1.0],                    # both at once
    [V[math.inf], 1.0, V[0.5]],
    [V[-math.inf], 1.0, V[0.5]],
    [1.0, V["nan"], V[0.5]],
    [V["nan"], 1.0],
    [math.nan, V[0.5], 2.0],
    [math.inf, V[0.5]],
    [-math.inf, V[0.5]],
    [V[-0.0], 0.0, V[0.0], -0.0],
    [V[-1.25], 10, V[-1.25], V[3.0], V[-1.25]],   # the same Var thrice
    [2.0, 3.0, -1.0, V[0.5], 1.0, V[-1.25]],      # a float-only prefix
    [2.0, 3.0, 1.0, 0.5],                          # floats only
    [V[0.5], V[3.0]],
    [10, 11, V[0.5], 11],                          # nodes computed from seeds
    [V[3.0]],
    [V[3.0], 3.0, V[0.5], 0.5],                    # ties at both extrema:
    # with "tiny", an adjoint over their sum of weights, 2.0 or more,
    # underflows to 0.0 (softmin's after / b, softmax_lb's num adjoint)
]


POSTS = (None, "nest", "zero", "tiny")


@pytest.mark.parametrize("b", [5.0, 15.0])
@pytest.mark.parametrize("k", range(len(CRAFTED)))
def test_aggregations_match_the_var_operators_on_crafted_lists(k, b):
    entries = CRAFTED[k]
    for post in POSTS:
        for fn in (min, max):
            assert _aggregated(fn, entries, b, post, cores=True) == \
                _aggregated(fn, entries, b, post), (fn, entries, post)


def test_aggregations_match_the_var_operators_on_random_lists():
    rng = random.Random(21)
    floats = (0.5, 0.5, -1.25, 3.0, 40.0, -40.0, 0.0, -0.0, math.inf,
              -math.inf, math.nan)
    for _ in range(600):
        entries = [rng.choice(floats) if rng.random() < 0.5
                   else rng.randrange(len(VALUES) + 2)
                   for _ in range(rng.randint(1, 9))]
        for b in (5.0, 15.0):
            for post in POSTS:
                for fn in (min, max):
                    assert _aggregated(fn, entries, b, post, cores=True) \
                        == _aggregated(fn, entries, b, post), (
                            fn, entries, post)


# -- the float sweep against Tape.backward, bit for bit ----------------------

def taped_adjoints(f, states, b):
    """smooth_robustness's adjoints over Vars of the states, by the tape."""
    return state_adjoints(lambda *s: smooth_robustness(f, Trace(s),
                                                       SmoothConfig(b)),
                          states)


def assert_sweep_matches_tape(f, states, b):
    got = smooth_adjoints(f, states, SmoothConfig(b))
    want = taped_adjoints(f, states, b)
    assert [len(a) for a in got] == [len(a) for a in want]
    assert _pack([g for a in got for g in a]) == \
        _pack([g for a in want for g in a]), (f, states, b)


@pytest.mark.parametrize("name", bundled_names())
def test_sweep_matches_the_tape_on_bundled_scenarios(name):
    # each scenario's formula over rollouts of four seeded controllers
    sc = load_scenario(resolve_scenario(name))
    K = horizon(sc.formula)
    for seed in (sc.seed, 1, 2, 3):
        pol = sc.build_policy(random.Random(seed))
        ref = rollout(sc.plant, pol, sc.init_set.samples[0], K)
        assert_sweep_matches_tape(sc.formula, ref.states, sc.train_cfg.b)


def test_sweep_matches_the_tape_on_corpus():
    # random formulas with And/Or, F/G (F[a,a] among them), U and R over
    # multi-term, non-unit and cancelled (all-zero) coefficients
    for f, states in CORPUS:
        for b in (5.0, 15.0):
            assert_sweep_matches_tape(f, states, b)


@pytest.mark.parametrize("pool", [
    (0.0, -0.0, 1.0, -1.0, 2.0, math.inf, -math.inf),
    (0.0, -0.0, 1.0, math.nan, math.inf, -math.inf),
])
def test_sweep_matches_the_tape_on_ties_zeros_and_infinities(pool):
    rng = random.Random(9)
    checked = 0
    while checked < 300:
        dim = rng.randint(1, 3)
        f = random_formula(rng, dim, rng.randint(1, 3))
        h = horizon(f)
        if h > 12:
            continue
        states = crafted_traces(rng, dim, h + rng.randint(0, 3), pool)
        for b in (5.0, 15.0):
            assert_sweep_matches_tape(f, states, b)
        checked += 1


def _affine(c, d=0.25):
    return Pred(Affine(tuple(c), d))


CRAFTED_FORMULAS = [
    _affine((1.0, 0.0)),                             # a lone predicate
    _affine((2.0, -0.5), -1.0),
    _affine((0.0, 0.0)),                             # all-zero coefficients
    _affine((0.0, -0.0), math.inf),
    And((_affine((1.0, -1.0)),)),                    # one child
    Or((_affine((-0.0, 3.0)),)),
    And((_affine((0.0, 0.0)), _affine((1.0, 0.0)))),
    Or((_affine((0.0, 0.0), -1.0), _affine((0.0, 0.0), 2.0))),
    Always(2, 2, _affine((1.0, 2.0), 0.5)),          # F[a,a] and G[a,a]
    Eventually(0, 0, And((_affine((1.0, 0.0)), _affine((0.0, -1.0))))),
    Eventually(1, 3, Or((_affine((-1.0, -2.5)),
                         _affine((0.0, 0.0))))),
    And((Always(0, 3, _affine((1.5, -1.0))), Eventually(1, 1, _affine(
        (0.0, 1.0))))),
    Until(0, 3, _affine((1.0, -1.0)), _affine((0.5, 0.0))),
    Release(1, 3, _affine((-1.0, 1.0)), Or((_affine((0.0, 0.0)),
                                            _affine((1.0, 1.0))))),
    Until(2, 2, _affine((0.0, 0.0)), _affine((1.0, 0.0))),
    Until(0, 0, _affine((1.0, 0.0)), _affine((0.0, 1.0))),
    Release(0, 2, Always(0, 1, _affine((1.0, 0.0))), _affine((0.0, 0.0))),
    And((_affine((math.inf, 0.0)), _affine((0.0, 1.0)))),  # g * inf
    Eventually(0, 2, _affine((-0.0, 1e-310), 0.0)),
]


@pytest.mark.parametrize("k", range(len(CRAFTED_FORMULAS)))
def test_sweep_matches_the_tape_on_crafted_formulas(k):
    f = CRAFTED_FORMULAS[k]
    rng = random.Random(k)
    K = horizon(f) + 1
    traces = [[(0.5 * t - 1.0, 0.25 * t) for t in range(K + 1)],
              [(1.0, 1.0)] * (K + 1)]
    for pool in ((0.0, -0.0, 1.0, -1.0, 2.0, math.inf, -math.inf),
                 (0.0, -0.0, 1.0, math.nan, math.inf, -math.inf),
                 (1e-300, -1e-300, 1e300, 0.5)):
        traces += [crafted_traces(rng, 2, K, pool) for _ in range(10)]
    for states in traces:
        for b in (5.0, 15.0):
            assert_sweep_matches_tape(f, states, b)


def test_sweep_declines_a_named_predicate():
    named = Pred(Named("x", lambda s: s[0]))
    f = And((named, Pred(Affine((1.0,), 0.0))))
    assert smooth_adjoints(f, [(0.5,)], SmoothConfig()) is None


def test_sweep_checks_the_horizon():
    with pytest.raises(HorizonError):
        smooth_adjoints(parse("F[0,3](x0 > 0)"), [(0.0,)] * 3)
